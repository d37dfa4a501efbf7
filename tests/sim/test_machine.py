"""Unit tests for the simulated machine state."""

import numpy as np
import pytest

from repro.layout import Layout
from repro.sim.machine import Machine
from repro.tensor import FP16, FP32, GL, RF, SH
from repro.tensor.tensor import Tensor

from .reference_oracle import ExecCtx, ViewTables


class TestMachine:
    def test_global_binding(self):
        m = Machine()
        arr = np.arange(8, dtype=np.float32)
        m.bind_global("A", arr)
        buf = m.buffer(GL, "A", FP32, block=0, min_size=8)
        assert buf is m.global_array("A")
        buf[3] = 99.0
        assert arr[3] == 99.0  # in-place, like a CUDA kernel parameter

    def test_unbound_global_raises(self):
        with pytest.raises(KeyError):
            Machine().buffer(GL, "missing", FP32, 0, 1)

    def test_shared_scoped_per_block(self):
        m = Machine()
        b0 = m.buffer(SH, "smem", FP16, block=0, min_size=4)
        b1 = m.buffer(SH, "smem", FP16, block=1, min_size=4)
        b0[0] = 1.0
        assert b1[0] == 0.0

    def test_registers_scoped_per_thread(self):
        """Registers are per thread, keyed ``(block, thread, name)``:
        the machine resolves no block-scoped register buffer, and the
        reference oracle resolves one per lane."""
        m = Machine()
        with pytest.raises(ValueError, match="block-scoped"):
            m.buffer(RF, "regs", FP32, block=0, min_size=2)
        regs = Tensor("regs", Layout(2, 1), FP32, RF, buffer="regs")
        ctx = ExecCtx(m, ViewTables(), None, None, 0, {}, [0, 1])
        r0 = ctx._buffer(regs, 0, 2)
        r1 = ctx._buffer(regs, 1, 2)
        r0[0] = 7.0
        assert r1[0] == 0.0
        assert m._regs[(0, 0, "regs")] is r0

    def test_lazy_growth(self):
        m = Machine()
        m.buffer(SH, "smem", FP32, 0, 2)[1] = 5.0
        grown = m.buffer(SH, "smem", FP32, 0, 10)
        assert grown.size == 10
        assert grown[1] == 5.0

    def test_declared_size_and_dtype(self):
        m = Machine()
        m.declare("smem", FP16, 64)
        buf = m.buffer(SH, "smem", FP32, 0, 1)
        assert buf.size == 64
        assert buf.dtype == np.float16  # declaration wins

    def test_shared_bytes(self):
        m = Machine()
        m.buffer(SH, "a", FP16, 0, 16)
        m.buffer(SH, "b", FP32, 0, 8)
        assert m.shared_bytes(0) == 16 * 2 + 8 * 4

