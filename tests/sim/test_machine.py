"""Unit tests for the simulated machine state."""

import numpy as np
import pytest

from repro.sim.machine import Machine
from repro.tensor import FP16, FP32, GL, RF, SH


class TestMachine:
    def test_global_binding(self):
        m = Machine()
        arr = np.arange(8, dtype=np.float32)
        m.bind_global("A", arr)
        buf = m.buffer(GL, "A", FP32, block=0, thread=0, min_size=8)
        assert buf is m.global_array("A")
        buf[3] = 99.0
        assert arr[3] == 99.0  # in-place, like a CUDA kernel parameter

    def test_unbound_global_raises(self):
        with pytest.raises(KeyError):
            Machine().buffer(GL, "missing", FP32, 0, 0, 1)

    def test_shared_scoped_per_block(self):
        m = Machine()
        b0 = m.buffer(SH, "smem", FP16, block=0, thread=0, min_size=4)
        b1 = m.buffer(SH, "smem", FP16, block=1, thread=0, min_size=4)
        b0[0] = 1.0
        assert b1[0] == 0.0

    def test_registers_scoped_per_thread(self):
        m = Machine()
        r0 = m.buffer(RF, "regs", FP32, block=0, thread=0, min_size=2)
        r1 = m.buffer(RF, "regs", FP32, block=0, thread=1, min_size=2)
        r0[0] = 7.0
        assert r1[0] == 0.0

    def test_lazy_growth(self):
        m = Machine()
        m.buffer(RF, "regs", FP32, 0, 0, 2)[1] = 5.0
        grown = m.buffer(RF, "regs", FP32, 0, 0, 10)
        assert grown.size == 10
        assert grown[1] == 5.0

    def test_declared_size_and_dtype(self):
        m = Machine()
        m.declare("smem", FP16, 64)
        buf = m.buffer(SH, "smem", FP32, 0, 0, 1)
        assert buf.size == 64
        assert buf.dtype == np.float16  # declaration wins

    def test_shared_bytes(self):
        m = Machine()
        m.buffer(SH, "a", FP16, 0, 0, 16)
        m.buffer(SH, "b", FP32, 0, 0, 8)
        assert m.shared_bytes(0) == 16 * 2 + 8 * 4

