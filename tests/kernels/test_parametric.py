"""Parametric-shape (symbolic M) GEMM tests — paper Section 3.4."""

import re

import numpy as np
import pytest

from repro.arch import AMPERE
from repro.codegen import CudaGenerator
from repro.kernels import ParametricGemmConfig, build
from repro.sim import SimulationError, Simulator


def run(kernel, m, n, k, seed=0):
    rng = np.random.default_rng(seed)
    a = (rng.random((m, k)) - 0.5).astype(np.float16)
    b = (rng.random((k, n)) - 0.5).astype(np.float16)
    c = np.zeros((m, n), dtype=np.float16)
    Simulator(AMPERE).run(kernel, {"A": a, "B": b, "C": c},
                          symbols={"M": m})
    ref = a.astype(np.float32) @ b.astype(np.float32)
    return np.abs(c.astype(np.float32) - ref).max()


class TestParametricGemm:
    def setup_method(self):
        self.n, self.k = 16, 8
        self.kernel = build(ParametricGemmConfig(
            self.n, self.k, row_tile=8, max_grid_rows=4, threads=16
        ))

    @pytest.mark.parametrize("m", [1, 5, 8, 17, 31, 32])
    def test_any_row_count_one_kernel(self, m):
        """One compiled kernel serves every M binding correctly."""
        assert run(self.kernel, m, self.n, self.k, seed=m) < 0.01

    def test_symbolic_parameter_in_signature(self):
        code = CudaGenerator(AMPERE).generate(self.kernel).code
        assert ", int M)" in code

    def test_accesses_are_predicated(self):
        code = CudaGenerator(AMPERE).generate(self.kernel).code
        assert re.search(r"if \(.*< M\)", code)

    def test_out_of_range_rows_untouched(self):
        """Rows beyond M in an oversized buffer must stay zero."""
        m_logical, m_alloc = 5, 12
        rng = np.random.default_rng(1)
        a = (rng.random((m_alloc, self.k)) - 0.5).astype(np.float16)
        b = (rng.random((self.k, self.n)) - 0.5).astype(np.float16)
        c = np.zeros((m_alloc, self.n), dtype=np.float16)
        Simulator(AMPERE).run(
            self.kernel, {"A": a, "B": b, "C": c},
            symbols={"M": m_logical},
        )
        assert not c[m_logical:].any()
        ref = a[:m_logical].astype(np.float32) @ b.astype(np.float32)
        assert np.abs(c[:m_logical].astype(np.float32) - ref).max() < 0.01

    def test_unbound_symbol_rejected(self):
        with pytest.raises(SimulationError):
            Simulator(AMPERE).run(
                self.kernel,
                {"A": np.zeros((8, 8), np.float16),
                 "B": np.zeros((8, 16), np.float16),
                 "C": np.zeros((8, 16), np.float16)},
            )

    def test_threads_must_divide_n(self):
        with pytest.raises(ValueError):
            build(ParametricGemmConfig(15, 8, threads=16))
