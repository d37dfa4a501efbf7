"""Numerical verification of every GEMM kernel in the simulator.

These are the paper's central correctness claims: the decompositions —
including ldmatrix thread-data mappings and Tensor Core fragment
layouts — compute exactly what the kernel-level spec demands.
"""

import numpy as np
import pytest

from repro.arch import AMPERE, VOLTA
from repro.kernels import GemmEpilogueConfig, NaiveGemmConfig, build
from repro.kernels.gemm_optimized import (
    build_ampere_tc_gemm, build_volta_tc_gemm,
)
from repro.layout.swizzle import Swizzle
from repro.sim import Simulator

RNG = np.random.default_rng(11)


def random_fp16(*shape):
    return (RNG.random(shape) - 0.5).astype(np.float16)


def run_gemm(kernel, arch, a, b, extra=None):
    c = np.zeros((a.shape[0], b.shape[1]), dtype=np.float16)
    arrays = {"A": a, "B": b, "C": c}
    arrays.update(extra or {})
    Simulator(arch).run(kernel, arrays)
    return c.astype(np.float32)


class TestNaiveGemm:
    def test_matches_numpy(self):
        m = n = k = 32
        a, b = random_fp16(m, k), random_fp16(k, n)
        kernel = build(NaiveGemmConfig(m, n, k, grid=(2, 2),
                                       threads=(4, 4)))
        c = run_gemm(kernel, AMPERE, a, b)
        ref = a.astype(np.float32) @ b.astype(np.float32)
        assert np.abs(c - ref).max() < 0.01

    def test_rectangular(self):
        m, n, k = 16, 32, 8
        a, b = random_fp16(m, k), random_fp16(k, n)
        kernel = build(NaiveGemmConfig(m, n, k, grid=(2, 2),
                                       threads=(2, 4)))
        c = run_gemm(kernel, AMPERE, a, b)
        ref = a.astype(np.float32) @ b.astype(np.float32)
        assert np.abs(c - ref).max() < 0.01

    def test_invalid_tiling_rejected(self):
        with pytest.raises(ValueError):
            build(NaiveGemmConfig(30, 32, 32, grid=(4, 4),
                                  threads=(4, 4)))


class TestAmpereTensorCoreGemm:
    def _check(self, m, n, k, **kw):
        a, b = random_fp16(m, k), random_fp16(k, n)
        kernel = build_ampere_tc_gemm(m, n, k, **kw)
        c = run_gemm(kernel, AMPERE, a, b)
        ref = a.astype(np.float32) @ b.astype(np.float32)
        assert np.abs(c - ref).max() < 0.01

    def test_single_warp(self):
        self._check(64, 64, 32, block_tile=(32, 16, 16), warp_grid=(1, 1))

    def test_multi_warp(self):
        self._check(64, 64, 32, block_tile=(32, 32, 16), warp_grid=(2, 2))

    def test_multiple_k_slices(self):
        self._check(32, 16, 64, block_tile=(32, 16, 16), warp_grid=(1, 1))

    def test_bk32_double_mma_step(self):
        self._check(32, 16, 32, block_tile=(32, 16, 32), warp_grid=(1, 1))

    def test_scalar_fragment_variant(self):
        self._check(64, 64, 32, block_tile=(32, 16, 16), warp_grid=(1, 1),
                    use_ldmatrix=False)

    def test_swizzled_shared_memory(self):
        self._check(32, 16, 16, block_tile=(32, 16, 16), warp_grid=(1, 1),
                    swizzle=Swizzle(2, 3, 3))

    def test_non_square_warp_grid(self):
        self._check(32, 32, 16, block_tile=(16, 32, 16), warp_grid=(1, 2))

    def test_tile_divisibility_enforced(self):
        with pytest.raises(ValueError):
            build_ampere_tc_gemm(100, 64, 32, block_tile=(32, 16, 16),
                                 warp_grid=(1, 1))


class TestVoltaQuadPairGemm:
    def _check(self, m, n, k, **kw):
        a, b = random_fp16(m, k), random_fp16(k, n)
        kernel = build_volta_tc_gemm(m, n, k, **kw)
        c = run_gemm(kernel, VOLTA, a, b)
        ref = a.astype(np.float32) @ b.astype(np.float32)
        assert np.abs(c - ref).max() < 0.01

    def test_single_warp(self):
        self._check(32, 32, 16, block_tile=(16, 16, 8),
                    warp_grid=(1, 1), qp_tile=(1, 1))

    def test_multi_warp(self):
        self._check(32, 32, 8, block_tile=(32, 32, 8),
                    warp_grid=(2, 2), qp_tile=(1, 1))

    def test_qp_tiled_warp(self):
        self._check(64, 64, 16, block_tile=(32, 32, 8),
                    warp_grid=(1, 1), qp_tile=(2, 2))

    def test_block_tile_consistency_enforced(self):
        with pytest.raises(ValueError):
            build_volta_tc_gemm(64, 64, 16, block_tile=(64, 64, 8),
                                warp_grid=(1, 1), qp_tile=(1, 1))


class TestFusedEpilogues:
    @pytest.mark.parametrize("activation,fn", [
        ("relu", lambda x: np.maximum(x, 0)),
        ("tanh", np.tanh),
        (None, lambda x: x),
    ])
    def test_ampere_bias_activation(self, activation, fn):
        m, n, k = 32, 16, 16
        a, b = random_fp16(m, k), random_fp16(k, n)
        bias = random_fp16(n)
        kernel = build(GemmEpilogueConfig(
            m, n, k, "ampere", bias=True, activation=activation,
            block_tile=(32, 16, 16), warp_grid=(1, 1),
        ))
        c = run_gemm(kernel, AMPERE, a, b, extra={"bias": bias})
        ref = fn(a.astype(np.float32) @ b.astype(np.float32)
                 + bias.astype(np.float32))
        assert np.abs(c - ref).max() < 0.01

    def test_activation_without_bias(self):
        m, n, k = 32, 16, 16
        a, b = random_fp16(m, k), random_fp16(k, n)
        kernel = build(GemmEpilogueConfig(
            m, n, k, "ampere", bias=False, activation="relu",
            block_tile=(32, 16, 16), warp_grid=(1, 1),
        ))
        c = run_gemm(kernel, AMPERE, a, b)
        ref = np.maximum(a.astype(np.float32) @ b.astype(np.float32), 0)
        assert np.abs(c - ref).max() < 0.01

    def test_volta_bias_relu(self):
        m, n, k = 32, 32, 16
        a, b = random_fp16(m, k), random_fp16(k, n)
        bias = random_fp16(n)
        kernel = build(GemmEpilogueConfig(
            m, n, k, "volta", bias=True, activation="relu",
            block_tile=(32, 32, 8), warp_grid=(1, 1),
        ))
        c = run_gemm(kernel, VOLTA, a, b, extra={"bias": bias})
        ref = np.maximum(a.astype(np.float32) @ b.astype(np.float32)
                         + bias.astype(np.float32), 0)
        assert np.abs(c - ref).max() < 0.01

    def test_unknown_arch_rejected(self):
        with pytest.raises(ValueError):
            build(GemmEpilogueConfig(32, 32, 32, "hopper"))
