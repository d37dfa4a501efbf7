"""Hopper-generation tests: fp8 numerics, 2:4 sparsity, TMA, wgmma.

Everything here carries the ``hopper`` marker (select with
``-m hopper``); the whole file is small-shape and runs in tier 1.
"""

import math

import numpy as np
import pytest

from repro.arch import HOPPER
from repro.frontend.builder import KernelBuilder
from repro.ir.expr import Var
from repro.kernels import HopperFp8GemmConfig, Sparse24GemmConfig, build
from repro.kernels.hopper import (
    compress_24,
    decompress_24,
    random_sparse24,
    validate_24_metadata,
)
from repro.sim import SimulationError, Simulator
from repro.tensor.dtypes import FP8E4M3, FP8E5M2, FP16
from repro.tensor.memspace import SH

pytestmark = pytest.mark.hopper

_FORMATS = {
    "fp8e4m3": (FP8E4M3, 4, 3, 448.0),
    "fp8e5m2": (FP8E5M2, 5, 2, 57344.0),
}


def _ref_quantize(x: float, exp_bits: int, man_bits: int,
                  max_finite: float) -> float:
    """Independent float64 scalar reference for the fp8 grids.

    Round-to-nearest-even onto the format's representable values,
    saturating to the largest finite magnitude (``cvt.rn.satfinite``):
    infinities and overflow clamp, NaN propagates, subnormals use the
    fixed quantum ``2^(1 - bias - man_bits)``.
    """
    if math.isnan(x):
        return math.nan
    if math.isinf(x):
        return math.copysign(max_finite, x)
    bias = 2 ** (exp_bits - 1) - 1
    min_normal = 2.0 ** (1 - bias)
    mag = abs(x)
    if mag >= min_normal:
        quantum = 2.0 ** (math.floor(math.log2(mag)) - man_bits)
    else:
        quantum = 2.0 ** (1 - bias - man_bits)
    out = round(x / quantum) * quantum  # Python round: half-to-even
    if abs(out) > max_finite:
        out = math.copysign(max_finite, x)
    return out


def _representable(exp_bits: int, man_bits: int, max_finite: float):
    """Every non-negative finite value on the format's grid."""
    bias = 2 ** (exp_bits - 1) - 1
    values = {0.0}
    for k in range(1, 2 ** man_bits):  # subnormals
        values.add(k * 2.0 ** (1 - bias - man_bits))
    for e in range(1 - bias, 2 ** exp_bits - bias):
        for m in range(2 ** man_bits):
            v = (1 + m / 2 ** man_bits) * 2.0 ** e
            if v <= max_finite:
                values.add(v)
    return sorted(values)


class TestFp8RoundOnStore:
    """The store-time quantizers against a float64 reference."""

    @pytest.mark.parametrize("fmt", sorted(_FORMATS))
    def test_value_grid_matches_float64_reference(self, fmt):
        dt, exp_bits, man_bits, max_finite = _FORMATS[fmt]
        rng = np.random.default_rng(7)
        grid = np.concatenate([
            np.linspace(-1.25 * max_finite, 1.25 * max_finite, 257),
            np.linspace(-4.0, 4.0, 513),
            # Deep in the subnormal range, around the smallest quanta.
            np.linspace(-2.0 ** (-2 ** (exp_bits - 1)), 2.0 ** (-2 ** (exp_bits - 1)), 101),
            rng.standard_normal(256) * max_finite / 8,
            np.array([0.0, -0.0, np.inf, -np.inf]),
        ]).astype(np.float32)
        got = dt.quantize(grid)
        want = np.array(
            [_ref_quantize(float(v), exp_bits, man_bits, max_finite)
             for v in grid],
            dtype=np.float32,
        )
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("fmt", sorted(_FORMATS))
    def test_outputs_land_on_representable_grid(self, fmt):
        dt, exp_bits, man_bits, max_finite = _FORMATS[fmt]
        rep = set(_representable(exp_bits, man_bits, max_finite))
        rng = np.random.default_rng(11)
        samples = (rng.standard_normal(2048) *
                   rng.choice([1e-3, 1.0, max_finite / 4], 2048)
                   ).astype(np.float32)
        out = dt.quantize(samples)
        for v in np.abs(out):
            assert float(v) in rep

    @pytest.mark.parametrize("fmt", sorted(_FORMATS))
    def test_grid_values_are_fixed_points(self, fmt):
        dt, exp_bits, man_bits, max_finite = _FORMATS[fmt]
        rep = np.array(_representable(exp_bits, man_bits, max_finite),
                       dtype=np.float32)
        both = np.concatenate([rep, -rep])
        np.testing.assert_array_equal(dt.quantize(both), both)

    @pytest.mark.parametrize("fmt", sorted(_FORMATS))
    def test_saturation_and_nan(self, fmt):
        dt, _, _, max_finite = _FORMATS[fmt]
        out = dt.quantize(np.array(
            [np.inf, -np.inf, 10 * max_finite, -10 * max_finite, np.nan],
            dtype=np.float32))
        assert out[0] == max_finite and out[1] == -max_finite
        assert out[2] == max_finite and out[3] == -max_finite
        assert np.isnan(out[4])

    def test_e4m3_examples(self):
        # 0.17 sits between e4m3 neighbours 0.15625 and 0.171875.
        assert FP8E4M3.quantize(np.float32(0.17)) == np.float32(0.171875)
        assert FP8E4M3.quantize(np.float32(449.0)) == np.float32(448.0)
        # Smallest e4m3 subnormal is 2^-9; half of it rounds to even (0).
        assert FP8E4M3.quantize(np.float32(2.0 ** -10)) == 0.0
        assert FP8E4M3.quantize(np.float32(2.0 ** -9)) == np.float32(2.0 ** -9)

    def test_scalar_in_scalar_out(self):
        out = FP8E5M2.quantize(np.float32(1.3))
        assert np.ndim(out) == 0


class TestSparse24Metadata:
    """2:4 structured-sparsity helpers: validity as a property."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_sparse24_metadata_is_always_valid(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 9)) * 4
        k = int(rng.integers(1, 17)) * 4
        comp, meta, dense = random_sparse24(rng, m, k)
        validate_24_metadata(meta)  # must not raise
        assert comp.shape == meta.shape == (m, k // 2)
        assert dense.shape == (m, k)
        # 2:4 means at most two occupied positions per group of four.
        occupied = (dense.reshape(m, k // 4, 4) != 0).sum(axis=2)
        assert occupied.max() <= 2

    @pytest.mark.parametrize("seed", range(4))
    def test_compress_decompress_roundtrip(self, seed):
        rng = np.random.default_rng(100 + seed)
        _, _, dense = random_sparse24(rng, 8, 32)
        comp, meta = compress_24(dense)
        validate_24_metadata(meta)
        np.testing.assert_array_equal(decompress_24(comp, meta), dense)

    def test_compress_keeps_largest_magnitudes(self):
        dense = np.array([[0.1, -3.0, 2.0, 0.5]], dtype=np.float16)
        comp, meta = compress_24(dense)
        np.testing.assert_array_equal(meta, [[1, 2]])
        np.testing.assert_array_equal(comp, [[-3.0, 2.0]])

    @pytest.mark.parametrize("meta", [
        [[4, 1]],   # index out of range
        [[-1, 2]],  # negative index
        [[2, 1]],   # not ascending
        [[3, 3]],   # not distinct
    ])
    def test_validate_rejects_malformed(self, meta):
        with pytest.raises(ValueError):
            validate_24_metadata(np.array(meta, dtype=np.int32))


def _run(kernel, bindings):
    return Simulator(HOPPER).run(kernel, bindings, sanitize=True)


class TestHopperGemmSmoke:
    """Tier-1 correctness smokes for both warpgroup families."""

    @pytest.mark.parametrize("two_stage", [True, False])
    def test_fp8_gemm(self, two_stage):
        m = n = 64
        k = 64
        rng = np.random.default_rng(0)
        a = FP8E4M3.quantize(
            (rng.random((m, k)) - 0.5).astype(np.float32))
        b = FP8E4M3.quantize(
            (rng.random((k, n)) - 0.5).astype(np.float32))
        kernel = build(HopperFp8GemmConfig(m, n, k, block_k=32,
                                           two_stage_acc=two_stage))
        result = _run(kernel, {"A": a, "B": b,
                               "C": np.zeros((m, n), np.float16)})
        want = (a.astype(np.float64) @ b.astype(np.float64)
                ).astype(np.float16)
        np.testing.assert_allclose(
            result.machine.global_array("C").reshape(m, n), want, atol=0.05)

    def test_fp8_gemm_quantizes_on_store(self):
        """Unquantized fp32 inputs hit the fp8 grid at the TMA store.

        The simulator's round-on-store model snaps every value written
        to an fp8 tensor (here the staged shared tiles) onto the e4m3
        grid, so the kernel must agree with a reference computed from
        *quantized* operands — and disagree with the raw-fp32 product.
        """
        m = n = k = 64
        rng = np.random.default_rng(3)
        a = (rng.random((m, k)) - 0.5).astype(np.float32)
        b = (rng.random((k, n)) - 0.5).astype(np.float32)
        kernel = build(HopperFp8GemmConfig(m, n, k, block_k=32))
        result = _run(kernel, {"A": a, "B": b,
                               "C": np.zeros((m, n), np.float16)})
        got = result.machine.global_array("C").reshape(m, n)
        quantized = (FP8E4M3.quantize(a).astype(np.float64)
                     @ FP8E4M3.quantize(b).astype(np.float64))
        np.testing.assert_allclose(got, quantized.astype(np.float16),
                                   atol=0.05)
        raw = a.astype(np.float64) @ b.astype(np.float64)
        assert np.abs(quantized - raw).max() > 1e-3
        assert np.abs(got.astype(np.float64) - quantized).max() \
            < np.abs(got.astype(np.float64) - raw).max()

    def test_sparse24_gemm(self):
        m = n = 64
        k = 32
        rng = np.random.default_rng(1)
        comp, meta, dense = random_sparse24(rng, m, k)
        b = (rng.random((k, n)) - 0.5).astype(np.float16)
        kernel = build(Sparse24GemmConfig(m, n, k, block_k=16))
        result = _run(kernel, {
            "A_comp": comp, "A_meta": meta, "B": b,
            "C": np.zeros((m, n), np.float16),
        })
        want = (dense.astype(np.float64) @ b.astype(np.float64)
                ).astype(np.float16)
        np.testing.assert_allclose(
            result.machine.global_array("C").reshape(m, n), want, atol=0.05)

    def test_sparse24_rejects_invalid_metadata_at_execution(self):
        m = n = 64
        k = 32
        rng = np.random.default_rng(2)
        comp, meta, _ = random_sparse24(rng, m, k)
        meta[0, 0] = 7  # out of 0..3
        kernel = build(Sparse24GemmConfig(m, n, k, block_k=16))
        with pytest.raises(ValueError, match="0..3"):
            _run(kernel, {
                "A_comp": comp, "A_meta": meta,
                "B": np.zeros((k, n), np.float16),
                "C": np.zeros((m, n), np.float16),
            })


def _tma_kernel(with_barrier: bool):
    """One TMA-staged tile copy; optionally forget the awaiting barrier."""
    kb = KernelBuilder("tma_barrier_probe", (1,), (128,))
    src = kb.param("X", (64, 64), FP16)
    dst = kb.param("Y", (64, 64), FP16)
    smem = kb.alloc("smem", (64, 64), FP16, SH)
    wg = kb.block.tile([128])
    kb.move(src, smem, threads=wg, label="tma X tile")
    if with_barrier:
        kb.sync()
        chunks = smem.tile((1, 8))
        out = dst.tile((1, 8))
        t = Var("threadIdx.x")
        with kb.loop("i", (64 * 64) // (8 * 128)) as i:
            idx = i * 128 + t
            kb.move(chunks[idx // 8, idx % 8], out[idx // 8, idx % 8])
    return kb.build()


class TestTmaAsyncDiscipline:
    """Committed bulk copies must be awaited before the block ends."""

    def test_unawaited_tma_copy_is_a_simulation_error(self):
        kernel = _tma_kernel(with_barrier=False)
        x = np.ones((64, 64), np.float16)
        with pytest.raises(SimulationError, match="TMA bulk"):
            _run(kernel, {"X": x, "Y": np.zeros((64, 64), np.float16)})

    def test_barrier_drains_the_copy(self):
        kernel = _tma_kernel(with_barrier=True)
        rng = np.random.default_rng(4)
        x = rng.random((64, 64)).astype(np.float16)
        result = _run(kernel, {"X": x,
                               "Y": np.zeros((64, 64), np.float16)})
        np.testing.assert_array_equal(
            result.machine.global_array("Y").reshape(64, 64), x)
