"""Numerical verification of the fused evaluation kernels
(MLP, LSTM, Layernorm, softmax, FMHA) against the library references."""

import numpy as np
import pytest

from repro.arch import AMPERE
from repro.kernels import (
    FmhaConfig, LayernormConfig, LstmConfig, MlpConfig, SoftmaxConfig, build,
)
from repro.library import funcs
from repro.sim import Simulator

RNG = np.random.default_rng(21)


def random_fp16(*shape, scale=1.0):
    return ((RNG.random(shape) - 0.5) * scale).astype(np.float16)


class TestFusedMLP:
    def _run(self, m, hidden, layers, **kw):
        kernel = build(MlpConfig(m, hidden, layers, **kw))
        x = random_fp16(m, hidden)
        weights = [random_fp16(hidden, hidden) for _ in range(layers)]
        biases = [random_fp16(hidden) for _ in range(layers)]
        y = np.zeros((m, hidden), dtype=np.float16)
        arrays = {"X": x, "Y": y}
        for l in range(layers):
            arrays[f"W{l}"] = weights[l]
            arrays[f"bias{l}"] = biases[l]
        Simulator(AMPERE).run(kernel, arrays)
        ref = funcs.mlp(x, weights, biases)
        return y.astype(np.float32), ref

    def test_three_layers(self):
        y, ref = self._run(32, 16, 3, block_rows=16, warp_grid=(1, 1))
        assert np.abs(y - ref).max() < 0.05

    def test_single_layer(self):
        y, ref = self._run(16, 16, 1, block_rows=16, warp_grid=(1, 1))
        assert np.abs(y - ref).max() < 0.02

    def test_multiple_blocks(self):
        y, ref = self._run(64, 16, 2, block_rows=16, warp_grid=(1, 1))
        assert np.abs(y - ref).max() < 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            build(MlpConfig(100, 16, 2, block_rows=16))


class TestFusedLSTM:
    def test_matches_reference(self):
        m, n, k = 32, 16, 32
        kernel = build(LstmConfig(m, n, k, block_tile=(32, 16, 16),
                                  warp_grid=(1, 1)))
        x, w = random_fp16(m, k), random_fp16(k, n)
        h, r = random_fp16(m, k), random_fp16(k, n)
        bias = random_fp16(n)
        y = np.zeros((m, n), dtype=np.float16)
        Simulator(AMPERE).run(
            kernel, {"X": x, "W": w, "H": h, "R": r, "bias": bias, "Y": y}
        )
        ref = funcs.lstm_cell(x, w, h, r, bias)
        assert np.abs(y.astype(np.float32) - ref).max() < 0.02

    def test_tanh_variant(self):
        """The fusion libraries cannot provide (paper Section 6)."""
        m, n, k = 32, 16, 16
        kernel = build(LstmConfig(
            m, n, k, block_tile=(32, 16, 16), warp_grid=(1, 1),
            activation="tanh",
        ))
        x, w = random_fp16(m, k), random_fp16(k, n)
        h, r = random_fp16(m, k), random_fp16(k, n)
        bias = random_fp16(n)
        y = np.zeros((m, n), dtype=np.float16)
        Simulator(AMPERE).run(
            kernel, {"X": x, "W": w, "H": h, "R": r, "bias": bias, "Y": y}
        )
        ref = funcs.lstm_cell(x, w, h, r, bias, activation="tanh")
        assert np.abs(y.astype(np.float32) - ref).max() < 0.02


class TestLayernorm:
    @pytest.mark.parametrize("warp_per_row", [True, False])
    def test_matches_reference(self, warp_per_row):
        rows, hidden = (8, 64) if warp_per_row else (128, 32)
        kernel = build(LayernormConfig(rows, hidden, warps_per_block=4,
                                       warp_per_row=warp_per_row))
        x = random_fp16(rows, hidden)
        gamma = (RNG.random(hidden) * 2).astype(np.float16)
        beta = random_fp16(hidden)
        y = np.zeros((rows, hidden), dtype=np.float16)
        Simulator(AMPERE).run(
            kernel, {"X": x, "gamma": gamma, "beta": beta, "Y": y}
        )
        ref = funcs.layernorm(x, gamma, beta)
        assert np.abs(y.astype(np.float32) - ref).max() < 0.02

    def test_constant_rows_normalise_to_beta(self):
        """Variance ~ 0: output must collapse to beta (eps prevents
        division blowups)."""
        rows, hidden = 8, 64
        kernel = build(LayernormConfig(rows, hidden, warps_per_block=4))
        x = np.full((rows, hidden), 3.0, dtype=np.float16)
        gamma = np.ones(hidden, dtype=np.float16)
        beta = random_fp16(hidden)
        y = np.zeros((rows, hidden), dtype=np.float16)
        Simulator(AMPERE).run(
            kernel, {"X": x, "gamma": gamma, "beta": beta, "Y": y}
        )
        assert np.abs(y.astype(np.float32)
                      - beta.astype(np.float32)).max() < 0.02

    def test_hidden_must_divide_warp(self):
        with pytest.raises(ValueError):
            build(LayernormConfig(8, 60, warps_per_block=4))


class TestSoftmax:
    def test_matches_reference(self):
        kernel = build(SoftmaxConfig(64, 32, threads_per_block=32))
        x = random_fp16(64, 32, scale=8.0)
        y = np.zeros((64, 32), dtype=np.float16)
        Simulator(AMPERE).run(kernel, {"X": x, "Y": y})
        ref = funcs.softmax(x)
        assert np.abs(y.astype(np.float32) - ref).max() < 0.01

    def test_rows_sum_to_one(self):
        kernel = build(SoftmaxConfig(32, 16, threads_per_block=32))
        x = random_fp16(32, 16, scale=20.0)  # large values: stability
        y = np.zeros((32, 16), dtype=np.float16)
        Simulator(AMPERE).run(kernel, {"X": x, "Y": y})
        sums = y.astype(np.float32).sum(axis=1)
        assert np.abs(sums - 1.0).max() < 0.01

    def test_scale_applied(self):
        kernel = build(SoftmaxConfig(32, 16, threads_per_block=32,
                                     scale=0.5))
        x = random_fp16(32, 16, scale=4.0)
        y = np.zeros((32, 16), dtype=np.float16)
        Simulator(AMPERE).run(kernel, {"X": x, "Y": y})
        ref = funcs.softmax(x.astype(np.float32) * 0.5)
        assert np.abs(y.astype(np.float32) - ref).max() < 0.01


class TestFusedFMHA:
    def _run(self, batch_heads, seq, dim, kv_chunk):
        kernel = build(FmhaConfig(batch_heads, seq, dim, kv_chunk=kv_chunk))
        q = random_fp16(batch_heads * seq, dim)
        k = random_fp16(batch_heads * seq, dim)
        v = random_fp16(batch_heads * seq, dim)
        o = np.zeros_like(q)
        Simulator(AMPERE).run(kernel, {"Q": q, "K": k, "V": v, "O": o})
        ref = funcs.multi_head_attention(q, k, v, heads=batch_heads)
        return o.astype(np.float32), ref

    def test_single_chunk(self):
        o, ref = self._run(2, 16, 16, kv_chunk=16)
        assert np.abs(o - ref).max() < 0.02

    def test_multiple_kv_chunks(self):
        o, ref = self._run(1, 32, 16, kv_chunk=16)
        assert np.abs(o - ref).max() < 0.02

    def test_multiple_heads_are_independent(self):
        """Changing head 1's inputs must not affect head 0's output."""
        rng = np.random.default_rng(3)
        q = (rng.random((2 * 16, 16)) - 0.5).astype(np.float16)
        k = (rng.random((2 * 16, 16)) - 0.5).astype(np.float16)
        v = (rng.random((2 * 16, 16)) - 0.5).astype(np.float16)
        kernel = build(FmhaConfig(2, 16, 16, kv_chunk=16))

        def head0(q2, k2, v2):
            o = np.zeros_like(q2)
            Simulator(AMPERE).run(
                kernel, {"Q": q2, "K": k2, "V": v2, "O": o}
            )
            return o[:16].copy()

        base = head0(q, k, v)
        q2 = q.copy()
        q2[16:] = 0.25
        assert np.array_equal(base, head0(q2, k.copy(), v.copy()))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            build(FmhaConfig(1, 30, 16, kv_chunk=16))
        with pytest.raises(ValueError):
            build(FmhaConfig(1, 32, 16, q_tile=32))
