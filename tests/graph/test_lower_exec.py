"""Executed networks: per-group bit-exactness, decode correctness, cost.

Every reduced network is lowered and run end to end on the simulator;
the executor compares each fusion group's outputs bitwise against the
numpy mirrors in :mod:`repro.graph.reference`.  The decode attention
mirror is itself checked here against an independent float64
full-attention computation, closing the chain
``kernel == mirror ≈ full attention``.
"""

import numpy as np
import pytest

from repro.graph import (
    DECODE_SCENARIO, REDUCED_NETWORKS, GraphError, lower_network, network,
)
from repro.graph.reference import cache_append_ref, decode_fmha_ref
from repro.sim import RunOptions
from repro.sim.profiler import Profiler
from repro.sim.sanitizer import Sanitizer

pytestmark = pytest.mark.graph

ALL_GRAPHS = sorted(REDUCED_NETWORKS) + [DECODE_SCENARIO.name]


class TestExecutedBitExact:
    @pytest.mark.parametrize("name", ALL_GRAPHS)
    def test_auto_mode_groups_match_numpy(self, name):
        net = network(name)
        net.lower("ampere", mode="auto")
        run = net.run(seed=0)
        assert run.attribution == "executed"
        assert run.passed
        assert run.groups and all(g.checked for g in run.groups)
        assert all(g.max_abs_error == 0.0 for g in run.groups)
        assert run.seconds > 0
        assert all(arr.dtype == np.float16 for arr in run.outputs.values())

        # The second run reuses the first run's profiled seconds; they
        # must equal what a fresh lowering measures on the new data.
        warm = net.run(seed=1)
        fresh = network(name)
        fresh.lower("ampere", mode="auto")
        cold = fresh.run(seed=1)
        assert warm.passed
        assert all(g.max_abs_error == 0.0 for g in warm.groups)
        assert ([g.measured_seconds for g in warm.groups]
                == [g.measured_seconds for g in cold.groups])
        assert warm.role_seconds == cold.role_seconds
        assert warm.seconds == cold.seconds

    @pytest.mark.parametrize("name", ["DistilBERT", DECODE_SCENARIO.name])
    def test_unfused_mode_groups_match_numpy(self, name):
        net = network(name)
        net.lower("ampere", mode="unfused")
        run = net.run(seed=1)
        assert run.passed
        assert all(g.mode == "unfused" for g in run.groups)

    def test_fused_and_unfused_agree_to_fp16_tolerance(self):
        # Each lowering is bit-exact vs its *own* mirror; the two float
        # orders differ (the fused epilogue stays in fp32 off the
        # accumulator, the unfused path rounds the GEMM to fp16 first),
        # so across lowerings agreement is fp16-tolerance, not bitwise.
        fused = network("DistilBERT")
        fused.lower("ampere", mode="fused")
        unfused = network("DistilBERT")
        unfused.lower("ampere", mode="unfused")
        a, b = fused.run(seed=0), unfused.run(seed=0)
        for edge in a.outputs:
            np.testing.assert_allclose(
                a.outputs[edge].astype(np.float32),
                b.outputs[edge].astype(np.float32), atol=5e-3, rtol=2e-2,
            )


class TestCostPins:
    @pytest.mark.parametrize("name", ALL_GRAPHS)
    def test_tuned_no_slower_than_unfused(self, name):
        """The PR's headline claim: the compiled pipeline beats the
        library-style unfused lowering on executed attribution."""
        net = network(name)
        net.lower("ampere", mode="auto", tune=True)
        tuned = net.run(seed=0)
        net.lower("ampere", mode="unfused")
        unfused = net.run(seed=0)
        assert tuned.passed and unfused.passed
        assert tuned.seconds <= unfused.seconds

    def test_auto_saves_launches(self):
        lowered = lower_network(network("DistilBERT").graph, "ampere",
                                mode="auto")
        unfused = lower_network(network("DistilBERT").graph, "ampere",
                                mode="unfused")
        assert len(lowered.launches) < len(unfused.launches)


class TestDecodeKVCache:
    heads, ctx, hd, pos = 2, 32, 16, 7

    def _step(self, seed=3):
        rng = np.random.default_rng(seed)
        f16 = np.float16
        qkv = (rng.random((1, 3 * self.heads * self.hd)) - 0.5).astype(f16)
        kc = (rng.random((self.heads * self.ctx, self.hd)) - 0.5).astype(f16)
        vc = (rng.random((self.heads * self.ctx, self.hd)) - 0.5).astype(f16)
        return qkv, kc, vc

    def test_cache_append_writes_ring_slot(self):
        qkv, kc, vc = self._step()
        kc1, vc1 = cache_append_ref(qkv, kc, vc, self.heads, self.hd,
                                    self.ctx, self.pos)
        for h in range(self.heads):
            row = h * self.ctx + self.pos
            k_cols = slice((self.heads + h) * self.hd,
                           (self.heads + h + 1) * self.hd)
            v_cols = slice((2 * self.heads + h) * self.hd,
                           (2 * self.heads + h + 1) * self.hd)
            assert np.array_equal(kc1[row], qkv[0, k_cols])
            assert np.array_equal(vc1[row], qkv[0, v_cols])
            untouched = [r for r in range(h * self.ctx, (h + 1) * self.ctx)
                         if r != row]
            assert np.array_equal(kc1[untouched], kc[untouched])
            assert np.array_equal(vc1[untouched], vc[untouched])

    def test_decode_matches_full_attention_float64(self):
        """The decode mirror agrees with a plain softmax(qK^T/sqrt(d))V
        over the full cache, computed independently in float64."""
        qkv, kc, vc = self._step()
        kc1, vc1 = cache_append_ref(qkv, kc, vc, self.heads, self.hd,
                                    self.ctx, self.pos)
        got = decode_fmha_ref(qkv, kc1, vc1, self.heads, self.ctx, self.hd)
        for h in range(self.heads):
            q = qkv[0, h * self.hd:(h + 1) * self.hd].astype(np.float64)
            k = kc1[h * self.ctx:(h + 1) * self.ctx].astype(np.float64)
            v = vc1[h * self.ctx:(h + 1) * self.ctx].astype(np.float64)
            s = (k @ q) / np.sqrt(float(self.hd))
            e = np.exp(s - s.max())
            want = (e / e.sum()) @ v
            np.testing.assert_allclose(
                got[h].astype(np.float64), want, atol=2e-3, rtol=2e-2,
            )

    def test_executed_decode_updates_bound_cache(self):
        """Running the decode network attends over caller-provided
        caches; the executed cache contents are verified bitwise by the
        group check, so a passing run pins the KV-cache data path."""
        net = network(DECODE_SCENARIO.name)
        rng = np.random.default_rng(11)
        shape = (DECODE_SCENARIO.heads * DECODE_SCENARIO.context,
                 DECODE_SCENARIO.hidden // DECODE_SCENARIO.heads)
        bindings = {
            "l0.k_cache": (rng.random(shape) - 0.5).astype(np.float16),
            "l0.v_cache": (rng.random(shape) - 0.5).astype(np.float16),
        }
        run = net.run(bindings=bindings, seed=2)
        assert run.passed
        kinds = {g.kind for g in run.groups}
        assert "decode_attention_block" in kinds


class TestLoweringRejections:
    def test_pre_ampere_arch_rejected(self):
        with pytest.raises(GraphError, match="cp.async"):
            lower_network(network("DistilBERT").graph, "volta")

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            lower_network(network("DistilBERT").graph, "ampere",
                          mode="yolo")

    def test_unknown_binding_rejected(self):
        net = network("DistilBERT")
        with pytest.raises(KeyError, match="non-input"):
            net.run(bindings={"ghost": np.zeros((1, 1), np.float16)})

    def test_misshapen_binding_rejected(self):
        net = network("DistilBERT")
        with pytest.raises(ValueError, match="shape"):
            net.run(bindings={"h0": np.zeros((1, 1), np.float16)})

    @pytest.mark.parametrize("dtype", [np.float64, np.int32])
    def test_mistyped_binding_rejected(self, dtype):
        net = network("DistilBERT")
        shape = net.graph.edge("h0").shape
        given = np.dtype(dtype).name
        with pytest.raises(ValueError,
                           match=f"'h0' has dtype {given}, expected float16"):
            net.run(bindings={"h0": np.zeros(shape, dtype)})


class TestProfileOncePerLowering:
    def test_warm_runs_skip_the_profiler(self, monkeypatch):
        calls = {"finish": 0, "sanitized": 0}
        finish = Profiler.finish
        raise_if_dirty = Sanitizer.raise_if_dirty

        def counted_finish(self, *args, **kwargs):
            calls["finish"] += 1
            return finish(self, *args, **kwargs)

        def counted_raise_if_dirty(self):
            calls["sanitized"] += 1
            return raise_if_dirty(self)

        monkeypatch.setattr(Profiler, "finish", counted_finish)
        monkeypatch.setattr(Sanitizer, "raise_if_dirty",
                            counted_raise_if_dirty)
        net = network("DistilBERT")
        launches = len(net.lower("ampere").launches)
        net.run(seed=0)
        assert calls["finish"] == launches

        calls["finish"] = 0
        assert net.run(seed=1).passed
        assert calls["finish"] == 0

        net.lower("ampere")
        assert net.run(seed=1).passed
        assert calls["finish"] == launches

        calls["finish"] = 0
        run = net.run(options=RunOptions(sanitize=True), seed=2)
        assert run.passed
        assert calls == {"finish": 0, "sanitized": launches}
