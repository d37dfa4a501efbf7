"""Executed networks: per-group bit-exactness, decode correctness, cost.

Every reduced network is lowered and run end to end on the simulator;
the executor compares each fusion group's outputs bitwise against the
numpy mirrors in :mod:`repro.graph.reference`.  The decode attention
mirror is itself checked here against an independent float64
full-attention computation, closing the chain
``kernel == mirror ≈ full attention``.
"""

import gc
import threading
import weakref

import numpy as np
import pytest

from repro.graph import (
    DECODE_SCENARIO, REDUCED_NETWORKS, GraphError, lower_network, network,
)
from repro.graph.reference import cache_append_ref, decode_fmha_ref
from repro.sim import RunOptions, Simulator
from repro.sim import plan as sim_plan
from repro.sim.plan import LaunchPlan
from repro.sim.profiler import Profiler
from repro.sim.sanitizer import Sanitizer
from repro.sim.trace import PlanTrace

from .shared import lowered_network

pytestmark = pytest.mark.graph

ALL_GRAPHS = sorted(REDUCED_NETWORKS) + [DECODE_SCENARIO.name]

#: BERT-base keeps the tuned-vs-unfused cost pin in tier 1; the other
#: networks run it under ``-m slow``.
COST_PIN_GRAPHS = [
    name if name == "BERT-base"
    else pytest.param(name, marks=pytest.mark.slow)
    for name in ALL_GRAPHS
]


def _assert_same_run(warm, cold):
    """A warm run equals a fresh lowering's first run bit for bit."""
    assert warm.passed and cold.passed
    assert warm.outputs.keys() == cold.outputs.keys()
    for edge, want in cold.outputs.items():
        assert warm.outputs[edge].tobytes() == want.tobytes(), edge
    assert ([g.max_abs_error for g in warm.groups]
            == [g.max_abs_error for g in cold.groups])
    assert ([g.measured_seconds for g in warm.groups]
            == [g.measured_seconds for g in cold.groups])
    assert warm.role_seconds == cold.role_seconds
    assert warm.seconds == cold.seconds


class TestExecutedBitExact:
    @pytest.mark.parametrize("name", ALL_GRAPHS)
    def test_auto_mode_groups_match_numpy(self, name):
        net = lowered_network(name, "auto")
        run = net.run(seed=0)
        assert run.attribution == "executed"
        assert run.passed
        assert run.groups and all(g.checked for g in run.groups)
        assert all(g.max_abs_error == 0.0 for g in run.groups)
        assert run.seconds > 0
        assert all(arr.dtype == np.float16 for arr in run.outputs.values())

        # A later run replays the first run's traces and reuses its
        # profiled seconds; both must equal what a fresh lowering's
        # plan-path run computes and measures on the new data.
        warm = net.run(seed=1)
        assert all(g.max_abs_error == 0.0 for g in warm.groups)
        fresh = network(name)
        fresh.lower("ampere", mode="auto")
        _assert_same_run(warm, fresh.run(seed=1))

    @pytest.mark.parametrize("name", ["DistilBERT", DECODE_SCENARIO.name])
    def test_unfused_mode_groups_match_numpy(self, name):
        net = lowered_network(name, "unfused")
        run = net.run(seed=1)
        assert run.passed
        assert all(g.mode == "unfused" for g in run.groups)

        warm = net.run(seed=2)
        fresh = network(name)
        fresh.lower("ampere", mode="unfused")
        _assert_same_run(warm, fresh.run(seed=2))

    def test_fused_and_unfused_agree_to_fp16_tolerance(self):
        # Each lowering is bit-exact vs its *own* mirror; the two float
        # orders differ (the fused epilogue stays in fp32 off the
        # accumulator, the unfused path rounds the GEMM to fp16 first),
        # so across lowerings agreement is fp16-tolerance, not bitwise.
        fused = lowered_network("DistilBERT", "fused")
        unfused = lowered_network("DistilBERT", "unfused")
        a, b = fused.run(seed=0), unfused.run(seed=0)
        for edge in a.outputs:
            np.testing.assert_allclose(
                a.outputs[edge].astype(np.float32),
                b.outputs[edge].astype(np.float32), atol=5e-3, rtol=2e-2,
            )


class TestCostPins:
    @pytest.mark.parametrize("name", COST_PIN_GRAPHS)
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
        net = lowered_network(DECODE_SCENARIO.name, "auto")
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


class TestWarmTraceReplay:
    """Warm observers-off runs replay each launch's recorded trace over
    the lowering's static arena, and nothing else of the engine."""

    @staticmethod
    def _count(monkeypatch, owner, attr, calls, key):
        original = getattr(owner, attr)

        def counted(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    def test_warm_run_replays_traces_only(self, monkeypatch):
        net = network("DistilBERT")
        launches = len(net.lower("ampere").launches)
        net.run(seed=0)
        calls = dict.fromkeys(
            ["compile", "fingerprint", "sim_run", "plan_replay",
             "trace_replay"], 0)
        self._count(monkeypatch, LaunchPlan, "__init__", calls, "compile")
        self._count(monkeypatch, sim_plan, "kernel_fingerprint", calls,
                    "fingerprint")
        self._count(monkeypatch, Simulator, "run", calls, "sim_run")
        self._count(monkeypatch, LaunchPlan, "replay", calls, "plan_replay")
        self._count(monkeypatch, PlanTrace, "replay", calls, "trace_replay")
        assert net.run(seed=1).passed
        assert calls == {"compile": 0, "fingerprint": 0, "sim_run": 0,
                         "plan_replay": 0, "trace_replay": launches}

    def test_relower_frees_arena_and_traces(self):
        net = network("DistilBERT")
        lowered = net.lower("ampere")
        net.run(seed=0)
        arena = lowered.arena
        refs = [weakref.ref(arr) for arr in arena.storage.values()]
        refs += [weakref.ref(bound.trace) for bound in arena.launches]
        del arena, lowered
        net.lower("ampere")
        gc.collect()
        assert refs and all(ref() is None for ref in refs)
        assert net.run(seed=0).passed

    def test_concurrent_runs_match_solo_runs(self):
        net = network("DistilBERT")
        net.lower("ampere")
        solo = {seed: net.run(seed=seed) for seed in (1, 2)}
        got, errors = {}, []

        def worker(seed):
            try:
                for _ in range(3):
                    got.setdefault(seed, []).append(net.run(seed=seed))
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(seed,))
                   for seed in solo]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for seed, runs in got.items():
            for run in runs:
                _assert_same_run(run, solo[seed])
