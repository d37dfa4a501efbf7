"""Instruction-profiler tests: measured counters of executed kernels.

The profiler is the repo's Nsight Compute substitute; these tests pin
its counters on the shipped kernel families (exact byte counts where
the access pattern is fully determined, strict orderings where the
paper's claim is relative — swizzled staging must measurably beat the
naive layout).
"""

import json

import numpy as np
import pytest

from repro.arch import AMPERE
from repro.kernels import (
    GemmConfig, LayernormConfig, NaiveGemmConfig, build,
)
from repro.sim import KernelProfile, RunResult, Simulator

from .reference_oracle import ReferenceSimulator


def _bindings(kernel, seed=0):
    rng = np.random.default_rng(seed)
    return {
        p.name: (rng.standard_normal(p.layout.size()) * 0.25)
        .astype(p.dtype.np_dtype)
        for p in kernel.params
    }


def _naive_gemm_ref(bindings, m=32, n=32, k=32):
    """The 32^3 naive kernel accumulates: C_out = C_in + A @ B."""
    a = bindings["A"].astype(np.float32).reshape(m, k)
    b = bindings["B"].astype(np.float32).reshape(k, n)
    c = bindings["C"].astype(np.float32).reshape(m, n)
    return (c + a @ b).reshape(-1)


def _profile(cfg, seed=0):
    kernel = build(cfg)
    result = Simulator(AMPERE).run(kernel, _bindings(kernel, seed),
                                   profile=True)
    return result.profile


class TestGlobalCounters:
    def test_naive_gemm_exact_global_bytes(self):
        # 32^3 fma GEMM: each of the 32 k-steps reads a, b, and the
        # accumulator c (read-modify-write), writes c — per element.
        profile = _profile(NaiveGemmConfig(32, 32, 32, (2, 2), (4, 4)))
        assert profile.global_load_bytes == 3 * 2 * 32 * 32 * 32
        assert profile.global_store_bytes == 2 * 32 * 32 * 32
        assert profile.shared_bytes == 0

    def test_transactions_are_32b_sectors(self):
        profile = _profile(NaiveGemmConfig(32, 32, 32, (2, 2), (4, 4)))
        # Sector accounting can never beat perfect coalescing.
        assert profile.global_load_transactions >= \
            profile.global_load_bytes // 32

    def test_layernorm_global_bytes(self):
        profile = _profile(LayernormConfig(8, 64, 4))
        # reads x + gamma + beta once each (8x64 + 64 + 64 halves),
        # modelled exactly by count_kernel at this shape.
        assert profile.global_load_bytes == 3072
        assert profile.global_store_bytes == 1024
        assert profile.issues("shfl") > 0, \
            "warp-per-row layernorm reduces via shfl"


class TestSharedCounters:
    def test_swizzled_gemm_strictly_fewer_conflicts(self):
        naive = _profile(GemmConfig(32, 32, 64, (32, 32, 32), (1, 1),
                                    name="prof_tc_naive"))
        swz = _profile(GemmConfig(32, 32, 64, (32, 32, 32), (1, 1),
                                  swizzled=True, name="prof_tc_swz"))
        assert naive.bank_conflicts > 0
        assert swz.bank_conflicts < naive.bank_conflicts
        assert swz.conflict_degree("ldmatrix") < \
            naive.conflict_degree("ldmatrix")
        # Same logical kernel: identical traffic, only placement moved.
        assert swz.shared_bytes == naive.shared_bytes
        assert swz.global_load_bytes == naive.global_load_bytes

    def test_tensor_core_issue_counts(self):
        profile = _profile(GemmConfig(32, 32, 64, (32, 32, 32), (1, 1),
                                      name="prof_tc_issues"))
        # 2 k-steps x (2 A-frags x ldmatrix.x4 + 1 B ldmatrix.x2... )
        # pinned from the decomposition: counts must stay stable.
        counts = profile.issue_counts
        assert counts["ldmatrix"] == 24
        assert counts["mma"] == 32
        assert counts["shfl"] == 0
        assert profile.barriers["block"] > 0

    def test_per_spec_lookup_and_occupancy(self):
        profile = _profile(GemmConfig(32, 32, 64, (32, 32, 32), (1, 1),
                                      name="prof_tc_spec"))
        mma = profile.spec("mma")
        assert mma.occupancy == 1.0
        assert 0.0 < profile.occupancy <= 1.0


class TestRunResultApi:
    def test_run_returns_runresult(self):
        kernel = build(NaiveGemmConfig(32, 32, 32, (2, 2), (4, 4)))
        result = Simulator(AMPERE).run(kernel, _bindings(kernel))
        assert isinstance(result, RunResult)
        assert result.sanitizer is None
        assert result.profile is None

    def test_profile_opt_in(self):
        kernel = build(NaiveGemmConfig(32, 32, 32, (2, 2), (4, 4)))
        result = Simulator(AMPERE).run(kernel, _bindings(kernel),
                                       profile=True)
        assert isinstance(result.profile, KernelProfile)

    def test_machine_delegation_removed(self):
        kernel = build(NaiveGemmConfig(32, 32, 32, (2, 2), (4, 4)))
        result = Simulator(AMPERE).run(kernel, _bindings(kernel))
        with pytest.raises(AttributeError):
            result.shared_bytes(0)

    def test_unknown_attribute_raises(self):
        kernel = build(NaiveGemmConfig(32, 32, 32, (2, 2), (4, 4)))
        result = Simulator(AMPERE).run(kernel, _bindings(kernel))
        with pytest.raises(AttributeError):
            result.no_such_counter

    def test_profiling_does_not_change_numerics(self):
        kernel = build(NaiveGemmConfig(32, 32, 32, (2, 2), (4, 4)))
        plain = _bindings(kernel)
        profiled = {k: v.copy() for k, v in plain.items()}
        Simulator(AMPERE).run(kernel, plain)
        Simulator(AMPERE).run(kernel, profiled, profile=True)
        for name in plain:
            np.testing.assert_array_equal(plain[name], profiled[name])


class TestChromeTrace:
    def test_trace_events_well_formed(self, tmp_path):
        profile = _profile(NaiveGemmConfig(32, 32, 32, (2, 2), (4, 4)))
        trace = profile.chrome_trace()
        events = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        assert events, "profiled run must emit timeline slices"
        for e in events:
            assert e["dur"] > 0
        path = tmp_path / "trace.json"
        profile.save_chrome_trace(str(path))
        assert json.loads(path.read_text())["traceEvents"]


class TestCacheScoping:
    """Regression: the reference interpreter's id()-keyed statement
    caches must be scoped per run — a recycled id() from a freed kernel
    previously poisoned later runs."""

    def test_poisoned_cache_is_cleared_by_run(self):
        sim = ReferenceSimulator(AMPERE)
        kernel = build(NaiveGemmConfig(32, 32, 32, (2, 2), (4, 4)))
        bindings = _bindings(kernel)
        ref = _naive_gemm_ref(bindings)
        # Pre-poison every statement id with garbage loop bounds.
        stack = [kernel.body]
        while stack:
            stmt = stack.pop()
            sim._loop_cache[id(stmt)] = (0, 0, 1, "poison")
            stack.extend(getattr(stmt, "body", []) or [])
        sim.run(kernel, bindings)
        err = np.abs(bindings["C"].astype(np.float32) - ref).max()
        assert err < 0.05, "stale cache entries leaked into the run"

    def test_build_free_rebuild_loop(self):
        import gc

        sim = Simulator(AMPERE)
        for seed in range(4):
            kernel = build(NaiveGemmConfig(32, 32, 32, (2, 2), (4, 4)))
            bindings = _bindings(kernel, seed)
            ref = _naive_gemm_ref(bindings)
            sim.run(kernel, bindings)
            err = np.abs(bindings["C"].astype(np.float32) - ref).max()
            assert err < 0.05, f"iteration {seed} computed wrong numerics"
            del kernel
            gc.collect()  # recycle ids so collisions would surface
