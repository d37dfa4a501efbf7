"""Compiled launch plans: cache semantics and oracle bit-exactness.

The plan engine (:mod:`repro.sim.plan`) must be indistinguishable from
the per-lane reference interpreter (:mod:`tests.sim.reference_oracle`)
— not just in output arrays but in every observable: final machine
state, profiler counters (bank conflicts included) and event timeline,
and sanitizer reports.  These tests pin that equivalence over the
conformance case library, a small fuzz corpus, barrier-stripped racy
mutants and aliasing moves, and pin the plan cache's keying rules
(kernel identity + symbol bindings + binding shapes).
"""

import pickle

import numpy as np
import pytest

from repro.conformance.harness import Case, default_cases
from repro.arch import AMPERE, HOPPER
from repro.arch.gpu import Architecture
from repro.frontend.builder import KernelBuilder
from repro.ir.expr import Var
from repro.kernels import (
    HopperFp8GemmConfig, LayernormConfig, NaiveGemmConfig, SoftmaxConfig,
    Sparse24GemmConfig, build,
)
from repro.library import funcs
from repro.library.problems import draw
from repro.sim import (
    LaunchPlan, PlanCache, SimulationError, Simulator,
    kernel_fingerprint, plan_cache_key, strip_barriers,
)
from repro.sim.profiler import SpecCounters
from repro.sim.sanitizer import verdict
from repro.specs.atomic import AtomicSpec, OperandPattern as Op
from repro.tensor import FP16, FP32, INT32, RF, SH

from .reference_oracle import ReferenceSimulator

CASES = {c.name: c for c in default_cases()}


# -- observable signatures ----------------------------------------------------------
def _profile_sig(profile):
    if profile is None:
        return None
    spec_rows = {
        label: tuple(getattr(c, a) for a in SpecCounters.__slots__)
        for label, c in profile.specs.items()
    }
    return (profile.kernel_name, profile.grid_size, profile.block_size,
            spec_rows, dict(profile.barriers), tuple(profile.events),
            profile.dropped_events)


def _machine_sig(machine):
    def table(t):
        return {k: (v.dtype.str, v.shape, v.tobytes()) for k, v in t.items()}

    return (table(machine._global), table(machine._shared),
            table(machine._regs))


def _run_engine(case: Case, simulator, sanitize="report"):
    arrays = {k: v.copy() for k, v in case.arrays.items()}
    result = simulator(case.arch).run(
        case.kernel, arrays, symbols=case.symbols,
        sanitize=sanitize, profile=True,
    )
    return (
        {k: v.tobytes() for k, v in arrays.items()},
        _machine_sig(result.machine),
        _profile_sig(result.profile),
        verdict(result.sanitizer),
    )


def _assert_engines_match(case: Case, sanitize="report"):
    ref = _run_engine(case, ReferenceSimulator, sanitize)
    vec = _run_engine(case, Simulator, sanitize)
    assert ref[0] == vec[0], f"{case.name}: output arrays differ"
    assert ref[1] == vec[1], f"{case.name}: machine state differs"
    assert ref[2] == vec[2], f"{case.name}: profiler output differs"
    assert ref[3] == vec[3], f"{case.name}: sanitizer reports differ"


# -- conformance sweep --------------------------------------------------------------
class TestEngineBitExact:
    """The plan engine agrees with the oracle on every observable, for
    every shipped family."""

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_conformance_case(self, name):
        _assert_engines_match(CASES[name])


class TestRacyMutants:
    """Sanitizer findings match the oracle's on broken kernels.

    Stripping barriers manufactures genuine shared-memory races; the
    plan engine must report the *same* hazards (same kind, buffer,
    element, thread pair, epoch, spec) the per-lane oracle does.
    """

    @pytest.mark.parametrize("name", ["gemm_ampere", "layernorm", "mlp"])
    def test_barrier_stripped(self, name):
        case = CASES[name]
        mutant = Case(**{**case.__dict__, "kernel": strip_barriers(case.kernel)})
        _assert_engines_match(mutant)


class TestHopperGrid:
    """Two blocks read the same A tile through TMA: the sanitizer must
    see those bulk copies as plain reads, as the oracle does (a read
    booked as a write would race across blocks)."""

    def _case(self, family, rng):
        m, n, k = 64, 128, 64
        config = {"gemm_fp8": HopperFp8GemmConfig,
                  "gemm_sparse24": Sparse24GemmConfig}[family]
        kernel = build(config(m=m, n=n, k=k, block_k=32))
        arrays = draw(family, rng, m=m, n=n, k=k)
        assert kernel.grid_size() == 2
        return Case(name=f"{family}_2blocks", family=family, kernel=kernel,
                    arrays=arrays, outputs=[], arch=HOPPER)

    @pytest.mark.parametrize("family", ["gemm_fp8", "gemm_sparse24"])
    def test_engines_match(self, family):
        _assert_engines_match(self._case(family, np.random.default_rng(5)))


# -- fuzz corpus --------------------------------------------------------------------
def _fuzz_cases(count=4, seed=2024):
    """Small random problems over the scalar-loop kernel families."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        kind = i % 3
        if kind == 0:
            m, n, k = (int(rng.integers(1, 3)) * 8 for _ in range(3))
            a = (rng.random((m, k)) - 0.5).astype(np.float16)
            b = (rng.random((k, n)) - 0.5).astype(np.float16)
            kernel = build(NaiveGemmConfig(m, n, k, grid=(2, 2),
                                           threads=(2, 2)))
            arrays = {"A": a, "B": b, "C": np.zeros((m, n), np.float16)}
            name = f"fuzz_gemm_{m}x{n}x{k}"
        elif kind == 1:
            rows, hidden = int(rng.integers(2, 6)), 32 * int(rng.integers(1, 3))
            x = (rng.random((rows, hidden)) - 0.5).astype(np.float16)
            kernel = build(LayernormConfig(rows, hidden, warps_per_block=2))
            arrays = {"X": x,
                      "gamma": (rng.random(hidden) * 2).astype(np.float16),
                      "beta": (rng.random(hidden) - 0.5).astype(np.float16),
                      "Y": np.zeros((rows, hidden), np.float16)}
            name = f"fuzz_layernorm_{rows}x{hidden}"
        else:
            rows = 4 * int(rng.integers(1, 4))
            cols = int(rng.integers(4, 12))
            x = (rng.random((rows, cols)) - 0.5).astype(np.float16)
            kernel = build(SoftmaxConfig(rows, cols, threads_per_block=4))
            arrays = {"X": x, "Y": np.zeros((rows, cols), np.float16)}
            name = f"fuzz_softmax_{rows}x{cols}"
        cases.append(Case(name=name, family="fuzz", kernel=kernel,
                          arrays=arrays, outputs=[]))
    return cases


class TestFuzzCrossCheck:
    """Randomized shapes: the plan engine stays bit-exact with the oracle
    on every observable."""

    @pytest.mark.parametrize("case", _fuzz_cases(),
                             ids=lambda c: c.name)
    def test_fuzz_case(self, case):
        _assert_engines_match(case)


# -- aliasing moves -----------------------------------------------------------------
N_ALIAS = 32


def _alias_case(name, build, arrays):
    kb = KernelBuilder(name, (1,), (N_ALIAS,))
    build(kb, Var("threadIdx.x"))
    return Case(name=name, family="alias", kernel=kb.build(), arrays=arrays,
                outputs=[], arch=AMPERE)


def _shared_shift(kb, t, shift):
    """x -> s[t]; lane t then moves s[t] to s[t + shift] in one spec."""
    x = kb.param("x", (N_ALIAS,), FP32)
    y = kb.param("y", (N_ALIAS,), FP32)
    s = kb.alloc("s", (2 * N_ALIAS,), FP32, SH)
    kb.move(x.tile((1,))[t], s.tile((1,))[t])
    kb.sync()
    kb.move(s.tile((1,))[t], s.tile((1,))[t + shift])
    kb.sync()
    kb.move(s.tile((1,))[t + shift], y.tile((1,))[t])


def _alias_arrays():
    return {"x": np.arange(N_ALIAS, dtype=np.float32) + 1.0,
            "y": np.zeros(N_ALIAS, np.float32)}


class TestAliasingMove:
    """A Move whose source and destination share a buffer runs the
    ordinary gather-then-scatter runner, which is the per-lane order
    whenever no lane reads an element another lane of the spec writes."""

    def test_disjoint_shared_move_matches_oracle(self):
        case = _alias_case(
            "alias_sh", lambda kb, t: _shared_shift(kb, t, N_ALIAS),
            _alias_arrays())
        _assert_engines_match(case)
        arrays = _alias_arrays()
        Simulator(AMPERE).run(case.kernel, arrays, sanitize=True)
        np.testing.assert_array_equal(arrays["y"], arrays["x"])

    def test_in_place_register_move_matches_oracle(self):
        def build(kb, t):
            x = kb.param("x", (N_ALIAS,), FP32)
            y = kb.param("y", (N_ALIAS, 4), FP32)
            r = kb.alloc("r", (4,), FP32, RF)
            kb.init(r, 0.0)
            kb.move(x.tile((1,))[t], r.tile((1,))[0])
            kb.move(r.tile((2,))[0], r.tile((2,))[1])
            kb.move(r, r)
            kb.move(r, y.tile((1, 4))[t, 0])

        case = _alias_case("alias_rf", build, {
            "x": np.arange(N_ALIAS, dtype=np.float32) + 1.0,
            "y": np.zeros((N_ALIAS, 4), np.float32)})
        _assert_engines_match(case)

    def test_overlapping_shared_move_races_identically(self):
        """Lane t writes the element lane t + 1 reads: the values depend
        on lane order, so only the sanitizer verdicts must agree."""
        case = _alias_case(
            "alias_racy", lambda kb, t: _shared_shift(kb, t, 1),
            _alias_arrays())
        ref = _run_engine(case, ReferenceSimulator)
        vec = _run_engine(case, Simulator)
        assert vec[3] == ref[3]
        assert not Simulator(AMPERE).run(
            case.kernel, _alias_arrays(), sanitize="report"
        ).sanitizer.clean()


class TestRunnerSelection:
    def test_atomic_without_runner_fails_at_plan_compile(self):
        """An atomic no runner implements is a SimulationError before any
        block executes: the launch leaves its output untouched."""
        unknown = AtomicSpec(
            "sparse24.custom", "Spec", "sparse24.custom [smem expand]", 128,
            [Op(mem=SH, dtype=FP16), Op(mem=SH, dtype=INT32)],
            [Op(mem=SH, dtype=FP16)],
            predicate=lambda spec: spec.label.startswith("sparse24"),
        )
        arch = Architecture(
            "H100 without sparse24 runner", 90,
            [unknown if a.name == "sparse24.decompress" else a
             for a in HOPPER.atomics],
            num_sms=1, tensor_fp16_tflops=1.0, fp32_tflops=1.0,
            fp16_tflops=1.0, dram_gbps=1.0, smem_bytes_per_sm=1 << 20,
            smem_gbps=1.0,
        )
        case = CASES["gemm_sparse24_hopper"]
        with pytest.raises(SimulationError, match="has no simulator runner"):
            LaunchPlan(case.kernel, arch)
        arrays = {k: v.copy() for k, v in case.arrays.items()}
        with pytest.raises(SimulationError, match="sparse24.custom"):
            Simulator(arch).run(case.kernel, arrays)
        np.testing.assert_array_equal(arrays["C"], case.arrays["C"])


# -- plan-cache semantics -----------------------------------------------------------
def _gemm_problem(m=16, n=16, k=16, seed=0):
    rng = np.random.default_rng(seed)
    a = (rng.random((m, k)) - 0.5).astype(np.float16)
    b = (rng.random((k, n)) - 0.5).astype(np.float16)
    kernel = build(NaiveGemmConfig(m, n, k, grid=(2, 2), threads=(2, 2)))
    return kernel, {"A": a, "B": b, "C": np.zeros((m, n), np.float16)}


class TestPlanCache:
    def test_repeat_run_hits(self):
        case = CASES["gemm_naive"]
        sim = Simulator(case.arch)
        for _ in range(3):
            arrays = {k: v.copy() for k, v in case.arrays.items()}
            sim.run(case.kernel, arrays, symbols=case.symbols)
        assert sim.plan_cache.misses == 1
        assert sim.plan_cache.hits == 2

    def test_symbol_rebinding_misses(self):
        case = CASES["gemm_parametric"]
        sim = Simulator(case.arch)
        for m_sym in (28, 12, 28):
            arrays = {k: v.copy() for k, v in case.arrays.items()}
            sim.run(case.kernel, arrays, symbols={"M": m_sym})
        # Two distinct symbol bindings -> two plans; the third run
        # re-uses the M=28 plan.
        assert sim.plan_cache.misses == 2
        assert sim.plan_cache.hits == 1

    def test_binding_shape_change_invalidates(self):
        kernel, small = _gemm_problem(m=16, n=16, k=16)
        sim = Simulator(CASES["gemm_naive"].arch)
        sim.run(kernel, small)
        # Same kernel object but larger A/B/C buffers: the cached plan's
        # flat offsets were computed against the old extents, so the key
        # must treat the new shapes as a different launch.
        _, big = _gemm_problem(m=32, n=32, k=32)
        sim.run(kernel, big)
        assert sim.plan_cache.misses == 2
        assert sim.plan_cache.hits == 0

    def test_structurally_identical_kernels_share_a_plan(self):
        # Cache keys use the kernel's structural fingerprint, not its
        # id(): two separately-built but identical kernels hit the same
        # compiled plan.
        kernel_a, arrays = _gemm_problem()
        kernel_b, _ = _gemm_problem()
        assert kernel_a is not kernel_b
        sim = Simulator(CASES["gemm_naive"].arch)
        sim.run(kernel_a, {k: v.copy() for k, v in arrays.items()})
        sim.run(kernel_b, {k: v.copy() for k, v in arrays.items()})
        assert sim.plan_cache.misses == 1
        assert sim.plan_cache.hits == 1

    def test_structurally_distinct_kernels_miss(self):
        kernel_a, arrays = _gemm_problem()
        kernel_b = build(
            NaiveGemmConfig(16, 16, 16, grid=(2, 2), threads=(4, 2)))
        sim = Simulator(CASES["gemm_naive"].arch)
        sim.run(kernel_a, {k: v.copy() for k, v in arrays.items()})
        sim.run(kernel_b, {k: v.copy() for k, v in arrays.items()})
        assert sim.plan_cache.misses == 2
        assert sim.plan_cache.hits == 0

    def test_lru_eviction(self):
        sim = Simulator(CASES["gemm_naive"].arch)
        sim.plan_cache = PlanCache(maxsize=2)
        problems = [_gemm_problem(m=m) for m in (16, 32, 48)]
        for kernel, arrays in problems:
            sim.run(kernel, {k: v.copy() for k, v in arrays.items()})
        assert sim.plan_cache.evictions == 1
        # Oldest plan evicted: re-running problems[0] recompiles.
        kernel, arrays = problems[0]
        sim.run(kernel, {k: v.copy() for k, v in arrays.items()})
        assert sim.plan_cache.misses == 4
        assert sim.plan_cache.hits == 0
        assert sim.plan_cache.evictions == 2
        assert sim.plan_cache.stats.snapshot() == {
            "hits": 0, "misses": 4, "evictions": 2,
        }

    def test_cached_replay_stays_correct(self):
        kernel, arrays = _gemm_problem()
        sim = Simulator(CASES["gemm_naive"].arch)
        expected = funcs.gemm(arrays["A"], arrays["B"])
        for _ in range(2):
            run_arrays = {k: v.copy() for k, v in arrays.items()}
            sim.run(kernel, run_arrays)
            np.testing.assert_allclose(
                run_arrays["C"].astype(np.float32), expected, atol=0.02
            )
        assert sim.plan_cache.hits == 1


class TestPlanPickling:
    """Satellite contract: plans and their cache keys cross pickle."""

    @pytest.mark.parametrize(
        "name", ["gemm_naive", "gemm_ampere", "gemm_parametric", "softmax",
                 "layernorm", "fmha"])
    def test_kernel_round_trips(self, name):
        case = CASES[name]
        blob = pickle.dumps(case.kernel, protocol=4)
        kernel = pickle.loads(blob)
        assert kernel.name == case.kernel.name
        assert kernel.grid_size() == case.kernel.grid_size()
        assert kernel.block_size() == case.kernel.block_size()
        # Structural identity survives the round trip.
        assert kernel_fingerprint(kernel) == kernel_fingerprint(case.kernel)

    def test_launch_plan_round_trips_and_replays(self):
        case = CASES["gemm_naive"]
        plan = LaunchPlan(case.kernel, case.arch)
        restored = pickle.loads(pickle.dumps(plan, protocol=4))
        assert restored.grid_size == plan.grid_size
        assert restored.nthreads == plan.nthreads
        assert restored.arch is case.arch  # registry singleton
        # The restored plan must produce the exact same run outputs.
        sim = Simulator(case.arch)
        expected = {k: v.copy() for k, v in case.arrays.items()}
        sim.run(case.kernel, expected, symbols=case.symbols)
        got = {k: v.copy() for k, v in case.arrays.items()}
        sim2 = Simulator(case.arch)
        sim2.plan_cache._entries[plan_cache_key(
            restored.kernel, case.arch, dict(case.symbols or {}), got
        )] = restored
        sim2.run(restored.kernel, got, symbols=case.symbols)
        assert sim2.plan_cache.hits == 1  # replayed the restored plan
        for name in case.outputs:
            np.testing.assert_array_equal(got[name], expected[name])

    def test_cache_key_is_picklable_and_deterministic(self):
        kernel_a, arrays = _gemm_problem()
        kernel_b, _ = _gemm_problem()
        arch = CASES["gemm_naive"].arch
        key_a = plan_cache_key(kernel_a, arch, {}, arrays)
        key_b = plan_cache_key(kernel_b, arch, {}, arrays)
        assert key_a == key_b  # no id()-derived parts
        assert pickle.loads(pickle.dumps(key_a)) == key_a
