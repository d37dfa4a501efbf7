"""Thread-safety stress tests for the shared simulator.

One :class:`~repro.sim.interp.Simulator` serves every thread here: the
plan cache and the compiled plans it hands out are shared state, and
these tests drive them with same-kernel and mixed-kernel traffic to
prove lookups, compilations and counter updates stay coherent.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.arch import architecture
from repro.conformance.harness import default_cases
from repro.kernels.config import NaiveGemmConfig
from repro.kernels.gemm import build
from repro.sim import Simulator, strip_barriers
from repro.sim.sanitizer import verdict

ARCH = architecture("ampere")


def _kernel(m=16):
    return build(NaiveGemmConfig(m=m, n=16, k=16, grid=(2, 2),
                                 threads=(4, 2)))


def _problem(rng, m=16):
    a = (rng.random((m, 16)) - 0.5).astype(np.float16)
    b = (rng.random((16, 16)) - 0.5).astype(np.float16)
    return {"A": a, "B": b, "C": np.zeros((m, 16), dtype=np.float16)}


def _reference(problem):
    a32 = problem["A"].astype(np.float32)
    b32 = problem["B"].astype(np.float32)
    return a32 @ b32


def test_same_kernel_traffic_shares_one_plan():
    sim = Simulator(ARCH)
    kernel = _kernel()
    rng = np.random.default_rng(0)
    problems = [_problem(rng) for _ in range(16)]

    def launch(problem):
        bindings = {k: v.copy() for k, v in problem.items()}
        sim.run(kernel, bindings)
        return bindings["C"]

    with ThreadPoolExecutor(max_workers=8) as pool:
        outputs = list(pool.map(launch, problems))
    for problem, out in zip(problems, outputs):
        np.testing.assert_allclose(out.astype(np.float32),
                                   _reference(problem), atol=0.25)
    stats = sim.plan_cache.stats
    # Concurrent first lookups may each compile (benign value-equal
    # race), but hits + misses always equals the traffic and at most
    # one plan per racing thread was compiled.
    assert stats.hits + stats.misses == len(problems)
    assert 1 <= stats.misses <= 8
    assert len(sim.plan_cache) == 1


def test_mixed_kernel_traffic_is_race_free():
    sim = Simulator(ARCH)
    shapes = (16, 32, 48, 64)
    kernels = {m: _kernel(m) for m in shapes}
    rng = np.random.default_rng(1)
    jobs = [(m, _problem(rng, m)) for m in shapes for _ in range(4)]

    def launch(job):
        m, problem = job
        bindings = {k: v.copy() for k, v in problem.items()}
        sim.run(kernels[m], bindings)
        return bindings["C"]

    with ThreadPoolExecutor(max_workers=8) as pool:
        outputs = list(pool.map(launch, jobs))
    for (m, problem), out in zip(jobs, outputs):
        np.testing.assert_allclose(out.astype(np.float32),
                                   _reference(problem), atol=0.25)
    assert sim.plan_cache.stats.hits + sim.plan_cache.stats.misses \
        == len(jobs)
    assert len(sim.plan_cache) == len(shapes)


@pytest.mark.parametrize("profile", [False, True])
def test_concurrent_profiled_runs_match_a_solo_run(profile):
    # Threads replay one shared compiled plan; each profiled run must
    # report exactly what a profiled run alone does.
    sim = Simulator(ARCH)
    kernel = _kernel()
    rng = np.random.default_rng(2)
    problem = _problem(rng)
    solo = sim.run(kernel, {k: v.copy() for k, v in problem.items()},
                   profile=True).profile

    def launch(_):
        run = sim.run(kernel, {k: v.copy() for k, v in problem.items()},
                      profile=profile)
        return run.profile

    with ThreadPoolExecutor(max_workers=8) as pool:
        profiles = list(pool.map(launch, range(12)))
    if profile:
        for measured in profiles:
            assert measured.as_dict() == solo.as_dict()
            assert measured.events == solo.events
    else:
        assert all(p is None for p in profiles)


@pytest.mark.parametrize("mutant", [False, True])
def test_concurrent_sanitized_runs_match_a_solo_run(mutant):
    # The sanitizer is per run; nothing it keeps may live on the shared
    # plan.  Every thread must reach a solo run's verdict, races and all.
    (case,) = [c for c in default_cases() if c.name == "gemm_ampere"]
    kernel = strip_barriers(case.kernel) if mutant else case.kernel
    sim = Simulator(case.arch)

    def launch(_=None):
        run = sim.run(kernel, {k: np.array(v, copy=True)
                               for k, v in case.arrays.items()},
                      symbols=case.symbols, sanitize="report")
        return verdict(run.sanitizer)

    solo = launch()
    assert bool(solo[0]) == mutant
    with ThreadPoolExecutor(max_workers=12) as pool:
        verdicts = list(pool.map(launch, range(12)))
    assert all(v == solo for v in verdicts)
    assert len(sim.plan_cache) == 1
