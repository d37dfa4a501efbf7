"""KernelServer behavior: concurrency, mixed families, metrics, errors."""

import threading

import numpy as np
import pytest

from repro.serve import KernelServer, ServeFamily, serve_catalog, \
    zipf_schedule
from repro.sim import RunOptions, SimulationError, Simulator

pytestmark = pytest.mark.serve


@pytest.fixture(scope="module")
def catalog():
    return serve_catalog(seed=0)


def _family(catalog, name):
    for fam in catalog:
        if fam.name == name:
            return fam
    raise LookupError(name)


def test_concurrent_submissions_from_many_threads(catalog):
    fam = _family(catalog, "gemm_naive")
    rng = np.random.default_rng(0)
    problems = [fam.make_bindings(rng) for _ in range(12)]
    sim = Simulator(fam.arch)
    expected = []
    for problem in problems:
        ref = sim.run(fam.kernel,
                      {k: v.copy() for k, v in problem.items()},
                      symbols=fam.symbols)
        expected.append({out: ref.machine.global_array(out).copy()
                         for out in fam.outputs})
    with KernelServer([fam], max_workers=4) as server:
        results = [None] * len(problems)

        def issue(i):
            results[i] = server.request(fam.name, problems[i], timeout=60)

        threads = [threading.Thread(target=issue, args=(i,))
                   for i in range(len(problems))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    for result, ref in zip(results, expected):
        for out, arr in ref.items():
            np.testing.assert_array_equal(
                result.outputs[out].reshape(-1), arr)
    assert server.metrics.requests_completed == len(problems)
    assert server.metrics.requests_failed == 0
    # One signature -> exactly one capture, everything else warm hits.
    assert server.graph_cache.snapshot()["entries"] == 1


def test_mixed_family_zipf_traffic(catalog):
    schedule = zipf_schedule(catalog, 30, seed=1)
    with KernelServer(catalog, max_workers=4) as server:
        futures = [server.submit(fam.name, bindings)
                   for fam, bindings in schedule]
        results = [f.result(timeout=120) for f in futures]
    assert server.metrics.requests_failed == 0
    assert {r.family for r in results} <= {f.name for f in catalog}
    snap = server.metrics.snapshot(server.graph_cache)
    assert snap["requests_completed"] == 30
    assert snap["graph_cache"]["entries"] >= 1
    assert snap["latency"]["count"] == 30
    assert snap["warm_replay"]["count"] > 0


def test_eviction_under_tiny_budget(catalog):
    fams = catalog[:3]
    # Budget below two graphs' footprint: the cache must evict and the
    # server must still answer every request correctly.
    with KernelServer(fams, budget_bytes=1, max_workers=2) as server:
        for _ in range(2):
            for fam in fams:
                rng = np.random.default_rng(7)
                result = server.request(fam.name, fam.make_bindings(rng),
                                        timeout=120)
                assert result.family == fam.name
    assert server.metrics.requests_failed == 0
    snap = server.graph_cache.snapshot()
    assert snap["entries"] == 1  # never evicts the newest entry
    assert snap["evictions"] >= 2


def test_unknown_family_and_bad_bindings(catalog):
    fam = _family(catalog, "softmax")
    with KernelServer([fam]) as server:
        with pytest.raises(KeyError, match="unknown family"):
            server.submit("nope", {})
        bad = fam.make_bindings(np.random.default_rng(0))
        name = next(iter(bad))
        bad[name] = bad[name][:1]  # wrong shape -> replay must fail
        future = server.submit(fam.name, bad)
        with pytest.raises(Exception):
            future.result(timeout=60)
    assert server.metrics.requests_failed >= 1


def test_short_binding_fails_the_request_cleanly(catalog):
    """A gemm input three elements short resolves to a SimulationError
    naming the parameter, not an IndexError from inside the engine."""
    fam = _family(catalog, "gemm")
    bad = fam.make_bindings(np.random.default_rng(0))
    bad["A"] = bad["A"].reshape(-1)[:-3].copy()
    with KernelServer([fam], options=RunOptions(sanitize=True)) as server:
        future = server.submit(fam.name, bad)
        with pytest.raises(SimulationError,
                           match=r"'A' has 509 elements; its layout needs "
                                 r"512"):
            future.result(timeout=60)
    assert server.metrics.requests_failed == 1


@pytest.mark.parametrize("corrupt, match", [
    (lambda b: {"A": b["A"].astype(np.float64)},
     r"'A' has dtype float64; the parameter is float16"),
    (lambda b: {"Z": b["A"].copy()}, r"bindings \['Z'\] name no parameter"),
], ids=["dtype", "unknown"])
def test_mistyped_binding_fails_the_request_cleanly(catalog, corrupt, match):
    """A gemm input of the wrong dtype, or one under a name the kernel
    lacks, fails the request with a SimulationError naming it instead
    of serving a silently wrong answer."""
    fam = _family(catalog, "gemm")
    bindings = fam.make_bindings(np.random.default_rng(0))
    with KernelServer([fam], options=RunOptions(sanitize=True)) as server:
        future = server.submit(fam.name, {**bindings, **corrupt(bindings)})
        with pytest.raises(SimulationError, match=match):
            future.result(timeout=60)
    assert server.metrics.requests_failed == 1


def test_respelled_families_share_one_graph_entry():
    """Two families whose kernels spell the same layout differently
    (flat vs nested modes — identical offset sequences) dedupe onto a
    single graph-cache entry: one capture, then warm hits, and both
    families' requests replay correctly."""
    from repro.arch import AMPERE
    from tests.serve.test_dedupe import FLAT, NESTED, PERMUTED, build_copy

    def family(name, spelling):
        kern = build_copy(spelling, name="respell")

        def draw(rng):
            return {"X": (rng.random((4, 8)) - 0.5).astype(np.float16),
                    "Y": np.zeros((4, 8), np.float16)}
        return ServeFamily(name, kern, AMPERE, {}, ("Y",), draw)

    fams = [family("copy_flat", FLAT), family("copy_nested", NESTED)]
    rng = np.random.default_rng(3)
    with KernelServer(fams, max_workers=2) as server:
        for _ in range(2):
            for fam in fams:
                bindings = fam.make_bindings(rng)
                x = bindings["X"].copy()
                result = server.request(fam.name, bindings, timeout=60)
                np.testing.assert_array_equal(
                    result.outputs["Y"].reshape(4, 8), x)
    snap = server.graph_cache.snapshot()
    assert snap["entries"] == 1
    assert snap["misses"] == 1
    assert snap["hits"] == 3
    assert server.metrics.requests_failed == 0

    # A genuinely different offset sequence still gets its own entry.
    fams.append(family("copy_permuted", PERMUTED))
    with KernelServer(fams, max_workers=2) as server:
        for fam in fams:
            server.request(fam.name, fam.make_bindings(rng), timeout=60)
    snap = server.graph_cache.snapshot()
    assert snap["entries"] == 2
    assert snap["misses"] == 2
    assert snap["hits"] == 1


def test_submit_after_close_raises(catalog):
    fam = _family(catalog, "moves")
    server = KernelServer([fam])
    server.close()
    with pytest.raises(RuntimeError, match="closed"):
        server.submit(fam.name, fam.make_bindings(np.random.default_rng(0)))
