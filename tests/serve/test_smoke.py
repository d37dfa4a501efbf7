"""Fast serve-tier smoke: capture, replay, batch, evict on a tiny GEMM.

Runs in the default tier-1 selection (the ``serve`` marker selects the
whole serve suite); everything here sticks to one small kernel so the
file stays well under the five-second budget.
"""

import numpy as np
import pytest

from repro.arch import architecture
from repro.kernels.config import NaiveGemmConfig
from repro.kernels.gemm import build
from repro.serve import CapturedGraph, GraphCache, KernelServer, graph_key
from repro.sim import Simulator

pytestmark = pytest.mark.serve

ARCH = architecture("ampere")


def _small_gemm():
    return build(NaiveGemmConfig(m=16, n=16, k=16, grid=(2, 2),
                                 threads=(4, 2)))


def _bindings(rng, m=16, n=16, k=16):
    return {
        "A": (rng.random((m, k)) - 0.5).astype(np.float16),
        "B": (rng.random((k, n)) - 0.5).astype(np.float16),
        "C": np.zeros((m, n), dtype=np.float16),
    }


def test_capture_and_replay_matches_simulator():
    rng = np.random.default_rng(0)
    kernel = _small_gemm()
    bindings = _bindings(rng)
    graph = CapturedGraph.capture(kernel, ARCH, {}, bindings)
    assert graph.trace is not None  # fma-only kernels trace fully
    graph.replay(bindings)
    ref = Simulator(ARCH).run(kernel,
                              {k: v.copy() for k, v in bindings.items()})
    np.testing.assert_array_equal(
        graph.outputs()["C"].reshape(-1), ref.machine.global_array("C"))


def test_replays_are_deterministic_and_isolated():
    rng = np.random.default_rng(1)
    kernel = _small_gemm()
    graph = CapturedGraph.capture(kernel, ARCH, {}, _bindings(rng))
    first = _bindings(rng)
    graph.replay(first)
    out1 = graph.outputs()["C"]
    # A different problem through the same graph...
    graph.replay(_bindings(rng))
    # ...then the first again: bit-identical, no state leakage.
    graph.replay(first)
    np.testing.assert_array_equal(graph.outputs()["C"], out1)


def test_server_batches_same_signature_requests():
    rng = np.random.default_rng(2)
    kernel = _small_gemm()
    with KernelServer(batch_window_s=0.01) as server:
        server.register("gemm_naive", kernel, ARCH)
        futures = [server.submit("gemm_naive", _bindings(rng))
                   for _ in range(6)]
        results = [f.result(timeout=30) for f in futures]
    assert all(r.family == "gemm_naive" for r in results)
    # One capture total; everything after the first replay is warm.
    assert server.metrics.cold_capture.count == 1
    assert sum(not r.graph_hit for r in results) == 1
    assert server.metrics.requests_completed == 6


def test_graph_cache_evicts_under_budget():
    rng = np.random.default_rng(3)
    kernels = [
        build(NaiveGemmConfig(m=m, n=16, k=16, grid=(2, 2), threads=(4, 2)))
        for m in (16, 32)
    ]
    graphs = []
    for kernel in kernels:
        bindings = _bindings(rng, m=16 if kernel is kernels[0] else 32)
        graphs.append((graph_key(kernel, ARCH, {}, bindings),
                       CapturedGraph.capture(kernel, ARCH, {}, bindings)))
    budget = graphs[1][1].nbytes  # room for exactly the bigger graph
    cache = GraphCache(budget_bytes=budget)
    for key, graph in graphs:
        cache.put(key, graph)
    assert cache.stats.evictions == 1
    assert graphs[0][0] not in cache
    assert graphs[1][0] in cache
    assert cache.get(graphs[1][0]) is graphs[1][1]
    assert cache.stats.hits == 1
    assert cache.stats.misses == 0
