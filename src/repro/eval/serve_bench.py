"""Serving benchmark: capture/replay fidelity, cold-vs-warm, throughput.

Three phases over every shipped kernel family, written as one
``BENCH_serve.json`` artifact:

1. **Fidelity** — per family, a fresh :class:`~repro.serve.CapturedGraph`
   replay of a random problem must be bit-identical to
   ``Simulator.run`` (outputs and bank counters), and an observer
   replay must reproduce the simulator's profiler counters and
   sanitizer verdicts.
2. **Cold vs warm** — cold is capture-and-run (launch binding, plan
   compilation, trace recording, first replay); warm is a steady-state
   replay through the recorded trace.  The acceptance line is warm
   ≥ 5x faster than cold in every family.
3. **Throughput** — a :class:`~repro.serve.KernelServer` drains a
   Zipf-distributed request mix over all families; the artifact
   records sustained requests/second, p50/p99 latency, queue depth,
   and graph-cache hit/miss/eviction counters.

Run with ``python -m repro.eval serve-bench``.
"""

from __future__ import annotations

import json
import os
import time
from typing import List, Optional

import numpy as np

from ..serve import CapturedGraph, KernelServer, serve_catalog, zipf_schedule
from ..sim import RunOptions, Simulator
from ..sim.sanitizer import verdict

#: Acceptance threshold: a warm replay must amortize the cold capture
#: this many times over in every family.
WARM_SPEEDUP_FLOOR = 5.0


def _copies(arrays):
    return {k: np.array(v, copy=True) for k, v in arrays.items()}


def _profile_signature(profile):
    return (
        sorted((label, {s: getattr(c, s) for s in c.__slots__})
               for label, c in profile.specs.items()),
        profile.barriers,
        profile.dropped_events,
    )


def check_family_fidelity(fam, seed: int = 0) -> dict:
    """Replay fidelity of one family's captured graph vs the simulator."""
    rng = np.random.default_rng(seed)
    problem = fam.make_bindings(rng)
    sim = Simulator(fam.arch)
    graph = CapturedGraph.capture(fam.kernel, fam.arch, fam.symbols,
                                  _copies(problem))
    ref = sim.run(fam.kernel, _copies(problem), symbols=fam.symbols,
                  options=RunOptions(engine="vectorized"))
    graph.replay(_copies(problem))
    outs = graph.outputs()
    outputs_ok = all(
        np.array_equal(outs[out].reshape(-1), ref.machine.global_array(out))
        for out in graph.output_params
    )
    bank, bank_ref = graph.machine.bank_model, ref.machine.bank_model
    bank_ok = (bank.accesses, bank.transactions, bank.worst_degree) == (
        bank_ref.accesses, bank_ref.transactions, bank_ref.worst_degree)
    obs = graph.replay(_copies(problem), sanitize="report", profile=True)
    obs_ref = sim.run(fam.kernel, _copies(problem), symbols=fam.symbols,
                      options=RunOptions(engine="vectorized",
                                         sanitize="report", profile=True))
    counters_ok = (_profile_signature(obs.profile)
                   == _profile_signature(obs_ref.profile))
    sanitizer_ok = verdict(obs.sanitizer) == verdict(obs_ref.sanitizer)
    return {
        "family": fam.name,
        "kernel": fam.kernel.name,
        "traced": graph.trace is not None,
        "outputs_bit_identical": outputs_ok,
        "bank_counters_identical": bank_ok,
        "profiler_counters_identical": counters_ok,
        "sanitizer_verdicts_identical": sanitizer_ok,
        "bit_identical": (outputs_ok and bank_ok and counters_ok
                          and sanitizer_ok),
    }


def time_family(fam, seed: int = 0, repeats: int = 5) -> dict:
    """Cold capture-and-run vs best-of-``repeats`` warm replay."""
    rng = np.random.default_rng(seed)
    problem = fam.make_bindings(rng)
    start = time.perf_counter()
    graph = CapturedGraph.capture(fam.kernel, fam.arch, fam.symbols,
                                  _copies(problem))
    graph.replay(problem)
    cold_s = time.perf_counter() - start
    warm_s = []
    for _ in range(repeats):
        start = time.perf_counter()
        graph.replay(problem)
        warm_s.append(time.perf_counter() - start)
    best_warm = min(warm_s)
    return {
        "family": fam.name,
        "kernel": fam.kernel.name,
        "grid_size": graph.grid_size,
        "graph_nbytes": graph.nbytes,
        "capture_s": graph.capture_seconds,
        "cold_capture_and_run_s": cold_s,
        "warm_replay_s": best_warm,
        "warm_speedup": cold_s / best_warm,
    }


def run_serve_workload(families, n_requests: int = 120, seed: int = 0,
                       max_workers: int = 4, exponent: float = 1.1) -> dict:
    """Drain a Zipf request mix through a server; return its metrics."""
    schedule = zipf_schedule(families, n_requests, seed=seed,
                             exponent=exponent)
    # Spot-check correctness of one served answer per family against a
    # direct simulator launch.
    spot = {}
    for fam, bindings in schedule:
        if fam.name not in spot:
            spot[fam.name] = (fam, bindings)
    start = time.perf_counter()
    with KernelServer(families, max_workers=max_workers) as server:
        futures = [server.submit(fam.name, bindings)
                   for fam, bindings in schedule]
        results = [f.result(timeout=600) for f in futures]
        elapsed = time.perf_counter() - start
        metrics = server.metrics.snapshot(server.graph_cache)
    spot_ok = True
    for fam, bindings in spot.values():
        ref = Simulator(fam.arch).run(
            fam.kernel, _copies(bindings), symbols=fam.symbols,
            options=RunOptions(engine="vectorized"))
        served = next(r for r in results if r.family == fam.name)
        for out in served.outputs:
            if not np.array_equal(served.outputs[out].reshape(-1),
                                  ref.machine.global_array(out)):
                spot_ok = False
    per_family = {}
    for result in results:
        row = per_family.setdefault(
            result.family, {"requests": 0, "graph_hits": 0})
        row["requests"] += 1
        row["graph_hits"] += int(result.graph_hit)
    return {
        "n_requests": n_requests,
        "zipf_exponent": exponent,
        "max_workers": max_workers,
        "elapsed_s": elapsed,
        "requests_per_second": len(results) / elapsed,
        "served_outputs_match_simulator": spot_ok,
        "per_family": per_family,
        "metrics": metrics,
    }


def run_serve_bench(
    n_requests: int = 120,
    seed: int = 0,
    outdir: str = "bench_artifacts",
    max_workers: int = 4,
    families: Optional[List[str]] = None,
) -> str:
    """Run all three phases and write ``BENCH_serve.json``."""
    catalog = serve_catalog(seed=seed)
    if families:
        unknown = set(families) - {f.name for f in catalog}
        if unknown:
            raise KeyError(
                f"unknown serve families {sorted(unknown)}; available: "
                f"{[f.name for f in catalog]}"
            )
        catalog = [f for f in catalog if f.name in families]
    fidelity = [check_family_fidelity(fam, seed=seed) for fam in catalog]
    timing = [time_family(fam, seed=seed) for fam in catalog]
    workload = run_serve_workload(catalog, n_requests=n_requests,
                                  seed=seed, max_workers=max_workers)
    speedups = [row["warm_speedup"] for row in timing]
    summary = {
        "families": len(catalog),
        "all_bit_identical": all(row["bit_identical"] for row in fidelity),
        "min_warm_speedup": min(speedups),
        "geomean_warm_speedup": float(np.exp(np.mean(np.log(speedups)))),
        "warm_speedup_floor": WARM_SPEEDUP_FLOOR,
        "requests_per_second": workload["requests_per_second"],
        "p50_latency_ms": workload["metrics"]["latency"]["p50_ms"],
        "p99_latency_ms": workload["metrics"]["latency"]["p99_ms"],
        "requests_failed": workload["metrics"]["requests_failed"],
    }
    passed = (
        summary["all_bit_identical"]
        and summary["min_warm_speedup"] >= WARM_SPEEDUP_FLOOR
        and summary["requests_failed"] == 0
        and workload["served_outputs_match_simulator"]
    )
    artifact = {
        "benchmark": "serve",
        "seed": seed,
        "fidelity": fidelity,
        "cold_vs_warm": timing,
        "workload": workload,
        "summary": summary,
        "passed": passed,
    }
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, "BENCH_serve.json")
    with open(path, "w") as fh:
        json.dump(artifact, fh, indent=2, sort_keys=True)
    if not passed:
        raise RuntimeError(
            f"serve bench failed acceptance (see {path}): {summary}"
        )
    return path


__all__ = [
    "WARM_SPEEDUP_FLOOR", "check_family_fidelity", "time_family",
    "run_serve_workload", "run_serve_bench",
]
