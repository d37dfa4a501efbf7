"""Serving benchmark: capture/replay fidelity and cold-vs-warm.

Two phases over every shipped kernel family, written as one
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

Served throughput and queueing are measured open-loop, with every
response checked bitwise, by the repo benchmark's ``serve`` workload
(``perfbench/``), not here.

Run with ``python -m repro.eval serve-bench``.
"""

from __future__ import annotations

import time
from typing import List, Optional

import numpy as np

from ..serve import CapturedGraph, serve_catalog
from ..sim import RunOptions, Simulator
from ..sim.sanitizer import verdict
from .report import write_artifact

#: Acceptance threshold: a warm replay must amortize the cold capture
#: this many times over in every family.
WARM_SPEEDUP_FLOOR = 5.0

#: Warm replays timed per family; the best one is reported.
TIMING_REPEATS = 5


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


def time_family(fam, seed: int = 0, repeats: int = TIMING_REPEATS) -> dict:
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


def run_serve_bench(
    seed: int = 0,
    outdir: str = "bench_artifacts",
    families: Optional[List[str]] = None,
) -> str:
    """Run both phases and write ``BENCH_serve.json``."""
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
    speedups = [row["warm_speedup"] for row in timing]
    summary = {
        "families": len(catalog),
        "all_bit_identical": all(row["bit_identical"] for row in fidelity),
        "min_warm_speedup": min(speedups),
        "geomean_warm_speedup": float(np.exp(np.mean(np.log(speedups)))),
        "warm_speedup_floor": WARM_SPEEDUP_FLOOR,
    }
    passed = (summary["all_bit_identical"]
              and summary["min_warm_speedup"] >= WARM_SPEEDUP_FLOOR)
    artifact = {
        "benchmark": "serve",
        "seed": seed,
        "fidelity": fidelity,
        "cold_vs_warm": timing,
        "summary": summary,
        "passed": passed,
    }
    path = write_artifact(outdir, "BENCH_serve.json", artifact,
                          repeats=TIMING_REPEATS)
    if not passed:
        raise RuntimeError(
            f"serve bench failed acceptance (see {path}): {summary}"
        )
    return path


__all__ = [
    "WARM_SPEEDUP_FLOOR", "check_family_fidelity", "time_family",
    "run_serve_bench",
]
