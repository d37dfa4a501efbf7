"""The executed whole-network benchmark (``BENCH_networks.json``).

Replaces the modelled Figure 15 attribution with *executed* numbers:
every network is compiled through :mod:`repro.graph` (partitioned,
lowered, optionally autotuned) and run end to end on the simulator,
with every fusion group verified bit-exactly against its numpy
reference.  Two lowerings are compared per network:

* **tuned** — ``mode="auto"`` fusion choices with autotuned GEMM tiles
  (the Graphene pipeline);
* **library** — ``mode="unfused"``, untuned: the library-style pipeline
  of primitive kernels (standalone GEMMs + separate epilogues,
  per-head transpose/matmul/softmax attention).

Per-launch seconds come from measured profiler counters fed through the
roofline (``attribution: "executed"``); the old cost-table network time
is included per network as context (``attribution: "modelled"``).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..graph import DECODE_SCENARIO, REDUCED_NETWORKS, network
from ..tuner import resolve_arch
from .report import write_artifact

SCHEMA = "repro.graph-bench/v1"

#: Bench order: the Figure 15 encoders, then the serving decode step.
BENCH_NETWORKS = list(REDUCED_NETWORKS) + [DECODE_SCENARIO.name]


def _run_mode(name: str, arch, *, mode: str, tune: bool, seed: int) -> Dict:
    net = network(name)
    lowered = net.lower(arch, mode=mode, tune=tune, seed=seed)
    run = net.run(seed=seed)
    return {
        "mode": mode,
        "tuned_gemms": dict(lowered.tuned),
        "attribution": run.attribution,
        "seconds_us": run.seconds * 1e6,
        "modelled_us": lowered.modelled_seconds() * 1e6,
        "passed": run.passed,
        "launches": len(lowered.launches),
        "role_seconds_us": {
            role: sec * 1e6 for role, sec in run.role_seconds.items()
        },
        "groups": [
            {
                "name": g.name,
                "kind": g.kind,
                "mode": g.mode,
                "launches": g.launches,
                "measured_us": g.measured_seconds * 1e6,
                "modelled_us": g.modelled_seconds * 1e6,
                "passed": g.passed,
            }
            for g in run.groups
        ],
    }


def _modelled_context(name: str, arch) -> Optional[Dict]:
    """The legacy cost-table network time at the same reduced shape."""
    if name == DECODE_SCENARIO.name:
        return None
    from .networks import InferenceModel

    cfg = REDUCED_NETWORKS[name]
    model = InferenceModel(arch)
    return {
        "attribution": model.attribution,
        "library_us": model.network_time(cfg) * 1e6,
    }


def run_graph_bench(
    networks: Optional[List[str]] = None,
    arch: str = "ampere",
    *,
    seed: int = 0,
    tune: bool = True,
    outdir: str = "bench_artifacts",
) -> str:
    """Execute the network bench and write ``BENCH_networks.json``."""
    architecture = resolve_arch(arch)
    names = list(networks) if networks else list(BENCH_NETWORKS)
    unknown = sorted(set(names) - set(BENCH_NETWORKS))
    if unknown:
        raise KeyError(
            f"unknown networks {unknown}; available: {BENCH_NETWORKS}"
        )

    rows = []
    for name in names:
        tuned = _run_mode(name, architecture, mode="auto", tune=tune,
                          seed=seed)
        library = _run_mode(name, architecture, mode="unfused", tune=False,
                            seed=seed)
        row = {
            "network": name,
            "scenario": ("decode" if name == DECODE_SCENARIO.name
                         else "encoder"),
            "tuned": tuned,
            "library": library,
            "speedup": library["seconds_us"] / tuned["seconds_us"],
            "passed": tuned["passed"] and library["passed"],
        }
        context = _modelled_context(name, architecture)
        if context is not None:
            row["modelled_context"] = context
        rows.append(row)

    payload = {
        "schema": SCHEMA,
        "arch": architecture.name,
        "seed": seed,
        "tune": tune,
        "networks": rows,
        "passed": all(r["passed"] for r in rows),
    }
    return write_artifact(outdir, "BENCH_networks.json", payload)
