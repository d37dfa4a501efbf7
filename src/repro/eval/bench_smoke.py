"""Profiled smoke runs of every ``benchmarks/bench_fig*`` family.

Each figure's benchmark exercises a kernel family at paper scale
through the analytical model only; this module actually *executes* one
representative kernel per family at a simulation-friendly shape with
the :mod:`repro.sim.profiler` attached, then writes a
``BENCH_fig09.json``-style artifact per family containing the modelled
estimate next to the measured counters.  It is the CI gate that keeps
the shipped kernels runnable and the profiler/model agreement visible::

    python -m repro.eval bench-smoke            # all families
    python -m repro.eval bench-smoke fig09      # one family

The check compares measured global traffic against
:func:`repro.perfmodel.counts.count_kernel` at the calibration
tolerances, so a family whose staging changes without a matching model
update fails its smoke run rather than silently drifting.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..arch import architecture
from ..perfmodel import count_kernel, estimate_kernel
from ..perfmodel.calibrate import (
    DEFAULT_TOLERANCE, FMHA_SMEM_TOLERANCE, _bindings, drift_rows,
)
from .report import write_artifact

#: One representative, simulation-friendly config per figure family.
#: (config, smem_tolerance) — FMHA's shared traffic is modelled
#: conservatively, see :mod:`repro.perfmodel.calibrate`.
def smoke_families() -> Dict[str, Tuple["KernelConfig", float]]:
    from ..kernels import (
        FmhaConfig, GemmConfig, GemmEpilogueConfig, LayernormConfig,
        LstmConfig, MlpConfig,
    )

    return {
        "fig09": (GemmConfig(32, 32, 64, (32, 32, 32), (1, 1),
                             name="smoke_fig09_gemm"), DEFAULT_TOLERANCE),
        "fig10": (GemmEpilogueConfig(32, 32, 32, arch="ampere", bias=True,
                                     activation="relu",
                                     block_tile=(32, 32, 32),
                                     warp_grid=(1, 1),
                                     name="smoke_fig10_epilogue"),
                  DEFAULT_TOLERANCE),
        "fig11": (MlpConfig(64, 64, 2, block_rows=32, warp_grid=(1, 1),
                            name="smoke_fig11_mlp"), DEFAULT_TOLERANCE),
        "fig12": (LstmConfig(32, 32, 32, (32, 32, 32), (1, 1),
                             name="smoke_fig12_lstm"), DEFAULT_TOLERANCE),
        "fig13": (LayernormConfig(8, 64, 4, name="smoke_fig13_layernorm"),
                  DEFAULT_TOLERANCE),
        "fig14": (FmhaConfig(2, 64, 32, kv_chunk=32,
                             name="smoke_fig14_fmha"),
                  FMHA_SMEM_TOLERANCE),
    }


def run_family(figure: str, arch="ampere", seed: int = 0) -> dict:
    """Profile one family's smoke kernel and build its artifact dict."""
    from ..kernels import config_summary
    from ..sim import Simulator

    if isinstance(arch, str):
        arch = architecture(arch)
    cfg, smem_tol = smoke_families()[figure]
    kernel, bindings = _smoke_problem(figure, seed)
    result = Simulator(arch).run(kernel, bindings, profile=True)
    profile = result.profile
    counts = count_kernel(kernel, arch)
    estimate = estimate_kernel(kernel, arch)
    checks = drift_rows(kernel.name, counts, profile, smem_tol)
    return {
        "figure": figure,
        "kernel": kernel.name,
        "config": config_summary(cfg),
        "arch": arch.name,
        "modelled": {
            "time_us": estimate.time_seconds * 1e6,
            "dram_read_bytes": counts.dram_read_bytes,
            "dram_write_bytes": counts.dram_write_bytes,
            "smem_bytes": counts.smem_bytes,
            "total_flops": counts.total_flops,
        },
        "measured": profile.as_dict(),
        "checks": [row.as_dict() for row in checks],
        "passed": all(row.passed for row in checks),
    }


def _smoke_problem(figure: str, seed: int):
    """Build one family's smoke kernel and its launch bindings."""
    from ..kernels import build

    cfg, _ = smoke_families()[figure]
    kernel = build(cfg)
    return kernel, _bindings(kernel, seed)


def _best_time(build, layouts, repeats: int) -> float:
    """Best-of-``repeats`` seconds to build every layout's offset table."""
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        for layout in layouts:
            build(layout)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def time_plan_compile(figure: str, arch="ampere", seed: int = 0,
                      repeats: int = 3) -> dict:
    """Cold offset-table compile time for one family, linear vs walk.

    One run compiles the family's launch plan; the measurement then
    rebuilds the offset tables of every view in the plan's view table
    from scratch with the two uncached builders: ``"auto"``
    (:func:`~repro.sim.access.relative_offsets` unmemoized) takes the
    F2 bit-matrix path on power-of-two views of
    :data:`~repro.sim.access.LINEAR_MIN_SIZE` elements or more,
    ``"expression"`` (:func:`~repro.sim.access.walk_offsets`) walks
    coordinates through the layout algebra on every view.  The rest of
    plan compilation (base-offset closures, runner selection, fragment
    index maps) is the same either way, so this isolates exactly what
    the F2 engine changes.  Best-of-``repeats``.
    """
    from ..sim import Simulator
    from ..sim.access import linear_form, relative_offsets, walk_offsets

    if isinstance(arch, str):
        arch = architecture(arch)
    kernel, bindings = _smoke_problem(figure, seed)
    sim = Simulator(arch)
    sim.run(kernel, bindings)
    plan = sim.plan_cache.lookup(kernel, arch, {}, bindings)
    layouts = [tensor.layout for tensor, _ in plan.views.values()]

    auto_s = _best_time(relative_offsets.__wrapped__, layouts, repeats)
    expression_s = _best_time(walk_offsets, layouts, repeats)
    return {
        "figure": figure,
        "kernel": kernel.name,
        "arch": arch.name,
        "index_compile_auto_s": auto_s,
        "index_compile_expression_s": expression_s,
        "speedup": expression_s / auto_s,
        "linear_accessors": sum(
            linear_form(layout) is not None for layout in layouts),
        "total_accessors": len(layouts),
    }


def _large_view_probes(repeats: int) -> List[dict]:
    """Compile whole staging-buffer-sized views both ways.

    The families' launch plans slice tensors into small per-thread
    fragments, where the two index paths cost about the same; the F2
    path's compile-time win appears on whole-tile views — the regime
    block-level planning and the fuzzers' conformance sweeps hit.
    """
    from ..layout import Layout
    from ..sim.access import relative_offsets, walk_offsets

    probes = []
    for rows, cols in ((32, 32), (64, 64), (128, 128)):
        layouts = [Layout((rows, cols), (cols, 1))]
        auto_s = _best_time(relative_offsets.__wrapped__, layouts, repeats)
        expression_s = _best_time(walk_offsets, layouts, repeats)
        probes.append({
            "shape": [rows, cols],
            "index_compile_auto_s": auto_s,
            "index_compile_expression_s": expression_s,
            "speedup": expression_s / auto_s,
        })
    return probes


def run_plan_compile_bench(
    figures: Optional[List[str]] = None,
    arch: str = "ampere",
    outdir: str = "bench_artifacts",
    seed: int = 0,
    repeats: int = 3,
) -> str:
    """Cold-compile every smoke family both ways; write
    ``BENCH_plan_compile.json``.

    The artifact records, per family, the time to build the offset
    tables of the family's full view population with the F2 linear path
    enabled (``auto``) and disabled (``expression``), plus how many of
    the views the linear path actually builds.  Returns the artifact
    path.
    """
    names = figures or sorted(smoke_families())
    rows = [time_plan_compile(name, arch=arch, seed=seed, repeats=repeats)
            for name in names]
    speedups = [r["speedup"] for r in rows]
    artifact = {
        "benchmark": "plan_compile",
        "modes": ["auto", "expression"],
        "repeats": repeats,
        "figures": rows,
        "probes": _large_view_probes(repeats),
        "summary": {
            "min_speedup": min(speedups),
            "geomean_speedup": float(np.exp(np.mean(np.log(speedups)))),
            "linear_accessors": sum(r["linear_accessors"] for r in rows),
            "total_accessors": sum(r["total_accessors"] for r in rows),
        },
    }
    return write_artifact(outdir, "BENCH_plan_compile.json", artifact,
                          repeats=repeats)


def run_fig15_bench(arch: str = "ampere",
                    outdir: str = "bench_artifacts") -> str:
    """Evaluate figure 15 (end-to-end network speedups); write its artifact.

    Figure 15 is the paper's whole-network result and has no per-kernel
    smoke family of its own, so the artifact serializes the
    :class:`~repro.eval.report.FigureReport` directly: the network rows
    plus a ``passed`` flag mirroring the report's paper-bound checks.
    """
    from .figures import figure_15

    report = figure_15(arch_name=arch)
    speedups = report.column("speedup_pct")
    fractions = report.column("fmha_fraction_pct")
    paper_max = max(report.column("paper_max_pct"))
    # The paper claims up to 59% end-to-end, with speedup tracking each
    # network's attention-time fraction.  Pass if every network gains,
    # none exceeds the paper bound by more than the usual 15% modelling
    # tolerance, and the speedup/fraction ranking agrees.
    by_fraction = sorted(range(len(speedups)), key=fractions.__getitem__)
    ranking_ok = all(
        speedups[a] <= speedups[b] * 1.05
        for a, b in zip(by_fraction, by_fraction[1:])
    )
    artifact = {
        "benchmark": "fig15",
        "figure": report.figure,
        "title": report.title,
        "arch": arch,
        "columns": report.columns,
        "rows": report.rows,
        "notes": report.notes,
        "summary": {
            "networks": len(report.rows),
            "max_speedup_pct": max(speedups),
            "paper_max_pct": paper_max,
            "speedup_tracks_fmha_fraction": ranking_ok,
        },
        "passed": (
            ranking_ok
            and all(0.0 < s <= paper_max * 1.15 for s in speedups)
        ),
    }
    return write_artifact(outdir, "BENCH_fig15.json", artifact)


def run_bench_smoke(
    figures: Optional[List[str]] = None,
    arch: str = "ampere",
    outdir: str = "bench_artifacts",
    seed: int = 0,
    plan_compile: bool = True,
) -> List[str]:
    """Run the smoke benchmarks and write one artifact file per family.

    Also times cold plan compilation with the F2 linear index path on
    and off into ``BENCH_plan_compile.json`` (``plan_compile=False``
    skips it), and evaluates the end-to-end figure-15 report into
    ``BENCH_fig15.json`` when no family filter is given.  Returns the
    artifact paths; raises ``RuntimeError`` if any family's
    measured-vs-modelled check failed (after writing all artifacts, so
    the failing numbers are on disk for inspection).
    """
    families = smoke_families()
    names = figures or sorted(families)
    unknown = [n for n in names if n not in families]
    if unknown:
        raise KeyError(
            f"unknown bench-smoke families {unknown}; "
            f"available: {sorted(families)}"
        )
    paths, failures = [], []
    for name in names:
        artifact = run_family(name, arch=arch, seed=seed)
        paths.append(write_artifact(outdir, f"BENCH_{name}.json", artifact))
        if not artifact["passed"]:
            failures.append(name)
    if plan_compile:
        paths.append(run_plan_compile_bench(figures=names, arch=arch,
                                            outdir=outdir, seed=seed))
    target = architecture(arch) if isinstance(arch, str) else arch
    if target.supports("wgmma"):
        # Hopper-capable target: also run the TMA+wgmma calibration and
        # lowering-comparison bench (writes BENCH_hopper.json).
        from .hopper_bench import run_hopper_bench

        paths.append(run_hopper_bench(arch=arch, outdir=outdir, seed=seed))
    if figures is None:
        paths.append(run_fig15_bench(arch=arch, outdir=outdir))
    if failures:
        raise RuntimeError(
            f"bench-smoke drift in {failures}; see artifacts in {outdir}/"
        )
    return paths


__all__ = [
    "smoke_families", "run_family", "run_bench_smoke",
    "run_fig15_bench",
    "time_plan_compile", "run_plan_compile_bench",
]
