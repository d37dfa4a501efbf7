"""Hopper-generation smoke benchmark: TMA + wgmma vs the Ampere lowering.

Two claims, both checked by execution plus the cost model:

1. **Calibration** — the profiled simulator counters of the fp8
   warpgroup GEMM and the 2:4 structured-sparse GEMM agree with
   :func:`repro.perfmodel.count_kernel` on multiple shapes (TMA bulk
   traffic accounted in its dedicated counters), and every run actually
   issues wgmma and TMA instructions.
2. **Lowering comparison** — at bench scale, the Hopper-native
   lowering (TMA staging + warpgroup mma, fp8 operands or 2:4-sparse
   operands) beats the Ampere-style cp.async + ldmatrix + mma.16816
   lowering of the same problem under the roofline model on the Hopper
   parameters.

``python -m repro.eval bench-smoke --arch hopper`` writes the combined
artifact to ``BENCH_hopper.json``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..arch import architecture
from ..library.problems import problem
from ..perfmodel import count_kernel, estimate_kernel
from ..perfmodel.calibrate import drift_rows
from .report import write_artifact

#: Calibration shapes per family: (m, n, k, block_k).
CALIBRATION_SHAPES = {
    "gemm_fp8": ((64, 64, 64, 32), (128, 128, 128, 64)),
    "gemm_sparse24": ((64, 64, 64, 32), (128, 128, 64, 32)),
}

#: The modelled-vs-measured comparison scale (both lowerings legal).
BENCH_SHAPE = (4096, 4096, 2048)


def calibrate_family(family: str, arch, seed: int = 0) -> List[dict]:
    """Profile one family across its calibration shapes.

    Each run draws the family's problem from the problem table, checks
    the output against its reference, and compares the measured
    profiler counters against the static model
    (:func:`repro.perfmodel.calibrate.drift_rows`).
    """
    from ..kernels import build
    from ..kernels.config import HopperFp8GemmConfig, Sparse24GemmConfig
    from ..sim import Simulator

    config = {"gemm_fp8": HopperFp8GemmConfig,
              "gemm_sparse24": Sparse24GemmConfig}[family]
    runs = []
    for m, n, k, block_k in CALIBRATION_SHAPES[family]:
        kernel = build(config(m=m, n=n, k=k, block_k=block_k))
        bindings, references = problem(
            family, np.random.default_rng(seed), m=m, n=n, k=k)
        profile = Simulator(arch).run(kernel, bindings, profile=True).profile
        for out, reference, tol in references:
            np.testing.assert_allclose(bindings[out], reference, atol=tol)
        issues = profile.issue_counts
        checks = drift_rows(kernel.name, count_kernel(kernel, arch), profile)
        runs.append({
            "family": family,
            "kernel": kernel.name,
            "shape": {"m": m, "n": n, "k": k, "block_k": block_k},
            "issues": {"wgmma": issues.get("wgmma", 0),
                       "tma": issues.get("tma", 0)},
            "checks": [row.as_dict() for row in checks],
            "passed": (
                all(row.passed for row in checks)
                and issues.get("wgmma", 0) > 0
                and issues.get("tma", 0) > 0
            ),
        })
    return runs


def lowering_comparison(arch, shape: Tuple[int, int, int] = BENCH_SHAPE
                        ) -> dict:
    """Cost the Hopper-native lowerings against the Ampere-style one.

    All three kernels are estimated on the *same* (Hopper) roofline
    parameters, so the comparison isolates what the lowering changes:
    fp8 operands halve the DRAM traffic and double the modelled
    per-instruction math; TMA keeps staging off the shared-memory bank
    path; 2:4 sparsity halves both the A traffic and the wgmma count.
    """
    from ..kernels import build
    from ..kernels.config import (
        GemmConfig, HopperFp8GemmConfig, Sparse24GemmConfig,
    )

    m, n, k = shape
    rows: Dict[str, dict] = {}
    contenders = {
        # The hand-written Ampere-lowering config the repo's GEMM
        # defaults to, and the same lowering at the warpgroup's own
        # 64x64 block tile (the sparse kernel's granularity).
        "ampere_cp_async_fp16": build(GemmConfig(
            m, n, k, block_tile=(128, 128, 32), warp_grid=(2, 2))),
        "ampere_cp_async_fp16_tile64": build(GemmConfig(
            m, n, k, block_tile=(64, 64, 32), warp_grid=(2, 2),
            name="graphene_gemm_sm86_tile64")),
        "hopper_tma_wgmma_fp8": build(HopperFp8GemmConfig(
            m, n, k, block_k=64)),
        "hopper_tma_wgmma_sparse24": build(Sparse24GemmConfig(
            m, n, k, block_k=32)),
    }
    for label, kernel in contenders.items():
        cost = estimate_kernel(kernel, arch)
        rows[label] = {
            "kernel": cost.name,
            "time_us": cost.time_seconds * 1e6,
            "tflops": cost.tflops(),
            "dram_bytes": cost.dram_bytes,
            "smem_bytes": cost.smem_bytes,
            "compute_fraction": cost.compute_fraction,
            "memory_fraction": cost.memory_fraction,
        }
    baseline = rows["ampere_cp_async_fp16"]["time_us"]
    for label, row in rows.items():
        row["speedup_vs_ampere_lowering"] = baseline / row["time_us"]
    # Each Hopper lowering must beat the Ampere-style lowering at its
    # own decomposition granularity: fp8 against the hand-written
    # 128-tile default, 2:4-sparse against the matched 64-tile config.
    beats = (
        rows["hopper_tma_wgmma_fp8"]["time_us"]
        < rows["ampere_cp_async_fp16"]["time_us"]
        and rows["hopper_tma_wgmma_sparse24"]["time_us"]
        < rows["ampere_cp_async_fp16_tile64"]["time_us"]
    )
    return {
        "shape": {"m": m, "n": n, "k": k},
        "arch": arch.name,
        "lowerings": rows,
        "hopper_beats_ampere_lowering": beats,
    }


def run_hopper_bench(arch: str = "hopper", outdir: str = "bench_artifacts",
                     seed: int = 0) -> str:
    """Run the Hopper calibration + lowering bench; write BENCH_hopper.json."""
    target = architecture(arch) if isinstance(arch, str) else arch
    if not target.supports("wgmma"):
        raise ValueError(
            f"{target.name} lacks the wgmma capability; the Hopper bench "
            "needs a warpgroup-mma architecture"
        )
    calibrations = [
        run
        for family in sorted(CALIBRATION_SHAPES)
        for run in calibrate_family(family, target, seed=seed)
    ]
    comparison = lowering_comparison(target)
    artifact = {
        "benchmark": "hopper",
        "arch": target.name,
        "calibration": calibrations,
        "lowering_comparison": comparison,
        "passed": (
            all(run["passed"] for run in calibrations)
            and comparison["hopper_beats_ampere_lowering"]
        ),
    }
    path = write_artifact(outdir, "BENCH_hopper.json", artifact)
    if not artifact["passed"]:
        raise RuntimeError(
            f"hopper bench failed its checks; see {path}"
        )
    return path


__all__ = ["run_hopper_bench", "calibrate_family", "lowering_comparison",
           "CALIBRATION_SHAPES", "BENCH_SHAPE"]
