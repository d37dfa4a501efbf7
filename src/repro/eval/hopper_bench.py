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
from ..perfmodel import count_kernel, estimate_kernel
from ..perfmodel.calibrate import DEFAULT_TOLERANCE, CalibrationRow
from .report import write_artifact

#: Calibration shapes per family: (m, n, k, block_k).
CALIBRATION_SHAPES = {
    "gemm_fp8": ((64, 64, 64, 32), (128, 128, 128, 64)),
    "gemm_sparse24": ((64, 64, 64, 32), (128, 128, 64, 32)),
}

#: The modelled-vs-measured comparison scale (both lowerings legal).
BENCH_SHAPE = (4096, 4096, 2048)


def _hopper_problem(family: str, m: int, n: int, k: int, block_k: int,
                    seed: int):
    """Build one Hopper family's kernel and valid launch bindings."""
    from ..kernels.hopper import (
        build_hopper_fp8_gemm, build_hopper_sparse24_gemm, random_sparse24,
    )
    from ..tensor.dtypes import FP8E4M3

    rng = np.random.default_rng(seed)
    if family == "gemm_fp8":
        kernel = build_hopper_fp8_gemm(m, n, k, block_k=block_k)
        a = FP8E4M3.quantize(
            (rng.random((m, k), dtype=np.float64) - 0.5).astype(np.float32))
        b = FP8E4M3.quantize(
            (rng.random((k, n), dtype=np.float64) - 0.5).astype(np.float32))
        bindings = {"A": a, "B": b, "C": np.zeros((m, n), np.float16)}
        dense = a
    elif family == "gemm_sparse24":
        kernel = build_hopper_sparse24_gemm(m, n, k, block_k=block_k)
        comp, meta, dense = random_sparse24(rng, m, k)
        b = (rng.random((k, n)) - 0.5).astype(np.float16)
        bindings = {"A_comp": comp, "A_meta": meta, "B": b,
                    "C": np.zeros((m, n), np.float16)}
    else:
        raise KeyError(f"unknown hopper bench family {family!r}")
    reference = (dense.astype(np.float64) @ b.astype(np.float64)
                 ).astype(np.float16)
    return kernel, bindings, reference


def calibrate_family(family: str, arch, seed: int = 0) -> List[dict]:
    """Profile one family across its calibration shapes.

    Each row compares a measured profiler counter against the static
    model; global loads fold the TMA bulk counters in, since bulk
    tensor traffic is DRAM traffic the model charges to reads.
    """
    from ..sim import Simulator

    runs = []
    for m, n, k, block_k in CALIBRATION_SHAPES[family]:
        kernel, bindings, reference = _hopper_problem(
            family, m, n, k, block_k, seed)
        result = Simulator(arch).run(kernel, bindings, profile=True)
        np.testing.assert_allclose(
            result.machine.global_array("C").reshape(m, n),
            reference, atol=0.05,
        )
        profile = result.profile
        counts = count_kernel(kernel, arch)
        issues = profile.issue_counts
        checks = [
            CalibrationRow(kernel.name, "global_load_bytes",
                           counts.dram_read_bytes,
                           profile.global_load_bytes
                           + profile.bulk_load_bytes,
                           DEFAULT_TOLERANCE),
            # bulk_store_bytes is the *shared-memory* side of the
            # g2s TMA copies — dedicated accounting, not DRAM stores.
            CalibrationRow(kernel.name, "global_store_bytes",
                           counts.dram_write_bytes,
                           profile.global_store_bytes,
                           DEFAULT_TOLERANCE),
            CalibrationRow(kernel.name, "shared_bytes",
                           counts.smem_bytes, profile.shared_bytes,
                           DEFAULT_TOLERANCE),
        ]
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
    from ..kernels.gemm_optimized import build_ampere_tc_gemm
    from ..kernels.hopper import (
        build_hopper_fp8_gemm, build_hopper_sparse24_gemm,
    )

    m, n, k = shape
    rows: Dict[str, dict] = {}
    contenders = {
        # The hand-written Ampere-lowering config the repo's GEMM
        # defaults to, and the same lowering at the warpgroup's own
        # 64x64 block tile (the sparse kernel's granularity).
        "ampere_cp_async_fp16": build_ampere_tc_gemm(
            m, n, k, block_tile=(128, 128, 32), warp_grid=(2, 2)),
        "ampere_cp_async_fp16_tile64": build_ampere_tc_gemm(
            m, n, k, block_tile=(64, 64, 32), warp_grid=(2, 2),
            name="graphene_gemm_sm86_tile64"),
        "hopper_tma_wgmma_fp8": build_hopper_fp8_gemm(m, n, k, block_k=64),
        "hopper_tma_wgmma_sparse24": build_hopper_sparse24_gemm(
            m, n, k, block_k=32),
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
