"""The fleet-tuner benchmark (``BENCH_tuner.json``).

Tunes every registered kernel family over a multi-shape roster three
ways and writes one artifact comparing them:

* **serial** — the pre-fleet behaviour: cold exhaustive search plus a
  top-3 correctness gate, one candidate at a time, per shape;
* **parallel** — the same sweep with candidate evaluation and the gate
  sharded across the process fleet (:mod:`repro.tuner.fleet`); its
  leaderboards and gate verdicts must be **bit-identical** to serial
  (recorded in the artifact, pinned by tier-1 tests);
* **parallel+transfer** — the fleet plus cross-shape transfer: each
  family's first (anchor) shape runs a cold beam search; every later
  shape seeds from the nearest cached winners
  (:meth:`repro.tuner.TuningCache.nearest_entries`) and expands only
  the transferred coarse groups, with a single-candidate gate backed by
  the cold-search fallback.

The artifact also reports per-family transfer hit rates and the
calibrated cost model's agreement with the default roofline
(:func:`repro.perfmodel.fit_coefficients` /
:class:`repro.perfmodel.FittedOracle`).  The headline number is the
wall-clock reduction of parallel+transfer over serial; the target is
``TARGET_SPEEDUP`` (>= 5x); the artifact also splits it into the
worker pool's effect (serial vs parallel) and the transfer effect
(parallel vs parallel+transfer), and records the serial sweep's gate
verdicts per shape.  ``python -m repro.eval tuner-bench`` runs it and
exits 1 when the target is missed.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional, Tuple

from ..perfmodel import FittedOracle, fit_coefficients, rank_agreement
from ..tuner import TuningCache, resolve_arch, tune
from ..tuner.fleet import default_workers
from ..tuner.search import exhaustive_search
from .report import write_artifact

#: The acceptance bar for parallel+transfer over serial.
TARGET_SPEEDUP = 5.0


def tune_all_roster(quick: bool = False) -> List[Tuple[str, List[Dict]]]:
    """Family -> ordered shape list (anchor first, neighbours after).

    Shapes are simulation-friendly (the gate executes at each winner's
    verification shape, not these) but large enough that every family
    enumerates a meaningful space.  ``quick`` keeps one neighbour per
    family for the slow-test smoke run.
    """
    roster = [
        ("gemm", [
            {"m": 512, "n": 512, "k": 128},
            {"m": 1024, "n": 512, "k": 128},
            {"m": 1024, "n": 1024, "k": 256},
            {"m": 2048, "n": 1024, "k": 128},
            {"m": 2048, "n": 2048, "k": 256},
        ]),
        ("gemm_epilogue", [
            {"m": 256, "n": 256, "k": 128},
            {"m": 512, "n": 256, "k": 128},
            {"m": 512, "n": 512, "k": 256},
        ]),
        ("mlp", [
            {"m": 256, "hidden": 64, "layers": 4},
            {"m": 512, "hidden": 64, "layers": 4},
            {"m": 1024, "hidden": 64, "layers": 4},
        ]),
        ("lstm", [
            {"m": 256, "n": 256, "k": 128},
            {"m": 512, "n": 256, "k": 128},
            {"m": 512, "n": 512, "k": 128},
        ]),
        ("layernorm", [
            {"rows": 256, "hidden": 256},
            {"rows": 512, "hidden": 256},
            {"rows": 1024, "hidden": 512},
        ]),
        ("softmax", [
            {"rows": 512, "cols": 64},
            {"rows": 1024, "cols": 64},
        ]),
        ("gemm_naive", [
            {"m": 128, "n": 128, "k": 64},
            {"m": 256, "n": 128, "k": 64},
        ]),
        ("gemm_parametric", [
            {"m": 192, "n": 128, "k": 64},
            {"m": 384, "n": 128, "k": 64},
        ]),
        ("fmha", [
            {"batch_heads": 4, "seq": 128, "head_dim": 64},
            {"batch_heads": 8, "seq": 128, "head_dim": 64},
        ]),
        ("moves", [{}]),
        ("gemm_fp8", [
            {"m": 256, "n": 256, "k": 128},
            {"m": 512, "n": 256, "k": 128},
        ]),
        ("gemm_sparse24", [
            {"m": 256, "n": 256, "k": 128},
            {"m": 512, "n": 256, "k": 128},
        ]),
    ]
    if quick:
        roster = [(family, shapes[:2]) for family, shapes in roster]
        roster[0] = ("gemm", [{"m": 256, "n": 256, "k": 64},
                              {"m": 512, "n": 256, "k": 64}])
    return roster


def _leaderboard_fingerprint(result) -> Dict:
    """Everything that must match between serial and fleet runs."""
    return {
        "ranked": [(rc.label, rc.score_seconds, rc.launches)
                   for rc in result.ranked],
        "evaluated": result.search_stats["evaluated"],
        "total": result.search_stats["total_candidates"],
        "pruned": result.search_stats["pruned"],
        "n_skipped": result.search_stats["skipped"],
        "gate": [(g.candidate.label, g.passed) for g in result.gate_results],
        "winner": result.winner.label,
    }


#: Anchor beam width for the transfer mode's cold searches.
TRANSFER_ANCHOR_BEAM = 4

#: Families whose config spaces need capabilities the roster's default
#: architecture lacks; they tune on the named registry entry instead.
_FAMILY_ARCH = {"gemm_fp8": "hopper", "gemm_sparse24": "hopper"}


def _run_mode(roster, arch, *, workers: int, transfer: bool,
              search: str, top_k: int, seed: int, beam: int = 6):
    """One full roster sweep; returns (records, per-family seconds)."""
    cache = TuningCache(None)  # in-memory: each mode starts cold
    records: Dict[Tuple[str, str], Dict] = {}
    family_seconds: Dict[str, float] = {}
    transfers: Dict[str, List[bool]] = {}
    for family, shapes in roster:
        start = time.perf_counter()
        target = (resolve_arch(_FAMILY_ARCH[family])
                  if family in _FAMILY_ARCH else arch)
        for index, shape in enumerate(shapes):
            result = tune(
                family, shape, target, cache=cache, search=search, beam=beam,
                top_k=top_k, seed=seed, workers=workers, transfer=transfer,
            )
            key = (family, json.dumps(shape, sort_keys=True))
            records[key] = {
                "fingerprint": _leaderboard_fingerprint(result),
                "transferred": result.transferred,
                "seeded_from": result.seeded_from,
                "evaluated": result.search_stats["evaluated"],
            }
            if index > 0:
                transfers.setdefault(family, []).append(result.transferred)
        family_seconds[family] = time.perf_counter() - start
    cache.close()
    hit_rates = {
        family: (sum(flags) / len(flags) if flags else 0.0)
        for family, flags in transfers.items()
    }
    return records, family_seconds, hit_rates


def _oracle_report(arch, seed: int) -> Dict:
    """Fit the refined cost model and score its ranking agreement."""
    coeffs = fit_coefficients(arch, seed=seed)
    fitted = FittedOracle(coeffs)
    from ..tuner import get_space

    shape = {"m": 512, "n": 512, "k": 128}
    space = get_space("gemm")
    default_ranked = exhaustive_search(space, shape, arch)
    fitted_ranked = exhaustive_search(space, shape, arch, oracle=fitted)
    agreement = rank_agreement(
        [rc.label for rc in default_ranked.ranked],
        [rc.label for rc in fitted_ranked.ranked],
    )
    return {
        "coefficients": coeffs.as_dict(),
        "rank_agreement_vs_default": round(agreement, 4),
        "reference_family": "gemm",
        "reference_shape": shape,
        "default_winner": default_ranked.best.label,
        "fitted_winner": fitted_ranked.best.label,
    }


def run_tuner_bench(
    arch: str = "ampere",
    workers: Optional[int] = None,
    outdir: str = "bench_artifacts",
    quick: bool = False,
    seed: int = 0,
    transfer: bool = True,
) -> str:
    """Run the three-mode roster sweep and write ``BENCH_tuner.json``."""
    architecture = resolve_arch(arch)
    # At least two workers so the parallel modes genuinely cross the
    # process boundary even on single-core boxes (where the fleet's
    # value is bit-identity plus transfer, not CPU parallelism).
    workers = workers or max(2, default_workers())
    roster = tune_all_roster(quick=quick)

    t0 = time.perf_counter()
    serial_records, serial_family, _ = _run_mode(
        roster, architecture, workers=1, transfer=False,
        search="exhaustive", top_k=3, seed=seed)
    serial_wall = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel_records, parallel_family, _ = _run_mode(
        roster, architecture, workers=workers, transfer=False,
        search="exhaustive", top_k=3, seed=seed)
    parallel_wall = time.perf_counter() - t0

    mismatches = [
        {"family": family, "shape": shape}
        for (family, shape) in serial_records
        if serial_records[(family, shape)]["fingerprint"]
        != parallel_records[(family, shape)]["fingerprint"]
    ]

    transfer_wall = None
    transfer_family: Dict[str, float] = {}
    hit_rates: Dict[str, float] = {}
    transfer_records: Dict = {}
    if transfer:
        t0 = time.perf_counter()
        transfer_records, transfer_family, hit_rates = _run_mode(
            roster, architecture, workers=workers, transfer=True,
            search="beam", top_k=1, seed=seed, beam=TRANSFER_ANCHOR_BEAM)
        transfer_wall = time.perf_counter() - t0

    speedup = (serial_wall / transfer_wall
               if transfer_wall and transfer_wall > 0 else None)
    # The headline splits into the worker pool's effect (same sweep,
    # serial vs fleet) and the transfer effect (fleet, cold vs seeded).
    pool_effect = serial_wall / parallel_wall if parallel_wall > 0 else None
    transfer_effect = (parallel_wall / transfer_wall
                       if transfer_wall and transfer_wall > 0 else None)
    payload = {
        "bench": "tuner",
        "arch": architecture.name,
        "workers": workers,
        "quick": quick,
        "roster": {family: shapes for family, shapes in roster},
        "families": len(roster),
        "tuned_shapes": sum(len(shapes) for _, shapes in roster),
        "modes": {
            "serial": {
                "wall_seconds": round(serial_wall, 3),
                "per_family_seconds": {
                    f: round(s, 3) for f, s in serial_family.items()},
                "search": "exhaustive", "top_k": 3, "workers": 1,
                "gate_verdicts": {
                    f"{family}|{shape}": rec["fingerprint"]["gate"]
                    for (family, shape), rec in
                    sorted(serial_records.items())},
            },
            "parallel": {
                "wall_seconds": round(parallel_wall, 3),
                "per_family_seconds": {
                    f: round(s, 3) for f, s in parallel_family.items()},
                "search": "exhaustive", "top_k": 3, "workers": workers,
                "identical_to_serial": not mismatches,
                "mismatches": mismatches,
            },
            "parallel_transfer": {
                "wall_seconds": (round(transfer_wall, 3)
                                 if transfer_wall is not None else None),
                "per_family_seconds": {
                    f: round(s, 3) for f, s in transfer_family.items()},
                "search": "beam+seeded", "top_k": 1, "workers": workers,
                "anchor_beam": TRANSFER_ANCHOR_BEAM,
                "transfer_hit_rate_per_family": {
                    f: round(r, 3) for f, r in sorted(hit_rates.items())},
                "winners": {
                    f"{family}|{shape}": rec["fingerprint"]["winner"]
                    for (family, shape), rec in
                    sorted(transfer_records.items())},
            },
        },
        "speedup_parallel_transfer_vs_serial": (
            round(speedup, 2) if speedup else None),
        "speedup_parallel_vs_serial": (
            round(pool_effect, 2) if pool_effect else None),
        "speedup_transfer_vs_parallel": (
            round(transfer_effect, 2) if transfer_effect else None),
        "target_speedup": TARGET_SPEEDUP,
        "meets_target": bool(speedup and speedup >= TARGET_SPEEDUP),
        "oracle": _oracle_report(architecture, seed),
    }

    return write_artifact(outdir, "BENCH_tuner.json", payload)


__all__ = ["TARGET_SPEEDUP", "run_tuner_bench", "tune_all_roster"]
