"""Measured-vs-modelled calibration of the analytical performance model.

The paper validates its kernels against Nsight Compute measurements;
this repo's substitute is the simulator profiler
(:mod:`repro.sim.profiler`).  ``calibrate()`` runs every shipped kernel
family at a simulation-friendly shape with ``profile=True`` and compares
the measured counters against :func:`repro.perfmodel.counts.count_kernel`
predictions and the static :func:`repro.perfmodel.model.
bank_conflict_degree`; the result is the calibration report behind
``python -m repro.eval profile``, and the drift test in
``tests/perfmodel/test_calibrate.py`` fails when the analytical model
wanders beyond the documented tolerances.

Documented tolerances (relative drift ``|measured/modelled - 1|``):

* ``DEFAULT_TOLERANCE`` (10%) — global read/write bytes and shared
  bytes.  The count model walks the same IR the simulator executes, so
  on the calibration shapes (chosen so staging has no remainder guards)
  these normally agree *exactly*; the margin absorbs future
  predication-splitting changes.
* ``FMHA_SMEM_TOLERANCE`` (25%) — the fused-attention kernel's shared
  traffic.  The count model charges guarded bodies fully and models
  ``ldmatrix`` with its nominal 32-lane footprint, both conservative
  for FMHA's chunked softmax, so the model over-predicts by ~15% there.
* Bank-conflict degree uses ``DEFAULT_TOLERANCE`` against the static
  8x8-fragment model of :func:`bank_conflict_degree` on the kernels it
  covers (2-D fp16 shared staging tiles read whole by ``ldmatrix``).
  The row is skipped for FMHA: its K/V chunks are read through guarded
  per-chunk views whose row strides differ from the backing allocation,
  so the static worst-buffer model over-predicts there (8 modelled vs 6
  measured) by construction, not by drift.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..arch import Architecture, architecture
from .counts import count_kernel
from .model import bank_conflict_degree

#: Relative drift allowed between measured and modelled counters.
DEFAULT_TOLERANCE = 0.10
#: The fused-attention kernel's shared traffic is modelled
#: conservatively (guarded bodies charged fully); see module docstring.
FMHA_SMEM_TOLERANCE = 0.25


@dataclass
class CalibrationRow:
    """One measured-vs-modelled counter comparison."""

    kernel: str
    counter: str
    modelled: float
    measured: float
    tolerance: float

    @property
    def drift(self) -> float:
        """Relative drift ``|measured/modelled - 1|`` (0 = exact)."""
        if self.modelled == 0:
            return 0.0 if self.measured == 0 else float("inf")
        return abs(self.measured / self.modelled - 1.0)

    @property
    def passed(self) -> bool:
        return self.drift <= self.tolerance

    @property
    def status(self) -> str:
        return "ok" if self.passed else "DRIFT"

    def as_dict(self) -> dict:
        return {
            "kernel": self.kernel, "counter": self.counter,
            "modelled": self.modelled, "measured": self.measured,
            "tolerance": self.tolerance,
            "drift": None if self.drift == float("inf") else
            round(self.drift, 4),
            "passed": self.passed,
        }


@dataclass
class CalibrationReport:
    """All rows of one calibration run."""

    arch: str
    rows: List[CalibrationRow] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)

    def failures(self) -> List[CalibrationRow]:
        return [row for row in self.rows if not row.passed]

    def worst_drift(self) -> float:
        return max((row.drift for row in self.rows), default=0.0)

    def as_dict(self) -> dict:
        return {
            "arch": self.arch,
            "passed": self.passed,
            "rows": [row.as_dict() for row in self.rows],
        }

    def format_table(self) -> str:
        header = (f"{'kernel':<22} {'counter':<22} {'modelled':>12} "
                  f"{'measured':>12} {'drift':>8} {'tol':>6} {'':>6}")
        lines = [
            f"perfmodel calibration on {self.arch} "
            f"(measured by repro.sim.profiler)",
            header, "-" * len(header),
        ]
        for row in self.rows:
            drift = ("inf" if row.drift == float("inf")
                     else f"{row.drift * 100:.1f}%")
            lines.append(
                f"{row.kernel:<22} {row.counter:<22} {row.modelled:>12.0f} "
                f"{row.measured:>12.0f} {drift:>8} "
                f"{row.tolerance * 100:>5.0f}% {row.status:>6}"
            )
        lines.append("-" * len(header))
        verdict = "all counters within tolerance" if self.passed else \
            f"{len(self.failures())} counter(s) drifted beyond tolerance"
        lines.append(f"verdict: {verdict}")
        return "\n".join(lines)


def _bindings(kernel, seed: int = 0) -> Dict[str, np.ndarray]:
    """Normal draws for every parameter: counters ignore the values."""
    rng = np.random.default_rng(seed)
    return {
        p.name: (rng.standard_normal(p.layout.size()) * 0.25)
        .astype(p.dtype.np_dtype)
        for p in kernel.params
    }


def drift_rows(label: str, counts, profile,
               smem_tolerance: float = DEFAULT_TOLERANCE
               ) -> List[CalibrationRow]:
    """Measured-vs-modelled traffic rows of one profiled run.

    Global loads fold the TMA bulk counters in (0 on kernels without
    TMA): bulk tensor traffic is DRAM traffic the model charges to
    reads.  ``bulk_store_bytes`` is the *shared-memory* side of those
    copies, not DRAM stores, so the store row leaves it out.  The
    shared-bytes row appears whenever either side saw shared traffic.
    """
    rows = [
        CalibrationRow(label, "global_load_bytes", counts.dram_read_bytes,
                       profile.global_load_bytes + profile.bulk_load_bytes,
                       DEFAULT_TOLERANCE),
        CalibrationRow(label, "global_store_bytes", counts.dram_write_bytes,
                       profile.global_store_bytes, DEFAULT_TOLERANCE),
    ]
    if counts.smem_bytes or profile.shared_bytes:
        rows.append(CalibrationRow(label, "shared_bytes", counts.smem_bytes,
                                   profile.shared_bytes, smem_tolerance))
    return rows


def _profiled_cases(arch, cases, seed):
    """Profile each calibration kernel once.

    Yields ``(name, kernel, counts, profile, smem_tolerance,
    check_conflict_degree)`` per case of ``cases`` (default: every
    :func:`calibration_cases` entry).
    """
    from ..kernels import build
    from ..sim import Simulator

    for name, cfg, smem_tol, check_conflicts in (
            cases if cases is not None else calibration_cases()):
        kernel = build(cfg)
        profile = Simulator(arch).run(kernel, _bindings(kernel, seed),
                                      profile=True).profile
        yield (name, kernel, count_kernel(kernel, arch), profile, smem_tol,
               check_conflicts)


def calibration_cases() -> List[Tuple[str, "KernelConfig", float, bool]]:
    """The shipped-family calibration set at simulation-friendly shapes.

    Returns ``(name, config, smem_tolerance, check_conflict_degree)``
    tuples; shapes are chosen so the staging loops have no remainder
    guards (the count model charges guarded bodies fully, see module
    docstring).  ``check_conflict_degree`` is False where the static
    8x8-fragment model's assumptions do not hold (FMHA, see module
    docstring).
    """
    from ..kernels import (
        FmhaConfig, GemmConfig, LayernormConfig, LstmConfig, MlpConfig,
        NaiveGemmConfig, SoftmaxConfig,
    )

    return [
        ("gemm_naive",
         NaiveGemmConfig(32, 32, 32, (2, 2), (4, 4)),
         DEFAULT_TOLERANCE, True),
        ("gemm_tc_ampere",
         GemmConfig(32, 32, 64, (32, 32, 32), (1, 1), name="cal_gemm_tc"),
         DEFAULT_TOLERANCE, True),
        ("gemm_tc_swizzled",
         GemmConfig(32, 32, 64, (32, 32, 32), (1, 1), swizzled=True,
                    name="cal_gemm_tc_swz"), DEFAULT_TOLERANCE, True),
        ("layernorm",
         LayernormConfig(8, 64, 4), DEFAULT_TOLERANCE, True),
        ("softmax",
         SoftmaxConfig(128, 32), DEFAULT_TOLERANCE, True),
        ("mlp",
         MlpConfig(64, 64, 2, block_rows=32, warp_grid=(1, 1)),
         DEFAULT_TOLERANCE, True),
        ("lstm",
         LstmConfig(32, 32, 32, (32, 32, 32), (1, 1)),
         DEFAULT_TOLERANCE, True),
        ("fmha",
         FmhaConfig(2, 64, 32, kv_chunk=32), FMHA_SMEM_TOLERANCE, False),
    ]


def calibrate(
    arch: "Architecture | str" = "ampere",
    cases: Optional[List[Tuple[str, "KernelConfig", float, bool]]] = None,
    seed: int = 0,
) -> CalibrationReport:
    """Profile every calibration kernel and compare against the model."""
    if isinstance(arch, str):
        arch = architecture(arch)
    report = CalibrationReport(arch=arch.name)
    for name, kernel, counts, profile, smem_tol, check_conflicts in (
            _profiled_cases(arch, cases, seed)):
        report.rows.extend(drift_rows(name, counts, profile, smem_tol))
        static_degree = bank_conflict_degree(kernel)
        if check_conflicts and (static_degree > 1.0
                                or profile.shared_wavefronts):
            # The static model reports the worst buffer's degree, so
            # compare against the worst measured per-spec degree.
            report.rows.append(CalibrationRow(
                name, "ldmatrix_conflict_degree",
                static_degree, profile.worst_conflict_degree("ldmatrix"),
                DEFAULT_TOLERANCE,
            ))
    return report


# -- cost-model refinement -----------------------------------------------
#
# Beyond pass/fail drift checking, the same measured-vs-modelled pairs
# can *refine* the model: fit scale coefficients mapping the count
# model's predictions onto the profiler's measurements and cost with
# the corrected quantities.  The tuner feeds the fitted oracle back
# into search (``tune(..., oracle=FittedOracle(...))``), closing the
# paper's "automated search" loop with a measurement-informed ranking.


@dataclass(frozen=True)
class FittedCoefficients:
    """Scale factors regressed from calibration measurements.

    Each coefficient is a least-squares-through-origin slope of
    measured against modelled values over the calibration kernels
    (slope 1.0 = the analytical model is exact):

    * ``dram_scale`` — measured global bytes per modelled DRAM byte;
    * ``smem_scale`` — measured shared bytes per modelled shared byte;
    * ``conflict_penalty`` — measured excess conflict degree per
      modelled excess degree (the static 8x8-fragment model's
      ``degree - 1`` against the profiler's worst measured degree);
    * ``issue_scale`` — profiler-counted instruction issues per
      modelled instruction (captures predication/vectorization slack
      the count model charges nominally).
    """

    dram_scale: float = 1.0
    smem_scale: float = 1.0
    conflict_penalty: float = 1.0
    issue_scale: float = 1.0
    #: Calibration kernels the fit consumed.
    samples: int = 0

    def as_dict(self) -> dict:
        return {
            "dram_scale": round(self.dram_scale, 6),
            "smem_scale": round(self.smem_scale, 6),
            "conflict_penalty": round(self.conflict_penalty, 6),
            "issue_scale": round(self.issue_scale, 6),
            "samples": self.samples,
        }


def _fit_through_origin(pairs: List[Tuple[float, float]],
                        default: float = 1.0) -> float:
    """Least-squares slope of ``y = c * x`` through the origin."""
    num = sum(x * y for x, y in pairs)
    den = sum(x * x for x, _ in pairs)
    return num / den if den > 0.0 else default


def fit_coefficients(
    arch: "Architecture | str" = "ampere",
    cases: Optional[List[Tuple[str, "KernelConfig", float, bool]]] = None,
    seed: int = 0,
) -> FittedCoefficients:
    """Regress the refinement coefficients from profiled calibration runs.

    Runs the same kernels :func:`calibrate` drifts against, but instead
    of judging the model it fits the correction: every profiled counter
    (global bytes, shared bytes, conflict degree, instruction issues)
    is paired with the analytical prediction and the per-resource
    scale is the least-squares slope through the origin.
    """
    if isinstance(arch, str):
        arch = architecture(arch)
    dram: List[Tuple[float, float]] = []
    smem: List[Tuple[float, float]] = []
    conflict: List[Tuple[float, float]] = []
    issues: List[Tuple[float, float]] = []
    sampled = 0
    for _name, kernel, counts, profile, _smem_tol, check_conflicts in (
            _profiled_cases(arch, cases, seed)):
        sampled += 1
        dram.append((counts.dram_read_bytes + counts.dram_write_bytes,
                     float(profile.global_load_bytes
                           + profile.global_store_bytes)))
        if counts.smem_bytes or profile.shared_bytes:
            smem.append((counts.smem_bytes, float(profile.shared_bytes)))
        static_degree = bank_conflict_degree(kernel)
        if check_conflicts and static_degree > 1.0:
            measured = profile.worst_conflict_degree("ldmatrix")
            conflict.append((static_degree - 1.0, max(0.0, measured - 1.0)))
        if counts.instructions and profile.issues(""):
            issues.append((counts.instructions, float(profile.issues(""))))
    return FittedCoefficients(
        dram_scale=_fit_through_origin(dram),
        smem_scale=_fit_through_origin(smem),
        conflict_penalty=_fit_through_origin(conflict),
        issue_scale=_fit_through_origin(issues),
        samples=sampled,
    )


class FittedOracle:
    """A tuner oracle costing with calibration-fitted coefficients.

    Drop-in for :func:`repro.tuner.search.perfmodel_oracle`: callable
    as ``oracle(kernel, arch) -> CostBreakdown``.  The roofline runs
    with the DRAM/shared-memory components scaled by the fitted
    byte-count corrections, the bank-conflict penalty replaced by the
    fitted excess-degree slope, and an additive issue-overhead term —
    fitted instruction issues charged at the architecture's warp issue
    rate — that separates candidates the pure bandwidth roofline ties.
    Holds only plain floats, so it pickles to fleet workers.
    """

    def __init__(self, coefficients: FittedCoefficients):
        self.coefficients = coefficients

    #: FP32 FLOPs one warp-level FMA issue retires (32 lanes x mul+add):
    #: converts the architecture's FMA peak into a warp issue rate.
    _FLOPS_PER_ISSUE = 64.0

    def issue_seconds(self, instructions: float, arch: Architecture) -> float:
        """Seconds the fitted issue stream needs at the warp issue rate."""
        issue_rate = arch.fp32_tflops * 1e12 / self._FLOPS_PER_ISSUE
        return instructions * self.coefficients.issue_scale / issue_rate

    def __call__(self, kernel, arch: Architecture):
        from .model import (
            CostBreakdown, Efficiency, LIBRARY_CLASS, KernelEstimate,
            PerfModel, bank_conflict_degree,
        )

        c = self.coefficients
        counts = count_kernel(kernel, arch)
        static = bank_conflict_degree(kernel)
        fitted_degree = 1.0 + max(0.0, c.conflict_penalty) * (static - 1.0)
        base = LIBRARY_CLASS
        # Scaling measured = c * modelled bytes is equivalent to
        # dividing the achievable-efficiency envelope by c.
        eff = Efficiency(
            tensor=base.tensor, fma=base.fma,
            dram=base.dram / max(c.dram_scale, 1e-9),
            smem=base.smem / max(c.smem_scale, 1e-9),
        )
        est = PerfModel(arch).estimate_counts(
            counts, kernel.name, efficiency=eff,
            bank_conflict_factor=fitted_degree,
        )
        seconds = est.seconds + self.issue_seconds(counts.instructions, arch)
        fitted = KernelEstimate(
            kernel.name, seconds, est.compute_seconds, est.dram_seconds,
            est.smem_seconds, est.launch_seconds, counts, arch,
        )
        return CostBreakdown(
            name=kernel.name,
            time_seconds=fitted.total_seconds,
            kernel_seconds=fitted.seconds,
            flops=counts.total_flops,
            tensor_flops=counts.tensor_flops,
            dram_bytes=counts.dram_bytes,
            smem_bytes=counts.smem_bytes,
            smem_bank_conflicts=fitted_degree,
            compute_fraction=fitted.compute_fraction,
            memory_fraction=fitted.memory_fraction,
            estimate=fitted,
            counts=counts,
        )


def rank_agreement(ranking_a: List[str], ranking_b: List[str]) -> float:
    """Pairwise order agreement between two rankings of the same items.

    The fraction of unordered label pairs both rankings order the same
    way (a Kendall-tau-style statistic mapped to ``[0, 1]``; 1.0 =
    identical order, 0.5 = uncorrelated).  Only labels present in both
    rankings participate; fewer than two shared labels yield 1.0.
    """
    common = [label for label in ranking_a if label in set(ranking_b)]
    pos_b = {label: i for i, label in enumerate(ranking_b)}
    total = 0
    agree = 0
    for i in range(len(common)):
        for j in range(i + 1, len(common)):
            total += 1
            if pos_b[common[i]] < pos_b[common[j]]:
                agree += 1
    return agree / total if total else 1.0


__all__ = [
    "DEFAULT_TOLERANCE", "FMHA_SMEM_TOLERANCE",
    "CalibrationRow", "CalibrationReport", "FittedCoefficients",
    "FittedOracle", "calibrate", "calibration_cases", "drift_rows",
    "fit_coefficients", "rank_agreement",
]
