"""The correctness gate: no config leaves the tuner unexecuted.

The performance model ranks candidates by modelled time alone — a
candidate whose layouts are wrong (or whose decomposition silently
drops work) can still *look* fastest.  Before the tuner may return a
configuration, its kernel is built at a small shape the tiling legally
covers and executed in :mod:`repro.sim` against the numpy references of
:mod:`repro.library.funcs`; wrong numerics reject the candidate and the
gate falls through to the next-ranked one.

The run executes with ``sanitize=True``: a candidate whose decomposition
races on shared memory (or reads out of bounds / uninitialized) is
rejected even when lockstep simulation happens to compute the right
numbers — see :mod:`repro.sim.sanitizer`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..arch.gpu import Architecture
from ..sim import SanitizerError, SimulationError, Simulator
from .search import RankedCandidate
from .space import Candidate, ConfigSpace


class GateError(RuntimeError):
    """No candidate of the ranked space passed simulator verification."""


@dataclass
class GateResult:
    """The verdict of one simulator run."""

    candidate: Candidate
    passed: bool
    max_error: Optional[float]
    detail: str = ""
    #: Measured counters of the verification run (``profile=True`` only).
    profile: Optional["KernelProfile"] = None

    @property
    def status(self) -> str:
        return "pass" if self.passed else "FAIL"


def check_candidate(
    space: ConfigSpace,
    arch: Architecture,
    candidate: Candidate,
    shape: Dict[str, int],
    seed: int = 0,
    profile: bool = False,
) -> GateResult:
    """Execute one candidate at its small verification shape.

    ``profile=True`` attaches the run's measured counters
    (:class:`repro.sim.KernelProfile`) to the returned
    :class:`GateResult`, so tuner reports can show measured bank
    conflicts next to the oracle's modelled ones.  The run is always
    sanitized: an unsanitized gate would defeat its purpose.
    """
    kernel_profile = None
    try:
        vshape = space.verification_shape(candidate, shape)
        kernel = space.build(candidate, vshape)
        bindings, checks = space.verification_problem(candidate, vshape, seed)
        symbols = space.verification_symbols(candidate, vshape)
        result = Simulator(arch).run(kernel, bindings, symbols,
                                     sanitize=True, profile=profile)
        kernel_profile = result.profile
    except SanitizerError as exc:
        return GateResult(candidate, False, None,
                          f"rejected by sanitizer: {exc}")
    except (SimulationError, ValueError, KeyError) as exc:
        return GateResult(candidate, False, None,
                          f"execution failed: {exc}")
    worst = 0.0
    for name, ref, tol in checks:
        got = bindings[name].astype(np.float32)
        if got.shape != np.asarray(ref).shape:
            return GateResult(
                candidate, False, None,
                f"output {name} shape {got.shape} != reference "
                f"{np.asarray(ref).shape}",
                profile=kernel_profile,
            )
        err = float(np.abs(got - np.asarray(ref, dtype=np.float32)).max())
        worst = max(worst, err)
        if not np.isfinite(err) or err > tol:
            return GateResult(
                candidate, False, err,
                f"output {name} deviates from the numpy reference by "
                f"{err:.4g} (tolerance {tol:g}) at shape {vshape}",
                profile=kernel_profile,
            )
    return GateResult(candidate, True, worst, profile=kernel_profile)


def run_gate(
    space: ConfigSpace,
    arch: Architecture,
    ranked: List[RankedCandidate],
    shape: Dict[str, int],
    top_k: int = 3,
    seed: int = 0,
    evaluator: Optional["FleetEvaluator"] = None,
) -> Tuple[RankedCandidate, List[GateResult]]:
    """Verify the leaderboard's top-k; return the best passing config.

    The first ``top_k`` candidates are all executed as one batch (their
    verdicts make the leaderboard report); if every one of them fails,
    the gate keeps descending the ranking in batches of the evaluator's
    width, truncating each at the first passer.  Without an
    ``evaluator`` (or with a one-worker
    :class:`~repro.tuner.fleet.FleetEvaluator`) the batches run
    in-process one candidate at a time; wider fleets check each batch
    concurrently and return the same verdict list and winner.  Raises
    :class:`GateError` when the whole ranking is numerically wrong.
    """
    width = 1 if evaluator is None else evaluator.workers

    def check(batch: List[RankedCandidate]) -> List[GateResult]:
        candidates = [rc.candidate for rc in batch]
        if width > 1:
            return evaluator.check_batch(space, arch, candidates, shape,
                                         seed)
        # Looked up in this module per call: tracing counts gate calls
        # by patching ``repro.tuner.verify.check_candidate``.
        return [check_candidate(space, arch, c, shape, seed)
                for c in candidates]

    results = check(ranked[:top_k])
    winner = next((rc for rc, r in zip(ranked, results) if r.passed), None)
    position = len(results)
    while winner is None and position < len(ranked):
        batch = ranked[position:position + width]
        for rc, result in zip(batch, check(batch)):
            results.append(result)
            if result.passed:
                winner = rc
                break
        position += len(batch)
    if winner is None:
        failures = "; ".join(
            f"{r.candidate.label} ({r.detail})" for r in results[:5]
        )
        raise GateError(
            f"no {space.family} candidate passed simulator verification "
            f"out of {len(results)} tried: {failures}"
        )
    return winner, results
