"""``repro.tuner``: autotuning over Graphene decomposition spaces.

Closes the loop the paper leaves to "automated search" (Sections 1, 6):

1. a :class:`~repro.tuner.space.ConfigSpace` enumerates one kernel
   family's legal decompositions (illegal tilings pruned before IR
   construction);
2. a search driver builds each candidate's IR and ranks it with the
   :mod:`repro.perfmodel` roofline as the oracle
   (:mod:`repro.tuner.search`);
3. the top-ranked candidates must execute correctly in the functional
   simulator against numpy references before one may be returned
   (:mod:`repro.tuner.verify`);
4. winners persist in a JSON :class:`~repro.tuner.cache.TuningCache`
   keyed by (family, shape, dtype, arch), so repeated runs are instant.

The CLI leaderboard lives in ``python -m repro.tuner``.  ``tune(...)``
is the one way to get a tuned kernel: ``tune(...).build_kernel()``
builds the winner's family config at the full problem shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from ..arch import architecture, registered
from ..arch.gpu import Architecture
from ..perfmodel import CostBreakdown
from ..specs.kernel import Kernel
from .cache import TuningCache, default_cache_path
from .search import (
    Oracle, RankedCandidate, SearchResult, beam_search, exhaustive_search,
    perfmodel_oracle,
)
from .space import Candidate, ConfigSpace, GemmSpace, LayernormSpace, \
    MlpSpace, SPACES, get_space
from . import families as _families  # noqa: F401  registers the other spaces
from .families import (
    FmhaSpace, GemmEpilogueSpace, LstmSpace, MovesSpace, NaiveGemmSpace,
    ParametricGemmSpace, SoftmaxSpace,
)
from .verify import GateError, GateResult, check_candidate, run_gate

class TuningError(RuntimeError):
    pass


def resolve_arch(arch: Union[str, Architecture]) -> Architecture:
    """Accept an :class:`Architecture` or any registered name/alias.

    Delegates to the :mod:`repro.arch` registry (which owns the alias
    table — ``sm86``/``sm80`` → ampere, ``sm90`` → hopper, ...).
    """
    if isinstance(arch, Architecture):
        return arch
    try:
        return architecture(str(arch))
    except KeyError:
        raise TuningError(
            f"unknown architecture {arch!r}; known: {list(registered())}"
        ) from None


@dataclass
class TuningResult:
    """Everything one tuning run decided, plus how it decided it."""

    family: str
    shape: Dict[str, int]
    arch: Architecture
    space: ConfigSpace
    winner: Candidate
    #: Modelled end-to-end seconds of the winner (launches included).
    score_seconds: float
    launches: int
    #: Full cost attribution; ``None`` when served from the cache.
    cost: Optional[CostBreakdown]
    ranked: List[RankedCandidate] = field(default_factory=list)
    gate_results: List[GateResult] = field(default_factory=list)
    cache_hit: bool = False
    cache_key: Optional[str] = None
    cache_stats: Optional[Dict[str, int]] = None
    search_stats: Optional[Dict[str, int]] = None
    #: True when a transfer-seeded search produced the winner.
    transferred: bool = False
    #: Labels of the cached neighbour winners that seeded the search.
    seeded_from: List[str] = field(default_factory=list)

    def build_kernel(self) -> Kernel:
        """Instantiate the winning configuration at full problem scale."""
        return self.space.build(self.winner, self.shape)


def _resolve_cache(cache) -> Optional[TuningCache]:
    if cache is False:
        return None
    if cache is None:
        return TuningCache(default_cache_path())
    if isinstance(cache, TuningCache):
        return cache
    return TuningCache(cache)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


def _knob_types(params: Dict):
    """Each knob's name and value type (tuples element by element)."""
    def kind(value):
        if isinstance(value, tuple):
            return tuple(kind(v) for v in value)
        return type(value)

    return {name: kind(value) for name, value in params.items()}


def _cached_winner(space: ConfigSpace, shape: Dict[str, int],
                   arch: Architecture, entry) -> Optional[tuple]:
    """``(winner, score_us, launches)`` of a well-formed cache entry whose
    ``params`` name a candidate of ``space`` at this shape; None for any
    other entry (a missing or mistyped field, a hand-edited config)."""
    if not isinstance(entry, dict):
        return None
    params = entry.get("params")
    score_us = entry.get("score_us")
    launches = entry.get("launches", 1)
    if not isinstance(params, dict) or not _is_number(score_us) \
            or not isinstance(launches, int) or isinstance(launches, bool):
        return None
    try:
        winner = space.candidate_from_params(params)
    except (TypeError, ValueError):
        return None
    if winner not in space.candidates(shape, arch):
        return None
    return winner, float(score_us), launches


#: Cached neighbour winners consulted when ``transfer=True``.
TRANSFER_NEIGHBOURS = 2


def tune(
    family: str,
    shape: Dict[str, int],
    arch: Union[str, Architecture] = "ampere",
    *,
    space: Optional[ConfigSpace] = None,
    cache=None,
    search: str = "beam",
    beam: int = 6,
    top_k: int = 3,
    oracle: Optional[Oracle] = None,
    seed: int = 0,
    force: bool = False,
    workers: int = 1,
    transfer: bool = False,
) -> TuningResult:
    """Select the best verified configuration for one kernel launch.

    ``cache`` accepts a path, a :class:`TuningCache`, ``None`` (the
    default on-disk cache, overridable via ``GRAPHENE_TUNER_CACHE``) or
    ``False`` (no persistence).  ``force=True`` re-tunes even on a
    cache hit.  ``search`` is ``"beam"`` (default) or ``"exhaustive"``.

    ``workers`` sizes the :class:`~repro.tuner.fleet.FleetEvaluator`
    that runs candidate evaluation and the correctness gate: one worker
    stays in-process, more shard both across a process pool — the
    leaderboard and verdicts are bit-identical either way.
    ``transfer=True`` consults the cache's nearest neighbouring shapes
    (:meth:`TuningCache.nearest_entries`) and, when any exist, runs a
    seed-only search (``beam=0``) expanding just the transferred
    winners' coarse groups instead of cold-searching the space; a seed
    whose group is illegal here, or whose expansion fails the
    correctness gate, falls back to the cold ``search`` path.
    """
    space = space or get_space(family)
    shape = space.validate_shape(shape)
    architecture = resolve_arch(arch)
    cache_obj = _resolve_cache(cache)
    #: Close deferred stats only for caches this call constructed.
    owns_cache = cache_obj is not None and not isinstance(cache, TuningCache)
    key = TuningCache.make_key(
        space.family, shape, space.dtype, architecture.name
    )

    try:
        if cache_obj is not None and not force:
            entry = cache_obj.get(key)
            if entry is not None:
                hit = _cached_winner(space, shape, architecture, entry)
                if hit is None:
                    cache_obj.reject(key)
                else:
                    winner, score_us, launches = hit
                    return TuningResult(
                        family=space.family, shape=shape,
                        arch=architecture, space=space, winner=winner,
                        score_seconds=score_us * 1e-6, launches=launches,
                        cost=None, cache_hit=True, cache_key=key,
                        cache_stats=cache_obj.stats,
                    )

        seeds: List[Candidate] = []
        if transfer and cache_obj is not None:
            # A neighbour must name the default's knobs with values of
            # the same types (a shape with no default checks nothing).
            try:
                knobs = _knob_types(space.default(shape, architecture).params)
            except ValueError:
                knobs = None
            for _nkey, entry, _distance in cache_obj.nearest_entries(
                    key, k=TRANSFER_NEIGHBOURS):
                try:
                    seed_candidate = space.candidate_from_params(
                        entry["params"])
                except (AttributeError, KeyError, TypeError, ValueError):
                    seed_candidate = None
                if seed_candidate is None or (
                        knobs is not None
                        and knobs != _knob_types(seed_candidate.params)):
                    # Malformed, or stale from an older space revision.
                    cache_obj.count_invalid()
                else:
                    seeds.append(seed_candidate)

        # Imported here so that importing repro does not load
        # multiprocessing for programs that never tune.
        from .fleet import FleetEvaluator

        def finish(result, transferred):
            if not result.ranked:
                raise TuningError(
                    f"the {space.family} space is empty for shape {shape} "
                    f"on {architecture.name} ({result.total_candidates} raw "
                    f"candidates, {len(result.skipped)} skipped)"
                )
            winner_rc, gate_results = run_gate(
                space, architecture, result.ranked, shape, top_k=top_k,
                seed=seed, evaluator=fleet,
            )
            if cache_obj is not None:
                cache_obj.put(key, {
                    "family": space.family,
                    "label": winner_rc.candidate.label,
                    "params": winner_rc.candidate.json_params(),
                    "score_us": winner_rc.score_seconds * 1e6,
                    "launches": winner_rc.launches,
                    "tflops": winner_rc.cost.tflops(),
                    "smem_bank_conflicts":
                        winner_rc.cost.smem_bank_conflicts,
                    "searched": result.evaluated,
                })
            return TuningResult(
                family=space.family, shape=shape, arch=architecture,
                space=space, winner=winner_rc.candidate,
                score_seconds=winner_rc.score_seconds,
                launches=winner_rc.launches, cost=winner_rc.cost,
                ranked=result.ranked, gate_results=gate_results,
                cache_hit=False, cache_key=key,
                cache_stats=cache_obj.stats if cache_obj is not None
                else None,
                search_stats={
                    "total_candidates": result.total_candidates,
                    "evaluated": result.evaluated,
                    "pruned": result.pruned,
                    "skipped": len(result.skipped),
                },
                transferred=transferred,
                seeded_from=list(result.seeded_from),
            )

        with FleetEvaluator(workers) as fleet:
            if seeds:
                try:
                    result = beam_search(
                        space, shape, architecture, beam=0, oracle=oracle,
                        evaluator=fleet, seeds=seeds,
                    )
                    return finish(result, True)
                except (ValueError, GateError):
                    # No seed group legal here, or every transferred
                    # expansion failed verification: cold-search.
                    pass
            if search == "beam":
                result = beam_search(space, shape, architecture, beam=beam,
                                     oracle=oracle, evaluator=fleet)
            elif search == "exhaustive":
                result = exhaustive_search(space, shape, architecture,
                                           oracle=oracle, evaluator=fleet)
            else:
                raise TuningError(
                    f"unknown search driver {search!r}; use 'beam' or "
                    f"'exhaustive'"
                )
            return finish(result, False)
    finally:
        if owns_cache:
            cache_obj.close()


__all__ = [
    "Candidate", "ConfigSpace", "FmhaSpace", "GateError",
    "GateResult", "GemmEpilogueSpace", "GemmSpace", "LayernormSpace",
    "LstmSpace", "MlpSpace", "MovesSpace", "NaiveGemmSpace", "Oracle",
    "ParametricGemmSpace", "RankedCandidate", "SPACES", "SearchResult",
    "SoftmaxSpace", "TRANSFER_NEIGHBOURS", "TuningCache", "TuningError",
    "TuningResult", "beam_search", "check_candidate", "default_cache_path",
    "exhaustive_search", "get_space", "perfmodel_oracle", "resolve_arch",
    "run_gate", "tune",
]
