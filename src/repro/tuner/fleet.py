"""Process-pool fleet evaluation for the tuner.

The search drivers in :mod:`repro.tuner.search` funnel every kernel
build + costing through a batch evaluator; this module provides one
backed by a ``ProcessPoolExecutor``.  A candidate batch is split into
balanced contiguous shards (:func:`shard_sequence`), each worker
evaluates its shard with the ordinary serial evaluator, and the
per-shard outcome lists are concatenated in shard order — restoring
exactly the serial outcome order.  Because the drivers' control flow
never depends on *who* evaluated a batch, the fleet leaderboards are
bit-identical to the serial ones (pinned by
``tests/tuner/test_fleet.py`` across all twelve kernel families).

Everything that crosses the process boundary pickles through
:mod:`repro.pickling`: config spaces and candidates are plain data,
architectures and dtypes reduce to registry lookups, and oracles must
be module-level functions or picklable callables (both the default
roofline oracle and the calibrated
:class:`~repro.perfmodel.calibrate.FittedOracle` qualify).

The correctness gate batches through the same pool:
:func:`repro.tuner.verify.run_gate` hands each batch to
:meth:`FleetEvaluator.check_batch`, which verifies it concurrently
while preserving the serial gate's verdict list and winner choice
exactly.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, TypeVar

import multiprocessing

from ..arch.gpu import Architecture
from .search import EvalOutcome, Oracle, perfmodel_oracle, serial_evaluator
from .space import Candidate, ConfigSpace
from .verify import GateResult, check_candidate

T = TypeVar("T")


def shard_sequence(items: Sequence[T], nshards: int) -> List[List[T]]:
    """Split ``items`` into balanced contiguous chunks, order preserved.

    Chunk sizes differ by at most one (the first ``len(items) %
    nshards`` chunks are one longer) and ``nshards`` is clamped to
    ``[1, len(items)]``, so no chunk is empty; concatenating the chunks
    in order restores ``items``.
    """
    nshards = max(1, min(nshards, len(items)))
    base, extra = divmod(len(items), nshards)
    bounds = [i * base + min(i, extra) for i in range(nshards + 1)]
    return [list(items[lo:hi]) for lo, hi in zip(bounds, bounds[1:])
            if hi > lo]


def default_workers() -> int:
    """Worker count when the caller does not choose one."""
    return max(1, os.cpu_count() or 1)


def _evaluate_shard(
    candidates: Sequence[Candidate],
    space: ConfigSpace,
    shape: Dict[str, int],
    arch: Architecture,
    oracle: Optional[Oracle],
) -> List[EvalOutcome]:
    """Worker entry point: serially evaluate one contiguous shard."""
    return serial_evaluator(space, candidates, shape, arch,
                            oracle or perfmodel_oracle)


def _check_shard(
    candidates: Sequence[Candidate],
    space: ConfigSpace,
    arch: Architecture,
    shape: Dict[str, int],
    seed: int,
) -> List[GateResult]:
    """Worker entry point: run the correctness gate on a shard."""
    return [check_candidate(space, arch, c, shape, seed)
            for c in candidates]


class FleetEvaluator:
    """A batch evaluator sharding candidates across worker processes.

    Implements the :data:`repro.tuner.search.Evaluator` protocol, so it
    drops into :func:`exhaustive_search`/:func:`beam_search` unchanged.
    The pool is created lazily on first use (fork start method where
    available — workers inherit the warm module state instead of
    re-importing the IR stack) and reused across batches; use as a
    context manager or call :meth:`close` to release it.

    ``workers=1`` short-circuits to in-process evaluation — no pool,
    no pickling — so callers can treat worker count as a pure knob.
    """

    def __init__(self, workers: Optional[int] = None):
        self.workers = default_workers() if workers is None else max(1, workers)
        self._pool: Optional[ProcessPoolExecutor] = None

    # -- pool lifecycle -----------------------------------------------------
    def _executor(self) -> ProcessPoolExecutor:
        if self._pool is None:
            try:
                ctx = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-posix fallback
                ctx = multiprocessing.get_context()
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=ctx)
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "FleetEvaluator":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _map_shards(self, fn, candidates: Sequence[Candidate], *args) -> list:
        """``fn(shard, *args)`` over balanced shards, results in input order."""
        if self.workers == 1 or len(candidates) <= 1:
            return fn(candidates, *args)
        pool = self._executor()
        futures = [pool.submit(fn, shard, *args)
                   for shard in shard_sequence(candidates, self.workers)]
        return [item for future in futures for item in future.result()]

    # -- Evaluator protocol -------------------------------------------------
    def __call__(
        self,
        space: ConfigSpace,
        candidates: Sequence[Candidate],
        shape: Dict[str, int],
        arch: Architecture,
        oracle: Oracle,
    ) -> List[EvalOutcome]:
        return self._map_shards(_evaluate_shard, candidates, space, shape,
                                arch, oracle)

    # -- parallel correctness gate ------------------------------------------
    def check_batch(
        self,
        space: ConfigSpace,
        arch: Architecture,
        candidates: Sequence[Candidate],
        shape: Dict[str, int],
        seed: int = 0,
    ) -> List[GateResult]:
        """Gate a candidate batch concurrently, results in input order."""
        return self._map_shards(_check_shard, candidates, space, arch, shape,
                                seed)


__all__ = ["FleetEvaluator", "default_workers", "shard_sequence"]
