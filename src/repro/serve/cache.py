"""LRU cache of captured graphs under a memory budget.

Unlike the simulator's :class:`~repro.sim.plan.PlanCache` (bounded by
entry count), captured graphs carry static slot storage, so this cache
is bounded by *resident bytes*.  Counters reuse the same
:class:`~repro.sim.plan.CacheStats` class, so plan-cache and
graph-cache health read identically in metrics output.

Capture is expensive; the cache keeps one in-flight capture per key
(per-key locks), so a thundering herd of same-signature requests does
exactly one capture while distinct signatures capture concurrently.  A
key's lock lives only while some caller holds or waits on it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Optional

from ..sim.plan import CacheStats
from .graph import CapturedGraph, GraphKey

#: Default graph-cache budget: enough for every benchmark family at the
#: smoke shapes, small enough that eviction is exercised in tests.
DEFAULT_BUDGET_BYTES = 64 * 1024 * 1024


class GraphCache:
    """Byte-budgeted LRU over :class:`CapturedGraph` values."""

    def __init__(self, budget_bytes: int = DEFAULT_BUDGET_BYTES):
        self.budget_bytes = budget_bytes
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._entries: "OrderedDict[GraphKey, CapturedGraph]" = OrderedDict()
        #: Per key being captured: its lock and how many callers hold
        #: or wait on it.
        self._capture_locks: Dict[GraphKey, list] = {}

    @property
    def resident_bytes(self) -> int:
        with self._lock:
            return sum(g.nbytes for g in self._entries.values())

    def get(self, key: GraphKey) -> Optional[CapturedGraph]:
        with self._lock:
            graph = self._entries.get(key)
            if graph is not None:
                self.stats.hits += 1
                self._entries.move_to_end(key)
            else:
                self.stats.misses += 1
            return graph

    def get_or_capture(
        self, key: GraphKey, factory: Callable[[], CapturedGraph],
    ) -> tuple:
        """Return ``(graph, was_hit)``, capturing via ``factory`` on miss.

        Same-key callers serialize on a per-key lock so one capture
        happens; different keys capture concurrently.
        """
        graph = self.get(key)
        if graph is not None:
            return graph, True
        with self._lock:
            entry = self._capture_locks.setdefault(
                key, [threading.Lock(), 0])
            entry[1] += 1
        try:
            with entry[0]:
                # A racing caller may have finished the capture while
                # this one waited on the key lock.
                with self._lock:
                    graph = self._entries.get(key)
                    if graph is not None:
                        # Not counted as a fresh hit: the miss above
                        # already recorded this caller's lookup outcome.
                        self._entries.move_to_end(key)
                        return graph, True
                graph = factory()
                self.put(key, graph)
                return graph, False
        finally:
            with self._lock:
                entry[1] -= 1
                if not entry[1]:
                    del self._capture_locks[key]

    def put(self, key: GraphKey, graph: CapturedGraph) -> None:
        with self._lock:
            self._entries[key] = graph
            self._entries.move_to_end(key)
            self._evict_over_budget()

    def _evict_over_budget(self) -> None:
        # Caller holds the lock.  Never evict the newest entry: a graph
        # larger than the whole budget still has to serve.
        resident = sum(g.nbytes for g in self._entries.values())
        while resident > self.budget_bytes and len(self._entries) > 1:
            _, evicted = self._entries.popitem(last=False)
            resident -= evicted.nbytes
            self.stats.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: GraphKey) -> bool:
        with self._lock:
            return key in self._entries

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "resident_bytes": sum(
                    g.nbytes for g in self._entries.values()),
                "budget_bytes": self.budget_bytes,
                **self.stats.snapshot(),
            }


__all__ = ["GraphCache", "DEFAULT_BUDGET_BYTES"]
