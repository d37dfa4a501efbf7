"""KernelServer: concurrent, batching front-end over captured graphs.

The serving loop mirrors a batching inference server:

* ``submit()`` enqueues a request and returns a
  :class:`concurrent.futures.Future` immediately.
* A dispatcher thread drains the queue, waits out a short batching
  window, groups requests by capture signature (same kernel
  fingerprint, symbols and binding shapes), and hands each group to a
  worker pool as one batch.
* A batch acquires its :class:`~repro.serve.graph.CapturedGraph` from
  the byte-budgeted :class:`~repro.serve.cache.GraphCache` (capturing
  on miss — one capture per signature, concurrent across signatures)
  and replays each request through the graph's static slots under the
  graph's own lock (an evicted graph takes its lock with it).
  Different signatures replay in parallel; numpy releases the GIL
  inside the batched gathers/scatters, so worker threads genuinely
  overlap.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .cache import DEFAULT_BUDGET_BYTES, GraphCache
from .graph import CapturedGraph, GraphKey, graph_key
from .metrics import ServerMetrics
from .request import ServeRequest, ServeResult


class _Family:
    """One registered kernel family: what a request name resolves to."""

    __slots__ = ("name", "kernel", "arch", "symbols")

    def __init__(self, name, kernel, arch, symbols):
        self.name = name
        self.kernel = kernel
        self.arch = arch
        self.symbols = dict(symbols or {})


class KernelServer:
    """Serves kernel executions from a cache of captured graphs."""

    def __init__(
        self,
        families: Iterable = (),
        *,
        max_workers: int = 4,
        budget_bytes: int = DEFAULT_BUDGET_BYTES,
        batch_window_s: float = 0.002,
        max_batch: int = 32,
        sanitize=False,
        profile=False,
    ):
        self.sanitize = sanitize
        self.profile = profile
        self.graph_cache = GraphCache(budget_bytes)
        self.metrics = ServerMetrics()
        self.batch_window_s = batch_window_s
        self.max_batch = max_batch
        self._families: Dict[str, _Family] = {}
        for fam in families:
            self.register(fam.name, fam.kernel, fam.arch,
                          getattr(fam, "symbols", None))
        self._queue: "deque[Tuple[ServeRequest, Future]]" = deque()
        self._cond = threading.Condition()
        self._closing = False
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="serve-batch")
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="serve-dispatch", daemon=True)
        self._dispatcher.start()

    # -- registration ----------------------------------------------------------
    def register(self, name: str, kernel, arch,
                 symbols: Optional[Dict[str, int]] = None) -> None:
        """Make ``name`` servable as (kernel, arch, default symbols)."""
        self._families[name] = _Family(name, kernel, arch, symbols)

    @property
    def families(self) -> Tuple[str, ...]:
        return tuple(self._families)

    # -- request intake --------------------------------------------------------
    def submit(self, family: str, bindings: Dict[str, np.ndarray],
               symbols: Optional[Dict[str, int]] = None) -> "Future[ServeResult]":
        """Enqueue one request; resolve via the returned future."""
        if self._closing:
            raise RuntimeError("server is closed")
        fam = self._families.get(family)
        if fam is None:
            raise KeyError(
                f"unknown family {family!r}; registered: "
                f"{sorted(self._families)}"
            )
        merged_symbols = dict(fam.symbols)
        merged_symbols.update(symbols or {})
        request = ServeRequest(family=family, bindings=bindings,
                               symbols=merged_symbols)
        future: "Future[ServeResult]" = Future()
        self.metrics.on_submit()
        with self._cond:
            self._queue.append((request, future))
            self._cond.notify()
        return future

    def request(self, family: str, bindings: Dict[str, np.ndarray],
                symbols: Optional[Dict[str, int]] = None,
                timeout: Optional[float] = None) -> ServeResult:
        """Synchronous convenience wrapper around :meth:`submit`."""
        return self.submit(family, bindings, symbols).result(timeout=timeout)

    # -- dispatch --------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._closing:
                    self._cond.wait()
                if self._closing and not self._queue:
                    return
            # Batching window: let same-signature requests pile up so
            # they ride one graph acquisition.
            if self.batch_window_s > 0:
                time.sleep(self.batch_window_s)
            with self._cond:
                drained = list(self._queue)
                self._queue.clear()
            if not drained:
                continue
            self.metrics.on_dequeue(len(drained))
            groups: Dict[GraphKey, List[Tuple[ServeRequest, Future]]] = {}
            order: List[GraphKey] = []
            for request, future in drained:
                if not future.set_running_or_notify_cancel():
                    continue
                fam = self._families[request.family]
                try:
                    key = graph_key(fam.kernel, fam.arch, request.symbols,
                                    request.bindings)
                except Exception as exc:  # unpicklable kernel, bad arrays
                    self.metrics.on_failure()
                    future.set_exception(exc)
                    continue
                if key not in groups:
                    groups[key] = []
                    order.append(key)
                groups[key].append((request, future))
            for key in order:
                group = groups[key]
                for start in range(0, len(group), self.max_batch):
                    chunk = group[start:start + self.max_batch]
                    self.metrics.on_batch(len(chunk))
                    self._pool.submit(self._run_batch, key, chunk)

    def _run_batch(self, key: GraphKey,
                   group: List[Tuple[ServeRequest, Future]]) -> None:
        request0 = group[0][0]
        fam = self._families[request0.family]

        def capture() -> CapturedGraph:
            graph = CapturedGraph.capture(
                fam.kernel, fam.arch, request0.symbols, request0.bindings,
                sanitize=self.sanitize, profile=self.profile,
            )
            self.metrics.on_capture(graph.capture_seconds)
            return graph

        try:
            graph, was_hit = self.graph_cache.get_or_capture(key, capture)
        except Exception as exc:
            for _, future in group:
                self.metrics.on_failure()
                future.set_exception(exc)
            return
        with graph.lock:
            for request, future in group:
                started = time.perf_counter()
                try:
                    run = graph.replay(request.bindings)
                    outputs = graph.outputs()
                except Exception as exc:
                    self.metrics.on_failure()
                    future.set_exception(exc)
                    continue
                finished = time.perf_counter()
                replay_s = finished - started
                if was_hit:
                    self.metrics.on_warm_replay(replay_s)
                latency_s = finished - request.submitted_at
                self.metrics.on_complete(latency_s, replay_s)
                future.set_result(ServeResult(
                    family=request.family,
                    outputs=outputs,
                    latency_s=latency_s,
                    replay_s=replay_s,
                    graph_hit=was_hit,
                    batch_size=len(group),
                    profile=run.profile,
                ))
                # Later requests in the batch always hit the now-warm graph.
                was_hit = True

    # -- lifecycle -------------------------------------------------------------
    def drain(self, timeout: Optional[float] = None) -> None:
        """Block until every submitted request has completed."""
        deadline = (time.monotonic() + timeout) if timeout else None
        while True:
            done = (self.metrics.requests_completed
                    + self.metrics.requests_failed)
            if done >= self.metrics.requests_submitted:
                return
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"{self.metrics.requests_submitted - done} requests "
                    f"still in flight after {timeout}s"
                )
            time.sleep(0.001)

    def close(self) -> None:
        with self._cond:
            if self._closing:
                return
            self._closing = True
            self._cond.notify_all()
        self._dispatcher.join()
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "KernelServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


__all__ = ["KernelServer"]
