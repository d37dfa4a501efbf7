"""Host-side span recorder for the benchmark's traced mode.

The benchmark wraps the public functions of each layer (see
``layers.py``) in spans recorded here, from the benchmark's own files;
nothing inside ``src/`` knows about it.  A span has a name, a start, a
duration, the thread it ran on and the span that caused it (its parent
on the same thread's stack).  Per span name the recorder keeps

* ``calls`` and ``total`` — outermost activations only, so a function
  that re-enters itself is not counted twice;
* ``self`` — duration minus the part covered by child spans, which is
  how a layer's own time is separated from the layers it calls.

Statistics live in per-thread records (serve replays run on pool
threads) that are merged when the run ends.  Spans with ``event=True``
are also kept as Chrome ``trace_event`` complete events, capped at
``max_events``; hot leaf spans (the sanitizer's per-lane hooks) keep
statistics only.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
from time import perf_counter
from typing import Callable, Dict, List, Optional


class _ThreadState:
    __slots__ = ("tid", "stack", "depth", "stats", "durations")

    def __init__(self, tid: int):
        self.tid = tid
        #: One ``[child_seconds, span_id]`` cell per open span.
        self.stack: List[list] = []
        self.depth: Dict[str, int] = {}
        #: name -> [calls, total_s, self_s]
        self.stats: Dict[str, list] = {}
        self.durations: Dict[str, List[float]] = {}


class Recorder:
    """Collects spans and counters for one traced run."""

    def __init__(self, max_events: int = 100_000):
        self.max_events = max_events
        self.events: List[tuple] = []
        self.origin = perf_counter()
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self._ids = itertools.count(1)

    def _state(self) -> _ThreadState:
        state = getattr(self._tls, "state", None)
        if state is None:
            state = _ThreadState(threading.get_ident())
            self._tls.state = state
            with self._lock:
                self._states.append(state)
        return state

    # -- recording -------------------------------------------------------------
    def wrap(self, name: str, fn: Callable, *, event: bool = True,
             keep: bool = False,
             args: Optional[Callable[..., dict]] = None) -> Callable:
        """``fn`` wrapped in a span called ``name``.

        ``keep`` retains every duration (for percentiles); ``args``
        maps the call's arguments to the event's ``args`` dict.
        """
        recorder = self

        @functools.wraps(fn)
        def traced(*a, **kw):
            state = recorder._state()
            stack, depth = state.stack, state.depth
            level = depth.get(name, 0)
            depth[name] = level + 1
            span_id = next(recorder._ids) if event else 0
            parent = stack[-1][1] if stack else 0
            cell = [0.0, span_id]
            stack.append(cell)
            start = perf_counter()
            try:
                return fn(*a, **kw)
            finally:
                duration = perf_counter() - start
                stack.pop()
                depth[name] = level
                if stack:
                    stack[-1][0] += duration
                stat = state.stats.get(name)
                if stat is None:
                    stat = state.stats[name] = [0, 0.0, 0.0]
                stat[2] += duration - cell[0]
                if level == 0:
                    stat[0] += 1
                    stat[1] += duration
                if keep:
                    state.durations.setdefault(name, []).append(duration)
                if event and len(recorder.events) < recorder.max_events:
                    extra = args(*a, **kw) if args is not None else None
                    recorder.events.append(
                        (name, state.tid, start, duration, span_id, parent,
                         extra))

        traced.__wrapped__ = fn
        return traced

    def add(self, name: str, seconds: float) -> None:
        """Charge one call timed by a probe to ``name`` (total and self)."""
        stat = self._state().stats.setdefault(name, [0, 0.0, 0.0])
        stat[0] += 1
        stat[1] += seconds
        stat[2] += seconds

    def event(self, name: str, start: float, duration: float,
              **extra) -> None:
        """Record a span timed by the caller (e.g. one served request)."""
        if len(self.events) < self.max_events:
            self.events.append((name, 0, start, duration,
                                next(self._ids), 0, extra or None))

    # -- results ---------------------------------------------------------------
    def stats(self) -> Dict[str, Dict[str, float]]:
        """name -> ``{"calls", "total", "self"}`` merged over threads."""
        merged: Dict[str, list] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, (calls, total, own) in state.stats.items():
                cell = merged.setdefault(name, [0, 0.0, 0.0])
                cell[0] += calls
                cell[1] += total
                cell[2] += own
        return {name: {"calls": c, "total": t, "self": s}
                for name, (c, t, s) in merged.items()}

    def durations(self, name: str) -> List[float]:
        with self._lock:
            states = list(self._states)
        out: List[float] = []
        for state in states:
            out.extend(state.durations.get(name, ()))
        return out

    def chrome_trace(self) -> dict:
        """The recorded events as Chrome ``trace_event`` JSON."""
        events = []
        for name, tid, start, duration, span_id, parent, extra in \
                self.events:
            args = {"id": span_id, "parent": parent}
            if extra:
                args.update(extra)
            events.append({
                "name": name, "cat": name.split(".", 1)[0], "ph": "X",
                "ts": (start - self.origin) * 1e6, "dur": duration * 1e6,
                "pid": os.getpid(), "tid": tid, "args": args,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"capped": len(events) >= self.max_events}}

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)
