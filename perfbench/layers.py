"""The traced run's spans: which public function of which layer.

Every patch goes where the caller looks the name up — ``lower.py``
imports ``partition`` and ``build`` by name, the executor imports
``count_kernel``, the serve layer imports ``record_trace`` — so the
span sits on that module attribute; methods are patched on their class.
:class:`Tracing` installs the spans and restores every original on
exit, so the untraced run executes the unmodified program.

The per-layer metrics and the end-to-end metric each one should move
are listed in ``README.md``.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.graph import executor as graph_executor
from repro.graph import lower as graph_lower
from repro.graph import reference as graph_reference
from repro.perfmodel import model as perfmodel_model
from repro.serve import graph as serve_graph
from repro.sim.plan import LaunchPlan, PlanCache
from repro.sim.interp import Simulator
from repro.sim.profiler import Profiler
from repro.sim.sanitizer import Sanitizer
from repro.sim.trace import PlanTrace
from repro.tuner import search as tuner_search
from repro.tuner import verify as tuner_verify
from repro.tuner.space import SPACES

from spans import Recorder

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str]] = [
    ("graph.lower.s", "s"),
    ("graph.fuse.s", "s"),
    ("graph.execute.self_s", "s"),
    ("graph.reference.s", "s"),
    ("graph.groups_checked", "count"),
    ("graph.groups_passed", "count"),
    ("kernels.build.calls", "count"),
    ("kernels.build.s", "s"),
    ("perfmodel.estimate.calls", "count"),
    ("perfmodel.estimate.s", "s"),
    ("perfmodel.count.s", "s"),
    ("sim.run.calls", "count"),
    ("sim.run.s", "s"),
    ("sim.plan_cache.lookups", "count"),
    ("sim.plan_cache.hit_ratio", "ratio"),
    ("sim.plan_compile.s", "s"),
    ("sim.replay.self_s", "s"),
    ("sim.profiler.calls", "count"),
    ("sim.profiler.s", "s"),
    ("sim.sanitizer.s", "s"),
    ("sim.trace.record.s", "s"),
    ("sim.trace.replay.s", "s"),
    ("serve.capture.calls", "count"),
    ("serve.capture.s", "s"),
    ("serve.replay.p50_ms", "ms"),
    ("serve.queue_wait.p50_ms", "ms"),
    ("serve.queue_wait.p95_ms", "ms"),
    ("serve.batch_size.mean", "count"),
    ("serve.graph_hit_ratio", "ratio"),
    ("serve.gen_late.p95_ms", "ms"),
    ("tuner.search.evaluated", "count"),
    ("tuner.search.eval_ratio", "ratio"),
    ("tuner.gate.calls", "count"),
    ("tuner.gate.s", "s"),
    ("tuner.gate.pass_ratio", "ratio"),
    ("tuner.transfer.hit_ratio", "ratio"),
    ("net.sim_us", "us"),
    ("tune.winner_us", "us"),
    ("trace.overhead", "ratio"),
]

#: Sanitizer hooks run once per lane and access: statistics only.
_SANITIZER_HOOKS = ("declare", "begin_block", "enter_spec", "barrier",
                    "record", "raise_if_dirty")


class Tracing:
    """Installs the layer spans on enter and removes them on exit.

    ``request_ids`` maps ``id(bindings)`` of each served request to its
    request number: ``CapturedGraph.replay`` receives the very dict
    passed to ``submit``, so the replay span (on a pool thread) carries
    the id of the request that caused it.
    """

    def __init__(self, recorder: Recorder,
                 request_ids: Optional[Dict[int, int]] = None):
        self.recorder = recorder
        self.request_ids = request_ids if request_ids is not None else {}
        self._saved: List[Tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, name: str, **opts) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.recorder.wrap(name, raw.__func__,
                                                     **opts))
        else:
            wrapped = self.recorder.wrap(name, raw, **opts)
        setattr(owner, attr, wrapped)

    def _probe_plan_cache(self) -> None:
        """``PlanCache.lookup``, with the time of a miss as plan compile."""
        recorder = self.recorder
        original = PlanCache.__dict__["lookup"]

        def lookup(cache, *args, **kwargs):
            misses = cache.stats.misses
            start = perf_counter()
            plan = original(cache, *args, **kwargs)
            if cache.stats.misses != misses:
                recorder.add("sim.plan_compile", perf_counter() - start)
            return plan

        self._saved.append((PlanCache, "lookup", original))
        PlanCache.lookup = recorder.wrap("sim.plan_cache.lookup", lookup)

    def __enter__(self) -> "Tracing":
        request_ids = self.request_ids
        patch = self._patch
        patch(graph_lower, "lower_network", "graph.lower")
        patch(graph_lower, "partition", "graph.fuse")
        patch(graph_lower, "build", "kernels.build")
        patch(graph_lower, "estimate_kernel", "perfmodel.estimate")
        patch(graph_executor, "execute", "graph.execute")
        patch(graph_executor, "count_kernel", "perfmodel.count")
        for attr in dir(graph_reference):
            if attr.endswith("_ref") and not attr.startswith("_"):
                patch(graph_reference, attr, "graph.reference")
        for cls in sorted(set(SPACES.values()), key=lambda c: c.__name__):
            if "build" in cls.__dict__:
                patch(cls, "build", "kernels.build")
        patch(tuner_search, "estimate_kernel", "perfmodel.estimate")
        patch(perfmodel_model, "count_kernel", "perfmodel.count")
        patch(tuner_verify, "check_candidate", "tuner.gate")
        patch(Simulator, "run", "sim.run")
        self._probe_plan_cache()
        patch(LaunchPlan, "replay", "sim.replay")
        patch(Profiler, "end_exec", "sim.profiler", event=False)
        patch(Profiler, "finish", "sim.profiler")
        for hook in _SANITIZER_HOOKS:
            patch(Sanitizer, hook, "sim.sanitizer", event=False)
        patch(serve_graph, "record_trace", "sim.trace.record")
        patch(PlanTrace, "replay", "sim.trace.replay")
        patch(serve_graph.CapturedGraph, "capture", "serve.capture")
        patch(serve_graph.CapturedGraph, "replay", "serve.replay", keep=True,
              args=lambda graph, bindings, **_: {
                  "request": request_ids.get(id(bindings), -1)})
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()


def span_metrics(recorder: Recorder) -> Dict[str, float]:
    """The per-layer metrics that come from spans alone."""
    stats = recorder.stats()

    def get(name: str, field: str) -> float:
        return stats.get(name, {}).get(field, 0)

    lookups = get("sim.plan_cache.lookup", "calls")
    misses = get("sim.plan_compile", "calls")
    replays = recorder.durations("serve.replay")
    return {
        "graph.lower.s": get("graph.lower", "total"),
        "graph.fuse.s": get("graph.fuse", "total"),
        "graph.execute.self_s": get("graph.execute", "self"),
        "graph.reference.s": get("graph.reference", "total"),
        "kernels.build.calls": get("kernels.build", "calls"),
        "kernels.build.s": get("kernels.build", "total"),
        "perfmodel.estimate.calls": get("perfmodel.estimate", "calls"),
        "perfmodel.estimate.s": get("perfmodel.estimate", "total"),
        "perfmodel.count.s": get("perfmodel.count", "total"),
        "sim.run.calls": get("sim.run", "calls"),
        "sim.run.s": get("sim.run", "total"),
        "sim.plan_cache.lookups": lookups,
        "sim.plan_cache.hit_ratio":
            (lookups - misses) / lookups if lookups else 0.0,
        "sim.plan_compile.s": get("sim.plan_compile", "total"),
        "sim.replay.self_s": get("sim.replay", "self"),
        "sim.profiler.calls": get("sim.profiler", "calls"),
        "sim.profiler.s": get("sim.profiler", "total"),
        "sim.sanitizer.s": get("sim.sanitizer", "total"),
        "sim.trace.record.s": get("sim.trace.record", "total"),
        "sim.trace.replay.s": get("sim.trace.replay", "total"),
        "serve.capture.calls": get("serve.capture", "calls"),
        "serve.capture.s": get("serve.capture", "total"),
        "serve.replay.p50_ms":
            statistics.median(replays) * 1e3 if replays else 0.0,
        "tuner.gate.calls": get("tuner.gate", "calls"),
        "tuner.gate.s": get("tuner.gate", "total"),
    }
