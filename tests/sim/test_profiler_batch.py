"""Batched profiler accounting: the flush budget changes nothing.

:class:`repro.sim.profiler.Profiler` buffers each execution's records
and charges them together once :data:`repro.sim.profiler.FLUSH_ELEMENTS`
elements are buffered, and again at ``finish``.  Where the buffer is
cut must not show: charging after every execution, at the default
budget, and only at ``finish`` give the same counters, timeline and
per-execution results.  The buffer stays within the budget plus one
execution's elements, and only ``end_exec`` and ``finish`` charge, so
a span around those two methods measures all of the profiler's work.
"""

import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.arch import AMPERE
from repro.kernels import ParametricGemmConfig, build
from repro.sim import Simulator, interp
from repro.sim import profiler as sim_profiler
from repro.sim.profiler import Profiler

from .reference_oracle import record_lanes
from .test_profiler_oracle import (
    _RF_VIEWS, _VIEWS, _lane_records, _row_records, _Shipped, _stream,
)

#: Flush after every execution, at the default budget, only at finish.
BUDGETS = (0, sim_profiler.FLUSH_ELEMENTS, sys.maxsize)


class _Batched(_Shipped):
    """:class:`_Shipped`, also checking the buffer bound at every
    execution's end, where the buffer is fullest."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.peak = 0

    def begin_exec(self, label, instruction, width, lanes):
        self._held = self._elements()
        super().begin_exec(label, instruction, width, lanes)

    def end_exec(self):
        if self._cur is not None:
            held = self._elements()
            execution = held - self._held
            assert held <= sim_profiler.FLUSH_ELEMENTS + execution
            self.peak = max(self.peak, held)
        super().end_exec()

    def _elements(self):
        return sum(row[4].size for row in self._rows)


def _observed(profiler, profile):
    return (profile.as_dict(), profile.events, profile.dropped_events,
            profiler.returned)


def _charge_stream(ops, max_events):
    """Feed one hypothesis record stream to a fresh profiler."""
    profiler = _Batched(max_events=max_events)
    profiler.begin_block(0)
    for op in ops:
        if op[0] == "block":
            profiler.begin_block(op[1])
            continue
        if op[0] == "barrier":
            profiler.barrier(op[1])
            continue
        kind, label, width, slots, rf_only, seed = op
        rng = np.random.default_rng(seed)
        views = _RF_VIEWS if rf_only else _VIEWS
        profiler.begin_exec(label, f"{label}.instr", width, range(slots))
        if kind == "rows":
            for call in _row_records(rng, views):
                profiler.record_rows(*call)
        else:
            record_lanes(profiler, [(view, kind, lane, offsets)
                                    for view, lane, offsets, kind
                                    in _lane_records(rng, views)
                                    if len(offsets)])
        profiler.end_exec()
    return _observed(profiler, profiler.finish("stream", 4, 96))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=_stream())
def test_record_streams_are_budget_independent(ops):
    for max_events in (3, 100_000):
        seen = []
        for budget in BUDGETS:
            with mock.patch.object(sim_profiler, "FLUSH_ELEMENTS", budget):
                seen.append(_charge_stream(ops, max_events))
        assert seen[0] == seen[1] == seen[2]


def _charge_launch(monkeypatch, max_events):
    """Profile one grid-1 parametric GEMM: 528 executions, 66,048
    buffered elements."""
    profilers = []

    def make():
        profilers.append(_Batched(max_events=max_events))
        return profilers[-1]

    monkeypatch.setattr(interp, "Profiler", make)
    kernel = build(ParametricGemmConfig(32, 32, row_tile=16,
                                        max_grid_rows=1, threads=32))
    rng = np.random.default_rng(0)
    arrays = {"A": (rng.random((16, 32)) - 0.5).astype(np.float16),
              "B": (rng.random((32, 32)) - 0.5).astype(np.float16),
              "C": np.zeros((16, 32), dtype=np.float16)}
    result = Simulator(AMPERE).run(kernel, arrays, symbols={"M": 16},
                                   profile=True)
    (profiler,) = profilers
    return profiler, _observed(profiler, result.profile)


@pytest.mark.parametrize("max_events", [3, 100_000])
def test_launch_is_budget_independent(monkeypatch, max_events):
    seen, peaks = [], []
    for budget in BUDGETS:
        monkeypatch.setattr(sim_profiler, "FLUSH_ELEMENTS", budget)
        profiler, observed = _charge_launch(monkeypatch, max_events)
        seen.append(observed)
        peaks.append(profiler.peak)
    assert seen[0] == seen[1] == seen[2]
    assert len(seen[0][3]) == 528
    # The default budget cuts the launch: it neither charges every
    # execution alone nor holds the whole launch.
    assert peaks[0] < peaks[1] <= BUDGETS[1] + max(peaks[0], 1)
    assert peaks[1] < peaks[2] == 66_048


def test_only_end_exec_and_finish_charge(monkeypatch):
    """A span around ``Profiler.end_exec`` and ``Profiler.finish``
    measures every charge the profiler makes."""
    assert "end_exec" in Profiler.__dict__
    assert "finish" in Profiler.__dict__
    inside, flushes = [], []
    for name in ("end_exec", "finish"):
        raw = Profiler.__dict__[name]

        def spanned(self, *args, _raw=raw, _name=name):
            inside.append(_name)
            try:
                return _raw(self, *args)
            finally:
                inside.pop()

        monkeypatch.setattr(Profiler, name, spanned)
    raw_flush = Profiler._flush

    def flush(self):
        flushes.append(list(inside))
        raw_flush(self)

    monkeypatch.setattr(Profiler, "_flush", flush)
    monkeypatch.setattr(sim_profiler, "FLUSH_ELEMENTS", 1_000)
    _charge_launch(monkeypatch, 100_000)
    assert flushes
    assert all(len(stack) == 1 for stack in flushes), flushes
    assert {stack[0] for stack in flushes} == {"end_exec", "finish"}
