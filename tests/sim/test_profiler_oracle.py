"""The vectorized profiler accounting against the per-lane walk.

:class:`repro.sim.profiler.Profiler` charges each ``(memory, buffer,
kind)`` group of an execution in one numpy pass.  It must give the same
counters, the same timeline, and the same per-execution active-lane and
transaction counts as the per-lane walk it replaced (kept in
:mod:`tests.sim.profiler_oracle`).  Two sources feed both classes one
record stream: random streams from hypothesis, in the per-lane form
(which the shipped profiler receives stacked by
:func:`tests.sim.reference_oracle.record_lanes`) and the plan engine's
row-matrix form, and real launches teed through ``Simulator.run``, the
per-lane :mod:`tests.sim.reference_oracle` and graph replay over the
conformance library, the fuzz corpus and the serve catalog.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch import architecture
from repro.conformance.harness import default_cases
from repro.serve.graph import CapturedGraph
from repro.serve.workload import serve_catalog
from repro.sim import RunOptions, Simulator
from repro.sim import interp
from repro.sim import trace as sim_trace
from repro.sim.profiler import Profiler
from repro.tensor import GL, RF, SH

from . import reference_oracle
from .profiler_oracle import Profiler as OracleProfiler
from .reference_oracle import ReferenceSimulator, record_lanes
from .test_plan import _fuzz_cases


class _Shipped(Profiler):
    """The shipped profiler, keeping what each execution's accounting
    returned."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.returned = []

    def _account(self, counters, records):
        result = super()._account(counters, records)
        self.returned.append(result)
        return result


class Tee:
    """Forwards every profiler hook to the shipped and oracle profilers."""

    def __init__(self, **kwargs):
        self.shipped = _Shipped(**kwargs)
        self.oracle = OracleProfiler(**kwargs)
        self.profiles = None
        self._lane_records = []

    def begin_block(self, block_id):
        self.shipped.begin_block(block_id)
        self.oracle.begin_block(block_id)

    def begin_exec(self, label, instruction, width, lanes):
        self.shipped.begin_exec(label, instruction, width, lanes)
        self.oracle.begin_exec(label, instruction, width, lanes)

    def record(self, tensor, lane, offsets, kind):
        """One lane's accesses: the oracle walks it as is, the shipped
        profiler gets the execution's lanes stacked at ``end_exec``."""
        if len(offsets):
            self._lane_records.append((tensor, kind, lane, offsets))
        self.oracle.record(tensor, lane, offsets, kind)

    def record_rows(self, tensor, kind, lanes, offsets, mask, order):
        self.shipped.record_rows(tensor, kind, lanes, offsets, mask, order)
        self.oracle.record_rows(tensor, kind, lanes, offsets, mask, order)

    def barrier(self, scope):
        self.shipped.barrier(scope)
        self.oracle.barrier(scope)

    def end_exec(self):
        record_lanes(self.shipped, self._lane_records)
        self._lane_records = []
        self.shipped.end_exec()
        self.oracle.end_exec()

    def finish(self, kernel_name, grid_size, block_size):
        self.profiles = (
            self.shipped.finish(kernel_name, grid_size, block_size),
            self.oracle.finish(kernel_name, grid_size, block_size),
        )
        return self.profiles[0]

    def assert_agree(self, what=""):
        shipped, oracle = self.profiles
        assert self.shipped.returned == self.oracle.returned, what
        assert shipped.as_dict() == oracle.as_dict(), what
        assert shipped.events == oracle.events, what
        assert shipped.dropped_events == oracle.dropped_events, what


# -- random record streams ------------------------------------------------------------
class _DType:
    def __init__(self, nbytes):
        self.bytes = nbytes


class _View:
    def __init__(self, mem, itemsize, buffer=None):
        self.mem = mem
        self.buffer = buffer or f"{mem.label}{itemsize}"
        self.dtype = _DType(itemsize)


ITEMSIZES = (1, 2, 4, 8)
#: One buffer per memory space and element size, plus a buffer per
#: memory space that views of two element sizes share.
_VIEWS = [_View(mem, size) for mem in (GL, SH, RF) for size in ITEMSIZES]
_VIEWS += [_View(mem, size, f"{mem.label}mixed")
           for mem in (GL, SH) for size in (2, 4)]
_RF_VIEWS = [view for view in _VIEWS if view.mem is RF]
_KINDS = ["read", "write", "read", "write", "bulk_read", "bulk_write"]
_LABELS = ["spec0", "spec1", "spec2"]
_WIDTHS = [1, 1, 2, 3, 4, 5, 8, 9, 16, 17, 33]


def _offsets(rng, nrows, width):
    """A ``(nrows, width)`` offset matrix in one of four shapes.

    Offsets come from a window small enough that lanes share sectors
    and banks, and the shapes cover whole runs, strides, runs broken at
    random places, and arbitrary (repeating) offsets.
    """
    starts = rng.integers(0, 160, size=(nrows, 1))
    shape = rng.integers(4)
    if shape == 0 or width == 0:
        return starts + np.arange(width)
    if shape == 1:
        return starts + int(rng.integers(2, 40)) * np.arange(width)
    if shape == 2:
        steps = np.where(rng.random((nrows, width)) < 0.8, 1,
                         rng.integers(-8, 40, size=(nrows, width)))
        steps[:, 0] = 0
        return np.abs(starts + np.cumsum(steps, axis=1))
    return rng.integers(0, 96, size=(nrows, width))


def _mask(rng, nrows, width):
    """None, or a guard mask with some fully masked rows."""
    if rng.random() < 0.5:
        return None
    mask = rng.random((nrows, width)) < 0.7
    mask[rng.random(nrows) < 0.2] = False
    return mask


def _lanes(rng, nrows):
    """Lane ids over three warps, with repeats."""
    if rng.random() < 0.3:
        return rng.integers(0, 70, size=nrows)
    first = int(rng.integers(0, 40))
    return np.arange(first, first + nrows)


def _row_records(rng, views):
    """One execution's ``record_rows`` calls, shaped as the plan engine
    makes them: items of one or more entries over a master row set
    (filtered writes keep a subset), or single entries in their own
    order."""
    calls = []
    slot = 0
    for _ in range(int(rng.integers(0, 4))):
        nrows = int(rng.integers(1, 40))
        lanes = _lanes(rng, nrows)
        master = slot + np.arange(nrows)
        for _ in range(1 if rng.random() < 0.3 else int(rng.integers(1, 4))):
            view = views[int(rng.integers(len(views)))]
            width = _WIDTHS[int(rng.integers(len(_WIDTHS)))]
            kind = _KINDS[int(rng.integers(len(_KINDS)))]
            keep = np.ones(nrows, dtype=bool)
            if rng.random() < 0.3:
                keep = rng.random(nrows) < 0.6
            rows = int(keep.sum())
            calls.append((view, kind, lanes[keep],
                          _offsets(rng, rows, width).astype(np.int64),
                          _mask(rng, rows, width), master[keep]))
        slot += nrows
    return calls


def _lane_records(rng, views):
    """One execution's per-lane ``record`` calls, as lists or arrays."""
    calls = []
    for _ in range(int(rng.integers(0, 50))):
        view = views[int(rng.integers(len(views)))]
        width = _WIDTHS[int(rng.integers(len(_WIDTHS)))] \
            if rng.random() < 0.9 else 0
        offsets = _offsets(rng, 1, width)[0]
        calls.append((view, int(_lanes(rng, 1)[0]),
                      offsets.tolist() if rng.random() < 0.5 else offsets,
                      _KINDS[int(rng.integers(len(_KINDS)))]))
    return calls


@st.composite
def _stream(draw):
    ops = []
    for _ in range(draw(st.integers(1, 12))):
        op = draw(st.sampled_from(["rows", "rows", "lanes", "block",
                                   "barrier"]))
        if op in ("rows", "lanes"):
            ops.append((op, draw(st.sampled_from(_LABELS)),
                        draw(st.sampled_from([1, 1, 32])),
                        draw(st.integers(1, 64)),
                        draw(st.booleans()),
                        draw(st.integers(0, 2 ** 32))))
        elif op == "block":
            ops.append((op, draw(st.integers(0, 3))))
        else:
            ops.append((op, draw(st.sampled_from(["block", "warp"]))))
    return ops


def _drive(tee, ops):
    tee.begin_block(0)
    for op in ops:
        if op[0] == "block":
            tee.begin_block(op[1])
            continue
        if op[0] == "barrier":
            tee.barrier(op[1])
            continue
        kind, label, width, slots, rf_only, seed = op
        rng = np.random.default_rng(seed)
        views = _RF_VIEWS if rf_only else _VIEWS
        tee.begin_exec(label, f"{label}.instr", width, range(slots))
        if kind == "rows":
            for call in _row_records(rng, views):
                tee.record_rows(*call)
        else:
            for call in _lane_records(rng, views):
                tee.record(*call)
        tee.end_exec()
        assert tee.shipped._specs[label].as_dict() == \
            tee.oracle._specs[label].as_dict()
    tee.finish("stream", 4, 96)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=_stream(), max_events=st.sampled_from([3, 100_000]))
def test_random_record_streams_match_oracle(ops, max_events):
    tee = Tee(max_events=max_events)
    _drive(tee, ops)
    tee.assert_agree()


def _interleaved_reads(tee, entries_outer):
    """Two shared reads of one item: 12 bytes then 4 bytes per lane."""
    view = _View(SH, 4)
    lanes = np.arange(16)
    order = np.arange(16)
    wide = (4 * lanes)[:, None] + np.arange(3)
    narrow = (4 * lanes + 3)[:, None]
    tee.begin_block(0)
    tee.begin_exec("ld", "ld.shared", 1, lanes)
    tee.record_rows(view, "read", lanes, wide, None, order)
    tee.record_rows(view, "read", lanes, narrow, None,
                    order + 16 if entries_outer else order)
    tee.end_exec()
    tee.finish("ld", 1, 32)
    tee.assert_agree()
    return tee.profiles[0].specs["ld"]


def test_entries_of_one_item_interleave_per_lane():
    """Lane by lane the two entries move 16 bytes per lane, so lanes 0-7
    and 8-15 each fill one wavefront; entries-outer order would pack
    the 12-byte segments first and need a third."""
    assert _interleaved_reads(Tee(), False).shared_load_wavefronts == 2
    assert _interleaved_reads(Tee(), True).shared_load_wavefronts == 3


# -- real launches --------------------------------------------------------------------
def _teed(monkeypatch, *modules):
    """Make each module's ``Profiler`` build tees; return the list they
    join."""
    tees = []

    def make():
        tees.append(Tee())
        return tees[-1]

    for module in modules:
        monkeypatch.setattr(module, "Profiler", make)
    return tees


def _teed_run(monkeypatch, kernel, arrays, symbols, arch,
              simulator=Simulator):
    tees = _teed(monkeypatch, interp, reference_oracle)
    simulator(arch).run(
        kernel, {k: np.array(v, copy=True) for k, v in arrays.items()},
        symbols=symbols, options=RunOptions(profile=True))
    (tee,) = tees
    tee.assert_agree(f"{kernel.name} ({simulator.__name__})")
    return tee


_CASES = {case.name: case for case in default_cases()}


@pytest.mark.parametrize("name", ["gemm_ampere_swizzled", "moves_ldmatrix",
                                  "gemm_fp8_hopper"])
def test_conformance_case_matches_oracle(monkeypatch, name):
    """An ldmatrix/swizzle GEMM, the ldmatrix move family, and a Hopper
    TMA kernel (bulk traffic), each on the plan engine and the per-lane
    reference oracle."""
    case = _CASES[name]
    for simulator in (Simulator, ReferenceSimulator):
        _teed_run(monkeypatch, case.kernel, case.arrays, case.symbols,
                  case.arch, simulator)


@pytest.mark.slow
@pytest.mark.parametrize("simulator", [Simulator, ReferenceSimulator],
                         ids=["vectorized", "reference"])
@pytest.mark.parametrize("name", sorted(_CASES))
def test_conformance_library_matches_oracle(monkeypatch, name, simulator):
    case = _CASES[name]
    _teed_run(monkeypatch, case.kernel, case.arrays, case.symbols,
              case.arch, simulator)


@pytest.mark.slow
@pytest.mark.parametrize("arch", ["volta", "ampere", "hopper"])
@pytest.mark.parametrize("case", _fuzz_cases(), ids=lambda c: c.name)
def test_fuzz_corpus_matches_oracle(monkeypatch, case, arch):
    _teed_run(monkeypatch, case.kernel, case.arrays, case.symbols or {},
              architecture(arch))


@pytest.mark.slow
@pytest.mark.parametrize("family", serve_catalog(), ids=lambda f: f.name)
def test_serve_catalog_replay_matches_oracle(monkeypatch, family):
    bindings = family.make_bindings(np.random.default_rng(0))
    graph = CapturedGraph.capture(family.kernel, family.arch,
                                  family.symbols, bindings)
    tees = _teed(monkeypatch, sim_trace)
    graph.replay(bindings, profile=True)
    (tee,) = tees
    tee.assert_agree(family.name)
