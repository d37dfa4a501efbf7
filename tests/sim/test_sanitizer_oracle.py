"""The shadow-memory sanitizer against the per-element reference.

:mod:`repro.sim.sanitizer` summarises each buffer's accesses and keeps
full record lists only for elements that may conflict.  It must give
the same reports, in the same order, with the same ``suppressed``
count, as the record-list sanitizer it replaced (kept verbatim in
:mod:`tests.sim.sanitizer_oracle`).  Two sources feed both classes one
hook stream: random streams from hypothesis, and real launches teed
through ``Simulator.run`` (and, for the conformance case, the per-lane
:mod:`tests.sim.reference_oracle`) over the conformance library, the
tuner families' candidates, and the barrier-stripped mutants of the
kernels that hold a barrier.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.conformance.harness import default_cases
from repro.ir.stmt import Barrier, walk
from repro.sim import SimulationError, Simulator, strip_barriers
from repro.sim import interp
from repro.sim.sanitizer import Sanitizer, verdict
from repro.tensor import GL, RF, SH
from repro.tuner import get_space

from ..tuner.test_fleet import FAMILY_SHAPES, _arch_for
from . import reference_oracle
from .reference_oracle import ReferenceSimulator
from .sanitizer_oracle import Sanitizer as OracleSanitizer


class Tee:
    """Forwards every interpreter hook to the shadow and oracle sanitizers."""

    def __init__(self, **kwargs):
        self.shadow = Sanitizer(**kwargs)
        self.oracle = OracleSanitizer(**kwargs)

    def declare(self, buffer, mem, size):
        self.shadow.declare(buffer, mem, size)
        self.oracle.declare(buffer, mem, size)

    def begin_block(self, block_id):
        self.shadow.begin_block(block_id)
        self.oracle.begin_block(block_id)

    def enter_spec(self, label):
        self.shadow.enter_spec(label)
        self.oracle.enter_spec(label)

    def barrier(self, scope, divergent_lanes=0):
        self.shadow.barrier(scope, divergent_lanes)
        self.oracle.barrier(scope, divergent_lanes)

    def record(self, *args):
        """An item ``(block, lanes, entries)``, or one lane's accesses
        ``(tensor, block, lane, offsets, kind)`` as a one-lane item."""
        if len(args) == 5:
            tensor, block, lane, offsets, kind = args
            args = (block, (lane,), ((tensor, kind, np.asarray(
                offsets, dtype=np.int64).reshape(1, -1), None, None),))
        self.shadow.record(*args)
        for tensor, block, lane, offsets, kind in _lane_records(*args):
            self.oracle.record(tensor, block, lane, offsets, kind)

    def assert_agree(self, what=""):
        assert verdict(self.shadow) == verdict(self.oracle), what


def _lane_records(block, lanes, entries):
    """An item's per-lane ``record`` calls, lanes-outer entries-inner."""
    kinds = {"bulk_read": "read", "bulk_write": "write"}
    for pos, lane in enumerate(np.asarray(lanes).tolist()):
        for tensor, kind, offs, mask, rows in entries:
            if rows is None:
                i = pos
            else:
                hits = np.flatnonzero(np.asarray(rows) == pos)
                if not hits.size:
                    continue
                i = int(hits[0])
            live = offs[i] if mask is None else offs[i][mask[i]]
            if len(live):
                yield (tensor, block, lane, np.asarray(live).tolist(),
                       kinds.get(kind, kind))


# -- random hook streams ------------------------------------------------------------
class _View:
    def __init__(self, buffer, mem):
        self.buffer = buffer
        self.mem = mem


#: name -> (memory space, declared size or None for undeclared).
_BUFFERS = {
    "g": (GL, 48), "gu": (GL, None),
    "s": (SH, 40), "su": (SH, None),
    "r": (RF, 12), "ru": (RF, None),
}
_VIEWS = {name: _View(name, mem) for name, (mem, _) in _BUFFERS.items()}
_SPECS = [f"spec{i}" for i in range(6)]
#: Few lanes, so streams often revisit a thread: two lanes per warp of
#: three warps.
_LANES = [0, 1, 32, 33, 64, 65]


@st.composite
def _offsets(draw, name):
    size = _BUFFERS[name][1] or 40
    # Lengths fall on both sides of the 32-offset split.  Half the
    # elements come from a hot low window so streams revisit elements,
    # and a quarter of the lists carry a negative or out-of-bounds
    # offset.  Elements come from a drawn seed: drawing each one through
    # hypothesis would dominate the test's run time.
    length = draw(st.sampled_from([0, 1, 2, 4, 6, 31, 32, 33, 40, 48]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    offs = [rng.randrange(6 if rng.random() < 0.5 else size)
            for _ in range(length)]
    if draw(st.integers(0, 3)) == 0:
        stray = draw(st.sampled_from([-3, -1, size, size + 2]))
        offs.insert(draw(st.integers(0, len(offs))), stray)
    return offs


@st.composite
def _hook_stream(draw):
    ops = []
    for _ in range(draw(st.integers(1, 60))):
        op = draw(st.sampled_from(
            ["record"] * 6 + ["block", "barrier", "spec"]))
        if op == "record":
            name = draw(st.sampled_from(sorted(_BUFFERS)))
            offs = draw(_offsets(name))
            ops.append(("record", name, draw(st.sampled_from(_LANES)), offs,
                        draw(st.sampled_from(["read", "read", "write"])),
                        draw(st.booleans())))
        elif op == "block":
            ops.append(("block", draw(st.integers(0, 3))))
        elif op == "barrier":
            ops.append(("barrier", draw(st.sampled_from(["block", "warp"])),
                        draw(st.sampled_from([0, 0, 0, 5]))))
        else:
            ops.append(("spec", draw(st.sampled_from(_SPECS))))
    return ops


def _drive(tee, ops):
    for name, (mem, size) in _BUFFERS.items():
        if size is not None:
            tee.declare(name, mem, size)
    block = 0
    tee.begin_block(block)
    for op in ops:
        if op[0] == "record":
            _, name, lane, offs, kind, as_array = op
            if as_array:
                offs = np.asarray(offs, dtype=np.int64)
            tee.record(_VIEWS[name], block, lane, offs, kind)
        elif op[0] == "item":
            tee.record(block, op[1], op[2])
            tee.assert_agree(op)
        elif op[0] == "block":
            block = op[1]
            tee.begin_block(block)
        elif op[0] == "barrier":
            tee.barrier(op[1], op[2])
        else:
            tee.enter_spec(op[1])


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=_hook_stream(), max_reports=st.sampled_from([4, 64]))
def test_random_hook_streams_match_oracle(ops, max_reports):
    tee = Tee(max_reports=max_reports)
    _drive(tee, ops)
    tee.assert_agree()


# -- random item streams ------------------------------------------------------------
@st.composite
def _item(draw, lanes):
    """One item: 1-4 entries over GL/SH/RF buffers, declared or not.

    Rows are tiled (lane-disjoint), shared by every lane (cross-lane
    overlaps) or random with strays; entries may be masked and may
    cover a subset of the positions.  Most items reuse the stream's
    lanes, so later reads meet earlier writes by the same threads.
    """
    if draw(st.integers(0, 3)) == 0:
        lanes = draw(st.lists(st.sampled_from(_LANES), min_size=1,
                              max_size=6))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    entries = []
    for _ in range(draw(st.integers(1, 4))):
        name = draw(st.sampled_from(sorted(_BUFFERS)))
        size = _BUFFERS[name][1] or 40
        kind = draw(st.sampled_from(
            ["read", "read", "write", "write", "bulk_read", "bulk_write"]))
        width = draw(st.sampled_from([1, 2, 4, 8]))
        positions = list(range(len(lanes)))
        rows = None
        if draw(st.integers(0, 2)) == 0:
            positions = sorted(rng.sample(positions,
                                          rng.randint(1, len(positions))))
            rows = np.array(positions, dtype=np.int64)
        mode = draw(st.sampled_from(["tiled", "tiled", "shared", "random"]))
        if mode == "tiled":
            offs = [[(p * width + j) % size for j in range(width)]
                    for p in positions]
        elif mode == "shared":
            offs = [list(range(width))] * len(positions)
        else:
            offs = [[rng.choice([-1, size, rng.randrange(size)])
                     if rng.random() < 0.1 else rng.randrange(size)
                     for _ in range(width)] for _ in positions]
        offs = np.array(offs, dtype=np.int64).reshape(len(positions), width)
        mask = None
        if draw(st.integers(0, 2)) == 0:
            mask = np.array([[rng.random() < 0.7 for _ in range(width)]
                             for _ in positions], dtype=bool)
            mask = mask.reshape(offs.shape)
        entries.append((_VIEWS[name], kind, offs, mask, rows))
    return lanes, entries


@st.composite
def _item_stream(draw):
    lanes = draw(st.lists(st.sampled_from(_LANES), min_size=1, max_size=6))
    ops = []
    for _ in range(draw(st.integers(1, 16))):
        op = draw(st.sampled_from(["item"] * 6 + ["block", "barrier",
                                                  "spec"]))
        if op == "item":
            ops.append(("item",) + draw(_item(lanes)))
        elif op == "block":
            ops.append(("block", draw(st.integers(0, 2))))
        elif op == "barrier":
            ops.append(("barrier", draw(st.sampled_from(["block", "warp"])),
                        draw(st.sampled_from([0, 0, 0, 5]))))
        else:
            ops.append(("spec", draw(st.sampled_from(_SPECS))))
    return ops


def test_random_items_match_oracle():
    """Whole items against the oracle fed them lane by lane, compared
    after every item; the draws must reach both the batched and the
    walked path."""
    paths = {"batched": 0, "walked": 0}

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=_item_stream(), max_reports=st.sampled_from([4, 64]))
    def check(ops, max_reports):
        tee = Tee(max_reports=max_reports)
        _drive(tee, ops)
        paths["batched"] += tee.shadow.batched
        paths["walked"] += tee.shadow.walked

    check()
    assert paths["batched"] and paths["walked"], paths


@pytest.mark.parametrize("rejected", [False, True])
def test_items_keep_earlier_readers_in_the_summaries(rejected):
    """Thread 1 reads g[5]; an item has thread 0 read it too (batched,
    or rejected by the one-thread rule on g[10] and walked); thread 0's
    later write of g[5] must still race with thread 1's read."""
    g = _VIEWS["g"]
    one = np.array([[5]])
    item = [(g, "read", np.array([[5], [10]]), None, None)]
    if rejected:
        item.append((g, "write", np.array([[10]]), None, np.array([0])))
    tee = Tee()
    _drive(tee, [("item", [1], [(g, "read", one, None, None)]),
                 ("item", [0, 32], item),
                 ("item", [0], [(g, "write", one, None, None)])])
    assert tee.shadow.batched == (0 if rejected else 1)
    assert "war-race" in {r.kind for r in tee.shadow.reports}


@pytest.mark.parametrize("length", [4, 40])
@pytest.mark.parametrize("name", ["g", "s", "r"])
def test_summary_transitions_match_oracle(name, length):
    """Patterns the summaries must track: several readers then one of
    them writing (a WAR race only the first reader can expose), and a
    write then read by one lane (initialized, race-free)."""
    elems = list(range(length))
    ops = [("record", name, lane, elems, "read", length > 32)
           for lane in (0, 32, 1)]
    ops += [("record", name, 1, elems, "write", length > 32),
            ("block", 1),
            ("record", name, 33, elems, "write", length > 32),
            ("record", name, 33, elems[::-1], "read", length > 32)]
    tee = Tee()
    _drive(tee, ops)
    tee.assert_agree()
    kinds = {r.kind for r in tee.shadow.reports}
    assert ("war-race" in kinds) == (name != "r")


def test_report_cap_is_reached_identically():
    """A stream with more distinct findings than the 64-report cap."""
    tee = Tee()
    ops = []
    for i, spec in enumerate(_SPECS):
        ops.append(("spec", spec))
        for name in ("g", "s", "r", "gu", "su"):
            for lane in (1, 40, 70):
                ops.append(("record", name, lane,
                            list(range(-2, 50, 1 + i)), "write", lane > 50))
                ops.append(("record", name, lane + 1,
                            list(range(-3, 45, 2)), "read", lane < 50))
        ops.append(("block", i % 3))
    _drive(tee, ops)
    assert len(tee.shadow.reports) == 64
    assert tee.shadow.suppressed > 0
    tee.assert_agree()


# -- real launches --------------------------------------------------------------------
def _teed_run(monkeypatch, kernel, arrays, symbols, arch,
              simulator=Simulator):
    runs = []

    def make():
        runs.append(Tee())
        return runs[-1]

    monkeypatch.setattr(interp, "Sanitizer", make)
    monkeypatch.setattr(reference_oracle, "Sanitizer", make)
    try:
        simulator(arch).run(
            kernel, {k: np.array(v, copy=True) for k, v in arrays.items()},
            symbols=symbols, sanitize="report")
    except SimulationError:
        # A stripped TMA kernel never drains its bulk copies; the hooks
        # fed up to that point must still agree.
        pass
    (tee,) = runs
    tee.assert_agree(f"{kernel.name} ({simulator.__name__})")
    return tee


def _has_barrier(kernel) -> bool:
    return any(isinstance(stmt, Barrier) for stmt in walk(kernel.body))


def _launch_and_mutant(monkeypatch, kernel, arrays, symbols, arch,
                       simulator=Simulator):
    """Tee a launch and, when the kernel holds a barrier, its
    barrier-stripped mutant (without one the mutant is the same
    launch).  Returns the clean tee and the mutant's, or None."""
    clean = _teed_run(monkeypatch, kernel, arrays, symbols, arch, simulator)
    if not _has_barrier(kernel):
        return clean, None
    return clean, _teed_run(monkeypatch, strip_barriers(kernel), arrays,
                            symbols, arch, simulator)


_CASES = {case.name: case for case in default_cases()}


def test_conformance_case_and_mutant_match_oracle(monkeypatch):
    case = _CASES["gemm_ampere"]
    for simulator in (Simulator, ReferenceSimulator):
        clean, mutant = _launch_and_mutant(
            monkeypatch, case.kernel, case.arrays, case.symbols, case.arch,
            simulator)
        assert clean.shadow.clean() and not mutant.shadow.clean()


@pytest.mark.parametrize("family", ["layernorm", "lstm"])
def test_gate_candidate_and_mutant_match_oracle(monkeypatch, family):
    """The tuner gate's traffic: a fast family's head candidate.  The
    layernorm kernels carry no barrier, so they have no mutant; lstm's
    mutant races and walks."""
    space = get_space(family)
    arch = _arch_for(family)
    shape = space.validate_shape(FAMILY_SHAPES[family])
    candidate = next(iter(space.candidates(shape, arch)))
    vshape = space.verification_shape(candidate, shape)
    kernel = space.build(candidate, vshape)
    bindings, _ = space.verification_problem(candidate, vshape, 0)
    symbols = space.verification_symbols(candidate, vshape)
    clean, mutant = _launch_and_mutant(monkeypatch, kernel, bindings,
                                       symbols, arch)
    assert clean.shadow.clean()
    assert clean.shadow.batched and not clean.shadow.walked
    if family == "layernorm":
        assert mutant is None
    else:
        assert not mutant.shadow.clean()


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(_CASES))
def test_conformance_library_matches_oracle(monkeypatch, name):
    case = _CASES[name]
    _launch_and_mutant(monkeypatch, case.kernel, case.arrays, case.symbols,
                       case.arch)


#: Candidates checked per tuner family (the head of its space).
_CANDIDATES_PER_FAMILY = 5
#: Tuner families whose kernels hold no barrier, so have no mutant.
_BARRIER_FREE_FAMILIES = {"gemm_naive", "gemm_parametric", "layernorm",
                          "softmax"}


@pytest.mark.slow
@pytest.mark.parametrize("family", sorted(FAMILY_SHAPES))
def test_tuner_candidates_match_oracle(monkeypatch, family):
    space = get_space(family)
    arch = _arch_for(family)
    shape = space.validate_shape(FAMILY_SHAPES[family])
    mutants = 0
    for i, candidate in enumerate(space.candidates(shape, arch)):
        if i == _CANDIDATES_PER_FAMILY:
            break
        vshape = space.verification_shape(candidate, shape)
        kernel = space.build(candidate, vshape)
        bindings, _ = space.verification_problem(candidate, vshape, 0)
        symbols = space.verification_symbols(candidate, vshape)
        _, mutant = _launch_and_mutant(monkeypatch, kernel, bindings,
                                       symbols, arch)
        mutants += mutant is not None
    # Mutant coverage of the gate must not vanish silently.
    assert (mutants > 0) == (family not in _BARRIER_FREE_FAMILIES)
