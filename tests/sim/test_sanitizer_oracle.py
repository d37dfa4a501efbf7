"""The shadow-memory sanitizer against the per-element reference.

:mod:`repro.sim.sanitizer` summarises each buffer's accesses and keeps
full record lists only for elements that may conflict.  It must give
the same reports, in the same order, with the same ``suppressed``
count, as the record-list sanitizer it replaced (kept verbatim in
:mod:`tests.sim.sanitizer_oracle`).  Two sources feed both classes one
hook stream: random streams from hypothesis, and real launches teed
through ``Simulator.run`` over the conformance library, the tuner
families' candidates, and their barrier-stripped mutants.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.conformance.harness import default_cases
from repro.sim import RunOptions, SimulationError, Simulator, strip_barriers
from repro.sim import interp
from repro.sim.sanitizer import Sanitizer, verdict
from repro.tensor import GL, RF, SH
from repro.tuner import get_space

from ..tuner.test_fleet import FAMILY_SHAPES, _arch_for
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

    def record(self, tensor, block, lane, offsets, kind):
        self.shadow.record(tensor, block, lane, offsets, kind)
        if isinstance(offsets, np.ndarray):
            offsets = offsets.tolist()
        self.oracle.record(tensor, block, lane, offsets, kind)

    def assert_agree(self, what=""):
        assert verdict(self.shadow) == verdict(self.oracle), what


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
def _teed_run(monkeypatch, kernel, arrays, symbols, arch, engine):
    runs = []

    def make():
        runs.append(Tee())
        return runs[-1]

    monkeypatch.setattr(interp, "Sanitizer", make)
    try:
        Simulator(arch).run(
            kernel, {k: np.array(v, copy=True) for k, v in arrays.items()},
            symbols=symbols,
            options=RunOptions(sanitize="report", engine=engine))
    except SimulationError:
        # A stripped TMA kernel never drains its bulk copies; the hooks
        # fed up to that point must still agree.
        pass
    (tee,) = runs
    tee.assert_agree(f"{kernel.name} ({engine})")
    return tee


def _launch_and_mutant(monkeypatch, kernel, arrays, symbols, arch,
                       engine="vectorized"):
    clean = _teed_run(monkeypatch, kernel, arrays, symbols, arch, engine)
    _teed_run(monkeypatch, strip_barriers(kernel), arrays, symbols, arch,
              engine)
    return clean


_CASES = {case.name: case for case in default_cases()}


def test_conformance_case_and_mutant_match_oracle(monkeypatch):
    case = _CASES["gemm_ampere"]
    for engine in ("vectorized", "reference"):
        clean = _launch_and_mutant(monkeypatch, case.kernel, case.arrays,
                                   case.symbols, case.arch, engine)
        assert clean.shadow.clean()


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(_CASES))
def test_conformance_library_matches_oracle(monkeypatch, name):
    case = _CASES[name]
    _launch_and_mutant(monkeypatch, case.kernel, case.arrays, case.symbols,
                       case.arch)


#: Candidates checked per tuner family (the head of its space).
_CANDIDATES_PER_FAMILY = 5


@pytest.mark.slow
@pytest.mark.parametrize("family", sorted(FAMILY_SHAPES))
def test_tuner_candidates_match_oracle(monkeypatch, family):
    space = get_space(family)
    arch = _arch_for(family)
    shape = space.validate_shape(FAMILY_SHAPES[family])
    for i, candidate in enumerate(space.candidates(shape, arch)):
        if i == _CANDIDATES_PER_FAMILY:
            break
        vshape = space.verification_shape(candidate, shape)
        kernel = space.build(candidate, vshape)
        bindings, _ = space.verification_problem(candidate, vshape, 0)
        symbols = space.verification_symbols(candidate, vshape)
        _launch_and_mutant(monkeypatch, kernel, bindings, symbols, arch)
