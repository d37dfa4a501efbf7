"""Block translation: a recorded launch runs block 0 through its plan and
blocks 1..N from block 0's trace when a static proof allows it.

The proof (:attr:`repro.sim.plan.LaunchPlan.shared_control` and
:func:`repro.sim.trace._proven_shifts`) must be sound: wherever it
holds, the recorder's dynamic translation check passes block by block,
with the same shifts.  And where it holds, the fast path must change
nothing: outputs, trace replays, profiles and timelines (at the default
``max_events`` and at 3) equal a full plan replay's, forced by making
the proof refuse.  Checked for every grid>1 launch of the benchmark's
roster lowerings, every serve-catalog family and ``default_cases``;
the fuzz corpus and its barrier-stripped mutants are ``slow``.
"""

from collections import namedtuple
from unittest import mock

import numpy as np
import pytest

from repro.arch import architecture
from repro.conformance.harness import default_cases
from repro.serve.workload import serve_catalog
from repro.sim import trace as trace_mod
from repro.sim.interp import bind_launch
from repro.sim.machine import Machine
from repro.sim.plan import LaunchPlan
from repro.sim.profiler import Profiler
from repro.sim.sanitizer import Sanitizer, strip_barriers

from ..graph.shared import SharedNetwork
from .test_plan import _fuzz_cases

#: The networks the benchmark's ``networks`` workload runs.
ROSTER = ["BERT-base", "BERT-large", "GPT-2-decode"]

#: The timeline bounds every profile is compared at.
MAX_EVENTS = (100_000, 3)


def _arrays(kernel, symbols, rng):
    """Random data for every parameter, at its layout's extent."""
    arrays = {}
    for param in kernel.params:
        size = param.layout.cosize()
        if not isinstance(size, int):
            size = size.evaluate(symbols)
        arrays[param.name] = (rng.random(size) - 0.5).astype(
            param.dtype.np_dtype)
    return arrays


def _roster_launches(name):
    lowered = SharedNetwork(name).lower()
    rng = np.random.default_rng(0)
    return [(f"{name}:{i}:{launch.kernel.name}", launch.kernel, lowered.arch,
             dict(launch.symbols or {}),
             _arrays(launch.kernel, launch.symbols or {}, rng))
            for i, launch in enumerate(lowered.launches)]


def _catalog_launches():
    return [(family.name, family.kernel, family.arch,
             dict(family.symbols or {}),
             family.make_bindings(np.random.default_rng(0)))
            for family in serve_catalog()]


def _case_launches(cases, arch=None, stripped=False):
    return [(case.name,
             strip_barriers(case.kernel) if stripped else case.kernel,
             arch or case.arch, dict(case.symbols or {}), case.arrays)
            for case in cases]


SOURCES = {
    **{name: (lambda name=name: _roster_launches(name)) for name in ROSTER},
    "serve-catalog": _catalog_launches,
    "default-cases": lambda: _case_launches(default_cases(seed=0)),
}


class _Both:
    """Feeds every profiler hook to one profiler per :data:`MAX_EVENTS`."""

    def __init__(self):
        self.profilers = [Profiler(max_events=n) for n in MAX_EVENTS]
        self.repeated = False

    def repeat_block(self, block_ids):
        self.repeated = True
        for profiler in self.profilers:
            profiler.repeat_block(block_ids)

    def __getattr__(self, name):
        hooks = [getattr(p, name) for p in self.profilers]

        def call(*args):
            for hook in hooks:
                hook(*args)
        return call

    def finish(self, kernel):
        return [p.finish(kernel.name, kernel.grid_size(), kernel.block_size())
                for p in self.profilers]


#: One recording: the bound arrays, the trace, the profiles (one per
#: :data:`MAX_EVENTS`), whether blocks 1..N were charged as block 0, the
#: recorder and the plan.
Recording = namedtuple(
    "Recording", "arrays trace profiles repeated recorder plan")


def _record(kernel, arch, symbols, arrays, *, prove, profile=True):
    """Record one launch over copies of ``arrays``, as shipped or with
    the proof refusing."""
    arrays = {k: np.array(v, copy=True) for k, v in arrays.items()}
    machine = Machine()
    bind_launch(kernel, arrays, symbols, machine)
    plan = LaunchPlan(kernel, arch)
    profiler = _Both() if profile else None
    recorders = []
    finish = trace_mod._TraceRecorder.finish

    def spy(self, *args):
        recorders.append(self)
        return finish(self, *args)

    with mock.patch.object(trace_mod._TraceRecorder, "finish", spy):
        if prove:
            trace = trace_mod.record_trace(plan, machine, symbols, None,
                                           profiler)
        else:
            with mock.patch.object(trace_mod, "_proven_shifts",
                                   lambda *args: None):
                trace = trace_mod.record_trace(plan, machine, symbols, None,
                                               profiler)
    profiles = profiler.finish(kernel) if profile else None
    repeated = profile and profiler.repeated
    return Recording(arrays, trace, profiles, repeated, recorders[0], plan)


def _proof(recorder, plan, symbols, profiled):
    if not plan.shared_control:
        return None
    return trace_mod._proven_shifts(recorder.template, plan.grid_size,
                                    symbols, profiled)


@pytest.fixture(scope="module", params=list(SOURCES))
def recorded(request):
    """Every grid>1 launch of a source, recorded with the proof refused
    (every block through the plan) and as shipped, both profiled."""
    runs = []
    for name, kernel, arch, symbols, arrays in SOURCES[request.param]():
        if kernel.grid_size() == 1:
            continue
        runs.append((name, symbols,
                     _record(kernel, arch, symbols, arrays, prove=False),
                     _record(kernel, arch, symbols, arrays, prove=True)))
    assert runs
    return request.param, runs


def _assert_sound(name, recorder, plan, symbols):
    """Wherever the static proof holds, every block passed the
    recorder's dynamic check with the proven shifts."""
    proofs = [_proof(recorder, plan, symbols, profiled)
              for profiled in (False, True)]
    if proofs[1] is not None:
        assert proofs[0] is not None, name  # alignment only narrows
    if proofs[0] is None:
        return False
    blocks = recorder._blocks
    assert len(blocks) == plan.grid_size, name
    for bid, block in enumerate(blocks):
        assert isinstance(block, list), (name, bid)
        assert list(proofs[0][bid]) == (block or [0] * proofs[0].shape[1]), \
            (name, bid)
    return True


def test_static_proof_implies_dynamic_match(recorded):
    source, runs = recorded
    proven = 0
    for name, symbols, forced, _ in runs:
        proven += _assert_sound(name, forced.recorder, forced.plan, symbols)
    if source in ROSTER:
        # Every grid>1 launch of the roster translates.
        assert proven == len(runs), source


def _replayed(arrays, trace, seed):
    rng = np.random.default_rng(seed)
    for arr in arrays.values():
        arr[...] = (rng.random(arr.shape) - 0.5).astype(arr.dtype)
    trace.replay()
    return {k: v.tobytes() for k, v in arrays.items()}


def _observed(profile):
    return profile.as_dict(), profile.events, profile.dropped_events


def test_fast_path_changes_nothing(recorded):
    source, runs = recorded
    fast_families = set()
    for name, _, forced, fast in runs:
        assert not forced.repeated, name
        if fast.repeated:
            fast_families.add(name)
        for got, want in zip(fast.arrays.values(), forced.arrays.values()):
            assert got.tobytes() == want.tobytes(), name
        assert _replayed(fast.arrays, fast.trace, 3) == \
            _replayed(forced.arrays, forced.trace, 3), name
        for got, want in zip(fast.profiles, forced.profiles):
            assert _observed(got) == _observed(want), name
    if source in ROSTER:
        assert len(fast_families) == len(runs), source
    if source == "serve-catalog":
        # gemm_naive's blocks move by half sectors: profiled, it takes
        # the plan path; unprofiled it translates.
        assert fast_families == {"layernorm"}


def test_misaligned_shifts_translate_only_unprofiled():
    (family,) = [f for f in serve_catalog() if f.name == "gemm_naive"]
    launch = (family.kernel, family.arch, dict(family.symbols or {}),
              family.make_bindings(np.random.default_rng(0)))
    planned = []
    replay = LaunchPlan.replay

    def spy(self, *args):
        planned.extend(args[5])
        return replay(self, *args)

    with mock.patch.object(LaunchPlan, "replay", spy):
        recording = _record(*launch, prove=True, profile=False)
    assert planned == [0]  # blocks 1..N ran from the trace
    for profiled, proven in ((False, True), (True, False)):
        assert (_proof(recording.recorder, recording.plan, launch[2],
                       profiled) is not None) == proven


def test_sanitized_recording_takes_the_plan_path():
    """A sanitizer needs every block's accesses: no block is replayed."""
    (case,) = [c for c in default_cases(seed=0) if c.name == "layernorm"]
    arrays = {k: np.array(v, copy=True) for k, v in case.arrays.items()}
    machine = Machine()
    sanitizer = Sanitizer()
    bind_launch(case.kernel, arrays, {}, machine, sanitizer)
    with mock.patch.object(trace_mod, "_proven_shifts") as proof:
        trace_mod.record_trace(LaunchPlan(case.kernel, case.arch), machine,
                               {}, sanitizer)
    proof.assert_not_called()


@pytest.mark.slow
@pytest.mark.parametrize("stripped", [False, True], ids=["clean", "mutant"])
@pytest.mark.parametrize("arch", ["volta", "ampere", "hopper"])
def test_fuzz_corpus_static_proof_implies_dynamic_match(arch, stripped):
    proven = 0
    for name, kernel, arch_, symbols, arrays in _case_launches(
            _fuzz_cases(), architecture(arch), stripped):
        if kernel.grid_size() == 1:
            continue
        recording = _record(kernel, arch_, symbols, arrays, prove=False,
                            profile=False)
        proven += _assert_sound(name, recording.recorder, recording.plan,
                                symbols)
    assert proven
