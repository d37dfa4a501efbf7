"""Held observations: a recorded launch measures each observer once.

A launch's profiler counters, timeline and sanitizer verdict depend only
on its addresses and control flow, which its signature fixes.  So what a
:class:`~repro.sim.trace.RecordedLaunch` observed on one set of data
must equal a fresh ``Simulator.run`` on any other: checked here for
every serve-catalog family (2:4 metadata drawn fresh), every launch of
the benchmark's network roster and the fuzz corpus with its
barrier-stripped mutants (both ``slow``), and a racy mutant, whose
verdict is raised again on every replay.
"""

import numpy as np
import pytest

from repro.arch import architecture
from repro.graph import network
from repro.serve import CapturedGraph
from repro.serve.workload import serve_catalog
from repro.sim import RunOptions, Simulator
from repro.sim.plan import LaunchPlan
from repro.sim.profiler import Profiler
from repro.sim.sanitizer import SanitizerError, strip_barriers, verdict

from ..serve.test_graph import _case, _copies, _profile_signature
from .test_plan import _fuzz_cases
from .test_trace import _fresh_inputs

OBSERVED = RunOptions(sanitize="report", profile=True)

#: The networks the benchmark's ``networks`` workload runs.
ROSTER = ["BERT-base", "BERT-large", "GPT-2-decode"]


def _count(monkeypatch, owner, attr, calls):
    original = getattr(owner, attr)

    def counted(*args, **kwargs):
        calls[attr] = calls.get(attr, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)


def _assert_same_observations(sanitizer, profile, want, what):
    assert verdict(sanitizer) == verdict(want.sanitizer), what
    assert _profile_signature(profile) == _profile_signature(want.profile), \
        what


@pytest.mark.parametrize("family", serve_catalog(), ids=lambda f: f.name)
def test_catalog_replay_returns_held_observations(monkeypatch, family):
    graph = CapturedGraph.capture(
        family.kernel, family.arch, family.symbols,
        family.make_bindings(np.random.default_rng(0)), options=OBSERVED)
    fresh = family.make_bindings(np.random.default_rng(1))
    calls = {}
    _count(monkeypatch, LaunchPlan, "replay", calls)
    run = graph.replay(_copies(fresh))
    assert calls == {}, "an observation the capture made was measured again"
    monkeypatch.undo()
    want = Simulator(family.arch).run(family.kernel, _copies(fresh),
                                      family.symbols, options=OBSERVED)
    _assert_same_observations(run.sanitizer, run.profile, want, family.name)
    outs = graph.outputs()
    for out in graph.output_params:
        assert outs[out].reshape(-1).tobytes() == \
            want.machine.global_array(out).tobytes(), out


def test_racy_mutant_raises_on_every_replay(monkeypatch):
    case = _case("gemm_ampere")
    mutant = strip_barriers(case.kernel)
    # Capture judges nothing, even with a raising sanitizer asked for.
    graph = CapturedGraph.capture(mutant, case.arch, case.symbols,
                                  _copies(case.arrays),
                                  options=RunOptions(sanitize=True))
    reports = None
    for _ in range(3):
        with pytest.raises(SanitizerError) as err:
            graph.replay(_copies(case.arrays))
        assert err.value.reports
        if reports is None:
            reports = [r.describe() for r in err.value.reports]
            calls = {}
            _count(monkeypatch, LaunchPlan, "replay", calls)
        assert [r.describe() for r in err.value.reports] == reports
    assert calls == {}
    run = graph.replay(_copies(case.arrays), sanitize="report")
    assert [r.describe() for r in run.sanitizer.reports] == reports


def test_warm_profiled_network_run_returns_held_profiles(monkeypatch):
    """A warm ``profile=True`` run replays traces and hands back the
    first pass's profiles, measuring nothing."""
    net = network("DistilBERT")
    launches = len(net.lower("ampere").launches)
    first = net.run(seed=0)
    held = [p for g in first.groups for p in g.profiles]
    assert len(held) == launches
    assert all(g.findings is None for g in first.groups)
    calls = {}
    _count(monkeypatch, LaunchPlan, "replay", calls)
    _count(monkeypatch, Profiler, "finish", calls)
    warm = net.run(options=RunOptions(profile=True), seed=1)
    assert warm.passed
    assert calls == {}
    assert [p for g in warm.groups for p in g.profiles] == held


@pytest.mark.slow
@pytest.mark.parametrize("name", ROSTER)
def test_roster_launches_hold_fresh_observations(name):
    net = network(name)
    lowered = net.lower("ampere")
    net.run(seed=0)  # profiles every launch
    run = net.run(options=RunOptions(sanitize="report"), seed=1)
    held = [(p, s) for g in run.groups
            for p, s in zip(g.profiles, g.findings)]
    assert len(held) == len(lowered.launches)
    rng = np.random.default_rng(2)
    simulator = Simulator(lowered.arch)
    for (profile, sanitizer), recorded in zip(held, lowered.arena.launches):
        arrays = {param: (rng.random(view.shape) - 0.5).astype(view.dtype)
                  for param, view in recorded.arrays.items()}
        want = simulator.run(recorded.kernel, arrays, recorded.symbols,
                             options=OBSERVED)
        _assert_same_observations(sanitizer, profile, want,
                                  recorded.kernel.name)


@pytest.mark.slow
@pytest.mark.parametrize("stripped", [False, True], ids=["clean", "mutant"])
@pytest.mark.parametrize("arch", ["volta", "ampere", "hopper"])
@pytest.mark.parametrize("case", _fuzz_cases(), ids=lambda c: c.name)
def test_fuzz_corpus_replay_returns_held_observations(case, arch, stripped):
    kernel = strip_barriers(case.kernel) if stripped else case.kernel
    arch = architecture(arch)
    graph = CapturedGraph.capture(kernel, arch, case.symbols,
                                  _copies(case.arrays), options=OBSERVED)
    fresh = _fresh_inputs(case, seed=5)
    run = graph.replay(_copies(fresh))
    want = Simulator(arch).run(kernel, _copies(fresh), case.symbols,
                               options=OBSERVED)
    _assert_same_observations(run.sanitizer, run.profile, want, case.name)
