"""CapturedGraph contract tests: bit-identity, pickling, binding checks.

The heavyweight equivalence sweep walks every conformance-case family,
so this module carries the ``serve`` marker but most of it is also fast
enough for the default tier.
"""

import pickle

import numpy as np
import pytest

from repro.conformance.harness import default_cases
from repro.serve import CapturedGraph, GraphKey, graph_key
from repro.sim import RunOptions, Simulator
from repro.sim.errors import SimulationError
from repro.sim.sanitizer import verdict

from ..sim.reference_oracle import ReferenceSimulator

pytestmark = pytest.mark.serve


def _copies(arrays):
    return {k: np.array(v, copy=True) for k, v in arrays.items()}


def _case(name):
    for case in default_cases(seed=0):
        if case.name == name:
            return case
    raise LookupError(name)


def _profile_signature(profile):
    return (
        sorted((label, {s: getattr(c, s) for s in c.__slots__})
               for label, c in profile.specs.items()),
        profile.barriers,
        profile.events,
        profile.dropped_events,
    )


@pytest.mark.parametrize(
    "name", [c.name for c in default_cases(seed=0)])
def test_replay_bit_identical_to_simulator(name):
    case = _case(name)
    graph = CapturedGraph.capture(case.kernel, case.arch, case.symbols,
                                  _copies(case.arrays))
    # Every shipped family, Hopper's wgmma/TMA/2:4 included, is traced.
    assert graph.trace is not None
    ref = ReferenceSimulator(case.arch).run(
        case.kernel, _copies(case.arrays), symbols=case.symbols)
    graph.replay(_copies(case.arrays))
    outs = graph.outputs()
    for out in graph.output_params:
        np.testing.assert_array_equal(
            outs[out].reshape(-1), ref.machine.global_array(out))


@pytest.mark.parametrize("name", ["gemm_naive", "gemm_ampere_swizzled",
                                  "softmax"])
def test_observer_replay_matches_simulator(name):
    case = _case(name)
    graph = CapturedGraph.capture(case.kernel, case.arch, case.symbols,
                                  _copies(case.arrays))
    run = graph.replay(_copies(case.arrays), sanitize="report",
                       profile=True)
    ref = ReferenceSimulator(case.arch).run(
        case.kernel, _copies(case.arrays), symbols=case.symbols,
        options=RunOptions(sanitize="report", profile=True))
    assert verdict(run.sanitizer) == verdict(ref.sanitizer)
    assert _profile_signature(run.profile) == _profile_signature(ref.profile)


def test_graph_pickle_round_trip_replays_identically():
    case = _case("gemm_ampere")
    graph = CapturedGraph.capture(case.kernel, case.arch, case.symbols,
                                  _copies(case.arrays))
    restored = pickle.loads(pickle.dumps(graph))
    assert restored.key == graph.key
    assert isinstance(restored.key, GraphKey)
    bindings = _copies(case.arrays)
    graph.replay(bindings)
    restored.replay(bindings)
    for out in graph.output_params:
        np.testing.assert_array_equal(
            graph.outputs()[out], restored.outputs()[out])


def test_copy_in_validates_bindings():
    case = _case("gemm_naive")
    graph = CapturedGraph.capture(case.kernel, case.arch, case.symbols,
                                  _copies(case.arrays))
    good = _copies(case.arrays)
    missing = {k: v for k, v in good.items() if k != "A"}
    with pytest.raises(SimulationError, match="missing binding"):
        graph.replay(missing)
    wrong_shape = dict(good)
    wrong_shape["A"] = np.zeros((2, 2), dtype=good["A"].dtype)
    with pytest.raises(SimulationError, match="captured slot"):
        graph.replay(wrong_shape)
    unknown = dict(good)
    unknown["Z"] = np.zeros(4)
    with pytest.raises(SimulationError, match="unknown parameters"):
        graph.replay(unknown)
    # Pure outputs may be omitted: a fresh launch sees zeroed memory.
    no_out = {k: v for k, v in good.items()
              if k not in graph.output_params}
    graph.replay(no_out)


def test_graph_key_is_stable_and_picklable():
    case = _case("layernorm")
    key = graph_key(case.kernel, case.arch, dict(case.symbols or {}),
                    case.arrays)
    again = graph_key(case.kernel, case.arch, dict(case.symbols or {}),
                      _copies(case.arrays))
    assert key == again
    assert hash(key) == hash(again)
    assert pickle.loads(pickle.dumps(key)) == key


def test_traced_and_exact_paths_agree():
    """The graph's trace replay of ``mlp`` equals the plan engine's
    ``Simulator.run`` on the same bindings."""
    case = _case("mlp")
    graph = CapturedGraph.capture(case.kernel, case.arch, case.symbols,
                                  _copies(case.arrays))
    assert graph.trace is not None
    bindings = _copies(case.arrays)
    graph.replay(bindings)
    traced = graph.outputs()
    exact = Simulator(case.arch).run(case.kernel, _copies(bindings),
                                     symbols=case.symbols)
    for out in graph.output_params:
        assert traced[out].reshape(-1).tobytes() == \
            exact.machine.global_array(out).tobytes()
