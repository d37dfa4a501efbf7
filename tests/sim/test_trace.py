"""Compact launch traces: block translation, interning, bit identity.

A trace stores block 0's leaves once plus an int64 start offset per
block and global slot; a block that is not a translation of block 0
keeps its own leaves.  Either way a replay must equal a fresh
``Simulator.run`` bit for bit.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.conformance.harness import default_cases
from repro.sim import Simulator
from repro.sim import trace as trace_mod
from repro.sim.interp import bind_launch
from repro.sim.machine import Machine
from repro.sim.plan import LaunchPlan
from repro.sim.profiler import Profiler
from repro.sim.trace import record_trace

from .test_plan import _profile_sig


def _case(name):
    for case in default_cases(seed=0):
        if case.name == name:
            return case
    raise LookupError(name)


def _copies(arrays):
    return {k: np.array(v, copy=True) for k, v in arrays.items()}


def _record(case, profiler=None):
    """Bind copies of the case's arrays and record one traced launch."""
    arrays = _copies(case.arrays)
    symbols = dict(case.symbols or {})
    machine = Machine()
    bind_launch(case.kernel, arrays, symbols, machine)
    plan = LaunchPlan(case.kernel, case.arch)
    return record_trace(plan, machine, symbols, None, profiler), arrays


def _fresh_inputs(case, seed):
    rng = np.random.default_rng(seed)
    return {k: (rng.random(v.shape) - 0.5).astype(v.dtype)
            if k not in case.outputs else np.zeros_like(v)
            for k, v in case.arrays.items()}


def _assert_replays_like_simulator(case, trace, arrays, seed=7):
    inputs = _fresh_inputs(case, seed)
    for name, arr in inputs.items():
        arrays[name][...] = arr  # the trace reads the bound arrays
    trace.replay()
    want = Simulator(case.arch).run(case.kernel, _copies(inputs),
                                    case.symbols)
    for out in case.outputs:
        assert arrays[out].tobytes() == \
            want.machine.global_array(out).tobytes()


def _translated(trace):
    """How many blocks replay block 0's leaves."""
    first = trace.blocks[0][0]
    return sum(leaves is first for leaves, _ in trace.blocks)


def _reachable_nbytes(trace):
    """Bytes of every distinct array a trace holds, counted once."""
    seen = {}
    for leaves, local in trace.blocks:
        for arr in local:
            seen[id(arr)] = arr
        for leaf in leaves:
            if leaf.rows is not None:
                seen[id(leaf.rows)] = leaf.rows
            for op in leaf.ops:
                index = getattr(op, "index", None)
                parts = index if isinstance(index, tuple) else (index,)
                for arr in parts + (getattr(op, "mask", None),
                                    getattr(op, "keep", None)):
                    if arr is not None:
                        seen[id(arr if arr.base is None else arr.base)] = \
                            arr if arr.base is None else arr.base
    return sum(a.nbytes for a in seen.values()) + trace.offsets.nbytes


def test_translated_blocks_share_block_zero():
    case = _case("gemm_naive")
    trace, arrays = _record(case)
    grid = case.kernel.grid_size()
    assert grid > 1 and _translated(trace) == grid
    first = trace.blocks[0][0]
    assert all(leaves is first for leaves, _ in trace.blocks)
    assert trace.offsets.shape == (grid, len(trace.arrays))
    assert trace.offsets.any()  # blocks address different tiles
    _assert_replays_like_simulator(case, trace, arrays)


def test_untranslated_blocks_replay_their_own_leaves():
    # The symbolic-M GEMM's tail blocks are guarded differently from
    # block 0, so they fail the translation check.
    case = _case("gemm_parametric")
    trace, arrays = _record(case)
    assert 1 <= _translated(trace) < case.kernel.grid_size()
    _assert_replays_like_simulator(case, trace, arrays)


@pytest.mark.parametrize("name", ["gemm_naive", "layernorm"])
def test_forced_explicit_blocks_bit_identical(monkeypatch, name):
    case = _case(name)
    monkeypatch.setattr(trace_mod, "_delta", lambda op, ref: None)
    trace, arrays = _record(case)
    assert _translated(trace) == 1
    _assert_replays_like_simulator(case, trace, arrays)


def test_nbytes_counts_each_array_once():
    for name in ("gemm_naive", "gemm_parametric", "mlp"):
        trace, _ = _record(_case(name))
        assert trace.nbytes == _reachable_nbytes(trace), name


def test_recording_inside_a_profiled_run():
    """A profiled recording measures what a plain profiled run measures,
    and its trace replays like any other."""
    case = _case("gemm_ampere_swizzled")
    profiler = Profiler()
    trace, arrays = _record(case, profiler)
    got = profiler.finish(case.kernel.name, case.kernel.grid_size(),
                          case.kernel.block_size())
    want = Simulator(case.arch).run(case.kernel, _copies(case.arrays),
                                    case.symbols, profile=True)
    assert _profile_sig(got) == _profile_sig(want.profile)
    _assert_replays_like_simulator(case, trace, arrays)


def test_quantized_writes_replay_quantized():
    """fp8 operands that are not on the e4m3 grid are snapped by the
    engine's writes; a trace replay snaps them the same way."""
    case = _case("gemm_fp8_hopper")
    trace, arrays = _record(case)
    _assert_replays_like_simulator(case, trace, arrays, seed=5)


def test_translation_check_accepts_only_one_forward_shift():
    """Block b's global access replays block 0's at a shifted base only
    when every live offset moved by one non-negative constant and the
    masks agree."""
    view = SimpleNamespace(is_rf=False, is_sh=False)  # a global view

    def read(offs, mask=None):
        if mask is not None:
            offs = np.where(mask, offs, 0)  # masked lanes read offset 0
        return (trace_mod._READ, view, None, offs, mask, None, None)

    base = np.arange(8).reshape(2, 4)
    mask = np.ones((2, 4), dtype=bool)
    partial = mask.copy()
    partial[1, 3] = False
    delta = trace_mod._delta
    assert delta(read(base + 16), read(base)) == 16
    assert delta(read(base + 16, partial), read(base, partial)) == 16
    assert delta(read(base), read(base + 16)) is None  # backwards
    assert delta(read(base * 2), read(base)) is None  # not a shift
    assert delta(read(base + 16, partial), read(base, mask)) is None
