"""Differential fuzzing: random valid shapes, three executors per trial.

Each trial draws a shape from the family's validity predicate (see
``ShapeSampler`` in tests/conftest.py), builds the shipped kernel, and
runs it twice — the IR on the simulator (race sanitizer attached) and
the *generated CUDA text* on the :mod:`repro.codegen.emulator` — before
comparing against the :mod:`repro.library.funcs` reference.  Simulator
and emulator must agree bit-for-bit (both substitute the same fp32 math
for tensor-core ops), so a failure means wrong numerics, a shape the
builder should have rejected, a memory hazard, or a mis-printed index
expression — and replays from the printed seed.

The default tier runs one trial per family; ``-m slow`` sweeps more.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings

from repro.arch import AMPERE
from repro.codegen import CudaGenerator
from repro.codegen.emulator import emulate
from repro.conformance import default_cases
from repro.kernels.gemm_optimized import build_ampere_tc_gemm
from repro.kernels import (
    FmhaConfig, LayernormConfig, LstmConfig, MlpConfig, NaiveGemmConfig,
    SoftmaxConfig, build,
)
from repro.layout import Layout
from repro.layout.linear import LinearLayoutError, to_linear
from repro.library import funcs
from repro.sim import Simulator, access
from repro.sim.sanitizer import verdict

from ..layout.test_algebra import concrete_layouts


def _fp16(np_rng, *shape, scale=1.0):
    return ((np_rng.random(shape) - 0.5) * scale).astype(np.float16)


def _run(kernel, arrays):
    """Simulate the IR, emulate the generated text, demand agreement."""
    emu_arrays = {name: arr.copy() for name, arr in arrays.items()}
    Simulator(AMPERE).run(kernel, arrays, sanitize=True)
    source = CudaGenerator(AMPERE).generate(kernel)
    emulate(source, emu_arrays)
    for name, arr in arrays.items():
        np.testing.assert_array_equal(
            arr, emu_arrays[name],
            err_msg=(f"simulator and emulated CUDA text disagree on "
                     f"{name!r} for kernel {source.name}"),
        )


def trial_naive_gemm(shapes, np_rng):
    cfg = shapes.naive_gemm()
    a = _fp16(np_rng, cfg["m"], cfg["k"])
    b = _fp16(np_rng, cfg["k"], cfg["n"])
    c = np.zeros((cfg["m"], cfg["n"]), dtype=np.float16)
    kernel = build(NaiveGemmConfig(cfg["m"], cfg["n"], cfg["k"],
                                   grid=tuple(cfg["grid"]),
                                   threads=tuple(cfg["threads"])))
    _run(kernel, {"A": a, "B": b, "C": c})
    return c, funcs.gemm(a, b), 0.02


def trial_ampere_gemm(shapes, np_rng):
    cfg = shapes.ampere_gemm()
    a = _fp16(np_rng, cfg["m"], cfg["k"])
    b = _fp16(np_rng, cfg["k"], cfg["n"])
    c = np.zeros((cfg["m"], cfg["n"]), dtype=np.float16)
    kernel = build_ampere_tc_gemm(
        cfg["m"], cfg["n"], cfg["k"],
        block_tile=cfg["block_tile"], warp_grid=cfg["warp_grid"],
    )
    _run(kernel, {"A": a, "B": b, "C": c})
    return c, funcs.gemm(a, b), 0.02


def trial_layernorm(shapes, np_rng):
    cfg = shapes.layernorm()
    x = _fp16(np_rng, cfg["rows"], cfg["hidden"])
    gamma = (np_rng.random(cfg["hidden"]) * 2).astype(np.float16)
    beta = _fp16(np_rng, cfg["hidden"])
    y = np.zeros((cfg["rows"], cfg["hidden"]), dtype=np.float16)
    kernel = build(LayernormConfig(cfg["rows"], cfg["hidden"],
                                   warps_per_block=cfg["warps_per_block"]))
    _run(kernel, {"X": x, "gamma": gamma, "beta": beta, "Y": y})
    return y, funcs.layernorm(x, gamma, beta), 0.02


def trial_softmax(shapes, np_rng):
    cfg = shapes.softmax()
    x = _fp16(np_rng, cfg["rows"], cfg["cols"], scale=8.0)
    y = np.zeros((cfg["rows"], cfg["cols"]), dtype=np.float16)
    kernel = build(SoftmaxConfig(cfg["rows"], cfg["cols"],
                                 threads_per_block=cfg["threads_per_block"]))
    _run(kernel, {"X": x, "Y": y})
    return y, funcs.softmax(x), 0.01


def trial_mlp(shapes, np_rng):
    cfg = shapes.mlp()
    x = _fp16(np_rng, cfg["m"], cfg["hidden"])
    weights = [_fp16(np_rng, cfg["hidden"], cfg["hidden"])
               for _ in range(cfg["layers"])]
    biases = [_fp16(np_rng, cfg["hidden"]) for _ in range(cfg["layers"])]
    y = np.zeros((cfg["m"], cfg["hidden"]), dtype=np.float16)
    arrays = {"X": x, "Y": y}
    for layer in range(cfg["layers"]):
        arrays[f"W{layer}"] = weights[layer]
        arrays[f"bias{layer}"] = biases[layer]
    kernel = build(MlpConfig(cfg["m"], cfg["hidden"], cfg["layers"],
                             block_rows=cfg["block_rows"],
                             warp_grid=cfg["warp_grid"]))
    _run(kernel, arrays)
    return y, funcs.mlp(x, weights, biases), 0.05


def trial_fmha(shapes, np_rng):
    cfg = shapes.fmha()
    rows = cfg["batch_heads"] * cfg["seq"]
    q = _fp16(np_rng, rows, cfg["head_dim"])
    k = _fp16(np_rng, rows, cfg["head_dim"])
    v = _fp16(np_rng, rows, cfg["head_dim"])
    o = np.zeros_like(q)
    kernel = build(FmhaConfig(cfg["batch_heads"], cfg["seq"],
                              cfg["head_dim"], kv_chunk=cfg["kv_chunk"]))
    _run(kernel, {"Q": q, "K": k, "V": v, "O": o})
    ref = funcs.multi_head_attention(q, k, v, heads=cfg["batch_heads"])
    return o, ref, 0.02


def trial_lstm(shapes, np_rng):
    cfg = shapes.lstm()
    x = _fp16(np_rng, cfg["m"], cfg["k"])
    w = _fp16(np_rng, cfg["k"], cfg["n"])
    h = _fp16(np_rng, cfg["m"], cfg["k"])
    r = _fp16(np_rng, cfg["k"], cfg["n"])
    bias = _fp16(np_rng, cfg["n"])
    y = np.zeros((cfg["m"], cfg["n"]), dtype=np.float16)
    kernel = build(LstmConfig(cfg["m"], cfg["n"], cfg["k"],
                              block_tile=cfg["block_tile"],
                              warp_grid=cfg["warp_grid"]))
    _run(kernel, {"X": x, "W": w, "H": h, "R": r, "bias": bias, "Y": y})
    return y, funcs.lstm_cell(x, w, h, r, bias), 0.02


FAMILIES = {
    "naive_gemm": trial_naive_gemm,
    "ampere_gemm": trial_ampere_gemm,
    "layernorm": trial_layernorm,
    "softmax": trial_softmax,
    "mlp": trial_mlp,
    "fmha": trial_fmha,
    "lstm": trial_lstm,
}


def _check(trial, shapes, np_rng):
    got, ref, tol = trial(shapes, np_rng)
    err = np.abs(got.astype(np.float32)
                 - np.asarray(ref, dtype=np.float32)).max()
    assert np.isfinite(err) and err < tol, \
        f"max deviation {err:.4g} exceeds {tol}"


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_fuzz_fast(family, shapes, rng):
    """One random valid shape per family (tier-1)."""
    np_rng = np.random.default_rng(rng.randrange(2 ** 31))
    _check(FAMILIES[family], shapes, np_rng)


@pytest.mark.slow
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_fuzz_sweep(family, shapes, rng):
    """A broader sweep of shapes per family (run with -m slow)."""
    for _ in range(6):
        np_rng = np.random.default_rng(rng.randrange(2 ** 31))
        _check(FAMILIES[family], shapes, np_rng)


# -- linear (F2) vs coordinate-walk offset-table differential -------------
#
# The simulator builds each tensor view's offset table either by
# XOR-accumulating bit-matrix lane vectors (the F2 path, power-of-two
# layouts only) or by walking coordinates through the layout algebra.
# The two paths must be observationally indistinguishable: same output
# bits, same profiler counters, same sanitizer verdicts.  Non-pow2
# views must fall back silently rather than fail.  A forced run patches
# the one selection function, ``access.linear_form``, so every table
# walks, and clears the offset-table memo on both sides of the run.

_CASES = {c.name: c for c in default_cases(seed=0)}
#: Tier-1 runs a representative subset; -m slow sweeps the corpus.
_LINEAR_FAST = ["gemm_ampere_swizzled", "softmax", "fmha"]


@contextmanager
def _walk_only(monkeypatch):
    """Every offset table built inside the block walks coordinates."""
    access.relative_offsets.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(access, "linear_form", lambda layout: None)
            yield
    finally:
        access.relative_offsets.cache_clear()


def _profile_signature(profile):
    return (
        sorted((label, {s: getattr(c, s) for s in c.__slots__})
               for label, c in profile.specs.items()),
        profile.barriers,
        profile.events,
    )


def _observe(case):
    arrays = {k: np.array(v, copy=True) for k, v in case.arrays.items()}
    run = Simulator(case.arch).run(
        case.kernel, arrays, symbols=case.symbols,
        sanitize="report", profile=True)
    return arrays, run


def _linear_differential(name, monkeypatch):
    case = _CASES[name]
    with _walk_only(monkeypatch):
        walk_arrays, walk_run = _observe(case)
    auto_arrays, auto_run = _observe(case)
    for key in walk_arrays:
        np.testing.assert_array_equal(
            walk_arrays[key].view(np.uint8), auto_arrays[key].view(np.uint8),
            err_msg=f"offset-table paths disagree on {key!r} in {name}")
    assert _profile_signature(walk_run.profile) == \
        _profile_signature(auto_run.profile), \
        f"profiler counters differ between offset-table paths in {name}"
    assert verdict(walk_run.sanitizer) == verdict(auto_run.sanitizer), \
        f"sanitizer verdicts differ between offset-table paths in {name}"


@pytest.mark.parametrize("name", _LINEAR_FAST)
def test_linear_path_differential_fast(name, monkeypatch):
    """F2 vs coordinate-walk paths bit-identical on key conformance
    cases."""
    _linear_differential(name, monkeypatch)


@pytest.mark.slow
@pytest.mark.parametrize(
    "name", [n for n in sorted(_CASES) if n not in _LINEAR_FAST])
def test_linear_path_differential_corpus(name, monkeypatch):
    """The rest of the conformance corpus (run with -m slow)."""
    _linear_differential(name, monkeypatch)


def test_linear_path_taken_and_fallback():
    """Pow2 layouts compile via the F2 path; non-pow2 and small ones
    walk; both give the raw layout's offsets, memoized by value."""
    pow2 = Layout((16, 32), (32, 1))
    ragged = Layout((6, 10), (10, 1))
    small = Layout(4, 1)
    assert access.linear_form(pow2) is not None
    assert access.linear_form(ragged) is None
    assert access.linear_form(small) is None
    for layout in (pow2, ragged, small):
        table = access.relative_offsets(layout)
        assert table.dtype == np.int64 and not table.flags.writeable
        assert table.tolist() == list(layout.offsets())
        equal = Layout(layout.shape, layout.stride)
        assert access.relative_offsets(equal) is table


@settings(max_examples=200, deadline=None)
@given(concrete_layouts())
def test_offset_table_memo_and_f2_agree(layout):
    """For random plain layouts the memoized table equals a fresh one,
    and the F2 form, wherever it represents the layout, equals the
    coordinate walk."""
    table = access.relative_offsets(layout)
    np.testing.assert_array_equal(
        table, access.relative_offsets.__wrapped__(layout))
    walk = access.walk_offsets(layout)
    np.testing.assert_array_equal(table, walk)
    try:
        lin = to_linear(layout)
    except LinearLayoutError:
        return
    np.testing.assert_array_equal(lin.apply_to_range(layout.size()), walk)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_linear_path_differential_fuzz(family, shapes, rng, monkeypatch):
    """One random valid shape per family, simulated under both
    offset-table paths; outputs must be bit-identical even when some
    drawn dimensions are non-pow2 (those views fall back per-view)."""
    import random
    shape_seed = rng.randrange(2 ** 31)
    data_seed = rng.randrange(2 ** 31)
    sampler = type(shapes)
    with _walk_only(monkeypatch):
        got_walk, _, _ = FAMILIES[family](
            sampler(random.Random(shape_seed)),
            np.random.default_rng(data_seed))
    got_auto, _, _ = FAMILIES[family](
        sampler(random.Random(shape_seed)),
        np.random.default_rng(data_seed))
    np.testing.assert_array_equal(got_walk.view(np.uint8),
                                  got_auto.view(np.uint8))
