"""The problem table's contract, one row per kernel family.

Every consumer that draws a family's problem — the conformance case,
the tuner gate's default candidate and the serve catalog — must hand
its kernel bindings that pass ``bind_launch`` (every parameter bound
with the right dtype and extent, nothing extra), and every reference
check must name an output parameter that comes back zeroed.
"""

import numpy as np
import pytest

from repro.arch import AMPERE, HOPPER
from repro.conformance import FAMILIES, default_cases
from repro.library.problems import PROBLEMS, draw, problem
from repro.serve import serve_catalog
from repro.sim.interp import bind_launch
from repro.sim.machine import Machine
from repro.tuner import get_space

#: A tuning shape each family's default candidate tiles.
TUNE_SHAPES = {
    "gemm": dict(m=256, n=256, k=128),
    "gemm_naive": dict(m=256, n=256, k=64),
    "gemm_parametric": dict(m=256, n=256, k=64),
    "gemm_epilogue": dict(m=256, n=256, k=128),
    "lstm": dict(m=256, n=256, k=128),
    "layernorm": dict(rows=256, hidden=256),
    "softmax": dict(rows=256, cols=64),
    "mlp": dict(m=256, hidden=64, layers=2),
    "fmha": dict(batch_heads=2, seq=128, head_dim=64),
    "moves": {},
    "gemm_fp8": dict(m=256, n=256, k=256),
    "gemm_sparse24": dict(m=256, n=256, k=256),
}

_CASES = {}
for _case in default_cases(seed=0):
    _CASES.setdefault(_case.family, _case)
_SERVED = {family.name: family for family in serve_catalog(seed=0)}


def _bind(kernel, bindings, symbols):
    bind_launch(kernel, bindings, dict(symbols or {}), Machine())


def _assert_checks_name_outputs(kernel, bindings, checks):
    params = {p.name for p in kernel.params}
    assert checks
    for out, reference, _tol in checks:
        assert out in params, out
        assert not bindings[out].any(), f"output {out} not zeroed"
        assert np.asarray(reference).shape == bindings[out].shape


def test_table_covers_every_family():
    assert set(PROBLEMS) == set(FAMILIES) == set(TUNE_SHAPES)


@pytest.mark.parametrize("family", FAMILIES)
class TestFamilyContract:
    def test_conformance_case(self, family):
        case = _CASES[family]
        _bind(case.kernel, case.arrays, case.symbols)
        _assert_checks_name_outputs(case.kernel, case.arrays, case.checks)
        assert list(case.outputs) == [out for out, _, _ in case.checks]

    def test_tuner_default_candidate(self, family):
        space = get_space(family)
        arch = HOPPER if family in ("gemm_fp8", "gemm_sparse24") else AMPERE
        shape = TUNE_SHAPES[family]
        candidate = space.default(shape, arch)
        vshape = space.verification_shape(candidate, shape)
        kernel = space.build(candidate, vshape)
        bindings, checks = space.verification_problem(candidate, vshape, 0)
        _bind(kernel, bindings, space.verification_symbols(candidate, vshape))
        _assert_checks_name_outputs(kernel, bindings, checks)

    def test_serve_bindings(self, family):
        served = _SERVED[family]
        bindings = served.make_bindings(np.random.default_rng(0))
        _bind(served.kernel, bindings, served.symbols)
        params = {p.name for p in served.kernel.params}
        for out in served.outputs:
            assert out in params and not bindings[out].any(), out

    def test_draw_matches_problem_arrays(self, family):
        """Drawing inputs alone consumes the generator exactly as a full
        problem does and yields the same arrays."""
        shape = _CASES[family].shape
        arrays, _ = problem(family, np.random.default_rng(7), **shape)
        drawn = draw(family, np.random.default_rng(7), **shape)
        assert drawn.keys() == arrays.keys()
        for name, array in arrays.items():
            assert drawn[name].tobytes() == array.tobytes(), name
