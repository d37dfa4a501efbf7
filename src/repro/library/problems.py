"""One problem generator per kernel family.

A kernel is right when running its data-to-thread mapping on the
simulator matches the numpy reference in :mod:`repro.library.funcs`.
Each entry of :data:`PROBLEMS` poses that test for one family: called
as ``generator(rng, **shape)`` it draws fresh inputs and zeroed outputs
and returns ``(arrays, reference)``, where ``reference()`` computes the
checks ``[(output, expected, tolerance)]`` from the drawn inputs.
Drawing never computes a reference, so serving pays only for inputs.

The conformance harness, the tuner's correctness gate, the serve
catalog and the Hopper bench all draw their problems here:
:func:`problem` returns arrays plus checks, :func:`draw` arrays only.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import numpy as np

from ..kernels.hopper import random_sparse24
from ..kernels.moves import ldmatrix_reference
from ..tensor.dtypes import FP8E4M3
from . import funcs

#: ``(output name, expected values, absolute tolerance)``.
Check = Tuple[str, np.ndarray, float]
Arrays = Dict[str, np.ndarray]
Generator = Callable[..., Tuple[Arrays, Callable[[], List[Check]]]]


def _fp16(rng, *shape, scale: float = 1.0) -> np.ndarray:
    """Uniform values in ``[-scale/2, scale/2)`` rounded to fp16."""
    return ((rng.random(shape) - 0.5) * scale).astype(np.float16)


def _fp8(rng, *shape) -> np.ndarray:
    # Pre-quantized onto the e4m3 grid (fixed points of the
    # round-on-store model), so TMA staging preserves them bitwise.
    return FP8E4M3.quantize(rng.random(shape).astype(np.float32) - 0.5)


def _zeros(*shape) -> np.ndarray:
    return np.zeros(shape, np.float16)


def _exact_f16(a, b) -> np.ndarray:
    """``A @ B`` in float64, rounded once to fp16 (Hopper references)."""
    return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.float16)


def _gemm(rng, m, n, k):
    a, b = _fp16(rng, m, k), _fp16(rng, k, n)
    return ({"A": a, "B": b, "C": _zeros(m, n)},
            lambda: [("C", funcs.gemm(a, b), 0.02)])


def _gemm_parametric(rng, m, n, k, rows):
    """Symbolic-M GEMM over ``rows`` allocated rows; ``m`` is bound at
    launch, and the guarded rows ``>= m`` must stay zero."""
    a, b = _fp16(rng, rows, k), _fp16(rng, k, n)
    return ({"A": a, "B": b, "C": _zeros(rows, n)},
            lambda: [("C", np.vstack([funcs.gemm(a[:m], b),
                                      np.zeros((rows - m, n), np.float32)]),
                      0.02)])


def _gemm_epilogue(rng, m, n, k):
    a, b, bias = _fp16(rng, m, k), _fp16(rng, k, n), _fp16(rng, n)
    return ({"A": a, "B": b, "bias": bias, "C": _zeros(m, n)},
            lambda: [("C", funcs.gemm_bias_act(a, b, bias, "relu"), 0.05)])


def _moves(rng):
    # Distinct values per element make the fragment mapping exact; a
    # pure move must be bit-perfect (tolerance 0).
    src = np.arange(256, dtype=np.float16).reshape(16, 16)
    return ({"src": src, "out": _zeros(32, 8)},
            lambda: [("out", ldmatrix_reference(src), 0.0)])


def _layernorm(rng, rows, hidden):
    x = _fp16(rng, rows, hidden)
    gamma = (rng.random(hidden) * 2).astype(np.float16)
    beta = _fp16(rng, hidden)
    return ({"X": x, "gamma": gamma, "beta": beta,
             "Y": _zeros(rows, hidden)},
            lambda: [("Y", funcs.layernorm(x, gamma, beta), 0.02)])


def _softmax(rng, rows, cols):
    # Wide-range inputs so the stable max-subtraction path matters.
    x = _fp16(rng, rows, cols, scale=8.0)
    return ({"X": x, "Y": _zeros(rows, cols)},
            lambda: [("Y", funcs.softmax(x), 0.01)])


def _mlp(rng, m, hidden, layers):
    x = _fp16(rng, m, hidden)
    weights = [_fp16(rng, hidden, hidden) for _ in range(layers)]
    biases = [_fp16(rng, hidden) for _ in range(layers)]
    arrays = {"X": x}
    arrays.update((f"W{i}", w) for i, w in enumerate(weights))
    arrays.update((f"bias{i}", b) for i, b in enumerate(biases))
    arrays["Y"] = _zeros(m, hidden)
    return arrays, lambda: [("Y", funcs.mlp(x, weights, biases), 0.05)]


def _lstm(rng, m, n, k):
    x, w = _fp16(rng, m, k), _fp16(rng, k, n)
    h, r = _fp16(rng, m, k), _fp16(rng, k, n)
    bias = _fp16(rng, n)
    return ({"X": x, "W": w, "H": h, "R": r, "bias": bias,
             "Y": _zeros(m, n)},
            lambda: [("Y", funcs.lstm_cell(x, w, h, r, bias), 0.02)])


def _fmha(rng, batch_heads, seq, head_dim):
    q, k, v = (_fp16(rng, batch_heads * seq, head_dim) for _ in range(3))
    return ({"Q": q, "K": k, "V": v, "O": np.zeros_like(q)},
            lambda: [("O", funcs.multi_head_attention(q, k, v,
                                                      heads=batch_heads),
                      0.02)])


def _gemm_fp8(rng, m, n, k):
    a, b = _fp8(rng, m, k), _fp8(rng, k, n)
    return ({"A": a, "B": b, "C": _zeros(m, n)},
            lambda: [("C", _exact_f16(a, b), 0.05)])


def _gemm_sparse24(rng, m, n, k):
    """Compressed 2:4 operand plus valid metadata (ascending index
    pairs per group of four), checked against the dense product."""
    comp, meta, dense = random_sparse24(rng, m, k)
    b = _fp16(rng, k, n)
    return ({"A_comp": comp, "A_meta": meta, "B": b, "C": _zeros(m, n)},
            lambda: [("C", _exact_f16(dense, b), 0.05)])


#: family -> generator ``(rng, **shape) -> (arrays, reference)``.
PROBLEMS: Dict[str, Generator] = {
    "gemm_naive": _gemm,
    "gemm": _gemm,
    "gemm_parametric": _gemm_parametric,
    "gemm_epilogue": _gemm_epilogue,
    "moves": _moves,
    "layernorm": _layernorm,
    "softmax": _softmax,
    "mlp": _mlp,
    "lstm": _lstm,
    "fmha": _fmha,
    "gemm_fp8": _gemm_fp8,
    "gemm_sparse24": _gemm_sparse24,
}


def problem(family: str, rng, **shape) -> Tuple[Arrays, List[Check]]:
    """One family's problem at ``shape``: arrays plus reference checks."""
    arrays, reference = PROBLEMS[family](rng, **shape)
    return arrays, reference()


def draw(family: str, rng, **shape) -> Arrays:
    """Fresh inputs and zeroed outputs only; no reference is computed."""
    return PROBLEMS[family](rng, **shape)[0]


__all__ = ["PROBLEMS", "Check", "draw", "problem"]
