"""Serve catalogs and benchmark workloads over the kernel library.

A :class:`ServeFamily` packages everything the server needs to serve
one kernel family: the kernel, its architecture, default symbols, and a
binding factory producing fresh problem instances at the captured
signature (so every request replays through the same static slots).

``serve_catalog()`` builds one family per shipped kernel family using
the conformance harness's case library — the same kernels, shapes and
references the three-way conformance suite pins.  ``tuned=True``
rebuilds the tunable families through their ``from_tuned`` entry points
so the served GEMM is the autotuner's pick (served straight from the
tuning cache on repeat runs).

``zipf_schedule()`` samples the heavy-tailed family mix serving
benchmarks use: a few hot signatures dominating, a long tail keeping
the graph cache honest.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..conformance.harness import FAMILIES, default_cases


class ServeFamily:
    """One servable kernel family: identity plus a problem generator."""

    __slots__ = ("name", "kernel", "arch", "symbols", "outputs",
                 "_templates", "_binder")

    def __init__(self, name, kernel, arch, symbols, outputs,
                 templates: Dict[str, np.ndarray], binder=None):
        self.name = name
        self.kernel = kernel
        self.arch = arch
        self.symbols = dict(symbols or {})
        self.outputs = tuple(outputs)
        self._templates = {
            k: np.asarray(v) for k, v in templates.items()
        }
        self._binder = binder

    def make_bindings(self, rng: np.random.Generator) -> Dict[str, np.ndarray]:
        """Fresh random inputs (and zeroed outputs) at the family shape."""
        bindings = {}
        for name, template in self._templates.items():
            if name in self.outputs:
                bindings[name] = np.zeros_like(template)
            elif template.dtype.kind == "f":
                bindings[name] = (
                    (rng.random(template.shape) - 0.5).astype(template.dtype)
                )
            else:
                bindings[name] = rng.integers(
                    0, 8, size=template.shape
                ).astype(template.dtype)
        if self._binder is not None:
            bindings = self._binder(rng, self._templates, bindings)
        return bindings

    def __repr__(self):
        return (f"ServeFamily({self.name}, kernel={self.kernel.name}, "
                f"outputs={list(self.outputs)})")


def _sparse24_binder(rng, templates, bindings):
    """Structurally valid 2:4 compressed operand + metadata pair.

    Uniform random int32 is not valid sparsity metadata (indices must be
    ascending pairs in 0..3), so this family regenerates its compressed
    inputs through the same helper the conformance cases use.
    """
    from ..kernels.hopper import random_sparse24

    m, half_k = templates["A_comp"].shape
    comp, meta, _ = random_sparse24(rng, m, 2 * half_k)
    bindings["A_comp"] = comp.astype(templates["A_comp"].dtype)
    bindings["A_meta"] = meta.astype(templates["A_meta"].dtype)
    return bindings


def _fp8_binder(rng, templates, bindings):
    """Pre-quantize fp8 operands onto the e4m3 grid.

    The fp8 parameters travel as float32 arrays; snapping them to
    representable fp8 values keeps served problems identical to what
    round-on-store would produce on hardware.
    """
    from ..tensor.dtypes import FP8E4M3

    for name in ("A", "B"):
        bindings[name] = FP8E4M3.quantize(bindings[name])
    return bindings


#: Families whose random inputs need structure a uniform draw lacks.
_BINDERS = {
    "gemm_fp8": _fp8_binder,
    "gemm_sparse24": _sparse24_binder,
}


def serve_catalog(seed: int = 0, tuned: bool = False,
                  tune_cache=False) -> List[ServeFamily]:
    """One :class:`ServeFamily` per shipped kernel family.

    ``tuned=True`` swaps tunable families' kernels for their
    ``from_tuned`` builds (``tune_cache`` forwards to
    :func:`repro.tuner.tune` — pass a :class:`~repro.tuner.TuningCache`
    or path to serve straight from a persisted tuning run; the default
    ``False`` keeps tuning in-memory).
    """
    families: List[ServeFamily] = []
    seen = set()
    for case in default_cases(seed=seed):
        if case.family in seen:
            continue
        seen.add(case.family)
        kernel = case.kernel
        if tuned:
            kernel = _tuned_kernel(case, tune_cache) or kernel
        families.append(ServeFamily(
            name=case.family,
            kernel=kernel,
            arch=case.arch,
            symbols=case.symbols,
            outputs=case.outputs,
            templates=case.arrays,
            binder=_BINDERS.get(case.family),
        ))
    missing = set(FAMILIES) - seen
    if missing:
        raise RuntimeError(
            f"case library no longer covers families: {sorted(missing)}"
        )
    return families


def _tuned_kernel(case, tune_cache):
    """The autotuned kernel for a case's family/shape, if it has a space."""
    if case.family != "gemm":
        # Only the GEMM family registers a tuning space today; the
        # other from_tuned entry points return their default configs,
        # which the case kernels already are.
        return None
    from ..kernels import gemm_optimized

    a = case.arrays["A"]
    b = case.arrays["B"]
    m, k = a.shape
    n = b.shape[1]
    return gemm_optimized.from_tuned(m, n, k, arch=case.arch,
                                     cache=tune_cache)


def zipf_schedule(
    families: Sequence[ServeFamily],
    n_requests: int,
    seed: int = 0,
    exponent: float = 1.1,
) -> List[Tuple[ServeFamily, Dict[str, np.ndarray]]]:
    """A Zipf-distributed request schedule over ``families``.

    Family ``i`` (in the given order) is requested with probability
    proportional to ``1 / (i + 1) ** exponent`` — a few hot families
    dominate while every family still appears, which is the regime a
    serving graph cache must handle (hot graphs stay resident, the
    tail gets captured and evicted).
    """
    if not families:
        raise ValueError("zipf_schedule needs at least one family")
    rng = np.random.default_rng(seed)
    weights = np.array(
        [1.0 / (i + 1) ** exponent for i in range(len(families))])
    weights /= weights.sum()
    picks = rng.choice(len(families), size=n_requests, p=weights)
    return [
        (families[int(i)], families[int(i)].make_bindings(rng))
        for i in picks
    ]


__all__ = ["ServeFamily", "serve_catalog", "zipf_schedule"]
