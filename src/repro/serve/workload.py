"""Serve catalogs and benchmark workloads over the kernel library.

A :class:`ServeFamily` packages everything the server needs to serve
one kernel family: the kernel, its architecture, default symbols, and a
binding factory producing fresh problem instances at the captured
signature (so every request replays through the same static slots).

``serve_catalog()`` builds one family per shipped kernel family using
the conformance harness's case library — the same kernels and shapes
the three-way conformance suite pins — and draws requests from the
family's generator in :mod:`repro.library.problems`.  ``tuned=True``
rebuilds the tunable families through their ``from_tuned`` entry points
so the served GEMM is the autotuner's pick (served straight from the
tuning cache on repeat runs).

``zipf_schedule()`` samples the heavy-tailed family mix serving
benchmarks use: a few hot signatures dominating, a long tail keeping
the graph cache honest.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from ..conformance.harness import FAMILIES, default_cases


class ServeFamily:
    """One servable kernel family: identity plus a problem generator.

    ``draw(rng)`` returns fresh inputs and zeroed outputs at the
    family's captured shape.
    """

    __slots__ = ("name", "kernel", "arch", "symbols", "outputs", "_draw")

    def __init__(self, name, kernel, arch, symbols, outputs,
                 draw: Callable[[np.random.Generator],
                                Dict[str, np.ndarray]]):
        self.name = name
        self.kernel = kernel
        self.arch = arch
        self.symbols = dict(symbols or {})
        self.outputs = tuple(outputs)
        self._draw = draw

    def make_bindings(self, rng: np.random.Generator) -> Dict[str, np.ndarray]:
        """Fresh random inputs (and zeroed outputs) at the family shape."""
        return self._draw(rng)

    def __repr__(self):
        return (f"ServeFamily({self.name}, kernel={self.kernel.name}, "
                f"outputs={list(self.outputs)})")


def serve_catalog(seed: int = 0, tuned: bool = False,
                  tune_cache=False) -> List[ServeFamily]:
    """One :class:`ServeFamily` per shipped kernel family.

    Each family serves its first conformance case's kernel and draws
    requests from the family's problem generator at that case's shape.
    ``tuned=True`` swaps tunable families' kernels for their
    ``from_tuned`` builds (``tune_cache`` forwards to
    :func:`repro.tuner.tune` — pass a :class:`~repro.tuner.TuningCache`
    or path to serve straight from a persisted tuning run; the default
    ``False`` keeps tuning in-memory).
    """
    from ..library.problems import draw

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
            draw=partial(draw, case.family, **case.shape),
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

    return gemm_optimized.from_tuned(**case.shape, arch=case.arch,
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
