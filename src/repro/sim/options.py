"""The one run-options surface for simulated launches.

``Simulator.run``, the tuner gate, the conformance harness, the
network executor and the serve layer all take one :class:`RunOptions`
value.  ``Simulator.run`` also accepts ``sanitize=``/``profile=``/
``engine=`` keywords (``CapturedGraph.replay`` the first two), which
:func:`resolve_run_options` applies on top of the options value by name
— never through ``**kwargs``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

#: The execution engines ``Simulator.run`` can dispatch to.
ENGINES = ("vectorized", "reference")


@dataclass(frozen=True)
class RunOptions:
    """How one simulated launch should execute.

    * ``sanitize`` — ``False`` (off), ``True`` (raise on findings) or
      ``"report"`` (collect findings without raising); see
      :mod:`repro.sim.sanitizer`.
    * ``profile`` — attach the instruction profiler
      (:mod:`repro.sim.profiler`) and return its counters.
    * ``engine`` — ``"vectorized"`` (compiled launch plans,
      :mod:`repro.sim.plan`; the default) or ``"reference"`` (the scalar
      interpreter).  Both are bit-identical; the reference engine exists
      as the semantics ground truth and cross-check target.
    """

    sanitize: Union[bool, str] = False
    profile: bool = False
    engine: str = "vectorized"

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}"
            )

    def merged(self, *, sanitize=None, profile=None,
               engine=None) -> "RunOptions":
        """A copy with any explicitly-given keyword applied."""
        changes = {}
        if sanitize is not None:
            changes["sanitize"] = sanitize
        if profile is not None:
            changes["profile"] = profile
        if engine is not None:
            changes["engine"] = engine
        return replace(self, **changes) if changes else self


def resolve_run_options(
    options: Optional[RunOptions] = None,
    *,
    sanitize=None,
    profile=None,
    engine=None,
) -> RunOptions:
    """Merge an optional :class:`RunOptions` with keyword overrides.

    Explicit keywords win over the options value (so call sites can
    share one options object and override a single knob).
    """
    base = options if options is not None else RunOptions()
    if not isinstance(base, RunOptions):
        raise TypeError(
            f"options must be a RunOptions, got {type(base).__name__}"
        )
    return base.merged(sanitize=sanitize, profile=profile, engine=engine)


__all__ = ["RunOptions", "resolve_run_options", "ENGINES"]
