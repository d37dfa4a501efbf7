"""The one run-options surface for simulated launches.

``Simulator.run``, the conformance harness, the network executor and
the serve layer all take one :class:`RunOptions` value.
``Simulator.run`` and ``CapturedGraph.replay`` also accept
``sanitize=``/``profile=`` keywords that override it by name.
``Simulator.run`` observes every launch it runs; captured graphs and
lowered networks hold each launch's observations from one measurement
(:class:`~repro.sim.trace.RecordedLaunch`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True)
class RunOptions:
    """How one simulated launch should execute.

    * ``sanitize`` — ``False`` (off), ``True`` (raise on findings) or
      ``"report"`` (collect findings without raising); see
      :mod:`repro.sim.sanitizer`.
    * ``profile`` — attach the instruction profiler
      (:mod:`repro.sim.profiler`) and return its counters.
    """

    sanitize: Union[bool, str] = False
    profile: bool = False


__all__ = ["RunOptions"]
