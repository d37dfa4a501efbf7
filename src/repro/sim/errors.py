"""Simulator error types."""

from __future__ import annotations


class SimulationError(RuntimeError):
    pass
