"""The functional GPU simulator (hardware substitute; see DESIGN.md)."""

from .access import compile_expr
from .errors import SimulationError
from .interp import RunResult, Simulator, bind_launch
from .machine import Machine
from .plan import (
    CacheStats, LaunchPlan, PlanCache, kernel_fingerprint, plan_cache_key,
)
from .profiler import KernelProfile, Profiler, SpecCounters
from .sanitizer import (
    Sanitizer, SanitizerError, SanitizerReport, strip_barriers,
)

__all__ = [
    "compile_expr",
    "RunResult", "SimulationError", "Simulator", "bind_launch",
    "Machine",
    "CacheStats", "LaunchPlan", "PlanCache", "kernel_fingerprint",
    "plan_cache_key",
    "KernelProfile", "Profiler", "SpecCounters",
    "Sanitizer", "SanitizerError", "SanitizerReport", "strip_barriers",
]
