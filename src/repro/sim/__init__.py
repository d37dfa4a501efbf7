"""The functional GPU simulator (hardware substitute; see DESIGN.md)."""

from .access import (
    TensorAccessor, accessor, clear_accessor_caches, compile_expr,
    get_index_compiler, index_compiler, set_index_compiler, tile_views,
)
from .context import ExecCtx
from .errors import SimulationError
from .interp import RunResult, Simulator, bind_launch
from .machine import Machine
from .options import ENGINES, RunOptions, resolve_run_options
from .plan import (
    CacheStats, LaunchPlan, PlanCache, kernel_fingerprint, plan_cache_key,
)
from .profiler import KernelProfile, Profiler, SpecCounters
from .sanitizer import (
    Sanitizer, SanitizerError, SanitizerReport, strip_barriers,
)

__all__ = [
    "TensorAccessor", "accessor", "clear_accessor_caches",
    "compile_expr", "get_index_compiler", "index_compiler",
    "set_index_compiler", "tile_views",
    "ExecCtx", "RunResult", "SimulationError", "Simulator", "bind_launch",
    "Machine",
    "ENGINES", "RunOptions", "resolve_run_options",
    "CacheStats", "LaunchPlan", "PlanCache", "kernel_fingerprint",
    "plan_cache_key",
    "KernelProfile", "Profiler", "SpecCounters",
    "Sanitizer", "SanitizerError", "SanitizerReport", "strip_barriers",
]
