"""The functional simulator: executes Graphene kernel IR.

Substitutes for running generated CUDA on a GPU (see DESIGN.md).  A
launch binds its parameters, looks up the kernel's compiled launch plan
(:mod:`repro.sim.plan`) and replays it once per thread-block in
statement-lockstep (every statement completes for all threads before
the next begins — a semantics at least as strong as barrier-correct
execution on hardware).  Leaf specs are matched against the target
architecture's atomic table and executed with the instruction's
data-to-thread-mapping semantics, so an incorrect layout or decomposition
produces incorrect numerics exactly as it would on a real GPU.

Lockstep is *stronger* than hardware: it subsumes barriers, so a
decomposition missing a ``__syncthreads()`` still computes correct
numerics here while racing on a GPU.  ``run(..., sanitize=True)``
closes that gap — a :class:`~repro.sim.sanitizer.Sanitizer` observes
every element access, advances barrier epochs at sync statements
instead of ignoring them, and the run raises
:class:`~repro.sim.sanitizer.SanitizerError` on any race,
out-of-bounds access, uninitialized read, or divergent barrier.
``run(..., profile=True)`` attaches the instruction profiler.

Those two keywords are the only way to ask for observers, here and in
every layer above.  :func:`observed_run` is the one observed plan
execution: ``Simulator.run`` and
:class:`~repro.sim.trace.RecordedLaunch` (captured graphs, lowered
networks) both launch through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from ..specs.kernel import Kernel
from ..tensor.memspace import GL
from .errors import SimulationError
from .machine import Machine
from .plan import PlanCache
from .profiler import KernelProfile, Profiler
from .sanitizer import Sanitizer


@dataclass
class RunResult:
    """Everything one simulated launch produced: the machine (for
    post-mortem inspection) and the observers' output."""

    machine: Machine
    sanitizer: Optional[Sanitizer] = None
    profile: Optional[KernelProfile] = None


def bind_launch(kernel, bindings, symbols, machine, sanitizer=None):
    """Set up one launch: check symbols, bind params, declare allocations.

    The launch-setup contract shared by ``Simulator.run`` and recorded
    launches (:class:`repro.sim.trace.RecordedLaunch`): every kernel
    symbol must be bound, every binding must name a parameter and match
    its dtype and extent, every parameter tensor gets its numpy array
    bound as a global buffer, and every ``Allocate`` in the body gets
    its backing buffer declared (swizzled tensors round their window up
    to a power of two so XOR'd offsets stay in range).
    """
    missing = [v.name for v in kernel.symbols if v.name not in symbols]
    if missing:
        raise SimulationError(f"unbound kernel symbols: {missing}")
    unknown = sorted(set(bindings) - {p.name for p in kernel.params})
    if unknown:
        raise SimulationError(
            f"bindings {unknown} name no parameter of {kernel.name!r}"
        )
    for param in kernel.params:
        if param.name not in bindings:
            raise SimulationError(f"missing binding for {param!r}")
        array = np.asarray(bindings[param.name])
        if array.dtype != param.dtype.np_dtype:
            raise SimulationError(
                f"binding for parameter {param.name!r} has dtype "
                f"{array.dtype}; the parameter is {param.dtype.np_dtype}"
            )
        size = int(array.size)
        need = param.layout.cosize()
        if not isinstance(need, int):
            need = need.evaluate(symbols)
        if size < need:
            raise SimulationError(
                f"binding for parameter {param.name!r} has {size} "
                f"elements; its layout needs {need}"
            )
        machine.bind_global(param.buffer, bindings[param.name])
        if sanitizer is not None:
            sanitizer.declare(param.buffer, GL, size)
    for alloc in kernel.allocations():
        cosize = alloc.layout.cosize()
        if not isinstance(cosize, int):
            raise SimulationError(
                f"Allocate of symbolic tensor {alloc!r} is unsupported"
            )
        if not alloc.swizzle.is_identity():
            window = 1
            while window < cosize:
                window <<= 1
            cosize = window
        machine.declare(alloc.buffer, alloc.dtype, cosize)
        if sanitizer is not None:
            sanitizer.declare(alloc.buffer, alloc.mem, cosize)


def observed_run(kernel, bindings, symbols, plan_for: Callable, *,
                 sanitize=False, profile=False, record=None):
    """Execute one launch's plan once, with the asked-for observers.

    The one observed plan execution behind ``Simulator.run`` and
    :class:`~repro.sim.trace.RecordedLaunch`: a fresh machine and
    observers, :func:`bind_launch` (so a bad binding raises before any
    plan compiles), ``plan_for()`` for the plan, then one plan replay,
    or ``record(plan, machine, symbols, sanitizer, profiler)`` to
    replay it while recording its trace.  ``sanitize`` and ``profile``
    mean what they do for ``Simulator.run``.  Returns the
    :class:`RunResult` and the recorded trace (``None`` without
    ``record``).
    """
    machine = Machine()
    sanitizer = Sanitizer() if sanitize else None
    profiler = Profiler() if profile else None
    bind_launch(kernel, bindings, symbols, machine, sanitizer)
    plan = plan_for()
    trace = None
    if record is None:
        plan.replay(machine, symbols, sanitizer, profiler)
    else:
        trace = record(plan, machine, symbols, sanitizer, profiler)
    if sanitizer is not None and sanitize != "report":
        sanitizer.raise_if_dirty()
    kernel_profile = None
    if profiler is not None:
        kernel_profile = profiler.finish(
            kernel.name, kernel.grid_size(), kernel.block_size()
        )
    return RunResult(machine, sanitizer, kernel_profile), trace


class Simulator:
    """Executes kernels functionally against an architecture's atomics.

    One simulator may be shared across threads: its
    :class:`~repro.sim.plan.PlanCache` is internally locked.
    """

    def __init__(self, arch):
        self.arch = arch
        #: Compiled launch plans, keyed on kernel fingerprint +
        #: symbol/binding-shape signature.
        self.plan_cache = PlanCache()

    def run(
        self,
        kernel: Kernel,
        bindings: Dict[str, np.ndarray],
        symbols: Optional[Dict[str, int]] = None,
        *,
        sanitize=False,
        profile=False,
    ) -> "RunResult":
        """Launch ``kernel`` over numpy-backed global buffers.

        ``bindings`` maps parameter tensor names to arrays (modified in
        place for outputs, exactly like buffers passed to a CUDA kernel).
        Returns a :class:`RunResult` carrying the machine for
        post-mortem inspection plus any sanitizer/profiler output.

        ``sanitize=True`` attaches a race/memory sanitizer (see
        :mod:`repro.sim.sanitizer`) and raises :class:`SanitizerError`
        after the launch if it found any hazard; ``sanitize="report"``
        collects findings without raising (inspect them on the result's
        ``sanitizer.reports``).

        ``profile=True`` attaches an instruction profiler (see
        :mod:`repro.sim.profiler`); the measured Nsight-style counters
        are returned as the result's ``profile``.
        """
        symbols = dict(symbols or {})
        run, _ = observed_run(
            kernel, bindings, symbols,
            lambda: self.plan_cache.lookup(kernel, self.arch, symbols,
                                           bindings),
            sanitize=sanitize, profile=profile,
        )
        return run
