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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..specs.kernel import Kernel
from ..tensor.memspace import GL
from .errors import SimulationError
from .machine import Machine
from .options import RunOptions
from .plan import PlanCache
from .profiler import KernelProfile, Profiler
from .sanitizer import Sanitizer


@dataclass
class RunResult:
    """Everything one simulated launch produced.

    ``Simulator.run`` historically returned the bare :class:`Machine`;
    with the sanitizer and profiler a launch now has three outputs, so
    they travel together.  Access the machine explicitly as
    ``result.machine`` — the transitional attribute fall-through (which
    warned with ``DeprecationWarning``) has been removed.
    """

    machine: Machine
    sanitizer: Optional[Sanitizer] = None
    profile: Optional[KernelProfile] = None

    def __getattr__(self, name):
        if not name.startswith("_") and hasattr(self.machine, name):
            raise AttributeError(
                f"{type(self).__name__} has no attribute {name!r}: the "
                f"machine delegation shim was removed — use "
                f"result.machine.{name} instead"
            )
        raise AttributeError(
            f"{type(self).__name__!s} has no attribute {name!r}"
        )


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
        options: Optional[RunOptions] = None,
        sanitize=None,
        profile=None,
    ) -> "RunResult":
        """Launch ``kernel`` over numpy-backed global buffers.

        ``bindings`` maps parameter tensor names to arrays (modified in
        place for outputs, exactly like buffers passed to a CUDA kernel).
        Returns a :class:`RunResult` carrying the machine for
        post-mortem inspection plus any sanitizer/profiler output.

        Behaviour is controlled by a :class:`~repro.sim.options.RunOptions`
        (``options=``); the ``sanitize``/``profile`` keywords are
        explicit per-knob overrides of it.

        ``sanitize=True`` attaches a race/memory sanitizer (see
        :mod:`repro.sim.sanitizer`) and raises :class:`SanitizerError`
        after the launch if it found any hazard; ``sanitize="report"``
        collects findings without raising (inspect them on the result's
        ``sanitizer.reports``).

        ``profile=True`` attaches an instruction profiler (see
        :mod:`repro.sim.profiler`); the measured Nsight-style counters
        are returned as the result's ``profile``.
        """
        opts = options if options is not None else RunOptions()
        if sanitize is None:
            sanitize = opts.sanitize
        if profile is None:
            profile = opts.profile
        machine = Machine()
        sanitizer = Sanitizer() if sanitize else None
        profiler = Profiler() if profile else None
        symbols = dict(symbols or {})
        bind_launch(kernel, bindings, symbols, machine, sanitizer)
        plan = self.plan_cache.lookup(kernel, self.arch, symbols, bindings)
        plan.replay(machine, symbols, sanitizer, profiler)
        if sanitizer is not None and sanitize != "report":
            sanitizer.raise_if_dirty()
        kernel_profile = None
        if profiler is not None:
            kernel_profile = profiler.finish(
                kernel.name, kernel.grid_size(), kernel.block_size()
            )
        return RunResult(
            machine=machine, sanitizer=sanitizer, profile=kernel_profile
        )
