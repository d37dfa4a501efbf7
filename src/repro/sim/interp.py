"""The functional simulator: an interpreter for Graphene kernel IR.

Substitutes for running generated CUDA on a GPU (see DESIGN.md).  The
interpreter walks the decomposition statement tree once per thread-block
in statement-lockstep (every statement completes for all threads before
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

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..ir.stmt import (
    Barrier, Block, Comment, ForLoop, If, SpecStmt, Stmt, SyncThreads,
    SyncWarp, walk,
)
from ..specs.atomic import AtomicSpec, match_atomic
from ..specs.base import Allocate, Spec
from ..specs.kernel import Kernel
from ..tensor.memspace import GL
from ..threads.threadgroup import THREAD, ThreadGroup
from .access import compile_expr
from .context import ExecCtx
from .errors import SimulationError
from .machine import Machine
from .options import RunOptions, resolve_run_options
from .plan import PlanCache
from .profiler import KernelProfile, Profiler
from .sanitizer import Sanitizer, SanitizerError


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

    The launch-setup contract shared by ``Simulator.run`` and the serve
    layer's graph capture (:mod:`repro.serve.graph`): every kernel
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

    One simulator may be shared across threads: the compiled-closure
    caches below are per-thread, and :class:`~repro.sim.plan.PlanCache`
    is internally locked.
    """

    def __init__(self, arch):
        self.arch = arch
        # Per-thread compiled-closure caches (keyed on id(stmt)): the
        # reference interpreter clears them at the top of each run, so
        # sharing them across threads would corrupt a concurrent run.
        self._tls = threading.local()
        #: Compiled launch plans for the ``"vectorized"`` engine, keyed
        #: on kernel fingerprint + symbol/binding-shape signature.
        self.plan_cache = PlanCache()

    @property
    def _loop_cache(self) -> Dict[int, tuple]:
        try:
            return self._tls.loop_cache
        except AttributeError:
            self._tls.loop_cache = {}
            return self._tls.loop_cache

    @property
    def _pred_cache(self) -> Dict[int, list]:
        try:
            return self._tls.pred_cache
        except AttributeError:
            self._tls.pred_cache = {}
            return self._tls.pred_cache

    @property
    def _atomic_cache(self) -> Dict[int, "AtomicSpec"]:
        try:
            return self._tls.atomic_cache
        except AttributeError:
            self._tls.atomic_cache = {}
            return self._tls.atomic_cache

    # -- public API ----------------------------------------------------------
    def run(
        self,
        kernel: Kernel,
        bindings: Dict[str, np.ndarray],
        symbols: Optional[Dict[str, int]] = None,
        *,
        options: Optional[RunOptions] = None,
        sanitize=None,
        profile=None,
        engine=None,
    ) -> "RunResult":
        """Launch ``kernel`` over numpy-backed global buffers.

        ``bindings`` maps parameter tensor names to arrays (modified in
        place for outputs, exactly like buffers passed to a CUDA kernel).
        Returns a :class:`RunResult` carrying the machine for
        post-mortem inspection plus any sanitizer/profiler output.

        Behaviour is controlled by a :class:`~repro.sim.options.RunOptions`
        (``options=``); the ``sanitize``/``profile``/``engine`` keywords
        are explicit per-knob overrides of it.

        ``sanitize=True`` attaches a race/memory sanitizer (see
        :mod:`repro.sim.sanitizer`) and raises :class:`SanitizerError`
        after the launch if it found any hazard; ``sanitize="report"``
        collects findings without raising (inspect them on the result's
        ``sanitizer.reports``).

        ``profile=True`` attaches an instruction profiler (see
        :mod:`repro.sim.profiler`); the measured Nsight-style counters
        are returned as the result's ``profile``.

        ``engine="vectorized"`` (the default) executes through a cached
        compiled launch plan (:mod:`repro.sim.plan`);
        ``engine="reference"`` runs the scalar interpreter.  Both are
        bit-identical, including profiler counters and sanitizer
        reports.
        """
        opts = resolve_run_options(
            options, sanitize=sanitize, profile=profile, engine=engine
        )
        # Compiled-closure caches key on id(stmt); scoping them to one
        # run keeps a recycled id from a garbage-collected kernel from
        # resurrecting a stale closure (ids are unique only among live
        # objects, and kernels stay alive for the duration of a run).
        self._loop_cache.clear()
        self._pred_cache.clear()
        self._atomic_cache.clear()
        machine = Machine()
        sanitizer = Sanitizer() if opts.sanitize else None
        profiler = Profiler() if opts.profile else None
        machine.sanitizer = sanitizer
        machine.profiler = profiler
        symbols = dict(symbols or {})
        bind_launch(kernel, bindings, symbols, machine, sanitizer)
        block_size = kernel.block_size()
        if opts.engine == "vectorized":
            plan = self.plan_cache.lookup(kernel, self.arch, symbols,
                                          bindings)
            plan.replay(machine, symbols, sanitizer, profiler)
        else:
            for bid in range(kernel.grid_size()):
                if sanitizer is not None:
                    sanitizer.begin_block(bid)
                if profiler is not None:
                    profiler.begin_block(bid)
                env = dict(symbols)
                env["blockIdx.x"] = bid
                self._exec_block_stmts(
                    kernel.body, env, bid, [], machine, block_size
                )
                machine.tma_check_drained(bid)
        if sanitizer is not None and opts.sanitize != "report":
            sanitizer.raise_if_dirty()
        kernel_profile = None
        if profiler is not None:
            kernel_profile = profiler.finish(
                kernel.name, kernel.grid_size(), block_size
            )
        return RunResult(
            machine=machine, sanitizer=sanitizer, profile=kernel_profile
        )

    # -- statement execution -----------------------------------------------------
    def _exec_block_stmts(self, block, env, bid, preds, machine, nthreads):
        for stmt in block:
            self._exec_stmt(stmt, env, bid, preds, machine, nthreads)

    def _exec_stmt(self, stmt: Stmt, env, bid, preds, machine, nthreads):
        if isinstance(stmt, Block):
            self._exec_block_stmts(stmt, env, bid, preds, machine, nthreads)
        elif isinstance(stmt, ForLoop):
            start, stop, step, name = self._loop_bounds(stmt)
            lo = start(env)
            hi = stop(env)
            inc = step(env)
            for value in range(lo, hi, inc):
                env[name] = value
                self._exec_block_stmts(
                    stmt.body, env, bid, preds, machine, nthreads
                )
            env.pop(name, None)
        elif isinstance(stmt, If):
            # Predicate contract (see ir.stmt.If): every pair asserts
            # strict `lhs < rhs`.  Thread-uniform predicates select one
            # branch for the whole block; thread-dependent predicates
            # mean per-lane predicated execution of the then-branch and
            # are carried down to the leaf executors, so they admit no
            # else-branch.
            split = self._pred_cache.get(id(stmt))
            if split is None:
                uniform, varying = [], []
                for a, b in stmt.predicates:
                    pair = (compile_expr(a), compile_expr(b))
                    if "threadIdx.x" in (a.free_vars() | b.free_vars()):
                        varying.append(pair)
                    else:
                        uniform.append(pair)
                split = (uniform, varying)
                self._pred_cache[id(stmt)] = split
            uniform, varying = split
            if varying and stmt.orelse is not None:
                raise SimulationError(
                    "If with thread-dependent predicates cannot carry an "
                    "else branch: lanes diverge individually, so no "
                    "uniform branch decision exists (emit a second If "
                    "guarded by the complement predicate instead)"
                )
            if all(lhs(env) < rhs(env) for lhs, rhs in uniform):
                self._exec_block_stmts(
                    stmt.then, env, bid, preds + varying, machine, nthreads
                )
            elif stmt.orelse is not None:
                self._exec_block_stmts(
                    stmt.orelse, env, bid, preds, machine, nthreads
                )
        elif isinstance(stmt, Barrier):
            # Statement-lockstep execution subsumes barriers numerically;
            # the sanitizer consumes them as epoch boundaries and the
            # profiler counts them.
            sanitizer = machine.sanitizer
            if sanitizer is not None:
                divergent = 0
                if preds:
                    lane_env = dict(env)
                    for lane in range(nthreads):
                        lane_env["threadIdx.x"] = lane
                        if not all(lhs(lane_env) < rhs(lane_env)
                                   for lhs, rhs in preds):
                            divergent += 1
                sanitizer.barrier(stmt.scope, divergent)
            if machine.profiler is not None:
                machine.profiler.barrier(stmt.scope)
            # Barriers drain outstanding TMA bulk copies: after the wait,
            # their shared-memory data is guaranteed visible.
            machine.tma_drain(bid)
        elif isinstance(stmt, Comment):
            pass
        elif isinstance(stmt, SpecStmt):
            self._exec_spec(stmt.spec, env, bid, preds, machine, nthreads)
        else:
            raise SimulationError(f"cannot execute statement {stmt!r}")

    def _loop_bounds(self, stmt: ForLoop):
        cached = self._loop_cache.get(id(stmt))
        if cached is None:
            cached = (
                compile_expr(stmt.start),
                compile_expr(stmt.stop),
                compile_expr(stmt.step),
                stmt.var.name,
            )
            self._loop_cache[id(stmt)] = cached
        return cached

    # -- spec execution --------------------------------------------------------------
    def _exec_spec(self, spec: Spec, env, bid, preds, machine, nthreads):
        if isinstance(spec, Allocate):
            return  # handled during launch
        if spec.body is not None:
            self._exec_block_stmts(spec.body, env, bid, preds, machine, nthreads)
            return
        atomic = self._atomic_cache.get(id(spec))
        if atomic is None:
            atomic = match_atomic(spec, self.arch.atomics)
            self._atomic_cache[id(spec)] = atomic
        if atomic.execute is None:
            raise SimulationError(
                f"atomic spec {atomic.name} has no simulator semantics"
            )
        profiler = machine.profiler
        if machine.sanitizer is not None or profiler is not None:
            label = f"{spec.kind}:{atomic.name}"
            if spec.label:
                label += f"[{spec.label}]"
            if machine.sanitizer is not None:
                machine.sanitizer.enter_spec(label)
        for lanes in self._lane_groups(spec, nthreads):
            ctx = ExecCtx(machine, bid, env, lanes, preds)
            if profiler is not None:
                profiler.begin_exec(label, atomic.name, atomic.width, lanes)
                try:
                    atomic.execute(spec, ctx)
                finally:
                    profiler.end_exec()
            else:
                atomic.execute(spec, ctx)

    def _lane_groups(self, spec: Spec, nthreads: int) -> List[List[int]]:
        """Which lane sets execute this spec (one call per set)."""
        group = spec.thread_group()
        if group is None or group.rank == 0:
            # Per-thread: one call covering every thread in the block.
            return [list(range(nthreads))]
        base = group.base
        base_value = base.evaluate({}) if base.free_vars() == frozenset() else None
        if base_value is None:
            raise SimulationError(
                f"thread group base of {spec!r} must be constant"
            )
        if group.is_tiled():
            inner = group.element.layout
            groups = []
            for g in range(group.layout.size()):
                start = base_value + group.layout(g)
                groups.append(
                    [start + inner(i) for i in range(inner.size())]
                )
            return groups
        layout = group.layout
        return [[base_value + layout(i) for i in range(layout.size())]]
