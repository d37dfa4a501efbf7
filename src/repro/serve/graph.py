"""Captured executable graphs: capture once, replay many times.

The CUDA-graph idiom applied to the simulator: ``Simulator.run`` pays
launch setup (symbol checks, parameter binding, allocation declaration)
and — on a plan-cache miss — plan compilation on *every* call.  A
:class:`CapturedGraph` pays all of that exactly once per (kernel
identity, symbol bindings, binding shapes) signature and freezes the
result into an immutable executable with *static slots*: persistent
numpy buffers standing in for device allocations.  A replay is then

    copy-in -> batched gather/scatter replay -> copy-out

and is bit-identical to a fresh ``Simulator.run`` of the same bindings:
same output bytes, same profiler counters, same sanitizer verdicts
(per-replay observers are created fresh; block-scoped machine state is
reset so no stale values can leak between replays).

Graphs pickle: the compiled plan and machine are rebuilt
deterministically on load from the (picklable) kernel, so a captured
graph can travel to a worker process and serve there.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..sim.interp import RunResult, bind_launch
from ..sim.errors import SimulationError
from ..sim.machine import Machine
from ..sim.options import RunOptions
from ..sim.plan import LaunchPlan, kernel_fingerprint
from ..sim.profiler import Profiler
from ..sim.sanitizer import Sanitizer
from ..sim.trace import record_trace
from ..tensor.memspace import GL


class GraphKey:
    """Identity of one captured graph: what must match for reuse.

    Built only from strings, ints and tuples — hashable, picklable, and
    deterministic across processes (the kernel contributes its
    structural fingerprint, not its ``id()``).
    """

    __slots__ = ("fingerprint", "arch", "symbols", "signature")

    def __init__(self, fingerprint: str, arch: str,
                 symbols: Tuple[Tuple[str, int], ...],
                 signature: Tuple[Tuple[str, Tuple[int, ...], str], ...]):
        self.fingerprint = fingerprint
        self.arch = arch
        self.symbols = symbols
        self.signature = signature

    def _tuple(self):
        return (self.fingerprint, self.arch, self.symbols, self.signature)

    def __eq__(self, other):
        return (isinstance(other, GraphKey)
                and other._tuple() == self._tuple())

    def __hash__(self):
        return hash(self._tuple())

    def __reduce__(self):
        return (GraphKey, self._tuple())

    def __repr__(self):
        return (f"GraphKey({self.fingerprint[:12]}, {self.arch}, "
                f"symbols={dict(self.symbols)}, "
                f"shapes={[(n, s) for n, s, _ in self.signature]})")


def binding_signature(bindings: Dict[str, np.ndarray]):
    """The (name, shape, dtype) tuple a graph's static slots must match."""
    return tuple(sorted(
        (name, tuple(np.shape(a)), np.asarray(a).dtype.str)
        for name, a in bindings.items()
    ))


def graph_key(kernel, arch, symbols: Dict[str, int],
              bindings: Dict[str, np.ndarray]) -> GraphKey:
    """Compute the capture identity for one launch signature."""
    return GraphKey(
        kernel_fingerprint(kernel),
        arch.name,
        tuple(sorted(symbols.items())),
        binding_signature(bindings),
    )


class _DeclRecorder:
    """Stands in for a sanitizer during capture to collect declarations.

    ``bind_launch`` tells its sanitizer about every buffer; replays
    create observers *fresh* each time, so the declarations are recorded
    once here and re-played into each new Sanitizer.
    """

    def __init__(self):
        self.decls: List[tuple] = []

    def declare(self, buffer, mem, size):
        self.decls.append((buffer, mem, size))


class CapturedGraph:
    """One launch signature frozen into a replayable executable.

    Treat instances as immutable: all state is fixed at capture time
    except the contents of the static slots, which each replay
    overwrites wholesale.  Because replays mutate the slots, a single
    graph must not be replayed concurrently — the serving layer holds a
    per-graph lock.
    """

    @classmethod
    def capture(cls, kernel, arch, symbols: Optional[Dict[str, int]],
                bindings: Dict[str, np.ndarray],
                options: Optional[RunOptions] = None) -> "CapturedGraph":
        """Capture ``kernel`` at this launch signature.

        ``bindings`` provides the parameter arrays whose shapes/dtypes
        fix the static-slot geometry (contents are copied in as the
        slots' initial state but every replay overwrites them).
        """
        start = time.perf_counter()
        self = cls.__new__(cls)
        symbols = dict(symbols or {})
        slots = {
            name: np.array(np.asarray(array), copy=True)
            for name, array in bindings.items()
        }
        machine = Machine()
        recorder = _DeclRecorder()
        bind_launch(kernel, slots, symbols, machine, recorder)
        plan = LaunchPlan(kernel, arch)
        written = set()
        for spec in kernel.specs():
            for t in spec.outputs:
                if t.mem == GL:
                    written.add(t.buffer)
        self.kernel = kernel
        self.arch = arch
        self.symbols = symbols
        self.options = options if options is not None else RunOptions()
        self.slots = slots
        self.machine = machine
        self.plan = plan
        # The trace records one real observers-off execution (slot
        # contents are scratch until the first copy-in); replays without
        # observers then skip plan re-interpretation entirely.
        self.trace = record_trace(plan, machine, symbols)
        self.declarations = tuple(recorder.decls)
        self.key = graph_key(kernel, arch, symbols, slots)
        self.output_params = tuple(
            p.name for p in kernel.params if p.buffer in written
        )
        self.grid_size = kernel.grid_size()
        self.replay_count = 0
        self.capture_seconds = time.perf_counter() - start
        return self

    # -- introspection ---------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Resident footprint charged against a cache budget."""
        total = sum(a.nbytes for a in self.slots.values())
        if self.trace is not None:
            total += self.trace.nbytes
        return total

    def matches(self, symbols: Dict[str, int],
                bindings: Dict[str, np.ndarray]) -> bool:
        return self.key == graph_key(self.kernel, self.arch,
                                     dict(symbols or {}), bindings)

    # -- replay ----------------------------------------------------------------
    def _copy_in(self, bindings: Dict[str, np.ndarray]) -> None:
        for name, slot in self.slots.items():
            provided = bindings.get(name)
            if provided is None:
                if name in self.output_params:
                    # Pure outputs may be omitted; a fresh launch sees
                    # zeroed device memory in this simulator's model.
                    slot[...] = 0
                    continue
                raise SimulationError(
                    f"replay missing binding for input parameter {name!r}"
                )
            arr = np.asarray(provided)
            if arr.shape != slot.shape or arr.dtype != slot.dtype:
                raise SimulationError(
                    f"replay binding {name!r} is {arr.dtype}{arr.shape}, "
                    f"captured slot is {slot.dtype}{slot.shape} — capture "
                    f"a new graph for a new signature"
                )
            slot[...] = arr
        extra = set(bindings) - set(self.slots)
        if extra:
            raise SimulationError(
                f"replay bindings name unknown parameters: {sorted(extra)}"
            )

    def _reset_machine(self) -> None:
        # Block-scoped buffers are created zeroed on first touch; a
        # fresh dict per replay makes machine state indistinguishable
        # from a brand-new launch.
        self.machine._shared = {}
        self.machine._regs = {}

    def _copy_out(self) -> Dict[str, np.ndarray]:
        return {
            name: np.array(self.slots[name], copy=True)
            for name in self.output_params
        }

    def replay(self, bindings: Dict[str, np.ndarray],
               *, sanitize=None, profile=None) -> RunResult:
        """Copy bindings in, replay the captured plan, return the run.

        Bit-identical to ``Simulator.run(kernel, bindings, symbols)``
        with this graph's options: the returned
        :class:`~repro.sim.interp.RunResult` carries the machine (its
        global buffers are the static slots), a fresh sanitizer's
        verdicts, and freshly-measured profiler counters.  Callers'
        arrays are never mutated; read results from the machine or via
        :meth:`outputs` / the copies in ``RunResult.machine``.
        """
        if sanitize is None:
            sanitize = self.options.sanitize
        if profile is None:
            profile = self.options.profile
        self._copy_in(bindings)
        self._reset_machine()
        sanitizer = Sanitizer() if sanitize else None
        profiler = Profiler() if profile else None
        if sanitizer is not None:
            for buffer, mem, size in self.declarations:
                sanitizer.declare(buffer, mem, size)
        if sanitizer is None and profiler is None and self.trace is not None:
            # Observers-off fast path: replay the recorded execution
            # trace (bit-identical outputs; block scratch stays in
            # trace-owned storage instead of the machine's tables).
            self.trace.replay()
        else:
            self.plan.replay(self.machine, self.symbols, sanitizer,
                             profiler)
        self.replay_count += 1
        if sanitizer is not None and sanitize != "report":
            sanitizer.raise_if_dirty()
        kernel_profile = None
        if profiler is not None:
            kernel_profile = profiler.finish(
                self.kernel.name, self.grid_size, self.kernel.block_size()
            )
        return RunResult(machine=self.machine, sanitizer=sanitizer,
                         profile=kernel_profile)

    def outputs(self) -> Dict[str, np.ndarray]:
        """Copies of the written parameters' current slot contents."""
        return self._copy_out()

    # -- pickling --------------------------------------------------------------
    def __getstate__(self):
        # The machine and compiled plan hold closures; capture is
        # deterministic, so a graph serializes as its capture inputs
        # (current slot contents included) and re-captures on load.
        return {
            "kernel": self.kernel,
            "arch": self.arch,
            "symbols": self.symbols,
            "options": self.options,
            "slots": self.slots,
        }

    def __setstate__(self, state):
        rebuilt = CapturedGraph.capture(
            state["kernel"], state["arch"], state["symbols"],
            state["slots"], options=state["options"],
        )
        self.__dict__.update(rebuilt.__dict__)

    def __repr__(self):
        return (f"CapturedGraph({self.kernel.name}, grid={self.grid_size}, "
                f"slots={list(self.slots)}, outputs={list(self.output_params)}, "
                f"replays={self.replay_count})")


__all__ = [
    "CapturedGraph", "GraphKey", "binding_signature", "graph_key",
]
