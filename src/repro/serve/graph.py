"""Captured executable graphs: capture once, replay many times.

The CUDA-graph idiom applied to the simulator: ``Simulator.run`` pays
launch setup (symbol checks, parameter binding, allocation declaration)
and — on a plan-cache miss — plan compilation on *every* call.  A
:class:`CapturedGraph` pays all of that exactly once per (kernel
identity, symbol bindings, binding shapes) signature: it copies the
bindings into *static slots* (persistent numpy buffers standing in for
device allocations) and binds one
:class:`~repro.sim.trace.RecordedLaunch` to them, which records the
launch's trace in the capture's one execution.  A replay is then

    copy-in -> trace replay -> copy-out

and is bit-identical to a fresh ``Simulator.run`` of the same bindings:
same output bytes, same profiler counters, same sanitizer verdicts.
Observations are values of the launch signature, so the graph holds
them: capture measures the ones its ``sanitize``/``profile`` keywords
ask for (never raising a sanitizer verdict), a replay asking for one it
lacks runs one plan replay to measure it, and every other replay
returns the held ones.  Replays fall back to the capture's keywords.
The graph keeps no plan; it owns the lock its replays take turns on.

Graphs pickle: the recorded launch is rebuilt deterministically on load
from the (picklable) kernel, so a captured graph can travel to a worker
process and serve there.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from ..sim.errors import SimulationError
from ..sim.interp import RunResult
from ..sim.plan import kernel_fingerprint
from ..sim.trace import RecordedLaunch, record_trace
from ..tensor.memspace import GL


class GraphKey(NamedTuple):
    """Identity of one captured graph: what must match for reuse.

    Built only from strings, ints and tuples — hashable, picklable, and
    deterministic across processes (the kernel contributes its
    structural fingerprint, not its ``id()``).
    """

    fingerprint: str
    arch: str
    symbols: Tuple[Tuple[str, int], ...]
    signature: Tuple[Tuple[str, Tuple[int, ...], str], ...]

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


class CapturedGraph:
    """One launch signature frozen into a replayable executable.

    Treat instances as immutable: all state is fixed at capture time
    except the contents of the static slots, which each replay
    overwrites wholesale, and the observations its launch holds.
    Because replays mutate the slots, a single graph must not be
    replayed concurrently: callers hold its :attr:`lock`.
    """

    @classmethod
    def capture(cls, kernel, arch, symbols: Optional[Dict[str, int]],
                bindings: Dict[str, np.ndarray], *, sanitize=False,
                profile=False) -> "CapturedGraph":
        """Capture ``kernel`` at this launch signature.

        ``bindings`` provides the parameter arrays whose shapes/dtypes
        fix the static-slot geometry (contents are copied in as the
        slots' initial state but every replay overwrites them).
        ``sanitize`` and ``profile`` are the replays' defaults.
        """
        start = time.perf_counter()
        self = cls.__new__(cls)
        slots = {
            name: np.array(np.asarray(array), copy=True)
            for name, array in bindings.items()
        }
        written = set()
        for spec in kernel.specs():
            for t in spec.outputs:
                if t.mem == GL:
                    written.add(t.buffer)
        self.sanitize = sanitize
        self.profile = profile
        self.slots = slots
        #: Held by whoever replays this graph: replays overwrite slots.
        self.lock = threading.Lock()
        # Capture is the launch's first execution (slot contents are
        # scratch until the first copy-in): it records the trace, by
        # this module's name for ``record_trace``, and holds the asked-
        # for observations without judging them.
        self.launch = RecordedLaunch(kernel, arch, slots, symbols,
                                     record=record_trace)
        self.launch.run("report" if sanitize else False, profile)
        self.trace = self.launch.trace
        self.key = graph_key(kernel, arch, self.launch.symbols, slots)
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
        return (sum(a.nbytes for a in self.slots.values())
                + self.trace.nbytes)

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

    def replay(self, bindings: Dict[str, np.ndarray],
               *, sanitize=None, profile=None) -> RunResult:
        """Copy bindings in, replay the captured launch, return the run.

        Bit-identical to ``Simulator.run(kernel, bindings, symbols)``
        with the same ``sanitize``/``profile`` (``None`` takes the
        capture's): the returned
        :class:`~repro.sim.interp.RunResult` carries a machine whose
        global buffers are the static slots, and the launch's held
        sanitizer findings and profile (measured by one plan replay the
        first time one is asked for).  ``sanitize=True`` raises the
        held reports on every replay.  Callers' arrays are never
        mutated; read results via :meth:`outputs`.
        """
        if sanitize is None:
            sanitize = self.sanitize
        if profile is None:
            profile = self.profile
        self._copy_in(bindings)
        self.replay_count += 1
        return self.launch.run(sanitize, profile)

    def outputs(self) -> Dict[str, np.ndarray]:
        """Copies of the written parameters' current slot contents."""
        return {
            name: np.array(self.slots[name], copy=True)
            for name in self.output_params
        }

    # -- pickling --------------------------------------------------------------
    def __getstate__(self):
        # The trace holds closures; capture is deterministic, so a graph
        # serializes as its capture inputs (current slot contents
        # included) and re-captures on load.
        launch = self.launch
        return {
            "kernel": launch.kernel,
            "arch": launch.arch,
            "symbols": launch.symbols,
            "sanitize": self.sanitize,
            "profile": self.profile,
            "slots": self.slots,
        }

    def __setstate__(self, state):
        rebuilt = CapturedGraph.capture(
            state["kernel"], state["arch"], state["symbols"],
            state["slots"], sanitize=state["sanitize"],
            profile=state["profile"],
        )
        self.__dict__.update(rebuilt.__dict__)

    def __repr__(self):
        return (f"CapturedGraph({self.launch.kernel.name}, "
                f"grid={self.grid_size}, "
                f"slots={list(self.slots)}, outputs={list(self.output_params)}, "
                f"replays={self.replay_count})")


__all__ = [
    "CapturedGraph", "GraphKey", "binding_signature", "graph_key",
]
