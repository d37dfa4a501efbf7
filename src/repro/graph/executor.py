"""End-to-end network execution on the simulator.

The executor takes a :class:`~repro.graph.lower.LoweredNetwork` and
runs every group's kernel launches in dependency order inside the
lowering's *static arena*: one numpy array per storage edge (alias
chains share) and per scratch buffer, allocated on the first run, with
every launch bound once to views of them — the CUDA-graph static-input
idiom.

Two guarantees distinguish this from the modelled Figure 15 path:

* **correctness** — after each group runs, its outputs (and any
  alias-mutated storage, i.e. the KV cache) are compared *bitwise*
  against the group's numpy reference replayed from input snapshots;
* **attribution** — per-launch time comes from *measured* profiler
  counters (global/shared traffic, bank-conflict degree) fed through
  the roofline, not from the static library cost table, so the
  reported per-role seconds describe the kernels that actually ran.

A launch's counters, timeline, sanitizer verdict, control flow, row
sets and index arrays depend only on its addresses, which the lowering
fixes and no shipped kernel lets tensor data steer.  So the arena binds
each launch once as a :class:`~repro.sim.trace.RecordedLaunch`.  The
first execution of a lowering runs each launch's plan with the profiler
attached, records its :class:`~repro.sim.trace.PlanTrace` straight
over the arena in that same run, and keeps the launch's roofline
seconds from the held profile.  When a launch's blocks provably
translate block 0 (every grid>1 launch of the benchmark's roster does),
only block 0 goes through the plan and the profiler; blocks 1..N run
from its trace and are charged as block 0
(:func:`~repro.sim.trace.record_trace`).  Every later run is copy-in → one trace
replay per launch → group checks → copy-out: no plan walk, no launch
binding, no profiler.  Each group's result carries its launches' held
profiles, and with ``sanitize`` set their held sanitizer findings; the
first run that asks for a sanitizer measures it with one plan replay
per launch.  Runs of one lowering share its arena, so they take turns
on :attr:`LoweredNetwork.lock`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..perfmodel import PerfModel, count_kernel
from ..sim.profiler import KernelProfile
from ..sim.sanitizer import Sanitizer
from ..sim.trace import RecordedLaunch
from .lower import Launch, LoweredNetwork

_DTYPES = {"fp16": np.float16, "fp32": np.float32}


class GroupCheckError(AssertionError):
    """A fusion group's executed output diverged from its reference."""


@dataclass
class GroupResult:
    """What one fusion group's execution produced and cost."""

    name: str
    kind: str
    mode: str
    roles: List[str]
    launches: int
    #: Roofline seconds from measured profiler counters.
    measured_seconds: float
    #: Static roofline seconds (the lowering's selection score).
    modelled_seconds: float
    checked: bool
    passed: bool
    #: Worst absolute fp32 deviation vs the reference (0.0 when exact).
    max_abs_error: float = 0.0
    #: Each launch's profile, held from the lowering's first run.
    profiles: List[KernelProfile] = field(default_factory=list)
    #: Each launch's held sanitizer findings, when the run sanitized.
    findings: Optional[List[Sanitizer]] = None


@dataclass
class NetworkRun:
    """One executed network: outputs plus per-group/per-role seconds."""

    network: str
    arch: str
    #: Always ``"executed"`` — the modelled path lives in repro.eval.
    attribution: str
    groups: List[GroupResult]
    outputs: Dict[str, np.ndarray]
    role_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return sum(g.measured_seconds for g in self.groups)

    @property
    def passed(self) -> bool:
        return all(g.passed for g in self.groups if g.checked)

    def __repr__(self):
        state = "passed" if self.passed else "FAILED"
        return (f"NetworkRun({self.network!r}, {self.arch}, "
                f"{self.seconds * 1e6:.1f}us, {len(self.groups)} groups, "
                f"{state})")


def _seed_inputs(lowered: LoweredNetwork, bindings: Optional[Dict],
                 seed: int) -> Dict[str, np.ndarray]:
    """User bindings for graph inputs, deterministic fill for the rest.

    The caller's arrays come back as they are: the arena copies them in.
    """
    graph = lowered.graph
    rng = np.random.default_rng(seed)
    out: Dict[str, np.ndarray] = {}
    bindings = dict(bindings or {})
    unknown = sorted(set(bindings) - set(graph.inputs))
    if unknown:
        raise KeyError(
            f"bindings for non-input edges {unknown}; graph inputs are "
            f"{graph.inputs}"
        )
    for edge in graph.inputs:
        spec = graph.edge(edge)
        dtype = _DTYPES[spec.dtype]
        if edge in bindings:
            arr = np.asarray(bindings[edge])
            if arr.dtype != dtype:
                raise ValueError(
                    f"binding for {edge!r} has dtype {arr.dtype}, "
                    f"expected {np.dtype(dtype)}"
                )
            if tuple(arr.shape) != tuple(spec.shape):
                raise ValueError(
                    f"binding for {edge!r} has shape {arr.shape}, "
                    f"expected {tuple(spec.shape)}"
                )
            out[edge] = arr
        else:
            out[edge] = (rng.random(spec.shape) - 0.5).astype(dtype)
    return out


def _measured_seconds(launch: Launch, profile, model: PerfModel,
                      arch) -> float:
    """Roofline time from the launch's measured counters."""
    counts = count_kernel(launch.kernel, arch, launch.symbols)
    counts.dram_read_bytes = float(profile.global_load_bytes)
    counts.dram_write_bytes = float(profile.global_store_bytes)
    counts.smem_bytes = float(profile.shared_bytes)
    est = model.estimate_counts(
        counts, launch.kernel.name,
        bank_conflict_factor=max(1.0, profile.conflict_degree()),
    )
    return est.total_seconds


class _Arena:
    """A lowering's static storage and its launches bound into it."""

    def __init__(self, lowered: LoweredNetwork):
        graph = lowered.graph
        storage: Dict[str, np.ndarray] = {}
        for edge in graph.tensors:
            name = graph.storage(edge)
            if name not in storage:
                spec = graph.edge(name)
                storage[name] = np.zeros(spec.shape, _DTYPES[spec.dtype])
        for gl in lowered.groups:
            for name, (shape, dtype) in gl.scratch.items():
                storage[name] = np.zeros(shape, _DTYPES[dtype])
        self.storage = storage
        #: Every edge and scratch name -> the array it lives in.
        self.arrays = {edge: storage[graph.storage(edge)]
                       for edge in graph.tensors}
        self.arrays.update((name, storage[name]) for gl in lowered.groups
                           for name in gl.scratch)
        self.launches: List[RecordedLaunch] = []
        for launch in lowered.launches:
            views = {}
            for param, bref in launch.bindings.items():
                arr = self.arrays[bref.buffer]
                if bref.rows is not None:
                    arr = arr[bref.rows[0]:bref.rows[1]]
                views[param] = arr
            self.launches.append(RecordedLaunch(
                launch.kernel, lowered.arch, views, launch.symbols))
        #: Each launch's roofline seconds from its held profile.
        self.seconds: List[Optional[float]] = [None] * len(self.launches)

    def load(self, inputs: Dict[str, np.ndarray]) -> None:
        """Copy ``inputs`` in and zero every other array.

        Nothing may leak between runs: the naive GEMMs accumulate onto
        their outputs, and scratch starts zeroed like a fresh buffer.
        """
        for name, arr in self.storage.items():
            given = inputs.get(name)
            if given is None:
                arr.fill(0)
            else:
                arr[...] = given


def execute(lowered: LoweredNetwork, *, bindings: Optional[Dict] = None,
            sanitize=False, check: bool = True,
            seed: int = 0) -> NetworkRun:
    """Run a lowered network end to end; see module docstring.

    ``check=True`` (the default) raises :class:`GroupCheckError` on the
    first group whose executed output is not bit-identical to its numpy
    reference.  ``sanitize`` is ``Simulator.run``'s; launches are
    always profiled.
    """
    inputs = _seed_inputs(lowered, bindings, seed)
    with lowered.lock:
        if lowered.arena is None:
            lowered.arena = _Arena(lowered)
        return _execute(lowered, lowered.arena, inputs, sanitize, check)


def _execute(lowered: LoweredNetwork, arena: _Arena,
             inputs: Dict[str, np.ndarray], sanitize,
             check: bool) -> NetworkRun:
    graph = lowered.graph
    arch = lowered.arch
    model = PerfModel(arch)
    arrays = arena.arrays
    arena.load(inputs)
    index = 0
    results: List[GroupResult] = []
    role_seconds: Dict[str, float] = {}
    for gl in lowered.groups:
        if check:
            snapshot = {e: arrays[e].copy() for e in gl.group.inputs}

        measured = 0.0
        roles: List[str] = []
        profiles: List[KernelProfile] = []
        findings = [] if sanitize else None
        for launch in gl.launches:
            run = arena.launches[index].run(sanitize, profile=True)
            seconds = arena.seconds[index]
            if seconds is None:
                seconds = arena.seconds[index] = _measured_seconds(
                    launch, run.profile, model, arch)
            index += 1
            profiles.append(run.profile)
            if findings is not None:
                findings.append(run.sanitizer)
            measured += seconds
            role_seconds[launch.role] = (
                role_seconds.get(launch.role, 0.0) + seconds)
            if launch.role not in roles:
                roles.append(launch.role)

        passed, max_err = True, 0.0
        if check:
            expected = gl.reference(snapshot)
            for edge, want in expected.items():
                got = arrays[edge]
                if not np.array_equal(got, want):
                    passed = False
                    err = np.abs(got.astype(np.float32)
                                 - want.astype(np.float32))
                    max_err = max(max_err, float(np.max(err)))
        result_row = GroupResult(
            name=gl.name, kind=gl.group.kind, mode=gl.mode, roles=roles,
            launches=len(gl.launches), measured_seconds=measured,
            modelled_seconds=gl.modelled_seconds, checked=check,
            passed=passed, max_abs_error=max_err, profiles=profiles,
            findings=findings,
        )
        results.append(result_row)
        if check and not passed:
            raise GroupCheckError(
                f"group {gl.name!r} ({gl.group.kind}, {gl.mode}) diverged "
                f"from its numpy reference (max |err| {max_err:.3g}) in "
                f"network {graph.name!r}"
            )

    outputs = {e: arrays[e].copy() for e in graph.outputs}
    return NetworkRun(
        network=graph.name, arch=arch.name, attribution="executed",
        groups=results, outputs=outputs, role_seconds=role_seconds,
    )
