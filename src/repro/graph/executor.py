"""End-to-end network execution on the simulator.

The executor takes a :class:`~repro.graph.lower.LoweredNetwork`,
allocates one numpy buffer per storage edge (alias chains share), and
runs every group's kernel launches in dependency order on the
:class:`~repro.sim.Simulator`'s vectorized plan engine.

Two guarantees distinguish this from the modelled Figure 15 path:

* **correctness** — after each group runs, its outputs (and any
  alias-mutated storage, i.e. the KV cache) are compared *bitwise*
  against the group's numpy reference replayed from input snapshots;
* **attribution** — per-launch time comes from *measured* profiler
  counters (global/shared traffic, bank-conflict degree) fed through
  the roofline, not from the static library cost table, so the
  reported per-role seconds describe the kernels that actually ran.

A launch's counters depend only on its addresses and control flow,
which the lowering fixes and no shipped kernel lets tensor data steer.
So each launch is profiled once per lowering: the first execution runs
it with the profiler attached and memoizes its seconds on
:attr:`LoweredNetwork.measured_seconds`; later executions run it with
the profiler off and reuse that float, exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

import numpy as np

from ..perfmodel import PerfModel, count_kernel
from ..sim import RunOptions, Simulator
from .lower import GroupLowering, Launch, LoweredNetwork

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
    """User bindings for graph inputs, deterministic fill for the rest."""
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
            out[edge] = arr.copy()
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


def execute(lowered: LoweredNetwork, *, bindings: Optional[Dict] = None,
            options: Optional[RunOptions] = None, check: bool = True,
            seed: int = 0) -> NetworkRun:
    """Run a lowered network end to end; see module docstring.

    ``check=True`` (the default) raises :class:`GroupCheckError` on the
    first group whose executed output is not bit-identical to its numpy
    reference.
    """
    graph = lowered.graph
    arch = lowered.arch
    sim = Simulator(arch)
    model = PerfModel(arch)
    options = options or RunOptions()
    profiled = replace(options, profile=True)
    replayed = replace(options, profile=False)
    memo = lowered.measured_seconds
    index = 0

    # One buffer per storage edge; alias edges resolve onto it.
    buffers: Dict[str, np.ndarray] = {}
    inputs = _seed_inputs(lowered, bindings, seed)
    for edge, spec in graph.tensors.items():
        storage = graph.storage(edge)
        if storage in buffers:
            continue
        if storage in inputs:
            buffers[storage] = inputs[storage]
        else:
            sspec = graph.edge(storage)
            buffers[storage] = np.zeros(sspec.shape, _DTYPES[sspec.dtype])

    def array_for(name: str) -> np.ndarray:
        if name in buffers:
            return buffers[name]
        return buffers[graph.storage(name)]

    results: List[GroupResult] = []
    role_seconds: Dict[str, float] = {}
    for gl in lowered.groups:
        # Scratch is group-local and zero-initialized per execution
        # (the naive GEMMs accumulate onto their output buffers).
        for name, (shape, dtype) in gl.scratch.items():
            buffers[name] = np.zeros(shape, _DTYPES[dtype])

        if check:
            snapshot = {e: array_for(e).copy() for e in gl.group.inputs}

        measured = 0.0
        roles: List[str] = []
        for launch in gl.launches:
            run_bindings = {}
            for param, bref in launch.bindings.items():
                arr = array_for(bref.buffer)
                if bref.rows is not None:
                    arr = arr[bref.rows[0]:bref.rows[1]]
                run_bindings[param] = arr
            seconds = memo.get(index)
            result = sim.run(launch.kernel, run_bindings,
                             symbols=launch.symbols,
                             options=profiled if seconds is None
                             else replayed)
            if seconds is None:
                seconds = memo[index] = _measured_seconds(
                    launch, result.profile, model, arch)
            index += 1
            measured += seconds
            role_seconds[launch.role] = (
                role_seconds.get(launch.role, 0.0) + seconds)
            if launch.role not in roles:
                roles.append(launch.role)

        passed, max_err = True, 0.0
        if check:
            expected = gl.reference(snapshot)
            for edge, want in expected.items():
                got = array_for(edge)
                if not np.array_equal(got, want):
                    passed = False
                    err = np.abs(got.astype(np.float32)
                                 - want.astype(np.float32))
                    max_err = max(max_err, float(np.max(err)))
        result_row = GroupResult(
            name=gl.name, kind=gl.group.kind, mode=gl.mode, roles=roles,
            launches=len(gl.launches), measured_seconds=measured,
            modelled_seconds=gl.modelled_seconds, checked=check,
            passed=passed, max_abs_error=max_err,
        )
        results.append(result_row)
        if check and not passed:
            raise GroupCheckError(
                f"group {gl.name!r} ({gl.group.kind}, {gl.mode}) diverged "
                f"from its numpy reference (max |err| {max_err:.3g}) in "
                f"network {graph.name!r}"
            )

        for name in gl.scratch:
            del buffers[name]

    outputs = {e: array_for(e).copy() for e in graph.outputs}
    return NetworkRun(
        network=graph.name, arch=arch.name, attribution="executed",
        groups=results, outputs=outputs, role_seconds=role_seconds,
    )
