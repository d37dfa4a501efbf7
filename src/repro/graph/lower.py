"""Lowering fusion groups onto the kernel library.

Each :class:`~repro.graph.fuse.FusionGroup` becomes a
:class:`GroupLowering`: an ordered list of kernel :class:`Launch`\\ es
(with buffer bindings into the graph's edge arrays), a scratch-buffer
manifest, a bit-exact numpy reference callable, and the modelled cost.

Fusible groups have two lowerings — *fused* (the library's fused
kernel: GEMM epilogue, FMHA, residual-layernorm) and *unfused* (the
library-style pipeline of primitive kernels: standalone GEMMs,
pointwise epilogues, per-head transpose/matmul/softmax attention).  In
``mode="auto"`` the roofline cost model picks per group; ``tune=True``
additionally routes every tensor-core GEMM tile through the autotuner
gate (:func:`repro.tuner.tune`) over a reduced-shape space.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..arch.gpu import Architecture
from ..kernels import (
    BiasActConfig, CacheAppendConfig, DecodeFmhaConfig, FmhaConfig,
    GemmConfig, GemmEpilogueConfig, KernelConfig, LayernormConfig,
    MergeHeadsConfig, NaiveGemmConfig, ParametricGemmConfig,
    ResidualLayernormConfig, SoftmaxConfig, SplitHeadsConfig,
    TransposeConfig, build,
)
from ..perfmodel import estimate_kernel
from ..specs.kernel import Kernel
from ..tuner import GemmSpace, resolve_arch, tune
from . import reference as ref
from .fuse import FusionGroup, partition, schedule
from .op import GraphError, OpGraph, OpNode


@dataclass(frozen=True)
class BufferRef:
    """A kernel-parameter binding: an edge (or scratch) buffer, or a
    contiguous row band of one (per-head launches bind band views)."""

    buffer: str
    rows: Optional[Tuple[int, int]] = None


@dataclass
class Launch:
    """One kernel launch: the built kernel plus its buffer bindings."""

    kernel: Kernel
    cfg: KernelConfig
    bindings: Dict[str, BufferRef]
    symbols: Optional[Dict[str, int]] = None
    role: str = ""


#: A group reference: inputs snapshot -> expected values per check edge.
Reference = Callable[[Dict[str, np.ndarray]], Dict[str, np.ndarray]]


@dataclass
class GroupLowering:
    """One fusion group, lowered: launches + scratch + reference."""

    group: FusionGroup
    mode: str  # "fused" | "unfused"
    launches: List[Launch]
    scratch: Dict[str, Tuple[Tuple[int, ...], str]]
    #: Edges whose post-run contents the executor verifies bit-exactly.
    check_edges: List[str]
    reference: Reference
    modelled_seconds: float = 0.0

    @property
    def name(self) -> str:
        return self.group.name


@dataclass
class LoweredNetwork:
    """The whole graph lowered: schedulable groups over shared buffers."""

    graph: OpGraph
    arch: Architecture
    mode: str
    tune: bool
    groups: List[GroupLowering]
    #: GEMM shape -> winning tuner candidate label (when ``tune=True``).
    tuned: Dict[str, str] = field(default_factory=dict)
    #: Launch index (in :attr:`launches` order) -> roofline seconds from
    #: that launch's measured profile, filled by the first execution.
    measured_seconds: Dict[int, float] = field(default_factory=dict)
    #: The static storage every execution runs in: one array per
    #: storage edge and scratch buffer, the launches bound to views of
    #: them, and their recorded traces.  Allocated by the first
    #: execution (:mod:`repro.graph.executor`).
    arena: Optional[object] = field(default=None, init=False, repr=False,
                                    compare=False)
    #: Executions share the arena, so they take turns.
    lock: Any = field(default_factory=threading.Lock, init=False,
                      repr=False, compare=False)

    @property
    def launches(self) -> List[Launch]:
        return [l for g in self.groups for l in g.launches]

    def modelled_seconds(self) -> float:
        return sum(g.modelled_seconds for g in self.groups)

    def __repr__(self):
        return (f"LoweredNetwork({self.graph.name!r}, {self.arch.name}, "
                f"{len(self.groups)} groups, "
                f"{len(self.launches)} launches)")


class _Build:
    """Accumulates one candidate lowering for one group."""

    def __init__(self, ctx: "_Context", group: FusionGroup):
        self.ctx = ctx
        self.group = group
        self.launches: List[Launch] = []
        self.scratch: Dict[str, Tuple[Tuple[int, ...], str]] = {}
        self.steps: List[Callable[[Dict[str, np.ndarray]], None]] = []

    def launch(self, cfg: KernelConfig, bindings: Dict[str, BufferRef],
               role: str, symbols: Optional[Dict[str, int]] = None) -> None:
        self.launches.append(
            Launch(build(cfg), cfg, bindings, symbols=symbols, role=role))

    def add_scratch(self, tag: str, shape: Tuple[int, ...],
                    dtype: str = "fp16") -> str:
        name = f"{self.group.name}::{tag}"
        self.scratch[name] = (shape, dtype)
        return name

    def step(self, fn: Callable[[Dict[str, np.ndarray]], None]) -> None:
        self.steps.append(fn)

    def finish(self, mode: str) -> GroupLowering:
        graph = self.ctx.graph
        check = list(self.group.outputs)
        # Alias-producing internal edges (the KV-cache update) mutate
        # input storage — verify them even without outside consumers.
        for edge in self.group.internal:
            if graph.edge(edge).alias_of is not None:
                check.append(edge)
        steps = list(self.steps)

        def reference(inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
            env = dict(inputs)
            for fn in steps:
                fn(env)
            return {e: env[e] for e in check}

        return GroupLowering(self.group, mode, self.launches, self.scratch,
                             check, reference)


class _Context:
    """Shared lowering state: arch, tuner memo, graph."""

    def __init__(self, graph: OpGraph, arch: Architecture,
                 tune_gemms: bool, seed: int, cache):
        self.graph = graph
        self.arch = arch
        self.tune_gemms = tune_gemms
        self.seed = seed
        self.cache = cache
        self._memo: Dict[Tuple[int, int, int], Tuple] = {}
        self.tuned_labels: Dict[str, str] = {}

    def gemm_tile(self, m: int, n: int, k: int
                  ) -> Tuple[Tuple[int, int, int], Tuple[int, int], bool]:
        """(block_tile, warp_grid, swizzled) for an (m, n, k) GEMM."""
        if not self.tune_gemms:
            return _default_tile(m, n, k), (1, 1), False
        key = (m, n, k)
        if key not in self._memo:
            tiles = [(bm, bn, bk)
                     for bm in (16, 32, 64) if m % bm == 0
                     for bn in (16, 32, 64) if n % bn == 0
                     for bk in (16, 32) if k % bk == 0]
            space = GemmSpace(block_tiles=tiles,
                              warp_grids=((1, 1), (2, 1), (1, 2)),
                              stage_counts=(1,))
            result = tune("gemm", {"m": m, "n": n, "k": k}, self.arch,
                          space=space, cache=self.cache, seed=self.seed)
            params = result.winner.params
            self._memo[key] = (tuple(params["block_tile"]),
                              tuple(params["warp_grid"]),
                              bool(params.get("swizzle", False)))
            self.tuned_labels[f"gemm_{m}x{n}x{k}"] = result.winner.label
        return self._memo[key]


def _default_tile(m: int, n: int, k: int) -> Tuple[int, int, int]:
    bm = 32 if m % 32 == 0 else 16
    bn = 32 if n % 32 == 0 else 16
    return (bm, bn, 16)


def _require(cond: bool, node: OpNode, msg: str) -> None:
    if not cond:
        raise GraphError(f"cannot lower {node.name!r} ({node.kind}): {msg}")


# -- per-node primitive lowerings (the unfused building blocks) ---------------

def _lower_gemm(b: _Build, node: OpNode) -> None:
    m, n, k = node.attrs["m"], node.attrs["n"], node.attrs["k"]
    _require(m % 16 == 0 and n % 16 == 0 and k % 16 == 0, node,
             "tensor-core GEMM dims must be multiples of 16")
    a, w, c = node.inputs["a"], node.inputs["b"], node.outputs["c"]
    tile, grid, swz = b.ctx.gemm_tile(m, n, k)
    b.launch(GemmConfig(m, n, k, block_tile=tile, warp_grid=grid,
                        swizzled=swz),
             {"A": BufferRef(a), "B": BufferRef(w), "C": BufferRef(c)},
             node.role)
    b.step(lambda env: env.__setitem__(c, ref.gemm_ref(env[a], env[w])))


def _lower_gemm_dynamic(b: _Build, node: OpNode) -> None:
    m, n, k = node.attrs["m"], node.attrs["n"], node.attrs["k"]
    a, w, c = node.inputs["a"], node.inputs["b"], node.outputs["c"]
    threads = 32 if n % 32 == 0 else 16
    _require(n % threads == 0, node, "n must divide the thread count")
    b.launch(ParametricGemmConfig(n=n, k=k, row_tile=8, max_grid_rows=1,
                                  threads=threads),
             {"A": BufferRef(a), "B": BufferRef(w), "C": BufferRef(c)},
             node.role, symbols={"M": m})
    b.step(lambda env: env.__setitem__(
        c, ref.parametric_gemm_ref(env[a], env[w])))


def _lower_bias_act(b: _Build, node: OpNode) -> None:
    rows, cols = node.attrs["rows"], node.attrs["cols"]
    act = node.attrs.get("activation")
    x, y = node.inputs["x"], node.outputs["y"]
    bias = node.inputs.get("bias")
    res = node.inputs.get("r")
    bindings = {"X": BufferRef(x), "Y": BufferRef(y)}
    if bias is not None:
        bindings["bias"] = BufferRef(bias)
    if res is not None:
        bindings["R"] = BufferRef(res)
    b.launch(BiasActConfig(rows, cols, bias=bias is not None,
                           activation=act, residual=res is not None),
             bindings, node.role)
    b.step(lambda env: env.__setitem__(y, ref.bias_act_ref(
        env[x], env[bias] if bias is not None else None,
        env[res] if res is not None else None, act)))


def _lower_residual(b: _Build, node: OpNode) -> None:
    rows, cols = node.attrs["rows"], node.attrs["cols"]
    x, r, y = node.inputs["x"], node.inputs["r"], node.outputs["y"]
    b.launch(BiasActConfig(rows, cols, bias=False, residual=True),
             {"X": BufferRef(x), "R": BufferRef(r), "Y": BufferRef(y)},
             node.role)
    b.step(lambda env: env.__setitem__(
        y, ref.bias_act_ref(env[x], None, env[r], None)))


def _lower_layernorm(b: _Build, node: OpNode) -> None:
    rows, hidden = node.attrs["rows"], node.attrs["hidden"]
    _require(hidden % 32 == 0, node, "hidden must be a multiple of 32")
    x, g, be = node.inputs["x"], node.inputs["gamma"], node.inputs["beta"]
    y = node.outputs["y"]
    b.launch(LayernormConfig(rows, hidden, warps_per_block=1),
             {"X": BufferRef(x), "gamma": BufferRef(g),
              "beta": BufferRef(be), "Y": BufferRef(y)}, node.role)
    b.step(lambda env: env.__setitem__(
        y, ref.layernorm_ref(env[x], env[g], env[be])))


def _lower_split_heads(b: _Build, node: OpNode) -> None:
    bt, hs = node.attrs["batch"], node.attrs["heads"]
    sq, hd = node.attrs["seq"], node.attrs["head_dim"]
    qkv = node.inputs["qkv"]
    q, k, v = (node.outputs[p] for p in ("q", "k", "v"))
    b.launch(SplitHeadsConfig(bt, hs, sq, hd),
             {"QKV": BufferRef(qkv), "Q": BufferRef(q), "K": BufferRef(k),
              "V": BufferRef(v)}, node.role)

    def step(env):
        for which, edge in enumerate((q, k, v)):
            env[edge] = ref.split_heads_ref(env[qkv], bt, hs, sq, hd, which)
    b.step(step)


def _lower_merge_heads(b: _Build, node: OpNode) -> None:
    bt, hs = node.attrs["batch"], node.attrs["heads"]
    sq, hd = node.attrs["seq"], node.attrs["head_dim"]
    o, y = node.inputs["o"], node.outputs["y"]
    b.launch(MergeHeadsConfig(bt, hs, sq, hd),
             {"O": BufferRef(o), "Y": BufferRef(y)}, node.role)
    b.step(lambda env: env.__setitem__(
        y, ref.merge_heads_ref(env[o], bt, hs, sq, hd)))


def _lower_attention_fused(b: _Build, node: OpNode) -> None:
    bt, hs = node.attrs["batch"], node.attrs["heads"]
    sq, hd = node.attrs["seq"], node.attrs["head_dim"]
    _require(sq % 16 == 0 and hd % 16 == 0, node,
             "FMHA needs seq and head_dim multiples of 16")
    q, k, v = (node.inputs[p] for p in ("q", "k", "v"))
    o = node.outputs["o"]
    b.launch(FmhaConfig(bt * hs, sq, hd, q_tile=16, kv_chunk=16),
             {"Q": BufferRef(q), "K": BufferRef(k), "V": BufferRef(v),
              "O": BufferRef(o)}, node.role)
    b.step(lambda env: env.__setitem__(
        o, ref.fmha_ref(env[q], env[k], env[v], bt * hs, sq, hd)))


def _lower_attention_unfused(b: _Build, node: OpNode) -> None:
    """Library-style attention: per-head transpose, QK^T, softmax, PV."""
    bt, hs = node.attrs["batch"], node.attrs["heads"]
    sq, hd = node.attrs["seq"], node.attrs["head_dim"]
    _require(sq % 16 == 0 and hd % 16 == 0, node,
             "naive attention pipeline needs 16-aligned seq/head_dim")
    q, k, v = (node.inputs[p] for p in ("q", "k", "v"))
    o = node.outputs["o"]
    scale = 1.0 / math.sqrt(hd)
    for h in range(bt * hs):
        band = (h * sq, (h + 1) * sq)
        kt = b.add_scratch(f"kT{h}", (hd, sq))
        s = b.add_scratch(f"S{h}", (sq, sq))
        p = b.add_scratch(f"P{h}", (sq, sq))
        b.launch(TransposeConfig(sq, hd),
                 {"X": BufferRef(k, band), "Y": BufferRef(kt)}, node.role)
        b.launch(NaiveGemmConfig(sq, sq, hd, grid=(1, 1), threads=(16, 16)),
                 {"A": BufferRef(q, band), "B": BufferRef(kt),
                  "C": BufferRef(s)}, node.role)
        b.launch(SoftmaxConfig(sq, sq, threads_per_block=16, scale=scale),
                 {"X": BufferRef(s), "Y": BufferRef(p)}, node.role)
        b.launch(NaiveGemmConfig(sq, hd, sq, grid=(1, 1), threads=(16, 16)),
                 {"A": BufferRef(p), "B": BufferRef(v, band),
                  "C": BufferRef(o, band)}, node.role)

    def step(env):
        out = np.zeros((bt * hs * sq, hd), np.float16)
        for h in range(bt * hs):
            lo, hi = h * sq, (h + 1) * sq
            kt = ref.transpose_ref(env[k][lo:hi])
            s = ref.naive_gemm_ref(env[q][lo:hi], kt)
            p = ref.softmax_ref(s, scale)
            out[lo:hi] = ref.naive_gemm_ref(p, env[v][lo:hi])
        env[o] = out
    b.step(step)


def _lower_cache_append(b: _Build, node: OpNode) -> None:
    hs, hd = node.attrs["heads"], node.attrs["head_dim"]
    ctx, pos = node.attrs["context"], node.attrs["pos"]
    qkv = node.inputs["qkv"]
    kc_in, vc_in = node.inputs["k_cache"], node.inputs["v_cache"]
    kc_out, vc_out = node.outputs["k_cache"], node.outputs["v_cache"]
    b.launch(CacheAppendConfig(hs, hd, ctx, pos, qkv_rows=1),
             {"QKV": BufferRef(qkv), "K_cache": BufferRef(kc_in),
              "V_cache": BufferRef(vc_in)}, node.role)

    def step(env):
        env[kc_out], env[vc_out] = ref.cache_append_ref(
            env[qkv], env[kc_in], env[vc_in], hs, hd, ctx, pos)
    b.step(step)


def _lower_decode_attention(b: _Build, node: OpNode) -> None:
    hs, hd = node.attrs["heads"], node.attrs["head_dim"]
    ctx = node.attrs["context"]
    _require(ctx >= hd and ctx <= 1024, node,
             "decode FMHA needs head_dim <= context <= 1024")
    qkv = node.inputs["qkv"]
    kc, vc = node.inputs["k_cache"], node.inputs["v_cache"]
    o = node.outputs["o"]
    b.launch(DecodeFmhaConfig(hs, ctx, hd, qkv_rows=1),
             {"QKV": BufferRef(qkv), "K_cache": BufferRef(kc),
              "V_cache": BufferRef(vc), "O": BufferRef(o)}, node.role)
    b.step(lambda env: env.__setitem__(
        o, ref.decode_fmha_ref(env[qkv], env[kc], env[vc], hs, ctx, hd)))


_PRIMITIVES = {
    "gemm": _lower_gemm,
    "gemm_dynamic": _lower_gemm_dynamic,
    "bias_act": _lower_bias_act,
    "residual": _lower_residual,
    "layernorm": _lower_layernorm,
    "split_heads": _lower_split_heads,
    "attention": _lower_attention_fused,
    "merge_heads": _lower_merge_heads,
    "cache_append": _lower_cache_append,
    "decode_attention": _lower_decode_attention,
}


# -- group lowerings ----------------------------------------------------------

def _unfused(ctx: _Context, g: FusionGroup) -> GroupLowering:
    b = _Build(ctx, g)
    for node in g.nodes:
        if g.kind == "attention_block" and node.kind == "attention":
            _lower_attention_unfused(b, node)
        else:
            _PRIMITIVES[node.kind](b, node)
    return b.finish("unfused")


def _fused(ctx: _Context, g: FusionGroup) -> GroupLowering:
    b = _Build(ctx, g)
    if g.kind == "gemm_epilogue":
        gemm, bias = g.nodes
        m, n, k = gemm.attrs["m"], gemm.attrs["n"], gemm.attrs["k"]
        _require(m % 16 == 0 and n % 16 == 0 and k % 16 == 0, gemm,
                 "tensor-core GEMM dims must be multiples of 16")
        act = bias.attrs.get("activation")
        a, w = gemm.inputs["a"], gemm.inputs["b"]
        bv, y = bias.inputs["bias"], bias.outputs["y"]
        tile, grid, _ = ctx.gemm_tile(m, n, k)
        b.launch(GemmEpilogueConfig(m, n, k, arch="ampere", bias=True,
                                    activation=act, block_tile=tile,
                                    warp_grid=grid),
                 {"A": BufferRef(a), "B": BufferRef(w),
                  "bias": BufferRef(bv), "C": BufferRef(y)}, gemm.role)
        b.step(lambda env: env.__setitem__(y, ref.gemm_epilogue_ref(
            env[a], env[w], env[bv], act)))
    elif g.kind == "attention_block":
        split, attn, merge = g.nodes
        _lower_split_heads(b, split)
        _lower_attention_fused(b, attn)
        _lower_merge_heads(b, merge)
    elif g.kind == "decode_attention_block":
        append, attn, merge = g.nodes
        _lower_cache_append(b, append)
        _lower_decode_attention(b, attn)
        _lower_merge_heads(b, merge)
    elif g.kind == "residual_layernorm":
        res, ln = g.nodes
        rows, hidden = ln.attrs["rows"], ln.attrs["hidden"]
        _require(hidden % 32 == 0, ln, "hidden must be a multiple of 32")
        x, r = res.inputs["x"], res.inputs["r"]
        gm, be = ln.inputs["gamma"], ln.inputs["beta"]
        y = ln.outputs["y"]
        b.launch(ResidualLayernormConfig(rows, hidden, warps_per_block=1),
                 {"X": BufferRef(x), "R": BufferRef(r),
                  "gamma": BufferRef(gm), "beta": BufferRef(be),
                  "Y": BufferRef(y)}, ln.role)
        b.step(lambda env: env.__setitem__(y, ref.layernorm_ref(
            env[x], env[gm], env[be], residual=env[r])))
    else:
        raise GraphError(f"group {g.name!r} ({g.kind}) has no fused lowering")
    return b.finish("fused")


def _modelled_seconds(lowering: GroupLowering, arch: Architecture) -> float:
    return sum(
        estimate_kernel(l.kernel, arch, symbols=l.symbols).time_seconds
        for l in lowering.launches
    )


def lower_network(graph: OpGraph, arch: Union[str, Architecture] = "ampere",
                  *, mode: str = "auto", tune: bool = False, seed: int = 0,
                  cache=False) -> LoweredNetwork:
    """Partition ``graph`` and lower every group for ``arch``.

    ``mode="auto"`` builds both lowerings of each fusible group and
    keeps the one the roofline cost model scores faster; ``"fused"`` /
    ``"unfused"`` force the choice.  ``tune=True`` selects GEMM tiles
    via the autotuner (``cache`` as in :func:`repro.tuner.tune`;
    default no persistence).
    """
    if mode not in ("auto", "fused", "unfused"):
        raise ValueError(f"unknown lowering mode {mode!r}")
    architecture = resolve_arch(arch)
    if not architecture.supports("cp_async"):
        raise GraphError(
            "graph lowering currently targets cp.async-capable "
            f"tensor-core architectures only (got {architecture.name})"
        )
    ctx = _Context(graph, architecture, tune, seed, cache)
    groups = schedule(graph, partition(graph))
    lowered: List[GroupLowering] = []
    for g in groups:
        candidates: List[GroupLowering] = []
        if g.fusible and mode in ("auto", "fused"):
            candidates.append(_fused(ctx, g))
        if not g.fusible or mode in ("auto", "unfused"):
            candidates.append(_unfused(ctx, g))
        for cand in candidates:
            cand.modelled_seconds = _modelled_seconds(cand, architecture)
        best = min(candidates, key=lambda c: c.modelled_seconds)
        lowered.append(best)
    return LoweredNetwork(graph, architecture, mode, tune, lowered,
                          tuned=dict(ctx.tuned_labels))
