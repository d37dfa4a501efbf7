"""Transformer network graphs and the stable three-call facade.

Constructors emit the Figure 15 transformer encoders (BERT / GPT-2 /
DistilBERT / RoBERTa) as :class:`~repro.graph.op.OpGraph` DAGs from the
existing :class:`~repro.eval.networks.TransformerConfig`, plus the
decode-style serving scenario: batch-1, single query token, KV-cache
tensors, memory-bound attention.

The public v1 graph API is three calls::

    net = repro.graph.network("BERT-base")      # build the op graph
    lowered = net.lower("ampere", tune=True)    # fuse + pick kernels
    run = net.run()                             # execute on the simulator

``network(name)`` returns reduced, simulator-executable shapes by
default; pass ``full=True`` (or a :class:`TransformerConfig`) for the
paper-scale graphs used by the modelled Figure 15 attribution.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Union

from ..eval.networks import NETWORKS, TransformerConfig
from .op import OpGraph, OpNode, TensorSpec


class DecodeConfig(NamedTuple):
    """One decode step of an autoregressive serving workload.

    The KV cache holds ``context`` past positions per head; the current
    token overwrites ring-buffer slot ``pos`` and attends over the full
    cache band.
    """

    name: str
    layers: int
    hidden: int
    heads: int
    context: int
    pos: int = 0
    ff_mult: int = 4


#: Reduced, simulator-executable shapes for the Figure 15 networks
#: (tier-1 sizes: every GEMM dim a multiple of 16, head_dim >= 16).
REDUCED_NETWORKS: Dict[str, TransformerConfig] = {
    "DistilBERT": TransformerConfig("DistilBERT", 1, 64, 2, 16, 2),
    "BERT-base": TransformerConfig("BERT-base", 1, 64, 2, 32, 1),
    "BERT-large": TransformerConfig("BERT-large", 1, 128, 4, 16, 1),
    "RoBERTa": TransformerConfig("RoBERTa", 1, 64, 2, 48, 1),
    "GPT-2": TransformerConfig("GPT-2", 1, 64, 2, 64, 1),
}

#: The serving-shaped decode scenario (reduced, simulator-executable).
DECODE_SCENARIO = DecodeConfig("GPT-2-decode", layers=1, hidden=64,
                               heads=2, context=128, pos=5)


def _fp16(name: str, *shape: int, alias_of: Optional[str] = None
          ) -> TensorSpec:
    return TensorSpec(name, tuple(shape), "fp16", alias_of=alias_of)


def _layer_weights(p: str, hidden: int, ff: int, tensors: List[TensorSpec],
                   inputs: List[str]) -> Dict[str, str]:
    names = {
        "w_qkv": _fp16(f"{p}.w_qkv", hidden, 3 * hidden),
        "b_qkv": _fp16(f"{p}.b_qkv", 3 * hidden),
        "w_out": _fp16(f"{p}.w_out", hidden, hidden),
        "b_out": _fp16(f"{p}.b_out", hidden),
        "w_up": _fp16(f"{p}.w_up", hidden, ff),
        "b_up": _fp16(f"{p}.b_up", ff),
        "w_down": _fp16(f"{p}.w_down", ff, hidden),
        "b_down": _fp16(f"{p}.b_down", hidden),
        "gamma1": _fp16(f"{p}.gamma1", hidden),
        "beta1": _fp16(f"{p}.beta1", hidden),
        "gamma2": _fp16(f"{p}.gamma2", hidden),
        "beta2": _fp16(f"{p}.beta2", hidden),
    }
    tensors.extend(names.values())
    inputs.extend(t.name for t in names.values())
    return {k: t.name for k, t in names.items()}


def encoder_graph(cfg: TransformerConfig) -> OpGraph:
    """The transformer encoder stack as an op graph (post-LN blocks)."""
    tokens = cfg.batch * cfg.seq
    h = cfg.hidden
    ff = cfg.ff_mult * h
    hd = h // cfg.heads
    if h % cfg.heads:
        raise ValueError("hidden must divide by heads")

    tensors: List[TensorSpec] = [_fp16("h0", tokens, h)]
    inputs: List[str] = ["h0"]
    nodes: List[OpNode] = []
    stream = "h0"

    for l in range(cfg.layers):
        p = f"l{l}"
        w = _layer_weights(p, h, ff, tensors, inputs)

        def gemm_block(tag: str, role: str, a: str, weight: str, bias: str,
                       n: int, k: int, activation: Optional[str]) -> str:
            mm, out = f"{p}.{tag}_mm", f"{p}.{tag}"
            tensors.append(_fp16(mm, tokens, n))
            tensors.append(_fp16(out, tokens, n))
            nodes.append(OpNode(
                f"{p}.{tag}_matmul", "gemm",
                {"a": a, "b": weight}, {"c": mm},
                {"m": tokens, "n": n, "k": k}, role=role,
            ))
            nodes.append(OpNode(
                f"{p}.{tag}_bias", "bias_act",
                {"x": mm, "bias": bias}, {"y": out},
                {"rows": tokens, "cols": n, "activation": activation},
                role=role,
            ))
            return out

        def residual_ln(tag: str, x: str, r: str, gamma: str, beta: str
                        ) -> str:
            summed, out = f"{p}.{tag}_sum", f"{p}.{tag}"
            tensors.append(_fp16(summed, tokens, h))
            tensors.append(_fp16(out, tokens, h))
            nodes.append(OpNode(
                f"{p}.{tag}_residual", "residual",
                {"x": x, "r": r}, {"y": summed},
                {"rows": tokens, "cols": h}, role="residuals",
            ))
            nodes.append(OpNode(
                f"{p}.{tag}_ln", "layernorm",
                {"x": summed, "gamma": gamma, "beta": beta}, {"y": out},
                {"rows": tokens, "hidden": h}, role="layernorms",
            ))
            return out

        qkv = gemm_block("qkv", "qkv_proj", stream, w["w_qkv"], w["b_qkv"],
                         3 * h, h, None)

        band = cfg.batch * cfg.heads * cfg.seq
        heads_attrs = {"batch": cfg.batch, "heads": cfg.heads,
                       "seq": cfg.seq, "head_dim": hd}
        for nm in ("q", "k", "v", "attn_o"):
            tensors.append(_fp16(f"{p}.{nm}", band, hd))
        tensors.append(_fp16(f"{p}.attn_merged", tokens, h))
        nodes.append(OpNode(
            f"{p}.split_heads", "split_heads", {"qkv": qkv},
            {"q": f"{p}.q", "k": f"{p}.k", "v": f"{p}.v"},
            dict(heads_attrs), role="attention",
        ))
        nodes.append(OpNode(
            f"{p}.attention", "attention",
            {"q": f"{p}.q", "k": f"{p}.k", "v": f"{p}.v"},
            {"o": f"{p}.attn_o"}, dict(heads_attrs), role="attention",
        ))
        nodes.append(OpNode(
            f"{p}.merge_heads", "merge_heads", {"o": f"{p}.attn_o"},
            {"y": f"{p}.attn_merged"}, dict(heads_attrs), role="attention",
        ))

        attn_out = gemm_block("out", "out_proj", f"{p}.attn_merged",
                              w["w_out"], w["b_out"], h, h, None)
        ln1 = residual_ln("ln1", attn_out, stream, w["gamma1"], w["beta1"])
        up = gemm_block("ffn_up", "ffn_up", ln1, w["w_up"], w["b_up"],
                        ff, h, "gelu")
        down = gemm_block("ffn_down", "ffn_down", up, w["w_down"],
                          w["b_down"], h, ff, None)
        stream = residual_ln("ln2", down, ln1, w["gamma2"], w["beta2"])

    return OpGraph(cfg.name, tensors, nodes, inputs, [stream])


def decode_graph(cfg: DecodeConfig) -> OpGraph:
    """One autoregressive decode step with per-layer KV-cache tensors.

    Projections are symbolic-M GEMMs bound at ``M = 1``; the attention
    group appends the step's K/V rows to the cache (ring slot
    ``cfg.pos``) and attends over the full cache band — batch-1,
    long-context, memory-bound.
    """
    h, heads, ctx = cfg.hidden, cfg.heads, cfg.context
    ff = cfg.ff_mult * h
    hd = h // heads
    if h % heads:
        raise ValueError("hidden must divide by heads")
    if ctx < hd:
        raise ValueError("context must cover head_dim")

    tensors: List[TensorSpec] = [_fp16("h0", 1, h)]
    inputs: List[str] = ["h0"]
    nodes: List[OpNode] = []
    stream = "h0"

    for l in range(cfg.layers):
        p = f"l{l}"
        w = _layer_weights(p, h, ff, tensors, inputs)
        kc, vc = f"{p}.k_cache", f"{p}.v_cache"
        tensors.append(_fp16(kc, heads * ctx, hd))
        tensors.append(_fp16(vc, heads * ctx, hd))
        inputs.extend([kc, vc])

        def dyn_gemm_block(tag: str, role: str, a: str, weight: str,
                           bias: str, n: int, k: int,
                           activation: Optional[str]) -> str:
            mm, out = f"{p}.{tag}_mm", f"{p}.{tag}"
            tensors.append(_fp16(mm, 1, n))
            tensors.append(_fp16(out, 1, n))
            nodes.append(OpNode(
                f"{p}.{tag}_matmul", "gemm_dynamic",
                {"a": a, "b": weight}, {"c": mm},
                {"m": 1, "n": n, "k": k}, role=role,
            ))
            nodes.append(OpNode(
                f"{p}.{tag}_bias", "bias_act",
                {"x": mm, "bias": bias}, {"y": out},
                {"rows": 1, "cols": n, "activation": activation},
                role=role,
            ))
            return out

        qkv = dyn_gemm_block("qkv", "qkv_proj", stream, w["w_qkv"],
                             w["b_qkv"], 3 * h, h, None)

        kc1, vc1 = f"{p}.k_cache1", f"{p}.v_cache1"
        tensors.append(_fp16(kc1, heads * ctx, hd, alias_of=kc))
        tensors.append(_fp16(vc1, heads * ctx, hd, alias_of=vc))
        dec_attrs = {"heads": heads, "head_dim": hd, "context": ctx,
                     "pos": cfg.pos}
        tensors.append(_fp16(f"{p}.attn_o", heads, hd))
        tensors.append(_fp16(f"{p}.attn_merged", 1, h))
        nodes.append(OpNode(
            f"{p}.cache_append", "cache_append",
            {"qkv": qkv, "k_cache": kc, "v_cache": vc},
            {"k_cache": kc1, "v_cache": vc1}, dict(dec_attrs),
            role="attention",
        ))
        nodes.append(OpNode(
            f"{p}.attention", "decode_attention",
            {"qkv": qkv, "k_cache": kc1, "v_cache": vc1},
            {"o": f"{p}.attn_o"}, dict(dec_attrs), role="attention",
        ))
        nodes.append(OpNode(
            f"{p}.merge_heads", "merge_heads", {"o": f"{p}.attn_o"},
            {"y": f"{p}.attn_merged"},
            {"batch": 1, "heads": heads, "seq": 1, "head_dim": hd},
            role="attention",
        ))

        attn_out = dyn_gemm_block("out", "out_proj", f"{p}.attn_merged",
                                  w["w_out"], w["b_out"], h, h, None)

        def residual_ln(tag: str, x: str, r: str, gamma: str, beta: str
                        ) -> str:
            summed, out = f"{p}.{tag}_sum", f"{p}.{tag}"
            tensors.append(_fp16(summed, 1, h))
            tensors.append(_fp16(out, 1, h))
            nodes.append(OpNode(
                f"{p}.{tag}_residual", "residual",
                {"x": x, "r": r}, {"y": summed},
                {"rows": 1, "cols": h}, role="residuals",
            ))
            nodes.append(OpNode(
                f"{p}.{tag}_ln", "layernorm",
                {"x": summed, "gamma": gamma, "beta": beta}, {"y": out},
                {"rows": 1, "hidden": h}, role="layernorms",
            ))
            return out

        ln1 = residual_ln("ln1", attn_out, stream, w["gamma1"], w["beta1"])
        up = dyn_gemm_block("ffn_up", "ffn_up", ln1, w["w_up"], w["b_up"],
                            ff, h, "gelu")
        down = dyn_gemm_block("ffn_down", "ffn_down", up, w["w_down"],
                              w["b_down"], h, ff, None)
        stream = residual_ln("ln2", down, ln1, w["gamma2"], w["beta2"])

    return OpGraph(cfg.name, tensors, nodes, inputs, [stream])


class Network:
    """The stable v1 graph handle: build once, ``lower``, then ``run``."""

    def __init__(self, graph: OpGraph,
                 cfg: Union[TransformerConfig, DecodeConfig]):
        self.graph = graph
        self.cfg = cfg
        self._lowered = None

    @property
    def name(self) -> str:
        return self.graph.name

    def lower(self, arch: str = "ampere", *, mode: str = "auto",
              tune: bool = False, seed: int = 0, cache=False):
        """Partition into fusion groups and pick kernels for ``arch``.

        ``mode`` is ``"auto"`` (cost-model-guided fused-vs-unfused
        choice per group), ``"fused"`` or ``"unfused"``; ``tune=True``
        routes GEMM configs through the autotuner gate.  Returns (and
        remembers) a :class:`~repro.graph.lower.LoweredNetwork`.
        """
        from .lower import lower_network

        self._lowered = lower_network(self.graph, arch, mode=mode,
                                      tune=tune, seed=seed, cache=cache)
        return self._lowered

    def run(self, bindings: Optional[Dict] = None, *, sanitize=False,
            check: bool = True, seed: int = 0):
        """Execute end-to-end on the simulator.

        ``bindings`` maps graph-input edge names to numpy arrays
        (missing inputs are seeded deterministically from ``seed``; the
        caller's arrays are never mutated); ``sanitize`` is
        ``Simulator.run``'s (``False``, ``True`` or ``"report"``).  With
        ``check`` every fusion group is verified bit-exactly against its
        numpy reference.  Lowers with defaults on first use.

        The first run of a lowering runs every launch's compiled plan
        with the profiler attached, records its execution trace and
        holds its profile and roofline seconds.  Later runs copy the
        inputs into the lowering's static arena and replay those
        traces.  This is exact, not an approximation: counters,
        timeline, sanitizer verdict, control flow and index arrays
        depend only on addresses, which the lowering fixes and the
        tensor data never steers.  So every run's groups carry the
        held per-launch ``profiles`` (a network run always profiles, so
        it takes no ``profile``), and a run with ``sanitize`` carries
        each launch's held sanitizer ``findings``: the first such run
        measures them with one plan replay per launch, later ones
        replay traces, and ``sanitize=True`` raises the held reports
        every time.  Group checks run on every pass; runs of one
        lowering take turns; calling :meth:`lower` again drops the
        arena, its traces and its observations.
        """
        from .executor import execute

        if self._lowered is None:
            self.lower()
        return execute(self._lowered, bindings=bindings, sanitize=sanitize,
                       check=check, seed=seed)

    def __repr__(self):
        return f"Network({self.graph!r})"


def network(name_or_cfg: Union[str, TransformerConfig, DecodeConfig], *,
            full: bool = False) -> Network:
    """Build a named (or custom-config) network graph.

    Names are the Figure 15 networks plus ``"GPT-2-decode"``.  Named
    networks default to the reduced simulator-executable shapes of
    :data:`REDUCED_NETWORKS`; ``full=True`` selects the paper-scale
    configs (modelled attribution only — too large to simulate).
    """
    if isinstance(name_or_cfg, DecodeConfig):
        return Network(decode_graph(name_or_cfg), name_or_cfg)
    if isinstance(name_or_cfg, TransformerConfig):
        return Network(encoder_graph(name_or_cfg), name_or_cfg)
    name = str(name_or_cfg)
    if name == DECODE_SCENARIO.name:
        return Network(decode_graph(DECODE_SCENARIO), DECODE_SCENARIO)
    table = NETWORKS if full else REDUCED_NETWORKS
    if name not in table:
        known = sorted(REDUCED_NETWORKS) + [DECODE_SCENARIO.name]
        raise KeyError(f"unknown network {name!r}; known: {known}")
    return Network(encoder_graph(table[name]), table[name])
