"""One frozen config dataclass per kernel family.

A ``<Family>Config`` holds the problem shape plus the decomposition
knobs, and is the only place a family's defaults are written.  Each
family module's config builder turns one into a kernel, and
``repro.kernels.build(cfg)`` dispatches on the config type.  Configs
are hashable, so call sites can treat them as plain data.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar, Optional, Tuple

from ..tensor.dtypes import DType, FP16


@dataclass(frozen=True)
class KernelConfig:
    """Base class: one frozen dataclass per kernel family."""

    #: Family key (matches the tuner's space registry where one exists).
    family: ClassVar[str] = ""


@dataclass(frozen=True)
class NaiveGemmConfig(KernelConfig):
    """The Figure 8 baseline: per-thread fma GEMM, no shared staging."""

    family: ClassVar[str] = "gemm_naive"
    m: int = 1024
    n: int = 1024
    k: int = 1024
    grid: Tuple[int, int] = (8, 8)
    threads: Tuple[int, int] = (16, 16)
    dtype: DType = FP16


@dataclass(frozen=True)
class GemmConfig(KernelConfig):
    """Tensor-core GEMM (paper Figure 9 family).

    ``variant`` selects the architecture decomposition (``ampere``,
    ``ampere_pipelined``, ``volta``); ``swizzled=True`` derives the
    bank-spreading staging-buffer swizzles from the block tile's row
    lengths (the Section 3.2 layouts "beyond row- and column-major").
    """

    family: ClassVar[str] = "gemm"
    m: int = 1024
    n: int = 1024
    k: int = 1024
    block_tile: Tuple[int, int, int] = (128, 128, 32)
    warp_grid: Tuple[int, int] = (2, 2)
    variant: str = "ampere"
    qp_tile: Tuple[int, int] = (2, 2)
    swizzled: bool = False
    use_ldmatrix: bool = True
    name: Optional[str] = None


@dataclass(frozen=True)
class ParametricGemmConfig(KernelConfig):
    """GEMM with a symbolic row count ``M`` (bound at launch)."""

    family: ClassVar[str] = "gemm_parametric"
    n: int = 1024
    k: int = 1024
    row_tile: int = 32
    max_grid_rows: int = 64
    threads: int = 128
    dtype: DType = FP16
    name: str = "graphene_gemm_parametric"


@dataclass(frozen=True)
class GemmEpilogueConfig(KernelConfig):
    """Fused ``C = act(A @ B + bias)`` (paper Figure 10)."""

    family: ClassVar[str] = "gemm_epilogue"
    m: int = 1024
    n: int = 1024
    k: int = 1024
    arch: str = "ampere"
    bias: bool = True
    activation: Optional[str] = "relu"
    block_tile: Tuple[int, int, int] = (128, 128, 32)
    warp_grid: Tuple[int, int] = (2, 2)
    name: Optional[str] = None


@dataclass(frozen=True)
class LayernormConfig(KernelConfig):
    """Row-wise layer normalization (paper Figure 13 family)."""

    family: ClassVar[str] = "layernorm"
    rows: int = 1024
    hidden: int = 1024
    warps_per_block: int = 4
    warp_per_row: bool = True
    name: str = "graphene_layernorm"


@dataclass(frozen=True)
class MlpConfig(KernelConfig):
    """Fused multi-layer perceptron (paper Figure 11 family)."""

    family: ClassVar[str] = "mlp"
    m: int = 256
    hidden: int = 256
    layers: int = 2
    block_rows: int = 64
    warp_grid: Tuple[int, int] = (2, 2)
    activation: str = "relu"
    name: str = "graphene_fused_mlp"


@dataclass(frozen=True)
class SoftmaxConfig(KernelConfig):
    """Row-wise softmax, one thread per row."""

    family: ClassVar[str] = "softmax"
    rows: int = 1024
    cols: int = 1024
    threads_per_block: int = 128
    scale: float = 1.0
    name: str = "graphene_softmax"


@dataclass(frozen=True)
class LstmConfig(KernelConfig):
    """Fused LSTM cell ``Y = act(X @ W + H @ R + bias)`` (Figure 12)."""

    family: ClassVar[str] = "lstm"
    m: int = 512
    n: int = 512
    k: int = 512
    block_tile: Tuple[int, int, int] = (128, 128, 32)
    warp_grid: Tuple[int, int] = (2, 2)
    activation: str = "relu"
    name: str = "graphene_fused_lstm"


@dataclass(frozen=True)
class FmhaConfig(KernelConfig):
    """Fused multi-head attention (paper Figure 14 family)."""

    family: ClassVar[str] = "fmha"
    batch_heads: int = 8
    seq: int = 256
    head_dim: int = 64
    q_tile: int = 16
    kv_chunk: int = 64
    name: str = "graphene_fused_fmha"


@dataclass(frozen=True)
class LdmatrixMoveConfig(KernelConfig):
    """The standalone ldmatrix reference kernel (one warp, one tile)."""

    family: ClassVar[str] = "moves"
    name: str = "ldmatrix_move"


@dataclass(frozen=True)
class BiasActConfig(KernelConfig):
    """Row-wise pointwise epilogue as a standalone kernel.

    ``Y = act(X + bias + R)`` with every term optional — the unfused
    counterpart of the Figure 10 fused epilogue, used by the graph
    lowering's library-style (unfused) pipelines.
    """

    family: ClassVar[str] = "bias_act"
    rows: int = 128
    cols: int = 128
    bias: bool = True
    activation: Optional[str] = None
    residual: bool = False
    name: str = "graphene_bias_act"


@dataclass(frozen=True)
class TransposeConfig(KernelConfig):
    """``Y[c, r] = X[r, c]`` (materialises K^T for unfused attention)."""

    family: ClassVar[str] = "transpose"
    rows: int = 64
    cols: int = 64
    name: str = "graphene_transpose"


@dataclass(frozen=True)
class SplitHeadsConfig(KernelConfig):
    """Unpack a packed QKV projection into per-head Q/K/V row bands.

    ``QKV`` is ``[batch*seq, 3*heads*head_dim]`` (column blocks Q|K|V,
    each split by head); outputs are ``[batch*heads*seq, head_dim]``
    with one contiguous ``seq``-row band per (batch, head) — the layout
    the FMHA kernels consume.
    """

    family: ClassVar[str] = "split_heads"
    batch: int = 1
    heads: int = 2
    seq: int = 32
    head_dim: int = 32
    name: str = "graphene_split_heads"


@dataclass(frozen=True)
class MergeHeadsConfig(KernelConfig):
    """Repack per-head attention outputs into ``[batch*seq, hidden]``."""

    family: ClassVar[str] = "merge_heads"
    batch: int = 1
    heads: int = 2
    seq: int = 32
    head_dim: int = 32
    name: str = "graphene_merge_heads"


@dataclass(frozen=True)
class CacheAppendConfig(KernelConfig):
    """Write one decode step's K/V rows into the per-head KV cache.

    Reads the packed single-token QKV projection (row 0) and scatters
    the K and V head chunks to position ``pos`` of each head's
    ``context``-row cache band.
    """

    family: ClassVar[str] = "cache_append"
    heads: int = 2
    head_dim: int = 32
    context: int = 128
    pos: int = 0
    qkv_rows: int = 1
    name: str = "graphene_cache_append"


@dataclass(frozen=True)
class DecodeFmhaConfig(KernelConfig):
    """Single-query attention over a KV cache (serving decode step).

    Batch-1, long-context and memory-bound: one block per head, one
    thread per cached position.  The query row is read directly from
    the packed QKV projection output (row 0), so no separate Q-extract
    kernel is needed.
    """

    family: ClassVar[str] = "decode_fmha"
    heads: int = 2
    context: int = 128
    head_dim: int = 32
    qkv_rows: int = 1
    name: str = "graphene_decode_fmha"


@dataclass(frozen=True)
class ResidualLayernormConfig(KernelConfig):
    """Fused ``Y = layernorm(X + R)`` (the graph's LN+residual group)."""

    family: ClassVar[str] = "residual_layernorm"
    rows: int = 128
    hidden: int = 128
    warps_per_block: int = 1
    name: str = "graphene_residual_layernorm"


@dataclass(frozen=True)
class HopperFp8GemmConfig(KernelConfig):
    """Hopper FP8 warpgroup GEMM (TMA staging + wgmma + 2x accumulation)."""

    family: ClassVar[str] = "gemm_fp8"
    m: int = 256
    n: int = 256
    k: int = 256
    block_k: int = 64
    two_stage_acc: bool = True
    name: str = "graphene_gemm_fp8_sm90"


@dataclass(frozen=True)
class Sparse24GemmConfig(KernelConfig):
    """Hopper 2:4 structured-sparse GEMM (decompress + f16 wgmma)."""

    family: ClassVar[str] = "gemm_sparse24"
    m: int = 256
    n: int = 256
    k: int = 256
    block_k: int = 32
    name: str = "graphene_gemm_sparse24_sm90"


def config_summary(cfg: KernelConfig) -> str:
    """One-line ``family(field=value, ...)`` rendering for reports."""
    parts = ", ".join(
        f"{f.name}={getattr(cfg, f.name)!r}" for f in fields(cfg)
    )
    return f"{cfg.family}({parts})"


__all__ = [
    "KernelConfig", "NaiveGemmConfig", "GemmConfig",
    "ParametricGemmConfig", "GemmEpilogueConfig", "LayernormConfig",
    "MlpConfig", "SoftmaxConfig", "LstmConfig", "FmhaConfig",
    "LdmatrixMoveConfig", "BiasActConfig", "TransposeConfig",
    "SplitHeadsConfig", "MergeHeadsConfig", "CacheAppendConfig",
    "DecodeFmhaConfig", "ResidualLayernormConfig", "HopperFp8GemmConfig",
    "Sparse24GemmConfig", "config_summary",
]
