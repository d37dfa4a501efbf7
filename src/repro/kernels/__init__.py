"""The kernel library: paper-figure kernels behind one constructor.

Each family has one frozen config dataclass in
:mod:`repro.kernels.config` holding the problem shape and the
decomposition knobs, and one config builder in its module
(:data:`BUILDERS`).  ``repro.kernels.build(cfg)`` dispatches on the
config type, so callers hold configs as plain data.  An autotuned
kernel comes from the tuner: ``repro.tuner.tune(...).build_kernel()``.
"""

from __future__ import annotations

from ..specs.kernel import Kernel
from . import (
    epilogue, fmha, gemm, gemm_optimized, gemm_parametric, hopper,
    layernorm, lstm, mlp, moves, pointwise, softmax,
)
from .config import (
    BiasActConfig, CacheAppendConfig, DecodeFmhaConfig, FmhaConfig,
    GemmConfig, GemmEpilogueConfig, HopperFp8GemmConfig, KernelConfig,
    LayernormConfig, LdmatrixMoveConfig, LstmConfig, MergeHeadsConfig,
    MlpConfig, NaiveGemmConfig, ParametricGemmConfig,
    ResidualLayernormConfig, SoftmaxConfig, Sparse24GemmConfig,
    SplitHeadsConfig, TransposeConfig, config_summary,
)

#: Config type -> the family module's config builder.
BUILDERS = {
    NaiveGemmConfig: gemm.build,
    GemmConfig: gemm_optimized.build,
    ParametricGemmConfig: gemm_parametric.build,
    GemmEpilogueConfig: epilogue.build,
    LayernormConfig: layernorm.build,
    MlpConfig: mlp.build,
    SoftmaxConfig: softmax.build,
    LstmConfig: lstm.build,
    FmhaConfig: fmha.build,
    LdmatrixMoveConfig: moves.build,
    BiasActConfig: pointwise.build_bias_act,
    TransposeConfig: pointwise.build_transpose,
    SplitHeadsConfig: pointwise.build_split_heads,
    MergeHeadsConfig: pointwise.build_merge_heads,
    CacheAppendConfig: pointwise.build_cache_append,
    DecodeFmhaConfig: fmha.build_decode_fmha,
    ResidualLayernormConfig: layernorm.build_residual_layernorm,
    HopperFp8GemmConfig: hopper.build_fp8,
    Sparse24GemmConfig: hopper.build_sparse24,
}

def build(cfg: KernelConfig) -> Kernel:
    """Build the kernel a family config describes."""
    builder = BUILDERS.get(type(cfg))
    if builder is None:
        raise TypeError(
            f"no kernel builder registered for {type(cfg).__name__} "
            f"(known: {sorted(t.__name__ for t in BUILDERS)})"
        )
    return builder(cfg)


__all__ = [
    "build", "BUILDERS", "config_summary",
    "KernelConfig", "NaiveGemmConfig", "GemmConfig",
    "ParametricGemmConfig", "GemmEpilogueConfig", "LayernormConfig",
    "MlpConfig", "SoftmaxConfig", "LstmConfig", "FmhaConfig",
    "LdmatrixMoveConfig", "BiasActConfig", "TransposeConfig",
    "SplitHeadsConfig", "MergeHeadsConfig", "CacheAppendConfig",
    "DecodeFmhaConfig", "ResidualLayernormConfig", "HopperFp8GemmConfig",
    "Sparse24GemmConfig",
]
