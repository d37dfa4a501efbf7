"""Fused GEMM + pointwise epilogues (paper Figure 10).

cuBLASLt provides GEMM kernels with fused bias addition and activation
functions; Graphene expresses the same fusion by applying pointwise
specs to the accumulator register views before the epilogue stores them.
"""

from __future__ import annotations

from typing import Optional

from ..arch import Architecture, architecture
from ..specs.kernel import Kernel
from ..tensor.dtypes import FP16
from .config import GemmEpilogueConfig
from .gemm_optimized import build_ampere_tc_gemm, build_volta_tc_gemm


def pointwise_epilogue(bias: bool = True, activation: Optional[str] = "relu"):
    """An epilogue callback adding ``+ bias`` and/or an activation.

    The bias tensor (one value per output column) is declared as an
    extra kernel parameter the first time the callback runs.
    """

    def apply(site):
        kb = site.kb
        n = site.c.dim(1)
        bias_t = kb.param("bias", (n,), FP16) if bias else None
        for view, row, col in site.pairs():
            if bias_t is not None:
                bias_vec = bias_t.tile((site.vec,))[col // site.vec]
                kb.binary("add", view, bias_vec, view)
            if activation is not None:
                kb.unary(activation, view, view)

    return apply


def build(cfg: GemmEpilogueConfig) -> Kernel:
    """A fused ``C = act(A @ B + bias)`` kernel (paper Figure 10)."""
    target = cfg.arch if isinstance(cfg.arch, Architecture) \
        else architecture(cfg.arch)
    name = cfg.name
    if name is None:
        suffix = ("bias_" if cfg.bias else "") + (cfg.activation or "identity")
        name = f"graphene_gemm_{suffix}_{target.key}"
    body = dict(block_tile=cfg.block_tile, warp_grid=cfg.warp_grid,
                name=name,
                epilogue=pointwise_epilogue(cfg.bias, cfg.activation))
    # Capability dispatch: cp.async-staged ldmatrix GEMM wherever the
    # architecture has it (Ampere, Hopper), quad-pair GEMM otherwise.
    if target.supports("cp_async"):
        return build_ampere_tc_gemm(cfg.m, cfg.n, cfg.k, **body)
    return build_volta_tc_gemm(cfg.m, cfg.n, cfg.k, **body)
