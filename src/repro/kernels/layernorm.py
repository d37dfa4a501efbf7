"""Fused Layernorm kernels (paper Figure 13).

Layernorm contains no GEMM — only pointwise and reduction computations —
so it exercises the non-TensorCore half of Graphene's spec vocabulary.
Two decompositions are provided:

* ``warp_per_row``: one warp normalises one row; lanes hold disjoint row
  chunks in registers and combine partial sums with ``shfl.sync.bfly``
  butterflies (the fast decomposition, matching Apex-class kernels);
* ``thread_per_row``: one thread per row, sequential register
  reductions (a simpler but still fused decomposition).
"""

from __future__ import annotations

from ..frontend.builder import KernelBuilder
from ..ir.expr import Const, Var
from ..specs.kernel import Kernel
from ..tensor.dtypes import FP16, FP32
from ..tensor.memspace import RF
from .config import LayernormConfig, ResidualLayernormConfig

EPS = 1e-5


def build(cfg: LayernormConfig) -> Kernel:
    """``Y[r] = (X[r] - mean) * rsqrt(var + eps) * gamma + beta``."""
    if cfg.warp_per_row:
        return _build_warp_per_row(cfg.rows, cfg.hidden,
                                   cfg.warps_per_block, cfg.name)
    return _build_thread_per_row(cfg.rows, cfg.hidden,
                                 cfg.warps_per_block * 32, cfg.name)


def build_residual_layernorm(cfg: ResidualLayernormConfig) -> Kernel:
    """Fused ``Y = layernorm(X + R)`` (the graph's LN+residual group)."""
    return _build_warp_per_row(cfg.rows, cfg.hidden, cfg.warps_per_block,
                               cfg.name, residual=True)


def _build_warp_per_row(rows, hidden, warps_per_block, name,
                        residual=False) -> Kernel:
    if hidden % 32:
        raise ValueError("hidden must be divisible by the warp size")
    chunk = hidden // 32
    rows_per_block = warps_per_block
    if rows % rows_per_block:
        raise ValueError("rows must divide by warps per block")

    kb = KernelBuilder(name, (rows // rows_per_block,),
                       (warps_per_block * 32,))
    x = kb.param("X", (rows, hidden), FP16)
    res = kb.param("R", (rows, hidden), FP16) if residual else None
    gamma = kb.param("gamma", (hidden,), FP16)
    beta = kb.param("beta", (hidden,), FP16)
    y = kb.param("Y", (rows, hidden), FP16)
    bid = kb.grid.indices()[0]

    t = Var("threadIdx.x")
    warps = kb.block.tile([32])
    wid = warps.indices()[0]
    lane = t % 32
    row = bid * rows_per_block + wid

    part = kb.alloc("ln_part", (chunk,), FP32, RF)
    scalar = kb.alloc("ln_scalar", (1,), FP32, RF)
    peer = kb.alloc("ln_peer", (1,), FP32, RF)
    mean = kb.alloc("ln_mean", (1,), FP32, RF)
    rstd = kb.alloc("ln_rstd", (1,), FP32, RF)
    inv_h = kb.alloc("ln_inv_h", (1,), FP32, RF)
    eps = kb.alloc("ln_eps", (1,), FP32, RF)
    kb.init(inv_h, 1.0 / hidden)
    kb.init(eps, EPS)

    x_chunks = x.tile((1, chunk))
    y_chunks = y.tile((1, chunk))
    g_chunks = gamma.tile((chunk,))
    b_chunks = beta.tile((chunk,))

    kb.comment("each lane loads its contiguous row chunk")
    kb.move(x_chunks[row, lane], part)
    if res is not None:
        r_part = kb.alloc("ln_res", (chunk,), FP32, RF)
        kb.move(res.tile((1, chunk))[row, lane], r_part)
        kb.binary("add", part, r_part, part)

    def warp_allreduce():
        """Butterfly-sum `scalar` across the warp via shfl.sync.bfly."""
        for mask in (16, 8, 4, 2, 1):
            kb.shfl(scalar, peer, xor_mask=mask, threads=warps)
            kb.binary("add", scalar, peer, scalar)

    kb.comment("mean = sum(x) / hidden, combined across lanes")
    kb.reduce("add", part, scalar)
    warp_allreduce()
    kb.binary("mul", scalar, inv_h, mean)

    kb.comment("var = sum((x - mean)^2) / hidden")
    centered = kb.alloc("ln_centered", (chunk,), FP32, RF)
    squares = kb.alloc("ln_squares", (chunk,), FP32, RF)
    kb.binary("sub", part, mean, centered)
    kb.unary("square", centered, squares)
    kb.reduce("add", squares, scalar)
    warp_allreduce()
    kb.binary("mul", scalar, inv_h, scalar)
    kb.binary("add", scalar, eps, scalar)
    kb.unary("rsqrt", scalar, rstd)

    kb.comment("normalise, scale and shift")
    kb.binary("mul", centered, rstd, centered)
    kb.binary("mul", centered, g_chunks[lane], centered)
    kb.binary("add", centered, b_chunks[lane], centered)
    kb.move(centered, y_chunks[row, lane])
    return kb.build()


def _build_thread_per_row(rows, hidden, threads_per_block, name) -> Kernel:
    if rows % threads_per_block:
        raise ValueError("rows must divide by the block size")

    kb = KernelBuilder(name + "_tpr", (rows // threads_per_block,),
                       (threads_per_block,))
    x = kb.param("X", (rows, hidden), FP16)
    gamma = kb.param("gamma", (hidden,), FP16)
    beta = kb.param("beta", (hidden,), FP16)
    y = kb.param("Y", (rows, hidden), FP16)
    bid = kb.grid.indices()[0]
    t = Var("threadIdx.x")
    row = bid * threads_per_block + t

    vals = kb.alloc("ln_row", (hidden,), FP32, RF)
    mean = kb.alloc("ln_mean", (1,), FP32, RF)
    var = kb.alloc("ln_var", (1,), FP32, RF)
    inv_h = kb.alloc("ln_inv_h", (1,), FP32, RF)
    eps = kb.alloc("ln_eps", (1,), FP32, RF)
    kb.init(inv_h, 1.0 / hidden)
    kb.init(eps, EPS)

    x_rows = x.tile((1, None))
    y_rows = y.tile((1, None))
    kb.move(x_rows[row, 0], vals)
    kb.reduce("add", vals, mean)
    kb.binary("mul", mean, inv_h, mean)
    kb.binary("sub", vals, mean, vals)
    squares = kb.alloc("ln_squares", (hidden,), FP32, RF)
    kb.unary("square", vals, squares)
    kb.reduce("add", squares, var)
    kb.binary("mul", var, inv_h, var)
    kb.binary("add", var, eps, var)
    kb.unary("rsqrt", var, var)
    kb.binary("mul", vals, var, vals)
    kb.binary("mul", vals, gamma, vals)
    kb.binary("add", vals, beta, vals)
    kb.move(vals, y_rows[row, 0])
    return kb.build()
