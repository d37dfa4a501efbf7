"""GEMM with a parametric (symbolic) M dimension (paper Section 3.4).

Dynamic shapes matter for neural networks whose batch/sequence dims are
unknown at compile time.  The row count ``M`` here is a symbolic kernel
parameter: tiling over-approximates the row dimension and every access
to a potentially-partial tile is predicated, following the CuTe
over-approximation approach the paper adopts.

The kernel is deliberately simple (per-thread FMA, like Figure 8) so
the predication story stays visible; the grid covers ``ceil(M / tile)``
row tiles and the launch binds ``M`` at run time.
"""

from __future__ import annotations

from ..frontend.builder import KernelBuilder
from ..ir.expr import Var
from ..specs.kernel import Kernel
from ..tensor.memspace import GL
from ..tensor.tensor import Tensor
from ..layout.layout import Layout
from .config import ParametricGemmConfig


def build(cfg: ParametricGemmConfig) -> Kernel:
    """``C[M, n] = A[M, k] @ B[k, n]`` with symbolic ``M``.

    The grid is sized for up to ``max_grid_rows`` row tiles; launches
    bind ``M`` (rows actually present).  Accesses to the ragged row
    dimension are guarded, so threads covering rows ``>= M`` neither
    read nor write out of bounds.
    """
    n, k, row_tile, threads, dtype = (
        cfg.n, cfg.k, cfg.row_tile, cfg.threads, cfg.dtype
    )
    if n % threads:
        raise ValueError("threads must divide n for this decomposition")
    kb = KernelBuilder(cfg.name, (cfg.max_grid_rows,), (threads,))
    m = kb.symbol("M")
    a = Tensor("A", Layout((m, k), (k, 1)), dtype, GL)
    b = kb.param("B", (k, n), dtype)
    c = Tensor("C", Layout((m, n), (n, 1)), dtype, GL)
    kb._params.insert(0, a)
    kb._params.append(c)

    bid = kb.grid.indices()[0]
    t = Var("threadIdx.x")

    # Tile the symbolic row dimension: ceil(M / row_tile) tiles with
    # guards (Section 3.4); the grid over-approximates further.
    a_rows = a.tile((row_tile, None))[bid, 0]
    c_rows = c.tile((row_tile, None))[bid, 0]

    cols_per_thread = n // threads
    with kb.loop("r", row_tile) as r:
        with kb.loop("cc", cols_per_thread) as cc:
            col = cc * threads + t
            out = c_rows[r, col]
            kb.init(out, 0.0)
            with kb.loop("kk", k) as kk:
                kb.matmul(a_rows[r, kk], b[kk, col], out)
    return kb.build()
