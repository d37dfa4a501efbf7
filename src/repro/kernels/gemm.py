"""The simple-but-complete GEMM kernel of paper Figure 8.

Every thread computes an ``rm x rn`` tile of C by walking the full K
dimension with scalar FMAs against global memory.  The decomposition
tiles C twice — once for thread-blocks, once for threads — and the
per-element MatMul spec matches the atomic ``hfma`` (paper Table 2).
This kernel is deliberately naive; the optimized pipeline lives in
:mod:`repro.kernels.gemm_optimized`.
"""

from __future__ import annotations

from ..frontend.builder import KernelBuilder
from ..specs.kernel import Kernel
from .config import NaiveGemmConfig


def build(cfg: NaiveGemmConfig) -> Kernel:
    """Build the Figure 8 kernel for ``C += A @ B``.

    ``cfg.grid`` and ``cfg.threads`` give the 2-D arrangement of blocks
    and of threads per block; the block tile is ``(m/grid_m, n/grid_n)``
    and the per-thread tile follows from the thread arrangement.
    """
    m, n, k, dtype = cfg.m, cfg.n, cfg.k, cfg.dtype
    grid, threads = cfg.grid, cfg.threads
    grid_m, grid_n = grid
    thr_m, thr_n = threads
    if m % grid_m or n % grid_n:
        raise ValueError("grid must evenly divide the problem")
    block_m, block_n = m // grid_m, n // grid_n
    if block_m % thr_m or block_n % thr_n:
        raise ValueError("threads must evenly divide the block tile")
    reg_m, reg_n = block_m // thr_m, block_n // thr_n

    kb = KernelBuilder("graphene_gemm_naive", grid, (thr_m, thr_n))
    a = kb.param("A", (m, k), dtype)
    b = kb.param("B", (k, n), dtype)
    c = kb.param("C", (m, n), dtype)

    bid_m, bid_n = kb.grid.indices()
    tid_m, tid_n = kb.block.indices()

    # Tile for thread-blocks (paper Figure 8 lines 12-18).
    a_blk = a.tile((block_m, None))[bid_m, 0]
    b_blk = b.tile((None, block_n))[0, bid_n]
    c_blk = c.tile((block_m, block_n))[bid_m, bid_n]

    # Tile for threads (lines 20-26).
    a_thr = a_blk.tile((reg_m, None))[tid_m, 0]
    b_thr = b_blk.tile((None, reg_n))[0, tid_n]
    c_thr = c_blk.tile((reg_m, reg_n))[tid_m, tid_n]

    with kb.loop("k", k) as kv:
        with kb.loop("m", reg_m) as mv:
            with kb.loop("n", reg_n) as nv:
                kb.matmul(a_thr[mv, kv], b_thr[kv, nv], c_thr[mv, nv])
    return kb.build()
