"""Fused simplified-LSTM-cell kernel (paper Figure 12).

The cell computes ``y = act((x @ W) + (h @ R) + bias)`` — two
independent GEMMs, an addition, a bias addition and an activation.
Libraries need between two (cuBLASLt accumulating) and five (cuBLAS +
cuDNN per node) kernels; Graphene fuses everything into one by
accumulating both GEMMs into the same register fragments.
"""

from __future__ import annotations

from ..frontend.builder import KernelBuilder
from ..specs.kernel import Kernel
from ..tensor.dtypes import FP16
from ..tensor.memspace import SH
from .config import LstmConfig
from .gemm_optimized import _stage_to_shared
from .tc_common import WarpMmaEngine


def build(cfg: LstmConfig) -> Kernel:
    """One kernel for ``Y = act(X @ W + H @ R + bias)``.

    The paper uses ReLU instead of tanh so library baselines exist;
    ``activation`` accepts any registered unary op (including tanh,
    which no library kernel provides — Graphene is not limited to the
    library's menu).
    """
    m, n, k, activation = cfg.m, cfg.n, cfg.k, cfg.activation
    block_tile, warp_grid = cfg.block_tile, cfg.warp_grid
    bm, bn, bk = block_tile
    wm_count, wn_count = warp_grid
    num_threads = wm_count * wn_count * 32
    mi_count = bm // (wm_count * 16)
    ni_count = bn // (wn_count * 8)
    ki_count = bk // 16
    if m % bm or n % bn or k % bk:
        raise ValueError("block tile must divide the problem size")

    kb = KernelBuilder(cfg.name, (m // bm, n // bn), (num_threads,))
    x = kb.param("X", (m, k), FP16)
    w = kb.param("W", (k, n), FP16)
    h = kb.param("H", (m, k), FP16)
    r = kb.param("R", (k, n), FP16)
    bias = kb.param("bias", (n,), FP16)
    y = kb.param("Y", (m, n), FP16)
    bid_m, bid_n = kb.grid.indices()

    smem_a = kb.alloc("smem_a", (bm, bk), FP16, SH)
    smem_b = kb.alloc("smem_b", (bk, bn), FP16, SH)

    engine = WarpMmaEngine(kb, warp_grid, mi_count, ni_count)
    accs = engine.make_accumulators(init=0.0)
    t = engine.t

    for label, lhs, rhs in (("X @ W", x, w), ("H @ R", h, r)):
        kb.comment(f"accumulate {label} into the shared fragments")
        lhs_blocks = lhs.tile((bm, bk))
        rhs_blocks = rhs.tile((bk, bn))
        with kb.loop(f"kt_{label[0].lower()}", k // bk, unroll=False) as kt:
            _stage_to_shared(kb, lhs_blocks[bid_m, kt], smem_a, num_threads, t)
            _stage_to_shared(kb, rhs_blocks[kt, bid_n], smem_b, num_threads, t)
            kb.sync()
            engine.mma_pass(smem_a, smem_b, accs, ki_count)
            kb.sync()

    kb.comment(f"fused epilogue: + bias, {activation}, store")
    bias_vecs = bias.tile((2,))
    y_pairs = y.tile((1, 2))
    for view, row, col in engine.acc_entries(accs, bid_m * bm, bid_n * bn):
        kb.binary("add", view, bias_vecs[col // 2], view)
        kb.unary(activation, view, view)
        kb.move(view, y_pairs[row, col // 2])
    return kb.build()
