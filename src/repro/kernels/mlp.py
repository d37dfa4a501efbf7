"""Fused multi-layer perceptron kernel (paper Figure 11).

For hidden sizes with ``N = K <= 128`` all intermediate activations of an
MLP fit in shared memory, so Graphene fuses *every* layer
(GEMM + bias + ReLU) into one kernel: activations ping-pong between two
shared buffers and never round-trip through global memory, unlike the
cumulative per-layer cuBLASLt invocations it is compared against.
"""

from __future__ import annotations

from ..frontend.builder import KernelBuilder
from ..specs.kernel import Kernel
from ..tensor.dtypes import FP16
from ..tensor.memspace import SH
from .config import MlpConfig
from .gemm_optimized import _stage_to_shared
from .tc_common import WarpMmaEngine


def build(cfg: MlpConfig) -> Kernel:
    """``x -> act(x @ W_l + b_l)`` repeated ``layers`` times, one kernel.

    Parameters: ``X [m, hidden]``, per layer ``W{l} [hidden, hidden]``
    and ``bias{l} [hidden]``, output ``Y [m, hidden]``.  Each block owns
    ``block_rows`` rows of activations, kept resident in shared memory
    across layers.
    """
    m, hidden, layers = cfg.m, cfg.hidden, cfg.layers
    block_rows, warp_grid, activation = (
        cfg.block_rows, cfg.warp_grid, cfg.activation
    )
    if m % block_rows:
        raise ValueError("block_rows must divide m")
    if hidden % 16:
        raise ValueError("hidden size must divide into 16-deep mma steps")
    wm_count, wn_count = warp_grid
    num_threads = wm_count * wn_count * 32
    if block_rows % (wm_count * 16) or hidden % (wn_count * 8):
        raise ValueError("warp grid must tile the block")
    mi_count = block_rows // (wm_count * 16)
    ni_count = hidden // (wn_count * 8)
    ki_count = hidden // 16

    kb = KernelBuilder(cfg.name, (m // block_rows,), (num_threads,))
    x = kb.param("X", (m, hidden), FP16)
    weights = [
        kb.param(f"W{l}", (hidden, hidden), FP16) for l in range(layers)
    ]
    biases = [kb.param(f"bias{l}", (hidden,), FP16) for l in range(layers)]
    y = kb.param("Y", (m, hidden), FP16)
    bid = kb.grid.indices()[0]

    smem_x = kb.alloc("smem_x", (block_rows, hidden), FP16, SH)
    smem_w = kb.alloc("smem_w", (hidden, hidden), FP16, SH)

    engine = WarpMmaEngine(kb, warp_grid, mi_count, ni_count)
    accs = engine.make_accumulators(init=None)
    t = engine.t

    kb.comment("stage the block's activation rows once")
    x_blocks = x.tile((block_rows, None))
    _stage_to_shared(kb, x_blocks[bid, 0], smem_x, num_threads, t)
    kb.sync()

    sm_x_pairs = smem_x.tile((1, 2))
    for layer in range(layers):
        kb.comment(f"layer {layer}: GEMM + bias + {activation} in registers")
        _stage_to_shared(kb, weights[layer], smem_w, num_threads, t)
        engine.init_accumulators(accs, 0.0)
        kb.sync()
        engine.mma_pass(smem_x, smem_w, accs, ki_count)
        entries = engine.acc_entries(accs, 0, 0)
        bias_vecs = biases[layer].tile((2,))
        for view, row, col in entries:
            kb.binary("add", view, bias_vecs[col // 2], view)
            kb.unary(activation, view, view)
        kb.sync()  # everyone has consumed smem_x before it is rewritten
        for view, row, col in entries:
            kb.move(view, sm_x_pairs[row, col // 2])
        kb.sync()

    kb.comment("write final activations to global memory")
    y_blocks = y.tile((block_rows, None))
    _stage_to_shared_out(kb, smem_x, y_blocks[bid, 0], num_threads, t)
    return kb.build()


def _stage_to_shared_out(kb, sh, gl_tile, num_threads, t, vec: int = 8):
    """Vectorized cooperative copy of shared memory back to global."""
    rows, cols = sh.dim(0), sh.dim(1)
    vecs_per_row = cols // vec
    total = rows * vecs_per_row
    sh_vecs = sh.tile((1, vec))
    gl_vecs = gl_tile.tile((1, vec))
    full_rounds, remainder = divmod(total, num_threads)
    from ..ir.expr import Const

    for c in range(full_rounds):
        flat = Const(c * num_threads) + t
        row = flat // vecs_per_row
        colv = flat % vecs_per_row
        kb.move(sh_vecs[row, colv], gl_vecs[row, colv])
    if remainder:
        flat = Const(full_rounds * num_threads) + t
        with kb.when([(flat, Const(total))]):
            row = flat // vecs_per_row
            colv = flat % vecs_per_row
            kb.move(sh_vecs[row, colv], gl_vecs[row, colv])
