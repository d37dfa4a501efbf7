"""Fused Multi-Head Attention (paper Figure 14).

Attention is two back-to-back GEMMs with a softmax in between:

    O = softmax(Q @ K^T / sqrt(d)) @ V        (per batch*head)

Graphene fuses everything into one kernel, following the strategy of
NVIDIA's MLPerf BERT kernels: each thread-block owns one (batch, head)
and a tile of query rows; the score tile S lives entirely in shared
memory (fp32), softmax normalises it in place, and the P @ V product
accumulates in registers.  K and V are streamed through shared memory in
sequence-chunks so the shared-memory footprint stays bounded.

Note the Q @ K^T product reads its B operand from the *row-major K
tile* using plain (non-transposed) ldmatrix — the layout flexibility the
paper's tensor/thread tiling is designed to express.
"""

from __future__ import annotations

from ..frontend.builder import KernelBuilder
from ..ir.expr import Const, Var
from ..specs.kernel import Kernel
from ..tensor.dtypes import FP16, FP32
from ..tensor.memspace import RF, SH
from .config import DecodeFmhaConfig, FmhaConfig
from .gemm_optimized import _stage_to_shared
from .tc_common import WarpMmaEngine


def build(cfg: FmhaConfig) -> Kernel:
    """One fused kernel for ``O = softmax(Q K^T / sqrt(d)) V``.

    ``Q/K/V/O`` are ``[batch_heads * seq, head_dim]`` fp16 (each
    consecutive ``seq``-row band is one head).  Each block handles one
    head and ``q_tile`` query rows with a single warp.
    """
    batch_heads, seq, head_dim = cfg.batch_heads, cfg.seq, cfg.head_dim
    q_tile, kv_chunk, name = cfg.q_tile, cfg.kv_chunk, cfg.name
    if q_tile != 16:
        raise ValueError("the single-warp decomposition uses 16 query rows")
    if seq % kv_chunk or kv_chunk % 16 or head_dim % 16:
        raise ValueError("seq/kv_chunk/head_dim must tile into mma shapes")
    scale = 1.0 / float(head_dim) ** 0.5
    num_threads = 32

    kb = KernelBuilder(name, (seq // q_tile, batch_heads), (num_threads,))
    q = kb.param("Q", (batch_heads * seq, head_dim), FP16)
    k = kb.param("K", (batch_heads * seq, head_dim), FP16)
    v = kb.param("V", (batch_heads * seq, head_dim), FP16)
    o = kb.param("O", (batch_heads * seq, head_dim), FP16)
    qt, bh = kb.grid.indices()
    t = Var("threadIdx.x")

    smem_q = kb.alloc("smem_q", (q_tile, head_dim), FP16, SH)
    smem_kv = kb.alloc("smem_kv", (kv_chunk, head_dim), FP16, SH)
    smem_s = kb.alloc("smem_s", (q_tile, seq), FP32, SH)
    smem_p = kb.alloc("smem_p", (q_tile, seq), FP16, SH)

    kb.comment("stage this block's query tile")
    q_tiles = q.tile((q_tile, None))
    _stage_to_shared(kb, q_tiles[bh * (seq // q_tile) + qt, 0], smem_q,
                     num_threads, t)
    kb.sync()

    # S = Q @ K^T: B operand read from row-major K with plain ldmatrix.
    s_engine = WarpMmaEngine(kb, (1, 1), mi_count=1,
                             ni_count=kv_chunk // 8, prefix="s_")
    s_accs = s_engine.make_accumulators(init=None)
    kv_rows = k.tile((kv_chunk, None))
    sm_s_pairs = smem_s.tile((1, 2))
    for ci in range(seq // kv_chunk):
        kb.comment(f"score chunk {ci}: stage K rows, Q @ K^T")
        _stage_to_shared(kb, kv_rows[bh * (seq // kv_chunk) + ci, 0],
                         smem_kv, num_threads, t)
        s_engine.init_accumulators(s_accs, 0.0)
        kb.sync()
        s_engine.mma_pass(smem_q, smem_kv, s_accs,
                          ki_count=head_dim // 16, b_layout="nk")
        for view, row, col in s_engine.acc_entries(s_accs, 0, 0):
            kb.move(view, sm_s_pairs[row, Const(ci * kv_chunk // 2) + col // 2])
        kb.sync()

    kb.comment("softmax over the score rows (one thread per query row)")
    s_rows = smem_s.tile((1, None))
    p_rows = smem_p.tile((1, None))
    vals = kb.alloc("fmha_row", (seq,), FP32, RF)
    rmax = kb.alloc("fmha_max", (1,), FP32, RF)
    rsum = kb.alloc("fmha_sum", (1,), FP32, RF)
    scale_t = kb.alloc("fmha_scale", (1,), FP32, RF)
    kb.init(scale_t, scale)
    with kb.when([(t, Const(q_tile))]):
        kb.move(s_rows[t, 0], vals)
        kb.binary("mul", vals, scale_t, vals)
        kb.reduce("max", vals, rmax)
        kb.binary("sub", vals, rmax, vals)
        kb.unary("exp", vals, vals)
        kb.reduce("add", vals, rsum)
        kb.binary("div", vals, rsum, vals)
        kb.move(vals, p_rows[t, 0])
    kb.sync()

    kb.comment("O = P @ V, accumulated over value chunks")
    o_engine = WarpMmaEngine(kb, (1, 1), mi_count=1,
                             ni_count=head_dim // 8, prefix="o_")
    o_accs = o_engine.make_accumulators(init=0.0)
    v_rows = v.tile((kv_chunk, None))
    for ci in range(seq // kv_chunk):
        kb.comment(f"output chunk {ci}: stage V rows, P @ V")
        _stage_to_shared(kb, v_rows[bh * (seq // kv_chunk) + ci, 0],
                         smem_kv, num_threads, t)
        kb.sync()
        o_engine.mma_pass(smem_p, smem_kv, o_accs,
                          ki_count=kv_chunk // 16,
                          k_tile_offset=ci * kv_chunk // 16,
                          b_k_tile_offset=0)
        kb.sync()

    kb.comment("write the output tile")
    o_pairs = o.tile((1, 2))
    row_base = (bh * seq) + qt * q_tile
    for view, row, col in o_engine.acc_entries(o_accs, row_base, 0):
        kb.move(view, o_pairs[row, col // 2])
    return kb.build()


def build_decode_fmha(cfg: DecodeFmhaConfig) -> Kernel:
    """Single-query attention over a KV cache (the serving decode step).

    ``O[h] = softmax(q_h K_h^T / sqrt(d)) V_h`` with one cached K/V row
    per position: batch-1, long-context, memory-bound.  One block per
    head; thread ``t`` computes the score against cache position ``t``
    (and output channel ``t`` in the value pass).  The query row is
    read directly from row 0 of the packed QKV projection output, so
    the decode path needs no separate Q-extract kernel.
    """
    heads, ctx, hd = cfg.heads, cfg.context, cfg.head_dim
    if ctx < hd:
        raise ValueError("context must cover head_dim (one thread per "
                         "position doubles as one per output channel)")
    if ctx > 1024:
        raise ValueError("context exceeds the 1024-thread block")
    scale = 1.0 / float(hd) ** 0.5

    kb = KernelBuilder(cfg.name, (heads,), (ctx,))
    qkv = kb.param("QKV", (cfg.qkv_rows, 3 * heads * hd), FP16)
    kc = kb.param("K_cache", (heads * ctx, hd), FP16)
    vc = kb.param("V_cache", (heads * ctx, hd), FP16)
    o = kb.param("O", (heads, hd), FP16)
    h_i = kb.grid.indices()[0]
    t = Var("threadIdx.x")

    smem_s = kb.alloc("dec_s", (ctx,), FP32, SH)
    smem_p = kb.alloc("dec_p", (ctx,), FP16, SH)

    kb.comment("scores: thread t owns cache position t")
    qvec = kb.alloc("dec_q", (hd,), FP32, RF)
    kvec = kb.alloc("dec_k", (hd,), FP32, RF)
    sval = kb.alloc("dec_sval", (1,), FP32, RF)
    scale_t = kb.alloc("dec_scale", (1,), FP32, RF)
    kb.init(scale_t, scale)
    kb.move(qkv.tile((1, hd))[0, h_i], qvec)
    kb.move(kc.tile((1, None))[h_i * ctx + t, 0], kvec)
    kb.binary("mul", qvec, kvec, kvec)
    kb.reduce("add", kvec, sval)
    kb.binary("mul", sval, scale_t, sval)
    kb.move(sval, smem_s.tile((1,))[t])
    kb.sync()

    kb.comment("softmax over the context scores (single thread)")
    vals = kb.alloc("dec_row", (ctx,), FP32, RF)
    rmax = kb.alloc("dec_max", (1,), FP32, RF)
    rsum = kb.alloc("dec_sum", (1,), FP32, RF)
    with kb.when([(t, Const(1))]):
        kb.move(smem_s, vals)
        kb.reduce("max", vals, rmax)
        kb.binary("sub", vals, rmax, vals)
        kb.unary("exp", vals, vals)
        kb.reduce("add", vals, rsum)
        kb.binary("div", vals, rsum, vals)
        kb.move(vals, smem_p)
    kb.sync()

    kb.comment("value pass: thread t owns output channel t")
    vvec = kb.alloc("dec_v", (ctx,), FP32, RF)
    pvec = kb.alloc("dec_pv", (ctx,), FP32, RF)
    oval = kb.alloc("dec_oval", (1,), FP32, RF)
    v_head = vc.tile((ctx, None))
    with kb.when([(t, Const(hd))]):
        kb.move(v_head[h_i, 0].tile((None, 1))[0, t], vvec)
        kb.move(smem_p, pvec)
        kb.binary("mul", pvec, vvec, pvec)
        kb.reduce("add", pvec, oval)
        kb.move(oval, o.tile((1, 1))[h_i, t])
    return kb.build()
