"""Optimized Tensor Core GEMM pipelines (paper Figure 9).

The Ampere kernel follows the structure of cuBLAS-class kernels:

1. every thread-block owns a ``BM x BN`` tile of C and walks K in
   ``BK``-deep slices;
2. A and B slices are staged into shared memory with vectorized
   (``cp.async``) copies;
3. each warp owns a sub-tile and uses ``ldmatrix`` (``.trans`` for B) to
   load mma fragments from shared memory;
4. warps issue ``mma.m16n8k16`` Tensor Core instructions accumulating in
   fp32 registers;
5. the epilogue converts accumulators to fp16 and stores them (an
   optional fused pointwise epilogue is added by
   :mod:`repro.kernels.epilogue`).

The Volta kernel replaces steps 3-4 with per-quad-pair ``mma.m8n8k4``
fragments loaded by per-thread shared-memory moves.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..frontend.builder import KernelBuilder
from ..ir.expr import Const, Var
from ..layout.linear import synthesize_bank_swizzle
from ..layout.swizzle import IDENTITY_SWIZZLE, Swizzle
from ..specs.kernel import Kernel
from ..tensor.dtypes import FP16, FP32
from ..tensor.memspace import RF, SH
from ..tensor.tensor import Tensor
from .config import GemmConfig
from .tc_common import WarpMmaEngine


def validate_gemm_config(
    m: int,
    n: int,
    k: int,
    block_tile: Tuple[int, int, int],
    warp_grid: Tuple[int, int],
    mma_tile: Tuple[int, int, int] = (16, 8, 16),
    stages: int = 1,
    qp_tile: Optional[Tuple[int, int]] = None,
) -> None:
    """Check a GEMM decomposition config against a problem shape.

    Raises :class:`ValueError` naming every offending dimension, so
    callers (and the tuner's space pruner, which imports this) learn
    *why* a tiling is illegal instead of failing deep inside tile
    construction with an opaque shape error.  ``qp_tile`` switches to
    the Volta quad-pair constraints (warp tile = ``16 * qp_tile``).
    """
    bm, bn, bk = block_tile
    wm_count, wn_count = warp_grid
    problems = []
    if min(bm, bn, bk, wm_count, wn_count) <= 0:
        problems.append(
            f"tile dimensions must be positive: block_tile={block_tile} "
            f"warp_grid={warp_grid}"
        )
    else:
        if m % bm:
            problems.append(f"M={m} is not divisible by block tile BM={bm}")
        if n % bn:
            problems.append(f"N={n} is not divisible by block tile BN={bn}")
        if k % bk:
            problems.append(f"K={k} is not divisible by block tile BK={bk}")
        if qp_tile is not None:
            tm_count, tn_count = qp_tile
            if bm != wm_count * 16 * tm_count:
                problems.append(
                    f"BM={bm} must equal warp_grid[0]*16*qp_tile[0]"
                    f"={wm_count}*16*{tm_count}={wm_count * 16 * tm_count}"
                )
            if bn != wn_count * 16 * tn_count:
                problems.append(
                    f"BN={bn} must equal warp_grid[1]*16*qp_tile[1]"
                    f"={wn_count}*16*{tn_count}={wn_count * 16 * tn_count}"
                )
            if bk % 4:
                problems.append(f"BK={bk} must divide into depth-4 mma steps")
        else:
            mma_m, mma_n, mma_k = mma_tile
            if bm % wm_count:
                problems.append(
                    f"BM={bm} is not divisible by warp_grid[0]={wm_count}"
                )
            if bn % wn_count:
                problems.append(
                    f"BN={bn} is not divisible by warp_grid[1]={wn_count}"
                )
            wtm = bm // wm_count if bm % wm_count == 0 else 0
            wtn = bn // wn_count if bn % wn_count == 0 else 0
            if wtm and wtm % mma_m:
                problems.append(
                    f"warp tile M={wtm} (BM={bm}/warps={wm_count}) is not "
                    f"divisible by the mma tile M={mma_m}"
                )
            if wtn and wtn % mma_n:
                problems.append(
                    f"warp tile N={wtn} (BN={bn}/warps={wn_count}) is not "
                    f"divisible by the mma tile N={mma_n}"
                )
            if bk % mma_k:
                problems.append(
                    f"BK={bk} is not divisible by the mma tile K={mma_k}"
                )
        if stages > 1 and bk and k % bk == 0 and (k // bk) % stages:
            quantum = "an even" if stages == 2 else f"a multiple-of-{stages}"
            problems.append(
                f"{stages}-stage pipelining needs {quantum} K-slice "
                f"count, got {k}//{bk}={k // bk}"
            )
    if problems:
        raise ValueError(
            "invalid GEMM configuration for "
            f"{m}x{n}x{k}: " + "; ".join(problems)
        )


def _stage_to_shared(kb, gl_tile: Tensor, sh: Tensor, num_threads: int,
                     t: Var, vec: int = 8) -> None:
    """Vectorized cooperative copy of a 2-D tile into shared memory."""
    rows, cols = gl_tile.dim(0), gl_tile.dim(1)
    vecs_per_row = cols // vec
    total = rows * vecs_per_row
    gl_vecs = gl_tile.tile((1, vec))
    sh_vecs = sh.tile((1, vec))
    full_rounds, remainder = divmod(total, num_threads)
    for c in range(full_rounds):
        flat = Const(c * num_threads) + t
        row = flat // vecs_per_row
        colv = flat % vecs_per_row
        kb.move(gl_vecs[row, colv], sh_vecs[row, colv])
    if remainder:
        flat = Const(full_rounds * num_threads) + t
        with kb.when([(flat, Const(total))]):
            row = flat // vecs_per_row
            colv = flat % vecs_per_row
            kb.move(gl_vecs[row, colv], sh_vecs[row, colv])


def build_ampere_tc_gemm(
    m: int,
    n: int,
    k: int,
    block_tile: Tuple[int, int, int] = (128, 128, 32),
    warp_grid: Tuple[int, int] = (2, 2),
    swizzle: Swizzle = IDENTITY_SWIZZLE,
    use_ldmatrix: bool = True,
    name: str = "graphene_gemm_sm86",
    epilogue=None,
    swizzle_a: Optional[Swizzle] = None,
    swizzle_b: Optional[Swizzle] = None,
) -> Kernel:
    """Tensor Core GEMM for SM86: ``C = A @ B`` (fp16 in, fp32 accum).

    ``epilogue(kb, ctx)`` — if given — is invoked before the final
    store with an :class:`EpilogueSite` describing the per-thread
    accumulator pairs and their global coordinates; this is how fused
    GEMM+pointwise kernels are expressed (paper Figure 10).

    ``use_ldmatrix=False`` replaces the tensorized fragment loads with
    per-thread scalar shared-memory moves (the paper's ~17%-slower
    alternative) — the ablation of Section 2.

    ``swizzle_a`` / ``swizzle_b`` override ``swizzle`` per staging
    buffer (their row lengths differ, so a bank-spreading permutation
    for A is generally wrong for B).
    """
    validate_gemm_config(m, n, k, block_tile, warp_grid)
    bm, bn, bk = block_tile
    wm_count, wn_count = warp_grid
    nwarps = wm_count * wn_count
    num_threads = nwarps * 32
    wtm, wtn = bm // wm_count, bn // wn_count
    mi_count, ni_count = wtm // 16, wtn // 8
    ki_count = bk // 16

    kb = KernelBuilder(name, (m // bm, n // bn), (num_threads,))
    a = kb.param("A", (m, k), FP16)
    b = kb.param("B", (k, n), FP16)
    c = kb.param("C", (m, n), FP16)
    bid_m, bid_n = kb.grid.indices()

    smem_a = kb.alloc("smem_a", (bm, bk), FP16, SH,
                      swizzle=swizzle_a if swizzle_a is not None else swizzle)
    smem_b = kb.alloc("smem_b", (bk, bn), FP16, SH,
                      swizzle=swizzle_b if swizzle_b is not None else swizzle)

    engine = WarpMmaEngine(kb, warp_grid, mi_count, ni_count)
    accs = engine.make_accumulators(init=0.0)
    t = engine.t

    a_blocks = a.tile((bm, bk))
    b_blocks = b.tile((bk, bn))

    with kb.loop("kt", k // bk, unroll=False) as kt:
        kb.comment("stage A and B slices into shared memory")
        _stage_to_shared(kb, a_blocks[bid_m, kt], smem_a, num_threads, t)
        _stage_to_shared(kb, b_blocks[kt, bid_n], smem_b, num_threads, t)
        kb.sync()
        engine.mma_pass(smem_a, smem_b, accs, ki_count,
                        use_ldmatrix=use_ldmatrix)
        kb.sync()

    kb.comment("epilogue: write fp32 accumulators back as fp16")
    entries = engine.acc_entries(accs, bid_m * bm, bid_n * bn)
    site = EpilogueSite(kb, entries, c, vec=2)
    if epilogue is not None:
        epilogue(site)
    site.store()
    return kb.build()


class EpilogueSite:
    """Hands fused epilogues the accumulator views and C coordinates.

    Each entry of :meth:`pairs` is ``(acc_view, row_expr, col_expr)``:
    a contiguous ``vec``-value fp32 register view holding
    ``C[row, col:col+vec]`` of the output tile.  Fused epilogues (bias
    add, activations, ...) apply pointwise specs to the views before
    :meth:`store` writes them out (paper Figure 10).
    """

    def __init__(self, kb, entries, c, vec):
        self.kb = kb
        self._entries = entries
        self.c = c
        self.vec = vec

    def pairs(self):
        return list(self._entries)

    def store(self):
        c_vecs = self.c.tile((1, self.vec))
        for view, row, col in self._entries:
            self.kb.move(view, c_vecs[row, col // self.vec])


def build_volta_tc_gemm(
    m: int,
    n: int,
    k: int,
    block_tile: Tuple[int, int, int] = (128, 128, 32),
    warp_grid: Tuple[int, int] = (4, 4),
    qp_tile: Tuple[int, int] = (2, 2),
    name: str = "graphene_gemm_sm70",
    epilogue=None,
) -> Kernel:
    """Tensor Core GEMM for SM70 using quad-pair ``mma.m8n8k4``.

    Each warp covers a ``16*qp_tile`` C tile: its four quad-pairs
    (paper Figure 6) each own a grid of 8x8 sub-tiles and iterate K in
    depth-4 mma steps.  Fragments are loaded from shared memory with
    per-thread moves (Volta has no ldmatrix).  The paper-scale
    configuration is a 128x128x32 block tile from 4x4 warps of 2x2
    quad-pair tiles (512 threads).
    """
    validate_gemm_config(m, n, k, block_tile, warp_grid, qp_tile=qp_tile)
    bm, bn, bk = block_tile
    wm_count, wn_count = warp_grid
    tm_count, tn_count = qp_tile
    wtm, wtn = 16 * tm_count, 16 * tn_count
    nwarps = wm_count * wn_count
    num_threads = nwarps * 32

    kb = KernelBuilder(name, (m // bm, n // bn), (num_threads,))
    a = kb.param("A", (m, k), FP16)
    b = kb.param("B", (k, n), FP16)
    c = kb.param("C", (m, n), FP16)
    bid_m, bid_n = kb.grid.indices()

    smem_a = kb.alloc("smem_a", (bm, bk), FP16, SH)
    smem_b = kb.alloc("smem_b", (bk, bn), FP16, SH)

    t = Var("threadIdx.x")
    warps = kb.block.tile([32])
    wid = warps.indices()[0]
    wm = wid % wm_count
    wn = wid // wm_count

    from ..layout.layout import Layout

    # Quad-pairs: the non-contiguous [(4,2):(1,16)] groups of Figure 6.
    quad_pairs = kb.block.tile([Layout((4, 2), (1, 16))])
    qp_m = (t // 4) % 2
    qp_n = (t // 8) % 2
    li = t % 4 + ((t // 16) % 2) * 4  # position within the quad-pair

    accs = {}
    a_frags = {}
    b_frags = {}
    for ti in range(tm_count):
        a_frags[ti] = kb.alloc(f"a_frag_qp_{ti}", (4,), FP16, RF)
        for tj in range(tn_count):
            acc = kb.alloc(f"acc_qp_{ti}_{tj}", (2, 4), FP32, RF)
            kb.init(acc, 0.0)
            accs[(ti, tj)] = acc
    for tj in range(tn_count):
        b_frags[tj] = kb.alloc(f"b_frag_qp_{tj}", (4,), FP16, RF)

    a_blocks = a.tile((bm, bk))
    b_blocks = b.tile((bk, bn))

    with kb.loop("kt", k // bk, unroll=False) as kt:
        kb.comment("stage A and B slices into shared memory (LDG+STS)")
        _stage_to_shared(kb, a_blocks[bid_m, kt], smem_a, num_threads, t)
        _stage_to_shared(kb, b_blocks[kt, bid_n], smem_b, num_threads, t)
        kb.sync()
        sm_a_quads = smem_a.tile((1, 4))  # [bm, bk/4] rows of 4 k-values
        for k4 in range(bk // 4):
            for ti in range(tm_count):
                # A fragment: lane li holds the 4 k-values of its row.
                row = wm * wtm + ti * 16 + qp_m * 8 + li
                kb.move(sm_a_quads[row, k4], a_frags[ti])
            for tj in range(tn_count):
                # B fragment: lane li holds the 4 k-values of its column.
                col = wn * wtn + tj * 16 + qp_n * 8 + li
                kb.move(smem_b.tile((4, 1))[k4, col], b_frags[tj])
            for ti in range(tm_count):
                for tj in range(tn_count):
                    kb.matmul(a_frags[ti], b_frags[tj], accs[(ti, tj)],
                              threads=quad_pairs)
        kb.sync()

    kb.comment("epilogue: write fp32 accumulators back as fp16")
    pos, quad = t % 4, (t // 16) % 2
    entries = []
    for (ti, tj), acc in accs.items():
        acc_rows = acc.tile((1, None))
        for i in (0, 1):
            row = bid_m * bm + wm * wtm + ti * 16 + qp_m * 8 + 2 * pos + i
            col = bid_n * bn + wn * wtn + tj * 16 + qp_n * 8 + 4 * quad
            entries.append((acc_rows[i, 0], row, col))
    site = EpilogueSite(kb, entries, c, vec=4)
    if epilogue is not None:
        epilogue(site)
    site.store()
    return kb.build()


def build_ampere_tc_gemm_pipelined(
    m: int,
    n: int,
    k: int,
    block_tile: Tuple[int, int, int] = (128, 128, 32),
    warp_grid: Tuple[int, int] = (2, 2),
    name: str = "graphene_gemm_sm86_pipelined",
    swizzle_a: Swizzle = IDENTITY_SWIZZLE,
    swizzle_b: Swizzle = IDENTITY_SWIZZLE,
) -> Kernel:
    """Double-buffered Tensor Core GEMM (software pipelining).

    The staple optimization of cuBLAS-class Ampere kernels: while the
    warps compute on one pair of shared-memory buffers, ``cp.async``
    copies the *next* K-slice into the other pair, overlapping global
    loads with Tensor Core math.  Expressed in Graphene as a 2x-unrolled
    K loop over two buffer pairs with a guarded prefetch.
    """
    validate_gemm_config(m, n, k, block_tile, warp_grid, stages=2)
    bm, bn, bk = block_tile
    wm_count, wn_count = warp_grid
    num_threads = wm_count * wn_count * 32
    mi_count = bm // (wm_count * 16)
    ni_count = bn // (wn_count * 8)
    ki_count = bk // 16
    k_slices = k // bk

    kb = KernelBuilder(name, (m // bm, n // bn), (num_threads,))
    a = kb.param("A", (m, k), FP16)
    b = kb.param("B", (k, n), FP16)
    c = kb.param("C", (m, n), FP16)
    bid_m, bid_n = kb.grid.indices()

    smem_a = [kb.alloc(f"smem_a{i}", (bm, bk), FP16, SH, swizzle=swizzle_a)
              for i in (0, 1)]
    smem_b = [kb.alloc(f"smem_b{i}", (bk, bn), FP16, SH, swizzle=swizzle_b)
              for i in (0, 1)]

    engine = WarpMmaEngine(kb, warp_grid, mi_count, ni_count)
    accs = engine.make_accumulators(init=0.0)
    t = engine.t

    a_blocks = a.tile((bm, bk))
    b_blocks = b.tile((bk, bn))

    def stage(kt_expr, buf):
        _stage_to_shared(kb, a_blocks[bid_m, kt_expr], smem_a[buf],
                         num_threads, t)
        _stage_to_shared(kb, b_blocks[kt_expr, bid_n], smem_b[buf],
                         num_threads, t)

    kb.comment("prologue: prefetch K-slice 0 into buffer pair 0")
    stage(Const(0), 0)
    with kb.loop("kt2", k_slices // 2, unroll=False) as kt2:
        kb.sync()
        kb.comment("prefetch the odd slice while computing the even one")
        stage(kt2 * 2 + 1, 1)
        engine.mma_pass(smem_a[0], smem_b[0], accs, ki_count)
        kb.sync()
        kb.comment("prefetch the next even slice (if any) while "
                   "computing the odd one")
        with kb.when([(kt2 * 2 + 2, Const(k_slices))]):
            stage(kt2 * 2 + 2, 0)
        engine.mma_pass(smem_a[1], smem_b[1], accs, ki_count)
    kb.sync()

    kb.comment("epilogue: write fp32 accumulators back as fp16")
    entries = engine.acc_entries(accs, bid_m * bm, bid_n * bn)
    site = EpilogueSite(kb, entries, c, vec=2)
    site.store()
    return kb.build()


def build(cfg: GemmConfig) -> Kernel:
    """The tensor-core GEMM a :class:`GemmConfig` describes.

    Dispatches on ``cfg.variant`` (``ampere``, ``ampere_pipelined``,
    ``volta``); ``cfg.swizzled=True`` stages each operand through the
    bank-spreading swizzle synthesized for its staging-row length
    (:func:`repro.layout.linear.synthesize_bank_swizzle`), or through
    the identity where none is needed or none exists.
    """
    builder = _VARIANT_BUILDERS.get(cfg.variant)
    if builder is None:
        raise ValueError(
            f"unknown GemmConfig.variant {cfg.variant!r} "
            f"(expected one of {sorted(_VARIANT_BUILDERS)})"
        )
    common = dict(block_tile=cfg.block_tile, warp_grid=cfg.warp_grid)
    if cfg.name is not None:
        common["name"] = cfg.name
    if cfg.swizzled:
        if cfg.variant not in _SWIZZLABLE_VARIANTS:
            raise ValueError(
                f"GemmConfig.swizzled is not supported for the "
                f"{cfg.variant} variant (its staging buffers use "
                "per-thread moves)"
            )
        _bm, bn, bk = cfg.block_tile
        common["swizzle_a"] = synthesize_bank_swizzle(bk) or IDENTITY_SWIZZLE
        common["swizzle_b"] = synthesize_bank_swizzle(bn) or IDENTITY_SWIZZLE
    return builder(cfg, common)


#: ``GemmConfig.variant`` dispatch table — a lookup, not a name
#: comparison, so new variants slot in without editing ``build``.
_VARIANT_BUILDERS = {
    "ampere": lambda cfg, common: build_ampere_tc_gemm(
        cfg.m, cfg.n, cfg.k, use_ldmatrix=cfg.use_ldmatrix, **common),
    "ampere_pipelined": lambda cfg, common: build_ampere_tc_gemm_pipelined(
        cfg.m, cfg.n, cfg.k, **common),
    "volta": lambda cfg, common: build_volta_tc_gemm(
        cfg.m, cfg.n, cfg.k, qp_tile=cfg.qp_tile, **common),
}

#: Variants whose staging buffers accept bank-spreading swizzles.
_SWIZZLABLE_VARIANTS = frozenset({"ampere", "ampere_pipelined"})
