"""Hopper (SM90) warpgroup kernels: FP8 GEMM and 2:4 sparse GEMM.

Both families use the Hopper-generation atomics behind
``architecture("hopper")``:

* **TMA staging** — each K-slice of the operands moves global-to-shared
  as one ``cp.async.bulk.tensor`` Move per tile (label ``"tma ..."``),
  bypassing the register file; the barrier after staging awaits the
  bulk copies.
* **warpgroup mma** — one ``wgmma.mma_async.m64n64kX`` per K-chunk: the
  whole 128-thread block multiplies a ``64 x X`` A tile against an
  ``X x 64`` B tile straight out of shared memory, accumulating into
  per-lane fp32 register fragments.
* The FP8 kernel follows the *2x-accumulation* recipe of Hopper fp8
  GEMMs: wgmma accumulates each K-slice into a zeroed partial tile, and
  a separate fp32 add folds the partial into the running accumulator —
  bounding the error growth of long fp8 dot products.
* The sparse kernel stores A in 2:4-compressed form (``(m, k/2)``
  values plus ``(m, k/2)`` column-index metadata), expands each staged
  slice to dense in shared memory with the ``sparse24.decompress``
  atomic, and feeds the dense tile to the f16 wgmma.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..frontend.builder import KernelBuilder
from ..ir.expr import Var
from ..specs.base import GenericSpec
from ..specs.kernel import Kernel
from ..tensor.dtypes import FP8E4M3, FP16, FP32, INT32
from ..tensor.memspace import RF, SH
from .config import HopperFp8GemmConfig, Sparse24GemmConfig

#: wgmma output tile per block (m64n64 is the one instruction shape the
#: atomic table models); the fp8/f16 instruction K-depths.
WG_M, WG_N = 64, 64
WG_K_FP8 = 32
WG_K_F16 = 16


def validate_hopper_gemm_config(m: int, n: int, k: int, block_k: int,
                                chunk_k: int, sparse: bool = False) -> None:
    """Check a warpgroup GEMM decomposition against a problem shape."""
    problems = []
    if block_k <= 0 or block_k % chunk_k:
        problems.append(
            f"block_k={block_k} must be a positive multiple of the "
            f"wgmma K-depth {chunk_k}"
        )
    if m % WG_M:
        problems.append(f"M={m} is not divisible by the wgmma tile M={WG_M}")
    if n % WG_N:
        problems.append(f"N={n} is not divisible by the wgmma tile N={WG_N}")
    if block_k > 0 and k % block_k:
        problems.append(f"K={k} is not divisible by block_k={block_k}")
    if sparse and block_k % 4:
        problems.append(
            f"block_k={block_k} must cover whole 2:4 groups of four"
        )
    if problems:
        raise ValueError(
            f"invalid Hopper GEMM configuration for {m}x{n}x{k}: "
            + "; ".join(problems)
        )


def _wgmma_epilogue(kb: KernelBuilder, acc, c, bid_m, bid_n) -> None:
    """Store the (4, 8) per-lane wgmma accumulator as fp16 pairs.

    Register ``r = rr + 4*nb`` holds C element
    ``(16*warp + group + 8*(rr//2), 8*nb + 2*tig + rr%2)`` (the
    ``wgmma_c_coord`` fragment map), so registers ``(2q, nb)`` and
    ``(2q+1, nb)`` are a contiguous fp16 pair in C.
    """
    t = Var("threadIdx.x")
    warp = t // 32
    lane = t % 32
    group = lane // 4
    tig = lane % 4
    acc_pairs = acc.tile((2, 1))
    c_vecs = c.tile((1, 2))
    for q in (0, 1):
        row = bid_m * WG_M + warp * 16 + group + 8 * q
        for nb in range(WG_N // 8):
            colv = bid_n * (WG_N // 2) + nb * 4 + tig
            kb.move(acc_pairs[q, nb], c_vecs[row, colv])


def build_fp8(cfg: HopperFp8GemmConfig) -> Kernel:
    """FP8 warpgroup GEMM: ``C = A @ B`` (e4m3 in, fp32 accum, fp16 out).

    One warpgroup (128 threads) per block owns a 64x64 C tile and walks
    K in ``block_k``-deep TMA-staged slices, issuing one
    ``wgmma.m64n64k32`` per 32-deep chunk.  ``two_stage_acc=True`` adds
    the 2x-accumulation stage (partial tile per K-slice, folded into
    the running fp32 accumulator with a separate add).
    """
    m, n, k, block_k = cfg.m, cfg.n, cfg.k, cfg.block_k
    two_stage_acc = cfg.two_stage_acc
    validate_hopper_gemm_config(m, n, k, block_k, WG_K_FP8)
    kb = KernelBuilder(cfg.name, (m // WG_M, n // WG_N), (128,))
    a = kb.param("A", (m, k), FP8E4M3)
    b = kb.param("B", (k, n), FP8E4M3)
    c = kb.param("C", (m, n), FP16)
    bid_m, bid_n = kb.grid.indices()

    smem_a = kb.alloc("smem_a", (WG_M, block_k), FP8E4M3, SH)
    smem_b = kb.alloc("smem_b", (block_k, WG_N), FP8E4M3, SH)
    wg = kb.block.tile([128])

    acc = kb.alloc("acc", (4, 8), FP32, RF)
    kb.init(acc, 0.0)
    partial = kb.alloc("partial", (4, 8), FP32, RF) if two_stage_acc else None

    a_blocks = a.tile((WG_M, block_k))
    b_blocks = b.tile((block_k, WG_N))
    sm_a_chunks = smem_a.tile((WG_M, WG_K_FP8))
    sm_b_chunks = smem_b.tile((WG_K_FP8, WG_N))

    with kb.loop("kt", k // block_k, unroll=False) as kt:
        kb.comment("TMA: bulk-copy the A and B K-slices into shared memory")
        kb.move(a_blocks[bid_m, kt], smem_a, threads=wg, label="tma A slice")
        kb.move(b_blocks[kt, bid_n], smem_b, threads=wg, label="tma B slice")
        kb.sync()
        target = partial if two_stage_acc else acc
        if two_stage_acc:
            kb.comment("2x accumulation: zero the per-slice partial tile")
            kb.init(partial, 0.0)
        for kc in range(block_k // WG_K_FP8):
            kb.matmul(sm_a_chunks[0, kc], sm_b_chunks[kc, 0], target,
                      threads=wg, label="wgmma fp8")
        if two_stage_acc:
            kb.binary("add", acc, partial, acc)
        kb.sync()

    kb.comment("epilogue: write fp32 accumulators back as fp16")
    _wgmma_epilogue(kb, acc, c, bid_m, bid_n)
    return kb.build()


def build_sparse24(cfg: Sparse24GemmConfig) -> Kernel:
    """2:4 structured-sparse warpgroup GEMM.

    A is stored compressed: ``A_comp`` holds the two surviving values of
    every group of four K-columns, ``A_meta`` their column indices
    (ascending, in 0..3).  Each TMA-staged slice is expanded to a dense
    shared-memory tile by the ``sparse24.decompress`` atomic and fed to
    the f16 ``wgmma.m64n64k16``.
    """
    m, n, k, block_k = cfg.m, cfg.n, cfg.k, cfg.block_k
    validate_hopper_gemm_config(m, n, k, block_k, WG_K_F16, sparse=True)
    kb = KernelBuilder(cfg.name, (m // WG_M, n // WG_N), (128,))
    a_comp = kb.param("A_comp", (m, k // 2), FP16)
    a_meta = kb.param("A_meta", (m, k // 2), INT32)
    b = kb.param("B", (k, n), FP16)
    c = kb.param("C", (m, n), FP16)
    bid_m, bid_n = kb.grid.indices()

    half_bk = block_k // 2
    smem_comp = kb.alloc("smem_comp", (WG_M, half_bk), FP16, SH)
    smem_meta = kb.alloc("smem_meta", (WG_M, half_bk), INT32, SH)
    smem_dense = kb.alloc("smem_dense", (WG_M, block_k), FP16, SH)
    smem_b = kb.alloc("smem_b", (block_k, WG_N), FP16, SH)
    wg = kb.block.tile([128])

    acc = kb.alloc("acc", (4, 8), FP32, RF)
    kb.init(acc, 0.0)

    comp_blocks = a_comp.tile((WG_M, half_bk))
    meta_blocks = a_meta.tile((WG_M, half_bk))
    b_blocks = b.tile((block_k, WG_N))
    dense_chunks = smem_dense.tile((WG_M, WG_K_F16))
    sm_b_chunks = smem_b.tile((WG_K_F16, WG_N))

    with kb.loop("kt", k // block_k, unroll=False) as kt:
        kb.comment("TMA: bulk-copy compressed A, metadata and B slices")
        kb.move(comp_blocks[bid_m, kt], smem_comp, threads=wg,
                label="tma A compressed")
        kb.move(meta_blocks[bid_m, kt], smem_meta, threads=wg,
                label="tma A metadata")
        kb.move(b_blocks[kt, bid_n], smem_b, threads=wg, label="tma B slice")
        kb.sync()
        kb.comment("expand the 2:4-compressed slice to a dense smem tile")
        kb.spec(GenericSpec(
            [smem_comp, smem_meta], [smem_dense],
            (kb.grid.scalar(), wg), label="sparse24 decompress",
        ))
        kb.sync()
        for kc in range(block_k // WG_K_F16):
            kb.matmul(dense_chunks[0, kc], sm_b_chunks[kc, 0], acc,
                      threads=wg, label="wgmma f16")
        kb.sync()

    kb.comment("epilogue: write fp32 accumulators back as fp16")
    _wgmma_epilogue(kb, acc, c, bid_m, bid_n)
    return kb.build()


# -- host-side 2:4 helpers -----------------------------------------------------
def compress_24(dense: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Compress a dense ``(m, k)`` matrix into 2:4 form.

    Keeps the two largest-magnitude values of every group of four
    columns (ties resolve to the lower column index, matching cuSPARSELt
    pruning).  Returns ``(values, metadata)``, both ``(m, k/2)``;
    metadata entries are the ascending column indices in 0..3.
    """
    dense = np.asarray(dense)
    m, k = dense.shape
    if k % 4:
        raise ValueError(f"K={k} must cover whole groups of four")
    groups = dense.reshape(m, k // 4, 4)
    order = np.argsort(
        np.abs(groups), axis=2, kind="stable")[:, :, ::-1][:, :, :2]
    idx = np.sort(order, axis=2)
    values = np.take_along_axis(groups, idx, axis=2)
    comp = values.reshape(m, k // 2).astype(dense.dtype)
    meta = idx.reshape(m, k // 2).astype(np.int32)
    return comp, meta


def decompress_24(comp: np.ndarray, meta: np.ndarray) -> np.ndarray:
    """Numpy reference for :func:`compress_24` / the decompress atomic."""
    comp = np.asarray(comp)
    meta = np.asarray(meta)
    m, half_k = comp.shape
    validate_24_metadata(meta)
    dense = np.zeros((m, 2 * half_k), dtype=comp.dtype)
    rows = np.arange(m)[:, None]
    groups = np.arange(half_k // 2)[None, :]
    dense[rows, 4 * groups + meta[:, 0::2]] = comp[:, 0::2]
    dense[rows, 4 * groups + meta[:, 1::2]] = comp[:, 1::2]
    return dense


def validate_24_metadata(meta: np.ndarray) -> None:
    """Raise if a 2:4 metadata tensor is malformed."""
    meta = np.asarray(meta)
    if meta.shape[-1] % 2:
        raise ValueError("2:4 metadata must pair two indices per group")
    if np.any(meta < 0) or np.any(meta > 3):
        raise ValueError("2:4 metadata indices must be in 0..3")
    if np.any(meta[..., 0::2] >= meta[..., 1::2]):
        raise ValueError(
            "2:4 metadata must name two distinct ascending columns per "
            "group of four"
        )


def random_sparse24(rng, m: int, k: int, dtype=np.float16
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A random 2:4-sparse matrix as ``(values, metadata, dense)``."""
    comp = rng.standard_normal((m, k // 2)).astype(dtype)
    choices = np.array(
        [(i, j) for i in range(4) for j in range(i + 1, 4)], dtype=np.int32
    )
    picks = rng.integers(0, len(choices), size=(m, k // 4))
    meta = choices[picks].reshape(m, k // 2)
    return comp, meta, decompress_24(comp, meta)
