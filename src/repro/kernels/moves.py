"""Optimized data-movement kernels, including the paper's Figure 1.

``build`` reproduces the running example of paper Section 2: a warp
moves a 16x16 fp16 shared-memory tile into 2x4 registers per thread with
a single ``ldmatrix`` instruction, expressed by tiling the warp into 2x2
logical groups of 8 threads and assigning each group an 8x8 data tile.
"""

from __future__ import annotations

import numpy as np

from ..frontend.builder import KernelBuilder
from ..layout.layout import Layout
from ..specs.kernel import Kernel
from ..tensor.dtypes import FP16
from ..tensor.memspace import RF, SH
from .config import LdmatrixMoveConfig


def build(cfg: LdmatrixMoveConfig) -> Kernel:
    """GL -> SH -> (ldmatrix) RF -> GL round trip for one warp.

    The kernel stages a 16x16 fp16 tensor into shared memory, performs
    the Figure 1d decomposed warp-level Move into registers, and dumps
    each thread's 8 register values to ``out[thread]`` so tests can
    observe the prescribed data-to-thread mapping.
    """
    kb = KernelBuilder(cfg.name, (1,), (32,))
    src = kb.param("src", (16, 16), FP16)
    out = kb.param("out", (32, 8), FP16)

    smem = kb.alloc("smem", (16, 16), FP16, mem=SH)
    tid = kb.block.indices()[0]

    # Stage global -> shared: each thread copies one contiguous 8-vector.
    src_vec = src.with_layout(Layout(256, 1)).tile((8,))[tid]
    smem_vec = smem.with_layout(Layout(256, 1)).tile((8,))[tid]
    kb.move(src_vec, smem_vec)
    kb.sync()

    # Figure 1d: tile the warp into 2x2 groups of 8 threads.
    groups = kb.block.tile([8]).reshape((2, 2))
    grp_m, grp_n = groups.indices()
    local = groups.local_index()

    # Tile shared memory into four 8x8 tiles, one per group; each thread
    # points at one row of its group's tile (Figure 1a).
    tiles = smem.tile((8, 8))
    row = tiles[grp_m, grp_n].tile((1, None))[local, 0]

    # Destination: 2x4 registers per thread, tiled into 2x2 pairs
    # (Figure 1b); this Move matches the atomic ldmatrix.x4 spec.
    regs = kb.alloc("regs", (2, 4), FP16, mem=RF)
    kb.move(row, regs.tile((1, 2)), threads=kb.block)

    # Dump registers so the mapping is observable.
    kb.move(regs, out.tile((1, None))[tid, 0])
    return kb.build()


def ldmatrix_lane_values(src: np.ndarray, lane: int) -> set:
    """The (unordered) values lane ``lane`` must receive — Figure 1b.

    Two adjacent values per 8x8 tile: row ``lane/4``, columns
    ``2*(lane%4)`` and ``+1`` of each of the four tiles.
    """
    values = set()
    for tm in range(2):
        for tn in range(2):
            tile = src[8 * tm:8 * tm + 8, 8 * tn:8 * tn + 8]
            row, col = lane // 4, 2 * (lane % 4)
            values.add(float(tile[row, col]))
            values.add(float(tile[row, col + 1]))
    return values


def ldmatrix_reference(src: np.ndarray) -> np.ndarray:
    """The exact (32, 8) dump produced by ``build``.

    Matrix ``q`` of the PTX instruction is sourced by lanes
    ``8q..8q+7``, which under the kernel's 2x2 row-major group
    arrangement is the logical 8x8 tile ``(q/2, q%2)``; lane ``l``
    receives its two values of matrix ``q`` in destination register
    tile ``q`` ([2,2] colex), and the dump walks the 2x4 register file
    colexicographically.
    """
    out = np.zeros((32, 8), dtype=src.dtype)
    for lane in range(32):
        by_offset = np.zeros(8, dtype=src.dtype)
        for q in range(4):
            tm, tn = q // 2, q % 2
            tile = src[8 * tm:8 * tm + 8, 8 * tn:8 * tn + 8]
            for j in (0, 1):
                offset = 4 * (q % 2) + 2 * (q // 2) + j
                by_offset[offset] = tile[lane // 4, 2 * (lane % 4) + j]
        out[lane] = [by_offset[4 * (i % 2) + i // 2] for i in range(8)]
    return out
