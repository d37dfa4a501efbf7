"""The shared-memory bank rule, and static conflict analysis built on it.

Shared memory is 32 banks of 4-byte words.  One wavefront (one
shared-memory cycle) serves each bank once, so distinct words in the
same bank serialise while lanes reading the same word broadcast:
:func:`wavefront_degrees` is that rule over a batch of wavefronts, and
it is the only place the repo applies it.  The profiler
(:mod:`repro.sim.profiler`) calls it once per execution for every
wavefront a kernel actually issues (``Simulator.run(...,
profile=True)``); :func:`wavefront_degree` applies it to one
wavefront, and the helpers below call that for one hypothetical
access.  The swizzle ablation bench uses them to quantify why
optimized kernels use "memory layouts beyond row- and column-major"
(paper Section 3.2).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from ..layout.linear import LinearLayoutError, bank_group_matrix
from ..tensor.tensor import Tensor

#: Shared memory is organised in 32 four-byte-wide banks on all
#: architectures this repo models.
SMEM_BANKS = 32
SMEM_BANK_BYTES = 4


def wavefront_degrees(wave_ids: np.ndarray, words: np.ndarray,
                      waves: int) -> np.ndarray:
    """Transactions each of ``waves`` wavefronts needs for its words.

    ``words[i]`` is a 4-byte word that wavefront ``wave_ids[i]`` touches.
    A wavefront's degree is the most distinct words any single bank
    holds; repeated words broadcast, and a wavefront with no words still
    costs one transaction.
    """
    if words.size == 0:
        return np.ones(waves, dtype=np.int64)
    # Shifting by a multiple of the bank count keeps every word's bank
    # and makes the (wavefront, word) pairs non-negative keys.
    low = int(words.min()) // SMEM_BANKS * SMEM_BANKS
    span = int(words.max()) - low + 1
    pairs = np.sort(wave_ids * span + (words - low))
    distinct = pairs[np.concatenate(([True], pairs[1:] != pairs[:-1]))]
    banks = distinct % span % SMEM_BANKS
    per_bank = np.bincount(distinct // span * SMEM_BANKS + banks,
                           minlength=waves * SMEM_BANKS)
    return np.maximum(per_bank.reshape(waves, SMEM_BANKS).max(axis=1), 1)


def wavefront_degree(words: Iterable[int]) -> int:
    """Transactions one wavefront needs to serve the 4-byte ``words``."""
    words = np.fromiter(words, dtype=np.int64)
    return int(wavefront_degrees(np.zeros(words.size, dtype=np.int64),
                                 words, 1)[0])


def access_degree(lane_byte_offsets: Sequence[Sequence[int]]) -> int:
    """Conflict degree of one collective access.

    ``lane_byte_offsets[i]`` lists the bytes lane ``i`` touches.  Lanes
    hitting different words in the same bank serialise; same-word
    accesses broadcast.
    """
    return wavefront_degree(off // SMEM_BANK_BYTES
                            for offsets in lane_byte_offsets
                            for off in offsets)


def linear_ldmatrix_degree(smem: Tensor, row_tile: int = 0,
                           col_tile: int = 0) -> Optional[int]:
    """ldmatrix conflict degree by F2 rank, or None when inapplicable.

    For a flat row-major fp16 staging buffer at offset 0, the address
    of tile row ``r`` decomposes into bit-disjoint fields (tile base,
    row index, in-row column), so integer addition is XOR and the
    eight rows' bank groups form a coset of the bank-group matrix's
    image: exactly ``2**rank`` distinct groups, each serialising its
    ``2**(3-rank)`` aligned segments one word per bank.  The degree is
    therefore ``2**(3 - rank)`` for *every* tile of the buffer —
    no enumeration needed.  Preconditions the argument relies on
    (power-of-two row length, zero base offset, in-range tile) return
    None; callers fall back to offset enumeration.
    """
    layout = smem.layout
    shape, stride = layout.shape, layout.stride
    if (
        smem.guards is not None
        or not isinstance(shape, tuple) or len(shape) != 2
        or not all(isinstance(s, int) for s in shape)
        or stride != (shape[1], 1)
        or smem.dtype.bytes != 2
    ):
        return None
    rows, cols = shape
    if rows < 8 or cols < 8 or cols & (cols - 1):
        return None
    if (row_tile + 1) * 8 > rows or (col_tile + 1) * 8 > cols:
        return None
    try:
        if smem.offset.evaluate({}) != 0:
            return None
    except (KeyError, TypeError, AttributeError):
        return None
    try:
        mat = bank_group_matrix(cols, smem.swizzle, smem.dtype.bytes)
    except LinearLayoutError:
        return None
    return 1 << (3 - mat.rank())


def ldmatrix_conflict_degree(smem: Tensor, row_tile: int = 0,
                             col_tile: int = 0) -> int:
    """Conflict degree of one ldmatrix 8x8 fp16 matrix load.

    The instruction reads eight 16-byte rows of the ``(row_tile,
    col_tile)`` 8x8 sub-tile of ``smem`` (which may be swizzled); the
    degree is 1 when all eight rows land in distinct bank groups.
    Buffers the F2 model covers are scored by rank
    (:func:`linear_ldmatrix_degree`); anything else enumerates
    physical offsets (:func:`enumerated_ldmatrix_degree`).
    """
    degree = linear_ldmatrix_degree(smem, row_tile, col_tile)
    if degree is not None:
        return degree
    return enumerated_ldmatrix_degree(smem, row_tile, col_tile)


def enumerated_ldmatrix_degree(smem: Tensor, row_tile: int = 0,
                               col_tile: int = 0) -> int:
    """:func:`ldmatrix_conflict_degree` by brute-force offset
    enumeration — the reference the F2 fast path is checked against."""
    itemsize = smem.dtype.bytes
    lane_offsets: List[List[int]] = []
    for row in range(8):
        offsets = [
            smem.physical_offset((row_tile * 8 + row, col_tile * 8 + col))
            * itemsize
            for col in range(8)
        ]
        lane_offsets.append(offsets)
    return access_degree(lane_offsets)


def column_access_degree(smem: Tensor, col: int = 0) -> int:
    """Conflict degree of a warp reading one element per row down a
    column — the canonical worst case for row-major layouts."""
    itemsize = smem.dtype.bytes
    rows = min(32, smem.dim(0))
    return access_degree(
        [[smem.physical_offset((r, col)) * itemsize] for r in range(rows)]
    )
