"""Shared PTX instruction semantics for the simulator and the emulator.

Two independent execution paths must agree on what each inline-PTX
instruction *does*: the functional simulator executes atomic specs
straight from the IR (:mod:`repro.sim.plan`), while the
conformance emulator (:mod:`repro.codegen.emulator`) executes the
``asm volatile`` blocks of the *generated CUDA text*.  This module is
the single source of truth both dispatch to — pure numpy functions over
warp-gathered values, keyed by the exact instruction strings the atomic
tables print (paper Table 2).

The register-to-matrix-element mappings themselves live in
:mod:`repro.arch.fragments`; this module packages them into executable
warp-level semantics.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from ..layout import inttuple as it
from . import fragments as frag


class LdmatrixSemantics:
    """Warp-collective ``ldmatrix.sync.aligned.m8n8.x{1,2,4}[.trans]``.

    Lanes ``8q..8q+7`` supply the addresses of rows ``0..7`` of 8x8
    matrix ``q``; every lane then receives two adjacent 16-bit values
    per matrix (paper Figures 1a/1b).  ``.trans`` distributes the
    transposed matrices, as used for B operands.
    """

    __slots__ = ("num", "trans", "lanes")

    def __init__(self, num: int, trans: bool):
        self.num = num
        self.trans = trans
        self.lanes = 32

    def source_lane(self, q: int, row: int) -> int:
        """The lane whose address feeds ``row`` of matrix ``q``."""
        return frag.ldmatrix_src_lane(q, row)

    def distribute(self, matrices: Sequence[np.ndarray]) -> np.ndarray:
        """Per-lane received values for gathered 8x8 ``matrices``.

        ``matrices[q]`` is the 8x8 array whose row ``r`` came from the
        address supplied by :meth:`source_lane`.  Returns an array of
        shape ``(32, num, 2)``: the two values lane ``li`` receives for
        each matrix, in register order.
        """
        if len(matrices) != self.num:
            raise ValueError(
                f"ldmatrix.x{self.num} needs {self.num} gathered "
                f"matrices, got {len(matrices)}"
            )
        out = np.zeros((self.lanes, self.num, 2), dtype=matrices[0].dtype)
        for li in range(self.lanes):
            for q in range(self.num):
                for j in (0, 1):
                    r, c = frag.ldmatrix_dst_coords(li, q, j)
                    if self.trans:
                        r, c = c, r
                    out[li, q, j] = matrices[q][r, c]
        return out


class MmaSemantics:
    """Dense compute of one ``mma.sync`` instruction over its group.

    ``group`` lanes cooperate (a full warp for Ampere m16n8k16, a
    quad-pair for Volta m8n8k4); each holds fragments whose register
    ``r`` maps to matrix elements through the coordinate functions of
    :mod:`repro.arch.fragments`.
    """

    __slots__ = ("shape", "a_coord", "b_coord", "c_coord", "group")

    def __init__(
        self,
        shape: Tuple[int, int, int],
        a_coord: Callable[[int, int], Tuple[int, int]],
        b_coord: Callable[[int, int], Tuple[int, int]],
        c_coord: Callable[[int, int], Tuple[int, int]],
        group: int,
    ):
        self.shape = shape  # (m, n, k)
        self.a_coord = a_coord
        self.b_coord = b_coord
        self.c_coord = c_coord
        self.group = group

    def warp_partition(self) -> List[List[int]]:
        """How a 32-lane warp splits into cooperating groups, as lists
        of lane positions in group order.

        Ampere m16n8k16 uses the whole warp.  Volta m8n8k4 executes per
        quad-pair: the non-contiguous ``[(4,2):(1,16)]`` lane groups of
        paper Figure 6 (threads ``qp*4..qp*4+3`` and ``qp*4+16..19``),
        with in-group position ``t%4 + (t//16)%2 * 4``.
        """
        if self.group == 32:
            return [list(range(32))]
        if self.group == 8:
            return [
                [qp * 4 + r for r in range(4)]
                + [16 + qp * 4 + r for r in range(4)]
                for qp in range(4)
            ]
        raise ValueError(f"no warp partition for group size {self.group}")

    def compute(
        self,
        a_frags: Sequence[np.ndarray],
        b_frags: Sequence[np.ndarray],
        c_frags: Sequence[np.ndarray],
    ) -> List[np.ndarray]:
        """``d = a @ b + c`` from per-lane fragments, refragmented.

        Each ``*_frags[li]`` lists lane ``li``'s fragment values in
        register order; the result lists each lane's d-fragment in
        c-register order.  Math is fp32, matching Tensor Core
        accumulation.
        """
        m, n, k = self.shape
        if len(a_frags) != self.group:
            raise ValueError(
                f"mma expects {self.group} cooperating lanes, "
                f"got {len(a_frags)}"
            )
        a = np.zeros((m, k), dtype=np.float32)
        b = np.zeros((k, n), dtype=np.float32)
        c = np.zeros((m, n), dtype=np.float32)
        for li in range(self.group):
            for r, val in enumerate(a_frags[li]):
                a[self.a_coord(li, r)] = val
            for r, val in enumerate(b_frags[li]):
                b[self.b_coord(li, r)] = val
            for r, val in enumerate(c_frags[li]):
                c[self.c_coord(li, r)] = val
        d = a @ b + c
        return [
            np.array([d[self.c_coord(li, r)] for r in range(len(c_frags[li]))],
                     dtype=np.float32)
            for li in range(self.group)
        ]


class WgmmaSemantics(MmaSemantics):
    """Dense compute of one Hopper ``wgmma.mma_async`` instruction.

    Unlike ``mma.sync``, the A and B operands are *shared-memory tiles*
    (descriptor-addressed on hardware), not register fragments — so this
    class has no a/b coordinate functions and computes from dense
    ``(m, k)`` / ``(k, n)`` matrices directly.  Only the fp32
    accumulator is register-resident, fragmented by
    :func:`repro.arch.fragments.wgmma_c_coord` over the 128 cooperating
    lanes.  ``in_dtype`` names the operand element format (``"f16"`` or
    ``"e4m3"``); math is fp32 either way, matching the tensor-core
    datapath's promote-on-load.
    """

    __slots__ = ("in_dtype",)

    def __init__(self, shape: Tuple[int, int, int], in_dtype: str):
        super().__init__(shape, None, None, frag.wgmma_c_coord, group=128)
        self.in_dtype = in_dtype

    def compute_from_tiles(
        self,
        a_mat: np.ndarray,
        b_mat: np.ndarray,
        c_frags: Sequence[np.ndarray],
    ) -> List[np.ndarray]:
        """``d = a @ b + c`` from dense smem tiles, refragmented.

        ``a_mat``/``b_mat`` are the ``(m, k)``/``(k, n)`` operand tiles;
        ``c_frags[li]`` lists lane ``li``'s accumulator registers.  The
        simulator and the emulator both call this — one np.matmul on
        the same fp32 arrays, so the two paths are bit-identical.
        """
        m, n, k = self.shape
        if a_mat.shape != (m, k) or b_mat.shape != (k, n):
            raise ValueError(
                f"wgmma m{m}n{n}k{k} operand tiles must be "
                f"({m},{k})/({k},{n}), got {a_mat.shape}/{b_mat.shape}"
            )
        if len(c_frags) != self.group:
            raise ValueError(
                f"wgmma expects {self.group} cooperating lanes, "
                f"got {len(c_frags)}"
            )
        c = np.zeros((m, n), dtype=np.float32)
        for li in range(self.group):
            for r, val in enumerate(c_frags[li]):
                c[self.c_coord(li, r)] = val
        d = a_mat.astype(np.float32) @ b_mat.astype(np.float32) + c
        return [
            np.array(
                [d[self.c_coord(li, r)] for r in range(len(c_frags[li]))],
                dtype=np.float32,
            )
            for li in range(self.group)
        ]


class TmaSemantics:
    """One TMA bulk tensor copy (``cp.async.bulk.tensor``).

    A single warpgroup-scope instruction moves a whole 2-D tile between
    global and shared memory through descriptor-based addressing; the
    copy is asynchronous and must be committed/awaited before the data
    is visible (the simulator models the commit/wait ledger in
    :class:`repro.sim.machine.Machine`).  ``copy_tile`` is the shared
    data movement both the simulator executor and the emulator run.
    """

    __slots__ = ("lanes",)

    def __init__(self):
        self.lanes = 128

    @staticmethod
    def copy_tile(src: np.ndarray, src_off: int, src_strides,
                  dst: np.ndarray, dst_off: int, dst_strides,
                  rows: int, cols: int) -> None:
        """Copy a ``rows x cols`` tile (pure data movement, bit-exact)."""
        s_i, s_j = src_strides
        d_i, d_j = dst_strides
        ii = np.arange(rows)[:, None]
        jj = np.arange(cols)[None, :]
        src_idx = src_off + ii * s_i + jj * s_j
        dst_idx = dst_off + ii * d_i + jj * d_j
        dst[dst_idx] = src[src_idx].astype(dst.dtype, copy=False)


def shfl_bfly(values: Sequence, xor_mask: int) -> List:
    """``shfl.sync.bfly``: position ``li`` receives ``values[li ^ mask]``.

    Peers beyond the group keep their own value, mirroring the
    simulator's behaviour for narrow groups.
    """
    out = []
    for li in range(len(values)):
        peer = li ^ xor_mask
        if peer >= len(values):
            peer = li
        out.append(values[peer])
    return out


def sparse24_expand(comp, comp_vals: np.ndarray,
                    meta_vals: np.ndarray) -> np.ndarray:
    """The dense tile (colex order) a 2:4-compressed ``comp`` tile expands to.

    ``comp_vals``/``meta_vals`` are the compressed values and metadata
    in colex order.  Metadata entry ``(i, 2g+h)`` names the column
    (0..3) that value ``h`` of group ``g`` occupies; per group the two
    indices must be distinct and ascending.  Pruned positions are zero.
    """
    m, half_k = tuple(it.flatten(comp.layout.shape))
    comp_mat = comp_vals.reshape((m, half_k), order="F")
    meta_mat = meta_vals.reshape((m, half_k), order="F").astype(np.int64)
    if np.any(meta_mat < 0) or np.any(meta_mat > 3):
        raise ValueError("2:4 metadata indices must be in 0..3")
    lo, hi = meta_mat[:, 0::2], meta_mat[:, 1::2]
    if np.any(lo >= hi):
        raise ValueError(
            "2:4 metadata must name two distinct ascending columns "
            "per group of four"
        )
    out = np.zeros((m, 2 * half_k), dtype=comp_mat.dtype)
    rows = np.arange(m)[:, None]
    groups = np.arange(half_k // 2)[None, :]
    out[rows, 4 * groups + lo] = comp_mat[:, 0::2]
    out[rows, 4 * groups + hi] = comp_mat[:, 1::2]
    return np.ravel(out, order="F")


def _ampere_mma() -> MmaSemantics:
    return MmaSemantics(
        frag.MMA_16816_SHAPE,
        frag.mma_16816_a_coord, frag.mma_16816_b_coord,
        frag.mma_16816_c_coord, group=32,
    )


def _volta_mma() -> MmaSemantics:
    return MmaSemantics(
        frag.MMA_884_SHAPE,
        frag.mma_884_a_coord, frag.mma_884_b_coord,
        frag.mma_884_c_coord, group=8,
    )


#: Exact emitted instruction string -> warp-level semantics.  Keys match
#: the ``instruction`` fields of the atomic tables (and therefore the
#: first token of every generated ``asm volatile`` template).
PTX_SEMANTICS: Dict[str, object] = {
    "mma.sync.aligned.m16n8k16.row.col.f32.f16.f16.f32": _ampere_mma(),
    "mma.sync.aligned.m8n8k4.row.col.f32.f16.f16.f32": _volta_mma(),
    "wgmma.mma_async.sync.aligned.m64n64k16.f32.f16.f16":
        WgmmaSemantics((64, 64, 16), "f16"),
    "wgmma.mma_async.sync.aligned.m64n64k32.f32.e4m3.e4m3":
        WgmmaSemantics((64, 64, 32), "e4m3"),
    "cp.async.bulk.tensor.2d.shared.global": TmaSemantics(),
}
for _num in (1, 2, 4):
    for _trans in (False, True):
        _suffix = ".trans" if _trans else ""
        PTX_SEMANTICS[
            f"ldmatrix.sync.aligned.m8n8.x{_num}{_suffix}.shared.b16"
        ] = LdmatrixSemantics(_num, _trans)


def semantics_for(instruction: str):
    """Look up semantics by instruction string (or its first token)."""
    mnemonic = instruction.split()[0] if instruction else instruction
    try:
        return PTX_SEMANTICS[mnemonic]
    except KeyError:
        raise KeyError(
            f"no shared PTX semantics for {instruction!r}; known: "
            f"{sorted(PTX_SEMANTICS)}"
        ) from None
