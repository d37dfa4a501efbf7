"""Decomposition spaces for the remaining kernel families.

:mod:`repro.tuner.space` declares the three original spaces (GEMM,
layernorm, fused MLP); this module completes the roster so every
conformance family (:data:`repro.conformance.FAMILIES`) is tunable and
the fleet benchmark's roster sweep covers the whole kernel library.
Each space follows the same contract: enumerate candidates the
builder's own validity predicates accept, build IR at any problem
scale, and name the small verification shape at which the correctness
gate draws the family's problem from :mod:`repro.library.problems`
(the table the conformance harness draws from too).

Importing this module registers the spaces in
:data:`repro.tuner.space.SPACES`; :mod:`repro.tuner` imports it at
package load, so ``get_space`` sees all twelve families.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

from ..arch.gpu import Architecture
from ..kernels import build as build_kernel
from ..kernels.config import (
    FmhaConfig, GemmEpilogueConfig, LdmatrixMoveConfig, LstmConfig,
    NaiveGemmConfig, ParametricGemmConfig, SoftmaxConfig,
)
from ..specs.kernel import Kernel
from .space import (
    MAX_THREADS_PER_BLOCK, REGISTER_BUDGET, Candidate, ConfigSpace,
    GemmSpace, SPACES,
)


class SoftmaxSpace(ConfigSpace):
    """Row-wise softmax: one sequential thread per row; the block size
    trades occupancy against launch overhead."""

    family = "softmax"
    shape_keys = ("rows", "cols")

    THREADS_PER_BLOCK = (32, 64, 128, 256)

    def __init__(self, threads_per_block: Optional[Sequence[int]] = None):
        self.threads_per_block = tuple(
            threads_per_block or self.THREADS_PER_BLOCK)

    def candidates(self, shape, arch) -> Iterator[Candidate]:
        rows = shape["rows"]
        for tpb in self.threads_per_block:
            if rows % tpb or tpb > MAX_THREADS_PER_BLOCK:
                continue
            yield Candidate(self.family, threads_per_block=tpb)

    def default(self, shape, arch) -> Candidate:
        for tpb in sorted(self.threads_per_block, reverse=True):
            if shape["rows"] % tpb == 0:
                return Candidate(self.family, threads_per_block=tpb)
        raise ValueError(f"no softmax block size divides {shape['rows']} rows")

    def build(self, candidate, shape) -> Kernel:
        tpb = candidate.params["threads_per_block"]
        return build_kernel(SoftmaxConfig(
            shape["rows"], shape["cols"], threads_per_block=tpb,
            name=f"graphene_softmax_t{tpb}",
        ))

    def verification_shape(self, candidate, shape):
        return {"rows": candidate.params["threads_per_block"],
                "cols": min(shape["cols"], 32)}


class LstmSpace(ConfigSpace):
    """Fused LSTM-cell decompositions: the block tile shared by both
    accumulated GEMMs and the warp arrangement over it."""

    family = "lstm"
    shape_keys = ("m", "n", "k")

    BLOCK_TILES = ((32, 16, 16), (32, 32, 16), (64, 32, 16), (64, 64, 16),
                   (64, 64, 32), (128, 64, 32), (128, 128, 32))
    WARP_GRIDS = ((1, 1), (1, 2), (2, 1), (2, 2))

    def __init__(self,
                 block_tiles: Optional[Sequence[Tuple[int, int, int]]] = None,
                 warp_grids: Optional[Sequence[Tuple[int, int]]] = None):
        self.block_tiles = tuple(block_tiles or self.BLOCK_TILES)
        self.warp_grids = tuple(warp_grids or self.WARP_GRIDS)

    def _valid(self, m, n, k, block_tile, warp_grid, arch) -> bool:
        bm, bn, bk = block_tile
        wm, wn = warp_grid
        if m % bm or n % bn or k % bk:
            return False
        if bm % (wm * 16) or bn % (wn * 8) or bk % 16 or bn % 8:
            return False
        if wm * wn * 32 > MAX_THREADS_PER_BLOCK:
            return False
        if (bm * bk + bk * bn) * 2 > arch.smem_bytes_per_sm:
            return False
        mi, ni = (bm // wm) // 16, (bn // wn) // 8
        return mi * ni <= 64 and mi * ni * 4 + mi * 8 + ni * 4 <= REGISTER_BUDGET

    def candidates(self, shape, arch) -> Iterator[Candidate]:
        m, n, k = shape["m"], shape["n"], shape["k"]
        for block_tile in self.block_tiles:
            for warp_grid in self.warp_grids:
                if self._valid(m, n, k, block_tile, warp_grid, arch):
                    yield Candidate(self.family, block_tile=block_tile,
                                    warp_grid=warp_grid)

    def default(self, shape, arch) -> Candidate:
        cand = Candidate(self.family, block_tile=(128, 128, 32),
                         warp_grid=(2, 2))
        if self._valid(shape["m"], shape["n"], shape["k"],
                       (128, 128, 32), (2, 2), arch):
            return cand
        for fallback in self.candidates(shape, arch):
            return fallback
        raise ValueError(f"no legal LSTM configuration for shape {shape}")

    def build(self, candidate, shape) -> Kernel:
        bm, bn, bk = candidate.params["block_tile"]
        wm, wn = candidate.params["warp_grid"]
        return build_kernel(LstmConfig(
            shape["m"], shape["n"], shape["k"],
            block_tile=candidate.params["block_tile"],
            warp_grid=candidate.params["warp_grid"],
            name=f"graphene_lstm_{bm}x{bn}x{bk}_w{wm}x{wn}",
        ))

    def coarse_key(self, candidate):
        return ("block_tile", candidate.params["block_tile"])

    def verification_shape(self, candidate, shape):
        bm, bn, bk = candidate.params["block_tile"]
        return {"m": bm, "n": bn, "k": 2 * bk}


class FmhaSpace(ConfigSpace):
    """Fused multi-head attention: the K/V streaming chunk trades the
    staging buffer's footprint against the number of chunk round-trips
    (the query tile is pinned at 16 by the single-warp decomposition)."""

    family = "fmha"
    shape_keys = ("batch_heads", "seq", "head_dim")

    KV_CHUNKS = (16, 32, 64, 128)
    Q_TILE = 16

    def __init__(self, kv_chunks: Optional[Sequence[int]] = None):
        self.kv_chunks = tuple(kv_chunks or self.KV_CHUNKS)

    def _valid(self, seq, head_dim, kv_chunk, arch) -> bool:
        if seq % kv_chunk or kv_chunk % 16 or head_dim % 16:
            return False
        smem = (self.Q_TILE * head_dim * 2 + kv_chunk * head_dim * 2
                + self.Q_TILE * seq * 4 + self.Q_TILE * seq * 2)
        return smem <= arch.smem_bytes_per_sm

    def candidates(self, shape, arch) -> Iterator[Candidate]:
        seq, head_dim = shape["seq"], shape["head_dim"]
        for kv_chunk in self.kv_chunks:
            if self._valid(seq, head_dim, kv_chunk, arch):
                yield Candidate(self.family, kv_chunk=kv_chunk)

    def default(self, shape, arch) -> Candidate:
        if self._valid(shape["seq"], shape["head_dim"], 64, arch):
            return Candidate(self.family, kv_chunk=64)
        for fallback in self.candidates(shape, arch):
            return fallback
        raise ValueError(f"no legal FMHA configuration for shape {shape}")

    def build(self, candidate, shape) -> Kernel:
        kv_chunk = candidate.params["kv_chunk"]
        return build_kernel(FmhaConfig(
            shape["batch_heads"], shape["seq"], shape["head_dim"],
            q_tile=self.Q_TILE, kv_chunk=kv_chunk,
            name=f"graphene_fmha_kv{kv_chunk}",
        ))

    def verification_shape(self, candidate, shape):
        kv_chunk = candidate.params["kv_chunk"]
        return {"batch_heads": 1,
                "seq": min(shape["seq"], 2 * kv_chunk),
                "head_dim": min(shape["head_dim"], 32)}


class NaiveGemmSpace(ConfigSpace):
    """Figure 8 GEMM: 2-D block tile x 2-D thread arrangement, each
    thread walking K with scalar FMAs over a register tile.

    The knob is the per-block tile (the grid is derived as
    ``(m / block_m, n / block_n)``) so a cached winner transfers across
    problem sizes — an absolute grid would name a different tiling at
    every shape and never seed a neighbour.
    """

    family = "gemm_naive"
    shape_keys = ("m", "n", "k")

    BLOCKS = ((32, 32), (64, 32), (64, 64), (128, 64), (128, 128))
    THREADS = ((2, 2), (4, 4), (4, 8), (8, 4), (8, 8))

    def __init__(self, blocks: Optional[Sequence[Tuple[int, int]]] = None,
                 threads: Optional[Sequence[Tuple[int, int]]] = None):
        self.blocks = tuple(blocks or self.BLOCKS)
        self.threads = tuple(threads or self.THREADS)

    def _valid(self, m, n, block, threads) -> bool:
        bm, bn = block
        tm, tn = threads
        if m % bm or n % bn:
            return False
        if bm % tm or bn % tn:
            return False
        if tm * tn > MAX_THREADS_PER_BLOCK:
            return False
        # Per-thread C tile lives in registers.
        return (bm // tm) * (bn // tn) <= 64

    def candidates(self, shape, arch) -> Iterator[Candidate]:
        m, n = shape["m"], shape["n"]
        for block in self.blocks:
            for threads in self.threads:
                if self._valid(m, n, block, threads):
                    yield Candidate(self.family, block=block, threads=threads)

    def default(self, shape, arch) -> Candidate:
        if self._valid(shape["m"], shape["n"], (64, 64), (8, 8)):
            return Candidate(self.family, block=(64, 64), threads=(8, 8))
        for fallback in self.candidates(shape, arch):
            return fallback
        raise ValueError(f"no legal naive-GEMM configuration for {shape}")

    def build(self, candidate, shape) -> Kernel:
        bm, bn = candidate.params["block"]
        return build_kernel(NaiveGemmConfig(
            shape["m"], shape["n"], shape["k"],
            grid=(shape["m"] // bm, shape["n"] // bn),
            threads=candidate.params["threads"],
        ))

    def coarse_key(self, candidate):
        return ("block", candidate.params["block"])

    def verification_shape(self, candidate, shape):
        bm, bn = candidate.params["block"]
        # A single block (grid 1x1) keeps the lockstep run tiny.
        return {"m": bm, "n": bn, "k": min(shape["k"], 8)}


class ParametricGemmSpace(ConfigSpace):
    """Symbolic-M GEMM (Section 3.4): row-tile and thread count over the
    predicated decomposition.  ``m`` in the tuning shape is the
    *expected* row count the grid is provisioned for; launches bind the
    actual ``M`` at run time."""

    family = "gemm_parametric"
    shape_keys = ("m", "n", "k")

    ROW_TILES = (8, 16, 32)
    THREADS = (32, 64, 128)

    def __init__(self, row_tiles: Optional[Sequence[int]] = None,
                 threads: Optional[Sequence[int]] = None):
        self.row_tiles = tuple(row_tiles or self.ROW_TILES)
        self.threads = tuple(threads or self.THREADS)

    def candidates(self, shape, arch) -> Iterator[Candidate]:
        n = shape["n"]
        for row_tile in self.row_tiles:
            for threads in self.threads:
                if n % threads or threads > MAX_THREADS_PER_BLOCK:
                    continue
                yield Candidate(self.family, row_tile=row_tile,
                                threads=threads)

    def default(self, shape, arch) -> Candidate:
        for threads in (128, 64, 32):
            if shape["n"] % threads == 0:
                return Candidate(self.family, row_tile=32, threads=threads)
        raise ValueError(f"no legal parametric-GEMM configuration for {shape}")

    @staticmethod
    def _grid_rows(m: int, row_tile: int) -> int:
        return max(1, -(-m // row_tile))

    def build(self, candidate, shape) -> Kernel:
        row_tile = candidate.params["row_tile"]
        return build_kernel(ParametricGemmConfig(
            shape["n"], shape["k"], row_tile=row_tile,
            max_grid_rows=self._grid_rows(shape["m"], row_tile),
            threads=candidate.params["threads"],
        ))

    def coarse_key(self, candidate):
        return ("row_tile", candidate.params["row_tile"])

    def verification_shape(self, candidate, shape):
        row_tile = candidate.params["row_tile"]
        threads = candidate.params["threads"]
        # A ragged M (not a multiple of the row tile) exercises the
        # guards on every partial tile; ``rows`` is the allocation the
        # launch grid covers.
        m = row_tile + max(1, row_tile // 2)
        return {"m": m, "n": threads, "k": min(shape["k"], 16),
                "rows": self._grid_rows(m, row_tile) * row_tile}

    def verification_symbols(self, candidate, vshape):
        return {"M": vshape["m"]}


class GemmEpilogueSpace(ConfigSpace):
    """Fused ``C = relu(A @ B + bias)``: the GEMM block-tile/warp-grid
    space with the pointwise epilogue applied to the accumulator views
    (Ampere path; the epilogue builder fixes staging to unswizzled
    single-stage, so those axes are absent here)."""

    family = "gemm_epilogue"
    shape_keys = ("m", "n", "k")

    def __init__(self,
                 block_tiles: Optional[Sequence[Tuple[int, int, int]]] = None,
                 warp_grids: Optional[Sequence[Tuple[int, int]]] = None):
        self._gemm = GemmSpace(block_tiles, warp_grids,
                               swizzles=(False,), stage_counts=(1,))

    def candidates(self, shape, arch) -> Iterator[Candidate]:
        if not arch.supports("cp_async"):
            return
        for base in self._gemm._ampere_candidates(shape, arch):
            yield Candidate(self.family,
                            block_tile=base.params["block_tile"],
                            warp_grid=base.params["warp_grid"])

    def default(self, shape, arch) -> Candidate:
        m, n, k = shape["m"], shape["n"], shape["k"]
        if arch.supports("cp_async") and self._gemm._ampere_valid(
                m, n, k, (128, 128, 32), (2, 2), 1, arch):
            return Candidate(self.family, block_tile=(128, 128, 32),
                             warp_grid=(2, 2))
        for fallback in self.candidates(shape, arch):
            return fallback
        raise ValueError(
            f"no legal GEMM-epilogue configuration for shape {shape}")

    def build(self, candidate, shape) -> Kernel:
        return build_kernel(GemmEpilogueConfig(
            shape["m"], shape["n"], shape["k"], arch="ampere",
            block_tile=candidate.params["block_tile"],
            warp_grid=candidate.params["warp_grid"],
        ))

    def coarse_key(self, candidate):
        return ("block_tile", candidate.params["block_tile"])

    def verification_shape(self, candidate, shape):
        bm, bn, bk = candidate.params["block_tile"]
        return {"m": bm, "n": bn, "k": 2 * bk}


class MovesSpace(ConfigSpace):
    """The ldmatrix data-movement microkernel.  Its decomposition is
    fixed by the instruction (a warp loading four 8x8 fragments), so
    the space is a single point — kept so the roster sweep and
    the fleet differential tests cover every conformance family."""

    family = "moves"
    shape_keys = ()

    def candidates(self, shape, arch) -> Iterator[Candidate]:
        yield Candidate(self.family, variant="ldmatrix_x4")

    def default(self, shape, arch) -> Candidate:
        return Candidate(self.family, variant="ldmatrix_x4")

    def build(self, candidate, shape) -> Kernel:
        return build_kernel(LdmatrixMoveConfig())

    def verification_shape(self, candidate, shape):
        return {}


SPACES.update({
    SoftmaxSpace.family: SoftmaxSpace,
    LstmSpace.family: LstmSpace,
    FmhaSpace.family: FmhaSpace,
    NaiveGemmSpace.family: NaiveGemmSpace,
    ParametricGemmSpace.family: ParametricGemmSpace,
    GemmEpilogueSpace.family: GemmEpilogueSpace,
    MovesSpace.family: MovesSpace,
})
