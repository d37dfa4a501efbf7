"""Declarative configuration spaces per kernel family.

The paper positions optimized kernels as *points in a decomposition
space* (Section 1): block/warp/thread tilings, shared-memory swizzles
and pipeline stage counts.  A :class:`ConfigSpace` makes one family's
space explicit — it enumerates :class:`Candidate` configurations,
prunes illegal tilings *before* IR construction with the kernels' own
validity predicates (:func:`repro.kernels.gemm_optimized.validate_gemm_config`),
builds the kernel IR for any candidate at any problem scale, and poses
the small-shape numpy verification problem the correctness gate runs.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..arch.gpu import Architecture
from ..kernels.gemm_optimized import (
    build_ampere_tc_gemm, build_ampere_tc_gemm_pipelined,
    build_volta_tc_gemm, validate_gemm_config,
)
from ..kernels.config import LayernormConfig
from ..kernels.hopper import (
    WG_K_F16, WG_K_FP8, WG_M, WG_N, build_hopper_fp8_gemm,
    build_hopper_sparse24_gemm, validate_hopper_gemm_config,
)
from ..kernels.layernorm import build as build_layernorm_cfg
from ..kernels.mlp import build_fused_mlp
from ..layout.linear import (
    LinearLayoutError, prove_conflict_free, synthesize_bank_swizzle,
)
from ..layout.swizzle import IDENTITY_SWIZZLE, Swizzle
from ..specs.kernel import Kernel

#: CUDA's hard per-block thread limit.
MAX_THREADS_PER_BLOCK = 1024
#: Per-thread fp32 register budget available to accumulators+fragments
#: (256 architectural registers minus addressing/staging temporaries).
REGISTER_BUDGET = 224


class Candidate:
    """One point of a family's decomposition space."""

    __slots__ = ("family", "params")

    def __init__(self, family: str, **params):
        self.family = family
        self.params = params

    @property
    def label(self) -> str:
        parts = []
        for key in sorted(self.params):
            value = self.params[key]
            if isinstance(value, (tuple, list)):
                value = "x".join(str(v) for v in value)
            elif isinstance(value, bool):
                value = "on" if value else "off"
            parts.append(f"{key}={value}")
        return " ".join(parts)

    def json_params(self) -> Dict:
        """JSON-serialisable copy of the parameters (for the cache)."""
        return {k: list(v) if isinstance(v, tuple) else v
                for k, v in self.params.items()}

    def _key(self):
        return (self.family, tuple(sorted(self.params.items())))

    def __eq__(self, other):
        return isinstance(other, Candidate) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"Candidate({self.family}: {self.label})"


class ConfigSpace:
    """Base interface every kernel family's space implements."""

    family: str = ""
    shape_keys: Tuple[str, ...] = ()
    dtype: str = "fp16"

    def validate_shape(self, shape: Dict[str, int]) -> Dict[str, int]:
        missing = [k for k in self.shape_keys if shape.get(k) is None]
        if missing:
            raise ValueError(
                f"{self.family} tuning needs shape keys {missing} "
                f"(got {sorted(k for k, v in shape.items() if v is not None)})"
            )
        return {k: int(shape[k]) for k in self.shape_keys}

    def candidates(self, shape: Dict[str, int],
                   arch: Architecture) -> Iterator[Candidate]:
        raise NotImplementedError

    def default(self, shape: Dict[str, int],
                arch: Architecture) -> Candidate:
        """The hand-written configuration the repo's kernels default to."""
        raise NotImplementedError

    def build(self, candidate: Candidate, shape: Dict[str, int]) -> Kernel:
        raise NotImplementedError

    def launches(self, candidate: Candidate, shape: Dict[str, int]) -> int:
        """Sequential kernel launches one candidate needs (fusion depth)."""
        return 1

    def coarse_key(self, candidate: Candidate):
        """Grouping key for the pruned-beam search's first stage."""
        return candidate.label

    def candidate_from_params(self, params: Dict) -> Candidate:
        restored = {
            k: tuple(v) if isinstance(v, list) else v
            for k, v in params.items()
        }
        return Candidate(self.family, **restored)

    # -- correctness-gate problem --------------------------------------------
    def verification_shape(self, candidate: Candidate,
                           shape: Dict[str, int]) -> Dict[str, int]:
        """A small problem this candidate legally tiles."""
        raise NotImplementedError

    def verification_problem(self, candidate: Candidate,
                             vshape: Dict[str, int], seed: int):
        """Returns ``(bindings, checks)`` for one simulator run.

        ``bindings`` are the numpy arrays the kernel launches over;
        ``checks`` is a list of ``(output_name, reference, tolerance)``.
        Every family draws from its generator in the problem table
        (:mod:`repro.library.problems`) at ``vshape``.
        """
        # Imported on first use: ``import repro.tuner`` loads no module
        # beyond the ones it needs.
        from ..library.problems import problem

        return problem(self.family, np.random.default_rng(seed), **vshape)

    def verification_symbols(self, candidate: Candidate,
                             vshape: Dict[str, int]) -> Optional[Dict[str, int]]:
        """Symbol bindings the verification launch needs (parametric
        kernels bind their symbolic dimensions here); ``None`` for the
        fully static families."""
        return None


def swizzle_for_row(row_elems: int) -> Optional[Swizzle]:
    """Bank-spreading XOR swizzle for fp16 rows of ``row_elems`` values.

    *Synthesized, not searched*: delegates to
    :func:`repro.layout.linear.synthesize_bank_swizzle`, which solves
    for the cheapest CuTe ``Swizzle<bits, 3, shift>`` whose bank-group
    matrix has full rank over F2 — the certificate that every ldmatrix
    wavefront touches all eight bank groups.  (The earlier closed-form
    guess ``shift = log2(rows) - 3`` sourced its XOR field from *inside*
    the 128-byte wavefront for 16/32-element rows, provably leaving
    rank deficient — the simulator measured those "swizzled" layouts at
    the same conflict count as naive row-major.)  Returns ``None`` when
    rows are not a power of two or the identity layout is already
    conflict-free.
    """
    return synthesize_bank_swizzle(row_elems)


def certified_conflict_free(row_elems: int) -> bool:
    """True when the synthesized (or identity) swizzle for these rows
    carries the full-rank no-bank-conflict certificate."""
    try:
        swizzle = synthesize_bank_swizzle(row_elems) or IDENTITY_SWIZZLE
        return prove_conflict_free(row_elems, swizzle)
    except LinearLayoutError:
        return False


class GemmSpace(ConfigSpace):
    """``C = A @ B`` Tensor Core GEMM decompositions.

    Ampere candidates vary the block tile, the warp arrangement, the
    staging-buffer swizzle and the pipeline stage count; Volta
    candidates vary the warp grid and quad-pair tiling.  Note the
    roofline oracle assumes perfect copy/math overlap, so 2-stage
    pipelining ties its 1-stage twin under the model — it is kept in
    the space because its shared-memory footprint (and therefore its
    feasibility) differs.
    """

    family = "gemm"
    shape_keys = ("m", "n", "k")

    AMPERE_BLOCK_TILES = tuple(
        (bm, bn, bk)
        for bm in (64, 128, 256)
        for bn in (64, 128, 256)
        for bk in (16, 32, 64)
    )
    AMPERE_WARP_GRIDS = ((1, 1), (1, 2), (2, 1), (2, 2), (2, 4), (4, 2),
                         (4, 4))
    VOLTA_WARP_GRIDS = ((1, 1), (2, 2), (2, 4), (4, 2), (4, 4))
    VOLTA_QP_TILES = ((1, 1), (1, 2), (2, 1), (2, 2))
    VOLTA_BKS = (16, 32)

    def __init__(
        self,
        block_tiles: Optional[Sequence[Tuple[int, int, int]]] = None,
        warp_grids: Optional[Sequence[Tuple[int, int]]] = None,
        # Swizzled first: beam search judges a coarse group by its first
        # member, which must be the optimistic (conflict-free) variant.
        # The default "auto" halves the space: when the F2 rank
        # certificate proves the synthesized swizzle conflict-free for
        # a tile's staging rows there is nothing to search — the
        # unswizzled variant is dominated by construction — so only the
        # swizzled candidate is enumerated; tiles without a certificate
        # fall back to searching both.
        swizzles: Sequence = ("auto",),
        stage_counts: Sequence[int] = (1, 2),
    ):
        self.block_tiles = tuple(block_tiles) if block_tiles else None
        self.warp_grids = tuple(warp_grids) if warp_grids else None
        self.swizzles = tuple(swizzles)
        self.stage_counts = tuple(stage_counts)

    # -- enumeration ------------------------------------------------------------
    def candidates(self, shape, arch) -> Iterator[Candidate]:
        # Capability split, not a name check: cp.async staging is what
        # the Ampere-style decomposition needs (Hopper inherits it).
        if arch.supports("cp_async"):
            yield from self._ampere_candidates(shape, arch)
        else:
            yield from self._volta_candidates(shape, arch)

    def _ampere_candidates(self, shape, arch) -> Iterator[Candidate]:
        m, n, k = shape["m"], shape["n"], shape["k"]
        tiles = self.block_tiles or self.AMPERE_BLOCK_TILES
        grids = self.warp_grids or self.AMPERE_WARP_GRIDS
        for block_tile in tiles:
            for warp_grid in grids:
                for stages in self.stage_counts:
                    if not self._ampere_valid(m, n, k, block_tile,
                                              warp_grid, stages, arch):
                        continue
                    for swizzle in self._swizzle_axis(block_tile):
                        yield Candidate(
                            self.family, block_tile=block_tile,
                            warp_grid=warp_grid, swizzle=swizzle,
                            stages=stages,
                        )

    def _swizzle_axis(self, block_tile) -> Tuple[bool, ...]:
        """The swizzle choices actually worth enumerating for a tile."""
        axis: List[bool] = []
        for choice in self.swizzles:
            if choice == "auto":
                _, bn, bk = block_tile
                if certified_conflict_free(bk) and \
                        certified_conflict_free(bn):
                    expanded = (True,)
                else:
                    expanded = (True, False)
            else:
                expanded = (choice,)
            for value in expanded:
                if value not in axis:
                    axis.append(value)
        return tuple(axis)

    def _ampere_valid(self, m, n, k, block_tile, warp_grid, stages,
                      arch) -> bool:
        try:
            validate_gemm_config(m, n, k, block_tile, warp_grid,
                                 stages=stages)
        except ValueError:
            return False
        bm, bn, bk = block_tile
        wm, wn = warp_grid
        threads = wm * wn * 32
        if threads > MAX_THREADS_PER_BLOCK:
            return False
        if bk % 8 or bn % 8:  # vectorized 8-element staging rows
            return False
        smem = stages * (bm * bk + bk * bn) * 2
        if smem > arch.smem_bytes_per_sm:
            return False
        mi, ni = (bm // wm) // 16, (bn // wn) // 8
        regs = mi * ni * 4 + mi * 8 + ni * 4
        return mi * ni <= 64 and regs <= REGISTER_BUDGET

    def _volta_candidates(self, shape, arch) -> Iterator[Candidate]:
        m, n, k = shape["m"], shape["n"], shape["k"]
        grids = self.warp_grids or self.VOLTA_WARP_GRIDS
        for warp_grid in grids:
            wm, wn = warp_grid
            for qp_tile in self.VOLTA_QP_TILES:
                tm, tn = qp_tile
                for bk in self.VOLTA_BKS:
                    block_tile = (wm * 16 * tm, wn * 16 * tn, bk)
                    if self.block_tiles and block_tile not in self.block_tiles:
                        continue
                    if not self._volta_valid(m, n, k, block_tile, warp_grid,
                                             qp_tile, arch):
                        continue
                    yield Candidate(
                        self.family, block_tile=block_tile,
                        warp_grid=warp_grid, qp_tile=qp_tile,
                    )

    def _volta_valid(self, m, n, k, block_tile, warp_grid, qp_tile,
                     arch) -> bool:
        try:
            validate_gemm_config(m, n, k, block_tile, warp_grid,
                                 qp_tile=qp_tile)
        except ValueError:
            return False
        bm, bn, bk = block_tile
        wm, wn = warp_grid
        if wm * wn * 32 > MAX_THREADS_PER_BLOCK:
            return False
        if bk % 8 or bn % 8:
            return False
        if (bm * bk + bk * bn) * 2 > arch.smem_bytes_per_sm:
            return False
        tm, tn = qp_tile
        return tm * tn * 8 + tm * 4 + tn * 4 <= REGISTER_BUDGET

    # -- construction -----------------------------------------------------------
    def default(self, shape, arch) -> Candidate:
        m, n, k = shape["m"], shape["n"], shape["k"]
        if arch.supports("cp_async"):
            cand = Candidate(self.family, block_tile=(128, 128, 32),
                             warp_grid=(2, 2), swizzle=False, stages=1)
            ok = self._ampere_valid(m, n, k, (128, 128, 32), (2, 2), 1, arch)
        else:
            cand = Candidate(self.family, block_tile=(128, 128, 32),
                             warp_grid=(4, 4), qp_tile=(2, 2))
            ok = self._volta_valid(m, n, k, (128, 128, 32), (4, 4), (2, 2),
                                   arch)
        if ok:
            return cand
        for fallback in self.candidates(shape, arch):
            return fallback
        raise ValueError(
            f"no legal GEMM configuration for shape {shape} on {arch.name}"
        )

    def build(self, candidate, shape) -> Kernel:
        m, n, k = shape["m"], shape["n"], shape["k"]
        params = candidate.params
        if "qp_tile" in params:
            return build_volta_tc_gemm(
                m, n, k, block_tile=params["block_tile"],
                warp_grid=params["warp_grid"], qp_tile=params["qp_tile"],
            )
        bm, bn, bk = params["block_tile"]
        if params.get("swizzle"):
            swizzle_a = swizzle_for_row(bk) or IDENTITY_SWIZZLE
            swizzle_b = swizzle_for_row(bn) or IDENTITY_SWIZZLE
        else:
            swizzle_a = swizzle_b = IDENTITY_SWIZZLE
        if params.get("stages", 1) == 2:
            return build_ampere_tc_gemm_pipelined(
                m, n, k, block_tile=params["block_tile"],
                warp_grid=params["warp_grid"],
                swizzle_a=swizzle_a, swizzle_b=swizzle_b,
            )
        return build_ampere_tc_gemm(
            m, n, k, block_tile=params["block_tile"],
            warp_grid=params["warp_grid"],
            swizzle_a=swizzle_a, swizzle_b=swizzle_b,
        )

    def coarse_key(self, candidate):
        return ("block_tile", candidate.params["block_tile"])

    # -- correctness gate --------------------------------------------------------
    def verification_shape(self, candidate, shape):
        bm, bn, bk = candidate.params["block_tile"]
        return {"m": bm, "n": bn, "k": 2 * bk}


class LayernormSpace(ConfigSpace):
    """Row-normalisation decompositions: warp-per-row lanes combining
    partials with butterfly shuffles vs one sequential thread per row,
    each over a rows-per-block sweep."""

    family = "layernorm"
    shape_keys = ("rows", "hidden")

    WARPS_PER_BLOCK = (1, 2, 4, 8)

    def __init__(self, warps_per_block: Optional[Sequence[int]] = None,
                 modes: Sequence[bool] = (True, False)):
        self.warps_per_block = tuple(warps_per_block or self.WARPS_PER_BLOCK)
        self.modes = tuple(modes)

    def candidates(self, shape, arch) -> Iterator[Candidate]:
        rows, hidden = shape["rows"], shape["hidden"]
        for warp_per_row in self.modes:
            for wpb in self.warps_per_block:
                if warp_per_row:
                    # one warp per row: lanes hold hidden/32-value chunks
                    if hidden % 32 or rows % wpb:
                        continue
                else:
                    if rows % (wpb * 32):
                        continue
                yield Candidate(self.family, warp_per_row=warp_per_row,
                                warps_per_block=wpb)

    def default(self, shape, arch) -> Candidate:
        return Candidate(self.family, warp_per_row=True, warps_per_block=4)

    def build(self, candidate, shape) -> Kernel:
        mode = "wpr" if candidate.params["warp_per_row"] else "tpr"
        wpb = candidate.params["warps_per_block"]
        return build_layernorm_cfg(LayernormConfig(
            shape["rows"], shape["hidden"],
            warps_per_block=wpb,
            warp_per_row=candidate.params["warp_per_row"],
            name=f"graphene_layernorm_{mode}_w{wpb}",
        ))

    def coarse_key(self, candidate):
        return ("warp_per_row", candidate.params["warp_per_row"])

    def verification_shape(self, candidate, shape):
        wpb = candidate.params["warps_per_block"]
        rows_quantum = wpb if candidate.params["warp_per_row"] else wpb * 32
        return {"rows": 2 * rows_quantum, "hidden": shape["hidden"]}


class MlpSpace(ConfigSpace):
    """Fused-MLP decompositions: activation block rows, warp arrangement
    and *fusion depth* — how many GEMM+bias+act layers one kernel keeps
    resident in shared memory.  Depth-``d`` candidates cost
    ``layers/d`` sequential launches of the ``d``-layer kernel."""

    family = "mlp"
    shape_keys = ("m", "hidden", "layers")

    BLOCK_ROWS = (32, 64, 128)
    WARP_GRIDS = ((1, 1), (1, 2), (2, 1), (2, 2), (4, 2))

    def __init__(self, block_rows: Optional[Sequence[int]] = None,
                 warp_grids: Optional[Sequence[Tuple[int, int]]] = None,
                 depths: Optional[Sequence[int]] = None):
        self.block_rows = tuple(block_rows or self.BLOCK_ROWS)
        self.warp_grids = tuple(warp_grids or self.WARP_GRIDS)
        self.depths = tuple(depths) if depths else None

    def _depths(self, layers: int) -> List[int]:
        if self.depths is not None:
            return [d for d in self.depths if layers % d == 0]
        return [d for d in range(1, layers + 1) if layers % d == 0]

    def candidates(self, shape, arch) -> Iterator[Candidate]:
        m, hidden, layers = shape["m"], shape["hidden"], shape["layers"]
        if hidden % 16:
            return
        for block_rows in self.block_rows:
            if m % block_rows:
                continue
            smem = (block_rows * hidden + hidden * hidden) * 2
            if smem > arch.smem_bytes_per_sm:
                continue
            for warp_grid in self.warp_grids:
                wm, wn = warp_grid
                if block_rows % (wm * 16) or hidden % (wn * 8) or hidden % 8:
                    continue
                if wm * wn * 32 > MAX_THREADS_PER_BLOCK:
                    continue
                mi = block_rows // (wm * 16)
                ni = hidden // (wn * 8)
                if mi * ni > 64 or mi * ni * 4 + mi * 8 + ni * 4 > REGISTER_BUDGET:
                    continue
                for depth in self._depths(layers):
                    yield Candidate(self.family, block_rows=block_rows,
                                    warp_grid=warp_grid, depth=depth)

    def default(self, shape, arch) -> Candidate:
        return Candidate(self.family, block_rows=128, warp_grid=(2, 2),
                         depth=shape["layers"])

    def launches(self, candidate, shape) -> int:
        return shape["layers"] // candidate.params["depth"]

    def build(self, candidate, shape) -> Kernel:
        # One kernel fuses `depth` layers; verification shapes may carry
        # fewer total layers than the tuned depth.
        depth = min(candidate.params["depth"], shape["layers"])
        return build_fused_mlp(
            shape["m"], shape["hidden"], depth,
            block_rows=candidate.params["block_rows"],
            warp_grid=candidate.params["warp_grid"],
            name=f"graphene_fused_mlp_d{depth}",
        )

    def coarse_key(self, candidate):
        return ("rows_depth", candidate.params["block_rows"],
                candidate.params["depth"])

    def verification_shape(self, candidate, shape):
        # Verifying two fused layers exercises the smem ping-pong; the
        # per-layer decomposition is depth-independent.
        return {
            "m": candidate.params["block_rows"],
            "hidden": shape["hidden"],
            "layers": min(candidate.params["depth"], 2),
        }


class HopperFp8GemmSpace(ConfigSpace):
    """Hopper fp8 warpgroup GEMM decompositions.

    The wgmma instruction shape is fixed (m64n64k32), so the space
    varies the TMA staging depth ``block_k`` and whether the kernel
    runs the 2x-accumulation recipe (a zeroed partial tile folded into
    the running fp32 accumulator per K-slice).  Candidates only exist
    on architectures carrying the ``wgmma`` + ``fp8`` capabilities.
    """

    family = "gemm_fp8"
    shape_keys = ("m", "n", "k")
    dtype = "fp8e4m3"

    BLOCK_KS = (32, 64, 128)

    def __init__(self, block_ks: Optional[Sequence[int]] = None,
                 acc_modes: Sequence[bool] = (True, False)):
        self.block_ks = tuple(block_ks or self.BLOCK_KS)
        self.acc_modes = tuple(acc_modes)

    def candidates(self, shape, arch) -> Iterator[Candidate]:
        if not (arch.supports("wgmma") and arch.supports("fp8")):
            return
        m, n, k = shape["m"], shape["n"], shape["k"]
        for block_k in self.block_ks:
            try:
                validate_hopper_gemm_config(m, n, k, block_k, WG_K_FP8)
            except ValueError:
                continue
            smem = (WG_M * block_k + block_k * WG_N) * 2
            if smem > arch.smem_bytes_per_sm:
                continue
            for two_stage in self.acc_modes:
                yield Candidate(self.family, block_k=block_k,
                                two_stage_acc=two_stage)

    def default(self, shape, arch) -> Candidate:
        for block_k in (64, 32):
            try:
                validate_hopper_gemm_config(
                    shape["m"], shape["n"], shape["k"], block_k, WG_K_FP8)
            except ValueError:
                continue
            return Candidate(self.family, block_k=block_k,
                             two_stage_acc=True)
        raise ValueError(
            f"no legal fp8 warpgroup GEMM configuration for shape {shape}"
        )

    def build(self, candidate, shape) -> Kernel:
        return build_hopper_fp8_gemm(
            shape["m"], shape["n"], shape["k"],
            block_k=candidate.params["block_k"],
            two_stage_acc=candidate.params["two_stage_acc"],
        )

    def coarse_key(self, candidate):
        return ("block_k", candidate.params["block_k"])

    def verification_shape(self, candidate, shape):
        return {"m": WG_M, "n": WG_N,
                "k": 2 * candidate.params["block_k"]}


class Sparse24GemmSpace(ConfigSpace):
    """Hopper 2:4 structured-sparse GEMM decompositions.

    Varies the TMA staging depth of the compressed operand; the
    decompress-to-shared + f16 wgmma pipeline is otherwise fixed.
    """

    family = "gemm_sparse24"
    shape_keys = ("m", "n", "k")

    BLOCK_KS = (16, 32, 64)

    def __init__(self, block_ks: Optional[Sequence[int]] = None):
        self.block_ks = tuple(block_ks or self.BLOCK_KS)

    def candidates(self, shape, arch) -> Iterator[Candidate]:
        if not arch.supports("sparse_24"):
            return
        m, n, k = shape["m"], shape["n"], shape["k"]
        for block_k in self.block_ks:
            try:
                validate_hopper_gemm_config(m, n, k, block_k, WG_K_F16,
                                            sparse=True)
            except ValueError:
                continue
            smem = (WG_M * block_k // 2) * (2 + 4) \
                + (WG_M * block_k + block_k * WG_N) * 2
            if smem > arch.smem_bytes_per_sm:
                continue
            yield Candidate(self.family, block_k=block_k)

    def default(self, shape, arch) -> Candidate:
        for block_k in (32, 16):
            try:
                validate_hopper_gemm_config(
                    shape["m"], shape["n"], shape["k"], block_k, WG_K_F16,
                    sparse=True)
            except ValueError:
                continue
            return Candidate(self.family, block_k=block_k)
        raise ValueError(
            f"no legal 2:4-sparse GEMM configuration for shape {shape}"
        )

    def build(self, candidate, shape) -> Kernel:
        return build_hopper_sparse24_gemm(
            shape["m"], shape["n"], shape["k"],
            block_k=candidate.params["block_k"],
        )

    def coarse_key(self, candidate):
        return ("block_k", candidate.params["block_k"])

    def verification_shape(self, candidate, shape):
        return {"m": WG_M, "n": WG_N,
                "k": 2 * candidate.params["block_k"]}


SPACES = {
    GemmSpace.family: GemmSpace,
    LayernormSpace.family: LayernormSpace,
    MlpSpace.family: MlpSpace,
    HopperFp8GemmSpace.family: HopperFp8GemmSpace,
    Sparse24GemmSpace.family: Sparse24GemmSpace,
}


def get_space(family: str, **kwargs) -> ConfigSpace:
    try:
        cls = SPACES[family]
    except KeyError:
        raise ValueError(
            f"unknown kernel family {family!r}; available: {sorted(SPACES)}"
        ) from None
    return cls(**kwargs)
