"""Simulator semantics for every atomic specification.

Each ``exec_*`` function implements one GPU instruction's behaviour on the
simulated machine: per-thread loads/stores, warp-collective ldmatrix data
movements, Tensor Core mma fragments, warp shuffles, and thread-local
compute.  The atomic tables in :mod:`repro.arch.volta` and
:mod:`repro.arch.ampere` bind these to the patterns of paper Table 2.

The warp-level data movement/compute itself is delegated to the shared
PTX semantics of :mod:`repro.arch.ptx`, which the conformance emulator
(:mod:`repro.codegen.emulator`) also executes — the simulator and the
generated-CUDA path cannot drift apart numerically.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..layout import inttuple as it
from ..sim.context import ExecCtx
from ..specs.base import (
    BinaryPointwise, Init, MatMul, Move, Reduction, Shfl, Spec,
    UnaryPointwise,
)
from . import fragments as frag
from . import ptx


# -- per-thread data movement ----------------------------------------------------
def exec_thread_move(spec: Move, ctx: ExecCtx) -> None:
    """Per-thread load/store/copy of the view's elements."""
    src, dst = spec.src, spec.dst
    for lane in ctx.lanes:
        env = ctx.lane_env(lane)
        if not ctx.active(env):
            continue
        ctx.write(dst, env, lane, ctx.read(src, env, lane))


# -- collective ldmatrix ------------------------------------------------------------
def make_exec_ldmatrix(num_matrices: int, trans: bool = False) -> Callable:
    """Build the executor for ``ldmatrix .x1/.x2/.x4`` (optionally .trans).

    Lanes ``8q..8q+7`` supply the addresses of rows ``0..7`` of matrix
    ``q`` (their src views must point at 8 contiguous fp16 values); every
    lane then receives two adjacent values per matrix into its
    destination tile ``q`` (paper Figures 1a/1b).  The ``.trans`` form
    distributes the transposed matrices, as used for B operands.
    """

    sem = ptx.LdmatrixSemantics(num_matrices, trans)

    def execute(spec: Move, ctx: ExecCtx) -> None:
        from ..sim.access import tile_views

        src, dst = spec.src, spec.dst
        lanes = ctx.lanes
        if len(lanes) != 32:
            raise ValueError("ldmatrix requires a full 32-lane warp")
        matrices = []
        for q in range(num_matrices):
            rows = []
            for row in range(8):
                lane = lanes[sem.source_lane(q, row)]
                env = ctx.lane_env(lane)
                rows.append(ctx.read(src, env, lane).reshape(8))
            matrices.append(np.stack(rows))
        dst_tiles = tile_views(dst)
        if len(dst_tiles) != num_matrices:
            raise ValueError(
                f"ldmatrix.x{num_matrices} destination must have "
                f"{num_matrices} tiles, got {len(dst_tiles)}"
            )
        received = sem.distribute(matrices)
        for li, lane in enumerate(lanes):
            env = ctx.lane_env(lane)
            for q, tile in enumerate(dst_tiles):
                ctx.write(tile, env, lane, received[li, q])

    return execute


# -- Tensor Core mma -------------------------------------------------------------------
def exec_mma_16816(spec: MatMul, ctx: ExecCtx) -> None:
    """Ampere ``mma.sync.aligned.m16n8k16.row.col.f32.f16.f16.f32``."""
    _exec_mma(
        spec, ctx,
        ptx.semantics_for("mma.sync.aligned.m16n8k16.row.col.f32.f16.f16.f32"),
    )


def exec_mma_884(spec: MatMul, ctx: ExecCtx) -> None:
    """Volta quad-pair ``mma.sync.aligned.m8n8k4.row.col.f32.f16.f16.f32``."""
    _exec_mma(
        spec, ctx,
        ptx.semantics_for("mma.sync.aligned.m8n8k4.row.col.f32.f16.f16.f32"),
    )


def _exec_mma(spec, ctx, sem: "ptx.MmaSemantics"):
    lanes = ctx.lanes
    if len(lanes) != sem.group:
        raise ValueError(
            f"mma expects {sem.group} cooperating lanes, got {len(lanes)}"
        )
    a_frags, b_frags, c_frags = [], [], []
    for lane in lanes:
        env = ctx.lane_env(lane)
        a_frags.append(ctx.read_frag(spec.a, env, lane))
        b_frags.append(ctx.read_frag(spec.b, env, lane))
        c_frags.append(ctx.read_frag(spec.c, env, lane))
    d_frags = sem.compute(a_frags, b_frags, c_frags)
    for li, lane in enumerate(lanes):
        env = ctx.lane_env(lane)
        ctx.write_frag(spec.c, env, lane, d_frags[li])


# -- Hopper warpgroup mma ---------------------------------------------------------------
def make_exec_wgmma(instruction: str) -> Callable:
    """Build the executor for a Hopper ``wgmma.mma_async`` instruction.

    All 128 lanes of the warpgroup cooperate; the A and B operands are
    shared-memory tiles read once for the whole group (the hardware
    streams them through descriptors, not the register file), and only
    the fp32 accumulator is a per-lane register fragment
    (:func:`repro.arch.fragments.wgmma_c_coord`).
    """

    sem = ptx.semantics_for(instruction)

    def execute(spec: MatMul, ctx: ExecCtx) -> None:
        lanes = ctx.lanes
        if len(lanes) != sem.group:
            raise ValueError(
                f"wgmma expects {sem.group} cooperating lanes, "
                f"got {len(lanes)}"
            )
        m, n, k = sem.shape
        lead = lanes[0]
        env = ctx.lane_env(lead)
        a_mat = ctx.read(spec.a, env, lead).reshape((m, k), order="F")
        b_mat = ctx.read(spec.b, env, lead).reshape((k, n), order="F")
        c_frags = [
            ctx.read_frag(spec.c, ctx.lane_env(lane), lane) for lane in lanes
        ]
        d_frags = sem.compute_from_tiles(a_mat, b_mat, c_frags)
        for li, lane in enumerate(lanes):
            ctx.write_frag(spec.c, ctx.lane_env(lane), lane, d_frags[li])

    return execute


# -- Hopper TMA bulk copy -----------------------------------------------------------------
def exec_tma_bulk_g2s(spec: Move, ctx: ExecCtx) -> None:
    """TMA ``cp.async.bulk.tensor``: one descriptor-driven tile copy.

    A single instruction issued by the warpgroup moves the whole tile
    global-to-shared, bypassing the register file.  The copy is
    *asynchronous*: it is committed against the machine's TMA ledger and
    only guaranteed visible after the next barrier drains it — reading
    the destination before that is a simulation error.
    """
    lanes = ctx.lanes
    lead = lanes[0]
    env = ctx.lane_env(lead)
    values = ctx.read(spec.src, env, lead, bulk=True)
    ctx.write(spec.dst, env, lead, values, bulk=True)
    ctx.machine.tma_commit(ctx.block_id)


# -- 2:4 structured-sparsity decompress ---------------------------------------------------
def exec_sparse24_decompress(spec: Spec, ctx: ExecCtx) -> None:
    """Expand a 2:4-compressed operand tile to dense in shared memory.

    ``inputs[0]`` is the compressed ``(m, k/2)`` fp16 tile, ``inputs[1]``
    the ``(m, k/2)`` metadata tile; ``outputs[0]`` receives the dense
    ``(m, k)`` tile (see :func:`sparse24_expand`).
    """
    comp, meta = spec.inputs
    lead = ctx.lanes[0]
    env = ctx.lane_env(lead)
    dense = sparse24_expand(comp, ctx.read(comp, env, lead),
                            ctx.read(meta, env, lead))
    ctx.write(spec.outputs[0], env, lead, dense)


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


# -- thread-local compute ------------------------------------------------------------
def exec_thread_matmul(spec: MatMul, ctx: ExecCtx) -> None:
    """Scalar/vector FMA: ``c[i] += a[i] * b[i]`` in fp32 math."""
    for lane in ctx.lanes:
        env = ctx.lane_env(lane)
        if not ctx.active(env):
            continue
        a = ctx.read(spec.a, env, lane).astype(np.float32)
        b = ctx.read(spec.b, env, lane).astype(np.float32)
        c = ctx.read(spec.c, env, lane).astype(np.float32)
        ctx.write(spec.c, env, lane, c + a * b)


def exec_thread_unary(spec: UnaryPointwise, ctx: ExecCtx) -> None:
    for lane in ctx.lanes:
        env = ctx.lane_env(lane)
        if not ctx.active(env):
            continue
        x = ctx.read(spec.inputs[0], env, lane).astype(np.float32)
        ctx.write(spec.outputs[0], env, lane, spec.op(x))


def exec_thread_binary(spec: BinaryPointwise, ctx: ExecCtx) -> None:
    for lane in ctx.lanes:
        env = ctx.lane_env(lane)
        if not ctx.active(env):
            continue
        x = ctx.read(spec.inputs[0], env, lane).astype(np.float32)
        y = ctx.read(spec.inputs[1], env, lane).astype(np.float32)
        ctx.write(spec.outputs[0], env, lane, spec.op(x, y))


def exec_thread_reduction(spec: Reduction, ctx: ExecCtx) -> None:
    """Sequentially reduce a register tensor along the spec's axes."""
    src = spec.inputs[0]
    shape = src.layout.shape
    dims = tuple(it.flatten(shape)) if shape != () else (1,)
    for lane in ctx.lanes:
        env = ctx.lane_env(lane)
        if not ctx.active(env):
            continue
        vals = ctx.read(src, env, lane).astype(np.float32)
        grid = vals.reshape(dims, order="F")
        ctx.write(spec.outputs[0], env, lane,
                  np.ravel(_fold(spec, grid), order="F"))


def _fold(spec: Reduction, grid: np.ndarray) -> np.ndarray:
    # Element-at-a-time on purpose: the generated CUDA reduces with a
    # strict sequential operator chain, and ufunc reduce (unrolled /
    # pairwise summation) rounds differently for fp32 sums past ~16
    # elements, breaking bit-agreement with the emulated text.
    out = None
    flattened = np.moveaxis(
        grid, spec.axes, tuple(range(len(spec.axes)))
    ).reshape(-1, *[s for i, s in enumerate(grid.shape) if i not in spec.axes])
    for slice_ in flattened:
        out = slice_ if out is None else spec.op(out, slice_)
    return out if out is not None else grid


def exec_thread_init(spec: Init, ctx: ExecCtx) -> None:
    out = spec.outputs[0]
    size = out.layout.size() if out.rank else 1
    for lane in ctx.lanes:
        env = ctx.lane_env(lane)
        if not ctx.active(env):
            continue
        ctx.write(out, env, lane, np.full(size, spec.value))


# -- warp shuffle -----------------------------------------------------------------------
def exec_shfl_bfly(spec: Shfl, ctx: ExecCtx) -> None:
    """``shfl.sync.bfly``: lane ``li`` receives from lane ``li ^ mask``."""
    src, dst = spec.inputs[0], spec.outputs[0]
    lanes = ctx.lanes
    values = []
    for lane in lanes:
        env = ctx.lane_env(lane)
        values.append(ctx.read(src, env, lane))
    shuffled = ptx.shfl_bfly(values, spec.xor_mask)
    for li, lane in enumerate(lanes):
        env = ctx.lane_env(lane)
        ctx.write(dst, env, lane, shuffled[li])
