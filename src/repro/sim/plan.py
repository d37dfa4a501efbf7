"""Compiled launch plans: the vectorized simulator execution engine.

The reference interpreter (:mod:`repro.sim.interp`, ``engine="reference"``)
re-walks the statement tree once per block and re-evaluates layout index
expressions per lane and per element in pure Python.  Graphene layouts
are affine integer-tuple maps, so the full data-to-thread mapping of
each spec can instead be *compiled once* into numpy index arrays and
executed as batched gathers/scatters across all lanes of a spec at once.

The plan layer sits under ``Simulator.run``:

* :class:`LaunchPlan` lowers a kernel's decomposition tree into a
  replayable node tree with pre-compiled loop bounds, predicate splits
  and per-spec :class:`_SpecPlan` executors.
* :class:`ViewPlan` precomputes each tensor view's ``(lane, element) ->
  flat offset`` index array (and guard mask).  Arrays are cached keyed
  on the values of the view's free variables: loop-invariant views are
  hoisted to a single entry reused across iterations *and* blocks;
  loop-dependent views get one entry per binding.
* Replay is block-batched: blocks are independent, so one compiled plan
  replays across the whole grid, with every cross-block-invariant index
  array computed exactly once.
* Profiler counters, sanitizer access streams and the shared-memory
  bank model are fed from the same index arrays (in bulk, and — for the
  order-sensitive sanitizer — in the reference engine's exact per-lane
  emission order), so ``RunResult.machine/profile/sanitizer`` outputs
  are bit-identical to the reference interpreter.

Atomics without a vectorized runner fall back to the scalar executor
through :class:`~repro.sim.context.ExecCtx`, with register-file state
flushed/reloaded around the call.
"""

from __future__ import annotations

import hashlib
import io
import pickle
import sys
import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..arch import fragments as frag
from ..arch import ptx
from ..ir.stmt import Barrier, Block, Comment, ForLoop, If, SpecStmt
from ..layout import inttuple as it
from ..layout.linear import LinearLayoutError, to_linear
from ..specs.atomic import match_atomic
from ..specs.base import Allocate, Init, Move
from ..tensor.memspace import GL, RF, SH
from ..tensor.tensor import Tensor, Tile
from .access import accessor, compile_expr, tile_views
from .context import ExecCtx
from .errors import SimulationError

#: Per-view cap on cached (offsets, mask) entries; loop-variant views
#: with more distinct bindings than this recompute after a cache clear.
VIEW_CACHE_ENTRIES = 512

#: Per-spec cap on cached profiler charge deltas (see _Replay.exec_spec);
#: an overflow clears the cache and the next executions re-measure.
CHARGE_CACHE_ENTRIES = 256


class ViewPlan:
    """Precomputed ``(lane, element) -> offset`` arrays for one view.

    ``offsets_mask(env)`` returns the physical element offsets of every
    lane of the owning group as one ``(lanes, elements)`` int64 array
    (post-swizzle, colex element order) plus the guard mask (or None).
    Results are cached keyed on the values of the view's free variables
    other than ``threadIdx.x`` — an empty key means the view is fully
    loop- and block-invariant and is computed exactly once per plan.
    """

    __slots__ = (
        "tensor", "size", "itemsize", "is_gl", "is_sh", "is_rf",
        "lane_arr", "_base", "_rel", "_swizzle", "_guards", "_key_vars",
        "_cache",
    )

    def __init__(self, tensor, lanes):
        acc = accessor(tensor)
        self.tensor = tensor
        self.size = acc.size
        self.itemsize = tensor.dtype.bytes
        self.is_gl = tensor.mem == GL
        self.is_sh = tensor.mem == SH
        self.is_rf = tensor.mem == RF
        self.lane_arr = np.asarray(lanes, dtype=np.int64)
        self._base = acc._base
        self._rel = np.asarray(acc._rel, dtype=np.int64)
        sw = tensor.swizzle
        self._swizzle = None if sw.is_identity() else sw
        names = set(tensor.offset.free_vars())
        guards = []
        if tensor.guards is not None:
            for guard in tensor.guards:
                if guard is not None:
                    names |= guard.origin.free_vars()
                    names |= guard.extent.free_vars()
        for origin, extent, dim_coords in acc._guards:
            guards.append(
                (origin, extent, np.asarray(dim_coords, dtype=np.int64))
            )
        self._guards = guards
        names.discard("threadIdx.x")
        self._key_vars = tuple(sorted(names))
        self._cache: Dict[tuple, tuple] = {}

    def offsets_mask(self, env: dict):
        key = tuple(env[v] for v in self._key_vars)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        lenv = dict(env)
        lenv["threadIdx.x"] = self.lane_arr
        nlanes = self.lane_arr.shape[0]
        base = np.asarray(self._base(lenv), dtype=np.int64)
        if base.ndim == 0:
            base = np.broadcast_to(base, (nlanes,))
        offs = base[:, None] + self._rel[None, :]
        if self._swizzle is not None:
            offs = self._swizzle(offs)
        mask = None
        for origin, extent, coords in self._guards:
            lo = np.asarray(origin(lenv), dtype=np.int64)
            limit = np.asarray(extent(lenv), dtype=np.int64)
            if lo.ndim:
                lo = lo[:, None]
            if limit.ndim:
                limit = limit[:, None]
            ok = (lo + coords[None, :]) < limit
            mask = ok if mask is None else (mask & ok)
        offs = np.ascontiguousarray(offs)
        offs.setflags(write=False)
        if mask is not None:
            mask = np.ascontiguousarray(np.broadcast_to(mask, offs.shape))
            mask.setflags(write=False)
        if len(self._cache) >= VIEW_CACHE_ENTRIES:
            self._cache.clear()
        entry = (offs, mask)
        self._cache[key] = entry
        return entry


class GroupPlan:
    """One lane group of a spec: its lanes and per-view plans."""

    __slots__ = ("lanes", "lane_arr", "nlanes", "_views", "_lead")

    def __init__(self, lanes):
        self.lanes = list(lanes)
        self.lane_arr = np.asarray(self.lanes, dtype=np.int64)
        self.nlanes = len(self.lanes)
        self._views: Dict[int, ViewPlan] = {}
        self._lead: Optional["GroupPlan"] = None

    @property
    def lead(self) -> "GroupPlan":
        """The group's first lane alone: it issues the operations a
        collective performs once for the whole group (warpgroup
        shared-tile reads, TMA copies), so their views hold one row."""
        if self._lead is None:
            self._lead = GroupPlan(self.lanes[:1])
        return self._lead

    def view(self, tensor) -> ViewPlan:
        vp = self._views.get(id(tensor))
        if vp is None or vp.tensor is not tensor:
            vp = ViewPlan(tensor, self.lanes)
            self._views[id(tensor)] = vp
        return vp


class _RegFile:
    """Batched per-block register-file storage for one replay.

    The reference engine keeps one numpy array per ``(block, thread,
    name)``; gathering across lanes then costs a Python loop.  During a
    vectorized replay each register buffer is staged as one
    ``(nthreads, capacity)`` array indexed by absolute lane id, and
    :meth:`flush` materialises the per-thread ``machine._regs`` entries
    (sized exactly as the reference engine would have sized them) at
    block end or before a scalar-fallback spec.
    """

    __slots__ = ("_machine", "_bid", "_nthreads", "_arrays", "_maxreq",
                 "_touched")

    def __init__(self, machine, bid: int, nthreads: int):
        self._machine = machine
        self._bid = bid
        self._nthreads = nthreads
        self._arrays: Dict[str, np.ndarray] = {}
        self._maxreq: Dict[str, np.ndarray] = {}
        self._touched: Dict[str, np.ndarray] = {}

    def require(self, name: str, dtype, lane_ids: np.ndarray,
                per_row_min: np.ndarray) -> np.ndarray:
        arr = self._arrays.get(name)
        need = int(per_row_min.max())
        if arr is None:
            declared = self._machine._declared.get(name)
            width = max(need, declared[1] if declared else 0)
            np_dtype = (declared[0] if declared else dtype).np_dtype
            arr = np.zeros((self._nthreads, max(width, 1)), dtype=np_dtype)
            self._arrays[name] = arr
            self._maxreq[name] = np.zeros(self._nthreads, dtype=np.int64)
            self._touched[name] = np.zeros(self._nthreads, dtype=bool)
        elif arr.shape[1] < need:
            grown = np.zeros((self._nthreads, need), dtype=arr.dtype)
            grown[:, : arr.shape[1]] = arr
            self._arrays[name] = grown
            arr = grown
        np.maximum.at(self._maxreq[name], lane_ids, per_row_min)
        self._touched[name][lane_ids] = True
        return arr

    def flush(self) -> None:
        """Materialise staged registers into ``machine._regs``."""
        regs = self._machine._regs
        declared = self._machine._declared
        for name, arr in self._arrays.items():
            maxreq = self._maxreq[name]
            decl = declared.get(name)
            dsize = decl[1] if decl else 0
            for t in np.flatnonzero(self._touched[name]):
                t = int(t)
                size = max(dsize, int(maxreq[t]))
                regs[(self._bid, t, name)] = arr[t, :size].copy()

    def reload(self) -> None:
        """Pull ``machine._regs`` back into staging (post scalar fallback)."""
        for (block, t, name), buf in self._machine._regs.items():
            if block != self._bid:
                continue
            arr = self._arrays.get(name)
            if arr is None:
                arr = np.zeros((self._nthreads, max(buf.size, 1)),
                               dtype=buf.dtype)
                self._arrays[name] = arr
                self._maxreq[name] = np.zeros(self._nthreads, dtype=np.int64)
                self._touched[name] = np.zeros(self._nthreads, dtype=bool)
            elif arr.shape[1] < buf.size:
                grown = np.zeros((self._nthreads, buf.size), dtype=arr.dtype)
                grown[:, : arr.shape[1]] = arr
                self._arrays[name] = grown
                arr = grown
            arr[t, : buf.size] = buf
            self._maxreq[name][t] = max(int(self._maxreq[name][t]), buf.size)
            self._touched[name][t] = True


# -- compiled statement nodes --------------------------------------------------
class _Seq:
    __slots__ = ("items",)

    def __init__(self, items):
        self.items = tuple(items)

    def execute(self, run, env, preds):
        for node in self.items:
            node.execute(run, env, preds)


class _Loop:
    __slots__ = ("start", "stop", "step", "name", "body")

    def __init__(self, start, stop, step, name, body):
        self.start = start
        self.stop = stop
        self.step = step
        self.name = name
        self.body = body

    def execute(self, run, env, preds):
        for value in range(self.start(env), self.stop(env), self.step(env)):
            env[self.name] = value
            self.body.execute(run, env, preds)
        env.pop(self.name, None)


class _If:
    __slots__ = ("uniform", "varying", "then", "orelse")

    def __init__(self, uniform, varying, then, orelse):
        self.uniform = tuple(uniform)
        self.varying = tuple(varying)
        self.then = then
        self.orelse = orelse

    def execute(self, run, env, preds):
        if self.varying and self.orelse is not None:
            raise SimulationError(
                "If with thread-dependent predicates cannot carry an "
                "else branch: lanes diverge individually, so no "
                "uniform branch decision exists (emit a second If "
                "guarded by the complement predicate instead)"
            )
        if all(lhs(env) < rhs(env) for lhs, rhs in self.uniform):
            self.then.execute(run, env, preds + self.varying)
        elif self.orelse is not None:
            self.orelse.execute(run, env, preds)


class _Bar:
    __slots__ = ("scope",)

    def __init__(self, scope):
        self.scope = scope

    def execute(self, run, env, preds):
        if run.san is not None:
            divergent = 0
            if preds:
                act = run.block_active(env, preds)
                divergent = int(act.size - int(act.sum()))
            run.san.barrier(self.scope, divergent)
        if run.prof is not None:
            run.prof.barrier(self.scope)
        run.machine.tma_drain(run.bid)


class _SpecNode:
    __slots__ = ("sp",)

    def __init__(self, sp):
        self.sp = sp

    def execute(self, run, env, preds):
        run.exec_spec(self.sp, env, preds)


# -- per-spec plans ------------------------------------------------------------
def _lane_groups(spec, nthreads: int) -> List[List[int]]:
    """Which lane sets execute this spec (mirrors the reference engine)."""
    group = spec.thread_group()
    if group is None or group.rank == 0:
        return [list(range(nthreads))]
    base = group.base
    base_value = base.evaluate({}) if base.free_vars() == frozenset() else None
    if base_value is None:
        raise SimulationError(
            f"thread group base of {spec!r} must be constant"
        )
    if group.is_tiled():
        inner = group.element.layout
        groups = []
        for g in range(group.layout.size()):
            start = base_value + group.layout(g)
            groups.append([start + inner(i) for i in range(inner.size())])
        return groups
    layout = group.layout
    return [[base_value + layout(i) for i in range(layout.size())]]


def _view_size(view) -> int:
    return view.layout.size() if view.rank else 1


class _MmaAux:
    """Precomputed fragment-to-matrix flat index maps for one mma spec.

    The fragment coordinate functions are pure, so the scatter/gather
    indices of every lane's registers are computed once here; execution
    is then three bulk scatters, one ``a @ b + c``, and one gather.
    A warpgroup mma reads A and B as whole shared-memory tiles, so its
    semantics have no A/B coordinates and only C gets a map.
    """

    __slots__ = ("sem", "a_tiles", "b_tiles", "c_tiles", "a_idx", "b_idx",
                 "c_idx", "c_sizes")

    def __init__(self, spec, sem):
        self.sem = sem
        self.a_tiles = tile_views(spec.a)
        self.b_tiles = tile_views(spec.b)
        self.c_tiles = tile_views(spec.c)
        m, n, k = sem.shape

        def index_map(tiles, coord, ncols):
            if coord is None:
                return None
            width = sum(_view_size(v) for v in tiles)
            idx = np.empty((sem.group, width), dtype=np.int64)
            for li in range(sem.group):
                for r in range(width):
                    i, j = coord(li, r)
                    idx[li, r] = i * ncols + j
            return idx

        self.a_idx = index_map(self.a_tiles, sem.a_coord, k)
        self.b_idx = index_map(self.b_tiles, sem.b_coord, n)
        self.c_idx = index_map(self.c_tiles, sem.c_coord, n)
        self.c_sizes = [_view_size(v) for v in self.c_tiles]


class _LdmatrixAux:
    """Precomputed source-lane ordering and distribution indices."""

    __slots__ = ("sem", "num", "src_rows", "recv_idx", "dst_tiles")

    def __init__(self, spec, sem):
        self.sem = sem
        self.num = sem.num
        self.src_rows = np.asarray(
            [sem.source_lane(q, row)
             for q in range(sem.num) for row in range(8)],
            dtype=np.int64,
        )
        recv = np.empty((32, sem.num, 2), dtype=np.int64)
        for li in range(32):
            for q in range(sem.num):
                for j in (0, 1):
                    r, c = frag.ldmatrix_dst_coords(li, q, j)
                    if sem.trans:
                        r, c = c, r
                    recv[li, q, j] = q * 64 + r * 8 + c
        self.recv_idx = recv
        self.dst_tiles = tile_views(spec.dst)


class _SpecPlan:
    """One leaf spec, matched and bound to a vectorized runner."""

    __slots__ = ("spec", "atomic", "label", "groups", "runner", "aux",
                 "charge_cache")

    def __init__(self, spec, plan: "LaunchPlan"):
        atomic = match_atomic(spec, plan.arch.atomics)
        self.spec = spec
        self.atomic = atomic
        label = f"{spec.kind}:{atomic.name}"
        if spec.label:
            label += f"[{spec.label}]"
        self.label = label
        self.groups = [
            GroupPlan(lanes) for lanes in _lane_groups(spec, plan.nthreads)
        ]
        self.runner, self.aux = _select_runner(spec, atomic)
        #: (group, stream-identity) -> (counter delta, keepalive refs);
        #: see _Replay.exec_spec.
        self.charge_cache: dict = {}


# -- vectorized runners --------------------------------------------------------
def _run_move(run, sp, gp, env, preds):
    rows = run.active_rows(gp, env, preds)
    if rows.size == 0:
        return
    spec = sp.spec
    vals, read_ent = run.read_bulk(gp.view(spec.src), env, rows)
    write_ent = run.write_bulk(gp.view(spec.dst), env, rows, vals)
    run.emit(gp, rows, (read_ent, write_ent))


def _run_fma(run, sp, gp, env, preds):
    rows = run.active_rows(gp, env, preds)
    if rows.size == 0:
        return
    spec = sp.spec
    a, a_ent = run.read_bulk(gp.view(spec.a), env, rows)
    b, b_ent = run.read_bulk(gp.view(spec.b), env, rows)
    c, c_ent = run.read_bulk(gp.view(spec.c), env, rows)
    out = c.astype(np.float32) + a.astype(np.float32) * b.astype(np.float32)
    write_ent = run.write_bulk(gp.view(spec.c), env, rows, out)
    run.emit(gp, rows, (a_ent, b_ent, c_ent, write_ent))


def _run_unary(run, sp, gp, env, preds):
    rows = run.active_rows(gp, env, preds)
    if rows.size == 0:
        return
    spec = sp.spec
    x, x_ent = run.read_bulk(gp.view(spec.inputs[0]), env, rows)
    out = spec.op(x.astype(np.float32))
    write_ent = run.write_bulk(gp.view(spec.outputs[0]), env, rows, out)
    run.emit(gp, rows, (x_ent, write_ent))


def _run_binary(run, sp, gp, env, preds):
    rows = run.active_rows(gp, env, preds)
    if rows.size == 0:
        return
    spec = sp.spec
    x, x_ent = run.read_bulk(gp.view(spec.inputs[0]), env, rows)
    y, y_ent = run.read_bulk(gp.view(spec.inputs[1]), env, rows)
    out = spec.op(x.astype(np.float32), y.astype(np.float32))
    write_ent = run.write_bulk(gp.view(spec.outputs[0]), env, rows, out)
    run.emit(gp, rows, (x_ent, y_ent, write_ent))


def _run_reduction(run, sp, gp, env, preds):
    rows = run.active_rows(gp, env, preds)
    if rows.size == 0:
        return
    spec = sp.spec
    src = spec.inputs[0]
    shape = src.layout.shape
    dims = tuple(it.flatten(shape)) if shape != () else (1,)
    vals, read_ent = run.read_bulk(gp.view(src), env, rows)
    nrows = rows.size
    # Per-lane Fortran-order reshape with the lane axis appended last:
    # the spec's axis numbering is unchanged (negative axes resolved
    # against the laneless rank first), and the sequential fold below
    # applies the op in the reference engine's exact element order per
    # lane (ufunc reduce would round fp32 sums differently).
    grid = vals.astype(np.float32).T.reshape(dims + (nrows,), order="F")
    axes = tuple(a % len(dims) for a in spec.axes)
    rest = [s for i, s in enumerate(grid.shape) if i not in axes]
    flattened = np.moveaxis(grid, axes, tuple(range(len(axes)))).reshape(
        -1, *rest
    )
    out = None
    for slice_ in flattened:
        out = slice_ if out is None else spec.op(out, slice_)
    if out is None:
        out = grid
    per_lane = out.reshape(-1, nrows, order="F")
    write_ent = run.write_bulk(gp.view(spec.outputs[0]), env, rows,
                               per_lane.T)
    run.emit(gp, rows, (read_ent, write_ent))


def _run_init(run, sp, gp, env, preds):
    rows = run.active_rows(gp, env, preds)
    if rows.size == 0:
        return
    spec = sp.spec
    out_view = spec.outputs[0]
    size = _view_size(out_view)
    values = np.broadcast_to(np.full(size, spec.value), (rows.size, size))
    write_ent = run.write_bulk(gp.view(out_view), env, rows, values)
    run.emit(gp, rows, (write_ent,))


def _run_shfl(run, sp, gp, env, preds):
    # Warp collectives execute for every lane regardless of predicates,
    # matching the reference executor.
    spec = sp.spec
    rows = run.all_rows(gp)
    vals, read_ent = run.read_bulk(gp.view(spec.inputs[0]), env, rows)
    perm = rows ^ spec.xor_mask
    np.copyto(perm, rows, where=perm >= gp.nlanes)
    write_ent = run.write_bulk(gp.view(spec.outputs[0]), env, rows,
                               vals[perm])
    run.emit(gp, rows, (read_ent,))
    run.emit(gp, rows, (write_ent,))


def _run_mma(run, sp, gp, env, preds):
    aux = sp.aux
    sem = aux.sem
    if gp.nlanes != sem.group:
        raise ValueError(
            f"mma expects {sem.group} cooperating lanes, got {gp.nlanes}"
        )
    rows = run.all_rows(gp)
    read_entries = []
    a_vals = _gather_tiles(run, gp, env, aux.a_tiles, rows, read_entries)
    b_vals = _gather_tiles(run, gp, env, aux.b_tiles, rows, read_entries)
    c_vals = _gather_tiles(run, gp, env, aux.c_tiles, rows, read_entries)
    m, n, k = sem.shape
    a = np.zeros(m * k, dtype=np.float32)
    b = np.zeros(k * n, dtype=np.float32)
    c = np.zeros(m * n, dtype=np.float32)
    a[aux.a_idx] = a_vals
    b[aux.b_idx] = b_vals
    c[aux.c_idx] = c_vals
    d = a.reshape(m, k) @ b.reshape(k, n) + c.reshape(m, n)
    write_entries = _scatter_c(run, gp, env, aux, rows,
                               d.reshape(-1)[aux.c_idx])
    run.emit(gp, rows, read_entries)
    run.emit(gp, rows, write_entries)


def _run_ldmatrix(run, sp, gp, env, preds):
    aux = sp.aux
    spec = sp.spec
    if gp.nlanes != 32:
        raise ValueError("ldmatrix requires a full 32-lane warp")
    # Gather only the address-supplying lanes, in (matrix, row) order —
    # the reference read order, which the sanitizer feed must follow.
    vals, read_ent = run.read_bulk(gp.view(spec.src), env, aux.src_rows)
    run.emit_entry_order(gp, read_ent)
    matrices = vals.reshape(aux.num * 8, 8)
    if len(aux.dst_tiles) != aux.num:
        raise ValueError(
            f"ldmatrix.x{aux.num} destination must have "
            f"{aux.num} tiles, got {len(aux.dst_tiles)}"
        )
    received = matrices.reshape(-1)[aux.recv_idx]
    rows = run.all_rows(gp)
    write_entries = []
    for q, tile in enumerate(aux.dst_tiles):
        write_entries.append(
            run.write_bulk(gp.view(tile), env, rows, received[:, q, :])
        )
    run.emit(gp, rows, write_entries)


def _gather_tiles(run, gp, env, tiles, rows, entries):
    """Gather ``rows`` lanes' fragment over ``tiles``, tile-major."""
    parts = []
    for view in tiles:
        vals, ent = run.read_bulk(gp.view(view), env, rows)
        entries.append(ent)
        parts.append(vals)
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


def _scatter_c(run, gp, env, aux, rows, d_vals):
    """Scatter ``rows`` lanes' result fragment into C, tile-major."""
    entries = []
    pos = 0
    for view, size in zip(aux.c_tiles, aux.c_sizes):
        entries.append(run.write_bulk(gp.view(view), env, rows,
                                      d_vals[:, pos:pos + size]))
        pos += size
    return entries


def _run_wgmma(run, sp, gp, env, preds):
    aux = sp.aux
    sem = aux.sem
    if gp.nlanes != sem.group:
        raise ValueError(
            f"wgmma expects {sem.group} cooperating lanes, got {gp.nlanes}"
        )
    spec = sp.spec
    m, n, k = sem.shape
    lead = gp.lead
    lead_rows = run.all_rows(lead)
    a, a_ent = run.read_bulk(lead.view(spec.a), env, lead_rows)
    b, b_ent = run.read_bulk(lead.view(spec.b), env, lead_rows)
    rows = run.all_rows(gp)
    read_entries = []
    c_vals = _gather_tiles(run, gp, env, aux.c_tiles, rows, read_entries)
    c = np.zeros(m * n, dtype=np.float32)
    c[aux.c_idx] = c_vals
    d = (a[0].reshape((m, k), order="F").astype(np.float32)
         @ b[0].reshape((k, n), order="F").astype(np.float32)
         + c.reshape(m, n))
    write_entries = _scatter_c(run, gp, env, aux, rows,
                               d.reshape(-1)[aux.c_idx])
    run.emit(gp, lead_rows, (a_ent, b_ent))
    run.emit(gp, rows, read_entries)
    run.emit(gp, rows, write_entries)


def _run_tma(run, sp, gp, env, preds):
    # One descriptor-driven tile copy issued by the lead lane, booked as
    # bulk traffic (no shared-memory bank path) and committed against
    # the block's TMA ledger until the next barrier drains it.
    spec = sp.spec
    lead = gp.lead
    rows = run.all_rows(lead)
    vals, read_ent = run.read_bulk(lead.view(spec.src), env, rows,
                                   bulk=True)
    write_ent = run.write_bulk(lead.view(spec.dst), env, rows, vals,
                               bulk=True)
    run.emit(gp, rows, (read_ent, write_ent))
    run.tma_commit()


def _run_sparse24(run, sp, gp, env, preds):
    from ..arch.instructions import sparse24_expand

    spec = sp.spec
    comp, meta = spec.inputs
    lead = gp.lead
    rows = run.all_rows(lead)
    comp_vals, comp_ent = run.read_bulk(lead.view(comp), env, rows)
    meta_vals, meta_ent = run.read_bulk(lead.view(meta), env, rows)
    dense = sparse24_expand(comp, comp_vals[0], meta_vals[0])
    write_ent = run.write_bulk(lead.view(spec.outputs[0]), env, rows,
                               dense[None, :])
    run.emit(gp, rows, (comp_ent, meta_ent, write_ent))


#: Scalar executor -> vectorized runner, built lazily because
#: :mod:`repro.arch.instructions` itself imports :mod:`repro.sim` (this
#: package) for :class:`ExecCtx` and is mid-initialization when this
#: module first loads.
_VEC_RUNNERS: Optional[dict] = None
_MMA_SEMANTICS: Optional[dict] = None


def _runner_tables():
    global _VEC_RUNNERS, _MMA_SEMANTICS
    if _VEC_RUNNERS is None:
        from ..arch import instructions as X

        _VEC_RUNNERS = {
            X.exec_thread_move: _run_move,
            X.exec_thread_matmul: _run_fma,
            X.exec_thread_unary: _run_unary,
            X.exec_thread_binary: _run_binary,
            X.exec_thread_reduction: _run_reduction,
            X.exec_thread_init: _run_init,
            X.exec_shfl_bfly: _run_shfl,
            X.exec_tma_bulk_g2s: _run_tma,
            X.exec_sparse24_decompress: _run_sparse24,
        }
        _MMA_SEMANTICS = {
            X.exec_mma_16816:
                "mma.sync.aligned.m16n8k16.row.col.f32.f16.f16.f32",
            X.exec_mma_884:
                "mma.sync.aligned.m8n8k4.row.col.f32.f16.f16.f32",
        }
    return _VEC_RUNNERS, _MMA_SEMANTICS


def _select_runner(spec, atomic):
    """Pick the vectorized runner for an atomic, or None for fallback."""
    execute = atomic.execute
    if execute is None:
        return None, None
    runners, mma_semantics = _runner_tables()
    if execute in mma_semantics:
        return _run_mma, _MmaAux(spec, ptx.semantics_for(
            mma_semantics[execute]))
    runner = runners.get(execute)
    if runner is _run_move and (spec.src.buffer == spec.dst.buffer
                                and spec.src.mem == spec.dst.mem):
        # Source and destination may alias across lanes; the scalar
        # per-lane read/write interleaving is the defined order.
        return None, None
    if runner is not None:
        return runner, None
    instruction = atomic.instruction or ""
    if instruction.startswith("wgmma."):
        return _run_wgmma, _MmaAux(spec, ptx.semantics_for(instruction))
    if instruction.startswith("ldmatrix.sync.aligned.m8n8"):
        return _run_ldmatrix, _LdmatrixAux(
            spec, ptx.semantics_for(instruction))
    return None, None


# -- replay engine -------------------------------------------------------------
def _charge_key(gi, pending):
    """Identity key for one group execution's queued observer stream.

    The profiler counter delta of an execution is a pure function of
    its record stream, which is in turn fully determined by the
    immutable *source* offset/mask arrays (the ViewPlan cache entries
    the runner selected from — row selection is deterministic given
    the row set's content) and the row sets themselves.  Source arrays
    are keyed by id() — sound only because the cache entry keeps them
    alive (:func:`_charge_refs`), so a matching id always names the
    same object.  Row sets are tiny and keyed by content, making the
    key stable across blocks and loop iterations.
    """
    parts = [gi]
    for entry_order, master_rows, entries in pending:
        parts.append(entry_order)
        parts.append(None if master_rows is None else master_rows.tobytes())
        for entry in entries:
            if entry is None:
                # A fully-guarded-out write: contributes no records,
                # so it cannot change the delta regardless of source.
                parts.append(None)
                continue
            tensor, kind, _offs_sel, _mask_sel, rows, offs, mask = entry
            parts.append((id(tensor), kind, id(offs),
                          0 if mask is None else id(mask),
                          rows.tobytes()))
    return tuple(parts)


def _charge_refs(pending):
    """Strong refs to every id()-keyed array of a cached charge key."""
    refs = []
    for _order, _rows, entries in pending:
        for entry in entries:
            if entry is not None:
                refs.append((entry[5], entry[6]))
    return refs


#: Emission-entry kind -> the access kind the sanitizer sees (TMA bulk
#: traffic is an ordinary read/write to it; only the profiler tells
#: them apart).
_SANITIZER_KIND = {"read": "read", "write": "write",
                   "bulk_read": "read", "bulk_write": "write"}


class _Replay:
    """Mutable per-block state while replaying one compiled plan."""

    __slots__ = ("plan", "machine", "san", "prof", "bid", "regfile",
                 "all_lanes", "_aranges", "_pending", "_trace")

    def __init__(self, plan, machine, san, prof, bid):
        self.plan = plan
        self.machine = machine
        self.san = san
        self.prof = prof
        self.bid = bid
        self.regfile = _RegFile(machine, bid, plan.nthreads)
        self.all_lanes = np.arange(plan.nthreads, dtype=np.int64)
        self._aranges: Dict[int, np.ndarray] = {}
        self._pending: Optional[list] = None
        #: Optional trace recorder (:mod:`repro.sim.trace`) capturing
        #: resolved leaf executions during an observers-off replay.
        self._trace = None

    # -- predicates ------------------------------------------------------------
    def all_rows(self, gp) -> np.ndarray:
        """The identity row set ``0..nlanes-1`` (cached, read-only).

        ``read_bulk``/``write_bulk`` recognise these exact objects and
        skip the row-gather; callers with permuted or filtered row sets
        (ldmatrix sources, predicated lanes) build their own arrays and
        take the general path.
        """
        arr = self._aranges.get(gp.nlanes)
        if arr is None:
            arr = np.arange(gp.nlanes)
            arr.setflags(write=False)
            self._aranges[gp.nlanes] = arr
        return arr

    def _active(self, lane_arr, env, preds):
        lenv = dict(env)
        lenv["threadIdx.x"] = lane_arr
        act = None
        for lhs, rhs in preds:
            ok = np.asarray(lhs(lenv) < rhs(lenv))
            if ok.ndim == 0:
                ok = np.broadcast_to(ok, lane_arr.shape)
            act = ok if act is None else (act & ok)
        return act

    def active_rows(self, gp, env, preds):
        if not preds:
            rows = self.all_rows(gp)
        else:
            rows = np.flatnonzero(self._active(gp.lane_arr, env, preds))
        if self._trace is not None:
            self._trace.on_rows(rows)
        return rows

    def block_active(self, env, preds):
        return self._active(self.all_lanes, env, preds)

    def tma_commit(self):
        self.machine.tma_commit(self.bid)

    # -- spec dispatch ---------------------------------------------------------
    def exec_spec(self, sp, env, preds):
        atomic = sp.atomic
        if atomic.execute is None:
            raise SimulationError(
                f"atomic spec {atomic.name} has no simulator semantics"
            )
        san, prof = self.san, self.prof
        if san is not None:
            san.enter_spec(sp.label)
        if san is None and prof is None:
            trace = self._trace
            if trace is None:
                for gp in sp.groups:
                    self._exec_group(sp, gp, env, preds)
                return
            for gp in sp.groups:
                trace.begin_leaf(sp, gp)
                self._exec_group(sp, gp, env, preds)
            return
        for gi, gp in enumerate(sp.groups):
            if sp.runner is None:
                # Scalar fallback: ExecCtx feeds the observers itself.
                if prof is not None:
                    prof.begin_exec(sp.label, atomic.name, atomic.width,
                                    gp.lanes)
                    try:
                        self._exec_group(sp, gp, env, preds)
                    finally:
                        prof.end_exec()
                else:
                    self._exec_group(sp, gp, env, preds)
                continue
            pending = self._pending = []
            sp.runner(self, sp, gp, env, preds)
            self._pending = None
            if prof is None:
                self._feed(gp, pending, san, None)
                continue
            # The profiler effect of one execution is a pure function
            # of its record stream; with no sanitizer attached, replay
            # a previously captured counter delta instead of walking
            # the per-lane records again.
            key = None if san is not None else _charge_key(gi, pending)
            if key is not None:
                hit = sp.charge_cache.get(key)
                if hit is not None:
                    prof.apply_exec(sp.label, atomic.name, atomic.width,
                                    hit[0])
                    continue
            prof.begin_exec(sp.label, atomic.name, atomic.width, gp.lanes)
            before = prof.exec_snapshot(sp.label)
            try:
                self._feed(gp, pending, san, prof)
            finally:
                prof.end_exec()
            if key is not None:
                if len(sp.charge_cache) >= CHARGE_CACHE_ENTRIES:
                    sp.charge_cache.clear()
                sp.charge_cache[key] = (
                    prof.exec_delta(sp.label, before),
                    _charge_refs(pending),
                )

    def _exec_group(self, sp, gp, env, preds):
        if sp.runner is None:
            self.regfile.flush()
            ctx = ExecCtx(self.machine, self.bid, env, gp.lanes, preds)
            sp.atomic.execute(sp.spec, ctx)
            self.regfile.reload()
            return
        sp.runner(self, sp, gp, env, preds)

    # -- bulk element transfer -------------------------------------------------
    def read_bulk(self, vp, env, rows, fill=0, bulk=False):
        """Gather ``rows`` lanes' view elements; returns (values, entry).

        The returned emission entry carries the raw offsets/mask for
        the observer feed; buffer growth, zero-substitution of masked
        offsets, fill values and the bank-model feed all match the
        reference ``ExecCtx.read`` exactly, ``bulk`` included (TMA
        traffic: profiled as bulk, no bank-model feed).
        """
        offs, mask = vp.offsets_mask(env)
        take_all = rows is self._aranges.get(offs.shape[0])
        offs_sel = offs if take_all else offs[rows]
        if mask is None:
            mask_sel = None
            offs_eff = offs_sel
        else:
            mask_sel = mask if take_all else mask[rows]
            offs_eff = np.where(mask_sel, offs_sel, 0)
        if vp.is_rf:
            lane_ids = vp.lane_arr if take_all else vp.lane_arr[rows]
            per_row_min = offs_eff.max(axis=1) + 1
            buf = self.regfile.require(vp.tensor.buffer, vp.tensor.dtype,
                                       lane_ids, per_row_min)
            values = buf[lane_ids[:, None], offs_eff]
        else:
            buf = self.machine.buffer(
                vp.tensor.mem, vp.tensor.buffer, vp.tensor.dtype,
                self.bid, 0, int(offs_eff.max()) + 1,
            )
            values = buf[offs_eff]
            if vp.is_sh and not bulk:
                self.machine.bank_model.record_batch(offs_eff * vp.itemsize)
        if mask_sel is not None:
            values = np.where(mask_sel, values, fill).astype(buf.dtype)
        if self._trace is not None:
            self._trace.on_read(vp, offs_eff, mask_sel,
                                lane_ids if vp.is_rf else None, fill,
                                vp.is_sh and not bulk)
        return values, (vp.tensor, "bulk_read" if bulk else "read",
                        offs_sel, mask_sel, rows, offs, mask)

    def write_bulk(self, vp, env, rows, values, bulk=False):
        """Scatter ``values`` to ``rows`` lanes' view elements.

        Fully-guarded-out lanes are dropped before any buffer or bank
        effect (the reference engine's early return); scatter order is
        lane-major so last-wins overlaps resolve as the per-lane loop
        would.  Returns the emission entry, or None if nothing wrote.
        """
        offs, mask = vp.offsets_mask(env)
        take_all = rows is self._aranges.get(offs.shape[0])
        offs_sel = offs if take_all else offs[rows]
        kind = "bulk_write" if bulk else "write"
        if vp.tensor.dtype.quantize is not None:
            values = vp.tensor.dtype.quantize(
                np.asarray(values, dtype=np.float32))
        values = np.asarray(values)
        tensor = vp.tensor
        if mask is None:
            if vp.is_rf:
                lane_ids = vp.lane_arr if take_all else vp.lane_arr[rows]
                per_row_min = offs_sel.max(axis=1) + 1
                buf = self.regfile.require(tensor.buffer, tensor.dtype,
                                           lane_ids, per_row_min)
                buf[lane_ids[:, None], offs_sel] = \
                    values.astype(buf.dtype, copy=False)
            else:
                lane_ids = None
                buf = self.machine.buffer(
                    tensor.mem, tensor.buffer, tensor.dtype, self.bid, 0,
                    int(offs_sel.max()) + 1,
                )
                buf[offs_sel] = values.astype(buf.dtype, copy=False)
                if vp.is_sh and not bulk:
                    self.machine.bank_model.record_batch(
                        offs_sel * vp.itemsize)
            if self._trace is not None:
                self._trace.on_write_plain(vp, offs_sel, lane_ids,
                                           vp.is_sh and not bulk)
            return (tensor, kind, offs_sel, None, rows, offs, mask)
        mask_sel = mask if take_all else mask[rows]
        keep = mask_sel.any(axis=1)
        if not keep.any():
            if self._trace is not None:
                self._trace.on_write_skip()
            return None
        if not keep.all():
            rows = rows[keep]
            offs_sel = offs_sel[keep]
            mask_sel = mask_sel[keep]
            values = np.broadcast_to(values, keep.shape + values.shape[1:])
            values = values[keep]
        flat_offs = offs_sel[mask_sel]
        flat_vals = np.broadcast_to(values, offs_sel.shape)[mask_sel]
        if vp.is_rf:
            lane_ids = vp.lane_arr[rows]
            live_max = np.where(mask_sel, offs_sel,
                                np.iinfo(np.int64).min)
            per_row_min = live_max.max(axis=1) + 1
            buf = self.regfile.require(tensor.buffer, tensor.dtype,
                                       lane_ids, per_row_min)
            lane_mat = np.broadcast_to(lane_ids[:, None],
                                       offs_sel.shape)[mask_sel]
            buf[lane_mat, flat_offs] = flat_vals
        else:
            lane_mat = None
            buf = self.machine.buffer(
                tensor.mem, tensor.buffer, tensor.dtype, self.bid, 0,
                int(flat_offs.max()) + 1,
            )
            buf[flat_offs] = flat_vals
            if vp.is_sh and not bulk:
                self.machine.bank_model.record_batch(offs_sel * vp.itemsize)
        if self._trace is not None:
            self._trace.on_write_masked(vp, offs_sel, mask_sel, keep,
                                        flat_offs, lane_mat,
                                        vp.is_sh and not bulk)
        return (tensor, kind, offs_sel, mask_sel, rows, offs, mask)

    # -- observer feed ---------------------------------------------------------
    def emit(self, gp, master_rows, entries):
        """Queue records for the observer feed, lanes-outer entries-inner.

        Emission is deferred: runners queue their entries and
        exec_spec replays them (or a cached charge delta) once the
        numerics complete.  Relative order is preserved exactly.
        """
        if self._pending is not None:
            self._pending.append((False, master_rows, entries))

    def emit_entry_order(self, gp, entry):
        """Queue one entry in its own row order (ldmatrix reads)."""
        if self._pending is not None:
            self._pending.append((True, None, (entry,)))

    def _feed(self, gp, pending, san, prof):
        """Replay queued emissions into the observers.

        Per queued item the order is lanes-outer entries-inner (reads
        and writes of one lane before the next lane) — exactly the
        reference engine's per-lane record order, which the
        order-sensitive sanitizer hazard classification requires.
        """
        lanes = gp.lanes
        bid = self.bid
        # Append record-shaped tuples straight into the profiler's sink
        # (shared-memory wavefront packing is order-sensitive, so the
        # interleaving below must not change).
        records = prof.exec_records() if prof is not None else None
        for entry_order, master_rows, entries in pending:
            if entry_order:
                entry = entries[0]
                if entry is None:
                    continue
                tensor, kind, offs_sel, mask_sel, rows = entry[:5]
                mem, buffer = tensor.mem, tensor.buffer
                nbytes = tensor.dtype.bytes
                san_kind = _SANITIZER_KIND[kind]
                for i, r in enumerate(rows):
                    lane = lanes[int(r)]
                    row = offs_sel[i]
                    live = row if mask_sel is None else row[mask_sel[i]]
                    if live.size == 0:
                        continue
                    if san is not None:
                        san.record(tensor, bid, lane, live, san_kind)
                    if records is not None:
                        records.append(
                            (mem, buffer, nbytes, kind, lane, live))
                continue
            prepared = []
            for entry in entries:
                if entry is None:
                    continue
                tensor, kind, offs_sel, mask_sel, rows = entry[:5]
                # Entries that kept the master row set align by
                # position; filtered writes need the value -> position
                # map.
                rowmap = None if rows is master_rows else {
                    int(r): i for i, r in enumerate(rows)
                }
                prepared.append((tensor, kind, offs_sel, mask_sel, rowmap,
                                 tensor.mem, tensor.buffer,
                                 tensor.dtype.bytes, _SANITIZER_KIND[kind]))
            if not prepared:
                continue
            for pos, r in enumerate(master_rows):
                lane = lanes[int(r)]
                for (tensor, kind, offs_sel, mask_sel, rowmap,
                     mem, buffer, nbytes, san_kind) in prepared:
                    if rowmap is None:
                        i = pos
                    else:
                        i = rowmap.get(int(r))
                        if i is None:
                            continue
                    row = offs_sel[i]
                    live = row if mask_sel is None else row[mask_sel[i]]
                    if live.size == 0:
                        continue
                    if san is not None:
                        san.record(tensor, bid, lane, live, san_kind)
                    if records is not None:
                        records.append(
                            (mem, buffer, nbytes, kind, lane, live))


# -- kernel identity -----------------------------------------------------------
#: id(kernel) -> (kernel, fingerprint).  The strong kernel reference
#: keeps the id from being recycled while its fingerprint is cached.
_FINGERPRINTS: Dict[int, Tuple[object, str]] = {}
_FINGERPRINT_CACHE_ENTRIES = 256


def _canonical_view(tensor):
    """Replace an elementwise-spec operand view by its F2 canonical form.

    A Move/Init executes its operand views purely through their colex
    offset *sequences*: two spellings with the same physical offset map
    (nested vs flat modes, coalesced runs, swizzles folded into the
    layout) behave identically in every observable way — numerics,
    profiler segments, sanitizer records.  For such views the layout/
    swizzle spelling is erased into the F2 bit matrix so equivalent
    spellings fingerprint (and therefore plan-cache and graph-cache)
    identically.  Guarded, tiled, or non-power-of-two views are left
    untouched: their semantics depend on more than the sequence.
    """
    if not isinstance(tensor, Tensor) or isinstance(tensor.element, Tile):
        return tensor
    guards = tensor.guards
    if guards is not None and any(g is not None for g in guards):
        return tensor
    try:
        lin = to_linear(tensor.layout, tensor.swizzle).canonical()
    except LinearLayoutError:
        return tensor
    # Intern the strings like PickleBySlots.__getstate__ does: the
    # token must memo-share its names with the rest of the dump, or
    # the fingerprint would depend on which equal string object the
    # process happened to intern first.
    return ("__f2view__", sys.intern(tensor.name), tensor.element,
            tensor.mem, sys.intern(tensor.buffer), tensor.offset,
            lin.in_bits, lin.cols)


class _CanonicalPickler(pickle.Pickler):
    """Fingerprint pickler: canonicalizes elementwise operand spellings.

    Move/Init operand views and Allocate declarations are erased to
    their F2 form: a Move/Init is observable only through its offset
    sequences, and an Allocate only through its buffer's extent
    (the cosize, identical for F2-equal maps), memspace and dtype.
    """

    def reducer_override(self, obj):
        if isinstance(obj, (Move, Init, Allocate)):
            state = obj.__getstate__()
            for key in ("inputs", "outputs"):
                views = state.get(key)
                if views:
                    state[key] = tuple(_canonical_view(t) for t in views)
            payload = (type(obj).__name__, tuple(
                sorted(state.items(), key=lambda kv: kv[0])))
            return (tuple, (payload,))
        return NotImplemented


def kernel_fingerprint(kernel) -> str:
    """Deterministic structural identity of a kernel.

    The sha256 of the kernel's canonical pickle serialization: two
    structurally identical kernels (same specs, layouts, launch shape,
    symbols) get the same fingerprint even when they are distinct
    objects, and the fingerprint survives process boundaries — unlike
    ``id()``, it is a valid persistent cache key.  Elementwise-spec
    operand views are canonicalized to their F2 form first (see
    :func:`_canonical_view`), so kernels that differ only in how a
    Move/Init view's layout is spelled share a fingerprint — and with
    it a compiled plan and a captured graph.
    """
    cached = _FINGERPRINTS.get(id(kernel))
    if cached is not None and cached[0] is kernel:
        return cached[1]
    buffer = io.BytesIO()
    _CanonicalPickler(buffer, protocol=4).dump(kernel)
    digest = hashlib.sha256(buffer.getvalue()).hexdigest()
    if len(_FINGERPRINTS) >= _FINGERPRINT_CACHE_ENTRIES:
        _FINGERPRINTS.clear()
    _FINGERPRINTS[id(kernel)] = (kernel, digest)
    return digest


class CacheStats:
    """Hit/miss/eviction counters shared by the plan and graph caches."""

    __slots__ = ("hits", "misses", "evictions")

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def reset(self) -> None:
        self.hits = self.misses = self.evictions = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def __repr__(self):
        return (f"CacheStats(hits={self.hits}, misses={self.misses}, "
                f"evictions={self.evictions})")


# -- the launch plan and its cache ---------------------------------------------
class LaunchPlan:
    """A kernel's decomposition tree compiled for vectorized replay."""

    __slots__ = ("kernel", "arch", "nthreads", "grid_size", "root")

    def __init__(self, kernel, arch):
        self.kernel = kernel  # strong ref: cache keys use id(kernel)
        self.arch = arch
        self.nthreads = kernel.block_size()
        self.grid_size = kernel.grid_size()
        self.root = self._compile_block(kernel.body)

    def __reduce__(self):
        # The compiled node tree holds closures (compile_expr) that
        # cannot pickle; the kernel and arch can, and compilation is
        # deterministic — so a plan serializes as its inputs and
        # recompiles on load.
        return (LaunchPlan, (self.kernel, self.arch))

    # -- compilation -----------------------------------------------------------
    def _compile_block(self, stmts) -> _Seq:
        items = []
        for stmt in stmts:
            node = self._compile_stmt(stmt)
            if node is not None:
                items.append(node)
        return _Seq(items)

    def _compile_stmt(self, stmt):
        if isinstance(stmt, Block):
            return self._compile_block(stmt)
        if isinstance(stmt, ForLoop):
            return _Loop(
                compile_expr(stmt.start), compile_expr(stmt.stop),
                compile_expr(stmt.step), stmt.var.name,
                self._compile_block(stmt.body),
            )
        if isinstance(stmt, If):
            uniform, varying = [], []
            for a, b in stmt.predicates:
                pair = (compile_expr(a), compile_expr(b))
                if "threadIdx.x" in (a.free_vars() | b.free_vars()):
                    varying.append(pair)
                else:
                    uniform.append(pair)
            orelse = (self._compile_block(stmt.orelse)
                      if stmt.orelse is not None else None)
            return _If(uniform, varying, self._compile_block(stmt.then),
                       orelse)
        if isinstance(stmt, Barrier):
            return _Bar(stmt.scope)
        if isinstance(stmt, Comment):
            return None
        if isinstance(stmt, SpecStmt):
            return self._compile_spec(stmt.spec)
        raise SimulationError(f"cannot execute statement {stmt!r}")

    def _compile_spec(self, spec):
        if isinstance(spec, Allocate):
            return None  # handled during launch
        if spec.body is not None:
            return self._compile_block(spec.body)
        return _SpecNode(_SpecPlan(spec, self))

    # -- replay ----------------------------------------------------------------
    def replay(self, machine, symbols, sanitizer, profiler) -> None:
        """Run the plan over the grid, one block after another."""
        for bid in range(self.grid_size):
            if sanitizer is not None:
                sanitizer.begin_block(bid)
            if profiler is not None:
                profiler.begin_block(bid)
            env = dict(symbols)
            env["blockIdx.x"] = bid
            run = _Replay(self, machine, sanitizer, profiler, bid)
            self.root.execute(run, env, ())
            run.regfile.flush()
            machine.tma_check_drained(bid)


def plan_cache_key(kernel, arch, symbols: dict, bindings: dict) -> tuple:
    """The deterministic cache key for one (kernel, launch) pairing.

    Built from the kernel's structural fingerprint rather than its
    ``id()``, so two structurally identical kernels share one compiled
    plan and the key is stable across processes (it contains only
    strings, names and shape tuples — it pickles as-is).
    """
    return (
        kernel_fingerprint(kernel),
        arch.name,
        tuple(sorted(symbols.items())),
        tuple(sorted(
            (name, tuple(np.shape(array)))
            for name, array in bindings.items()
        )),
    )


class PlanCache:
    """Thread-safe LRU cache of compiled launch plans.

    Keys combine the kernel's structural fingerprint, the architecture,
    symbol bindings, and the shapes of the bound parameter arrays —
    re-running an equivalent kernel with the same bindings is a hit;
    changing symbol values or a binding's shape recompiles.  Counters
    live in :class:`CacheStats` (``stats``), with ``hits`` / ``misses``
    / ``evictions`` mirrored as properties.
    """

    def __init__(self, maxsize: int = 8):
        self.maxsize = maxsize
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, LaunchPlan]" = OrderedDict()

    @property
    def hits(self) -> int:
        return self.stats.hits

    @property
    def misses(self) -> int:
        return self.stats.misses

    @property
    def evictions(self) -> int:
        return self.stats.evictions

    def lookup(self, kernel, arch, symbols: dict, bindings: dict) -> LaunchPlan:
        key = plan_cache_key(kernel, arch, symbols, bindings)
        with self._lock:
            plan = self._entries.get(key)
            if plan is not None:
                self.stats.hits += 1
                self._entries.move_to_end(key)
                return plan
            self.stats.misses += 1
        # Compile outside the lock: plans for distinct kernels build
        # concurrently.  Two threads racing on the same key both build
        # an identical plan and the second insert wins — value-equal,
        # so the race is benign.
        plan = LaunchPlan(kernel, arch)
        with self._lock:
            self._entries[key] = plan
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
        return plan

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


__all__ = [
    "CacheStats", "LaunchPlan", "PlanCache", "ViewPlan",
    "VIEW_CACHE_ENTRIES", "kernel_fingerprint", "plan_cache_key",
]
