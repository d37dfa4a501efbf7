"""Reference interpreter: the per-lane semantics ground truth.

This is the execution engine the simulator shipped before the compiled
launch plans (:mod:`repro.sim.plan`) became its only engine, kept as a
test oracle.  It walks the decomposition statement tree once per
thread-block in statement-lockstep, evaluates every layout index
expression per lane and per element in pure Python, and executes each
leaf atomic through a scalar semantics function that reads and writes
one lane at a time (:class:`ExecCtx`).  It is slow and obviously
correct; the plan engine must be indistinguishable from it in output
arrays, final machine state (registers included), profiler counters
and timeline, and sanitizer verdicts.

``tests/sim/test_plan.py``, the sanitizer- and profiler-oracle launches
and ``tests/serve/test_graph.py`` run kernels through
:class:`ReferenceSimulator` and compare.  Its observers are the shipped
:class:`~repro.sim.sanitizer.Sanitizer` and
:class:`~repro.sim.profiler.Profiler`, looked up in this module at run
time so tests can tee them.  The sanitizer receives one one-lane item
per element transfer; the profiler receives each execution's lane
records stacked into row matrices (:func:`record_lanes`).

Scalar semantics are keyed by an atomic's ``instruction`` and ``kind``
exactly as the plan engine keys its runners (:func:`semantics_for`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch import ptx
from repro.arch.hopper import SPARSE24_DECOMPRESS, TMA_G2S
from repro.ir.stmt import (
    Barrier, Block, Comment, ForLoop, If, SpecStmt, Stmt,
)
from repro.layout import inttuple as it
from repro.specs.atomic import AtomicSpec, match_atomic
from repro.specs.base import (
    Allocate, BinaryPointwise, Init, MatMul, Move, Reduction, Shfl, Spec,
    UnaryPointwise,
)
from repro.specs.kernel import Kernel
from repro.sim.access import (
    compile_expr, guard_coords, tile_views, walk_offsets,
)
from repro.sim.errors import SimulationError
from repro.sim.interp import RunResult, bind_launch
from repro.sim.machine import Machine
from repro.sim.profiler import Profiler
from repro.sim.sanitizer import Sanitizer
from repro.tensor.memspace import RF
from repro.tensor.tensor import Tensor, Tile

Predicate = Tuple[Callable[[dict], int], Callable[[dict], int]]


# -- per-lane element enumeration ------------------------------------------------------
class Accessor:
    """Element enumeration of one tensor view, one lane at a time.

    ``offsets(env)`` returns the physical (post-swizzle) element offsets
    of the view's elements in colexicographic coordinate order;
    ``mask(env)`` returns per-element validity under the view's guards.
    Offsets come from the coordinate walk, so every comparison with the
    plan engine also checks its F2 offset tables.
    """

    __slots__ = ("tensor", "_base", "_rel", "_guards")

    def __init__(self, tensor: Tensor):
        if isinstance(tensor.element, Tile):
            raise TypeError(
                f"cannot build an element accessor for tiled tensor "
                f"{tensor!r}; index a tile first")
        self.tensor = tensor
        self._base = compile_expr(tensor.offset)
        self._rel = walk_offsets(tensor.layout).tolist()
        shape = tensor.layout.shape
        self._guards = [
            (compile_expr(guard.origin), compile_expr(guard.extent),
             guard_coords(shape, dim).tolist())
            for dim, guard in enumerate(tensor.guards or ())
            if guard is not None
        ]

    def offsets(self, env: dict) -> List[int]:
        base = self._base(env)
        sw = self.tensor.swizzle
        if sw.is_identity():
            return [base + r for r in self._rel]
        return [sw(base + r) for r in self._rel]

    def mask(self, env: dict) -> Optional[List[bool]]:
        """Validity of each element, or None when unguarded."""
        if not self._guards:
            return None
        valid = [True] * len(self._rel)
        for origin, extent, dim_coords in self._guards:
            base = origin(env)
            limit = extent(env)
            for i, c in enumerate(dim_coords):
                if base + c >= limit:
                    valid[i] = False
        return valid


class ViewTables:
    """One run's accessors and tile views, keyed by view identity.

    Each entry holds its view, so no key is recycled while the tables
    live; a simulator starts fresh tables on every run.
    """

    def __init__(self):
        self._accessors: Dict[int, Accessor] = {}
        self._tiles: Dict[int, Tuple[Tensor, List[Tensor]]] = {}

    def accessor(self, tensor: Tensor) -> Accessor:
        acc = self._accessors.get(id(tensor))
        if acc is None or acc.tensor is not tensor:
            acc = self._accessors[id(tensor)] = Accessor(tensor)
        return acc

    def tiles(self, tensor: Tensor) -> List[Tensor]:
        entry = self._tiles.get(id(tensor))
        if entry is None or entry[0] is not tensor:
            entry = self._tiles[id(tensor)] = (tensor, tile_views(tensor))
        return entry[1]


# -- execution context ---------------------------------------------------------------
class ExecCtx:
    """Per-execution-point context for one atomic spec.

    ``lanes`` are the absolute in-block thread ids cooperating on this
    execution (all block threads for per-thread atomics, one group's
    lanes for collectives).  ``env`` contains block/loop/symbol values;
    thread-dependent expressions are evaluated via :meth:`lane_env`.
    With a profiler attached, every lane's live accesses collect in
    ``lane_records`` in arrival order.
    """

    __slots__ = ("machine", "views", "sanitizer", "profiler", "block_id",
                 "env", "lanes", "preds", "lane_records")

    def __init__(
        self,
        machine: Machine,
        views: ViewTables,
        sanitizer: Optional[Sanitizer],
        profiler: Optional[Profiler],
        block_id: int,
        env: dict,
        lanes: Sequence[int],
        preds: Sequence[Predicate] = (),
    ):
        self.machine = machine
        self.views = views
        self.sanitizer = sanitizer
        self.profiler = profiler
        self.block_id = block_id
        self.env = env
        self.lanes = list(lanes)
        self.preds = list(preds)
        self.lane_records: List[tuple] = []

    def lane_env(self, lane: int) -> dict:
        env = dict(self.env)
        env["threadIdx.x"] = lane
        return env

    def active(self, env: dict) -> bool:
        """Evaluate the enclosing If-predicates for one lane."""
        return all(lhs(env) < rhs(env) for lhs, rhs in self.preds)

    # -- tensor element transfer ---------------------------------------------
    def _buffer(self, tensor: Tensor, lane: int, min_size: int) -> np.ndarray:
        machine = self.machine
        if tensor.mem == RF:
            # Registers are per thread: (block, lane, name), grown lazily.
            return machine._scoped(
                machine._regs, (self.block_id, lane, tensor.buffer),
                tensor.buffer, tensor.dtype, min_size)
        return machine.buffer(tensor.mem, tensor.buffer, tensor.dtype,
                              self.block_id, min_size)

    def _observe(self, tensor: Tensor, lane: int, live, kind: str) -> None:
        if self.sanitizer is not None:
            self.sanitizer.record(
                self.block_id, (lane,),
                ((tensor, kind.replace("bulk_", ""), (live,), None, None),))
        if self.profiler is not None and len(live):
            self.lane_records.append((tensor, kind, lane, live))

    def read(self, tensor: Tensor, env: dict, lane: int, fill=0,
             bulk: bool = False) -> np.ndarray:
        """Read the view's elements (colex order); OOB lanes read ``fill``.

        Guarded-out elements never touch memory (predicated loads).
        ``bulk`` marks TMA bulk-tensor traffic: the sanitizer still sees
        an ordinary read, but the profiler accounts it in the dedicated
        bulk counters instead of the per-lane load path.
        """
        acc = self.views.accessor(tensor)
        offsets = acc.offsets(env)
        mask = acc.mask(env)
        if self.sanitizer is not None or self.profiler is not None:
            live = offsets if mask is None else \
                [o for o, ok in zip(offsets, mask) if ok]
            self._observe(tensor, lane, live,
                          "bulk_read" if bulk else "read")
        if mask is not None:
            offsets = [o if ok else 0 for o, ok in zip(offsets, mask)]
        buf = self._buffer(tensor, lane, max(offsets) + 1)
        values = buf[offsets]
        if mask is not None:
            values = np.where(np.asarray(mask), values, fill).astype(buf.dtype)
        return values

    def write(self, tensor: Tensor, env: dict, lane: int, values,
              bulk: bool = False) -> None:
        """Write elements (colex order); guarded-out elements are skipped.

        Stores to dtypes that declare a ``quantize`` function (bf16/fp8
        round-on-store model) snap the values onto the format's grid
        first.  ``bulk`` routes the profiler accounting to the TMA bulk
        counters.
        """
        acc = self.views.accessor(tensor)
        offsets = acc.offsets(env)
        mask = acc.mask(env)
        kind = "bulk_write" if bulk else "write"
        if tensor.dtype.quantize is not None:
            values = tensor.dtype.quantize(
                np.asarray(values, dtype=np.float32))
        if mask is not None:
            live = [o for o, ok in zip(offsets, mask) if ok]
            if not live:
                return
            self._observe(tensor, lane, live, kind)
            buf = self._buffer(tensor, lane, max(live) + 1)
            values = np.asarray(values).reshape(-1)
            for off, val, ok in zip(offsets, values, mask):
                if ok:
                    buf[off] = val
        else:
            self._observe(tensor, lane, offsets, kind)
            buf = self._buffer(tensor, lane, max(offsets) + 1)
            buf[offsets] = np.asarray(values, dtype=buf.dtype).reshape(-1)

    def read_frag(self, tensor: Tensor, env: dict, lane: int) -> np.ndarray:
        """Read a register fragment in (tile-major, colex) order.

        Handles one level of tiling: values of tile 0 first, then tile 1,
        matching the register numbering of mma/ldmatrix fragments.
        """
        parts = [self.read(v, env, lane) for v in self.views.tiles(tensor)]
        return np.concatenate(parts) if len(parts) > 1 else parts[0]

    def write_frag(self, tensor: Tensor, env: dict, lane: int, values) -> None:
        values = np.asarray(values).reshape(-1)
        pos = 0
        for view in self.views.tiles(tensor):
            n = view.layout.size() if view.rank else 1
            self.write(view, env, lane, values[pos:pos + n])
            pos += n


def record_lanes(profiler, lane_records) -> None:
    """Hand one execution's per-lane records to ``profiler`` as rows.

    Records stack into one row matrix per ``(view, kind, width)``, in
    order of first appearance; each row keeps its record's position as
    its arrival slot.
    """
    stacks: Dict[tuple, list] = {}
    for slot, (tensor, kind, lane, offsets) in enumerate(lane_records):
        stacks.setdefault((id(tensor), kind, len(offsets)), []).append(
            (tensor, kind, lane, offsets, slot))
    for rows in stacks.values():
        tensors, kinds, lanes, offsets, slots = zip(*rows)
        profiler.record_rows(tensors[0], kinds[0], np.array(lanes),
                             np.array(offsets, dtype=np.int64), None,
                             np.array(slots))


# -- scalar atomic semantics --------------------------------------------------------
def exec_thread_move(spec: Move, ctx: ExecCtx) -> None:
    """Per-thread load/store/copy of the view's elements."""
    src, dst = spec.src, spec.dst
    for lane in ctx.lanes:
        env = ctx.lane_env(lane)
        if not ctx.active(env):
            continue
        ctx.write(dst, env, lane, ctx.read(src, env, lane))


def make_exec_ldmatrix(sem: "ptx.LdmatrixSemantics") -> Callable:
    """Build the executor for ``ldmatrix .x1/.x2/.x4`` (optionally .trans).

    Lanes ``8q..8q+7`` supply the addresses of rows ``0..7`` of matrix
    ``q`` (their src views must point at 8 contiguous fp16 values); every
    lane then receives two adjacent values per matrix into its
    destination tile ``q`` (paper Figures 1a/1b).  The ``.trans`` form
    distributes the transposed matrices, as used for B operands.
    """
    num_matrices = sem.num

    def execute(spec: Move, ctx: ExecCtx) -> None:
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
        dst_tiles = ctx.views.tiles(dst)
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


def make_exec_mma(sem: "ptx.MmaSemantics") -> Callable:
    """Build the executor for a warp-level ``mma.sync`` instruction."""

    def execute(spec: MatMul, ctx: ExecCtx) -> None:
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

    return execute


def make_exec_wgmma(sem: "ptx.WgmmaSemantics") -> Callable:
    """Build the executor for a Hopper ``wgmma.mma_async`` instruction.

    All 128 lanes of the warpgroup cooperate; the A and B operands are
    shared-memory tiles read once for the whole group (the hardware
    streams them through descriptors, not the register file), and only
    the fp32 accumulator is a per-lane register fragment
    (:func:`repro.arch.fragments.wgmma_c_coord`).
    """

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


def exec_tma_bulk_g2s(spec: Move, ctx: ExecCtx) -> None:
    """TMA ``cp.async.bulk.tensor``: one descriptor-driven tile copy.

    A single instruction issued by the warpgroup moves the whole tile
    global-to-shared, bypassing the register file.  The copy is
    *asynchronous*: it is committed against the machine's TMA ledger and
    only guaranteed visible after the next barrier drains it.
    """
    lanes = ctx.lanes
    lead = lanes[0]
    env = ctx.lane_env(lead)
    values = ctx.read(spec.src, env, lead, bulk=True)
    ctx.write(spec.dst, env, lead, values, bulk=True)
    ctx.machine.tma_commit(ctx.block_id)


def exec_sparse24_decompress(spec: Spec, ctx: ExecCtx) -> None:
    """Expand a 2:4-compressed operand tile to dense in shared memory.

    ``inputs[0]`` is the compressed ``(m, k/2)`` fp16 tile, ``inputs[1]``
    the ``(m, k/2)`` metadata tile; ``outputs[0]`` receives the dense
    ``(m, k)`` tile (see :func:`repro.arch.ptx.sparse24_expand`).
    """
    comp, meta = spec.inputs
    lead = ctx.lanes[0]
    env = ctx.lane_env(lead)
    dense = ptx.sparse24_expand(comp, ctx.read(comp, env, lead),
                                ctx.read(meta, env, lead))
    ctx.write(spec.outputs[0], env, lead, dense)


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


#: Semantics of every other atomic, by spec kind.
_KIND_SEMANTICS = {
    "Move": exec_thread_move,
    "MatMul": exec_thread_matmul,
    "UnaryPointwise": exec_thread_unary,
    "BinaryPointwise": exec_thread_binary,
    "Reduction": exec_thread_reduction,
    "Init": exec_thread_init,
    "Shfl": exec_shfl_bfly,
}


def semantics_for(atomic: AtomicSpec) -> Optional[Callable]:
    """The scalar ``execute(spec, ctx)`` of ``atomic``, or None.

    Keyed by instruction, then by kind, as the plan engine keys its
    runners.
    """
    instruction = atomic.instruction
    if instruction.startswith("mma.sync."):
        return make_exec_mma(ptx.semantics_for(instruction))
    if instruction.startswith("wgmma."):
        return make_exec_wgmma(ptx.semantics_for(instruction))
    if instruction.startswith("ldmatrix."):
        return make_exec_ldmatrix(ptx.semantics_for(instruction))
    if instruction == TMA_G2S:
        return exec_tma_bulk_g2s
    if instruction == SPARSE24_DECOMPRESS:
        return exec_sparse24_decompress
    return _KIND_SEMANTICS.get(atomic.kind)


# -- the interpreter -----------------------------------------------------------------
class ReferenceSimulator:
    """Executes kernels lane by lane against an architecture's atomics."""

    def __init__(self, arch):
        self.arch = arch
        self._loop_cache: Dict[int, tuple] = {}
        self._pred_cache: Dict[int, tuple] = {}
        self._atomic_cache: Dict[int, tuple] = {}
        self._views = ViewTables()

    def run(
        self,
        kernel: Kernel,
        bindings: Dict[str, np.ndarray],
        symbols: Optional[Dict[str, int]] = None,
        *,
        sanitize=False,
        profile=False,
    ) -> RunResult:
        """Launch ``kernel`` as ``repro.sim.Simulator.run`` does."""
        # Compiled-closure caches and view tables key on id(); scoping
        # them to one run keeps a recycled id from a garbage-collected kernel from
        # resurrecting a stale closure (ids are unique only among live
        # objects, and kernels stay alive for the duration of a run).
        self._loop_cache.clear()
        self._pred_cache.clear()
        self._atomic_cache.clear()
        self._views = ViewTables()
        machine = Machine()
        self.sanitizer = Sanitizer() if sanitize else None
        self.profiler = Profiler() if profile else None
        symbols = dict(symbols or {})
        bind_launch(kernel, bindings, symbols, machine, self.sanitizer)
        block_size = kernel.block_size()
        for bid in range(kernel.grid_size()):
            if self.sanitizer is not None:
                self.sanitizer.begin_block(bid)
            if self.profiler is not None:
                self.profiler.begin_block(bid)
            env = dict(symbols)
            env["blockIdx.x"] = bid
            self._exec_block_stmts(
                kernel.body, env, bid, [], machine, block_size
            )
            machine.tma_check_drained(bid)
        if self.sanitizer is not None and sanitize != "report":
            self.sanitizer.raise_if_dirty()
        kernel_profile = None
        if self.profiler is not None:
            kernel_profile = self.profiler.finish(
                kernel.name, kernel.grid_size(), block_size
            )
        return RunResult(
            machine=machine, sanitizer=self.sanitizer,
            profile=kernel_profile,
        )

    # -- statement execution -----------------------------------------------------
    def _exec_block_stmts(self, block, env, bid, preds, machine, nthreads):
        for stmt in block:
            self._exec_stmt(stmt, env, bid, preds, machine, nthreads)

    def _exec_stmt(self, stmt: Stmt, env, bid, preds, machine, nthreads):
        if isinstance(stmt, Block):
            self._exec_block_stmts(stmt, env, bid, preds, machine, nthreads)
        elif isinstance(stmt, ForLoop):
            start, stop, step, name = self._loop_bounds(stmt)
            lo = start(env)
            hi = stop(env)
            inc = step(env)
            for value in range(lo, hi, inc):
                env[name] = value
                self._exec_block_stmts(
                    stmt.body, env, bid, preds, machine, nthreads
                )
            env.pop(name, None)
        elif isinstance(stmt, If):
            # Predicate contract (see ir.stmt.If): every pair asserts
            # strict `lhs < rhs`.  Thread-uniform predicates select one
            # branch for the whole block; thread-dependent predicates
            # mean per-lane predicated execution of the then-branch and
            # are carried down to the leaf executors, so they admit no
            # else-branch.
            split = self._pred_cache.get(id(stmt))
            if split is None:
                uniform, varying = [], []
                for a, b in stmt.predicates:
                    pair = (compile_expr(a), compile_expr(b))
                    if "threadIdx.x" in (a.free_vars() | b.free_vars()):
                        varying.append(pair)
                    else:
                        uniform.append(pair)
                split = (uniform, varying)
                self._pred_cache[id(stmt)] = split
            uniform, varying = split
            if varying and stmt.orelse is not None:
                raise SimulationError(
                    "If with thread-dependent predicates cannot carry an "
                    "else branch: lanes diverge individually, so no "
                    "uniform branch decision exists (emit a second If "
                    "guarded by the complement predicate instead)"
                )
            if all(lhs(env) < rhs(env) for lhs, rhs in uniform):
                self._exec_block_stmts(
                    stmt.then, env, bid, preds + varying, machine, nthreads
                )
            elif stmt.orelse is not None:
                self._exec_block_stmts(
                    stmt.orelse, env, bid, preds, machine, nthreads
                )
        elif isinstance(stmt, Barrier):
            # Statement-lockstep execution subsumes barriers numerically;
            # the sanitizer consumes them as epoch boundaries and the
            # profiler counts them.
            sanitizer = self.sanitizer
            if sanitizer is not None:
                divergent = 0
                if preds:
                    lane_env = dict(env)
                    for lane in range(nthreads):
                        lane_env["threadIdx.x"] = lane
                        if not all(lhs(lane_env) < rhs(lane_env)
                                   for lhs, rhs in preds):
                            divergent += 1
                sanitizer.barrier(stmt.scope, divergent)
            if self.profiler is not None:
                self.profiler.barrier(stmt.scope)
            # Barriers drain outstanding TMA bulk copies: after the wait,
            # their shared-memory data is guaranteed visible.
            machine.tma_drain(bid)
        elif isinstance(stmt, Comment):
            pass
        elif isinstance(stmt, SpecStmt):
            self._exec_spec(stmt.spec, env, bid, preds, machine, nthreads)
        else:
            raise SimulationError(f"cannot execute statement {stmt!r}")

    def _loop_bounds(self, stmt: ForLoop):
        cached = self._loop_cache.get(id(stmt))
        if cached is None:
            cached = (
                compile_expr(stmt.start),
                compile_expr(stmt.stop),
                compile_expr(stmt.step),
                stmt.var.name,
            )
            self._loop_cache[id(stmt)] = cached
        return cached

    # -- spec execution ----------------------------------------------------------
    def _exec_spec(self, spec: Spec, env, bid, preds, machine, nthreads):
        if isinstance(spec, Allocate):
            return  # handled during launch
        if spec.body is not None:
            self._exec_block_stmts(spec.body, env, bid, preds, machine,
                                   nthreads)
            return
        cached = self._atomic_cache.get(id(spec))
        if cached is None:
            atomic = match_atomic(spec, self.arch.atomics)
            cached = (atomic, semantics_for(atomic))
            self._atomic_cache[id(spec)] = cached
        atomic, execute = cached
        if execute is None:
            raise SimulationError(
                f"atomic spec {atomic.name} has no simulator semantics"
            )
        sanitizer, profiler = self.sanitizer, self.profiler
        if sanitizer is not None or profiler is not None:
            label = f"{spec.kind}:{atomic.name}"
            if spec.label:
                label += f"[{spec.label}]"
            if sanitizer is not None:
                sanitizer.enter_spec(label)
        for lanes in self._lane_groups(spec, nthreads):
            ctx = ExecCtx(machine, self._views, sanitizer, profiler, bid,
                          env, lanes, preds)
            if profiler is not None:
                profiler.begin_exec(label, atomic.name, atomic.width, lanes)
                try:
                    execute(spec, ctx)
                finally:
                    record_lanes(profiler, ctx.lane_records)
                    profiler.end_exec()
            else:
                execute(spec, ctx)

    def _lane_groups(self, spec: Spec, nthreads: int) -> List[List[int]]:
        """Which lane sets execute this spec (one call per set)."""
        group = spec.thread_group()
        if group is None or group.rank == 0:
            # Per-thread: one call covering every thread in the block.
            return [list(range(nthreads))]
        base = group.base
        base_value = (base.evaluate({}) if base.free_vars() == frozenset()
                      else None)
        if base_value is None:
            raise SimulationError(
                f"thread group base of {spec!r} must be constant"
            )
        if group.is_tiled():
            inner = group.element.layout
            groups = []
            for g in range(group.layout.size()):
                start = base_value + group.layout(g)
                groups.append(
                    [start + inner(i) for i in range(inner.size())]
                )
            return groups
        layout = group.layout
        return [[base_value + layout(i) for i in range(layout.size())]]
