"""Execution traces: replay a compiled plan without re-interpreting it.

A :class:`~repro.sim.plan.LaunchPlan` replay still walks the compiled
statement tree every time — loop bounds re-evaluate, environment dicts
rebuild, every view re-resolves its offset arrays through a cache keyed
on loop-variable values, and every buffer re-resolves through the
machine tables.  All of that work is *replay-invariant*: for a fixed
(kernel, symbols, binding shapes) signature the control flow, the row
sets, the offset/mask arrays and the buffer sizes come out identical on
every run — only the data differs (runners never branch on values).

So a :class:`PlanTrace` records, during one plan replay (observers
attached or not: the recorder sees the same resolved accesses either
way), the flat sequence of leaf executions with everything resolved:

* the active row set of each leaf,
* per gather/scatter, the final index arrays (and guard masks) and the
  *slot* they address — a direct reference to the backing storage: a
  global array bound at launch (a captured graph's static slots, a
  lowered network's arena) or trace-owned shared-memory /
  register-file storage at its final capacity.

A Graphene kernel fixes its decomposition at compile time, so the
blocks of a launch are usually *translations* of block 0: the same
leaves, rows, masks and block-local indices, and global indices that
are block 0's plus one constant per access (the block bits are just
more input bits of the layout).  A trace stores block 0's leaves once,
with every index, mask and row array interned by content, plus a
``(blocks, slots)`` table of int64 start offsets: global slots are
keyed by buffer and offset column, so all accesses of a buffer that
move together share one slot.

When it can, :func:`record_trace` proves the translation statically
and never interprets blocks 1..N: no loop bound or predicate mentions
``blockIdx.x`` (:attr:`~repro.sim.plan.LaunchPlan.shared_control`), no
guard and no shared or register view does, and every global view's
offset splits as ``g(blockIdx, symbols) + rest``
(:func:`repro.ir.expr.additive_part`) with non-negative shifts
``g(b) - g(0)`` (:func:`_proven_shifts`).  Block 0 then runs through
the plan, the offset table comes from the proven shifts, and blocks
1..N run from the trace just recorded; a profiler charges each of
them as block 0, which is exact because the proof also asks every
shift to move whole 32-byte sectors when profiling.  Otherwise, and
always under a sanitizer, every block runs through the plan and the
recorder checks block by block; a block that fails that check keeps
explicit leaves of its own.

Replay runs block by block: zero the block-local storage, shift each
global slot to the block's offset (a view, no index arithmetic), then
run only the runners' data math over the shared leaves — recorded
descriptors stand in for ``read_bulk``/``write_bulk`` and control flow
disappears.  Outputs are bit-identical to a plan replay because the
descriptors *are* the arrays the plan engine computed, consumed in the
same order, and growth-by-zero-fill semantics make the pre-sized trace
storage indistinguishable from lazily grown buffers.

Every plan records a trace.  A trace carries no observer stream: a
:class:`RecordedLaunch` holds what its plan replays observed instead.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from .errors import SimulationError
from .interp import RunResult, observed_run
from .machine import Machine
from .plan import BLOCK, LaunchPlan
from .profiler import GLOBAL_SECTOR_BYTES
from .sanitizer import Sanitizer

#: Immutable empty environment handed to runners during trace replay;
#: recorded descriptors already bind every env-dependent quantity.
_EMPTY_ENV: dict = {}


# -- recorded operations -------------------------------------------------------
class _ReadOp:
    """One resolved gather: ``slot[index]``, masked-out lanes zeroed."""

    __slots__ = ("slot", "index", "mask")

    def __init__(self, slot, index, mask):
        self.slot = slot
        self.index = index
        self.mask = mask

    def gather(self, bases):
        buf = bases[self.slot]
        values = buf[self.index]
        if self.mask is not None:
            values = np.where(self.mask, values, 0).astype(buf.dtype)
        return values


class _ZeroReadOp:
    """A fully-guarded-out gather: zeros, no buffer touched."""

    __slots__ = ("shape", "dtype")

    def __init__(self, shape, dtype):
        self.shape = shape
        self.dtype = dtype

    def gather(self, bases):
        return np.zeros(self.shape, self.dtype)


def _quantized(quantize, values):
    if quantize is not None:
        return quantize(np.asarray(values, dtype=np.float32))
    return np.asarray(values)


class _WriteOp:
    """One resolved unguarded scatter: ``slot[index] = values``."""

    __slots__ = ("slot", "index", "quantize")

    def __init__(self, slot, index, quantize):
        self.slot = slot
        self.index = index
        self.quantize = quantize

    def scatter(self, bases, values):
        buf = bases[self.slot]
        values = _quantized(self.quantize, values)
        buf[self.index] = values.astype(buf.dtype, copy=False)


class _MaskedWriteOp:
    """A guarded scatter: drop masked-out lanes, flatten, assign.

    ``keep`` is the partial row filter (None when every row kept at
    least one element), ``sel_shape`` the post-filter selection shape
    the values broadcast against, ``mask`` the post-filter guard.
    """

    __slots__ = ("slot", "index", "keep", "sel_shape", "mask", "quantize")

    def __init__(self, slot, index, keep, sel_shape, mask, quantize):
        self.slot = slot
        self.index = index
        self.keep = keep
        self.sel_shape = sel_shape
        self.mask = mask
        self.quantize = quantize

    def scatter(self, bases, values):
        values = _quantized(self.quantize, values)
        if self.keep is not None:
            values = np.broadcast_to(
                values, self.keep.shape + values.shape[1:])[self.keep]
        bases[self.slot][self.index] = np.broadcast_to(
            values, self.sel_shape)[self.mask]


class _SkipWriteOp:
    """A fully-guarded-out write: no buffer effect at all."""

    __slots__ = ()

    def scatter(self, bases, values):
        pass


_SKIP_WRITE = _SkipWriteOp()


class _Spec:
    """What a runner reads of its spec plan: the spec and its aux maps."""

    __slots__ = ("spec", "aux", "runner", "label")

    def __init__(self, sp):
        self.spec = sp.spec
        self.aux = sp.aux
        self.runner = sp.runner
        self.label = sp.label


class _Group:
    """What a runner reads of its lane group: the lane count.

    Views resolve to None: recorded descriptors replace them.
    """

    __slots__ = ("nlanes", "lead")

    def __init__(self, nlanes, lead=None):
        self.nlanes = nlanes
        self.lead = lead if lead is not None else self

    def view(self, tensor):
        return None


class _Leaf:
    """One recorded leaf execution: its spec, group, rows and ops."""

    __slots__ = ("sp", "gp", "rows", "ops")

    def __init__(self, sp, gp, rows, ops):
        self.sp = sp
        self.gp = gp
        self.rows = rows
        self.ops = ops


# -- recording -----------------------------------------------------------------
#: Raw op kinds: gather, fully-masked gather, plain scatter, masked
#: scatter, skipped scatter.  A raw op is ``(kind, vp, lanes, offs,
#: mask, keep, sel_shape)``; ``offs`` is the array that moves with the
#: block for a global access.
_READ, _ZERO, _WRITE, _MASKED, _SKIP = range(5)


def _space(vp) -> str:
    if vp.is_rf:
        return "rf"
    if vp.is_sh:
        return "sh"
    return "gl"


def _moves(op) -> bool:
    """Whether ``op`` addresses global memory, so may move per block."""
    return op[0] in (_READ, _WRITE, _MASKED) and _space(op[1]) == "gl"


def _delta(op, ref) -> Optional[int]:
    """How far ``op`` sits from ``ref`` (0 for block-local accesses).

    None when ``op`` is not ``ref`` moved by one non-negative constant.
    Arrays arrive interned, so equal ones are the same object; only a
    global index past block 0 is compared by value.
    """
    if op is ref:
        return 0
    if (op[0] != ref[0] or op[1] is not ref[1] or op[2] is not ref[2]
            or op[4] is not ref[4] or op[5] is not ref[5]
            or op[6] != ref[6]):
        return None
    offs, base = op[3], ref[3]
    if offs is base:
        return 0
    if not _moves(op) or offs.shape != base.shape:
        return None
    diff = offs - base
    if op[0] == _READ and op[4] is not None:
        diff = diff[op[4]]  # masked-out positions read offset 0
    if diff.size == 0:
        return 0
    shift = int(diff.flat[0])
    if shift < 0 or (diff != shift).any():
        return None
    return shift


class _Interner:
    """Share equal arrays, and objects built from them, within a trace.

    Every array interned while recording ends up in the trace, so
    ``nbytes`` counts what the trace holds, each array once.
    """

    def __init__(self):
        self._seen: Dict[int, tuple] = {}
        self._values: Dict[tuple, np.ndarray] = {}
        self._columns: Dict[int, np.ndarray] = {}
        self._objects: Dict[tuple, object] = {}
        self.nbytes = 0

    def array(self, arr):
        if arr is None:
            return None
        hit = self._seen.get(id(arr))
        if hit is not None and hit[0] is arr:
            return hit[1]
        key = (arr.dtype.str, arr.shape, arr.tobytes())
        value = self._values.get(key)
        if value is None:
            value = arr.copy() if arr.base is not None else arr
            value.setflags(write=False)
            self._values[key] = value
            self.nbytes += value.nbytes
        if not arr.flags.writeable:
            # A read-only array is a plan cache entry or an interned
            # value: remember it by identity, holding it so the id
            # cannot be reused.  Temporaries go by content only.
            self._seen[id(arr)] = (arr, value)
        return value

    def column(self, lanes):
        """``lanes[:, None]`` of an interned lane array, shared."""
        col = self._columns.get(id(lanes))
        if col is None:
            col = self._columns[id(lanes)] = lanes[:, None]
        return col

    def object(self, key, make):
        """One shared object per ``key`` of interned parts."""
        obj = self._objects.get(key)
        if obj is None:
            obj = self._objects[key] = make()
        return obj


class _TraceRecorder:
    """Hook target installed on a :class:`~repro.sim.plan._Replay`.

    The plan engine calls ``begin_leaf`` / ``on_rows`` / ``on_read`` /
    ``on_write_*`` while executing, and :meth:`end_block` after each
    block; the recorder keeps block 0 as the template and each later
    block as an offset row against it (or, failing the translation
    check, as explicit leaves).
    """

    def __init__(self):
        self._leaves: List[_Leaf] = []
        self._leaf: Optional[_Leaf] = None
        self._ops: Optional[list] = None
        self._moved = False
        self._template = None
        #: Per block: a list of global shifts (template order) or, for
        #: a block that is not a translation, ``(leaves, local)``.
        self._blocks: List[object] = []
        self._globals: Dict[str, np.ndarray] = {}
        self._specs = set()
        self._interner = _Interner()
        self._raws: Dict[tuple, tuple] = {}
        self._raw_leaves: Dict[tuple, _Leaf] = {}

    def begin_leaf(self, sp, gp) -> None:
        self._close_leaf()
        self._leaf = _Leaf(sp, gp, None, [])
        self._ops = self._leaf.ops
        self._moved = False

    def _close_leaf(self) -> None:
        leaf, self._leaf = self._leaf, None
        if leaf is None:
            return
        leaf.ops = tuple(leaf.ops)
        if not self._moved:
            # A leaf of block-local ops repeats exactly (a register
            # FMA in a k-loop), so equal ones share one object too.
            leaf = self._raw_leaves.setdefault(
                (id(leaf.sp), id(leaf.gp), id(leaf.rows))
                + tuple(map(id, leaf.ops)), leaf)
        self._leaves.append(leaf)

    def on_rows(self, rows) -> None:
        self._leaf.rows = self._interner.array(rows)

    def _add(self, kind, vp, lanes, offs, mask, keep=None, sel_shape=None):
        # Interning as the ops arrive lets the engine's temporaries die;
        # a global index is kept as given past block 0, where only its
        # shift against the template matters.
        intern = self._interner.array
        local = vp.is_rf or vp.is_sh
        if offs is not None and (local or self._template is None):
            offs = intern(offs)
        if lanes is not None:
            lanes = intern(lanes)
        if mask is not None:
            mask = intern(mask)
        if keep is not None:
            keep = intern(keep)
        raw = (kind, vp, lanes, offs, mask, keep, sel_shape)
        if not (local or kind in (_ZERO, _SKIP)):
            self._moved = True
        else:
            # Block-local ops repeat exactly, so equal ones share one
            # tuple: later blocks match it, and the build memoizes it,
            # by identity.
            raw = self._raws.setdefault(
                (kind, id(vp), id(lanes), id(offs), id(mask), id(keep),
                 sel_shape), raw)
        self._ops.append(raw)

    def on_read(self, vp, offs_eff, mask_sel, lane_ids) -> None:
        if mask_sel is not None and not mask_sel.any():
            self._add(_ZERO, vp, None, None, None, None, offs_eff.shape)
        else:
            self._add(_READ, vp, lane_ids, offs_eff, mask_sel)

    def on_write_plain(self, vp, offs_sel, lane_ids) -> None:
        self._add(_WRITE, vp, lane_ids, offs_sel, None)

    def on_write_masked(self, vp, offs_sel, mask_sel, keep,
                        flat_offs, lane_mat) -> None:
        self._add(_MASKED, vp, lane_mat, flat_offs, mask_sel,
                  None if keep.all() else keep, offs_sel.shape)

    def on_write_skip(self, vp) -> None:
        self._add(_SKIP, vp, None, None, None)

    def end_block(self, run) -> None:
        """Close the block ``run`` just executed."""
        self._close_leaf()
        machine = run.machine
        local = {("sh", name): arr for (b, name), arr
                 in machine._shared.items() if b == run.bid}
        local.update((("rf", name), arr)
                     for name, arr in run.regfile._arrays.items())
        self._globals = machine._global
        leaves, self._leaves = self._leaves, []
        self._specs.update(leaf.sp for leaf in leaves)
        if self._template is None:
            self._template = (leaves, local)
            self._blocks.append([])
            return
        shifts = self._match(leaves, local)
        self._blocks.append(shifts if shifts is not None
                            else (leaves, local))

    @property
    def template(self) -> List[_Leaf]:
        """Block 0's leaves, as recorded."""
        return self._template[0]

    def _match(self, leaves, local) -> Optional[List[int]]:
        """The block's global shifts, or None if it is no translation."""
        t_leaves, t_local = self._template
        if len(leaves) != len(t_leaves) or local.keys() != t_local.keys():
            return None
        for key, arr in local.items():
            ref = t_local[key]
            if arr.shape != ref.shape or arr.dtype != ref.dtype:
                return None
        shifts = []
        for leaf, ref in zip(leaves, t_leaves):
            if leaf is ref:
                continue
            if (leaf.sp is not ref.sp or leaf.gp is not ref.gp
                    or leaf.rows is not ref.rows
                    or len(leaf.ops) != len(ref.ops)):
                return None
            for op, ref_op in zip(leaf.ops, ref.ops):
                shift = _delta(op, ref_op)
                if shift is None:
                    return None
                if _moves(op):
                    shifts.append(shift)
        return shifts

    # -- building the trace ------------------------------------------------------
    def finish(self, columns=None) -> "PlanTrace":
        """Build the trace of the blocks recorded, or, given the
        ``(blocks, accesses)`` shifts :func:`_proven_shifts` proved for
        block 0's global accesses, of every block as block 0 moved by
        its row."""
        for sp in self._specs:
            sp.clear_view_caches()
        t_leaves, t_local = self._template
        # One offset column per global access of the template.
        names = [op[1].tensor.buffer for leaf in t_leaves for op in leaf.ops
                 if _moves(op)]
        if columns is None:
            columns = np.zeros((len(self._blocks), len(names)),
                               dtype=np.int64)
            for bid, block in enumerate(self._blocks):
                if isinstance(block, list) and block:
                    columns[bid] = block
        else:
            self._blocks += [[]] * (len(columns) - len(self._blocks))
        nblocks = len(self._blocks)
        slots: Dict[tuple, int] = {}
        arrays: List[np.ndarray] = []
        offsets: List[np.ndarray] = []

        def slot(key, array, column):
            index = slots.get(key)
            if index is None:
                index = slots[key] = len(arrays)
                arrays.append(array)
                offsets.append(column)
            return index

        zeros = np.zeros(nblocks, dtype=np.int64)

        def absolute(name):
            return slot(("gl", name, zeros.tobytes()), self._globals[name],
                        zeros)

        template_slots = iter([
            slot(("gl", name, columns[:, j].tobytes()),
                 self._globals[name], columns[:, j])
            for j, name in enumerate(names)
        ])
        interner = self._interner
        template = self._build(t_leaves, t_local, slot,
                               lambda name: next(template_slots), interner)
        blocks = []
        for block in self._blocks:
            if isinstance(block, list):
                blocks.append((template, tuple(t_local.values())))
            else:
                leaves, local = block
                blocks.append((self._build(leaves, local, slot, absolute,
                                           interner),
                               tuple(local.values())))
        table = (np.stack(offsets, axis=1) if offsets
                 else np.zeros((nblocks, 0), dtype=np.int64))
        return PlanTrace(blocks, arrays, table, interner.nbytes)

    def _build(self, raw_leaves, local, slot, global_slot, interner):
        """Intern ``raw_leaves`` into replayable leaves.

        Block-local accesses address ``local``'s arrays; each global
        access takes ``global_slot(buffer)``.
        """
        zeros = np.zeros(len(self._blocks), dtype=np.int64)
        lead = interner.object(("group", 1), lambda: _Group(1))
        built: Dict[object, object] = {}
        shared: Dict[int, Optional[_Leaf]] = {}
        leaves = []
        for raw in raw_leaves:
            # A shared raw leaf has only block-local ops: build it once.
            if id(raw) in shared:
                if shared[id(raw)] is not None:
                    leaves.append(shared[id(raw)])
                continue
            shared[id(raw)] = None
            ops = []
            for raw_op in raw.ops:
                kind, vp = raw_op[0], raw_op[1]
                if kind == _SKIP:
                    ops.append(_SKIP_WRITE)
                    continue
                if kind == _ZERO or vp.is_rf or vp.is_sh:
                    index_slot = None
                    key = id(raw_op)  # a shared tuple
                else:
                    index_slot = global_slot(vp.tensor.buffer)
                    key = (index_slot, kind, id(vp), id(raw_op[2]),
                           id(raw_op[3]), id(raw_op[4]), id(raw_op[5]),
                           raw_op[6])
                op = built.get(key)
                if op is None:
                    if index_slot is None and kind != _ZERO:
                        storage = local[(_space(vp), vp.tensor.buffer)]
                        index_slot = slot(("local", id(storage)), storage,
                                          zeros)
                    op = built[key] = self._op(raw_op, index_slot, local,
                                               interner)
                ops.append(op)
            rows = interner.array(raw.rows)
            if rows is not None and rows.size == 0 and not ops:
                continue  # the runner returns before touching anything
            sp = interner.object(("spec", id(raw.sp)),
                                 lambda: _Spec(raw.sp))
            gp = interner.object(("group", raw.gp.nlanes),
                                 lambda: _Group(raw.gp.nlanes, lead))
            key = ("leaf", id(sp), id(gp), id(rows),
                   tuple(id(op) for op in ops))
            leaf = shared[id(raw)] = interner.object(
                key, lambda: _Leaf(sp, gp, rows, tuple(ops)))
            leaves.append(leaf)
        return tuple(leaves)

    def _op(self, raw_op, index_slot, local, interner):
        """The shared replayable op for one raw op at ``index_slot``."""
        kind, vp, lanes, offs, mask, keep, sel_shape = raw_op
        if kind == _ZERO:
            space, name = _space(vp), vp.tensor.buffer
            dtype = (self._globals[name] if space == "gl"
                     else local[(space, name)]).dtype
            return interner.object((_ZERO, sel_shape, dtype.str),
                                   lambda: _ZeroReadOp(sel_shape, dtype))
        offs = interner.array(offs)
        mask = interner.array(mask)
        keep = interner.array(keep)
        if lanes is not None:
            lanes = interner.array(lanes)
            if kind != _MASKED:
                lanes = interner.column(lanes)
            index = (lanes, offs)
        else:
            index = offs
        quantize = vp.tensor.dtype.quantize
        key = (kind, index_slot, id(lanes), id(offs), id(mask), id(keep),
               sel_shape, id(quantize))
        if kind == _READ:
            make = (lambda: _ReadOp(index_slot, index, mask))
        elif kind == _WRITE:
            make = (lambda: _WriteOp(index_slot, index, quantize))
        else:
            make = (lambda: _MaskedWriteOp(index_slot, index, keep,
                                           sel_shape, mask, quantize))
        return interner.object(key, make)


# -- replay --------------------------------------------------------------------
class _TraceReplay:
    """The duck-typed ``run`` object leaf runners see during trace replay.

    ``read_bulk``/``write_bulk`` ignore their view/env/row arguments and
    consume the current leaf's recorded descriptors in order against
    the block's slot bases; row queries return the recorded row set;
    the observer feed is inert (traces only replay observers-off).
    """

    __slots__ = ("leaf", "cursor", "bases", "_aranges")

    def __init__(self):
        self.leaf = None
        self.cursor = 0
        self.bases = None
        self._aranges: Dict[int, np.ndarray] = {}

    def all_rows(self, gp):
        arr = self._aranges.get(gp.nlanes)
        if arr is None:
            arr = np.arange(gp.nlanes)
            arr.setflags(write=False)
            self._aranges[gp.nlanes] = arr
        return arr

    def active_rows(self, gp, env, preds):
        return self.leaf.rows

    def read_bulk(self, vp, env, rows, bulk=False):
        op = self.leaf.ops[self.cursor]
        self.cursor += 1
        return op.gather(self.bases), None

    def write_bulk(self, vp, env, rows, values, bulk=False):
        op = self.leaf.ops[self.cursor]
        self.cursor += 1
        op.scatter(self.bases, values)
        return None

    def emit(self, gp, master_rows, entries):
        pass

    def tma_commit(self):
        # Barriers are not replayed, so there is no TMA ledger to keep.
        pass


class PlanTrace:
    """A recorded grid execution, replayable as flat descriptor math.

    ``blocks`` holds one ``(leaves, local arrays)`` pair per block —
    translated blocks share block 0's; ``arrays`` the slot storage and
    ``offsets`` its ``(blocks, slots)`` start-offset table.
    """

    __slots__ = ("blocks", "arrays", "offsets", "nbytes", "__weakref__")

    def __init__(self, blocks, arrays, offsets, interned_nbytes):
        self.blocks = tuple(blocks)
        self.arrays = tuple(arrays)
        self.offsets = offsets
        local = {id(arr): arr.nbytes for _, arrs in self.blocks
                 for arr in arrs}
        #: Resident bytes of the trace itself: each interned array,
        #: block-local array and the offset table, counted once (the
        #: global arrays belong to whoever bound them).
        self.nbytes = interned_nbytes + sum(local.values()) + offsets.nbytes

    def replay(self, blocks=None) -> None:
        """Re-execute the recorded leaves over the current storage.

        Global arrays are read/written in place (a captured graph's
        copy-in or a network arena's load refreshed them); trace-owned
        shared/register storage is zeroed before each block, exactly
        like a fresh launch.  ``blocks`` (a range, default every block)
        replays only those blocks.
        """
        run = _TraceReplay()
        arrays = self.arrays
        for bid in range(len(self.blocks)) if blocks is None else blocks:
            leaves, local = self.blocks[bid]
            for arr in local:
                arr.fill(0)
            if bid:
                run.bases = [a[o:] if o else a for a, o
                             in zip(arrays, self.offsets[bid].tolist())]
            else:
                run.bases = arrays
            for leaf in leaves:
                run.leaf = leaf
                run.cursor = 0
                sp = leaf.sp
                sp.runner(run, sp, leaf.gp, _EMPTY_ENV, ())
                if run.cursor != len(leaf.ops):
                    raise SimulationError(
                        f"trace replay of {sp.label} consumed {run.cursor} "
                        f"of {len(leaf.ops)} recorded operations — the "
                        "plan no longer matches its recording"
                    )


def _proven_shifts(leaves, grid_size, symbols, profiled):
    """Each block's shift of every global access in block 0's
    ``leaves``, as a ``(blocks, accesses)`` table, or None.

    The view half of the block-translation proof, for a plan whose
    blocks share block 0's control flow
    (:attr:`~repro.sim.plan.LaunchPlan.shared_control`): every access's
    view must carry a block part ``g``
    (:attr:`~repro.sim.plan.ViewPlan.moves`), and each global shift
    ``g(b) - g(0)`` must be non-negative.  When ``profiled``, each shift
    must also move its access by whole 32-byte sectors, so that every
    block's sectors, wavefronts and durations are block 0's.
    """
    env = dict(symbols)
    env[BLOCK] = np.arange(grid_size)
    shifts: Dict[int, np.ndarray] = {}
    columns = []
    for leaf in leaves:
        for op in leaf.ops:
            vp = op[1]
            if vp.moves is None:
                return None
            if not _moves(op):
                continue
            column = shifts.get(id(vp))
            if column is None:
                part = np.broadcast_to(
                    np.asarray(vp.moves(env), dtype=np.int64), (grid_size,))
                column = shifts[id(vp)] = part - part[0]
                if (column < 0).any() or (profiled and (
                        column * vp.tensor.dtype.bytes
                        % GLOBAL_SECTOR_BYTES).any()):
                    return None
            columns.append(column)
    if not columns:
        return np.zeros((grid_size, 0), dtype=np.int64)
    return np.stack(columns, axis=1)


def record_trace(plan, machine, symbols, sanitizer=None,
                 profiler=None) -> PlanTrace:
    """Execute ``plan`` once over ``machine`` and record it as a trace.

    This is a real execution (global buffer contents are consumed and
    overwritten), with any observers attached exactly as in
    :meth:`~repro.sim.plan.LaunchPlan.replay`, so a profiled or
    sanitized first run records at no extra execution.  Without a
    sanitizer, block 0 goes through the plan first; when the blocks
    provably translate it (:func:`_proven_shifts`), blocks 1..N run
    from the trace just recorded and the profiler charges each of them
    as block 0 (:meth:`~repro.sim.profiler.Profiler.repeat_block`).
    Otherwise, and always with a sanitizer (cross-block conflicts need
    every block's accesses), every block goes through the plan.  The
    machine must come fresh from launch binding: pre-existing
    block-scoped state would alias into the trace's storage, which
    takes each block's register files (the machine gets no per-thread
    registers).  Recording empties the plan's view caches: the trace
    holds every array it reads.
    """
    recorder = _TraceRecorder()
    blocks = range(plan.grid_size)
    if sanitizer is None and plan.shared_control and len(blocks) > 1:
        plan.replay(machine, symbols, None, profiler, recorder, blocks[:1])
        columns = _proven_shifts(recorder.template, plan.grid_size, symbols,
                                 profiler is not None)
        if columns is not None:
            trace = recorder.finish(columns)
            trace.replay(blocks[1:])
            if profiler is not None:
                profiler.repeat_block(blocks[1:])
            return trace
        blocks = blocks[1:]
    plan.replay(machine, symbols, sanitizer, profiler, recorder, blocks)
    return recorder.finish()


class RecordedLaunch:
    """One launch bound once to fixed arrays: its trace, and the
    observations it holds.

    A launch's profiler counters, timeline and sanitizer verdict are
    functions of its addresses and control flow, which its signature
    fixes, so each is measured once.  The first :meth:`run` records the
    trace with the observers it asks for; the launch keeps the profile
    and the sanitizer findings (reports and suppressed count, not the
    shadow state) of every observer it has run with.  A run asking for
    one it lacks replays the plan once with that observer
    (:func:`~repro.sim.interp.observed_run`, on a fresh machine so the
    trace's block-local storage is never aliased), and drops the plan.
    Every other run replays the trace.  Runs overwrite the bound
    arrays, so callers take turns.  ``record`` is the function the
    first execution records with.
    """

    __slots__ = ("kernel", "arch", "arrays", "symbols", "machine", "trace",
                 "sanitizer", "profile", "_record")

    def __init__(self, kernel, arch, arrays, symbols=None,
                 record=record_trace):
        self.kernel = kernel
        self.arch = arch
        self.arrays = arrays
        self.symbols = dict(symbols or {})
        #: The first execution's machine, for results: its global
        #: buffers are ``arrays``.
        self.machine: Optional[Machine] = None
        self.trace: Optional[PlanTrace] = None
        self.sanitizer: Optional[Sanitizer] = None
        self.profile = None
        self._record = record

    def run(self, sanitize=False, profile=False) -> RunResult:
        """Execute over the arrays' contents; return the asked-for held
        observations.  ``sanitize=True`` raises the held reports every
        time; ``"report"`` returns them."""
        need_sanitizer = bool(sanitize) and self.sanitizer is None
        need_profile = bool(profile) and self.profile is None
        if self.trace is None or need_sanitizer or need_profile:
            run, trace = observed_run(
                self.kernel, self.arrays, self.symbols,
                lambda: LaunchPlan(self.kernel, self.arch),
                sanitize="report" if need_sanitizer else False,
                profile=need_profile,
                record=self._record if self.trace is None else None)
            if trace is not None:
                self.trace = trace
                self.machine = run.machine
            if run.sanitizer is not None:
                # Keep the verdict, not the shadow state.
                self.sanitizer = Sanitizer()
                self.sanitizer.reports = run.sanitizer.reports
                self.sanitizer.suppressed = run.sanitizer.suppressed
            if run.profile is not None:
                self.profile = run.profile
        else:
            self.trace.replay()
        sanitizer = self.sanitizer if sanitize else None
        if sanitizer is not None and sanitize != "report":
            sanitizer.raise_if_dirty()
        return RunResult(machine=self.machine, sanitizer=sanitizer,
                         profile=self.profile if profile else None)


__all__ = ["PlanTrace", "RecordedLaunch", "record_trace"]
