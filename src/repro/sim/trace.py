"""Execution traces: replay a compiled plan without re-interpreting it.

A :class:`~repro.sim.plan.LaunchPlan` replay still walks the compiled
statement tree every time — loop bounds re-evaluate, environment dicts
rebuild, every view re-resolves its offset arrays through a cache keyed
on loop-variable values, and every buffer re-resolves through the
machine tables.  All of that work is *replay-invariant*: for a fixed
(kernel, symbols, binding shapes) signature the control flow, the row
sets, the offset/mask arrays and the buffer sizes come out identical on
every run — only the data differs (runners never branch on values).

So a :class:`PlanTrace` records, during one instrumented observers-off
replay, the flat sequence of leaf executions with everything resolved:

* the active row set of each leaf,
* per gather/scatter, the final index arrays (and guard masks) with a
  *direct reference* to the backing storage — the machine's global
  arrays (a captured graph's static slots) and trace-owned
  shared-memory / register-file arrays pre-sized at their final
  capacities,
* the total shared-memory bank-model charge, pre-aggregated (the bank
  counters are commutative sums and a max, so one bulk update equals
  the per-access feed exactly).

Replaying the trace then runs only the runners' data math: the recorded
descriptors stand in for ``read_bulk``/``write_bulk`` and control flow
disappears entirely.  Outputs and bank counters are bit-identical to a
plan replay because the descriptors *are* the arrays the plan engine
computed, consumed in the same order, and growth-by-zero-fill semantics
make the pre-sized trace storage indistinguishable from lazily grown
buffers.

Limits: traces carry no observer stream, so sanitized/profiled replays
must use the exact plan path; plans containing scalar-fallback leaves
(no vectorized runner) are not traceable and :func:`record_trace`
returns None.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from .errors import SimulationError
from .machine import BankModel
from .plan import _Replay

#: Immutable empty environment handed to runners during trace replay;
#: recorded descriptors already bind every env-dependent quantity.
_EMPTY_ENV: dict = {}


class _Untraceable(Exception):
    """Raised mid-recording when the plan cannot be traced."""


# -- recorded operations -------------------------------------------------------
class _ReadOp:
    """One resolved gather: ``buf[index]`` plus the guard-mask fill."""

    __slots__ = ("space", "name", "buf", "index", "mask")

    def __init__(self, space, name, index, mask):
        self.space = space
        self.name = name
        self.buf = None  # patched by _finalize_block
        self.index = index
        self.mask = mask

    def gather(self):
        buf = self.buf
        values = buf[self.index]
        if self.mask is not None:
            values = np.where(self.mask, values, 0).astype(buf.dtype)
        return values


class _WriteOp:
    """One resolved unguarded scatter: ``buf[index] = values``."""

    __slots__ = ("space", "name", "buf", "index")

    def __init__(self, space, name, index):
        self.space = space
        self.name = name
        self.buf = None
        self.index = index

    def scatter(self, values):
        buf = self.buf
        buf[self.index] = values.astype(buf.dtype, copy=False)


class _MaskedWriteOp:
    """A guarded scatter: drop masked-out lanes, flatten, assign.

    ``keep`` is the partial row filter (None when every row kept at
    least one element), ``sel_shape`` the post-filter selection shape
    the values broadcast against, ``mask`` the post-filter guard.
    """

    __slots__ = ("space", "name", "buf", "index", "keep", "sel_shape",
                 "mask")

    def __init__(self, space, name, index, keep, sel_shape, mask):
        self.space = space
        self.name = name
        self.buf = None
        self.index = index
        self.keep = keep
        self.sel_shape = sel_shape
        self.mask = mask

    def scatter(self, values):
        if self.keep is not None:
            values = np.broadcast_to(
                values, self.keep.shape + values.shape[1:])[self.keep]
        self.buf[self.index] = np.broadcast_to(
            values, self.sel_shape)[self.mask]


class _SkipWriteOp:
    """A fully-guarded-out write: no buffer effect at all."""

    __slots__ = ()

    def scatter(self, values):
        pass


_SKIP_WRITE = _SkipWriteOp()


class _Leaf:
    """One recorded leaf execution: its spec plan, group, rows and ops."""

    __slots__ = ("sp", "gp", "rows", "ops")

    def __init__(self, sp, gp):
        self.sp = sp
        self.gp = gp
        self.rows = None
        self.ops: List[object] = []


# -- recording -----------------------------------------------------------------
def _op_space(vp) -> str:
    if vp.is_rf:
        return "rf"
    if vp.is_sh:
        return "sh"
    return "gl"


class _TraceRecorder:
    """Hook target installed on a :class:`~repro.sim.plan._Replay`.

    The plan engine calls ``begin_leaf`` / ``on_rows`` / ``on_read`` /
    ``on_write_*`` while executing normally; the recorder mirrors every
    resolved access into descriptor form and charges a private bank
    model with the same byte rows the machine's model saw.
    """

    def __init__(self):
        self.leaves: List[_Leaf] = []
        self.bank = BankModel()
        self._ops: Optional[List[object]] = None

    def begin_leaf(self, sp, gp) -> None:
        if sp.runner is None:
            raise _Untraceable(
                f"{sp.label} executes through the scalar fallback"
            )
        leaf = _Leaf(sp, gp)
        self.leaves.append(leaf)
        self._ops = leaf.ops

    def on_rows(self, rows) -> None:
        self.leaves[-1].rows = rows

    def on_read(self, vp, offs_eff, mask_sel, lane_ids, fill,
                bank) -> None:
        if fill != 0:
            raise _Untraceable("read with a non-zero guard fill")
        index = ((lane_ids[:, None], offs_eff) if lane_ids is not None
                 else offs_eff)
        self._ops.append(
            _ReadOp(_op_space(vp), vp.tensor.buffer, index, mask_sel))
        if bank:
            self.bank.record_batch(offs_eff * vp.itemsize)

    def on_write_plain(self, vp, offs_sel, lane_ids, bank) -> None:
        index = ((lane_ids[:, None], offs_sel) if lane_ids is not None
                 else offs_sel)
        self._ops.append(
            _WriteOp(_op_space(vp), vp.tensor.buffer, index))
        if bank:
            self.bank.record_batch(offs_sel * vp.itemsize)

    def on_write_masked(self, vp, offs_sel, mask_sel, keep,
                        flat_offs, lane_mat, bank) -> None:
        index = (lane_mat, flat_offs) if lane_mat is not None else flat_offs
        self._ops.append(_MaskedWriteOp(
            _op_space(vp), vp.tensor.buffer, index,
            None if keep.all() else keep, offs_sel.shape, mask_sel,
        ))
        if bank:
            self.bank.record_batch(offs_sel * vp.itemsize)

    def on_write_skip(self) -> None:
        self._ops.append(_SKIP_WRITE)


def _finalize_block(leaves, machine, regfile, bid):
    """Patch direct buffer references and steal the block's storage.

    Register-file staging arrays and the block's shared buffers are at
    their final capacities once the recording replay of the block ends;
    the trace takes ownership (the capture machine is reset on every
    graph replay, so nothing else aliases them) and zero-fills them per
    replay — identical to the zero-filled lazy growth the plan engine
    would redo.
    """
    shared = {name: arr for (b, name), arr in machine._shared.items()
              if b == bid}
    for leaf in leaves:
        for op in leaf.ops:
            if op is _SKIP_WRITE:
                continue
            if op.space == "rf":
                op.buf = regfile._arrays[op.name]
            elif op.space == "sh":
                op.buf = shared[op.name]
            else:
                op.buf = machine._global[op.name]
    return list(regfile._arrays.values()) + list(shared.values())


# -- replay --------------------------------------------------------------------
class _TraceReplay:
    """The duck-typed ``run`` object leaf runners see during trace replay.

    ``read_bulk``/``write_bulk`` ignore their view/env/row arguments and
    consume the current leaf's recorded descriptors in order; row
    queries return the recorded row set; the observer feed is inert
    (traces only replay observers-off).
    """

    __slots__ = ("_leaf", "_cursor", "_aranges")

    def __init__(self):
        self._leaf = None
        self._cursor = 0
        self._aranges: Dict[int, np.ndarray] = {}

    def all_rows(self, gp):
        arr = self._aranges.get(gp.nlanes)
        if arr is None:
            arr = np.arange(gp.nlanes)
            arr.setflags(write=False)
            self._aranges[gp.nlanes] = arr
        return arr

    def active_rows(self, gp, env, preds):
        return self._leaf.rows

    def read_bulk(self, vp, env, rows, fill=0, bulk=False):
        op = self._leaf.ops[self._cursor]
        self._cursor += 1
        return op.gather(), None

    def write_bulk(self, vp, env, rows, values, bulk=False):
        op = self._leaf.ops[self._cursor]
        self._cursor += 1
        op.scatter(np.asarray(values))
        return None

    def emit(self, gp, master_rows, entries):
        pass

    def emit_entry_order(self, gp, entry):
        pass

    def tma_commit(self):
        # Barriers are not replayed, so there is no TMA ledger to keep.
        pass


class PlanTrace:
    """A recorded grid execution, replayable as flat descriptor math."""

    __slots__ = ("leaves", "zero_arrays", "bank_accesses",
                 "bank_transactions", "bank_worst", "nbytes")

    def __init__(self, leaves, zero_arrays, bank: BankModel):
        self.leaves = tuple(leaves)
        self.zero_arrays = tuple(zero_arrays)
        self.bank_accesses = bank.accesses
        self.bank_transactions = bank.transactions
        self.bank_worst = bank.worst_degree
        seen = set()
        total = 0
        for arr in self.zero_arrays:
            seen.add(id(arr))
            total += arr.nbytes
        for leaf in self.leaves:
            for op in leaf.ops:
                if op is _SKIP_WRITE:
                    continue
                parts = (op.index if isinstance(op.index, tuple)
                         else (op.index,))
                mask = getattr(op, "mask", None)
                keep = getattr(op, "keep", None)
                for arr in parts + (mask, keep):
                    if arr is not None and id(arr) not in seen:
                        seen.add(id(arr))
                        total += arr.nbytes
        self.nbytes = total

    def replay(self, bank_model: Optional[BankModel] = None) -> None:
        """Re-execute the recorded leaves over the current storage.

        Global arrays are read/written in place (a captured graph's
        copy-in refreshed them); trace-owned shared/register storage is
        zeroed first, exactly like a fresh launch.
        """
        for arr in self.zero_arrays:
            arr.fill(0)
        run = _TraceReplay()
        for leaf in self.leaves:
            run._leaf = leaf
            run._cursor = 0
            sp = leaf.sp
            sp.runner(run, sp, leaf.gp, _EMPTY_ENV, ())
            if run._cursor != len(leaf.ops):
                raise SimulationError(
                    f"trace replay of {sp.label} consumed {run._cursor} "
                    f"of {len(leaf.ops)} recorded operations — the plan "
                    "no longer matches its recording"
                )
        if bank_model is not None:
            bank_model.accesses += self.bank_accesses
            bank_model.transactions += self.bank_transactions
            if self.bank_worst > bank_model.worst_degree:
                bank_model.worst_degree = self.bank_worst


def record_trace(plan, machine, symbols) -> Optional[PlanTrace]:
    """Record one observers-off grid replay of ``plan`` into a trace.

    Executes the plan for real on ``machine`` (global buffer contents
    are consumed and overwritten — callers reset/copy-in before any
    replay anyway) and returns the trace, or None when the plan has
    untraceable leaves.  The machine must come fresh from launch
    binding: pre-existing block-scoped state would alias into the
    trace's stolen storage.
    """
    recorder = _TraceRecorder()
    zero_arrays: List[np.ndarray] = []
    try:
        for bid in range(plan.grid_size):
            env = dict(symbols)
            env["blockIdx.x"] = bid
            run = _Replay(plan, machine, None, None, bid)
            run._trace = recorder
            first = len(recorder.leaves)
            plan.root.execute(run, env, ())
            block_leaves = recorder.leaves[first:]
            for leaf in block_leaves:
                leaf.ops = tuple(leaf.ops)
            zero_arrays.extend(
                _finalize_block(block_leaves, machine, run.regfile, bid))
    except _Untraceable:
        return None
    return PlanTrace(recorder.leaves, zero_arrays, recorder.bank)


__all__ = ["PlanTrace", "record_trace"]
