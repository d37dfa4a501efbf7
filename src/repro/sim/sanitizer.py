"""Shared-memory race and memory sanitizer for the functional simulator.

The simulator executes kernels in statement-lockstep: every statement
completes for all threads before the next begins, a semantics at least
as strong as barrier-correct hardware execution.  That strength hides a
whole bug class — a decomposition with a *missing or misplaced*
``__syncthreads()`` still produces correct numerics here while racing on
a real GPU.  This module restores the weaker hardware contract as an
opt-in analysis: instead of trusting lockstep masking, it tracks every
thread's read/write sets on shared and global buffers between barrier
points and reports the hazards barriers exist to prevent.

The model is the classic barrier-epoch discipline (the same one
``compute-sanitizer --tool racecheck`` checks):

* a block-scope barrier (:class:`~repro.ir.stmt.SyncThreads`) starts a
  new *block epoch* — accesses on opposite sides of it are ordered;
* a warp-scope barrier (:class:`~repro.ir.stmt.SyncWarp`) starts a new
  *warp epoch* — it orders accesses of threads in the same warp only;
* two accesses to the same element by distinct threads, at least one a
  write, with no ordering barrier between them, are a data race
  (RAW / WAR / WAW by access kinds);
* there is no grid-wide barrier, so conflicting global-memory accesses
  from different blocks always race.

On top of race detection the sanitizer checks every access against the
declared ``Allocate`` cosize (out-of-bounds), flags reads of shared or
register elements no thread has written (uninitialized reads — the
simulator's zero-fill hides them; hardware returns garbage), and flags
barriers executed under thread-dependent predicates (divergent
barriers, which deadlock or UB on hardware).

Per buffer and scope the state is shadow memory, not a record list per
element: ``owner``/``wowner`` hold, per element, the one thread that
made every access/write (or "none" / "several").  Reads never race
reads, so only elements where another thread wrote (for a read) or
accessed (for a write) can conflict; the first time one might, its
distinct records are rebuilt in arrival order from a per-buffer call
log and it keeps the exact first-conflict scan from then on.  Reports,
their order and ``suppressed`` are those of a full scan, at a cost
linear in the accesses, not quadratic in the threads sharing an element.

The single access funnel is :meth:`Sanitizer.record`, called once per
emitted item: every access of one spec execution, as its lanes in
arrival order plus one ``(rows × elements)`` offset matrix per entry.
An item that provably cannot report or promote — every buffer
declared, every live offset in bounds, every shared/register read
hitting an element written before the item, no summary naming another
thread for a conflicting access, every written element touched by one
thread — updates the summaries, the written bitmaps and the call log in
a few numpy operations.  Any other item walks lanes-outer,
entries-inner through the exact per-access check, the only code that
reports.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from ..ir.stmt import (
    Barrier, Block, ForLoop, If, SpecStmt, Stmt,
)
from ..tensor.memspace import GL, SH, MemSpace

#: Threads per warp on every modelled architecture.
WARP_SIZE = 32

#: Offset lists longer than this take the numpy path; shorter ones index
#: the shadow arrays from Python, which is cheaper for the many register
#: and fragment accesses that carry only a few offsets each.
_SHORT = 32

#: Shadow summary codes; thread keys (``block * 65536 + lane``) are >= 0.
_NONE, _MANY, _EXACT = -1, -2, -3

#: Emission-entry kind -> the access kind checked (TMA bulk traffic is an
#: ordinary read/write here; only the profiler tells them apart).
_KINDS = {"read": "read", "write": "write",
          "bulk_read": "read", "bulk_write": "write"}

#: Access-kind pair -> hazard name (earlier access first).
_HAZARDS = {
    ("write", "read"): "raw-race",
    ("read", "write"): "war-race",
    ("write", "write"): "waw-race",
}


class SanitizerError(RuntimeError):
    """Raised by ``Simulator.run(..., sanitize=True)`` on any finding.

    Carries the full report list in ``reports``.
    """

    def __init__(self, reports: Sequence["SanitizerReport"], suppressed: int = 0):
        self.reports = list(reports)
        self.suppressed = suppressed
        lines = [r.describe() for r in self.reports[:8]]
        if len(self.reports) > 8:
            lines.append(f"... {len(self.reports) - 8} further reports")
        if suppressed:
            lines.append(f"... {suppressed} duplicate findings suppressed")
        super().__init__(
            f"sanitizer found {len(self.reports)} hazard(s):\n  "
            + "\n  ".join(lines)
        )


class SanitizerReport:
    """One hazard: what, where, and which threads collided."""

    __slots__ = (
        "kind", "buffer", "mem", "element", "threads", "block", "epoch",
        "spec", "detail",
    )

    def __init__(self, kind, buffer, mem, element, threads, block, epoch,
                 spec, detail=""):
        self.kind = kind
        self.buffer = buffer
        self.mem = mem
        self.element = element
        self.threads = tuple(threads)
        self.block = block
        self.epoch = epoch
        self.spec = spec
        self.detail = detail

    def describe(self) -> str:
        where = f"{self.mem}:{self.buffer}[{self.element}]"
        who = ",".join(f"t{t}" for t in self.threads)
        head = (
            f"{self.kind} on {where} (block {self.block}, epoch "
            f"{self.epoch}, threads {who}) in {self.spec}"
        )
        return f"{head}: {self.detail}" if self.detail else head

    def __repr__(self):
        return f"SanitizerReport<{self.describe()}>"


def verdict(sanitizer) -> Optional[tuple]:
    """Every field of every report, plus ``suppressed``: two sanitizers
    reached the same verdict exactly when these compare equal."""
    if sanitizer is None:
        return None
    return ([(r.kind, r.buffer, str(r.mem), r.element, r.threads, r.block,
              r.epoch, r.spec, r.detail) for r in sanitizer.reports],
            sanitizer.suppressed)


def _lane_accesses(lanes, entries):
    """An item's ``(lane, tensor, kind, live offsets)`` accesses in
    arrival order: lanes-outer, entries-inner."""
    prepared = [(tensor, _KINDS[kind], offs, mask, None if rows is None
                 else {pos: i for i, pos in enumerate(np.asarray(rows)
                                                       .tolist())})
                for tensor, kind, offs, mask, rows in entries]
    if isinstance(lanes, np.ndarray):
        lanes = lanes.tolist()
    for pos, lane in enumerate(lanes):
        for tensor, kind, offs, mask, rowmap in prepared:
            i = pos if rowmap is None else rowmap.get(pos)
            if i is None:
                continue
            live = offs[i] if mask is None else offs[i][mask[i]]
            if len(live):
                yield lane, tensor, kind, live


class _Item:
    """One batched item's accesses to one buffer, logged for
    :meth:`_Shadow.promote`.  Expanding it yields the ``(record,
    offsets)`` pairs the exact walk would have logged for those
    accesses, in arrival order.
    """

    __slots__ = ("block", "bepoch", "wepoch", "spec", "lanes", "entries",
                 "elems")

    def __init__(self, block, bepoch, wepoch, spec, lanes):
        self.block = block
        self.bepoch = bepoch
        self.wepoch = wepoch
        self.spec = spec
        self.lanes = lanes
        #: The item's entries on this buffer, and their live elements.
        self.entries = []
        self.elems = []

    def add(self, entry, elems) -> None:
        self.entries.append(entry)
        self.elems.append(elems)

    def touches(self, wanted: np.ndarray) -> bool:
        return any(np.isin(elems, wanted).any() for elems in self.elems)

    def expand(self, warp_size: int):
        for lane, _, kind, live in _lane_accesses(self.lanes, self.entries):
            yield ((self.block, lane, lane // warp_size, self.bepoch,
                    self.wepoch, kind, self.spec), live.tolist())


class _Shadow:
    """One buffer's race state for a scope (the launch for GL, a block
    epoch for SH): the ``owner``/``wowner`` summaries, the full record
    lists of promoted elements (``hist``) and the call ``log`` — one
    ``(record, offsets)`` pair per walked lane access and one
    :class:`_Item` per batched item."""

    __slots__ = ("owner", "wowner", "hist", "log")

    def __init__(self, size: Optional[int]):
        self.owner = array("q", [_NONE]) * (size or 0)
        self.wowner = array("q", [_NONE]) * (size or 0)
        self.hist: Dict[int, List[tuple]] = {}
        self.log: List[object] = []

    def promote(self, need: Set[int], warp_size: int) -> None:
        """Give each element of ``need`` its distinct records, in order."""
        hist = self.hist
        for off in need:
            self.owner[off] = self.wowner[off] = _EXACT
            hist[off] = []
        wanted = None
        for logged in self.log:
            if isinstance(logged, _Item):
                if wanted is None:
                    wanted = np.fromiter(need, np.int64, len(need))
                if not logged.touches(wanted):
                    continue
                pairs = logged.expand(warp_size)
            else:
                pairs = (logged,)
            for rec, offs in pairs:
                if isinstance(offs, np.ndarray):
                    offs = offs.tolist()
                if need.isdisjoint(offs):
                    continue
                for off in need.intersection(offs):
                    entries = hist[off]
                    if rec not in entries:
                        entries.append(rec)


class Sanitizer:
    """Per-launch access tracker; attach via ``Simulator.run(sanitize=)``.

    The plan replay drives it: :meth:`declare` for every ``Allocate``
    and kernel parameter, :meth:`begin_block` per thread-block,
    :meth:`barrier` at sync statements, :meth:`enter_spec` before each
    atomic executes, and :meth:`record` once per emitted item — every
    access of one spec execution.
    """

    def __init__(self, warp_size: int = WARP_SIZE, max_reports: int = 64):
        self.warp_size = warp_size
        self.max_reports = max_reports
        self.reports: List[SanitizerReport] = []
        self.suppressed = 0
        #: Items applied in bulk / walked access by access.
        self.batched = 0
        self.walked = 0
        self._sizes: Dict[str, int] = {}
        # Buffer -> shadow state.  Shared state is cleared at block
        # barriers (and block entry); global state spans the whole
        # launch because no grid-wide barrier exists.
        self._shared: Dict[str, _Shadow] = {}
        self._global: Dict[str, _Shadow] = {}
        # (buffer, block) -> bitmap of written elements: one row for SH,
        # one row per thread for RF (grown to the highest lane seen).
        # Out-of-bounds writes go to a per-buffer set of (scope key,
        # element) pairs; the scope key is the block for SH and
        # (block, thread) for RF.
        self._written: Dict[tuple, bytearray] = {}
        self._written_oob: Dict[str, Set[tuple]] = {}
        self._seen: Set[tuple] = set()
        self._block = 0
        self._bepoch = 0
        self._wepoch = 0
        self._block_epoch_base = 0
        self._spec = "<launch>"

    # -- replay lifecycle hooks -------------------------------------------------
    def declare(self, buffer: str, mem: MemSpace, size: int) -> None:
        """Register a buffer's memory space and legal element count."""
        self._sizes[buffer] = size

    def begin_block(self, block_id: int) -> None:
        """Reset per-block state; epochs keep increasing monotonically."""
        self._block = block_id
        self._shared.clear()
        self._bepoch += 1
        self._wepoch += 1
        self._block_epoch_base = self._bepoch

    def enter_spec(self, label: str) -> None:
        self._spec = label

    def barrier(self, scope: str, divergent_lanes: int = 0) -> None:
        """Advance the epoch for a ``"block"``- or ``"warp"``-scope barrier."""
        if divergent_lanes:
            self._report(
                "divergent-barrier", "<barrier>", SH, -1, (),
                f"{scope}-scope barrier executed under a thread-dependent "
                f"predicate masking {divergent_lanes} lane(s); this "
                "deadlocks or is undefined on hardware",
                dedup=("divergent-barrier", self._spec, scope),
            )
        self._wepoch += 1
        if scope == "block":
            self._bepoch += 1
            # A block barrier orders everything: conflicts can no longer
            # arise against pre-barrier shared accesses.
            self._shared.clear()

    # -- the access funnel --------------------------------------------------------
    def record(self, block: int, lanes, entries: Sequence[tuple]) -> None:
        """Record one emitted item.

        ``lanes[p]`` is the thread of the item's ``p``-th position, in
        arrival order.  Each entry ``(tensor, kind, offsets, mask,
        rows)`` holds a ``(rows × elements)`` physical offset matrix (an
        int ndarray; a one-lane item may pass a sequence of rows), its
        guard mask (None when every element is live; guarded-out
        elements never reach memory) and the positions its rows belong
        to (None when row ``i`` is position ``i``).  The accesses arrive
        lanes-outer, entries-inner, as a per-lane execution issues them.
        ``kind`` is ``read``/``write`` (``bulk_*`` TMA traffic is an
        ordinary read/write here).
        """
        # A one-lane item walks: its exact walk is already one pass.
        if len(lanes) > 1 and self._batch(block, lanes, entries):
            self.batched += 1
            return
        self.walked += 1
        for lane, tensor, kind, live in _lane_accesses(lanes, entries):
            self._access(tensor, block, lane, live, kind)

    def _batch(self, block, lanes, entries) -> bool:
        """Apply an item that provably cannot report or promote in bulk.

        It qualifies when every buffer it touches is declared, every
        live offset is in bounds, every SH/RF read hits an element
        written before the item, no summary names another thread for a
        conflicting access, and each element it writes is touched by
        one thread only.  Returns False, having changed nothing, for
        any other item.
        """
        lanes = np.asarray(lanes, dtype=np.int64)
        base = block * 65536
        writes = []  # (bitmap key, flat bitmap indices, bitmap length)
        races = []  # (shadow, owner view, elems, keys, prior, kind, entry)
        for entry in entries:
            tensor, kind, offs, mask, rows = entry
            kind = _KINDS[kind]
            name = tensor.buffer
            size = self._sizes.get(name)
            if size is None:
                return False
            row_lanes = lanes if rows is None else \
                lanes[np.asarray(rows, dtype=np.int64)]
            if mask is None:
                elems = offs.reshape(-1)
                thr = np.repeat(row_lanes, offs.shape[1])
            else:
                elems = offs[mask]
                thr = np.broadcast_to(row_lanes[:, None], offs.shape)[mask]
            if not elems.size:
                continue
            if elems.min() < 0 or elems.max() >= size:
                return False
            mem = tensor.mem
            if mem != GL:
                flat = elems if mem == SH else thr * size + elems
                if kind == "read":
                    bits = self._written.get((name, block))
                    if bits is None or int(flat.max()) >= len(bits) or \
                            not np.frombuffer(bits, np.uint8)[flat].all():
                        return False
                else:
                    writes.append(((name, block), flat, size if mem == SH
                                   else self._rf_length(int(thr.max()),
                                                        size)))
                if mem != SH:
                    continue
            keys = thr + base
            table = self._global if mem == GL else self._shared
            state = table.get(name)
            if state is None:
                state = table[name] = _Shadow(size)
            summary = np.frombuffer(
                state.wowner if kind == "read" else state.owner,
                dtype=np.int64)[elems]
            if not ((summary == _NONE) | (summary == keys)).all():
                return False
            owner = np.frombuffer(state.owner, dtype=np.int64)
            races.append((state, owner, elems, keys, owner[elems], kind,
                          entry))
        # The owner summaries double as scratch for the one-thread rule:
        # scatter every access's thread key, and an element whose read-
        # back differs anywhere was touched by several threads.
        for _, owner, elems, keys, _, _, _ in races:
            owner[elems] = keys
        for _, owner, elems, keys, _, _, _ in races:
            owner[elems[owner[elems] != keys]] = _MANY
        for _, owner, elems, _, _, kind, _ in races:
            if kind == "write" and (owner[elems] == _MANY).any():
                for _, owner, elems, _, prior, _, _ in races:
                    owner[elems] = prior
                return False
        # Proven.  An element one thread touched keeps that thread only
        # if no other thread had touched it before the item.
        for key, flat, need in writes:
            bits = self._written.get(key)
            if bits is None:
                bits = self._written[key] = bytearray()
            if len(bits) < need:
                bits.extend(bytes(need - len(bits)))
            np.frombuffer(bits, np.uint8)[flat] = 1
        logged = {}
        for state, owner, elems, keys, prior, kind, entry in races:
            owner[elems[(prior != _NONE) & (prior != keys)]] = _MANY
            if kind == "write":
                np.frombuffer(state.wowner, dtype=np.int64)[elems] = keys
            item = logged.get(id(state))
            if item is None:
                item = logged[id(state)] = _Item(
                    block, self._bepoch, self._wepoch, self._spec, lanes)
                state.log.append(item)
            item.add(entry, elems)
        return True

    def _access(self, tensor, block: int, lane: int,
                offsets: Sequence[int], kind: str) -> None:
        """The exact check of one lane's live element accesses to a
        tensor view: a list or an int ndarray of offsets."""
        mem = tensor.mem
        name = tensor.buffer
        size = self._sizes.get(name)
        vec = len(offsets) > _SHORT
        if vec:
            offsets = np.asarray(offsets, dtype=np.int64)
        elif isinstance(offsets, np.ndarray):
            offsets = offsets.tolist()
        lo, hi = (offsets.min(), offsets.max()) if vec else \
            (min(offsets), max(offsets))
        inb = size is not None and lo >= 0 and hi < size
        if not inb:
            if vec:
                offsets, vec = offsets.tolist(), False
            if size is not None:
                bad = [off for off in offsets if off < 0 or off >= size]
                self._flag(
                    "out-of-bounds", name, mem, lane, bad,
                    f"{kind} at element {bad[0]} of a {size}-element "
                    "allocation",
                    ("out-of-bounds", name, self._spec, kind),
                )
        if mem == GL:
            self._record_race(self._global, name, mem, size, block, lane,
                              offsets, kind, vec)
            return
        n = size or 0
        if mem == SH:
            scope, first = block, 0
        else:
            scope, first = (block, lane), lane * n
        bits = self._written.get((name, block))
        if bits is None:
            bits = self._written[(name, block)] = bytearray()
        if len(bits) < first + n:
            bits.extend(bytes((n if mem == SH else self._rf_length(lane, n))
                              - len(bits)))
        oob = self._written_oob.setdefault(name, set())
        if kind == "read":
            if vec:
                bad = offsets[np.frombuffer(bits, np.uint8)[
                    offsets + first] == 0]
            else:
                bad = [off for off in offsets if not (
                    bits[first + off] if 0 <= off < n
                    else (scope, off) in oob)]
            if len(bad):
                self._flag(
                    "uninitialized-read", name, mem, lane, bad,
                    "element was never written in this "
                    + ("block" if mem == SH else "thread")
                    + " (simulator zero-fill hides this; hardware "
                    "returns garbage)",
                    ("uninitialized-read", name, self._spec),
                )
        elif vec:
            np.frombuffer(bits, np.uint8)[offsets + first] = 1
        else:
            for off in offsets:
                if 0 <= off < n:
                    bits[first + off] = 1
                else:
                    oob.add((scope, off))
        if mem == SH:
            self._record_race(self._shared, name, mem, size, block, lane,
                              offsets, kind, vec)

    def _rf_length(self, lane: int, size: int) -> int:
        """Bytes of a register bitmap with a row for ``lane``: rows come
        a warp at a time, so a block's bitmap grows to its size."""
        return (lane // self.warp_size + 1) * self.warp_size * size

    def _flag(self, kind, buffer, mem, lane, bad, detail, dedup) -> None:
        """Report the first of ``bad`` offsets: the rest share its dedup
        key, so each one is a suppressed finding."""
        self._report(kind, buffer, mem, int(bad[0]), (lane,), detail, dedup)
        self.suppressed += len(bad) - 1

    def _record_race(self, table, name, mem, size, block, lane, offsets,
                     kind, vec):
        state = table.get(name)
        if state is None:
            state = table[name] = _Shadow(size)
        rec = (block, lane, lane // self.warp_size, self._bepoch,
               self._wepoch, kind, self._spec)
        key = block * 65536 + lane
        owner, wowner = state.owner, state.wowner
        n = len(owner)
        # Reads never race reads, so a read can conflict only with a
        # write by another thread, a write with any access by another
        # thread; every other element just updates its summaries.
        if vec:
            owner_v = np.frombuffer(owner, dtype=np.int64)
            wowner_v = np.frombuffer(wowner, dtype=np.int64)
            if kind == "read":
                w = wowner_v[offsets]
                maybe = (w != _NONE) & (w != key)
                free = offsets[~maybe]
                o = owner_v[free]
                owner_v[free] = np.where((o == _NONE) | (o == key), key,
                                         _MANY)
            else:
                o = owner_v[offsets]
                maybe = (o != _NONE) & (o != key)
                free = offsets[~maybe]
                owner_v[free] = wowner_v[free] = key
            exact = offsets[maybe].tolist()
        else:
            exact = []
            for off in offsets:
                if not 0 <= off < n:
                    exact.append(off)
                elif kind == "read":
                    w = wowner[off]
                    if w != _NONE and w != key:
                        exact.append(off)
                    else:
                        o = owner[off]
                        if o != key:
                            owner[off] = key if o == _NONE else _MANY
                else:
                    o = owner[off]
                    if o != _NONE and o != key:
                        exact.append(off)
                    else:
                        owner[off] = wowner[off] = key
        if exact:
            need = {off for off in exact
                    if 0 <= off < n and owner[off] != _EXACT}
            if need:
                state.promote(need, self.warp_size)
            hist = state.hist
            for off in exact:
                entries = hist.setdefault(off, [])
                for other in entries:
                    hazard = self._conflict(other, rec)
                    if hazard is not None:
                        self._report(
                            hazard, name, mem, off, (other[1], lane),
                            f"{other[5]} by thread {other[1]} in {other[6]} "
                            f"and {kind} by thread {lane} in {self._spec} "
                            "with no ordering barrier between them",
                            dedup=(hazard, name, other[6], self._spec),
                            block=block,
                        )
                        break
                if rec not in entries:
                    entries.append(rec)
        state.log.append((rec, offsets))

    def _conflict(self, a: tuple, b: tuple) -> Optional[str]:
        """Hazard name when records ``a`` (earlier) and ``b`` race."""
        a_block, a_thread, a_warp, a_bepoch, a_wepoch, a_kind, _ = a
        b_block, b_thread, b_warp, b_bepoch, b_wepoch, b_kind, _ = b
        if a_kind == "read" and b_kind == "read":
            return None
        if a_block == b_block and a_thread == b_thread:
            return None  # program order within one thread
        if a_block != b_block:
            return _HAZARDS[(a_kind, b_kind)]  # no grid-wide barrier
        if a_bepoch != b_bepoch:
            return None  # a block barrier separates them
        if a_warp == b_warp and a_wepoch != b_wepoch:
            return None  # a warp barrier separates same-warp threads
        return _HAZARDS[(a_kind, b_kind)]

    # -- reporting ---------------------------------------------------------------
    def _report(self, kind, buffer, mem, element, threads, detail,
                dedup: tuple, block: Optional[int] = None) -> None:
        if dedup in self._seen:
            self.suppressed += 1
            return
        self._seen.add(dedup)
        if len(self.reports) >= self.max_reports:
            self.suppressed += 1
            return
        self.reports.append(SanitizerReport(
            kind, buffer, mem, element,
            threads, self._block if block is None else block,
            self._bepoch - self._block_epoch_base, self._spec, detail,
        ))

    def clean(self) -> bool:
        return not self.reports

    def raise_if_dirty(self) -> None:
        if self.reports:
            raise SanitizerError(self.reports, self.suppressed)


# -- mutation utility for sanitizer tests --------------------------------------------
def strip_barriers(obj):
    """A copy of a kernel (or statement) with every barrier removed.

    The canonical racy mutant: lockstep simulation computes identical
    numerics for it, but the sanitizer must flag the races the barriers
    were preventing.  Accepts a :class:`~repro.specs.kernel.Kernel` or
    any :class:`~repro.ir.stmt.Stmt`.
    """
    from ..specs.kernel import Kernel

    if isinstance(obj, Kernel):
        return Kernel(obj.name, obj.grid, obj.block, obj.params,
                      _strip_block(obj.body), obj.symbols)
    stripped = _strip_stmt(obj)
    if stripped is None:
        return Block(())
    return stripped


def _strip_block(block: Block) -> Block:
    out = []
    for stmt in block:
        stripped = _strip_stmt(stmt)
        if stripped is not None:
            out.append(stripped)
    return Block(out)


def _strip_stmt(stmt: Stmt) -> Optional[Stmt]:
    if isinstance(stmt, Barrier):
        return None
    if isinstance(stmt, Block):
        return _strip_block(stmt)
    if isinstance(stmt, ForLoop):
        return ForLoop(stmt.var, stmt.stop, _strip_block(stmt.body),
                       start=stmt.start, step=stmt.step, unroll=stmt.unroll)
    if isinstance(stmt, If):
        orelse = _strip_block(stmt.orelse) if stmt.orelse is not None else None
        return If(stmt.predicates, _strip_block(stmt.then), orelse)
    if isinstance(stmt, SpecStmt) and stmt.spec.body is not None:
        return SpecStmt(stmt.spec.with_body(_strip_block(stmt.spec.body)))
    return stmt
