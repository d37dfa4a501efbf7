"""Instruction-level profiler for the functional simulator.

The paper validates every optimization with Nsight Compute counters
(Figures 9-15 report measured global/shared transactions, bank
conflicts, and mma issue counts).  The simulator substitutes for the
GPU; this module substitutes for the *profiler*: an opt-in observer that
sees every element access the sanitizer sees (one lanes-by-elements
matrix at a time from the plan engine) and reconstructs, per executed
atomic spec, the counters Nsight would report.

Counter semantics (documented so calibration tolerances mean something):

* **Global transactions** — per warp-level instruction, each lane's
  element offsets are split into contiguous *vector segments* of at most
  16 bytes (the widest 128-bit load/store).  Segment *i* across all
  lanes of a warp forms one issued instruction; its transaction count is
  the number of distinct 32-byte sectors the segments touch.  Perfectly
  coalesced fp32 warp loads therefore cost 4 transactions per 128 bytes,
  and a fully strided access costs one sector per lane — the same
  coalescing-window accounting Nsight's ``gld_transactions`` uses.
* **Shared transactions / bank conflicts** — segments bound for shared
  memory are packed, in arrival order, into *wavefronts* of at most 128
  bytes (32 banks x 4 bytes, one shared-memory cycle).  A wavefront's
  transaction count is the maximum number of distinct 4-byte words
  mapped to any single bank; ``transactions - 1`` of those are bank
  conflicts.  Arrival order matters and is preserved: ``ldmatrix.x4``
  reads its four 8x8 matrices phase by phase, so each 8-lane phase is
  its own wavefront exactly as on hardware.
* **Issue counts** — collective atomics (``width > 1``: mma, ldmatrix,
  shfl) issue once per executed lane group; per-thread atomics issue
  once per *active* (unpredicated) lane.
* **Occupancy** — active lanes / lane slots per spec, i.e. the fraction
  of predicated-off work (remainder guards show up here).
* **Timeline** — every execution advances a per-block clock by the
  transactions it incurred; the trace exports as Chrome ``trace_event``
  JSON (one track per thread-block, load it at ``chrome://tracing`` or
  https://ui.perfetto.dev).

The hooks only buffer.  Executions are charged many at a time, once
:data:`FLUSH_ELEMENTS` offset elements are buffered and again when the
launch finishes: all buffered rows are segmented in one pass, and each
``(memory, buffer, kind)`` class is keyed by execution, so sectors,
wavefronts and active lanes stay per execution and per instruction
while the numpy work runs once per batch.  The timeline is replayed in
order at the same time, so where the buffer is cut never shows in the
counters, the events or any execution's transactions.  The bank rule
itself is :func:`repro.sim.banks.wavefront_degrees`, shared with the
static helpers in that module: those analyse one hypothetical access
pattern; the profiler measures every access the kernel actually
performed.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..tensor.memspace import GL, SH
from .banks import SMEM_BANK_BYTES, SMEM_BANKS, wavefront_degrees

#: One global-memory transaction moves a 32-byte sector (L1/L2 sector size).
GLOBAL_SECTOR_BYTES = 32
#: Widest vectorized access a single lane can issue (128-bit ld/st).
MAX_VECTOR_BYTES = 16
#: One shared-memory wavefront services 32 banks x 4 bytes.
SMEM_WAVEFRONT_BYTES = SMEM_BANKS * SMEM_BANK_BYTES
#: Lanes per warp (warp-level instruction granularity).
WARP_SIZE = 32


class SpecCounters:
    """Aggregated counters for one atomic spec (one table row per label)."""

    __slots__ = (
        "label", "instruction", "width", "executions", "issues",
        "global_load_transactions", "global_store_transactions",
        "global_load_bytes", "global_store_bytes",
        "shared_load_transactions", "shared_store_transactions",
        "shared_load_bytes", "shared_store_bytes",
        "shared_load_wavefronts", "shared_store_wavefronts",
        "shared_load_bank_conflicts", "shared_store_bank_conflicts",
        "bulk_load_transactions", "bulk_store_transactions",
        "bulk_load_bytes", "bulk_store_bytes",
        "active_lanes", "lane_slots",
    )

    def __init__(self, label: str, instruction: str, width: int):
        self.label = label
        self.instruction = instruction
        self.width = width
        self.executions = 0
        self.issues = 0
        self.global_load_transactions = 0
        self.global_store_transactions = 0
        self.global_load_bytes = 0
        self.global_store_bytes = 0
        self.shared_load_transactions = 0
        self.shared_store_transactions = 0
        self.shared_load_bytes = 0
        self.shared_store_bytes = 0
        self.shared_load_wavefronts = 0
        self.shared_store_wavefronts = 0
        self.shared_load_bank_conflicts = 0
        self.shared_store_bank_conflicts = 0
        self.bulk_load_transactions = 0
        self.bulk_store_transactions = 0
        self.bulk_load_bytes = 0
        self.bulk_store_bytes = 0
        self.active_lanes = 0
        self.lane_slots = 0

    # -- derived ------------------------------------------------------------
    @property
    def global_transactions(self) -> int:
        return self.global_load_transactions + self.global_store_transactions

    @property
    def global_bytes(self) -> int:
        return self.global_load_bytes + self.global_store_bytes

    @property
    def shared_transactions(self) -> int:
        return self.shared_load_transactions + self.shared_store_transactions

    @property
    def shared_bytes(self) -> int:
        return self.shared_load_bytes + self.shared_store_bytes

    @property
    def shared_wavefronts(self) -> int:
        return self.shared_load_wavefronts + self.shared_store_wavefronts

    @property
    def bank_conflicts(self) -> int:
        return (self.shared_load_bank_conflicts
                + self.shared_store_bank_conflicts)

    @property
    def bulk_transactions(self) -> int:
        return self.bulk_load_transactions + self.bulk_store_transactions

    @property
    def bulk_bytes(self) -> int:
        return self.bulk_load_bytes + self.bulk_store_bytes

    @property
    def conflict_degree(self) -> float:
        """Average shared transactions per wavefront (1.0 = conflict-free)."""
        if self.shared_wavefronts == 0:
            return 1.0
        return self.shared_transactions / self.shared_wavefronts

    @property
    def occupancy(self) -> float:
        """Fraction of lane slots that executed unpredicated."""
        if self.lane_slots == 0:
            return 1.0
        return self.active_lanes / self.lane_slots

    def as_dict(self) -> dict:
        d = {name: getattr(self, name) for name in self.__slots__}
        d["global_transactions"] = self.global_transactions
        d["shared_transactions"] = self.shared_transactions
        d["bulk_transactions"] = self.bulk_transactions
        d["bank_conflicts"] = self.bank_conflicts
        d["conflict_degree"] = round(self.conflict_degree, 4)
        d["occupancy"] = round(self.occupancy, 4)
        return d

    def __repr__(self):
        return (f"SpecCounters({self.label!r}, issues={self.issues}, "
                f"gl={self.global_transactions}, sh={self.shared_transactions}, "
                f"conflicts={self.bank_conflicts})")


class KernelProfile:
    """The profiler's report for one simulated launch."""

    def __init__(self, kernel_name: str, grid_size: int, block_size: int):
        self.kernel_name = kernel_name
        self.grid_size = grid_size
        self.block_size = block_size
        #: label -> :class:`SpecCounters`, aggregated over all blocks.
        self.specs: Dict[str, SpecCounters] = {}
        self.barriers: Dict[str, int] = {"block": 0, "warp": 0}
        #: Timeline events ``(block, label, start, duration, merged)``.
        self.events: List[Tuple[int, str, int, int, int]] = []
        self.dropped_events = 0

    # -- kernel-level totals ------------------------------------------------
    def _total(self, attr: str) -> int:
        return sum(getattr(c, attr) for c in self.specs.values())

    @property
    def global_load_transactions(self) -> int:
        return self._total("global_load_transactions")

    @property
    def global_store_transactions(self) -> int:
        return self._total("global_store_transactions")

    @property
    def global_transactions(self) -> int:
        return self._total("global_transactions")

    @property
    def global_load_bytes(self) -> int:
        return self._total("global_load_bytes")

    @property
    def global_store_bytes(self) -> int:
        return self._total("global_store_bytes")

    @property
    def global_bytes(self) -> int:
        return self._total("global_bytes")

    @property
    def shared_transactions(self) -> int:
        return self._total("shared_transactions")

    @property
    def shared_bytes(self) -> int:
        return self._total("shared_bytes")

    @property
    def shared_wavefronts(self) -> int:
        return self._total("shared_wavefronts")

    @property
    def bank_conflicts(self) -> int:
        return self._total("bank_conflicts")

    @property
    def bulk_transactions(self) -> int:
        return self._total("bulk_transactions")

    @property
    def bulk_load_bytes(self) -> int:
        return self._total("bulk_load_bytes")

    @property
    def bulk_store_bytes(self) -> int:
        return self._total("bulk_store_bytes")

    @property
    def bulk_bytes(self) -> int:
        return self._total("bulk_bytes")

    @property
    def occupancy(self) -> float:
        slots = self._total("lane_slots")
        if slots == 0:
            return 1.0
        return self._total("active_lanes") / slots

    def issues(self, instruction_prefix: str) -> int:
        """Total issue count of atomics whose instruction name matches."""
        return sum(
            c.issues for c in self.specs.values()
            if c.instruction.startswith(instruction_prefix)
        )

    @property
    def issue_counts(self) -> Dict[str, int]:
        """Nsight-style instruction-class issue counters."""
        return {
            "ldmatrix": self.issues("ldmatrix"),
            "mma": self.issues("mma"),
            "shfl": self.issues("shfl"),
            "wgmma": self.issues("wgmma"),
            "tma": self.issues("tma"),
        }

    def spec(self, label_substring: str) -> SpecCounters:
        """The unique spec whose label contains ``label_substring``."""
        hits = [c for label, c in self.specs.items()
                if label_substring in label]
        if len(hits) != 1:
            raise KeyError(
                f"{label_substring!r} matches {len(hits)} spec labels "
                f"(have: {sorted(self.specs)})"
            )
        return hits[0]

    def conflict_degree(self, instruction_prefix: str = "") -> float:
        """Measured transactions per shared wavefront over matching specs."""
        trans = wavefronts = 0
        for c in self.specs.values():
            if c.instruction.startswith(instruction_prefix):
                trans += c.shared_transactions
                wavefronts += c.shared_wavefronts
        if wavefronts == 0:
            return 1.0
        return trans / wavefronts

    def worst_conflict_degree(self, instruction_prefix: str = "") -> float:
        """Worst per-spec conflict degree (compare against the static
        worst-buffer model of ``perfmodel.bank_conflict_degree``)."""
        return max(
            (c.conflict_degree for c in self.specs.values()
             if c.instruction.startswith(instruction_prefix)
             and c.shared_wavefronts),
            default=1.0,
        )

    # -- export -------------------------------------------------------------
    def as_dict(self) -> dict:
        return {
            "kernel": self.kernel_name,
            "grid_size": self.grid_size,
            "block_size": self.block_size,
            "global_load_transactions": self.global_load_transactions,
            "global_store_transactions": self.global_store_transactions,
            "global_load_bytes": self.global_load_bytes,
            "global_store_bytes": self.global_store_bytes,
            "shared_transactions": self.shared_transactions,
            "shared_wavefronts": self.shared_wavefronts,
            "shared_bytes": self.shared_bytes,
            "bank_conflicts": self.bank_conflicts,
            "bulk_transactions": self.bulk_transactions,
            "bulk_load_bytes": self.bulk_load_bytes,
            "bulk_store_bytes": self.bulk_store_bytes,
            "barriers": dict(self.barriers),
            "issue_counts": self.issue_counts,
            "occupancy": round(self.occupancy, 4),
            "specs": {label: c.as_dict()
                      for label, c in sorted(self.specs.items())},
        }

    def chrome_trace(self) -> dict:
        """The per-(block, spec) timeline as Chrome ``trace_event`` JSON."""
        trace = []
        for block, label, start, duration, merged in self.events:
            trace.append({
                "name": label,
                "ph": "X",
                "pid": 0,
                "tid": block,
                "ts": start,
                "dur": max(1, duration),
                "args": {"merged_executions": merged},
            })
        meta = [{
            "name": "process_name", "ph": "M", "pid": 0,
            "args": {"name": f"sim:{self.kernel_name}"},
        }]
        meta += [{
            "name": "thread_name", "ph": "M", "pid": 0, "tid": bid,
            "args": {"name": f"block {bid}"},
        } for bid in sorted({e[0] for e in self.events})]
        return {
            "traceEvents": meta + trace,
            "displayTimeUnit": "ns",
            "otherData": {"dropped_events": self.dropped_events},
        }

    def save_chrome_trace(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)

    def summary(self) -> str:
        """A human-readable per-spec counter table."""
        header = (f"{'spec':<44} {'issues':>8} {'gl.trans':>9} "
                  f"{'sh.trans':>9} {'conflicts':>9} {'occ':>6}")
        lines = [f"profile of {self.kernel_name} "
                 f"(grid={self.grid_size}, block={self.block_size})",
                 header, "-" * len(header)]
        for label in sorted(self.specs):
            c = self.specs[label]
            lines.append(
                f"{label[:44]:<44} {c.issues:>8} {c.global_transactions:>9} "
                f"{c.shared_transactions:>9} {c.bank_conflicts:>9} "
                f"{c.occupancy:>6.2f}"
            )
        lines.append("-" * len(header))
        lines.append(
            f"{'total':<44} {'':>8} {self.global_transactions:>9} "
            f"{self.shared_transactions:>9} {self.bank_conflicts:>9} "
            f"{self.occupancy:>6.2f}"
        )
        lines.append(
            f"barriers: {self.barriers['block']} block / "
            f"{self.barriers['warp']} warp; issue counts: "
            + ", ".join(f"{k}={v}" for k, v in self.issue_counts.items())
        )
        return "\n".join(lines)

    def __repr__(self):
        return (f"KernelProfile({self.kernel_name!r}, "
                f"gl={self.global_transactions}, "
                f"sh={self.shared_transactions}, "
                f"conflicts={self.bank_conflicts})")


#: Emission kinds of TMA bulk tensor traffic.
_BULK_KINDS = frozenset(("bulk_read", "bulk_write"))

#: Buffered offset elements at which the profiler charges what it
#: holds, at the end of the execution that reaches it: the buffer never
#: holds more than this plus one execution's elements.
FLUSH_ELEMENTS = 8_192

#: The memory families a record is charged as; register-file records
#: only mark their lanes active.
_GLOBAL, _SHARED, _BULK = 0, 1, 2

#: The counters a batch derives per execution, then adds per label.  A
#: ``*_load_*`` column is followed by its ``*_store_*`` twin.
_COLUMNS = (
    "executions", "issues", "active_lanes", "lane_slots",
    "global_load_transactions", "global_store_transactions",
    "global_load_bytes", "global_store_bytes",
    "shared_load_transactions", "shared_store_transactions",
    "shared_load_wavefronts", "shared_store_wavefronts",
    "shared_load_bytes", "shared_store_bytes",
    "bulk_load_transactions", "bulk_store_transactions",
    "bulk_load_bytes", "bulk_store_bytes",
)
_COL = {name: i for i, name in enumerate(_COLUMNS)}


def _pair(name: str) -> slice:
    """The load and store columns of ``name``'s load column."""
    return slice(_COL[name], _COL[name] + 2)


def _split_runs(vals, counts, itemsize):
    """Split rows of live element offsets into vector segments.

    Row ``r`` is the next ``counts[r]`` entries of ``vals``, elements of
    ``itemsize[r]`` bytes.  A segment is a run of consecutive offsets no
    wider than :data:`MAX_VECTOR_BYTES`, greedily capped: one load/store
    of its lane, so a strided access degenerates into per-element
    segments.  Returns per-segment ``(row, index, lo, nbytes)``: its
    row, its position in the row, first byte and size.
    """
    rows = np.repeat(np.arange(counts.size), counts)
    itemsize = np.repeat(itemsize, counts)
    cap = np.maximum(1, MAX_VECTOR_BYTES // itemsize)
    n = vals.size
    idx = np.arange(n)
    new_row = np.ones(n, dtype=bool)
    np.not_equal(rows[1:], rows[:-1], out=new_row[1:])
    new_run = new_row.copy()
    new_run[1:] |= vals[1:] != vals[:-1] + 1
    run_start = np.maximum.accumulate(np.where(new_run, idx, 0))
    opens = (idx - run_start) % cap == 0
    starts = np.flatnonzero(opens)
    opened = np.cumsum(opens)
    row_start = np.maximum.accumulate(np.where(new_row, idx, 0))
    itemsize = itemsize[starts]
    return (rows[starts],
            opened[starts] - opened[row_start[starts]],
            vals[starts] * itemsize,
            np.diff(starts, append=n) * itemsize)


def _blocks(lo, nbytes, unit: int):
    """The ``unit``-byte blocks each segment overlaps, as ``(segment,
    block)`` pairs."""
    first = lo // unit
    last = (lo + nbytes - 1) // unit
    width = int((last - first).max()) + 1
    grid = first[:, None] + np.arange(width)
    seg, col = np.nonzero(grid <= last[:, None])
    return seg, grid[seg, col]


def _distinct(keys):
    """The distinct values of ``keys``, sorted."""
    keys = np.sort(keys)
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def _distinct_blocks(keys, lo, nbytes, unit: int):
    """The key of every distinct ``(key, unit-byte block)`` pair over
    all segments."""
    seg, blocks = _blocks(lo, nbytes, unit)
    low = int(blocks.min())
    span = int(blocks.max()) - low + 1
    return _distinct(keys[seg] * span + (blocks - low)) // span


def _wavefronts(instr, nbytes):
    """Pack each instruction's segments into <=128B wavefronts.

    ``instr`` is sorted and each instruction's segments are in arrival
    order; a wavefront takes segments while they fit and the next one
    opens a new wavefront.  Returns ``(count, wavefront of each
    segment)``.
    """
    n = nbytes.size
    new_instr = np.concatenate(([True], instr[1:] != instr[:-1]))
    filled = np.cumsum(nbytes)
    opens = np.zeros(n, dtype=bool)
    first = np.flatnonzero(new_instr)
    end = np.append(first[1:], n)
    while first.size:
        opens[first] = True
        # The first segment past the wavefront opened at ``first``.
        past = np.searchsorted(
            filled, filled[first] - nbytes[first] + SMEM_WAVEFRONT_BYTES,
            side="right")
        past = np.minimum(np.maximum(past, first + 1), end)
        more = past < end
        first, end = past[more], end[more]
    wave = np.cumsum(opens) - 1
    return int(wave[-1]) + 1, wave


def _charge_rows(rows, nexec: int, per_exec: np.ndarray):
    """Charge the buffered rows into ``per_exec``'s memory columns;
    return per-execution ``(active lanes, transactions)``."""
    classes: Dict[tuple, int] = {}
    class_family, class_store = [], []
    rec_exec, rec_nrows, rec_width, rec_masked = [], [], [], []
    rec_class, itemsize, lanes, sums = [], [], [], []
    vals, arrival = [], []
    for e, tensor, kind, lane_ids, offsets, mask, order in rows:
        nrows, width = offsets.shape
        rec_exec.append(e)
        rec_nrows.append(nrows)
        rec_width.append(width)
        rec_masked.append(mask is not None)
        lanes.append(lane_ids)
        if mask is not None:
            sums.append(mask.sum(axis=1))
        if kind in _BULK_KINDS:
            family = _BULK  # TMA traffic: bulk counters, no bank rule
        elif tensor.mem is SH:
            family = _SHARED
        elif tensor.mem is GL:
            family = _GLOBAL
        else:
            rec_class.append(-1)
            continue  # register-file traffic costs no transactions
        key = (family, tensor.buffer, kind)
        if key not in classes:
            classes[key] = len(classes)
            class_family.append(family)
            class_store.append(kind not in ("read", "bulk_read"))
        rec_class.append(classes[key])
        itemsize.append(tensor.dtype.bytes)
        vals.append(offsets.ravel() if mask is None else offsets[mask])
        arrival.append(order)
    rec_nrows = np.array(rec_nrows)
    row_exec = np.repeat(rec_exec, rec_nrows)
    lanes = np.concatenate(lanes)
    counts = np.repeat(rec_width, rec_nrows)
    if sums:
        counts[np.repeat(rec_masked, rec_nrows)] = np.concatenate(sums)
    live = counts > 0
    span = int(lanes.max()) + 1
    active = np.bincount(_distinct(row_exec[live] * span + lanes[live])
                         // span, minlength=nexec)
    transactions = np.zeros(nexec, dtype=np.int64)
    if not vals:
        return active, transactions

    # Memory rows: every row but the register file's.
    rec_class = np.array(rec_class)
    row_class = np.repeat(rec_class, rec_nrows)
    memory = row_class >= 0
    row_class, row_exec = row_class[memory], row_exec[memory]
    row_warp = lanes[memory] // WARP_SIZE
    counts = counts[memory]
    row, index, lo, nbytes = _split_runs(
        np.concatenate(vals), counts,
        np.repeat(itemsize, rec_nrows[rec_class >= 0]))
    if not row.size:
        return active, transactions
    class_family = np.array(class_family)
    class_store = np.array(class_store, dtype=np.int64)
    seg_class = row_class[row]
    seg_family = class_family[seg_class]
    seg_exec = row_exec[row]

    def by_exec(owner, weights=None):
        """Per-execution (load, store) sums over ``(class *
        nexec + execution)`` owners."""
        keys = owner % nexec * 2 + class_store[owner // nexec]
        return np.bincount(keys, weights, minlength=2 * nexec) \
            .reshape(nexec, 2)

    def instructions(sel, owner):
        """Key each selected segment by its owner, warp and position
        in its row; return the keys and the keys per owner."""
        warp = row_warp[row[sel]]
        position = index[sel]
        warps, positions = int(warp.max()) + 1, int(position.max()) + 1
        return ((owner * warps + warp) * positions + position,
                warps * positions)

    for family, name in ((_GLOBAL, "global"), (_SHARED, "shared"),
                         (_BULK, "bulk")):
        sel = np.flatnonzero(seg_family == family)
        if not sel.size:
            continue
        # A segment's owner is its class and execution.
        owner = seg_class[sel] * nexec + seg_exec[sel]
        per_exec[:, _pair(f"{name}_load_bytes")] = by_exec(
            owner, nbytes[sel])
        if family == _BULK:
            rows_hit = _distinct_blocks(row[sel], lo[sel], nbytes[sel],
                                        GLOBAL_SECTOR_BYTES)
            tx = by_exec(row_class[rows_hit] * nexec + row_exec[rows_hit])
        elif family == _GLOBAL:
            instr, per_owner = instructions(sel, owner)
            tx = by_exec(_distinct_blocks(
                instr, lo[sel], nbytes[sel], GLOBAL_SECTOR_BYTES)
                // per_owner)
        else:
            instr, per_owner = instructions(sel, owner)
            # lexsort is stable: segments that share an instruction
            # and an arrival slot keep their record order.
            order = np.lexsort((np.concatenate(arrival)[row[sel]],
                                instr))
            instr = instr[order]
            seg_lo, seg_nbytes = lo[sel][order], nbytes[sel][order]
            waves, wave = _wavefronts(instr, seg_nbytes)
            seg, words = _blocks(seg_lo, seg_nbytes, SMEM_BANK_BYTES)
            degree = wavefront_degrees(wave[seg], words, waves)
            owner = instr[np.flatnonzero(np.diff(wave, prepend=-1))] \
                // per_owner
            tx = by_exec(owner, degree)
            per_exec[:, _pair("shared_load_wavefronts")] = by_exec(owner)
        per_exec[:, _pair(f"{name}_load_transactions")] = tx
        transactions = transactions + tx.sum(axis=1).astype(np.int64)
    return active, transactions


class Profiler:
    """Observes one simulated launch; produces a :class:`KernelProfile`.

    Lifecycle (driven by the plan replay, :mod:`repro.sim.plan`):
    ``begin_block`` per thread-block, then per atomic-spec lane-group
    execution ``begin_exec`` / :meth:`record_rows` calls / ``end_exec``;
    ``barrier`` at sync statements; :meth:`repeat_block` when blocks
    1..N are copies of block 0; finally ``finish`` returns the profile.
    The hooks only buffer: ``end_exec`` charges every buffered execution
    together once the buffer reaches :data:`FLUSH_ELEMENTS`, and
    ``finish`` charges the rest and any repeated blocks, so all of the
    profiler's work runs inside those two methods.
    """

    def __init__(self, max_events: int = 100_000):
        self.max_events = max_events
        self._specs: Dict[str, SpecCounters] = {}
        self._barriers = {"block": 0, "warp": 0}
        self._events: List[List] = []
        self._dropped = 0
        self._block = 0
        self._clocks: Dict[int, int] = {}
        self._cur: Optional[Tuple[str, str, int, int]] = None
        #: Buffered ``record_rows`` entries, each led by its execution's
        #: index into ``_execs``.
        self._rows: List[tuple] = []
        #: Buffered executions: ``(label, instruction, width, slots)``.
        self._execs: List[tuple] = []
        #: The buffered timeline, in order: ``(block, label, execution)``
        #: per execution and ``(block, label, -1)`` per barrier.
        self._stream: List[tuple] = []
        self._buffered = 0
        #: Block 0's charged timeline, ``(label, duration)`` in order.
        self._first: List[tuple] = []
        #: Blocks charged as copies of block 0 at :meth:`finish`.
        self._repeats: Sequence[int] = ()

    # -- lifecycle hooks ----------------------------------------------------
    def begin_block(self, block_id: int) -> None:
        self._block = block_id
        self._clocks.setdefault(block_id, 0)

    def begin_exec(self, label: str, instruction: str, width: int,
                   lanes: Sequence[int]) -> None:
        self._cur = (label, instruction, width, len(lanes))

    def record_rows(self, tensor, kind: str, lanes: np.ndarray,
                    offsets: np.ndarray, mask: Optional[np.ndarray],
                    order: np.ndarray) -> None:
        """One emission entry: row ``i`` holds lane ``lanes[i]``'s accesses.

        ``offsets`` is the ``(rows, elements)`` physical offset matrix and
        ``mask`` its guard mask (None when every element is live).
        ``order[i]`` is row ``i``'s arrival slot in the execution; rows
        that share a slot arrive in call order.  Shared-memory segments
        pack into wavefronts in arrival order, as the lanes issue them.
        The arrays are kept until the execution is charged, so they
        must not change afterwards.
        """
        if self._cur is not None and offsets.size:
            self._rows.append((len(self._execs), tensor, kind, lanes,
                               offsets, mask, order))
            self._buffered += offsets.size

    def barrier(self, scope: str) -> None:
        self._barriers[scope] = self._barriers.get(scope, 0) + 1
        self._stream.append((self._block, f"barrier.{scope}", -1))

    def end_exec(self) -> None:
        cur, self._cur = self._cur, None
        if cur is None:
            return
        self._stream.append((self._block, cur[0], len(self._execs)))
        self._execs.append(cur)
        if self._buffered >= FLUSH_ELEMENTS:
            self._flush()

    def repeat_block(self, block_ids: Sequence[int]) -> None:
        """Charge each of ``block_ids`` as block 0 at :meth:`finish`.

        For a launch whose only profiled block is block 0 and whose other
        blocks provably access what it accesses, moved by whole 32-byte
        sectors (:func:`repro.sim.trace.record_trace`): each adds block
        0's per-label counters and barriers, and replays its timeline
        under its own block id.
        """
        self._repeats = block_ids

    def finish(self, kernel_name: str, grid_size: int,
               block_size: int) -> KernelProfile:
        self._flush()
        if self._repeats:
            self._charge_repeats()
        profile = KernelProfile(kernel_name, grid_size, block_size)
        profile.specs = self._specs
        profile.barriers = self._barriers
        profile.events = [tuple(e) for e in self._events]
        profile.dropped_events = self._dropped
        return profile

    # -- accounting ---------------------------------------------------------
    def _flush(self) -> None:
        """Charge the buffered executions, then replay their timeline."""
        rows, execs, stream = self._rows, self._execs, self._stream
        if not stream:
            return
        self._rows, self._execs, self._stream = [], [], []
        self._buffered = 0
        transactions = []
        if execs:
            transactions = self._charge_batch(rows, execs)[1].tolist()
        first = self._first
        for block, label, e in stream:
            duration = 1 if e < 0 else max(1, transactions[e])
            if not block:
                first.append((label, duration))
            self._advance(block, label, duration)

    def _charge_repeats(self) -> None:
        """Charge every repeated block as block 0, in block order."""
        times = 1 + len(self._repeats)
        for c in self._specs.values():
            for name in _COLUMNS + ("shared_load_bank_conflicts",
                                    "shared_store_bank_conflicts"):
                setattr(c, name, getattr(c, name) * times)
        for scope in self._barriers:
            self._barriers[scope] *= times
        for block in self._repeats:
            for label, duration in self._first:
                self._advance(block, label, duration)

    def _charge_batch(self, rows, execs):
        """Charge buffered executions together; return each one's
        ``(active lanes, transactions)`` as two arrays.

        A lane is active when any of its rows has a live element,
        register-file rows included; those cost no memory transactions.
        Every other row is charged with its ``(memory, buffer, kind)``
        class.  Bulk (TMA) rows each count the distinct 32B sectors they
        touch.  Otherwise segment ``i`` of every row of a warp in one
        execution forms one issued instruction: a global one counts
        distinct 32B sectors, a shared one packs into wavefronts in
        arrival order and counts bank serialisation.
        """
        nexec = len(execs)
        labels, instructions, widths, slots = zip(*execs)
        per_exec = np.zeros((nexec, len(_COLUMNS)), dtype=np.int64)
        per_exec[:, _COL["executions"]] = 1
        per_exec[:, _COL["lane_slots"]] = slots
        active = transactions = np.zeros(nexec, dtype=np.int64)
        if rows:
            active, transactions = _charge_rows(rows, nexec, per_exec)
        per_exec[:, _COL["active_lanes"]] = active
        per_exec[:, _COL["issues"]] = np.where(np.array(widths) > 1, 1,
                                               active)
        specs = self._specs
        index: Dict[str, int] = {}
        counters: List[SpecCounters] = []
        for label, instruction, width in zip(labels, instructions, widths):
            if label not in index:
                index[label] = len(counters)
                if label not in specs:
                    specs[label] = SpecCounters(label, instruction, width)
                counters.append(specs[label])
        per_label = np.zeros((len(counters), len(_COLUMNS)), dtype=np.int64)
        np.add.at(per_label, [index[label] for label in labels], per_exec)
        for c, totals in zip(counters, per_label.tolist()):
            for name, value in zip(_COLUMNS, totals):
                setattr(c, name, getattr(c, name) + value)
            c.shared_load_bank_conflicts += (
                totals[_COL["shared_load_transactions"]]
                - totals[_COL["shared_load_wavefronts"]])
            c.shared_store_bank_conflicts += (
                totals[_COL["shared_store_transactions"]]
                - totals[_COL["shared_store_wavefronts"]])
        return active, transactions

    # -- timeline -----------------------------------------------------------
    def _advance(self, block: int, label: str, duration: int) -> None:
        start = self._clocks.get(block, 0)
        self._clocks[block] = start + duration
        events = self._events
        if events:
            last = events[-1]
            if last[0] == block and last[1] == label \
                    and last[2] + last[3] == start:
                last[3] += duration
                last[4] += 1
                return
        if len(events) >= self.max_events:
            self._dropped += 1
            return
        events.append([block, label, start, duration, 1])
