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

Every execution is charged in one vectorized pass per ``(memory,
buffer, kind)`` group.  The bank rule
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


def _segments(recs):
    """Split one group's live rows into vector segments.

    ``recs`` holds ``(itemsize, offsets, mask)`` per record.  A segment
    is a run of consecutive live element offsets no wider than
    :data:`MAX_VECTOR_BYTES`, greedily capped: one load/store of its
    lane, so a strided access degenerates into per-element segments.
    Returns per-segment ``(row, index, lo, nbytes)``: its row (numbered
    across ``recs``), its position in the row, first byte and size.
    One record whose live rows are each one run, as most emission
    entries are, is cut by columns; :func:`_split_runs` flattens the
    rest element by element.
    """
    if len(recs) > 1:
        return _split_runs(recs)
    ((itemsize, offsets, mask),) = recs
    nrows, width = offsets.shape
    row = np.arange(nrows)
    if width == 1 and mask is not None:
        # A row's only element is live or the row is empty.
        row = np.flatnonzero(mask[:, 0])
        mask = None
    if mask is None and (offsets[:, 1:] - offsets[:, :-1] == 1).all():
        # Every row is one run: cut it at the same columns.
        cap = max(1, MAX_VECTOR_BYTES // itemsize)
        if width <= cap:
            return (row, np.zeros(row.size, dtype=np.int64),
                    offsets[row, 0] * itemsize,
                    np.full(row.size, width * itemsize, dtype=np.int64))
        count = np.minimum(width - np.arange(0, width, cap), cap)
        return (np.repeat(row, count.size),
                np.tile(np.arange(count.size), nrows),
                offsets[:, ::cap].ravel() * itemsize,
                np.tile(count * itemsize, nrows))
    return _split_runs(recs)


def _split_runs(recs):
    """:func:`_segments` over the records' live elements, flattened."""
    vals, counts, sizes = [], [], []
    for itemsize, offsets, mask in recs:
        nrows, width = offsets.shape
        if mask is None:
            vals.append(offsets.ravel())
            counts += [width] * nrows
        else:
            vals.append(offsets[mask])
            counts += mask.sum(axis=1).tolist()
        sizes += [itemsize] * nrows
    vals = np.concatenate(vals)
    rows = np.repeat(np.arange(len(counts)), counts)
    itemsize = np.repeat(sizes, counts)
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


def _distinct_blocks(keys, lo, nbytes, unit: int) -> int:
    """Distinct ``(key, unit-byte block)`` pairs over all segments."""
    seg, blocks = _blocks(lo, nbytes, unit)
    low = int(blocks.min())
    span = int(blocks.max()) - low + 1
    pairs = np.sort(keys[seg] * span + (blocks - low))
    return 1 + int(np.count_nonzero(pairs[1:] != pairs[:-1]))


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


class Profiler:
    """Observes one simulated launch; produces a :class:`KernelProfile`.

    Lifecycle (driven by the plan replay, :mod:`repro.sim.plan`):
    ``begin_block`` per thread-block, then per atomic-spec lane-group
    execution ``begin_exec`` / :meth:`record_rows` calls / ``end_exec``;
    ``barrier`` at sync statements; finally ``finish`` returns the
    profile.
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
        self._records: List[tuple] = []

    # -- lifecycle hooks ----------------------------------------------------
    def begin_block(self, block_id: int) -> None:
        self._block = block_id
        self._clocks.setdefault(block_id, 0)

    def begin_exec(self, label: str, instruction: str, width: int,
                   lanes: Sequence[int]) -> None:
        self._cur = (label, instruction, width, len(lanes))
        self._records = []

    def record_rows(self, tensor, kind: str, lanes: np.ndarray,
                    offsets: np.ndarray, mask: Optional[np.ndarray],
                    order: np.ndarray) -> None:
        """One emission entry: row ``i`` holds lane ``lanes[i]``'s accesses.

        ``offsets`` is the ``(rows, elements)`` physical offset matrix and
        ``mask`` its guard mask (None when every element is live).
        ``order[i]`` is row ``i``'s arrival slot in the execution; rows
        that share a slot arrive in call order.  Shared-memory segments
        pack into wavefronts in arrival order, as the lanes issue them.
        """
        if self._cur is not None and offsets.size:
            self._records.append((tensor, kind, lanes, offsets, mask, order))

    def barrier(self, scope: str) -> None:
        self._barriers[scope] = self._barriers.get(scope, 0) + 1
        self._advance(f"barrier.{scope}", 1)

    def end_exec(self) -> None:
        cur, records = self._cur, self._records
        self._cur, self._records = None, []
        if cur is None:
            return
        label, instruction, width, slots = cur
        counters = self._specs.get(label)
        if counters is None:
            counters = self._specs[label] = SpecCounters(
                label, instruction, width
            )
        counters.executions += 1
        active, transactions = self._account(counters, records)
        counters.issues += 1 if width > 1 else active
        counters.active_lanes += active
        counters.lane_slots += slots
        self._advance(label, max(1, transactions))

    def finish(self, kernel_name: str, grid_size: int,
               block_size: int) -> KernelProfile:
        profile = KernelProfile(kernel_name, grid_size, block_size)
        profile.specs = self._specs
        profile.barriers = self._barriers
        profile.events = [tuple(e) for e in self._events]
        profile.dropped_events = self._dropped
        return profile

    # -- accounting ---------------------------------------------------------
    def _account(self, counters: SpecCounters, records) -> Tuple[int, int]:
        """Charge one execution's records; return (active lanes,
        transactions).

        A lane is active when any of its rows has a live element,
        register-file rows included; those cost no memory transactions.
        """
        groups: Dict[tuple, list] = {}
        live_lanes = []
        for tensor, kind, lanes, offsets, mask, order in records:
            live_lanes.append(lanes if mask is None
                              else lanes[mask.any(axis=1)])
            if kind in _BULK_KINDS:
                shared = None  # TMA traffic: bulk counters, no bank rule
            elif tensor.mem is SH:
                shared = True
            elif tensor.mem is GL:
                shared = False
            else:
                continue  # register-file traffic costs no transactions
            groups.setdefault((shared, tensor.buffer, kind), []).append(
                (tensor.dtype.bytes, lanes, offsets, mask, order))
        if not live_lanes:
            return 0, 0
        active = len(set(np.concatenate(live_lanes).tolist()))
        total = 0
        for (shared, _buffer, kind), recs in groups.items():
            total += self._charge(counters, shared, kind, recs)
        return active, total

    def _charge(self, counters: SpecCounters, shared: Optional[bool],
                kind: str, recs) -> int:
        """One ``(memory, buffer, kind)`` group: return its transactions.

        Bulk (TMA) rows each count the distinct 32B sectors they touch.
        Otherwise segment ``i`` of every row of a warp forms one issued
        instruction: a global one counts distinct 32B sectors, a shared
        one packs into wavefronts and counts bank serialisation.
        """
        row, index, lo, nbytes = _segments(
            [(itemsize, offsets, mask)
             for itemsize, _lanes, offsets, mask, _arrival in recs])
        if not row.size:
            return 0
        moved = int(nbytes.sum())
        if shared is None:
            sectors = _distinct_blocks(row, lo, nbytes, GLOBAL_SECTOR_BYTES)
            if kind == "bulk_read":
                counters.bulk_load_transactions += sectors
                counters.bulk_load_bytes += moved
            else:
                counters.bulk_store_transactions += sectors
                counters.bulk_store_bytes += moved
            return sectors
        lanes = np.concatenate([rec[1] for rec in recs])
        instr = (lanes // WARP_SIZE)[row] * (int(index.max()) + 1) + index
        if not shared:
            sectors = _distinct_blocks(instr, lo, nbytes, GLOBAL_SECTOR_BYTES)
            if kind == "read":
                counters.global_load_transactions += sectors
                counters.global_load_bytes += moved
            else:
                counters.global_store_transactions += sectors
                counters.global_store_bytes += moved
            return sectors
        arrival = np.concatenate([rec[4] for rec in recs])
        # lexsort is stable: segments that share an instruction and an
        # arrival slot keep their record order.
        order = np.lexsort((arrival[row], instr))
        lo, nbytes = lo[order], nbytes[order]
        waves, wave = _wavefronts(instr[order], nbytes)
        seg, words = _blocks(lo, nbytes, SMEM_BANK_BYTES)
        degree = int(wavefront_degrees(wave[seg], words, waves).sum())
        if kind == "read":
            counters.shared_load_transactions += degree
            counters.shared_load_wavefronts += waves
            counters.shared_load_bank_conflicts += degree - waves
            counters.shared_load_bytes += moved
        else:
            counters.shared_store_transactions += degree
            counters.shared_store_wavefronts += waves
            counters.shared_store_bank_conflicts += degree - waves
            counters.shared_store_bytes += moved
        return degree

    # -- timeline -----------------------------------------------------------
    def _advance(self, label: str, duration: int) -> None:
        block = self._block
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
