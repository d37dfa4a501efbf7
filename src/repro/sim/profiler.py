"""Instruction-level profiler for the functional simulator.

The paper validates every optimization with Nsight Compute counters
(Figures 9-15 report measured global/shared transactions, bank
conflicts, and mma issue counts).  The simulator substitutes for the
GPU; this module substitutes for the *profiler*: an opt-in observer that
rides the same :class:`~repro.sim.context.ExecCtx` read/write funnel the
sanitizer uses and reconstructs, per executed atomic spec, the counters
Nsight would report.

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

The bank rule itself is :func:`repro.sim.banks.wavefront_degree`, shared
with the static helpers in that module: those analyse one hypothetical
access pattern; the profiler measures every access the kernel actually
performed.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..tensor.memspace import GL, SH
from .banks import SMEM_BANK_BYTES, SMEM_BANKS, wavefront_degree

#: One global-memory transaction moves a 32-byte sector (L1/L2 sector size).
GLOBAL_SECTOR_BYTES = 32
#: Widest vectorized access a single lane can issue (128-bit ld/st).
MAX_VECTOR_BYTES = 16
#: One shared-memory wavefront services 32 banks x 4 bytes.
SMEM_WAVEFRONT_BYTES = SMEM_BANKS * SMEM_BANK_BYTES
#: Lanes per warp (warp-level instruction granularity).
WARP_SIZE = 32


def _segment_runs(offsets, itemsize: int) -> List[Tuple[int, int]]:
    """Split one lane's element offsets into ``(first_offset, length)``
    vectorizable segments.

    A segment is a run of consecutive element offsets no wider than
    :data:`MAX_VECTOR_BYTES`, greedily capped; each segment is one
    load/store the lane issues, so a strided access degenerates into
    per-element segments.  Only the first offset and the element count
    are needed for sector/bank accounting.
    """
    max_elems = max(1, MAX_VECTOR_BYTES // itemsize)
    arr = np.asarray(offsets)
    n = arr.shape[0]
    if n == 1:
        return [(int(arr[0]), 1)]
    breaks = np.flatnonzero(arr[1:] != arr[:-1] + 1) + 1
    out: List[Tuple[int, int]] = []
    prev = 0
    for b in (*breaks.tolist(), n):
        run = b - prev
        start = int(arr[prev])
        while run > max_elems:
            out.append((start, max_elems))
            start += max_elems
            run -= max_elems
        out.append((start, run))
        prev = b
    return out


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

    #: Mutable counter fields, in declaration order — the shape of the
    #: delta vectors exchanged by exec_snapshot/exec_delta/apply_exec.
    COUNTER_FIELDS = __slots__[3:]

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


EXEC_DELTA_FIELDS = SpecCounters.COUNTER_FIELDS
#: Indices of the four transaction counters inside a delta vector —
#: their sum is what _account returned, i.e. the event duration.
_EXEC_DELTA_TX = tuple(
    EXEC_DELTA_FIELDS.index(f) for f in (
        "global_load_transactions", "global_store_transactions",
        "shared_load_transactions", "shared_store_transactions",
        "bulk_load_transactions", "bulk_store_transactions",
    )
)


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


class Profiler:
    """Observes one simulated launch; produces a :class:`KernelProfile`.

    Lifecycle (driven by :class:`~repro.sim.interp.Simulator`):
    ``begin_block`` per thread-block, then per atomic-spec lane-group
    execution ``begin_exec`` / (``record`` per element access, called
    from :class:`~repro.sim.context.ExecCtx`) / ``end_exec``; ``barrier``
    at sync statements; finally ``finish`` returns the profile.
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

    def record(self, tensor, lane: int, offsets: Sequence[int],
               kind: str) -> None:
        """One lane's element accesses (physical offsets, post-mask).

        ``offsets`` may be a list or a numpy array — the plan engine
        feeds rows of its precomputed index arrays through the same
        funnel, so both engines charge identical counters.
        """
        if self._cur is None or len(offsets) == 0:
            return
        self._records.append(
            (tensor.mem, tensor.buffer, tensor.dtype.bytes, kind, lane,
             offsets)
        )

    def exec_records(self) -> Optional[list]:
        """The active execution's record sink (None outside begin/end).

        The plan engine hoists a tensor's ``(mem, buffer, itemsize)``
        once per emission entry and appends :meth:`record`-shaped
        tuples here directly, skipping the per-lane call overhead.
        """
        return None if self._cur is None else self._records

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
        active = {rec[4] for rec in records}
        counters.issues += 1 if width > 1 else len(active)
        counters.active_lanes += len(active)
        counters.lane_slots += slots
        transactions = self._account(counters, records)
        self._advance(label, max(1, transactions))

    # -- replayed executions ------------------------------------------------
    # The counter/timeline effect of one begin_exec..end_exec cycle is a
    # pure function of its record stream.  The plan engine's charge
    # cache captures that effect once (as a per-field delta vector) and
    # replays it for executions whose index arrays are provably the
    # same objects, skipping the per-record accounting loop.
    def exec_snapshot(self, label: str) -> Optional[tuple]:
        """Current counter values for ``label`` (None if unseen)."""
        counters = self._specs.get(label)
        if counters is None:
            return None
        return tuple(getattr(counters, f) for f in EXEC_DELTA_FIELDS)

    def exec_delta(self, label: str, before: Optional[tuple]) -> tuple:
        """Per-field counter change since :meth:`exec_snapshot`."""
        after = self.exec_snapshot(label)
        if before is None:
            return after
        return tuple(a - b for a, b in zip(after, before))

    def apply_exec(self, label: str, instruction: str, width: int,
                   delta: tuple) -> None:
        """Replay one execution's captured counter/timeline effect."""
        counters = self._specs.get(label)
        if counters is None:
            counters = self._specs[label] = SpecCounters(
                label, instruction, width
            )
        for field, change in zip(EXEC_DELTA_FIELDS, delta):
            if change:
                setattr(counters, field, getattr(counters, field) + change)
        transactions = sum(delta[i] for i in _EXEC_DELTA_TX)
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
    def _account(self, counters: SpecCounters, records) -> int:
        """Charge one lane-group execution's records; return transactions."""
        groups: Dict[tuple, List[tuple]] = {}
        total = 0
        for mem, buffer, itemsize, kind, lane, offsets in records:
            if kind in ("bulk_read", "bulk_write"):
                # TMA bulk tensor traffic: dedicated accounting, outside
                # the warp coalescing window and the bank rule.
                total += self._charge_bulk(counters, kind, itemsize,
                                           offsets)
                continue
            # Identity first: tensors carry the GL/SH/RF singletons, so
            # the label-equality fallback only runs for foreign copies.
            if mem is SH:
                is_shared = True
            elif mem is GL:
                is_shared = False
            elif mem == SH:
                is_shared = True
            elif mem == GL:
                is_shared = False
            else:
                continue  # register-file traffic costs no memory transactions
            key = (is_shared, buffer, kind, lane // WARP_SIZE)
            groups.setdefault(key, []).append((itemsize, offsets))
        for (is_shared, _buffer, kind, _warp), recs in groups.items():
            per_record = [(itemsize, _segment_runs(offsets, itemsize))
                          for itemsize, offsets in recs]
            n_instr = max(len(segs) for _, segs in per_record)
            for si in range(n_instr):
                parts = [(itemsize, *segs[si])
                         for itemsize, segs in per_record if si < len(segs)]
                if is_shared:
                    total += self._charge_shared(counters, kind, parts)
                else:
                    total += self._charge_global(counters, kind, parts)
        return total

    def _charge_bulk(self, counters: SpecCounters, kind: str,
                     itemsize: int, offsets) -> int:
        """One TMA bulk tensor copy: count distinct 32B sectors touched."""
        arr = np.asarray(offsets, dtype=np.int64)
        start = arr * itemsize
        first = start // GLOBAL_SECTOR_BYTES
        last = (start + itemsize - 1) // GLOBAL_SECTOR_BYTES
        sectors = int(np.unique(np.concatenate([first, last])).size)
        nbytes = int(arr.size) * itemsize
        if kind == "bulk_read":
            counters.bulk_load_transactions += sectors
            counters.bulk_load_bytes += nbytes
        else:
            counters.bulk_store_transactions += sectors
            counters.bulk_store_bytes += nbytes
        return sectors

    def _charge_global(self, counters: SpecCounters, kind: str,
                       parts) -> int:
        """One warp-level global instruction: count distinct 32B sectors."""
        sectors = set()
        nbytes = 0
        for itemsize, lo_off, count in parts:
            lo = lo_off * itemsize
            hi = (lo_off + count) * itemsize - 1
            sectors.update(range(lo // GLOBAL_SECTOR_BYTES,
                                 hi // GLOBAL_SECTOR_BYTES + 1))
            nbytes += count * itemsize
        if kind == "read":
            counters.global_load_transactions += len(sectors)
            counters.global_load_bytes += nbytes
        else:
            counters.global_store_transactions += len(sectors)
            counters.global_store_bytes += nbytes
        return len(sectors)

    def _charge_shared(self, counters: SpecCounters, kind: str,
                       parts) -> int:
        """Pack segments into <=128B wavefronts; count bank serialisation."""
        total = 0
        wave: List[tuple] = []
        wave_bytes = 0
        for itemsize, lo_off, count in parts:
            seg_bytes = count * itemsize
            if wave and wave_bytes + seg_bytes > SMEM_WAVEFRONT_BYTES:
                total += self._flush_wavefront(counters, kind, wave,
                                               wave_bytes)
                wave, wave_bytes = [], 0
            wave.append((itemsize, lo_off, count))
            wave_bytes += seg_bytes
        if wave:
            total += self._flush_wavefront(counters, kind, wave, wave_bytes)
        return total

    def _flush_wavefront(self, counters: SpecCounters, kind: str,
                         wave, wave_bytes: int) -> int:
        # A segment's elements are consecutive, so its 4-byte words are
        # the contiguous range between its first and last byte.
        words = set()
        for itemsize, lo_off, count in wave:
            words.update(range(lo_off * itemsize // SMEM_BANK_BYTES,
                               ((lo_off + count) * itemsize - 1)
                               // SMEM_BANK_BYTES + 1))
        degree = wavefront_degree(words)
        if kind == "read":
            counters.shared_load_transactions += degree
            counters.shared_load_wavefronts += 1
            counters.shared_load_bank_conflicts += degree - 1
            counters.shared_load_bytes += wave_bytes
        else:
            counters.shared_store_transactions += degree
            counters.shared_store_wavefronts += 1
            counters.shared_store_bank_conflicts += degree - 1
            counters.shared_store_bytes += wave_bytes
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
