"""Reference profiler accounting: the per-lane walk.

This is the accounting the simulator shipped before the vectorized one,
kept as a test oracle.  Each record is one lane's live offsets; an
execution's records are grouped by ``(memory, buffer, kind, warp)``,
every record is split into vector segments, segment ``i`` of each
record forms one instruction, and instructions are charged one Python
set at a time.  The bank rule is the scalar per-bank count it used, so
the oracle does not share the shipped ``banks.wavefront_degrees``.
``tests/sim/test_profiler_oracle.py`` feeds it and
:class:`repro.sim.profiler.Profiler` the same record stream and
requires identical counters, timelines and per-execution results.

Besides the per-lane :meth:`Profiler.record`, the oracle accepts the
plan engine's :meth:`Profiler.record_rows` by expanding each row into a
per-lane record, in arrival order (slot, then call order).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.banks import SMEM_BANK_BYTES, SMEM_BANKS
from repro.sim.profiler import (
    GLOBAL_SECTOR_BYTES, MAX_VECTOR_BYTES, SMEM_WAVEFRONT_BYTES, WARP_SIZE,
    KernelProfile, SpecCounters,
)
from repro.tensor.memspace import GL, SH


def wavefront_degree(words) -> int:
    """Transactions one wavefront needs to serve the 4-byte ``words``."""
    per_bank: Dict[int, int] = {}
    for word in set(words):
        bank = word % SMEM_BANKS
        per_bank[bank] = per_bank.get(bank, 0) + 1
    return max(per_bank.values(), default=1)


def _segment_runs(offsets, itemsize: int) -> List[Tuple[int, int]]:
    """Split one lane's element offsets into ``(first_offset, length)``
    vectorizable segments."""
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


class Profiler:
    """The per-lane walk behind the shipped profiler's interface."""

    def __init__(self, max_events: int = 100_000):
        self.max_events = max_events
        self._specs: Dict[str, SpecCounters] = {}
        self._barriers = {"block": 0, "warp": 0}
        self._events: List[List] = []
        self._dropped = 0
        self._block = 0
        self._clocks: Dict[int, int] = {}
        self._cur: Optional[Tuple[str, str, int, int]] = None
        self._rows: List[tuple] = []
        #: What each execution's accounting returned, in order:
        #: ``(active lanes, transactions)``.
        self.returned: List[Tuple[int, int]] = []

    def begin_block(self, block_id: int) -> None:
        self._block = block_id
        self._clocks.setdefault(block_id, 0)

    def begin_exec(self, label: str, instruction: str, width: int,
                   lanes: Sequence[int]) -> None:
        self._cur = (label, instruction, width, len(lanes))
        self._rows = []

    def record(self, tensor, lane: int, offsets, kind: str) -> None:
        if self._cur is None or len(offsets) == 0:
            return
        self._rows.append((len(self._rows), len(self._rows), (
            tensor.mem, tensor.buffer, tensor.dtype.bytes, kind, lane,
            offsets)))

    def record_rows(self, tensor, kind, lanes, offsets, mask, order) -> None:
        if self._cur is None:
            return
        call = len(self._rows)
        for i in range(offsets.shape[0]):
            live = offsets[i] if mask is None else offsets[i][mask[i]]
            if live.size:
                self._rows.append((int(order[i]), call, (
                    tensor.mem, tensor.buffer, tensor.dtype.bytes, kind,
                    int(lanes[i]), live)))

    def barrier(self, scope: str) -> None:
        self._barriers[scope] = self._barriers.get(scope, 0) + 1
        self._advance(f"barrier.{scope}", 1)

    def end_exec(self) -> None:
        cur = self._cur
        records = [rec for _slot, _call, rec in
                   sorted(self._rows, key=lambda row: row[:2])]
        self._cur, self._rows = None, []
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
        self.returned.append((len(active), transactions))
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
                total += self._charge_bulk(counters, kind, itemsize,
                                           offsets)
                continue
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
