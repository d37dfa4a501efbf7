"""Reference sanitizer: the per-element record-list implementation.

This is the sanitizer the simulator shipped before the shadow-memory
rewrite, kept verbatim as a test oracle.  Every access appends to a
list per element and is compared against every earlier record there,
which is exact but quadratic in the number of threads touching one
element.  ``tests/sim/test_sanitizer_oracle.py`` drives it and
:class:`repro.sim.sanitizer.Sanitizer` with the same hook stream and
requires identical reports and ``suppressed`` counts.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.sim.sanitizer import _HAZARDS, WARP_SIZE, SanitizerError, SanitizerReport
from repro.tensor.memspace import GL, SH, MemSpace


class Sanitizer:
    """Per-launch access tracker; attach via ``Simulator.run(sanitize=)``.

    The interpreter drives it: :meth:`declare` for every ``Allocate``
    and kernel parameter, :meth:`begin_block` per thread-block,
    :meth:`barrier` at sync statements, :meth:`enter_spec` before each
    atomic executes, and — from :class:`~repro.sim.context.ExecCtx` —
    :meth:`record` for every element-level access.
    """

    def __init__(self, warp_size: int = WARP_SIZE, max_reports: int = 64):
        self.warp_size = warp_size
        self.max_reports = max_reports
        self.reports: List[SanitizerReport] = []
        self.suppressed = 0
        self._sizes: Dict[str, int] = {}
        self._mem: Dict[str, MemSpace] = {}
        # Buffer -> element -> access records. Shared state is cleared
        # at block barriers (and block entry); global state spans the
        # whole launch because no grid-wide barrier exists.
        self._shared: Dict[str, Dict[int, List[tuple]]] = {}
        self._global: Dict[str, Dict[int, List[tuple]]] = {}
        # (scope key, element) pairs that have been written; scope key
        # is the block for SH and (block, thread) for RF.
        self._written: Dict[str, Set[tuple]] = {}
        self._seen: Set[tuple] = set()
        self._block = 0
        self._bepoch = 0
        self._wepoch = 0
        self._block_epoch_base = 0
        self._spec = "<launch>"

    # -- interpreter lifecycle hooks --------------------------------------------
    def declare(self, buffer: str, mem: MemSpace, size: int) -> None:
        """Register a buffer's memory space and legal element count."""
        self._sizes[buffer] = size
        self._mem[buffer] = mem

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
    def record(self, tensor, block: int, lane: int,
               offsets: Sequence[int], kind: str) -> None:
        """Record one lane's element accesses to a tensor view.

        ``offsets`` are the live (unmasked, post-swizzle) physical
        element offsets; guarded-out elements never reach memory and
        must not be passed here.
        """
        if not offsets:
            return
        mem = tensor.mem
        name = tensor.buffer
        size = self._sizes.get(name)
        if size is not None:
            for off in offsets:
                if off < 0 or off >= size:
                    self._report(
                        "out-of-bounds", name, mem, off, (lane,),
                        f"{kind} at element {off} of a {size}-element "
                        "allocation",
                        dedup=("out-of-bounds", name, self._spec, kind),
                    )
        if mem == GL:
            self._record_race(self._global, name, mem, block, lane,
                              offsets, kind)
            return
        scope = block if mem == SH else (block, lane)
        written = self._written.setdefault(name, set())
        if kind == "read":
            for off in offsets:
                if (scope, off) not in written:
                    self._report(
                        "uninitialized-read", name, mem, off, (lane,),
                        "element was never written in this "
                        + ("block" if mem == SH else "thread")
                        + " (simulator zero-fill hides this; hardware "
                        "returns garbage)",
                        dedup=("uninitialized-read", name, self._spec),
                    )
        else:
            written.update((scope, off) for off in offsets)
        if mem == SH:
            self._record_race(self._shared, name, mem, block, lane,
                              offsets, kind)

    def _record_race(self, table, name, mem, block, lane, offsets, kind):
        per_elem = table.setdefault(name, {})
        rec = (block, lane, lane // self.warp_size, self._bepoch,
               self._wepoch, kind, self._spec)
        for off in offsets:
            entries = per_elem.setdefault(off, [])
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
