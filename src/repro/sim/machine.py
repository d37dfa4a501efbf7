"""Simulated GPU memory state for the functional simulator.

Substitutes for real GPU hardware (see DESIGN.md): buffers live in numpy
arrays scoped exactly like the CUDA memory spaces — one global space per
launch, one shared space per thread-block, one register file per thread.
Shared-memory accesses are additionally run through a bank model so
layout/swizzle choices have observable consequences.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..tensor.dtypes import DType
from ..tensor.memspace import GL, RF, SH, MemSpace

#: Shared memory is organised in 32 four-byte-wide banks on all
#: architectures this repo models.
SMEM_BANKS = 32
SMEM_BANK_BYTES = 4


class BankModel:
    """Counts shared-memory bank conflicts per collective access.

    A warp-wide access in which k threads hit different addresses in the
    same bank serialises into k transactions; accesses to the *same*
    address broadcast and do not conflict.
    """

    __slots__ = ("accesses", "transactions", "worst_degree")

    def __init__(self):
        self.accesses = 0
        self.transactions = 0
        self.worst_degree = 1

    def record(self, byte_offsets) -> int:
        """Record one collective access; returns its conflict degree."""
        banks: Dict[int, set] = {}
        for off in byte_offsets:
            bank = (off // SMEM_BANK_BYTES) % SMEM_BANKS
            banks.setdefault(bank, set()).add(off // SMEM_BANK_BYTES)
        degree = max((len(words) for words in banks.values()), default=1)
        self.accesses += 1
        self.transactions += degree
        self.worst_degree = max(self.worst_degree, degree)
        return degree

    def record_batch(self, byte_offset_rows) -> None:
        """Record many collective accesses from a 2-D offset array.

        Each row of ``byte_offset_rows`` is one access (what a single
        :meth:`record` call would receive); the counter updates are
        identical to calling :meth:`record` row by row.  This is the
        bulk funnel the vectorized plan engine feeds from its index
        arrays instead of per-lane callbacks.
        """
        rows = np.asarray(byte_offset_rows)
        if rows.ndim != 2:
            rows = rows.reshape(len(rows), -1)
        n, width = rows.shape
        if n == 0:
            return
        if width == 0:
            # Degenerate empty accesses count as conflict-free.
            self.accesses += n
            self.transactions += n
            return
        words = np.sort(rows // SMEM_BANK_BYTES, axis=1)
        first = np.ones((n, 1), dtype=bool)
        distinct = (np.concatenate([first, words[:, 1:] != words[:, :-1]],
                                   axis=1)
                    if width > 1 else first)
        keys = (np.arange(n)[:, None] * SMEM_BANKS
                + words % SMEM_BANKS)[distinct]
        per_bank = np.bincount(keys.ravel(), minlength=n * SMEM_BANKS)
        degrees = per_bank.reshape(n, SMEM_BANKS).max(axis=1)
        np.maximum(degrees, 1, out=degrees)
        self.accesses += n
        self.transactions += int(degrees.sum())
        self.worst_degree = max(self.worst_degree, int(degrees.max()))

    @property
    def conflict_rate(self) -> float:
        """Average transactions per access (1.0 = conflict-free)."""
        if self.accesses == 0:
            return 1.0
        return self.transactions / self.accesses


class Machine:
    """All memory state of one simulated kernel launch."""

    def __init__(self):
        self._global: Dict[str, np.ndarray] = {}
        self._shared: Dict[Tuple[int, str], np.ndarray] = {}
        self._regs: Dict[Tuple[int, int, str], np.ndarray] = {}
        self._declared: Dict[str, Tuple[DType, int]] = {}
        self.bank_model = BankModel()
        #: Optional :class:`repro.sim.sanitizer.Sanitizer` observing
        #: every element access (attached by ``Simulator.run``).
        self.sanitizer = None
        #: Optional :class:`repro.sim.profiler.Profiler` riding the same
        #: access funnel (attached by ``Simulator.run(profile=True)``).
        self.profiler = None
        #: Outstanding (committed, un-awaited) TMA bulk copies per block.
        self._tma_pending: Dict[int, int] = {}

    # -- TMA async-copy ledger ---------------------------------------------------
    def tma_commit(self, block: int) -> None:
        """Record one committed ``cp.async.bulk`` whose data is not yet
        guaranteed visible (until the next barrier drains it)."""
        self._tma_pending[block] = self._tma_pending.get(block, 0) + 1

    def tma_drain(self, block: int) -> None:
        """A barrier waits for all of the block's outstanding TMA copies."""
        self._tma_pending[block] = 0

    def tma_check_drained(self, block: int) -> None:
        """End-of-block check: un-awaited TMA copies are a kernel bug."""
        pending = self._tma_pending.get(block, 0)
        if pending:
            from .errors import SimulationError

            raise SimulationError(
                f"block {block} ended with {pending} committed TMA bulk "
                f"cop{'y' if pending == 1 else 'ies'} never awaited; "
                f"insert a barrier after the last tma-labelled Move"
            )

    # -- declarations -----------------------------------------------------------
    def declare(self, name: str, dtype: DType, size: int) -> None:
        """Pre-declare a buffer's dtype and size (from Allocate specs)."""
        self._declared[name] = (dtype, size)

    def bind_global(self, name: str, array: np.ndarray) -> None:
        """Bind a kernel parameter to backing storage."""
        self._global[name] = array.reshape(-1)

    def global_array(self, name: str) -> np.ndarray:
        return self._global[name]

    # -- buffer resolution ---------------------------------------------------------
    def buffer(
        self,
        mem: MemSpace,
        name: str,
        dtype: DType,
        block: int,
        thread: int,
        min_size: int,
    ) -> np.ndarray:
        if mem == GL:
            if name not in self._global:
                raise KeyError(
                    f"global buffer {name!r} was not bound before launch"
                )
            return self._global[name]
        if mem == SH:
            return self._scoped(self._shared, (block, name), name, dtype, min_size)
        if mem == RF:
            return self._scoped(
                self._regs, (block, thread, name), name, dtype, min_size
            )
        raise ValueError(f"unknown memory space {mem!r}")

    def _scoped(self, table, key, name, dtype: DType, min_size: int) -> np.ndarray:
        buf = table.get(key)
        if buf is None:
            declared = self._declared.get(name)
            size = max(min_size, declared[1] if declared else 0)
            np_dtype = (declared[0] if declared else dtype).np_dtype
            buf = np.zeros(size, dtype=np_dtype)
            table[key] = buf
        elif buf.size < min_size:
            grown = np.zeros(min_size, dtype=buf.dtype)
            grown[: buf.size] = buf
            table[key] = grown
            buf = grown
        return buf

    # -- introspection ---------------------------------------------------------------
    def shared_bytes(self, block: int = 0) -> int:
        """Total shared memory allocated by one block."""
        return sum(
            buf.size * buf.itemsize
            for (bid, _), buf in self._shared.items()
            if bid == block
        )
