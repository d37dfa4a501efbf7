"""Simulated GPU memory state for the functional simulator.

Substitutes for real GPU hardware (see DESIGN.md): buffers live in numpy
arrays scoped exactly like the CUDA memory spaces — one global space per
launch, one shared space per thread-block, one register file per thread.
Bank conflicts are measured per wavefront by the opt-in profiler
(:mod:`repro.sim.profiler`), by the rule in :mod:`repro.sim.banks`.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..tensor.dtypes import DType
from ..tensor.memspace import GL, SH, MemSpace


class Machine:
    """All memory state of one simulated kernel launch."""

    def __init__(self):
        self._global: Dict[str, np.ndarray] = {}
        self._shared: Dict[Tuple[int, str], np.ndarray] = {}
        self._regs: Dict[Tuple[int, int, str], np.ndarray] = {}
        self._declared: Dict[str, Tuple[DType, int]] = {}
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
        min_size: int,
    ) -> np.ndarray:
        """A global or block-shared buffer, grown to ``min_size``.

        Registers are per thread: the plan engine stages them in bulk
        and stores them in ``_regs`` keyed ``(block, thread, name)``.
        """
        if mem == GL:
            if name not in self._global:
                raise KeyError(
                    f"global buffer {name!r} was not bound before launch"
                )
            return self._global[name]
        if mem == SH:
            return self._scoped(self._shared, (block, name), name, dtype, min_size)
        raise ValueError(f"no block-scoped buffer in memory space {mem!r}")

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
