"""Execution contexts handed to atomic-spec executors."""

from __future__ import annotations

from typing import Callable, Sequence, Tuple

import numpy as np

from ..tensor.tensor import Tensor
from .access import accessor
from .machine import Machine

Predicate = Tuple[Callable[[dict], int], Callable[[dict], int]]


class ExecCtx:
    """Per-execution-point context for one atomic spec.

    ``lanes`` are the absolute in-block thread ids cooperating on this
    execution (all block threads for per-thread atomics, one group's
    lanes for collectives).  ``env`` contains block/loop/symbol values;
    thread-dependent expressions are evaluated via :meth:`lane_env`.
    """

    __slots__ = ("machine", "block_id", "env", "lanes", "preds")

    def __init__(
        self,
        machine: Machine,
        block_id: int,
        env: dict,
        lanes: Sequence[int],
        preds: Sequence[Predicate] = (),
    ):
        self.machine = machine
        self.block_id = block_id
        self.env = env
        self.lanes = list(lanes)
        self.preds = list(preds)

    def lane_env(self, lane: int) -> dict:
        env = dict(self.env)
        env["threadIdx.x"] = lane
        return env

    def active(self, env: dict) -> bool:
        """Evaluate the enclosing If-predicates for one lane."""
        return all(lhs(env) < rhs(env) for lhs, rhs in self.preds)

    # -- tensor element transfer ---------------------------------------------
    def _buffer(self, tensor: Tensor, lane: int, min_size: int) -> np.ndarray:
        return self.machine.buffer(
            tensor.mem, tensor.buffer, tensor.dtype, self.block_id, lane,
            min_size,
        )

    def read(self, tensor: Tensor, env: dict, lane: int, fill=0,
             bulk: bool = False) -> np.ndarray:
        """Read the view's elements (colex order); OOB lanes read ``fill``.

        Guarded-out elements never touch memory (predicated loads).
        ``bulk`` marks TMA bulk-tensor traffic: the sanitizer still sees
        an ordinary read, but the profiler accounts it in the dedicated
        bulk counters instead of the per-lane load path.
        """
        acc = accessor(tensor)
        offsets = acc.offsets(env)
        mask = acc.mask(env)
        san = self.machine.sanitizer
        prof = self.machine.profiler
        if san is not None or prof is not None:
            live = offsets if mask is None else \
                [o for o, ok in zip(offsets, mask) if ok]
            if san is not None:
                san.record(self.block_id, (lane,),
                           ((tensor, "read", (live,), None, None),))
            if prof is not None:
                prof.record(tensor, lane, live,
                            "bulk_read" if bulk else "read")
        if mask is not None:
            offsets = [o if ok else 0 for o, ok in zip(offsets, mask)]
        buf = self._buffer(tensor, lane, max(offsets) + 1)
        values = buf[offsets]
        if mask is not None:
            values = np.where(np.asarray(mask), values, fill).astype(buf.dtype)
        return values

    def write(self, tensor: Tensor, env: dict, lane: int, values,
              bulk: bool = False) -> None:
        """Write elements (colex order); guarded-out elements are skipped.

        Stores to dtypes that declare a ``quantize`` function (bf16/fp8
        round-on-store model) snap the values onto the format's grid
        first.  ``bulk`` routes the profiler accounting to the TMA bulk
        counters.
        """
        acc = accessor(tensor)
        offsets = acc.offsets(env)
        mask = acc.mask(env)
        san = self.machine.sanitizer
        prof = self.machine.profiler
        kind = "bulk_write" if bulk else "write"
        if tensor.dtype.quantize is not None:
            values = tensor.dtype.quantize(
                np.asarray(values, dtype=np.float32))
        if mask is not None:
            live = [o for o, ok in zip(offsets, mask) if ok]
            if not live:
                return
            if san is not None:
                san.record(self.block_id, (lane,),
                           ((tensor, "write", (live,), None, None),))
            if prof is not None:
                prof.record(tensor, lane, live, kind)
            buf = self._buffer(tensor, lane, max(live) + 1)
            values = np.asarray(values).reshape(-1)
            for off, val, ok in zip(offsets, values, mask):
                if ok:
                    buf[off] = val
        else:
            if san is not None:
                san.record(self.block_id, (lane,),
                           ((tensor, "write", (offsets,), None, None),))
            if prof is not None:
                prof.record(tensor, lane, offsets, kind)
            buf = self._buffer(tensor, lane, max(offsets) + 1)
            buf[offsets] = np.asarray(values, dtype=buf.dtype).reshape(-1)

    def read_frag(self, tensor: Tensor, env: dict, lane: int) -> np.ndarray:
        """Read a register fragment in (tile-major, colex) order.

        Handles one level of tiling: values of tile 0 first, then tile 1,
        matching the register numbering of mma/ldmatrix fragments.
        """
        from .access import tile_views

        parts = [self.read(v, env, lane) for v in tile_views(tensor)]
        return np.concatenate(parts) if len(parts) > 1 else parts[0]

    def write_frag(self, tensor: Tensor, env: dict, lane: int, values) -> None:
        from .access import tile_views

        values = np.asarray(values).reshape(-1)
        pos = 0
        for view in tile_views(tensor):
            n = view.layout.size() if view.rank else 1
            self.write(view, env, lane, values[pos:pos + n])
            pos += n
