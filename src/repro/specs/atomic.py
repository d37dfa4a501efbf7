"""Atomic specifications and structural matching (paper Section 5.2).

An atomic spec is a concrete instance of a built-in spec that is
implemented directly by a GPU instruction.  During code generation every
spec without a decomposition is matched against the target architecture's
atomic-spec table (paper Table 2): the match inspects the spec kind, the
number of cooperating threads, and each operand's memory space, dtype,
and layout pattern.
"""

from __future__ import annotations

import functools
from typing import Callable, Optional, Sequence, Tuple, Union

from ..layout import inttuple as it
from ..layout.layout import Layout
from ..tensor.dtypes import DType
from ..tensor.memspace import MemSpace
from ..tensor.tensor import Tensor, Tile
from .base import Spec


class OperandPattern:
    """A structural pattern for one spec operand.

    ``shape`` is matched against the operand's *flattened dimension
    sizes* after dropping unit dimensions, so ``(8,)`` matches ``[8]``,
    ``[1,8]`` and ``[8:1]`` alike.  ``tile_shape`` additionally requires
    a tiled operand whose inner tile flattens to the given sizes.
    ``contiguous`` requires the (innermost) layout to be unit-strided.
    """

    __slots__ = ("mem", "dtype", "shape", "tile_shape", "contiguous")

    def __init__(
        self,
        mem: Optional[MemSpace] = None,
        dtype: Optional[DType] = None,
        shape: Optional[Tuple[int, ...]] = None,
        tile_shape: Optional[Tuple[int, ...]] = None,
        contiguous: bool = False,
    ):
        object.__setattr__(self, "mem", mem)
        object.__setattr__(self, "dtype", dtype)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "tile_shape", tile_shape)
        object.__setattr__(self, "contiguous", contiguous)

    def __setattr__(self, *a):
        raise AttributeError("OperandPattern is immutable")

    def matches(self, tensor: Tensor) -> bool:
        if self.mem is not None and tensor.mem != self.mem:
            return False
        if self.dtype is not None and tensor.dtype != self.dtype:
            return False
        if self.shape is not None:
            if _essential_dims(tensor.layout) != tuple(self.shape):
                return False
        if self.tile_shape is not None:
            if not isinstance(tensor.element, Tile):
                return False
            if _essential_dims(tensor.element.layout) != tuple(self.tile_shape):
                return False
        if self.contiguous and not _is_contiguous(tensor):
            return False
        return True

    def __repr__(self):
        parts = []
        if self.shape is not None:
            parts.append(f"shape={self.shape}")
        if self.tile_shape is not None:
            parts.append(f"tile={self.tile_shape}")
        if self.dtype is not None:
            parts.append(f"dtype={self.dtype}")
        if self.mem is not None:
            parts.append(f"mem={self.mem}")
        return f"Operand({', '.join(parts)})"


def _essential_dims(layout: Layout) -> Tuple[int, ...]:
    """Flattened concrete dimension sizes with unit dims dropped.

    A rank-0 (scalar) layout yields ``()``.
    """
    if layout.shape == ():
        return ()
    dims = tuple(s for s in it.flatten(layout.shape) if s != 1)
    return dims


def _is_contiguous(tensor: Tensor) -> bool:
    """True when the innermost varying elements are unit-strided."""
    layout = (
        tensor.element.layout if isinstance(tensor.element, Tile)
        else tensor.layout
    )
    if layout.shape == ():
        return True
    coalesced = layout.coalesce()
    strides = it.flatten(coalesced.stride)
    return 1 in strides or it.product(coalesced.shape) == 1


class AtomicSpec:
    """One entry of the atomic-spec table (paper Table 2).

    The functional simulator executes an entry by its ``kind`` and
    ``instruction`` (:mod:`repro.sim.plan`).
    """

    __slots__ = (
        "name", "kind", "instruction", "width", "in_patterns",
        "out_patterns", "predicate",
    )

    def __init__(
        self,
        name: str,
        kind: str,
        instruction: str,
        width: int,
        in_patterns: Sequence[OperandPattern],
        out_patterns: Sequence[OperandPattern],
        predicate: Optional[Callable[[Spec], bool]] = None,
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "instruction", instruction)
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "in_patterns", tuple(in_patterns))
        object.__setattr__(self, "out_patterns", tuple(out_patterns))
        object.__setattr__(self, "predicate", predicate)

    def __setattr__(self, *a):
        raise AttributeError("AtomicSpec is immutable")

    def matches(self, spec: Spec) -> bool:
        return self._admits(_spec_key(spec)) and self._matches_operands(spec)

    def _admits(self, key: tuple) -> bool:
        """True when this entry agrees with a ``_spec_key``: same kind,
        width and arity, and no pattern pins a different memory space."""
        kind, width, n_in, n_out, mems = key
        return (
            kind == self.kind
            and width == self.width
            and n_in == len(self.in_patterns)
            and n_out == len(self.out_patterns)
            and all(
                p.mem is None or p.mem == mem
                for p, mem in zip(self.in_patterns + self.out_patterns, mems)
            )
        )

    def _matches_operands(self, spec: Spec) -> bool:
        operands = zip(
            spec.inputs + spec.outputs,
            self.in_patterns + self.out_patterns,
        )
        if not all(p.matches(t) for t, p in operands):
            return False
        if self.predicate is not None and not self.predicate(spec):
            return False
        return True

    def __repr__(self):
        return f"Atomic({self.name} -> {self.instruction})"


class AtomicMatchError(LookupError):
    """Raised when a leaf spec matches no atomic specification."""


def _spec_key(spec: Spec) -> tuple:
    """The part of ``spec`` an atomic's kind, width, arity and operand
    memory spaces are checked against."""
    return (
        spec.kind,
        spec.collective_width(),
        len(spec.inputs),
        len(spec.outputs),
        tuple(t.mem for t in spec.inputs + spec.outputs),
    )


# Distinct atomic tables whose buckets are kept (one per architecture).
_TABLE_CACHE_SIZE = 16


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _buckets(table: Tuple[AtomicSpec, ...]) -> dict:
    """Spec key -> the entries of ``table`` admitting it, in table order.

    Filled as keys are first seen.  A table is an immutable tuple, so a
    bucket stays valid for as long as the table is cached.
    """
    return {}


def match_atomic(spec: Spec, table: Sequence[AtomicSpec]) -> AtomicSpec:
    """Find the first atomic spec in ``table`` matching ``spec``.

    Tables are ordered most-specific-first (e.g. vectorized moves before
    scalar fallbacks), mirroring instruction-selection priority.  Only
    the entries whose kind, width, arity and memory spaces agree with
    ``spec`` are tried; they keep their table order.
    """
    key = _spec_key(spec)
    buckets = _buckets(tuple(table))
    bucket = buckets.get(key)
    if bucket is None:
        bucket = buckets[key] = tuple(a for a in table if a._admits(key))
    for atomic in bucket:
        if atomic._matches_operands(spec):
            return atomic
    raise AtomicMatchError(
        f"no atomic specification matches leaf spec {spec!r}; "
        f"decompose it further or extend the architecture's atomic table"
    )
