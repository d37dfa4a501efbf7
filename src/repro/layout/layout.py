"""Layouts: pairs of congruent shape and stride IntTuples.

A layout is a function from logical coordinates (or linear indices) to
physical offsets, computed as the dot product of the hierarchical
coordinate with the strides (paper Section 3.2, Figure 3).  Layouts are
the representation behind every Graphene tensor shape annotation
``[dims:stride]``.
"""

from __future__ import annotations

import functools
from typing import Iterator, Optional, Tuple, Union

from ..ir.expr import IntExpr
from ..pickling import PickleBySlots
from . import inttuple as it
from .inttuple import IntTuple


class Layout(PickleBySlots):
    """An immutable (shape, stride) pair with congruent structure."""

    __slots__ = ("shape", "stride")

    def __init__(self, shape: IntTuple, stride: Optional[IntTuple] = None):
        shape = _normalize(shape)
        if stride is None:
            stride = it.compact_col_major(shape)
        else:
            stride = _normalize(stride)
        if not it.congruent(shape, stride):
            raise ValueError(
                f"shape {it.format_int_tuple(shape)} and stride "
                f"{it.format_int_tuple(stride)} are not congruent"
            )
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "stride", stride)

    def __setattr__(self, *a):
        raise AttributeError("Layout is immutable")

    # -- structure ----------------------------------------------------------
    @property
    def rank(self) -> int:
        return it.rank(self.shape)

    @property
    def depth(self) -> int:
        return it.depth(self.shape)

    def size(self) -> Union[int, IntExpr]:
        """Number of logical elements (product of the shape)."""
        return it.product(self.shape)

    def cosize(self) -> Union[int, IntExpr]:
        """One past the largest offset produced by this layout."""
        if self.size() == 0:
            return 0
        total = 1
        for s, d in zip(it.flatten(self.shape), it.flatten(self.stride)):
            total = total + (s - 1) * d
        return total

    def mode(self, index: int) -> "Layout":
        """The sub-layout of top-level mode ``index``."""
        shapes = it.as_tuple(self.shape)
        strides = it.as_tuple(self.stride)
        return Layout(shapes[index], strides[index])

    def modes(self) -> Tuple["Layout", ...]:
        return tuple(self.mode(i) for i in range(self.rank))

    def is_concrete(self) -> bool:
        return it.all_leaves_concrete(self.shape) and it.all_leaves_concrete(
            self.stride
        )

    # -- evaluation ----------------------------------------------------------
    def __call__(self, *coord):
        """Map a coordinate (or linear index) to a physical offset.

        Accepts a single linear index, a full coordinate tuple, or the
        coordinate spread across positional arguments.
        """
        if len(coord) == 1:
            coord = coord[0]
        if it.is_int(coord) and self.rank > 1:
            coord = it.idx2crd(coord, self.shape)
        return it.crd2idx(coord, self.shape, self.stride)

    def offsets(self) -> Tuple[int, ...]:
        """All offsets in colexicographic coordinate order (concrete only)."""
        size = self.size()
        if not isinstance(size, int):
            raise TypeError("cannot enumerate a symbolic layout")
        return tuple(self(i) for i in range(size))

    def is_bijection(self) -> bool:
        """True when this (concrete) layout is a bijection onto [0, size)."""
        if is_plain(self):
            return _cached_is_bijection(self)
        return _is_bijection(self)

    def is_injective(self) -> bool:
        offs = self.offsets()
        return len(set(offs)) == len(offs)

    # -- transformations ------------------------------------------------------
    def coalesce(self) -> "Layout":
        """Flatten and merge contiguous modes, preserving the function."""
        shapes = list(it.flatten(self.shape))
        strides = list(it.flatten(self.stride))
        out_s: list = []
        out_d: list = []
        for s, d in zip(shapes, strides):
            if s == 1:
                continue
            if out_s and isinstance(s, int) and isinstance(out_s[-1], int) \
                    and isinstance(d, int) and isinstance(out_d[-1], int) \
                    and out_d[-1] * out_s[-1] == d:
                out_s[-1] = out_s[-1] * s
            else:
                out_s.append(s)
                out_d.append(d)
        if not out_s:
            return Layout(1, 0)
        if len(out_s) == 1:
            return Layout(out_s[0], out_d[0])
        return Layout(tuple(out_s), tuple(out_d))

    def flatten(self) -> "Layout":
        return Layout(it.flatten(self.shape), it.flatten(self.stride))

    def reversed_modes(self) -> "Layout":
        shapes = tuple(reversed(it.as_tuple(self.shape)))
        strides = tuple(reversed(it.as_tuple(self.stride)))
        return Layout(shapes, strides)

    def concat(self, other: "Layout") -> "Layout":
        """Append ``other``'s modes after this layout's modes."""
        return Layout(
            it.as_tuple(self.shape) + it.as_tuple(other.shape),
            it.as_tuple(self.stride) + it.as_tuple(other.stride),
        )

    # -- comparison / display ---------------------------------------------------
    def equivalent(self, other: "Layout") -> bool:
        """True when both layouts compute the same offset function."""
        if self.size() != other.size():
            return False
        return self.offsets() == other.offsets()

    def __eq__(self, other):
        return (
            isinstance(other, Layout)
            and other.shape == self.shape
            and other.stride == self.stride
        )

    def __hash__(self):
        return hash((self.shape, self.stride))

    def __repr__(self) -> str:
        return (
            f"[{it.format_int_tuple(self.shape)}:"
            f"{it.format_int_tuple(self.stride)}]"
        )


def is_plain(layout: Layout) -> bool:
    """True when every shape and stride leaf is a built-in ``int``.

    Only such layouts key the shared layout caches.  ``Var`` compares by
    name alone, so two symbolic layouts can be equal while their
    variables carry different bounds; a ``bool`` leaf equals and hashes
    like an ``int``.
    """
    return all(
        type(v) is int
        for v in it.flatten(layout.shape) + it.flatten(layout.stride)
    )


def _is_bijection(layout: Layout) -> bool:
    offs = layout.offsets()
    return sorted(offs) == list(range(len(offs)))


# Entries each layout cache (this one and those in ``algebra``) may hold.
# Layouts are immutable and compare by value, so a cached result can be
# shared by every caller that passes an equal argument.
CACHE_SIZE = 1024

_cached_is_bijection = functools.lru_cache(maxsize=CACHE_SIZE)(_is_bijection)


def _normalize(value) -> IntTuple:
    """Convert lists to tuples recursively and validate leaves."""
    if type(value) is int:
        return value
    if type(value) is tuple and all(type(v) is int for v in value):
        return value
    if isinstance(value, list):
        value = tuple(value)
    if it.is_int(value):
        return value
    if isinstance(value, tuple):
        return tuple(_normalize(v) for v in value)
    raise TypeError(f"not an IntTuple: {value!r}")


def make_layout(*modes: Layout) -> Layout:
    """Concatenate layouts as the modes of a new layout."""
    if not modes:
        raise ValueError("make_layout requires at least one mode")
    return Layout(
        tuple(m.shape for m in modes),
        tuple(m.stride for m in modes),
    )


def row_major(*dims) -> Layout:
    """A compact row-major (last dim fastest) layout of ``dims``."""
    shape = tuple(dims) if len(dims) != 1 else dims[0]
    return Layout(shape, it.compact_row_major(_normalize(shape)))


def col_major(*dims) -> Layout:
    """A compact column-major (first dim fastest) layout of ``dims``."""
    shape = tuple(dims) if len(dims) != 1 else dims[0]
    return Layout(shape, it.compact_col_major(_normalize(shape)))
