"""Nested integer tuples (``IntTuple``), the spine of Graphene's shapes.

Paper Section 3.1: dimensions and strides are recursively defined integer
tuples.  A hierarchical dimension like ``(2, 2)`` with stride ``(1, 4)``
assigns multiple strides to a single logical dimension, which is how
Graphene expresses interleaved memory layouts and non-contiguous tiles.

An IntTuple is either an ``int`` (a leaf) or a tuple of IntTuples.  The
functions here follow the conventions of NVIDIA's CuTe shape algebra
(paper refs [1, 17]): coordinates linearise colexicographically, i.e.
mode 0 is the fastest-varying mode.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple, Union

from ..ir.expr import IntExpr

IntTuple = Union[int, IntExpr, Tuple["IntTuple", ...]]


def is_int(value: IntTuple) -> bool:
    """True for a leaf entry (a concrete or symbolic integer)."""
    return type(value) is int or isinstance(value, (int, IntExpr))


def is_tuple(value: IntTuple) -> bool:
    return isinstance(value, tuple)


def as_tuple(value: IntTuple) -> Tuple[IntTuple, ...]:
    """Wrap a leaf into a 1-tuple; return tuples unchanged."""
    return value if is_tuple(value) else (value,)


def rank(value: IntTuple) -> int:
    """Number of top-level modes (1 for a leaf)."""
    return len(value) if is_tuple(value) else 1


def depth(value: IntTuple) -> int:
    """Nesting depth: 0 for a leaf, 1 + max child depth for tuples."""
    if is_int(value):
        return 0
    if not value:
        return 1
    return 1 + max(depth(v) for v in value)


def flatten(value: IntTuple) -> Tuple[Union[int, IntExpr], ...]:
    """All leaves in depth-first order."""
    if is_int(value):
        return (value,)
    out: list = []
    for v in value:
        out.extend(flatten(v))
    return tuple(out)


def product(value: IntTuple) -> Union[int, IntExpr]:
    """The product of all leaves (the *size* of a shape)."""
    result: Union[int, IntExpr] = 1
    for leaf in flatten(value):
        result = result * leaf
    return result


def congruent(a: IntTuple, b: IntTuple) -> bool:
    """True when ``a`` and ``b`` have identical hierarchical structure."""
    if is_int(a) and is_int(b):
        return True
    if is_tuple(a) and is_tuple(b) and len(a) == len(b):
        return all(congruent(x, y) for x, y in zip(a, b))
    return False


def weakly_congruent(a: IntTuple, b: IntTuple) -> bool:
    """True when the structure of ``a`` refines to that of ``b``.

    A leaf in ``a`` may correspond to an arbitrary subtree in ``b``.
    """
    if is_int(a):
        return True
    if is_int(b):
        return False
    return len(a) == len(b) and all(weakly_congruent(x, y) for x, y in zip(a, b))


def elem_scale(a: IntTuple, b: IntTuple) -> IntTuple:
    """Multiply ``a`` elementwise by the sizes of the modes of ``b``."""
    if is_int(a):
        return a * product(b)
    return tuple(elem_scale(x, y) for x, y in zip(a, as_tuple(b)))


def crd2idx(coord: IntTuple, shape: IntTuple, stride: IntTuple):
    """Map a (possibly hierarchical) coordinate to a linear offset.

    Computes the dot product of the coordinate with the strides,
    recursively distributing integer coordinates over hierarchical
    shapes colexicographically (mode 0 fastest).
    """
    if is_tuple(coord):
        if len(coord) == 1 and not is_tuple(shape):
            return crd2idx(coord[0], shape, stride)
        if not (is_tuple(shape) and is_tuple(stride)):
            raise ValueError(
                f"coordinate {coord!r} does not match shape {shape!r}"
            )
        if not (len(coord) == len(shape) == len(stride)):
            raise ValueError(
                f"rank mismatch: coord {coord!r}, shape {shape!r}, stride {stride!r}"
            )
        total = 0
        for c, s, d in zip(coord, shape, stride):
            total = total + crd2idx(c, s, d)
        return total
    # Integer coordinate against a (possibly hierarchical) shape.
    if is_int(shape):
        return coord * stride
    # Distribute colexicographically across the modes of the shape.
    total = 0
    remaining = coord
    for i, (s, d) in enumerate(zip(shape, stride)):
        sz = product(s)
        if i + 1 < len(shape):
            total = total + crd2idx(remaining % sz, s, d)
            remaining = remaining // sz
        else:
            total = total + crd2idx(remaining, s, d)
    return total


def idx2crd(idx, shape: IntTuple) -> IntTuple:
    """Map a linear index to the congruent coordinate of ``shape``."""
    if is_int(shape):
        return idx
    crd = []
    remaining = idx
    for i, s in enumerate(shape):
        sz = product(s)
        if i + 1 < len(shape):
            crd.append(idx2crd(remaining % sz, s))
            remaining = remaining // sz
        else:
            crd.append(idx2crd(remaining, s))
    return tuple(crd)


def crd2crd(coord: IntTuple, src_shape: IntTuple, dst_shape: IntTuple) -> IntTuple:
    """Re-shape a coordinate from ``src_shape`` to congruent ``dst_shape``."""
    idx = crd2idx(coord, src_shape, compact_col_major(src_shape))
    return idx2crd(idx, dst_shape)


def compact_col_major(shape: IntTuple, current=1) -> IntTuple:
    """Colexicographic (mode-0 fastest) compact strides for ``shape``."""
    if is_int(shape):
        return current
    out = []
    for s in shape:
        out.append(compact_col_major(s, current))
        current = current * product(s)
    return tuple(out)


def compact_row_major(shape: IntTuple, current=1) -> IntTuple:
    """Lexicographic (last mode fastest) compact strides for ``shape``."""
    if is_int(shape):
        return current
    out = []
    for s in reversed(shape):
        out.append(compact_row_major(s, current))
        current = current * product(s)
    return tuple(reversed(out))


def iter_coords(shape: IntTuple) -> Iterator[IntTuple]:
    """Iterate all congruent coordinates of ``shape`` colexicographically."""
    total = product(shape)
    if not isinstance(total, int):
        raise TypeError("cannot enumerate coordinates of a symbolic shape")
    for i in range(total):
        yield idx2crd(i, shape)


def all_leaves_concrete(value: IntTuple) -> bool:
    """True when every leaf is a concrete Python int."""
    return all(isinstance(leaf, int) for leaf in flatten(value))


def format_int_tuple(value: IntTuple) -> str:
    """Render an IntTuple using the paper's ``(a, b)`` notation.

    Single-entry tuples print as their entry, matching the paper's
    ``[32:1]`` style for rank-1 shapes.
    """
    if is_int(value):
        return str(value)
    if len(value) == 1:
        return format_int_tuple(value[0])
    return "(" + ",".join(format_int_tuple(v) for v in value) + ")"
