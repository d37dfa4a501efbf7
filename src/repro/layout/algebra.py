"""The layout algebra: composition, complement, divide, and product.

These operations implement the tiling semantics of paper Sections 3.3/3.4:
tiling a tensor dimension with a 1-D (possibly hierarchical, possibly
strided) tile-size tensor splits the dimension into an inner (tile) mode
and an outer (tile-arrangement) mode, computed as

    logical_divide(A, B) = composition(A, (B, complement(B, size(A))))

exactly as in NVIDIA's CuTe shape algebra.  All operations here require
concrete (non-symbolic) layouts; the tensor layer handles symbolic
dimensions separately via over-approximation and predication.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from . import inttuple as it
from .layout import Layout


class LayoutAlgebraError(ValueError):
    """Raised when a layout operation is undefined for its operands."""


def factor_offsets(offsets: Sequence[int]) -> Layout:
    """Factor an explicit offset sequence into a compact nested layout.

    The inverse of colexicographic layout enumeration: given the offsets a
    layout produces for linear indices ``0..n-1``, reconstruct a
    (shape:stride) pair producing exactly that sequence.  Raises
    LayoutAlgebraError when the sequence is not expressible as a layout.
    """
    offsets = list(offsets)
    if not offsets:
        raise LayoutAlgebraError("cannot factor an empty offset sequence")
    if offsets[0] != 0:
        raise LayoutAlgebraError(f"offset sequence must start at 0: {offsets}")
    shapes: List[int] = []
    strides: List[int] = []
    while len(offsets) > 1:
        stride = offsets[1] - offsets[0]
        run = 1
        while run < len(offsets) and offsets[run] == run * stride:
            run += 1
        # The run length must divide the sequence so the remainder is
        # a periodic repetition of this mode.
        if len(offsets) % run != 0:
            raise LayoutAlgebraError(
                f"offset sequence is not a layout (run {run} does not divide "
                f"{len(offsets)}): {offsets}"
            )
        period = offsets[:run]
        for block in range(1, len(offsets) // run):
            base = offsets[block * run]
            for j in range(run):
                if offsets[block * run + j] != base + period[j]:
                    raise LayoutAlgebraError(
                        f"offset sequence is not a layout: {offsets}"
                    )
        shapes.append(run)
        strides.append(stride)
        offsets = offsets[::run]
    if not shapes:
        return Layout(1, 0)
    if len(shapes) == 1:
        return Layout(shapes[0], strides[0])
    return Layout(tuple(shapes), tuple(strides))


def composition(lhs: Layout, rhs: Layout) -> Layout:
    """Functional composition ``R = lhs o rhs`` with ``R(c) = lhs(rhs(c))``.

    The result has one top-level mode per top-level mode of ``rhs``.
    Leaf modes of ``rhs`` may expand into nested modes when the
    composed function requires several strides.
    """
    if rhs.rank > 1:
        return _concat_modes([composition(lhs, m) for m in rhs.modes()])
    if it.is_tuple(rhs.shape):
        inner = composition(lhs, rhs.mode(0))
        return Layout((inner.shape,), (inner.stride,))
    size = rhs.size()
    if not isinstance(size, int):
        raise LayoutAlgebraError("composition requires concrete layouts")
    offsets = [lhs(rhs(i)) for i in range(size)]
    if size == 1:
        return Layout(1, offsets[0] if offsets[0] != 0 else 0)
    return factor_offsets(offsets)


def complement(layout: Layout, cosize: int) -> Layout:
    """The layout covering ``[0, cosize)`` jointly with ``layout``.

    ``make_layout(layout, complement(layout, cosize))`` is a bijection
    onto ``[0, cosize)`` when ``layout`` is injective with cosize
    dividing ``cosize``.
    """
    flat = layout.coalesce().flatten()
    modes = sorted(
        (
            (d, s)
            for s, d in zip(it.flatten(flat.shape), it.flatten(flat.stride))
            if s != 1
        ),
    )
    shapes: List[int] = []
    strides: List[int] = []
    current = 1
    for d, s in modes:
        if d % current != 0:
            raise LayoutAlgebraError(
                f"complement undefined: stride {d} not divisible by {current} "
                f"in {layout!r}"
            )
        if d // current > 1:
            shapes.append(d // current)
            strides.append(current)
        current = s * d
    if cosize % current != 0:
        raise LayoutAlgebraError(
            f"complement undefined: {layout!r} does not tile [0, {cosize})"
        )
    if cosize // current > 1 or not shapes:
        shapes.append(cosize // current)
        strides.append(current)
    if len(shapes) == 1:
        return Layout(shapes[0], strides[0])
    return Layout(tuple(shapes), tuple(strides))


def logical_divide(layout: Layout, tiler: Layout) -> Layout:
    """Divide a rank-1 ``layout`` by a ``tiler``: ``((tile), (rest))``.

    Mode 0 of the result iterates within one tile, mode 1 iterates
    across tiles.  The tile mode keeps the tiler's hierarchical
    structure (paper Figure 4d).
    """
    size = layout.size()
    if not isinstance(size, int):
        raise LayoutAlgebraError("logical_divide requires concrete layouts")
    inner = composition(layout, tiler)
    outer = composition(layout, complement(tiler, size))
    return _pair_modes(inner, outer)


def divide_mode(layout: Layout, tiler: Layout) -> Tuple[Layout, Layout]:
    """Divide and return ``(inner_tile_layout, outer_rest_layout)``."""
    divided = logical_divide(layout, tiler)
    return divided.mode(0), divided.mode(1)


def logical_product(block: Layout, tiler: Layout) -> Layout:
    """Repeat ``block`` according to ``tiler``: ``((block), (repetition))``."""
    size = block.size()
    cotarget = tiler.cosize()
    if not isinstance(size, int) or not isinstance(cotarget, int):
        raise LayoutAlgebraError("logical_product requires concrete layouts")
    repetition = composition(complement(block, size * cotarget), tiler)
    return _pair_modes(block, repetition)


def _pair_modes(first: Layout, second: Layout) -> Layout:
    """Build a rank-2 layout whose modes are ``first`` and ``second``."""
    return Layout(
        (first.shape, second.shape), (first.stride, second.stride)
    )


def right_inverse(layout: Layout) -> Layout:
    """The layout ``R`` with ``layout(R(i)) == i`` for all ``i``.

    Requires ``layout`` to be a bijection onto ``[0, size)``.
    """
    flat = layout.coalesce().flatten()
    if not flat.is_bijection():
        raise LayoutAlgebraError(f"{layout!r} is not a bijection")
    modes = sorted(
        zip(it.flatten(flat.stride), it.flatten(flat.shape),
            it.flatten(it.compact_col_major(flat.shape))),
    )
    shapes = tuple(s for _, s, _ in modes)
    strides = tuple(cd for _, _, cd in modes)
    if len(shapes) == 1:
        return Layout(shapes[0], strides[0])
    return Layout(shapes, strides)


def _concat_modes(modes: Sequence[Layout]) -> Layout:
    shapes = []
    strides = []
    for m in modes:
        shapes.extend(it.as_tuple(m.shape))
        strides.extend(it.as_tuple(m.stride))
    if len(shapes) == 1:
        return Layout(shapes[0], strides[0])
    return Layout(tuple(shapes), tuple(strides))
