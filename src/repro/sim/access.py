"""Offset tables of tensor views for the functional simulator.

A tensor view in the IR is a fixed object: a base-offset expression
over loop, block and thread variables, a layout, a swizzle and optional
guards.  The simulator compiles the expressions into closures
(:func:`compile_expr`) and enumerates the layout once:
:func:`relative_offsets` gives every element's offset from the base in
colexicographic coordinate order, and :func:`guard_coords` gives every
element's coordinate along one guarded dimension.

An offset table is a function of the layout alone, so it is memoized by
value under the layout algebra's rule: a bounded LRU keyed on plain-int
layouts, with symbolic layouts computed directly.  Power-of-two layouts
of :data:`LINEAR_MIN_SIZE` elements or more take the linear (F2) path
(:func:`linear_form`): the table comes from XOR-accumulating whole lane
vectors — one numpy operation per layout *bit* instead of one coordinate
walk per *element* (see :mod:`repro.layout.linear`).  Every other layout
walks its coordinates (:func:`walk_offsets`); both paths produce the
same table.

Nothing here caches a compiled view: a launch plan keeps one per tensor
for as long as the plan lives (:class:`repro.sim.plan.LaunchPlan`).
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from ..ir.expr import Add, Const, FloorDiv, IntExpr, Mod, Mul, Sub, Var
from ..layout import inttuple as it
from ..layout.algebra import memoized
from ..layout.layout import Layout
from ..layout.linear import LinearLayout, LinearLayoutError, to_linear
from ..tensor.tensor import Tensor, Tile


def compile_expr(expr: IntExpr) -> Callable[[dict], int]:
    """Compile an expression into a fast closure over an env dict."""
    if isinstance(expr, Const):
        value = expr.value
        return lambda env: value
    if isinstance(expr, Var):
        name = expr.name
        return lambda env: env[name]
    lhs = compile_expr(expr.lhs)
    rhs = compile_expr(expr.rhs)
    if isinstance(expr, Add):
        return lambda env: lhs(env) + rhs(env)
    if isinstance(expr, Sub):
        return lambda env: lhs(env) - rhs(env)
    if isinstance(expr, Mul):
        return lambda env: lhs(env) * rhs(env)
    if isinstance(expr, FloorDiv):
        return lambda env: lhs(env) // rhs(env)
    if isinstance(expr, Mod):
        return lambda env: lhs(env) % rhs(env)
    raise TypeError(f"cannot compile expression {expr!r}")


#: The F2 path has fixed setup cost (bit-matrix construction plus a
#: vectorized apply); below this view size the coordinate walk is
#: cheaper, so it keeps the walk.  Measured crossover: size 8.
LINEAR_MIN_SIZE = 8


def linear_form(layout: Layout) -> Optional[LinearLayout]:
    """The F2 form an offset table is built from, or None to walk.

    None when the F2 form cannot represent the layout (non-power-of-two
    shapes or strides, symbolic leaves) and when the layout has fewer
    than :data:`LINEAR_MIN_SIZE` elements.
    """
    size = layout.size()
    if not isinstance(size, int) or size < LINEAR_MIN_SIZE:
        return None
    try:
        return to_linear(layout)
    except LinearLayoutError:
        return None


def walk_offsets(layout: Layout) -> np.ndarray:
    """The offset table, walking every coordinate through the layout."""
    offsets = [layout(c) for c in it.iter_coords(layout.shape)]
    if any(not isinstance(o, int) for o in offsets):
        raise TypeError(f"layout {layout!r} has symbolic strides; "
                        "cannot simulate")
    return np.array(offsets, dtype=np.int64)


@memoized
def relative_offsets(layout: Layout) -> np.ndarray:
    """Every element's offset from the view base, colex order.

    A read-only int64 array, shared by every caller with an equal
    layout.  Raises TypeError for a symbolic layout.
    """
    lin = linear_form(layout)
    if lin is None:
        offsets = walk_offsets(layout)
    else:
        offsets = lin.apply_to_range(layout.size())
    offsets.setflags(write=False)
    return offsets


def guard_coords(shape, dim: int) -> np.ndarray:
    """Every element's logical coordinate along top-level dim ``dim``.

    Colex order, like :func:`relative_offsets`: mode ``dim``'s
    coordinate cycles with period ``prod(dims[:dim])`` (mode 0
    fastest).  Views of lower rank than their guards (e.g. a scalar
    element view) contribute 0: their position is already folded into
    the guard origin during indexing.
    """
    dims = it.as_tuple(shape) if shape != () else ()
    size = it.product(shape)
    if dim >= len(dims):
        return np.zeros(size, dtype=np.int64)
    entry = dims[dim]
    if it.is_tuple(entry):
        raise TypeError("guards on hierarchical dimensions are unsupported")
    return (np.arange(size, dtype=np.int64) // it.product(dims[:dim])) \
        % entry


def tile_views(tensor: Tensor) -> List[Tensor]:
    """All tile sub-views of a (one-level) tiled tensor, colex order.

    Untiled tensors yield themselves.
    """
    if not isinstance(tensor.element, Tile):
        return [tensor]
    return [tensor[crd] for crd in it.iter_coords(tensor.layout.shape)]
