"""Tests for composition, complement, divide, product, and inverses."""

import pytest
from hypothesis import given, strategies as st

from repro.ir.expr import Var
from repro.layout import (
    Layout, LayoutAlgebraError, complement, composition, factor_offsets,
    logical_divide, logical_product, right_inverse,
)


class TestFactorOffsets:
    def test_simple_stride(self):
        assert factor_offsets([0, 2, 4, 6]) == Layout(4, 2)

    def test_two_modes(self):
        assert factor_offsets([0, 1, 4, 5]) == Layout((2, 2), (1, 4))

    def test_single_element(self):
        assert factor_offsets([0]) == Layout(1, 0)

    def test_broadcast_stride_zero(self):
        assert factor_offsets([0, 0, 0, 0]) == Layout(4, 0)

    def test_nonlayout_raises(self):
        with pytest.raises(LayoutAlgebraError):
            factor_offsets([0, 1, 3])

    def test_round_trip_any_layout(self):
        layout = Layout((2, 3, 2), (1, 10, 40))
        assert factor_offsets(layout.offsets()).offsets() == layout.offsets()


class TestComposition:
    def test_identity(self):
        a = Layout((4, 8), (8, 1))
        ident = Layout(32, 1)
        assert composition(a, ident).offsets() == a.offsets()

    def test_strided_selection(self):
        # Select every other element of a contiguous vector.
        assert composition(Layout(8, 1), Layout(4, 2)) == Layout(4, 2)

    def test_through_row_major(self):
        # Walking a row-major 4x8 linearly visits column-major offsets.
        a = Layout((4, 8), (8, 1))
        b = Layout(4, 1)  # first 4 linear coords = first column
        assert composition(a, b) == Layout(4, 8)

    def test_preserves_rhs_modes(self):
        a = Layout(32, 1)
        b = Layout((4, 2), (1, 16))
        assert composition(a, b) == b

    def test_hierarchical_rhs_structure_kept(self):
        a = Layout(8, 1)
        b = Layout(((2, 2),), ((1, 4),))
        result = composition(a, b)
        assert result.offsets() == (0, 1, 4, 5)


class TestComplement:
    def test_simple(self):
        assert complement(Layout(2, 2), 4) == Layout(2, 1)

    def test_quad_pairs(self):
        # Volta quad-pairs (paper Figure 6).
        assert complement(Layout((4, 2), (1, 16)), 32) == Layout(4, 4)

    def test_contiguous_tile(self):
        assert complement(Layout(8, 1), 32) == Layout(4, 8)

    def test_full_cover_is_unit(self):
        assert complement(Layout(32, 1), 32).size() == 1

    def test_joint_bijection(self):
        tile = Layout((4, 2), (1, 16))
        rest = complement(tile, 32)
        combined = Layout(
            (tile.shape, rest.shape), (tile.stride, rest.stride)
        )
        assert combined.is_bijection()

    def test_undefined_raises(self):
        with pytest.raises(LayoutAlgebraError):
            complement(Layout(3, 2), 7)

    def test_stride_zero_mode_raises(self):
        # A broadcast mode is not injective, so nothing complements it.
        with pytest.raises(LayoutAlgebraError, match="stride-0"):
            complement(Layout((4, 2), (1, 0)), 16)


class TestLogicalDivide:
    def test_contiguous(self):
        # Paper Figure 4b, first dimension: [4:8] tiled by [2:1].
        assert logical_divide(Layout(4, 8), Layout(2, 1)) == \
            Layout((2, 2), (8, 16))

    def test_interleaved(self):
        # Paper Figure 4c: [4:8] tiled by [2:2] -> every other row.
        assert logical_divide(Layout(4, 8), Layout(2, 2)) == \
            Layout((2, 2), (16, 8))

    def test_hierarchical_tiler(self):
        # Paper Figure 4d: [8:1] tiled by [(2,2):(1,4)].
        divided = logical_divide(Layout(8, 1), Layout((2, 2), (1, 4)))
        assert divided == Layout(((2, 2), 2), ((1, 4), 2))

    def test_warp_into_ldmatrix_groups(self):
        # Paper Figure 5b: a warp tiled into four 8-thread groups.
        assert logical_divide(Layout(32, 1), Layout(8, 1)) == \
            Layout((8, 4), (1, 8))

    def test_warp_into_quad_pairs(self):
        # Paper Figure 6.
        divided = logical_divide(Layout(32, 1), Layout((4, 2), (1, 16)))
        assert divided == Layout(((4, 2), 4), ((1, 16), 4))
        # Quad-pair 0 is threads 0-3 and 16-19.
        tile = divided.mode(0)
        assert [tile(i) for i in range(8)] == [0, 1, 2, 3, 16, 17, 18, 19]

    def test_divide_covers_everything(self):
        divided = logical_divide(Layout(32, 1), Layout((4, 2), (1, 16)))
        assert sorted(divided.offsets()) == list(range(32))

    def test_broadcast_tiler_raises(self):
        with pytest.raises(LayoutAlgebraError, match="stride-0"):
            logical_divide(Layout(8, 1), Layout(4, 0))


class TestLogicalProduct:
    def test_repeat_block(self):
        assert logical_product(Layout(8, 1), Layout(4, 1)) == \
            Layout((8, 4), (1, 8))

    def test_product_covers_everything(self):
        result = logical_product(Layout(4, 2), Layout(2, 1))
        assert result.size() == 8


class TestRightInverse:
    def test_permutation(self):
        layout = Layout((2, 4), (4, 1))
        inv = right_inverse(layout)
        for i in range(8):
            assert layout(inv(i)) == i

    def test_identity(self):
        assert right_inverse(Layout(8, 1)).offsets() == tuple(range(8))

    def test_non_bijection_raises(self):
        with pytest.raises(LayoutAlgebraError):
            right_inverse(Layout(4, 2))


# -- property tests -----------------------------------------------------------

_sizes = st.sampled_from([1, 2, 4, 8, 16])


@st.composite
def tilers(draw):
    """Random injective single-mode tilers that can tile [0, 64)."""
    size = draw(_sizes)
    stride = draw(st.sampled_from([1, 2, 4, 8]))
    if size * stride > 64:
        stride = 1
    return Layout(size, stride)


@given(tilers())
def test_property_complement_joint_bijection(tiler):
    rest = complement(tiler, 64)
    combined = Layout(
        (tiler.shape, rest.shape), (tiler.stride, rest.stride)
    )
    assert combined.is_bijection()


@given(tilers())
def test_property_divide_is_permutation(tiler):
    divided = logical_divide(Layout(64, 1), tiler)
    assert sorted(divided.offsets()) == list(range(64))


@given(tilers(), st.integers(min_value=0, max_value=63))
def test_property_composition_semantics(tiler, index):
    """composition(A, B)(i) == A(B(i)) pointwise."""
    a = Layout((8, 8), (8, 1))
    if index >= tiler.size():
        index %= tiler.size()
    composed = composition(a, tiler)
    assert composed(index) == a(tiler(index))


@given(st.permutations(list(range(6))))
def test_property_factor_offsets_needs_layout_structure(perm):
    """factor_offsets either reproduces the sequence or raises."""
    seq = list(perm)
    if seq[0] != 0:
        seq[0], seq[seq.index(0)] = seq[seq.index(0)], 0
    try:
        layout = factor_offsets(seq)
    except LayoutAlgebraError:
        return
    assert list(layout.offsets()) == seq


# -- memoization ----------------------------------------------------------------

_leaf_shapes = st.integers(min_value=1, max_value=4)
_leaf_strides = st.integers(min_value=0, max_value=6)


@st.composite
def concrete_layouts(draw, max_modes=3):
    """Random concrete layouts: flat or hierarchical modes, with size-1
    modes and stride-0 (broadcast) modes among the draws."""
    shapes, strides = [], []
    for _ in range(draw(st.integers(min_value=1, max_value=max_modes))):
        if draw(st.booleans()):
            depth = draw(st.integers(min_value=1, max_value=2))
            shapes.append(tuple(draw(_leaf_shapes) for _ in range(depth)))
            strides.append(tuple(draw(_leaf_strides) for _ in range(depth)))
        else:
            shapes.append(draw(_leaf_shapes))
            strides.append(draw(_leaf_strides))
    if len(shapes) == 1:
        return Layout(shapes[0], strides[0])
    return Layout(tuple(shapes), tuple(strides))


def _outcome(fn, *args):
    """``fn``'s result, or the class of the typed error it raised.

    Undefined operands, broadcast modes included, must raise
    LayoutAlgebraError; anything else propagates and fails the test.
    """
    try:
        return fn(*args)
    except LayoutAlgebraError as error:
        return type(error)


def _cached_equals_body(fn, *args):
    first = _outcome(fn, *args)
    again = _outcome(fn, *args)
    fn.cache_clear()
    assert first == again == _outcome(fn.__wrapped__, *args)


@given(concrete_layouts(), concrete_layouts())
def test_property_cached_composition_equals_body(lhs, rhs):
    _cached_equals_body(composition, lhs, rhs)


@given(concrete_layouts(), st.integers(min_value=1, max_value=64))
def test_property_cached_complement_equals_body(layout, cosize):
    _cached_equals_body(complement, layout, cosize)


@given(concrete_layouts(max_modes=1), concrete_layouts())
def test_property_cached_logical_divide_equals_body(layout, tiler):
    _cached_equals_body(logical_divide, layout, tiler)


class TestMemo:
    def test_undefined_pair_raises_on_every_call(self):
        before = complement.cache_info().currsize
        for _ in range(3):
            with pytest.raises(LayoutAlgebraError):
                complement(Layout(3, 2), 7)
        assert complement.cache_info().currsize == before

    def test_divide_error_is_not_cached(self):
        # [6:1] / [4:1] has no complement in [0, 6); tiling falls back
        # to predication on this error, so it must repeat.
        for _ in range(3):
            with pytest.raises(LayoutAlgebraError):
                logical_divide(Layout(6, 1), Layout(4, 1))

    def test_symbolic_leaf_skips_cache(self):
        lhs = Layout(Var("M"), 1)
        before = composition.cache_info()
        assert composition(lhs, Layout(4, 2)) == Layout(4, 2)
        after = composition.cache_info()
        assert after.currsize == before.currsize
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_same_name_vars_with_other_bounds_never_served(self):
        narrow = Layout(Var("M", 0, 8), 1)
        wide = Layout(Var("M", 0, 64), 1)
        assert narrow == wide  # Var equality ignores bounds
        before = composition.cache_info()
        for lhs in (narrow, wide, narrow):
            assert composition(lhs, Layout(4, 2)) == Layout(4, 2)
        assert composition.cache_info() == before

    def test_repeated_pair_is_a_hit(self):
        composition(Layout((4, 8), (8, 1)), Layout(8, 4))
        before = composition.cache_info()
        composition(Layout((4, 8), (8, 1)), Layout(8, 4))
        assert composition.cache_info().hits == before.hits + 1
