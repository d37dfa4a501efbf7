"""Tests for the Layout class."""

import numpy as np
import pytest

from repro.ir.expr import Var
from repro.layout import Layout, col_major, make_layout, row_major


class TestConstruction:
    def test_default_stride_is_col_major(self):
        assert Layout((4, 8)).stride == (1, 4)

    def test_incongruent_raises(self):
        with pytest.raises(ValueError):
            Layout((4, (2, 4)), (2, 8))

    def test_lists_normalised(self):
        assert Layout([4, 8], [8, 1]) == Layout((4, 8), (8, 1))

    def test_nested_lists_become_tuples(self):
        layout = Layout([[2, 2], 4], [[1, 4], 8])
        assert layout.shape == ((2, 2), 4)
        assert type(layout.shape) is tuple
        assert type(layout.shape[0]) is tuple
        assert type(layout.stride[0]) is tuple

    @pytest.mark.parametrize("leaf", [4.0, np.int64(4)])
    def test_non_int_leaf_raises(self, leaf):
        for shape, stride in [(leaf, 1), ((leaf, 2), (1, 4)),
                              ((2, (leaf, 2)), (1, (2, 8))), (4, leaf),
                              ([2, leaf], [1, 2])]:
            with pytest.raises(TypeError):
                Layout(shape, stride)

    @pytest.mark.parametrize("shape,stride", [
        ((4, 8), (1,)), ((4, 8), 1), (4, (1, 4)), ((2, (2, 2)), (1, 2, 4)),
    ])
    def test_incongruent_flat_and_nested_raise(self, shape, stride):
        with pytest.raises(ValueError):
            Layout(shape, stride)

    def test_equal_and_hash_across_spellings(self):
        flat = [Layout((4, 8), (8, 1)), Layout([4, 8], [8, 1]),
                Layout((4, 8), [8, 1])]
        nested = [Layout(((2, 2), 4), ((1, 4), 8)),
                  Layout([[2, 2], 4], [[1, 4], 8]),
                  Layout(((2, 2), 4), [(1, 4), 8])]
        for group in (flat, nested):
            assert all(layout == group[0] for layout in group)
            assert len({hash(layout) for layout in group}) == 1
        assert flat[0] != nested[0]
        assert Layout(4, 1) == Layout([4], [1]).mode(0)
        assert Layout(4, 1) != Layout((4,), (1,))

    def test_immutable(self):
        layout = Layout((4, 8))
        with pytest.raises(AttributeError):
            layout.shape = (2, 2)

    def test_helpers(self):
        assert row_major(4, 8) == Layout((4, 8), (8, 1))
        assert col_major(4, 8) == Layout((4, 8), (1, 4))

    def test_make_layout(self):
        combined = make_layout(Layout(4, 8), Layout(8, 1))
        assert combined == Layout((4, 8), (8, 1))


class TestEvaluation:
    def test_coordinate_call(self):
        assert row_major(4, 8)(1, 2) == 10

    def test_tuple_call(self):
        assert row_major(4, 8)((1, 2)) == 10

    def test_linear_index_call_is_colex(self):
        layout = row_major(4, 8)
        # Linear index 1 -> coord (1, 0) -> offset 8.
        assert layout(1) == 8

    def test_size_cosize(self):
        layout = Layout((4, 8), (9, 1))  # padded rows
        assert layout.size() == 32
        assert layout.cosize() == 3 * 9 + 7 * 1 + 1

    def test_offsets(self):
        assert Layout(4, 2).offsets() == (0, 2, 4, 6)

    def test_bijection(self):
        assert Layout((4, 8), (8, 1)).is_bijection()
        assert not Layout((4, 8), (9, 1)).is_bijection()

    def test_injective(self):
        assert Layout((4, 8), (9, 1)).is_injective()
        assert not Layout((2, 2), (1, 1)).is_injective()


class TestTransformations:
    def test_coalesce_merges_contiguous(self):
        assert Layout((4, 8), (1, 4)).coalesce() == Layout(32, 1)

    def test_coalesce_keeps_gaps(self):
        layout = Layout((4, 8), (1, 8))
        assert layout.coalesce() == layout

    def test_coalesce_drops_unit_modes(self):
        assert Layout((4, 1, 8), (1, 77, 4)).coalesce() == Layout(32, 1)

    def test_flatten(self):
        nested = Layout(((2, 2), 4), ((1, 8), 2))
        assert nested.flatten() == Layout((2, 2, 4), (1, 8, 2))

    def test_concat(self):
        joined = Layout(4, 1).concat(Layout(8, 4))
        assert joined == Layout((4, 8), (1, 4))

    def test_mode_access(self):
        layout = Layout((4, (2, 4)), (2, (1, 8)))
        assert layout.mode(0) == Layout(4, 2)
        assert layout.mode(1) == Layout((2, 4), (1, 8))

    def test_equivalent(self):
        assert Layout((4, 8), (1, 4)).equivalent(Layout(32, 1))
        assert not Layout((4, 8), (8, 1)).equivalent(Layout(32, 1))


class TestSymbolic:
    def test_symbolic_shape_allowed(self):
        m = Var("M")
        layout = Layout((m, 128), (128, 1))
        assert not layout.is_concrete()

    def test_symbolic_offset_expression(self):
        m = Var("M")
        layout = Layout((4, m), (m, 1))
        i, j = Var("i"), Var("j")
        offset = layout(i, j)
        assert offset.evaluate({"M": 10, "i": 2, "j": 3}) == 23

    def test_symbolic_enumeration_raises(self):
        with pytest.raises(TypeError):
            Layout(Var("M"), 1).offsets()


class TestRepr:
    def test_repr_matches_paper_notation(self):
        assert repr(Layout((4, 8), (8, 1))) == "[(4,8):(8,1)]"
        assert repr(Layout((4, (2, 4)), (2, (1, 8)))) == "[(4,(2,4)):(2,(1,8))]"
