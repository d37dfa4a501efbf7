"""Unit tests for data tensors: construction, views, indexing."""

import pickle

import pytest

from repro.ir.expr import Var
from repro.layout import Layout, row_major
from repro.layout.swizzle import Swizzle
from repro.tensor import FP16, FP32, GL, RF, SH, Tensor, tensor


class TestConstruction:
    def test_convenience_row_major(self):
        a = tensor("A", (1024, 1024), FP16, GL)
        assert a.layout == Layout((1024, 1024), (1024, 1))

    def test_explicit_stride(self):
        a = tensor("A", (4, 8), FP16, GL, stride=(1, 4))
        assert a.layout == Layout((4, 8), (1, 4))

    def test_repr_matches_paper(self):
        a = tensor("A", (16, 16), FP16, SH)
        assert repr(a) == "%A:[(16,16):(16,1)].fp16.SH"

    def test_default_memory_is_global(self):
        assert tensor("A", (4,), FP32).mem == GL

    @pytest.mark.parametrize("mem", [GL, SH, RF])
    def test_unpickled_memory_space_is_the_singleton(self, mem):
        # The profiler tells memory spaces apart by identity.
        a = pickle.loads(pickle.dumps(tensor("A", (4, 8), FP16, mem)))
        assert a.mem is mem

    def test_immutable(self):
        a = tensor("A", (4, 8), FP16)
        with pytest.raises(AttributeError):
            a.offset = 5

    def test_dtype_and_rank(self):
        a = tensor("A", (4, 8), FP32)
        assert a.dtype == FP32
        assert a.rank == 2
        assert a.size() == 32


class TestViews:
    def test_with_name(self):
        a = tensor("A", (4,), FP16).with_name("B")
        assert a.name == "B"
        assert a.buffer == "A"  # still backed by the original allocation

    def test_with_layout_same_size(self):
        a = tensor("A", (4, 8), FP16)
        flat = a.with_layout(Layout(32, 1))
        assert flat.rank == 1

    def test_with_layout_size_mismatch_raises(self):
        a = tensor("A", (4, 8), FP16)
        with pytest.raises(ValueError):
            a.with_layout(Layout(16, 1))

    def test_with_swizzle(self):
        sw = Swizzle(2, 3, 3)
        a = tensor("A", (8, 8), FP16, SH).with_swizzle(sw)
        assert a.swizzle == sw


class TestIndexing:
    def test_scalar_view(self):
        a = tensor("A", (4, 8), FP16)
        el = a[1, 2]
        assert el.rank == 0
        assert el.offset.evaluate({}) == 10

    def test_symbolic_indexing(self):
        a = tensor("A", (4, 8), FP16)
        i = Var("i")
        el = a[i, 0]
        assert el.offset.evaluate({"i": 3}) == 24

    def test_wrong_arity_raises(self):
        a = tensor("A", (4, 8), FP16)
        with pytest.raises(IndexError):
            a[1]

    def test_scalar_cannot_be_indexed(self):
        a = tensor("A", (4,), FP16)[2]
        with pytest.raises(IndexError):
            a[0]


class TestAccess:
    def test_access_offset(self):
        a = tensor("A", (4, 8), FP16)
        expr, preds = a.access((1, 2))
        assert expr.evaluate({}) == 10
        assert preds == []

    def test_physical_offset_with_swizzle(self):
        sw = Swizzle(1, 0, 3)
        a = Tensor("A", row_major(4, 8), FP16, SH, swizzle=sw)
        raw = a.access((1, 0))[0].evaluate({})
        assert a.physical_offset((1, 0)) == sw(raw)


class TestTiling:
    def test_tile_shapes(self):
        b = tensor("A", (4, 8), FP16).tile((2, 4))
        assert b.layout == Layout((2, 2), (16, 4))
        assert b.element.layout == Layout((2, 4), (8, 1))

    def test_tile_then_index_offset(self):
        tiles = tensor("A", (4, 8), FP16).tile((2, 4))
        t01 = tiles[0, 1]
        assert t01.offset.evaluate({}) == 4

    def test_tile_whole_dim(self):
        b = tensor("A", (4, 8), FP16).tile((2, None))
        assert b.element.layout.shape == (2, 8)

    def test_retile_requires_index(self):
        tiles = tensor("A", (4, 8), FP16).tile((2, 4))
        with pytest.raises(ValueError):
            tiles.tile((1, 2))
        inner = tiles[0, 0].tile((1, 2))
        assert inner.element.layout.size() == 2

    def test_tile_size_count_mismatch(self):
        with pytest.raises(ValueError):
            tensor("A", (4, 8), FP16).tile((2,))

    def test_cannot_tile_scalar(self):
        with pytest.raises(ValueError):
            tensor("A", (4,), FP16)[0].tile((1,))

    def test_size_counts_tile_contents(self):
        b = tensor("A", (4, 8), FP16).tile((2, 4))
        assert b.size() == 32

    def test_element_enumeration_covers_tensor(self):
        """Every element is reachable via exactly one (tile, elem) pair."""
        tiles = tensor("A", (4, 8), FP16).tile((2, 2))
        seen = set()
        from repro.layout import inttuple as it

        for crd in it.iter_coords(tiles.layout.shape):
            tile = tiles[crd]
            for ecrd in it.iter_coords(tile.layout.shape):
                seen.add(tile.access(ecrd if isinstance(ecrd, tuple)
                                     else (ecrd,))[0].evaluate({}))
        assert seen == set(range(32))


class TestNonContiguousTiles:
    def test_interleaved_rows(self):
        # Paper Figure 4c.
        c = tensor("A", (4, 8), FP16).tile((Layout(2, 2), 4))
        assert c.layout == Layout((2, 2), (8, 4))
        assert c.element.layout == Layout((2, 4), (16, 1))

    def test_hierarchical_tile_size(self):
        # Paper Figure 4d.
        d = tensor("A", (4, 8), FP16).tile(
            (Layout(2, 2), Layout((2, 2), (1, 4)))
        )
        assert d.layout == Layout((2, 2), (8, 2))
        assert d.element.layout == Layout((2, (2, 2)), (16, (1, 4)))

    def test_tile_contents_match_figure_4c(self):
        """Tile (0,0) of Figure 4c holds rows 0 and 2."""
        c = tensor("A", (4, 8), FP16).tile((Layout(2, 2), 4))
        t = c[0, 0]
        offsets = sorted(
            t.access((i, j))[0].evaluate({})
            for i in range(2) for j in range(4)
        )
        assert offsets == [0, 1, 2, 3, 16, 17, 18, 19]


class TestPartialTiles:
    def test_uneven_tiling_overapproximates(self):
        p = tensor("P", (1023,), FP32).tile((128,))
        assert p.layout.shape == 8  # ceil(1023 / 128)
        assert p.needs_predication()

    def test_guard_expression(self):
        p = tensor("P", (1023,), FP32).tile((128,))
        i = Var("i", 0, 7)
        j = Var("j", 0, 127)
        _, preds = p[i].access((j,))
        (lhs, rhs) = preds[0]
        assert rhs.evaluate({}) == 1023
        assert lhs.evaluate({"i": 7, "j": 126}) == 7 * 128 + 126

    def test_even_tiling_has_no_guards(self):
        p = tensor("P", (1024,), FP32).tile((128,))
        assert not p.needs_predication()

    def test_symbolic_dim_tiling(self):
        m = Var("M")
        p = Tensor("P", Layout((m,), (1,)), FP32, GL).tile((128,))
        assert p.needs_predication()
        outer = p.layout.shape
        # ceil(M / 128) tiles.
        from repro.ir.expr import IntExpr

        assert isinstance(outer, IntExpr)
        assert outer.evaluate({"M": 1000}) == 8

    def test_noncontiguous_partial_tile_rejected(self):
        from repro.layout import LayoutAlgebraError

        with pytest.raises(LayoutAlgebraError):
            tensor("P", (1023,), FP32).tile((Layout(2, 2),))

    def test_broadcast_tile_rejected(self):
        # A stride-0 tile has no complement, so tiling falls back to
        # predication, which rejects it.
        from repro.layout import LayoutAlgebraError

        with pytest.raises(LayoutAlgebraError, match="non-contiguous tile"):
            tensor("P", (8,), FP32).tile((Layout(4, 0),))
