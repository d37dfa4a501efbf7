"""Atomic-spec matching against paper Table 2."""

import pytest

from repro.arch import AMPERE, HOPPER, VOLTA
from repro.conformance import default_cases
from repro.layout import Layout, row_major
from repro.specs import AtomicMatchError, match_atomic
from repro.serve import serve_catalog
from repro.specs.base import Allocate, BinaryPointwise, MatMul, Move
from repro.specs.ops import ADD, MUL
from repro.tensor import FP16, FP32, GL, RF, SH, Tensor, tensor
from repro.threads import warp


def _rf(name, shape, dtype=FP16):
    return Tensor(name, row_major(*shape) if isinstance(shape, tuple)
                  else Layout(shape, 1), dtype, RF)


def _per_thread(spec_cls, ins, outs, **kw):
    return spec_cls(ins, outs, (warp().scalar(),), **kw)


class TestTable2Moves:
    """Rows 1-4 of paper Table 2."""

    def test_scalar_global_load(self):
        spec = _per_thread(Move, [tensor("a", (4,), FP32)[0]],
                           [_rf("r", 1, FP32)[0]])
        assert match_atomic(spec, AMPERE.atomics).instruction == "ld.global.b32"

    def test_vectorized_fp16_load(self):
        src = tensor("a", (64,), FP16).tile((8,))[0]
        spec = _per_thread(Move, [src], [_rf("r", 8)])
        atomic = match_atomic(spec, AMPERE.atomics)
        assert atomic.name == "ld.global.v4.b32.fp16x8"

    def test_vectorized_fp32_store_to_shared(self):
        dst = Tensor("s", Layout(4, 1), FP32, SH)
        spec = _per_thread(Move, [_rf("r", 4, FP32)], [dst])
        atomic = match_atomic(spec, AMPERE.atomics)
        assert atomic.instruction.startswith("st.shared")

    def test_ldmatrix_x4(self):
        src = Tensor("s", Layout((1, 8), (8, 1)), FP16, SH)
        dst = _rf("r", (2, 4)).tile((1, 2))
        spec = Move([src], [dst], (warp(),))
        assert match_atomic(spec, AMPERE.atomics).name == "ldmatrix.x4"

    def test_ldmatrix_trans_selected_by_label(self):
        src = Tensor("s", Layout(8, 1), FP16, SH)
        dst = _rf("r", (4,)).tile((2,))
        plain = Move([src], [dst], (warp(),))
        trans = Move([src], [dst], (warp(),), label="B trans")
        assert match_atomic(plain, AMPERE.atomics).name == "ldmatrix.x2"
        assert match_atomic(trans, AMPERE.atomics).name == "ldmatrix.x2.trans"

    def test_volta_has_no_ldmatrix(self):
        src = Tensor("s", Layout((1, 8), (8, 1)), FP16, SH)
        dst = _rf("r", (2, 4)).tile((1, 2))
        spec = Move([src], [dst], (warp(),))
        with pytest.raises(AtomicMatchError):
            match_atomic(spec, VOLTA.atomics)

    def test_noncontiguous_src_not_vectorized(self):
        src = Tensor("a", Layout(8, 4), FP16, GL)  # strided
        spec = _per_thread(Move, [src], [_rf("r", 8)])
        atomic = match_atomic(spec, AMPERE.atomics)
        assert atomic.name == "move.thread.generic"

    def test_gl_to_sh_is_cp_async_on_ampere(self):
        src = tensor("a", (64,), FP16).tile((8,))[0]
        dst = Tensor("s", Layout(8, 1), FP16, SH)
        spec = _per_thread(Move, [src], [dst])
        assert "cp.async" in match_atomic(spec, AMPERE.atomics).name

    def test_gl_to_sh_is_ldg_sts_on_volta(self):
        src = tensor("a", (64,), FP16).tile((8,))[0]
        dst = Tensor("s", Layout(8, 1), FP16, SH)
        spec = _per_thread(Move, [src], [dst])
        assert "ldg.sts" in match_atomic(spec, VOLTA.atomics).name


class TestTable2Compute:
    """FMA, hadd2/hmul, and Tensor Core rows of paper Table 2."""

    def test_hfma_scalar(self):
        a, b, c = (_rf(n, 1)[0] for n in "abc")
        spec = _per_thread(MatMul, [a, b], [c])
        assert match_atomic(spec, AMPERE.atomics).name == "hfma"

    def test_hfma2_vector(self):
        a, b, c = (_rf(n, 2) for n in "abc")
        spec = _per_thread(MatMul, [a, b], [c])
        assert match_atomic(spec, AMPERE.atomics).name == "hfma2"

    def test_fmaf_fp32(self):
        a, b, c = (_rf(n, 1, FP32)[0] for n in "abc")
        spec = _per_thread(MatMul, [a, b], [c])
        assert match_atomic(spec, AMPERE.atomics).name == "fmaf"

    def test_hadd2(self):
        a, b, c = (_rf(n, 2) for n in "abc")
        spec = _per_thread(BinaryPointwise, [a, b], [c], op=ADD)
        assert match_atomic(spec, AMPERE.atomics).name == "hadd2"

    def test_hmul(self):
        a, b, c = (_rf(n, 1)[0] for n in "abc")
        spec = _per_thread(BinaryPointwise, [a, b], [c], op=MUL)
        assert match_atomic(spec, AMPERE.atomics).name == "hmul"

    def test_mma_16816_ampere(self):
        a = _rf("a", (2, 4)).tile((1, 2))
        b = _rf("b", 4).tile((2,))
        c = Tensor("c", row_major(2, 2), FP32, RF).tile((1, 2))
        spec = MatMul([a, b], [c], (warp(),))
        atomic = match_atomic(spec, AMPERE.atomics)
        assert atomic.name == "mma.16816"
        assert "m16n8k16" in atomic.instruction

    def test_mma_884_volta_quad_pair(self):
        a = _rf("a", 4)
        b = _rf("b", 4)
        c = Tensor("c", row_major(2, 4), FP32, RF)
        qps = warp().tile([Layout((4, 2), (1, 16))])
        spec = MatMul([a, b], [c], (qps,))
        atomic = match_atomic(spec, VOLTA.atomics)
        assert atomic.name == "mma.884"
        assert "m8n8k4" in atomic.instruction

    def test_mma_884_needs_quad_pair_width(self):
        a = _rf("a", 4)
        b = _rf("b", 4)
        c = Tensor("c", row_major(2, 4), FP32, RF)
        spec = MatMul([a, b], [c], (warp(),))  # 32 threads, not 8
        with pytest.raises(AtomicMatchError):
            match_atomic(spec, VOLTA.atomics)

    def test_fig8_gemm_matches_scalar_fma(self):
        """Figure 8's innermost MatMul matches the scalar FMA row."""
        a = tensor("A", (8, 1024), FP16)[0, 0]
        b = tensor("B", (1024, 8), FP16)[0, 0]
        c = tensor("C", (8, 8), FP16)[0, 0]
        spec = _per_thread(MatMul, [a, b], [c])
        atomic = match_atomic(spec, AMPERE.atomics)
        assert atomic.name in ("hfma", "fma.mixed")


class TestMatchPriority:
    def test_tables_ordered_most_specific_first(self):
        """A contiguous fp16x8 GL->RF move must select the vectorized
        atomic even though the generic fallback would also match."""
        src = tensor("a", (64,), FP16).tile((8,))[0]
        spec = _per_thread(Move, [src], [_rf("r", 8)])
        names = [a.name for a in AMPERE.atomics if a.matches(spec)]
        assert names[0] == "ld.global.v4.b32.fp16x8"
        assert "move.thread.generic" in names

    def test_no_match_raises_informative_error(self):
        a = _rf("a", (2, 4)).tile((1, 2))
        spec = Move([a], [a], (warp().tile([8]),))  # width 8 collective
        with pytest.raises(AtomicMatchError, match="no atomic"):
            match_atomic(spec, AMPERE.atomics)


def _linear_first_match(spec, table):
    """The unindexed matcher: scan the whole table in priority order."""
    for atomic in table:
        operands = zip(spec.inputs + spec.outputs,
                       atomic.in_patterns + atomic.out_patterns)
        if (spec.kind == atomic.kind
                and spec.collective_width() == atomic.width
                and len(spec.inputs) == len(atomic.in_patterns)
                and len(spec.outputs) == len(atomic.out_patterns)
                and all(p.matches(t) for t, p in operands)
                and (atomic.predicate is None or atomic.predicate(spec))):
            return atomic
    return None


def _library_leaf_specs():
    kernels = [case.kernel for case in default_cases()]
    kernels += [family.kernel for family in serve_catalog()]
    return [
        spec for kernel in kernels for spec in kernel.specs()
        if spec.body is None and not isinstance(spec, Allocate)
    ]


class TestIndexedMatchIdentity:
    """The bucketed table picks the very entry a linear scan picks."""

    @pytest.mark.parametrize("arch", [VOLTA, AMPERE, HOPPER],
                             ids=lambda a: a.key)
    def test_every_library_leaf_spec(self, arch):
        leaves = _library_leaf_specs()
        assert leaves
        unmatched = 0
        for spec in leaves:
            expected = _linear_first_match(spec, arch.atomics)
            if expected is None:
                unmatched += 1
                with pytest.raises(AtomicMatchError) as error:
                    match_atomic(spec, arch.atomics)
                assert str(error.value) == (
                    f"no atomic specification matches leaf spec {spec!r}; "
                    f"decompose it further or extend the architecture's "
                    f"atomic table"
                )
            else:
                assert match_atomic(spec, arch.atomics) is expected
        if arch is not HOPPER:
            # Hopper-only kernels (wgmma, TMA) have no older-arch atomic.
            assert unmatched > 0
