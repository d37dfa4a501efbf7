"""Tests for the Graphene IR pretty-printer."""

from repro.ir.pretty import format_kernel, format_spec
from repro.kernels import LdmatrixMoveConfig, NaiveGemmConfig, build


class TestNaiveGemmListing:
    def setup_method(self):
        self.text = format_kernel(build(NaiveGemmConfig(1024, 1024,
                                                        1024)))

    def test_parameter_declarations(self):
        assert "%A:[(1024,1024):(1024,1)].fp16.GL" in self.text
        assert "%C:[(1024,1024):(1024,1)].fp16.GL" in self.text

    def test_kernel_spec_header(self):
        assert "Spec graphene_gemm_naive <<<#grid, #threads>>>" in self.text

    def test_loop_nest(self):
        assert "for(k = 0; k < 1024; k += 1) {" in self.text
        assert "for(m = 0; m < 8; m += 1) {" in self.text

    def test_leaf_matmul_with_scalar_views(self):
        assert "MatMul <<<" in self.text
        assert "%A:[].fp16.GL @" in self.text

    def test_balanced_braces(self):
        assert self.text.count("{") == self.text.count("}")


class TestLdmatrixListing:
    def setup_method(self):
        self.text = format_kernel(build(LdmatrixMoveConfig()))

    def test_allocations_listed(self):
        assert "Allocate %smem:[(16,16):(16,1)].fp16.SH" in self.text
        assert "Allocate %regs:[(2,4):(4,1)].fp16.RF" in self.text

    def test_tiled_register_destination(self):
        # The ldmatrix Move's destination is the 2x2-tiled register file.
        assert "[(2,2):(4,2)].[(1,2):(0,1)].fp16.RF" in self.text

    def test_warp_exec_config(self):
        assert "<<<#grid:[].block, #threads:[32:1].thread>>>" in self.text

    def test_sync_statement(self):
        assert "sync.threads" in self.text


class TestSpecFormatting:
    def test_pointwise_op_shown(self):
        from repro.frontend.builder import KernelBuilder
        from repro.tensor import FP32, RF

        kb = KernelBuilder("k", (1,), (1,))
        a = kb.alloc("a", (4,), FP32, RF)
        spec = kb.unary("relu", a, a)
        assert "UnaryPointwise<relu>" in format_spec(spec)

    def test_label_rendered_as_comment(self):
        from repro.frontend.builder import KernelBuilder
        from repro.tensor import FP16, RF, SH

        kb = KernelBuilder("k", (1,), (32,))
        s = kb.alloc("s", (8,), FP16, SH)
        r = kb.alloc("r", (8,), FP16, RF)
        spec = kb.move(s, r, label="ldmatrix A")
        assert "// ldmatrix A" in format_spec(spec)
