"""Code-generation tests: structure and content of emitted CUDA C++."""

import re

import pytest

from repro.arch import AMPERE, VOLTA
from repro.codegen import CudaGenerator
from repro.frontend.builder import KernelBuilder
from repro.ir.expr import Const, Var
from repro.kernels import LdmatrixMoveConfig, NaiveGemmConfig, build
from repro.kernels.gemm_optimized import build_ampere_tc_gemm, build_volta_tc_gemm
from repro.tensor import FP16, FP32, RF, SH


def balanced(code: str) -> bool:
    return code.count("{") == code.count("}") and \
        code.count("(") == code.count(")")


class TestNaiveGemm:
    """The generated code of paper Figure 8."""

    def setup_method(self):
        self.code = CudaGenerator(AMPERE).generate(
            build(NaiveGemmConfig(1024, 1024, 1024))
        ).code

    def test_signature(self):
        assert "__global__ void graphene_gemm_naive(" in self.code
        assert "const half *__restrict__ A" in self.code
        assert "half *__restrict__ C" in self.code
        assert "const half *__restrict__ C" not in self.code

    def test_triple_loop_with_unroll(self):
        assert self.code.count("#pragma unroll") == 3
        assert "for (int k = 0; k < 1024; k += 1)" in self.code

    def test_fma_statement(self):
        assert re.search(r"C\[.*\] \+= A\[.*\] \* B\[.*\];", self.code)

    def test_thread_index_expressions(self):
        # The same scalar index expressions as the paper's output.
        assert "blockIdx.x % 8" in self.code
        assert "threadIdx.x / 16 % 16" in self.code

    def test_balanced(self):
        assert balanced(self.code)


class TestLdmatrixKernel:
    """The generated code of paper Figure 1c."""

    def setup_method(self):
        self.code = CudaGenerator(AMPERE).generate(
            build(LdmatrixMoveConfig())
        ).code

    def test_inline_ptx(self):
        assert "ldmatrix.sync.aligned.m8n8.x4.shared.b16" in self.code
        assert "__cvta_generic_to_shared" in self.code

    def test_figure1_address_expression(self):
        # thr_grp_m*128 + thr_grp_n*8 + grp_local_idx*16 (Figure 1c).
        assert ("threadIdx.x / 16 % 2 * 128 + threadIdx.x / 8 % 2 * 8 "
                "+ threadIdx.x % 8 * 16") in self.code

    def test_four_output_registers(self):
        asm = self.code[self.code.index("ldmatrix"):]
        assert "{%0, %1, %2, %3}, [%4]" in asm

    def test_shared_declaration(self):
        assert "__shared__ half smem[256];" in self.code

    def test_balanced(self):
        assert balanced(self.code)


class TestOptimizedGemm:
    def test_ampere_has_mma_and_ldmatrix(self):
        src = CudaGenerator(AMPERE).generate(
            build_ampere_tc_gemm(256, 256, 64, block_tile=(128, 128, 32),
                                 warp_grid=(2, 2))
        )
        assert "mma.sync.aligned.m16n8k16.row.col.f32.f16.f16.f32" in src.code
        assert "ldmatrix.sync.aligned.m8n8.x2.trans.shared.b16" in src.code
        assert "__pipeline_memcpy_async" in src.code
        assert src.smem_bytes == (128 * 32 + 32 * 128) * 2
        assert balanced(src.code)

    def test_volta_has_quad_pair_mma(self):
        src = CudaGenerator(VOLTA).generate(
            build_volta_tc_gemm(128, 128, 32, block_tile=(128, 128, 32),
                                warp_grid=(4, 4), qp_tile=(2, 2))
        )
        assert "mma.sync.aligned.m8n8k4.row.col.f32.f16.f16.f32" in src.code
        assert "ldmatrix" not in src.code  # Volta has none
        assert balanced(src.code)

    def test_launch_metadata(self):
        src = CudaGenerator(AMPERE).generate(
            build_ampere_tc_gemm(256, 256, 64, block_tile=(128, 128, 32),
                                 warp_grid=(2, 2))
        )
        assert src.grid_dim == 4
        assert src.block_dim == 128


class TestStatementEmission:
    def _gen(self, build):
        kb = KernelBuilder("k", (1,), (4,))
        build(kb)
        return CudaGenerator(AMPERE).generate(kb.build()).code

    def test_sync(self):
        code = self._gen(lambda kb: kb.sync())
        assert "__syncthreads();" in code

    def test_comment(self):
        code = self._gen(lambda kb: kb.comment("stage tiles"))
        assert "// stage tiles" in code

    def test_if_guard(self):
        def build(kb):
            y = kb.param("y", (4,), FP32)
            t = Var("threadIdx.x")
            with kb.when([(t, Const(2))]):
                kb.init(y.tile((1,))[t], 1.0)

        code = self._gen(build)
        assert "if (threadIdx.x < 2)" in code

    def test_register_declaration(self):
        code = self._gen(lambda kb: kb.alloc("acc", (2, 4), FP32, RF))
        assert "float acc[8];" in code

    def test_vectorized_move(self):
        def build(kb):
            x = kb.param("x", (32,), FP16)
            s = kb.alloc("s", (32,), FP16, SH)
            t = Var("threadIdx.x")
            kb.move(x.tile((8,))[t], s.tile((8,))[t])

        code = self._gen(build)
        assert "__pipeline_memcpy_async" in code

    def test_shfl_emission(self):
        def build(kb):
            v = kb.alloc("v", (1,), FP32, RF)
            p = kb.alloc("p", (1,), FP32, RF)
            kb.shfl(v, p, xor_mask=16, threads=kb.block.tile([4]))

        kb = KernelBuilder("k", (1,), (4,))
        # width-4 shfl has no atomic; use a 32-thread block instead
        kb2 = KernelBuilder("k", (1,), (32,))
        v = kb2.alloc("v", (1,), FP32, RF)
        p = kb2.alloc("p", (1,), FP32, RF)
        kb2.shfl(v, p, xor_mask=16, threads=kb2.block)
        code = CudaGenerator(AMPERE).generate(kb2.build()).code
        assert "__shfl_xor_sync(0xffffffffu, v[0], 16);" in code

    def test_reduction_emission(self):
        def build(kb):
            vals = kb.alloc("vals", (4,), FP32, RF)
            out = kb.alloc("out", (1,), FP32, RF)
            kb.reduce("max", vals, out)

        code = self._gen(build)
        assert "max(" in code
        assert re.search(r"float __red\d+ = vals\[0\];", code)

    def test_gelu_helper_in_prelude(self):
        code = self._gen(lambda kb: None)
        assert "__device__ __forceinline__ float gelu(float x)" in code

    def test_symbolic_shape_becomes_parameter(self):
        kb = KernelBuilder("k", (1,), (4,))
        m = kb.symbol("M")
        kb.param("x", (4,), FP32)
        code = CudaGenerator(AMPERE).generate(kb.build()).code
        assert ", int M)" in code


class TestIdentifierHygiene:
    """Generated identifiers are deterministic and collision-free."""

    def _reduction_kernel(self):
        kb = KernelBuilder("k", (1,), (4,))
        vals = kb.alloc("vals", (4,), FP32, RF)
        out = kb.alloc("out", (1,), FP32, RF)
        kb.reduce("max", vals, out)
        kb.reduce("add", vals, out)
        return kb.build()

    def test_temp_names_deterministic_across_generations(self):
        # The temporary counter is per-generate, not process-global:
        # re-generating the same kernel yields byte-identical text.
        kernel = self._reduction_kernel()
        gen = CudaGenerator(AMPERE)
        first = gen.generate(kernel).code
        second = gen.generate(kernel).code
        assert first == second
        assert "__red0" in first and "__red1" in first

    def test_counter_restarts_for_each_kernel(self):
        # A fresh kernel must start naming from __red0 again, no matter
        # how many kernels this generator emitted before it.
        gen = CudaGenerator(AMPERE)
        gen.generate(self._reduction_kernel())
        code = gen.generate(self._reduction_kernel()).code
        assert "__red0" in code
        assert "__red2" not in code

    def test_alloc_colliding_with_param_rejected(self):
        # KernelBuilder.alloc only guards alloc-vs-alloc; the generator
        # must still refuse an allocation shadowing a kernel parameter.
        kb = KernelBuilder("k", (1,), (4,))
        kb.param("A", (4,), FP32)
        kb.alloc("A", (4,), FP32, SH)
        with pytest.raises(ValueError, match="duplicate identifier"):
            CudaGenerator(AMPERE).generate(kb.build())

    def test_alloc_colliding_with_symbol_rejected(self):
        kb = KernelBuilder("k", (1,), (4,))
        kb.symbol("M")
        kb.alloc("M", (4,), FP32, RF)
        with pytest.raises(ValueError, match="duplicate identifier"):
            CudaGenerator(AMPERE).generate(kb.build())
