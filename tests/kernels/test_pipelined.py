"""Double-buffered (software-pipelined) GEMM tests."""

import numpy as np
import pytest

from repro.arch import AMPERE
from repro.codegen import CudaGenerator
from repro.kernels import GemmConfig, build
from repro.kernels.gemm_optimized import (
    build_ampere_tc_gemm, build_ampere_tc_gemm_pipelined,
)
from repro.layout.linear import synthesize_bank_swizzle
from repro.perfmodel.counts import count_kernel
from repro.sim import Simulator
from repro.sim.plan import kernel_fingerprint


class TestPipelinedGemm:
    def _run(self, m, n, k, **kw):
        kernel = build_ampere_tc_gemm_pipelined(m, n, k, **kw)
        return self._error(kernel, m, n, k)

    def _error(self, kernel, m, n, k):
        rng = np.random.default_rng(m + n + k)
        a = (rng.random((m, k)) - 0.5).astype(np.float16)
        b = (rng.random((k, n)) - 0.5).astype(np.float16)
        c = np.zeros((m, n), dtype=np.float16)
        Simulator(AMPERE).run(kernel, {"A": a, "B": b, "C": c})
        ref = a.astype(np.float32) @ b.astype(np.float32)
        return np.abs(c.astype(np.float32) - ref).max()

    def test_numerics(self):
        assert self._run(32, 16, 64, block_tile=(32, 16, 16),
                         warp_grid=(1, 1)) < 0.01

    def test_many_slices(self):
        assert self._run(16, 16, 128, block_tile=(16, 16, 16),
                         warp_grid=(1, 1)) < 0.01

    def test_multi_warp(self):
        assert self._run(32, 32, 64, block_tile=(32, 32, 16),
                         warp_grid=(2, 2)) < 0.01

    def test_swizzled_config_without_a_synthesized_swizzle(self):
        """48-element B rows have no bank swizzle, so a swizzled config
        stages B through the identity layout."""
        assert synthesize_bank_swizzle(48) is None
        kernel = build(GemmConfig(
            m=32, n=48, k=32, block_tile=(32, 48, 16), warp_grid=(1, 1),
            variant="ampere_pipelined", swizzled=True,
        ))
        b_buffers = [t for t in kernel.allocations()
                     if t.name.startswith("smem_b")]
        assert len(b_buffers) == 2
        assert all(t.swizzle.is_identity() for t in b_buffers)
        assert kernel_fingerprint(kernel)
        assert self._error(kernel, 32, 48, 32) < 0.01

    def test_odd_slice_count_rejected(self):
        with pytest.raises(ValueError, match="even"):
            build_ampere_tc_gemm_pipelined(
                32, 16, 48, block_tile=(32, 16, 16), warp_grid=(1, 1)
            )

    def test_double_buffers_in_generated_code(self):
        kernel = build_ampere_tc_gemm_pipelined(
            32, 16, 64, block_tile=(32, 16, 16), warp_grid=(1, 1)
        )
        src = CudaGenerator(AMPERE).generate(kernel)
        for buf in ("smem_a0", "smem_a1", "smem_b0", "smem_b1"):
            assert buf in src.code
        # Twice the shared memory of the single-buffered kernel.
        single = CudaGenerator(AMPERE).generate(
            build_ampere_tc_gemm(32, 16, 64, block_tile=(32, 16, 16),
                                 warp_grid=(1, 1))
        )
        assert src.smem_bytes == 2 * single.smem_bytes

    def test_same_work_as_single_buffered(self):
        """Pipelining changes overlap, not the amount of work."""
        pipe = build_ampere_tc_gemm_pipelined(
            64, 32, 64, block_tile=(32, 16, 16), warp_grid=(1, 1)
        )
        single = build_ampere_tc_gemm(
            64, 32, 64, block_tile=(32, 16, 16), warp_grid=(1, 1)
        )
        cp = count_kernel(pipe, AMPERE)
        cs = count_kernel(single, AMPERE)
        assert cp.tensor_flops == cs.tensor_flops
        # The analyser counts the guarded last prefetch conservatively:
        # at most one extra K-slice of traffic.
        slice_bytes = (32 * 16 + 16 * 16) * 2 * cs.blocks
        assert cs.dram_read_bytes <= cp.dram_read_bytes \
            <= cs.dram_read_bytes + slice_bytes
