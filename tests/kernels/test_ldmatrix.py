"""The Figure 1 running example: the ldmatrix data-to-thread mapping."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import AMPERE
from repro.kernels import LdmatrixMoveConfig, build
from repro.kernels.moves import ldmatrix_lane_values, ldmatrix_reference
from repro.sim import Simulator


def run_kernel(src):
    out = np.zeros((32, 8), dtype=np.float16)
    Simulator(AMPERE).run(build(LdmatrixMoveConfig()),
                          {"src": src, "out": out})
    return out


class TestFigure1:
    def setup_method(self):
        self.src = np.arange(256, dtype=np.float16).reshape(16, 16)
        self.out = run_kernel(self.src)

    def test_thread0_values(self):
        """Figure 1b: thread 0 receives (0,0),(0,1) of each 8x8 tile."""
        assert set(map(float, self.out[0])) == {
            0.0, 1.0, 8.0, 9.0, 128.0, 129.0, 136.0, 137.0,
        }

    def test_every_lane_matches_figure_1b(self):
        for lane in range(32):
            assert set(map(float, self.out[lane])) == \
                ldmatrix_lane_values(self.src, lane), f"lane {lane}"

    def test_exact_register_placement(self):
        assert np.array_equal(self.out, ldmatrix_reference(self.src))

    def test_all_values_distributed_exactly_once(self):
        assert sorted(self.out.reshape(-1).tolist()) == \
            sorted(self.src.reshape(-1).tolist())

    def test_adjacent_pairs(self):
        """Each lane's register pairs hold column-adjacent values.

        The dump walks the 2x4 register file colexicographically, so a
        register pair (offsets 2p, 2p+1) lands at dump indices
        (base, base+2) for base in {0, 1, 4, 5}.
        """
        for lane in range(32):
            regs = self.out[lane]
            for base in (0, 1, 4, 5):
                assert regs[base + 2] == regs[base] + 1


@settings(max_examples=10)
@given(st.integers(min_value=0, max_value=2 ** 16 - 1))
def test_property_mapping_is_data_independent(seed):
    """The data-to-thread mapping is a fixed permutation of the input."""
    rng = np.random.default_rng(seed)
    src = rng.permutation(256).astype(np.float16).reshape(16, 16)
    out = run_kernel(src)
    assert np.array_equal(out, ldmatrix_reference(src))


class TestGeneratedCode:
    def test_matches_paper_figure_1c_structure(self):
        from repro.codegen import CudaGenerator

        code = CudaGenerator(AMPERE).generate(
            build(LdmatrixMoveConfig())).code
        # One ldmatrix, one address conversion, a warp-staging copy.
        assert code.count("ldmatrix.sync.aligned.m8n8.x4.shared.b16") == 1
        assert code.count("__cvta_generic_to_shared") == 1
