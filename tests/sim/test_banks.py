"""Bank-conflict rule and static analysis tests."""

import numpy as np
from hypothesis import given, strategies as st

from repro.layout.layout import row_major
from repro.layout.swizzle import Swizzle
from repro.sim.banks import (
    access_degree, column_access_degree, ldmatrix_conflict_degree,
    wavefront_degrees,
)
from repro.sim.profiler import (
    MAX_VECTOR_BYTES, SMEM_WAVEFRONT_BYTES, WARP_SIZE, Profiler,
)
from repro.tensor import FP16, FP32, FP64, SH, Tensor

from .profiler_oracle import wavefront_degree as one_wavefront_degree


class TestAccessDegree:
    def test_conflict_free_stride(self):
        # 32 lanes on consecutive words.
        assert access_degree([[4 * i] for i in range(32)]) == 1

    def test_same_bank_different_words(self):
        assert access_degree([[0], [128]]) == 2

    def test_broadcast(self):
        assert access_degree([[0]] * 32) == 1

    def test_vector_lanes(self):
        # Each lane touches 16 contiguous bytes: 8 lanes fill the banks.
        assert access_degree(
            [[16 * i + b for b in range(0, 16, 4)] for i in range(8)]
        ) == 1


@given(st.lists(st.lists(st.integers(-64, 4096), max_size=40),
                min_size=1, max_size=8))
def test_batched_bank_rule_matches_one_wavefront_at_a_time(waves):
    """The profiler's batched rule against a per-bank count of each
    wavefront on its own (empty wavefronts included)."""
    wave_ids = np.repeat(np.arange(len(waves)), [len(w) for w in waves])
    words = np.array([word for wave in waves for word in wave],
                     dtype=np.int64)
    degrees = wavefront_degrees(wave_ids, words, len(waves))
    assert degrees.tolist() == [one_wavefront_degree(w) for w in waves]


class TestLdmatrixDegree:
    def test_row_major_16_wide_conflicts(self):
        smem = Tensor("s", row_major(64, 16), FP16, SH)
        assert ldmatrix_conflict_degree(smem) == 2

    def test_row_major_64_wide_is_worst(self):
        # 128-byte rows all start at bank 0: the eight 16-byte ldmatrix
        # rows pile into the same four banks — why wide GEMM staging
        # buffers are always swizzled.
        smem = Tensor("s", row_major(64, 64), FP16, SH)
        assert ldmatrix_conflict_degree(smem) == 8

    def test_swizzle_fixes_narrow_rows(self):
        smem = Tensor("s", row_major(64, 16), FP16, SH,
                      swizzle=Swizzle(1, 3, 3))
        assert ldmatrix_conflict_degree(smem) == 1

    def test_degree_is_per_subtile(self):
        smem = Tensor("s", row_major(64, 16), FP16, SH)
        assert ldmatrix_conflict_degree(smem, row_tile=2, col_tile=1) == 2


class TestColumnAccess:
    def test_row_major_column_is_worst_case(self):
        smem = Tensor("s", row_major(32, 8), FP16, SH)
        assert column_access_degree(smem) == 4

    def test_fp32_wide_rows(self):
        smem = Tensor("s", row_major(32, 32), FP32, SH)
        assert column_access_degree(smem) == 32

    def test_swizzle_spreads_column(self):
        smem = Tensor("s", row_major(32, 8), FP16, SH,
                      swizzle=Swizzle(2, 1, 5))
        assert column_access_degree(smem) == 1


@st.composite
def wavefronts(draw):
    """One warp's shared access that fits a single wavefront.

    Each lane touches one contiguous run of at most one vector's worth
    of elements (so it issues a single segment) at a random offset, and
    the lanes together move at most one wavefront of bytes.
    """
    dtype = draw(st.sampled_from([FP16, FP32, FP64]))
    itemsize = dtype.bytes
    budget = SMEM_WAVEFRONT_BYTES // itemsize
    runs = []
    for _ in range(draw(st.integers(min_value=1, max_value=WARP_SIZE))):
        if budget == 0:
            break
        count = draw(st.integers(
            min_value=1, max_value=min(MAX_VECTOR_BYTES // itemsize, budget)))
        runs.append((draw(st.integers(min_value=0, max_value=1023)), count))
        budget -= count
    return dtype, runs, draw(st.sampled_from(["read", "write"]))


@given(wavefronts())
def test_profiler_wavefront_matches_access_degree(wave):
    """The profiler's measured wavefront and the static helper apply the
    same bank rule to the same bytes."""
    dtype, runs, kind = wave
    smem = Tensor("s", row_major(1, 1), dtype, SH)
    prof = Profiler()
    prof.begin_block(0)
    prof.begin_exec("st", "ld.shared", 1, range(len(runs)))
    for lane, (start, count) in enumerate(runs):
        prof.record_rows(smem, kind, np.array([lane]),
                         np.arange(start, start + count)[None, :], None,
                         np.array([lane]))
    prof.end_exec()
    counters = prof.finish("k", 1, WARP_SIZE).specs["st"]
    side = "load" if kind == "read" else "store"
    assert getattr(counters, f"shared_{side}_wavefronts") == 1
    itemsize = dtype.bytes
    expected = access_degree([
        range(start * itemsize, (start + count) * itemsize)
        for start, count in runs
    ])
    assert getattr(counters, f"shared_{side}_transactions") == expected
