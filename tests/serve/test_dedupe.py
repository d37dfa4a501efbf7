"""Layout-equivalence dedupe across the plan and graph caches.

A Move operand view's observable behavior is fully determined by its
colexicographic offset sequence, so the kernel fingerprint
canonicalizes such views to their F2 bit matrix
(:func:`repro.sim.plan._canonical_view`).  These tests pin the cache
consequences: spelling the same physical layout differently (nested
vs flat modes) must *hit* — one compiled plan, one captured graph —
while genuinely different offset maps (a mode permutation, a biting
swizzle) must miss.
"""

import numpy as np
import pytest

from repro.arch import AMPERE
from repro.frontend.builder import KernelBuilder
from repro.layout.layout import Layout
from repro.layout.swizzle import Swizzle
from repro.serve import CapturedGraph, GraphCache, graph_key
from repro.sim import Simulator
from repro.sim.plan import kernel_fingerprint, plan_cache_key
from repro.sim.sanitizer import verdict
from repro.tensor.dtypes import FP16
from repro.tensor.memspace import SH

pytestmark = pytest.mark.serve


def build_copy(spelling, swizzle=None, name="respell"):
    """A 4-thread staged copy whose per-thread views use ``spelling``.

    ``Layout(8,1)`` and ``Layout((2,4),(1,2))`` enumerate the same
    offset sequence (equivalent spellings); ``Layout((2,4),(4,1))``
    permutes it.  ``swizzle`` applies to the staging buffer.
    """
    kb = KernelBuilder(name, (1,), (4,))
    x = kb.param("X", (4, 8), FP16)
    y = kb.param("Y", (4, 8), FP16)
    extra = {} if swizzle is None else {"swizzle": swizzle}
    smem = kb.alloc("buf", (4, 8), FP16, mem=SH, **extra)
    tid = kb.block.indices()[0]
    xv = x.with_layout(Layout(32, 1)).tile((8,))[tid].with_layout(spelling)
    sv = smem.with_layout(Layout(32, 1)).tile((8,))[tid] \
             .with_layout(spelling)
    kb.move(xv, sv)
    kb.sync()
    yv = y.with_layout(Layout(32, 1)).tile((8,))[tid].with_layout(spelling)
    kb.move(sv, yv)
    return kb.build()


FLAT = Layout(8, 1)
NESTED = Layout((2, 4), (1, 2))       # same colex offset sequence
PERMUTED = Layout((2, 4), (4, 1))     # different sequence
BITING = Swizzle(1, 3, 1)             # sources bit 4: bites 32 elements


def _bindings():
    x = np.arange(32, dtype=np.float16).reshape(4, 8)
    return {"X": x, "Y": np.zeros((4, 8), dtype=np.float16)}


class TestFingerprintDedupe:
    def test_equivalent_spellings_share_fingerprint(self):
        assert kernel_fingerprint(build_copy(FLAT)) == \
            kernel_fingerprint(build_copy(NESTED))

    def test_permuted_sequence_differs(self):
        assert kernel_fingerprint(build_copy(FLAT)) != \
            kernel_fingerprint(build_copy(PERMUTED))

    def test_biting_swizzle_differs(self):
        assert kernel_fingerprint(build_copy(FLAT)) != \
            kernel_fingerprint(build_copy(FLAT, swizzle=BITING))

    def test_noop_swizzle_is_collapsed(self):
        # Sw<1,3,3> sources bit 6 — beyond the 32-element staging
        # buffer, so the canonical form erases it entirely.
        assert kernel_fingerprint(build_copy(FLAT)) == \
            kernel_fingerprint(build_copy(FLAT, swizzle=Swizzle(1, 3, 3)))

    def test_all_spellings_execute_identically(self):
        results = []
        for kern in (build_copy(FLAT), build_copy(NESTED),
                     build_copy(PERMUTED), build_copy(FLAT, swizzle=BITING)):
            b = _bindings()
            Simulator(AMPERE).run(kern, b)
            results.append(b["Y"])
        for got in results[1:]:
            np.testing.assert_array_equal(results[0], got)

    def test_deduped_spellings_move_identical_traffic(self):
        """The dedupe contract: equal offset sequences mean equal
        memory traffic — bytes, transactions, wavefronts, conflicts
        and sanitizer verdicts all match.  (Atomic *labels* may differ:
        the matcher pattern-matches the spelling, and the cache serves
        whichever artifact compiled first.)"""
        totals = []
        for kern in (build_copy(FLAT), build_copy(NESTED)):
            b = _bindings()
            run = Simulator(AMPERE).run(kern, b, profile=True,
                                        sanitize="report")
            counters = {}
            for spec in run.profile.specs.values():
                for field in (
                    "global_load_bytes", "global_store_bytes",
                    "shared_load_bytes", "shared_store_bytes",
                    "global_load_transactions", "global_store_transactions",
                    "shared_load_wavefronts", "shared_store_wavefronts",
                    "shared_load_bank_conflicts",
                    "shared_store_bank_conflicts",
                ):
                    counters[field] = counters.get(field, 0) + \
                        getattr(spec, field)
            totals.append((counters, run.profile.barriers,
                           verdict(run.sanitizer)))
        assert totals[0] == totals[1]


class TestPlanCacheDedupe:
    def test_equivalent_spelling_is_a_plan_hit(self):
        b = _bindings()
        k_flat, k_nested = build_copy(FLAT), build_copy(NESTED)
        assert plan_cache_key(k_flat, AMPERE, {}, b) == \
            plan_cache_key(k_nested, AMPERE, {}, b)
        sim = Simulator(AMPERE)
        cache = sim.plan_cache
        sim.run(k_flat, _bindings())
        assert cache.stats.misses == 1
        sim.run(k_nested, _bindings())
        assert cache.stats.hits >= 1
        assert len(cache._entries) == 1

    def test_permuted_spelling_recompiles(self):
        sim = Simulator(AMPERE)
        cache = sim.plan_cache
        sim.run(build_copy(FLAT), _bindings())
        sim.run(build_copy(PERMUTED), _bindings())
        assert cache.stats.hits == 0
        assert cache.stats.misses == 2
        assert len(cache._entries) == 2


class TestGraphCacheDedupe:
    def _capture(self, cache, kernel):
        key = graph_key(kernel, AMPERE, {}, _bindings())
        return cache.get_or_capture(
            key,
            lambda: CapturedGraph.capture(kernel, AMPERE, {}, _bindings()),
        )

    def test_equivalent_spelling_hits_without_recapture(self):
        cache = GraphCache()
        _, hit_first = self._capture(cache, build_copy(FLAT))
        assert not hit_first
        graph, hit_second = self._capture(cache, build_copy(NESTED))
        assert hit_second
        snap = cache.snapshot()
        assert snap["entries"] == 1
        assert snap["hits"] == 1
        assert snap["misses"] == 1
        # The deduped graph replays the respelled request correctly.
        b = _bindings()
        graph.replay(b)
        np.testing.assert_array_equal(
            graph.outputs()["Y"].reshape(4, 8), b["X"])

    def test_different_swizzle_recaptures(self):
        cache = GraphCache()
        self._capture(cache, build_copy(FLAT))
        _, hit = self._capture(cache, build_copy(FLAT, swizzle=BITING))
        assert not hit
        snap = cache.snapshot()
        assert snap["entries"] == 2
        assert snap["hits"] == 0
        assert snap["misses"] == 2
