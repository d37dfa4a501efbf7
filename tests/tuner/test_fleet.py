"""Fleet differential: the process pool must change nothing but speed.

The contract under test is *bit-identity*: for every kernel family, the
search drivers and :func:`~repro.tuner.verify.run_gate` driven by a
two-worker :class:`~repro.tuner.fleet.FleetEvaluator` must reproduce the
serial leaderboards, verdict lists and winners exactly — same labels,
same scores, same accounting, same error messages.
"""

import numpy as np
import pytest

from repro.tuner import SPACES, get_space, resolve_arch
from repro.tuner.families import SoftmaxSpace
from repro.tuner.fleet import FleetEvaluator, shard_sequence
from repro.tuner.search import beam_search, exhaustive_search
from repro.tuner.verify import GateError, run_gate

pytestmark = pytest.mark.tuner

ARCH = resolve_arch("ampere")

#: One small problem per registered family — every family's fleet
#: sweep must match its serial sweep bit for bit.
FAMILY_SHAPES = {
    "gemm": {"m": 256, "n": 256, "k": 128},
    "gemm_epilogue": {"m": 256, "n": 256, "k": 128},
    "gemm_naive": {"m": 128, "n": 128, "k": 64},
    "gemm_parametric": {"m": 192, "n": 128, "k": 64},
    "layernorm": {"rows": 256, "hidden": 256},
    "lstm": {"m": 256, "n": 256, "k": 128},
    "mlp": {"m": 256, "hidden": 64, "layers": 2},
    "softmax": {"rows": 512, "cols": 64},
    "fmha": {"batch_heads": 2, "seq": 64, "head_dim": 32},
    "moves": {},
    "gemm_fp8": {"m": 64, "n": 64, "k": 128},
    "gemm_sparse24": {"m": 64, "n": 64, "k": 128},
}

#: Families whose capabilities only the Hopper target carries.
FAMILY_ARCH = {
    "gemm_fp8": resolve_arch("hopper"),
    "gemm_sparse24": resolve_arch("hopper"),
}


def _arch_for(family):
    return FAMILY_ARCH.get(family, ARCH)


def _board(result):
    """Everything observable about a search result."""
    return (
        [(rc.label, rc.score_seconds, rc.launches) for rc in result.ranked],
        result.total_candidates, result.evaluated, result.pruned,
        list(result.skipped), list(result.seeded_from),
    )


class TestSharding:
    def test_ranges_cover_in_order(self):
        for total in (0, 1, 5, 16, 17, 100):
            for nshards in (1, 2, 3, 7, 200):
                shards = shard_sequence(range(total), nshards)
                assert all(shards), "no shard may be empty"
                flat = [i for r in shards for i in r]
                assert flat == list(range(total))

    def test_ranges_balanced(self):
        shards = shard_sequence(range(10), 3)
        sizes = [len(r) for r in shards]
        assert max(sizes) - min(sizes) <= 1

    def test_sequence_concat_restores_input(self):
        items = list("abcdefghijk")
        for nshards in (1, 2, 4, 26):
            shards = shard_sequence(items, nshards)
            assert [x for s in shards for x in s] == items


class TestLeaderboardIdentity:
    """Fleet == serial across every registered kernel family."""

    def test_covers_every_registered_family(self):
        assert set(FAMILY_SHAPES) == set(SPACES)

    @pytest.mark.parametrize("family", sorted(FAMILY_SHAPES))
    def test_exhaustive_identical(self, family):
        space = get_space(family)
        arch = _arch_for(family)
        shape = space.validate_shape(FAMILY_SHAPES[family])
        serial = exhaustive_search(space, shape, arch)
        with FleetEvaluator(workers=2) as fleet:
            sharded = exhaustive_search(space, shape, arch, evaluator=fleet)
        assert _board(sharded) == _board(serial)

    @pytest.mark.parametrize("family", sorted(FAMILY_SHAPES))
    def test_beam_identical(self, family):
        space = get_space(family)
        arch = _arch_for(family)
        shape = space.validate_shape(FAMILY_SHAPES[family])
        serial = beam_search(space, shape, arch, beam=2)
        with FleetEvaluator(workers=2) as fleet:
            sharded = beam_search(space, shape, arch, beam=2,
                                  evaluator=fleet)
        assert _board(sharded) == _board(serial)

    def test_wrapper_owns_and_releases_pool(self, tiny_space):
        shape = {"m": 256, "n": 256, "k": 128}
        serial = exhaustive_search(tiny_space, shape, ARCH)
        with FleetEvaluator(workers=2) as fleet:
            sharded = exhaustive_search(tiny_space, shape, ARCH,
                                        evaluator=fleet)
            assert fleet._pool is not None
        assert fleet._pool is None
        assert _board(sharded) == _board(serial)

    def test_workers_one_never_builds_a_pool(self, tiny_space):
        shape = {"m": 256, "n": 256, "k": 128}
        with FleetEvaluator(workers=1) as fleet:
            exhaustive_search(tiny_space, shape, ARCH, evaluator=fleet)
            assert fleet._pool is None


class TestGateIdentity:
    @pytest.mark.parametrize("family", ["gemm_naive", "softmax", "lstm"])
    def test_verdicts_and_winner_match_serial(self, family):
        space = get_space(family)
        shape = space.validate_shape(FAMILY_SHAPES[family])
        ranked = exhaustive_search(space, shape, ARCH).ranked
        winner_s, results_s = run_gate(space, ARCH, ranked, shape, top_k=3)
        with FleetEvaluator(workers=2) as fleet:
            winner_f, results_f = run_gate(space, ARCH, ranked, shape,
                                           top_k=3, evaluator=fleet)
        assert winner_f.label == winner_s.label
        assert ([(r.candidate.label, r.passed, r.detail)
                 for r in results_f]
                == [(r.candidate.label, r.passed, r.detail)
                    for r in results_s])

    def test_gate_error_matches_serial(self):
        space = _BrokenSoftmaxSpace()
        shape = {"rows": 512, "cols": 64}
        ranked = exhaustive_search(space, shape, ARCH).ranked
        with pytest.raises(GateError) as serial_err:
            run_gate(space, ARCH, ranked, shape, top_k=2)
        with FleetEvaluator(workers=2) as fleet, \
                pytest.raises(GateError) as fleet_err:
            run_gate(space, ARCH, ranked, shape, top_k=2, evaluator=fleet)
        assert str(fleet_err.value) == str(serial_err.value)


class _BrokenSoftmaxSpace(SoftmaxSpace):
    """Every candidate fails verification: the reference is shifted."""

    def verification_problem(self, candidate, vshape, seed):
        bindings, checks = super().verification_problem(
            candidate, vshape, seed)
        return bindings, [(name, np.asarray(ref) + 100.0, tol)
                          for name, ref, tol in checks]
