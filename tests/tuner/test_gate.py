"""Correctness-gate tests: the simulator must veto wrong-but-fast configs.

The central scenario the gate exists for: a candidate whose kernel
silently drops work looks *better* to the analytical cost model (fewer
FLOPs, less traffic) and would win any perfmodel-only search.  Only
executing it in ``repro.sim`` against the numpy reference exposes it.
"""

import pytest

from repro.arch import AMPERE
from repro.tuner import tune, verify
from repro.tuner.fleet import FleetEvaluator
from repro.tuner.search import exhaustive_search
from repro.tuner.space import Candidate, GemmSpace
from repro.tuner.verify import GateError, check_candidate, run_gate

from .conftest import TINY_SHAPE

pytestmark = pytest.mark.tuner


class RiggedGemmSpace(GemmSpace):
    """A GEMM space with one sabotaged candidate injected.

    The ``truncate=on`` candidate builds its kernel over only half the
    K reduction — structurally a legal, fast-looking GEMM whose output
    is numerically wrong for the actual problem.
    """

    def __init__(self):
        super().__init__(block_tiles=[(64, 64, 32)], warp_grids=[(2, 2)],
                         swizzles=(True, False), stage_counts=(1,))

    def candidates(self, shape, arch):
        yield Candidate(self.family, block_tile=(64, 64, 32),
                        warp_grid=(2, 2), swizzle=True, stages=1,
                        truncate=True)
        yield from super().candidates(shape, arch)

    def build(self, candidate, shape):
        params = dict(candidate.params)
        if params.pop("truncate", False):
            shape = dict(shape, k=shape["k"] // 2)
        return super().build(Candidate(self.family, **params), shape)


class TestWrongCandidateScenario:
    def test_perfmodel_alone_ranks_the_wrong_candidate_first(self):
        result = exhaustive_search(RiggedGemmSpace(), TINY_SHAPE, AMPERE)
        assert result.best.candidate.params.get("truncate"), (
            "the half-reduction kernel must look fastest to the cost "
            "model for this scenario to mean anything"
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_gate_rejects_it_and_picks_the_correct_runner_up(self, workers):
        # top_k=1 leaves only the sabotaged candidate in the head batch,
        # so the winner comes from the descent below the top-k.
        space = RiggedGemmSpace()
        result = exhaustive_search(space, TINY_SHAPE, AMPERE)
        serial_winner, serial_results = run_gate(
            space, AMPERE, result.ranked, TINY_SHAPE, top_k=1)
        with FleetEvaluator(workers) as fleet:
            winner, gate_results = run_gate(space, AMPERE, result.ranked,
                                            TINY_SHAPE, top_k=1,
                                            evaluator=fleet)
        assert not gate_results[0].passed
        assert "truncate" not in winner.candidate.params
        assert gate_results[-1].passed
        # Passers are left unchecked below the winner: descent stops.
        assert len(gate_results) < len(result.ranked)
        assert winner.label == serial_winner.label
        assert ([(r.candidate.label, r.passed, r.detail)
                 for r in gate_results]
                == [(r.candidate.label, r.passed, r.detail)
                    for r in serial_results])

    def test_tune_end_to_end_returns_the_verified_config(self):
        result = tune("gemm", TINY_SHAPE, AMPERE, space=RiggedGemmSpace(),
                      cache=False, search="exhaustive")
        assert "truncate" not in result.winner.params
        assert result.gate_results
        assert not result.gate_results[0].passed


class TestGateMechanics:
    def test_correct_candidate_passes(self, tiny_space):
        cand = next(iter(tiny_space.candidates(TINY_SHAPE, AMPERE)))
        result = check_candidate(tiny_space, AMPERE, cand, TINY_SHAPE)
        assert result.passed, result.detail
        assert result.max_error is not None and result.max_error < 0.02
        assert result.status == "pass"

    def test_tune_gate_calls_resolve_check_candidate_at_call_time(
            self, tiny_space, monkeypatch):
        # Tracing counts gate calls by patching this attribute, so the
        # one-worker gate must look it up on the verify module per call.
        calls = []
        original = verify.check_candidate

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(verify, "check_candidate", counting)
        result = tune("gemm", TINY_SHAPE, AMPERE, space=tiny_space,
                      cache=False, workers=1)
        assert result.gate_results
        assert len(calls) == len(result.gate_results)

    def test_all_wrong_space_raises_gate_error(self):
        space = RiggedGemmSpace()
        result = exhaustive_search(space, TINY_SHAPE, AMPERE)
        bad_only = [rc for rc in result.ranked
                    if rc.candidate.params.get("truncate")]
        with pytest.raises(GateError, match="passed simulator"):
            run_gate(space, AMPERE, bad_only, TINY_SHAPE)
