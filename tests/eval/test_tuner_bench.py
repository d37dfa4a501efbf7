"""BENCH_tuner.json: the fleet-tuner acceptance pins.

Two tiers: the default tier pins the *committed* artifact (the fleet
must be bit-identical to serial, and parallel+transfer must beat the
serial sweep), plus parser wiring; the slow tier re-runs the reduced
roster end to end.
"""

import json
import os

import pytest

from repro.eval.tuner_bench import (
    TARGET_SPEEDUP, run_tuner_bench, tune_all_roster,
)
from repro.tuner import SPACES
from tests.eval import assert_header

pytestmark = pytest.mark.tuner

ARTIFACT = os.path.join(os.path.dirname(__file__), "..", "..",
                        "bench_artifacts", "BENCH_tuner.json")


class TestRoster:
    def test_covers_every_registered_family(self):
        assert {family for family, _ in tune_all_roster()} == set(SPACES)

    def test_anchor_first_with_neighbours(self):
        multi = [shapes for _, shapes in tune_all_roster()
                 if len(shapes) > 1]
        assert multi  # transfer needs follow-on shapes to seed
        for shapes in multi:
            assert all(set(s) == set(shapes[0]) for s in shapes[1:])

    def test_quick_roster_is_a_prefix(self):
        full = dict(tune_all_roster())
        for family, shapes in tune_all_roster(quick=True):
            assert len(shapes) <= 2
            if family != "gemm":  # gemm swaps in smaller problems
                assert shapes == full[family][:len(shapes)]


class TestCommittedArtifact:
    """Tier-1 pins against the artifact shipped in bench_artifacts/."""

    @pytest.fixture(scope="class")
    def payload(self):
        with open(ARTIFACT, encoding="utf-8") as fh:
            return json.load(fh)

    def test_parallel_is_bit_identical_to_serial(self, payload):
        parallel = payload["modes"]["parallel"]
        assert parallel["identical_to_serial"] is True
        assert parallel["mismatches"] == []

    def test_transfer_beats_serial_wall_clock(self, payload):
        serial = payload["modes"]["serial"]["wall_seconds"]
        transfer = payload["modes"]["parallel_transfer"]["wall_seconds"]
        assert transfer <= serial

    def test_meets_speedup_target(self, payload):
        assert payload["target_speedup"] == TARGET_SPEEDUP
        assert payload["speedup_parallel_transfer_vs_serial"] \
            >= TARGET_SPEEDUP
        assert payload["meets_target"] is True

    def test_transfer_hits_on_every_multi_shape_family(self, payload):
        rates = payload["modes"]["parallel_transfer"][
            "transfer_hit_rate_per_family"]
        multi = {family for family, shapes in tune_all_roster()
                 if len(shapes) > 1}
        assert set(rates) == multi
        assert all(rate == 1.0 for rate in rates.values()), rates

    def test_oracle_section_reports_fit_and_agreement(self, payload):
        oracle = payload["oracle"]
        assert oracle["coefficients"]["samples"] > 0
        assert 0.0 <= oracle["rank_agreement_vs_default"] <= 1.0
        assert oracle["default_winner"] and oracle["fitted_winner"]

    def test_sweep_covers_whole_roster(self, payload):
        assert payload["families"] == len(SPACES)
        assert payload["tuned_shapes"] == sum(
            len(s) for _, s in tune_all_roster())


class TestCliWiring:
    def test_eval_parser_accepts_tuner_bench(self):
        from repro.eval.__main__ import build_parser

        args = build_parser().parse_args(
            ["tuner-bench", "--quick", "--workers", "3"])
        assert args.command == "tuner-bench"
        assert args.quick and args.workers == 3

    def test_tuner_parser_accepts_tune_all_and_all_families(self):
        """Every family parses; ``tune-all`` no longer does (the roster
        sweep is ``python -m repro.eval tuner-bench`` only)."""
        from repro.tuner.__main__ import build_parser

        for family in sorted(SPACES):
            assert build_parser().parse_args([family]).family == family
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["tune-all"])
        assert exc.value.code == 2

    def test_tuner_parser_accepts_fleet_flags(self):
        from repro.tuner.__main__ import build_parser

        args = build_parser().parse_args(
            ["gemm", "--workers", "4", "--transfer"])
        assert args.workers == 4 and args.transfer


@pytest.mark.slow
class TestTunerBenchSmoke:
    def test_quick_roster_end_to_end(self, tmp_path):
        path = run_tuner_bench(workers=2, outdir=str(tmp_path), quick=True)
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["quick"] is True
        assert payload["modes"]["parallel"]["identical_to_serial"] is True
        transfer = payload["modes"]["parallel_transfer"]
        assert transfer["wall_seconds"] < \
            payload["modes"]["serial"]["wall_seconds"]
        assert transfer["transfer_hit_rate_per_family"]
        assert_header(payload)
