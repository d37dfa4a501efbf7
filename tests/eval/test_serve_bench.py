"""BENCH_serve.json: capture/replay fidelity and cold-vs-warm only."""

import json

from repro.eval.serve_bench import WARM_SPEEDUP_FLOOR, run_serve_bench
from tests.eval import assert_header


def test_moves_family_artifact(tmp_path):
    path = run_serve_bench(families=["moves"], outdir=str(tmp_path))
    assert path.endswith("BENCH_serve.json")
    with open(path) as fh:
        artifact = json.load(fh)
    assert_header(artifact, repeats=5)
    (row,) = artifact["fidelity"]
    assert row["family"] == "moves"
    assert row["bit_identical"] is True
    assert all(row[key] for key in (
        "outputs_bit_identical", "profiler_counters_identical",
        "sanitizer_verdicts_identical"))
    (timing,) = artifact["cold_vs_warm"]
    assert timing["warm_speedup"] >= WARM_SPEEDUP_FLOOR
    # Every round is reported; the family is judged by the median one.
    ratios = sorted(r["warm_speedup"] for r in timing["rounds"])
    assert len(ratios) == 5
    assert timing["warm_speedup"] == ratios[2]
    assert artifact["passed"] is True
    # Served throughput is perfbench's open-loop ``serve`` workload.
    assert "workload" not in artifact
