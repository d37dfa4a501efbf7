"""The profiled bench-smoke entry point behind CI.

``python -m repro.eval bench-smoke`` executes one representative kernel
per figure family under the profiler and writes a ``BENCH_fig*.json``
artifact each; the full sweep is ``slow``-marked, one fast family keeps
the path exercised in the default run.
"""

import json

import pytest

from repro.eval.bench_smoke import (
    _large_view_probes, run_bench_smoke, run_family,
    run_plan_compile_bench, run_sim_speed_bench, smoke_families,
    time_engines,
)
from tests.eval import assert_header


def test_single_family_artifact(tmp_path):
    paths = run_bench_smoke(["fig13"], outdir=str(tmp_path),
                            sim_speed=False, plan_compile=False)
    assert [p.endswith("BENCH_fig13.json") for p in paths] == [True]
    artifact = json.loads(open(paths[0]).read())
    assert artifact["passed"] is True
    assert artifact["figure"] == "fig13"
    assert artifact["measured"]["global_load_bytes"] > 0
    assert artifact["modelled"]["dram_read_bytes"] > 0
    assert artifact["checks"], "artifact must carry its drift checks"
    assert_header(artifact)


def test_unknown_family_rejected(tmp_path):
    with pytest.raises(KeyError, match="fig99"):
        run_bench_smoke(["fig99"], outdir=str(tmp_path))


def test_families_cover_every_figure_bench():
    assert set(smoke_families()) == {
        "fig09", "fig10", "fig11", "fig12", "fig13", "fig14"
    }


def test_vectorized_not_slower_than_reference():
    """The plan engine must never lose to the scalar interpreter.

    Two smoke shapes keep this tier-1 fast; the margin on both is wide
    (cold >3x, warm >10x in steady state), so a strict comparison is
    safe against timer noise.
    """
    for figure in ("fig09", "fig13"):
        row = time_engines(figure, repeats=2)
        assert row["vectorized_warm_s"] < row["reference_s"], row
        assert row["vectorized_cold_s"] < row["reference_s"], row


def test_sim_speed_artifact(tmp_path):
    path = run_sim_speed_bench(["fig13"], outdir=str(tmp_path), repeats=2)
    assert path.endswith("BENCH_sim_speed.json")
    artifact = json.loads(open(path).read())
    assert artifact["engines"] == ["reference", "vectorized"]
    (row,) = artifact["figures"]
    assert row["figure"] == "fig13"
    assert row["reference_s"] > 0 and row["vectorized_warm_s"] > 0
    assert artifact["summary"]["min_speedup_warm"] == row["speedup_warm"]
    assert_header(artifact, repeats=2)


def test_plan_compile_artifact(tmp_path):
    path = run_plan_compile_bench(["fig13"], outdir=str(tmp_path),
                                  repeats=2)
    assert path.endswith("BENCH_plan_compile.json")
    artifact = json.loads(open(path).read())
    assert artifact["modes"] == ["auto", "expression"]
    (row,) = artifact["figures"]
    assert row["figure"] == "fig13"
    assert row["index_compile_auto_s"] > 0
    assert row["total_accessors"] >= row["linear_accessors"] >= 0
    assert len(artifact["probes"]) == 3
    assert artifact["summary"]["total_accessors"] == row["total_accessors"]
    assert_header(artifact, repeats=2)


def test_linear_index_compile_not_slower_on_large_views():
    """The tier-1 pin behind BENCH_plan_compile.json: on whole-tile
    power-of-two views the F2 path must beat the coordinate walk.  The
    measured margin is >20x, so best-of-3 is safe against timer noise.
    """
    for probe in _large_view_probes(repeats=3):
        assert probe["speedup"] >= 1.0, probe


@pytest.mark.slow
def test_full_smoke_sweep(tmp_path):
    paths = run_bench_smoke(outdir=str(tmp_path))
    # One artifact per family plus sim-speed, plan-compile and fig15.
    assert len(paths) == len(smoke_families()) + 3
    for path in paths:
        artifact = json.loads(open(path).read())
        assert artifact.get("passed", True) is True, path
        assert "header" in artifact, path


@pytest.mark.slow
def test_every_family_has_measured_traffic():
    for name in smoke_families():
        artifact = run_family(name)
        assert artifact["measured"]["global_load_bytes"] > 0, name
