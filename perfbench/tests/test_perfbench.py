"""Tests of the benchmark itself, on tiny configurations.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import repro  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from layers import PER_LAYER, Tracing  # noqa: E402
from repro.serve import CapturedGraph  # noqa: E402
from repro.tuner import TuningCache, tune  # noqa: E402
from spans import Recorder  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

#: The named metrics each workload prints in its header.
DETAIL = {
    "networks": {"net.lower_s": "s", "net.first_run_s": "s",
                 "net.warm_run_s": "s", "net.sim_us": "us"},
    "serve": {"serve.low.p50_ms": "ms", "serve.low.p95_ms": "ms",
              "serve.high.p50_ms": "ms", "serve.high.p95_ms": "ms",
              "serve.goodput_rps": "1/s"},
    "tune": {"tune.cold_s": "s", "tune.transfer_s": "s",
             "tune.winner_us": "us"},
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload to a few seconds of work."""
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)
    monkeypatch.setattr(workloads, "NETWORK_ROSTER", ["BERT-base"])
    monkeypatch.setattr(workloads, "SERVE_MIN_REQUESTS", 24)
    monkeypatch.setattr(workloads, "TUNE_ROSTER", [
        ("gemm_fp8", "hopper", {"m": 256, "n": 256, "k": 128},
         {"m": 512, "n": 256, "k": 128})])
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    return tmp_path


def _run(workload: str, trace: int, seed: int = 3):
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        code = run.main(["--workload", workload, "--seed", str(seed),
                         "--seconds", "0.5", "--trace", str(trace)])
    lines = stdout.getvalue().strip().splitlines()
    return code, json.loads(lines[0]), json.loads(lines[-1])


def test_metric_lists_match_benchmark_json():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] \
        == workloads.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", ["networks", "serve", "tune"])
def test_every_metric_is_emitted_with_its_unit(tiny, workload):
    code, header, result = _run(workload, trace=0)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {name: unit for name, unit, _ in workloads.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert {name: m["unit"] for name, m in header["detail"].items()} == \
        DETAIL[workload]
    for key in ("host", "cpu_count", "python", "numpy", "git_rev", "seed",
                "workload", "traced", "samples"):
        assert key in header

    code, header, result = _run(workload, trace=1)
    assert code == 0 and result["correct"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        dict(PER_LAYER)
    with open(header["trace_file"]) as fh:
        events = json.load(fh)["traceEvents"]
    assert events and all(e["ph"] == "X" for e in events)


def test_second_seed_gives_same_names_and_passes(tiny):
    names = []
    for seed in (5, 6):
        code, header, result = _run("serve", trace=0, seed=seed)
        assert code == 0 and result["correct"]
        names.append((sorted(result["metrics"]), sorted(header["detail"])))
    assert names[0] == names[1]


def _network_outputs(net, bindings):
    run_ = net.run({k: v.copy() for k, v in bindings.items()}, check=True)
    return run_.outputs, run_.seconds


def test_traced_run_matches_untraced():
    net = repro.network("GPT-2-decode")
    net.lower("ampere", mode="auto")
    rng = np.random.default_rng(0)
    bindings = workloads._network_inputs(net, rng)
    plain, plain_s = _network_outputs(net, bindings)
    recorder = Recorder()
    with Tracing(recorder):
        traced, traced_s = _network_outputs(net, bindings)
    assert traced_s == plain_s
    assert plain.keys() == traced.keys()
    for name in plain:
        assert plain[name].tobytes() == traced[name].tobytes()

    shape = {"m": 256, "n": 256, "k": 128}
    untraced_pick = tune("gemm_fp8", shape, "hopper", cache=TuningCache(None))
    with Tracing(recorder):
        traced_pick = tune("gemm_fp8", shape, "hopper",
                           cache=TuningCache(None))
    assert traced_pick.winner.label == untraced_pick.winner.label
    assert traced_pick.score_seconds == untraced_pick.score_seconds

    stats = recorder.stats()
    for span in ("graph.execute", "sim.run", "sim.replay", "sim.profiler",
                 "tuner.gate", "sim.sanitizer", "kernels.build",
                 "perfmodel.estimate"):
        assert stats[span]["calls"] > 0, span


def test_tracing_restores_every_patched_function():
    before = (CapturedGraph.__dict__["capture"], CapturedGraph.replay,
              repro.graph.lower.partition, repro.sim.Simulator.run)
    with Tracing(Recorder()):
        assert repro.sim.Simulator.run is not before[3]
    after = (CapturedGraph.__dict__["capture"], CapturedGraph.replay,
             repro.graph.lower.partition, repro.sim.Simulator.run)
    assert after == before


def test_self_time_excludes_children():
    recorder = Recorder()

    def child():
        return sum(range(20000))

    wrapped_child = recorder.wrap("child", child)

    def parent():
        return wrapped_child() + wrapped_child()

    recorder.wrap("parent", parent)()
    stats = recorder.stats()
    assert stats["child"]["calls"] == 2
    assert stats["parent"]["self"] == pytest.approx(
        stats["parent"]["total"] - stats["child"]["total"])


def test_corrupted_served_output_is_a_failure(tiny, monkeypatch):
    original = CapturedGraph.outputs

    def corrupt(graph):
        outputs = original(graph)
        first = next(iter(outputs.values()))
        first.view(np.uint8).reshape(-1)[0] ^= 1  # flip one bit
        return outputs

    monkeypatch.setattr(CapturedGraph, "outputs", corrupt)
    code, header, result = _run("serve", trace=0)
    assert code != 0
    assert not result["correct"]
    assert result["failed"] > 0
    assert any("differs from Simulator.run" in e for e in header["errors"])


@pytest.mark.parametrize("workload, pins, key", [
    ("networks", "NETWORK_SIM_US", "BERT-base"),
    ("tune", "TUNE_WINNER_US", "gemm_fp8"),
])
def test_modelled_time_worse_than_its_pin_is_a_failure(tiny, monkeypatch,
                                                       workload, pins, key):
    table = dict(getattr(workloads, pins))
    pin = table[key]
    table[key] = (tuple(v * 0.999 for v in pin) if isinstance(pin, tuple)
                  else pin * 0.999)
    monkeypatch.setattr(workloads, pins, table)
    code, header, result = _run(workload, trace=0)
    assert code != 0 and not result["correct"]
    assert any("worse than the pinned" in e for e in header["errors"])


def test_cpu_clock_counts_child_processes():
    before = workloads._cpu()
    subprocess.run([sys.executable, "-c", "sum(range(10 ** 7))"], check=True)
    assert workloads._cpu() - before > 0.05
