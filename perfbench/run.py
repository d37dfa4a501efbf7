"""Benchmark entry point: one workload, one seed, one JSON result.

Run from the root of a checkout::

    python3 perfbench/run.py --workload networks --seed 1 --seconds 40 --trace 0

Workloads are ``networks``, ``serve`` and ``tune`` (see ``README.md``).
Standard output carries two JSON lines: a header (host, versions, git
rev, seed, workload, traced flag, the sample count behind each
percentile, the workload's own named metrics and phase notes), then the
result ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the per-layer ones, and the spans are written as Chrome
``trace_event`` JSON under ``.perfbench/``.  The exit code is non-zero
when any output was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Where traces and temporary tuning caches go, inside the checkout.
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: Timed in a fresh interpreter: the CPU a user's process spends importing.
_IMPORT_PROBE = (
    "import time; t = time.process_time(); "
    "import repro, repro.graph, repro.serve, repro.tuner; "
    "print(time.process_time() - t)"
)


def _import_seconds(repeats: int) -> float:
    """Median import time of the program over fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE],
                              env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=60, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _git_rev() -> str:
    """The checkout's commit, read from ``.git`` when there is one."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["networks", "serve", "tune"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    import numpy as np

    import workloads
    from layers import PER_LAYER, span_metrics
    from spans import Recorder

    os.makedirs(OUT_DIR, exist_ok=True)
    recorder = Recorder() if args.trace else None
    scratch = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
    try:
        import_s = _import_seconds(workloads.SETUP_REPEATS)
        outcome = workloads.WORKLOADS[args.workload](
            args.seconds, args.seed, recorder, scratch=scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if recorder is None:
        outcome.metrics["setup_s"] += import_s * outcome.scale
        outcome.metrics["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {name: {"value": float(outcome.metrics[name]),
                          "unit": unit}
                   for name, unit, _ in workloads.END_TO_END}
        trace_file = None
    else:
        values = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
        values.update(span_metrics(recorder))
        values.update(outcome.layer)
        metrics = {name: {"value": float(values[name]), "unit": unit}
                   for name, unit in PER_LAYER}
        trace_file = os.path.join(
            OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        recorder.save(trace_file)

    header = {
        "schema": "perfbench/1",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "host": platform.node(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_rev": _git_rev(),
        "import_s": import_s,
        "samples": outcome.samples,
        "detail": {name: {"value": float(value), "unit": unit}
                   for name, (value, unit) in outcome.detail.items()},
        "notes": outcome.notes,
        "errors": outcome.errors,
        "trace_file": trace_file,
    }
    correct = outcome.failed == 0
    print(json.dumps(header, default=float))
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
