"""Bounded memory: nothing process-global keeps a kernel alive.

The simulator keeps no identity-keyed state between launches: a launch
plan owns its view table, offset tables are memoized by layout value in
a bounded LRU, and a kernel's fingerprint lives exactly as long as the
kernel.  So a long-running process (a tuner, a server) holds only what
its callers hold.
"""

import gc
import os
import pathlib
import subprocess
import sys
import weakref

import numpy as np
import pytest

from repro.arch import AMPERE
from repro.kernels.gemm_optimized import build_ampere_tc_gemm
from repro.serve import CapturedGraph
from repro.sim import Simulator, kernel_fingerprint

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def _launch_everywhere():
    """Run a tensor-core gemm through every kernel-keyed entry point and
    return a weak reference to it."""
    kernel = build_ampere_tc_gemm(64, 32, 32, block_tile=(32, 16, 16),
                                  warp_grid=(1, 1))
    rng = np.random.default_rng(0)
    arrays = {
        "A": (rng.random((64, 32)) - 0.5).astype(np.float16),
        "B": (rng.random((32, 32)) - 0.5).astype(np.float16),
        "C": np.zeros((64, 32), dtype=np.float16),
    }
    Simulator(AMPERE).run(kernel, arrays, sanitize=True, profile=True)
    kernel_fingerprint(kernel)
    graph = CapturedGraph.capture(kernel, AMPERE, {}, arrays)
    graph.replay(arrays)
    graph.replay(arrays, sanitize=True, profile=True)
    return weakref.ref(kernel)


def test_kernel_dies_with_its_callers():
    ref = _launch_everywhere()
    gc.collect()
    assert ref() is None, "a process-global cache still holds the kernel"


_REPEATED_TUNES = """
import resource
from repro.tuner import tune
from repro.tuner.cache import TuningCache
for _ in range(6):
    tune("gemm", {"m": 256, "n": 256, "k": 128}, "ampere",
         cache=TuningCache(None))
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


@pytest.mark.slow
def test_repeated_tunes_stay_flat():
    """Six identical tunes in a fresh process: peak RSS after the sixth
    is within 1 MB of its value after the second (the first warms the
    bounded layout and offset-table memos)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", _REPEATED_TUNES], env=env,
                         capture_output=True, text=True, check=True)
    peaks_kb = [int(line) for line in out.stdout.split()]
    assert len(peaks_kb) == 6
    assert peaks_kb[5] - peaks_kb[1] <= 1024, peaks_kb
