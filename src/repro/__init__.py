"""Graphene: an IR for optimized tensor computations on GPUs.

A reproduction of Hagedorn et al., ASPLOS 2023.  The public API:

* :mod:`repro.layout` — shapes, layouts, tiles (the CuTe-style algebra);
* :mod:`repro.tensor` — first-class data tensors with hierarchical tiles;
* :mod:`repro.threads` — logical thread groups;
* :mod:`repro.specs` — specifications and decompositions;
* :mod:`repro.frontend` — the Python kernel-authoring API;
* :mod:`repro.codegen` — CUDA C++ generation;
* :mod:`repro.sim` — the functional GPU simulator;
* :mod:`repro.arch` — the architecture registry (SM70/SM86/SM90 tables);
* :mod:`repro.perfmodel` — the analytical performance model;
* :mod:`repro.kernels` — the paper's evaluation kernels;
* :mod:`repro.graph` — the whole-network fusion compiler;
* :mod:`repro.eval` — figure-by-figure evaluation harness.

The stable v1 graph API is three calls::

    net = repro.network("BERT-base")        # op graph for a named network
    net.lower("ampere", tune=True)          # partition, fuse, autotune
    run = net.run()                         # execute + verify vs numpy
"""

from .arch import (
    AMPERE, HOPPER, VOLTA, Architecture, architecture, register, registered,
)
from .codegen import CudaGenerator, KernelSource
from .frontend.builder import KernelBuilder
from .graph import Network, network
from .layout import Layout, Swizzle, col_major, row_major
from .sim import (
    KernelProfile, Machine, RunResult, SimulationError, Simulator,
)
from .specs import Kernel
from .tensor import FP16, FP32, GL, INT32, RF, SH, Tensor, tensor
from .threads import ThreadGroup, blocks, threads, warp

__version__ = "1.0.0"

__all__ = [
    "AMPERE", "HOPPER", "VOLTA", "Architecture", "architecture",
    "register", "registered",
    "CudaGenerator", "KernelSource", "KernelBuilder",
    "Layout", "Network", "network", "Swizzle", "col_major", "row_major",
    "KernelProfile", "Machine", "RunResult", "SimulationError",
    "Simulator", "Kernel",
    "FP16", "FP32", "GL", "INT32", "RF", "SH", "Tensor", "tensor",
    "ThreadGroup", "blocks", "threads", "warp",
    "__version__",
]
