"""repro.serve: captured executable graphs and a kernel-serving layer.

The serving stack mirrors how tuned GPU kernels are deployed behind an
inference endpoint:

* :class:`CapturedGraph` (:mod:`repro.serve.graph`) captures one
  (kernel, symbol bindings, binding shapes) launch into an immutable,
  picklable executable with static input/output slots — the CUDA-graph
  idiom: pay launch setup and plan compilation once, then replay with a
  copy-in / replay / copy-out that is bit-identical to
  ``Simulator.run``.
* :class:`GraphCache` (:mod:`repro.serve.cache`) holds captured graphs
  under a byte budget with LRU eviction, sharing the simulator's
  :class:`~repro.sim.plan.CacheStats` counter class.
* :class:`KernelServer` (:mod:`repro.serve.server`) accepts concurrent
  requests, coalesces same-signature requests into batches, replays
  them on pooled worker threads (numpy releases the GIL inside the
  batched gathers/scatters), and reports serving metrics.
* :mod:`repro.serve.workload` builds a kernel catalog over every
  shipped family and samples Zipf-distributed request mixes.
  ``python -m repro.eval serve-bench`` checks the catalog's replay
  fidelity and cold-vs-warm; the repo benchmark's open-loop ``serve``
  workload (``perfbench/``) drives the mixes through a server.
"""

from .cache import GraphCache
from .graph import CapturedGraph, GraphKey, graph_key
from .metrics import LatencyStats, ServerMetrics
from .request import ServeRequest, ServeResult
from .server import KernelServer
from .workload import ServeFamily, serve_catalog, zipf_schedule

__all__ = [
    "CapturedGraph", "GraphKey", "graph_key",
    "GraphCache",
    "LatencyStats", "ServerMetrics",
    "ServeRequest", "ServeResult",
    "KernelServer",
    "ServeFamily", "serve_catalog", "zipf_schedule",
]
