"""Request/result envelopes for the kernel server."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np


@dataclass
class ServeRequest:
    """One kernel execution request submitted to a :class:`KernelServer`.

    ``bindings`` follows the ``Simulator.run`` contract: one numpy array
    per kernel parameter, outputs included (they seed the initial buffer
    contents, exactly like device pointers passed to a CUDA launch).
    The arrays are *not* mutated — results come back as fresh arrays on
    the :class:`ServeResult`.
    """

    family: str
    bindings: Dict[str, np.ndarray]
    symbols: Dict[str, int] = field(default_factory=dict)
    submitted_at: float = field(default_factory=time.perf_counter)


@dataclass
class ServeResult:
    """What one served request produced."""

    family: str
    #: Output-parameter arrays (copies of the graph's static slots).
    outputs: Dict[str, np.ndarray]
    #: Wall time from submission to completion, seconds.
    latency_s: float
    #: Wall time of the replay itself, seconds.
    replay_s: float
    #: True when the captured graph was already resident (warm path).
    graph_hit: bool
    #: Number of requests coalesced into the batch this one rode in.
    batch_size: int = 1
    #: Optional profiler output (when the server runs with profiling).
    profile: Optional[object] = None


__all__ = ["ServeRequest", "ServeResult"]
