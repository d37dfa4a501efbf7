"""The benchmark's three workloads, driven through the public API.

Every input is drawn here from the run's ``--seed``: network inputs,
the serve traffic (Zipf family draw, exponential gaps, request
bindings) and the tuner's verification seed.  The rosters and the
serve family order are literal lists below, so a change to the program
cannot change the traffic.

Durations are CPU seconds of the process and of its reaped child
processes (:func:`_cpu`).  Those of the single-threaded closed loops
(``networks``, ``tune``) are scaled to a reference machine speed by a
calibration loop (:class:`_Speed`).  On a shared virtual machine the
hypervisor takes the CPU away at random (steal time), which wall time
counts and CPU time does not, and the machine's speed drifts, which
the calibration loop sees too.  See README.md for the measured effect.
Goodput is wall time: serve's from each request's due time, the closed
loops' over the timed units, so that time spent waiting (I/O, locks,
sleeps) is gated too.  Every timed unit's CPU and wall seconds go into
the header, and a unit whose wall/CPU ratio is far above the run's
median is flagged there.

Each workload returns a :class:`Outcome` with the contract's generic
end-to-end metrics (``END_TO_END``), the workload's own named metrics
(``detail``), the per-layer values that come from results rather than
spans, and the sample count behind every percentile.  Correctness
checks run outside the timed windows, except that ``networks`` times
``Network.run(check=True)`` as the operation it measures.

With a :class:`~spans.Recorder` the workload runs traced: units of work
alternate between untraced and traced (ABBA order), the per-layer
metrics come from the traced units, and ``trace.overhead`` compares the
two halves.
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from time import perf_counter, process_time, sleep
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import repro
from repro.graph import GroupCheckError
from repro.serve import KernelServer, serve_catalog
from repro.sim import Simulator
from repro.tuner import TuningCache, check_candidate, get_space, tune

from layers import Tracing
from spans import Recorder

#: (name, unit, better) of the end-to-end metrics every workload reports.
END_TO_END: List[Tuple[str, str, str]] = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("cold_s", "s", "lower"),
    ("warm_s", "s", "lower"),
    ("goodput_rps", "1/s", "higher"),
]

#: Set-up repetitions per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: A unit whose wall/CPU ratio exceeds the run's median ratio by this
#: factor is flagged in the header: it waited rather than computed.
WALL_FLAG_RATIO = 1.5
#: ... and waited at least this long: short units' ratios are noise.
WALL_FLAG_MIN_S = 0.1
#: Modelled times may not get worse than their pins by more than this.
PIN_RTOL = 1e-9

# -- networks -------------------------------------------------------------------
#: The smallest encoder, the widest encoder and the KV-cache decode graph.
NETWORK_ROSTER = ["BERT-base", "BERT-large", "GPT-2-decode"]
#: Modelled µs (``NetworkRun.seconds``) of each network as lowered today.
#: A run that models slower fails: a faster lowering must not get there
#: by picking worse kernels.
NETWORK_SIM_US = {
    "BERT-base": 46.609799330463886,
    "BERT-large": 47.153871285962396,
    "GPT-2-decode": 67.34635820626606,
}
NETWORK_ARCH = "ampere"
NETWORK_MODE = "auto"
#: Fresh interpreters that each lower the roster and make one verified
#: pass, besides the run's own: a process has only one first pass, and
#: one sample of it is too noisy to gate.
NETWORK_COLD_CHILDREN = 2
#: Verified passes per run at least; more while they fit in ``--seconds``.
NETWORK_MIN_PASSES = 3
#: Where a child interpreter finds the benchmark and the program.
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")

# -- serve ----------------------------------------------------------------------
#: Zipf rank order of the serve families (rank 1 is the hottest): the
#: order of ``serve_catalog``, which ``zipf_schedule`` ranks by, written
#: out so that a change to the catalog cannot change the traffic.
SERVE_FAMILIES = [
    "gemm_naive", "gemm", "gemm_parametric", "gemm_epilogue", "moves",
    "layernorm", "softmax", "mlp", "lstm", "fmha", "gemm_fp8",
    "gemm_sparse24",
]
ZIPF_EXPONENT = 1.1
#: Offered rates of the two open-loop phases, requests per second.  With
#: this mix a request costs about 11 ms of CPU, and on two cores the
#: backlog starts to grow between 55 and 60 req/s.  45 req/s is the
#: highest rate whose goodput held still (README.md, Fixed settings).
SERVE_RATES = {"low": 20.0, "high": 45.0}
#: Share of ``--seconds`` each phase gets.
SERVE_PHASE_SHARE = {"low": 0.4, "high": 0.6}
#: At least ten samples beyond p95.
SERVE_MIN_REQUESTS = 200
#: A request slower than this (or failed) misses the limit.
LATENCY_LIMIT_S = 0.200
#: Input sets drawn per family; each request binds one of them.
SERVE_INPUT_SETS = 8
SERVE_MAX_WORKERS = 2

# -- tune -----------------------------------------------------------------------
#: Seconds budgeted per roster pass: a run makes ``seconds // 30`` passes
#: (at least one).  A fixed count keeps peak RSS and the statistics from
#: depending on how fast the host happened to be.
TUNE_PASS_BUDGET_S = 30.0
#: (family, arch, anchor shape, neighbour shape): a cold tune of the
#: anchor, then a transfer-seeded tune of the neighbour.
TUNE_ROSTER = [
    ("gemm", "ampere", {"m": 512, "n": 512, "k": 128},
     {"m": 1024, "n": 512, "k": 128}),
    ("layernorm", "ampere", {"rows": 256, "hidden": 256},
     {"rows": 512, "hidden": 256}),
    ("lstm", "ampere", {"m": 256, "n": 256, "k": 128},
     {"m": 512, "n": 256, "k": 128}),
    ("gemm_fp8", "hopper", {"m": 256, "n": 256, "k": 128},
     {"m": 512, "n": 256, "k": 128}),
]
#: Modelled µs (``score_seconds``) of today's anchor and neighbour winners.
#: A winner that models slower fails: a faster search must not get there
#: by finding worse kernels.
TUNE_WINNER_US = {
    "gemm": (6.248780487804877, 7.391723966184247),
    "layernorm": (5.417886178861788, 5.8341463414634145),
    "lstm": (6.022605077399381, 7.045210154798761),
    "gemm_fp8": (5.164931081716325, 5.164931081716325),
}


@dataclass
class Outcome:
    """What one workload run measured."""

    metrics: Dict[str, float] = field(default_factory=dict)
    #: The workload's own named metrics: name -> (value, unit).
    detail: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Per-layer values that come from results rather than spans.
    layer: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: Reference-speed seconds per CPU second of this run (see _Speed).
    scale: float = 1.0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def merge(self, counts: dict) -> None:
        """Add a child process's ``attempted``, ``failed`` and ``errors``."""
        self.attempted += counts["attempted"]
        self.failed += counts["failed"]
        self.errors.extend(counts["errors"][:20 - len(self.errors)])


def percentile(values, p: float) -> float:
    """Nearest-rank ``p``-th percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _cpu() -> float:
    """CPU seconds of this process and of its reaped child processes.

    Work moved into a process pool stays on the clock.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def _check_pin(what: str, value_us: float, pin_us: float,
               out: "Outcome") -> None:
    if value_us > pin_us * (1.0 + PIN_RTOL):
        out.fail(f"{what}: modelled {value_us:.6f} us, worse than the "
                 f"pinned {pin_us:.6f} us")


#: CPU seconds of one calibration loop on the machine the baselines in
#: README.md come from, at its usual speed.
CALIBRATION_REF_S = 0.027
#: Loops timed back to back at each calibration point.
LOOPS_PER_SAMPLE = 2


def _calibration_s() -> float:
    """CPU seconds of a fixed interpreter-and-numpy loop.

    The loop is benchmark code, so no change to the program moves it;
    only the speed the machine gives this process does.  The garbage
    collector is off while it runs: a collection there would walk the
    program's heap.
    """
    gc.disable()
    try:
        start = process_time()
        table: Dict[tuple, int] = {}
        acc = 0
        for i in range(40_000):
            key = (i & 255, i >> 8)
            table[key] = table.get(key, 0) + i
            acc ^= hash(key) & 0xFFFF
        values = np.arange(1024, dtype=np.float32)
        for _ in range(200):
            values = np.sort(values[::-1] * np.float32(1.0001))
        return process_time() - start
    finally:
        gc.enable()


@dataclass
class _Timing:
    cpu: float = 0.0
    wall: float = 0.0


class _Speed:
    """Calibration samples and timed units of one run.

    ``scale`` converts CPU seconds to seconds at the reference machine's
    speed: a host whose clock or caches slow every instruction down slows
    the calibration loop down with it.  The loop's speed switches between
    modes, and a run's work spends time in each, so the scale uses the
    mean loop time over the whole run: the median picks one mode, and
    the few samples around one unit are noisier than the unit itself.
    A run that takes no samples is not scaled.  ``unit`` times one unit
    of work on both clocks.  ``note`` records the run's scale, the
    unscaled values and every unit's times in the header.
    """

    def __init__(self):
        self.samples: List[float] = []
        self.units: List[Tuple[str, float, float]] = []

    def sample(self) -> None:
        self.samples.extend(_calibration_s() for _ in range(LOOPS_PER_SAMPLE))

    @property
    def scale(self) -> float:
        if not self.samples:
            return 1.0
        return CALIBRATION_REF_S / statistics.mean(self.samples)

    @contextlib.contextmanager
    def unit(self, name: str):
        timing = _Timing()
        cpu, wall = _cpu(), perf_counter()
        try:
            yield timing
        finally:
            timing.cpu = _cpu() - cpu
            timing.wall = perf_counter() - wall
            self.units.append((name, timing.cpu, timing.wall))

    def note(self, out: "Outcome", unscaled: Dict[str, float]) -> None:
        out.scale = self.scale
        if self.samples:
            out.notes["speed"] = {
                "scale": self.scale,
                "calibration_s": statistics.mean(self.samples),
                "samples": len(self.samples),
                "loop_s": self.samples,
                "unscaled": unscaled,
            }
        out.notes["units"] = [{"unit": name, "cpu_s": cpu, "wall_s": wall}
                              for name, cpu, wall in self.units]
        ratios = [wall / cpu for _, cpu, wall in self.units if cpu > 0]
        if ratios:
            limit = WALL_FLAG_RATIO * statistics.median(ratios)
            out.notes["wall_flags"] = [
                name for name, cpu, wall in self.units
                if cpu > 0 and wall / cpu > limit
                and wall - cpu > WALL_FLAG_MIN_S]


def _section(recorder: Optional[Recorder], traced: bool, **kwargs):
    if traced:
        return Tracing(recorder, **kwargs)
    return contextlib.nullcontext()


def _abba(index: int) -> Tuple[bool, bool]:
    """Untraced/traced order of the ``index``-th unit pair."""
    return (False, True) if index % 2 == 0 else (True, False)


# ==============================================================================
# networks: closed loop, one caller, verified passes over three graphs
# ==============================================================================

def _network_inputs(net, rng: np.random.Generator) -> Dict[str, np.ndarray]:
    dtypes = {"fp16": np.float16, "fp32": np.float32}
    graph = net.graph
    return {
        edge: (rng.random(graph.edge(edge).shape) - 0.5).astype(
            dtypes[graph.edge(edge).dtype])
        for edge in graph.inputs
    }


def _lower_roster(roster: List[str], speed: "_Speed") -> Tuple[list, _Timing]:
    nets = [repro.network(name) for name in roster]
    with speed.unit("lower") as timing:
        for net in nets:
            net.lower(NETWORK_ARCH, mode=NETWORK_MODE)
    return nets, timing


def _network_pass(nets, rng, out: Outcome, tallies: dict, speed: "_Speed",
                  recorder: Optional[Recorder] = None, index: int = 0):
    """One verified pass over the roster, on each side of the run.

    ``nets`` maps traced -> the lowered roster.  In a traced run each
    network runs untraced and traced back to back, in ABBA order, so the
    two runs of a pair see the same machine speed.  Returns
    {traced: (CPU seconds, wall seconds, verified runs, modelled µs)}
    and the traced/untraced CPU ratio of each pair.
    """
    totals = {traced: [0.0, 0.0, 0, 0.0] for traced in nets}
    ratios = []
    roster = len(nets[False])
    for j in range(roster):
        order = ([False] if recorder is None
                 else _abba(index * roster + j))
        cpu = {}
        for traced in order:
            net = nets[traced][j]
            bindings = _network_inputs(net, rng)
            out.attempted += 1
            speed.sample()
            run = None
            with _section(recorder, traced), \
                    speed.unit(f"run {net.name}") as timing:
                try:
                    run = net.run(bindings, check=True)
                except GroupCheckError as exc:
                    out.fail(f"{net.name}: {exc}")
            speed.sample()
            cpu[traced] = timing.cpu
            total = totals[traced]
            total[0] += timing.cpu
            total[1] += timing.wall
            if run is None:
                continue
            tally = tallies[traced]
            tally["checked"] += sum(g.checked for g in run.groups)
            tally["passed"] += sum(g.checked and g.passed
                                   for g in run.groups)
            if run.passed:
                total[2] += 1
            else:
                out.fail(f"{net.name}: a group failed its check")
            _check_pin(net.name, run.seconds * 1e6,
                       NETWORK_SIM_US[net.name], out)
            total[3] += run.seconds * 1e6
        if recorder is not None:
            ratios.append(cpu[True] / cpu[False])
    return {traced: tuple(total) for traced, total in totals.items()}, ratios


def cold_networks(seed, roster: List[str]) -> dict:
    """Lower ``roster`` and make one verified pass, in a fresh process.

    Runs in a child interpreter (:func:`_cold_child`); returns the scaled
    cold seconds, the modelled µs and the checks' outcome.
    """
    out, speed = Outcome(), _Speed()
    speed.sample()
    nets, lower = _lower_roster(roster, speed)
    totals, _ = _network_pass(
        {False: nets}, np.random.default_rng(seed), out,
        {False: {"checked": 0, "passed": 0}}, speed)
    cpu_s, _, _, sim_us = totals[False]
    return {"cold_s": (lower.cpu + cpu_s) * speed.scale, "sim_us": sim_us,
            "attempted": out.attempted, "failed": out.failed,
            "errors": out.errors}


_COLD_CHILD = ("import json, sys, workloads; print(json.dumps("
               "workloads.cold_networks(*json.loads(sys.argv[1]))))")


def _cold_child(seed, roster: List[str], out: Outcome) -> Optional[dict]:
    """:func:`cold_networks` in a fresh interpreter; merges its checks."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([BENCH_DIR, SRC_DIR]))
    done = subprocess.run(
        [sys.executable, "-c", _COLD_CHILD, json.dumps([seed, roster])],
        env=env, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        out.attempted += 1
        out.fail(f"cold pass in a child process exited {done.returncode}: "
                 f"{done.stderr.strip()[-400:]}")
        return None
    result = json.loads(done.stdout.strip().splitlines()[-1])
    out.merge(result)
    return result


def run_networks(seconds: float, seed: int,
                 recorder: Optional[Recorder] = None,
                 scratch: str = ".") -> Outcome:
    out = Outcome()
    speed = _Speed()
    setups = []
    for _ in range(SETUP_REPEATS):
        with speed.unit("setup") as timing:
            [repro.network(name) for name in NETWORK_ROSTER]
        setups.append(timing.cpu)
    out.metrics["setup_s"] = statistics.median(setups)

    rng = np.random.default_rng(seed)
    sides = [False, True] if recorder is not None else [False]
    nets, lower, passes = {}, {}, {t: [] for t in sides}
    tallies = {t: {"checked": 0, "passed": 0} for t in sides}
    colds, sims = [], []
    started = perf_counter()
    # The traced run reports no cold_s, so it spawns no cold children.
    for child in range(NETWORK_COLD_CHILDREN if recorder is None else 0):
        result = _cold_child([seed, child + 1], NETWORK_ROSTER, out)
        if result is not None:
            colds.append(result["cold_s"])
            sims.append(result["sim_us"])
    for traced in sides:
        speed.sample()
        with _section(recorder, traced):
            nets[traced], lower[traced] = _lower_roster(NETWORK_ROSTER,
                                                        speed)
        speed.sample()
    index = 0
    overheads = []
    while True:
        totals, ratios = _network_pass(nets, rng, out, tallies, speed,
                                       recorder, index)
        for traced, (cpu_s, wall_s, verified, sim_us) in totals.items():
            passes[traced].append((cpu_s, wall_s, verified))
            sims.append(sim_us)
        overheads.extend(ratios)
        index += 1
        elapsed = perf_counter() - started
        last = passes[False][-1][1]
        if (len(passes[False]) >= NETWORK_MIN_PASSES
                and elapsed + last * len(sides) > seconds):
            break

    untraced = passes[False]
    setup_s = out.metrics["setup_s"]
    speed.note(out, {
        "setup_s": setup_s, "lower_s": lower[False].cpu,
        "passes_s": [cpu_s for cpu_s, _, _ in untraced],
        "passes_wall_s": [wall_s for _, wall_s, _ in untraced]})
    lower_s = lower[False].cpu * out.scale
    first = untraced[0][0] * out.scale
    warm = [cpu_s * out.scale for cpu_s, _, _ in untraced[1:]]
    colds.append(lower_s + first)
    out.metrics.update({
        "setup_s": setup_s * out.scale,
        "cold_s": statistics.median(colds),
        "warm_s": statistics.median(warm),
        "goodput_rps": sum(ok for _, _, ok in untraced[1:])
        / (sum(wall_s for _, wall_s, _ in untraced[1:]) * out.scale),
    })
    out.samples = {"cold_s": len(colds), "warm_s": len(warm)}
    out.notes["cold_s"] = colds
    out.detail = {
        "net.lower_s": (lower_s, "s"),
        "net.first_run_s": (first, "s"),
        "net.warm_run_s": (out.metrics["warm_s"], "s"),
        "net.sim_us": (sims[0], "us"),
    }
    if any(s != sims[0] for s in sims):
        out.fail(f"net.sim_us changed between passes: {sorted(set(sims))}")
    out.layer["net.sim_us"] = sims[0]
    if recorder is not None:
        out.layer.update({
            "graph.groups_checked": tallies[True]["checked"],
            "graph.groups_passed": tallies[True]["passed"],
            "trace.overhead": statistics.median(overheads) - 1.0,
        })
    return out


# ==============================================================================
# serve: open loop, one generator thread, Poisson arrivals at two rates
# ==============================================================================

class _Traffic:
    """Pre-drawn requests of one phase: due offsets, family, input set.

    Seeds must not move the figures, so the draw is stratified: each
    family gets its exact Zipf share of the phase's requests (largest
    remainder) in a seeded random order, and the exponential gaps are
    scaled so the phase lasts exactly ``count / rate`` seconds, which
    makes the arrivals a Poisson process conditioned on its count.
    """

    def __init__(self, rng: np.random.Generator, rate: float, count: int):
        weights = np.array([1.0 / (rank + 1) ** ZIPF_EXPONENT
                            for rank in range(len(SERVE_FAMILIES))])
        share = weights / weights.sum() * count
        counts = np.floor(share).astype(int)
        remainder = np.argsort(counts - share, kind="stable")
        counts[remainder[:count - counts.sum()]] += 1
        self.family = rng.permutation(np.repeat(np.arange(len(counts)),
                                                counts))
        self.duration = count / rate
        gaps = rng.exponential(size=count + 1)
        self.due = np.cumsum(gaps)[:count] / gaps.sum() * self.duration
        self.inputs = rng.integers(0, SERVE_INPUT_SETS, size=count)


class _Phase:
    """Generator plus completion bookkeeping for one open-loop phase."""

    def __init__(self, server, pools, traffic: _Traffic,
                 request_ids: Dict[int, int], first_id: int):
        self.server = server
        self.pools = pools
        self.traffic = traffic
        self.request_ids = request_ids
        self.first_id = first_id
        n = len(traffic.due)
        self.late = np.zeros(n)
        self.done = np.full(n, np.nan)
        self.futures: List[object] = [None] * n
        #: Holds each request's bindings dict so its id() stays unique
        #: while ``request_ids`` maps it.
        self.bindings: List[dict] = [None] * n
        self.backlog_mid = 0
        self.backlog_end = 0
        self._completed = 0
        self._lock = threading.Lock()
        self._all_done = threading.Event()

    def _on_done(self, index: int):
        def callback(_future):
            self.done[index] = perf_counter()
            with self._lock:
                self._completed += 1
                if self._completed == len(self.done):
                    self._all_done.set()
        return callback

    def wait(self, timeout: float) -> None:
        """Block until every request's completion time is recorded."""
        if not self._all_done.wait(timeout):
            raise TimeoutError(
                f"{len(self.done) - self._completed} requests still in "
                f"flight {timeout}s after the phase")

    def _backlog(self, submitted: int) -> int:
        with self._lock:
            return submitted - self._completed

    def family(self, index: int) -> str:
        return SERVE_FAMILIES[self.traffic.family[index]]

    def results(self) -> list:
        """Each request's ServeResult, or None where it failed."""
        return [None if f.exception() is not None else f.result()
                for f in self.futures]

    def summarize(self, rate_name: str, good: List[bool]) -> None:
        """Latency from due time, goodput and open-loop validity."""
        latency = self.done - (self.origin + self.traffic.due)
        wall = float(np.max(self.done)) - self.origin
        lat_ms = latency * 1e3
        within = np.array(good) & (latency <= LATENCY_LIMIT_S)
        growth_allowed = SERVE_RATES[rate_name] * LATENCY_LIMIT_S
        self.summary = {
            "requests": len(lat_ms),
            "p50_ms": statistics.median(lat_ms),
            "p95_ms": percentile(lat_ms, 95),
            "goodput_rps": int(within.sum()) / wall,
            "cpu_ms_per_request": self.cpu_s / len(lat_ms) * 1e3,
            "gen_late_p95_ms": percentile(self.late, 95) * 1e3,
            "gen_late_p99_ms": percentile(self.late, 99) * 1e3,
            "backlog_mid": self.backlog_mid,
            "backlog_end": self.backlog_end,
            # A backlog that grew by more than one latency limit's worth
            # of arrivals over the second half is not a steady state.
            "steady": self.backlog_end
            <= max(self.backlog_mid, 1) + growth_allowed,
        }

    def generate(self) -> None:
        traffic = self.traffic
        n = len(traffic.due)
        origin = perf_counter()
        self.origin = origin
        for i in range(n):
            due = origin + traffic.due[i]
            wait = due - perf_counter()
            if wait > 0:
                sleep(wait)
            name = self.family(i)
            bindings = dict(self.pools[name][traffic.inputs[i]])
            self.bindings[i] = bindings
            self.request_ids[id(bindings)] = self.first_id + i
            self.late[i] = perf_counter() - due
            future = self.server.submit(name, bindings)
            future.add_done_callback(self._on_done(i))
            self.futures[i] = future
            if i == n // 2:
                self.backlog_mid = self._backlog(i + 1)
        self.backlog_end = self._backlog(n)


def _serve_pools(catalog, rng) -> Dict[str, List[dict]]:
    by_name = {fam.name: fam for fam in catalog}
    return {name: [by_name[name].make_bindings(rng)
                   for _ in range(SERVE_INPUT_SETS)]
            for name in SERVE_FAMILIES}


def _serve_setup(pools, seed: int, speed: "_Speed"):
    """Catalog, server start and one warm-up capture per family.

    Returns (server, catalog, pools, setup seconds, warm-up seconds);
    the input pools are drawn outside the timed region.
    """
    with speed.unit("catalog") as start_up:
        catalog = serve_catalog()
        server = KernelServer(catalog, max_workers=min(
            SERVE_MAX_WORKERS, os.cpu_count() or 1))
    if pools is None:
        pools = _serve_pools(catalog, np.random.default_rng([seed, 1]))
    with speed.unit("warm-up") as warmup:
        futures = [server.submit(name, dict(pools[name][0]))
                   for name in SERVE_FAMILIES]
        for future in futures:
            future.result()
    return (server, catalog, pools, start_up.cpu + warmup.cpu,
            warmup.cpu)


def _check_served(phase: _Phase, catalog, references,
                  out: Outcome) -> List[bool]:
    """Bitwise check of every response against a direct Simulator.run."""
    by_name = {fam.name: fam for fam in catalog}
    good = []
    for i, future in enumerate(phase.futures):
        out.attempted += 1
        name = phase.family(i)
        try:
            result = future.result()
        except Exception as exc:  # a failed request is a failed operation
            out.fail(f"request {phase.first_id + i} ({name}): {exc!r}")
            good.append(False)
            continue
        key = (name, int(phase.traffic.inputs[i]))
        if key not in references:
            fam = by_name[name]
            arrays = {k: np.array(v, copy=True)
                      for k, v in phase.pools[name][key[1]].items()}
            Simulator(fam.arch).run(fam.kernel, arrays, fam.symbols)
            references[key] = {k: arrays[k] for k in fam.outputs}
        want = references[key]
        same = set(result.outputs) == set(want) and all(
            result.outputs[k].dtype == want[k].dtype
            and result.outputs[k].shape == want[k].shape
            and result.outputs[k].tobytes() == want[k].tobytes()
            for k in want)
        if not same:
            out.fail(f"request {phase.first_id + i} ({name}): served "
                     f"output differs from Simulator.run")
        good.append(same)
    return good


def run_serve(seconds: float, seed: int,
              recorder: Optional[Recorder] = None,
              scratch: str = ".") -> Outcome:
    out = Outcome()
    # Unscaled: serve's work runs on two threads at once, and the
    # single-threaded calibration loop did not track it (README.md).
    speed = _Speed()
    setups, warmups, servers = [], [], []
    pools = None
    for repeat in range(SETUP_REPEATS):
        # The traced run records the last set-up: captures happen there.
        traced = recorder is not None and repeat == SETUP_REPEATS - 1
        with _section(recorder, traced):
            server, catalog, pools, setup_s, warmup_s = _serve_setup(
                pools, seed, speed)
        setups.append(setup_s)
        warmups.append(warmup_s)
        servers.append(server)
    for stale in servers[:-1]:
        stale.close()
    server = servers[-1]
    rng = np.random.default_rng([seed, 2])
    traffic = {
        name: _Traffic(rng, rate, max(
            SERVE_MIN_REQUESTS,
            round(rate * seconds * SERVE_PHASE_SHARE[name])))
        for name, rate in SERVE_RATES.items()
    }
    request_ids: Dict[int, int] = {}
    sides = [False, True] if recorder is not None else [False]
    phases: Dict[Tuple[str, bool], _Phase] = {}
    try:
        next_id = 0
        for traced in sides:
            for name in SERVE_RATES:
                phase = _Phase(server, pools, traffic[name], request_ids,
                               next_id)
                next_id += len(phase.done)
                with _section(recorder, traced, request_ids=request_ids):
                    start = _cpu()
                    phase.generate()
                    phase.wait(timeout=120)
                    phase.cpu_s = _cpu() - start
                phases[(name, traced)] = phase
    finally:
        server.close()

    references: dict = {}
    for (name, traced), phase in phases.items():
        good = _check_served(phase, catalog, references, out)
        phase.summarize(name, good)
    if recorder is not None:
        _serve_layer(phases[("high", True)], recorder, out)

    low = phases[("low", False)].summary
    high = phases[("high", False)].summary
    untraced = [phases[(name, False)] for name in SERVE_RATES]
    out.metrics = {"setup_s": statistics.median(setups),
                   "cold_s": statistics.median(warmups),
                   "warm_s": sum(phase.cpu_s for phase in untraced)
                   / sum(len(phase.done) for phase in untraced),
                   "goodput_rps": high["goodput_rps"]}
    speed.note(out, {})
    out.samples = {"cold_s": SETUP_REPEATS,
                   "warm_s": low["requests"] + high["requests"],
                   "serve.low.p50_ms": low["requests"],
                   "serve.low.p95_ms": low["requests"],
                   "serve.high.p50_ms": high["requests"],
                   "serve.high.p95_ms": high["requests"]}
    out.detail = {
        "serve.low.p50_ms": (low["p50_ms"], "ms"),
        "serve.low.p95_ms": (low["p95_ms"], "ms"),
        "serve.high.p50_ms": (high["p50_ms"], "ms"),
        "serve.high.p95_ms": (high["p95_ms"], "ms"),
        "serve.goodput_rps": (high["goodput_rps"], "1/s"),
    }
    out.notes["phases"] = {
        name + ("-traced" if traced else ""): phase.summary
        for (name, traced), phase in phases.items()}
    if recorder is not None:
        ratios = [phases[(name, True)].cpu_s / phases[(name, False)].cpu_s
                  for name in SERVE_RATES]
        out.layer["trace.overhead"] = statistics.mean(ratios) - 1.0
    return out


def _serve_layer(phase: _Phase, recorder: Recorder, out: Outcome) -> None:
    """Per-request serve metrics of the traced high-rate phase."""
    results = [r for r in phase.results() if r is not None]
    waits = [(r.latency_s - r.replay_s) * 1e3 for r in results]
    out.layer.update({
        "serve.queue_wait.p50_ms": statistics.median(waits),
        "serve.queue_wait.p95_ms": percentile(waits, 95),
        "serve.batch_size.mean": statistics.mean(r.batch_size
                                                 for r in results),
        "serve.graph_hit_ratio": sum(r.graph_hit for r in results)
        / len(results),
        "serve.gen_late.p95_ms": phase.summary["gen_late_p95_ms"],
    })
    due = phase.origin + phase.traffic.due
    for i in range(len(due)):
        recorder.event("serve.request", due[i], phase.done[i] - due[i],
                       request=phase.first_id + i)


# ==============================================================================
# tune: closed loop, one caller, cold anchor tune then transfer-seeded tune
# ==============================================================================

def _tune_entry(entry, scratch: str, seed: int, speed: "_Speed"):
    """Cold anchor tune + transfer tune of one roster family.

    Returns both CPU times, their summed wall time and both results.
    The cache is closed inside the timed transfer tune: its flush to disk
    is part of it.
    """
    family, arch, anchor, neighbour = entry
    cache_dir = tempfile.mkdtemp(dir=scratch)
    cache = TuningCache(os.path.join(cache_dir, "cache.json"))
    try:
        speed.sample()
        with speed.unit(f"cold {family}") as cold_t:
            cold = tune(family, anchor, arch, cache=cache, seed=seed,
                        workers=1)
        speed.sample()
        with speed.unit(f"transfer {family}") as transfer_t:
            warm = tune(family, neighbour, arch, cache=cache, seed=seed,
                        workers=1, transfer=True)
            cache.close()
        speed.sample()
    finally:
        cache.close()
        shutil.rmtree(cache_dir, ignore_errors=True)
    return (cold_t.cpu, transfer_t.cpu, cold_t.wall + transfer_t.wall,
            cold, warm)


def _recheck(entry, results, seed: int, out: Outcome) -> int:
    """Re-verify both winners through the gate and against their pinned
    modelled times; returns how many pass the gate."""
    family, arch, anchor, neighbour = entry
    passed = 0
    for shape, result, pin_us in zip((anchor, neighbour), results,
                                     TUNE_WINNER_US[family]):
        out.attempted += 1
        _check_pin(f"{family} {shape}", result.score_seconds * 1e6, pin_us,
                   out)
        verdict = check_candidate(get_space(family), result.arch,
                                  result.winner, shape, seed)
        if verdict.passed:
            passed += 1
        else:
            out.fail(f"{family} {shape}: winner {result.winner.label} "
                     f"fails re-check: {verdict.detail}")
    return passed


def run_tune(seconds: float, seed: int,
             recorder: Optional[Recorder] = None,
             scratch: str = ".") -> Outcome:
    out = Outcome()
    speed = _Speed()
    setups = []
    for _ in range(SETUP_REPEATS):
        with speed.unit("setup") as timing:
            for family, *_ in TUNE_ROSTER:
                get_space(family)
        setups.append(timing.cpu)
    out.metrics["setup_s"] = statistics.median(setups)

    gate_seed = int(np.random.default_rng(seed).integers(0, 2 ** 31))
    sides = [False, True] if recorder is not None else [False]
    passes = {t: [] for t in sides}
    results = {t: [] for t in sides}
    walls = []
    for _ in range(max(1, int(seconds // TUNE_PASS_BUDGET_S))):
        rows = {t: [] for t in sides}
        for index, entry in enumerate(TUNE_ROSTER):
            order = _abba(index) if recorder is not None else [False]
            for traced in order:
                with _section(recorder, traced):
                    cold_s, transfer_s, wall_s, cold, warm = _tune_entry(
                        entry, scratch, gate_seed, speed)
                rows[traced].append((cold_s, transfer_s))
                if not traced:
                    walls.append(wall_s)
                results[traced].append((entry, cold, warm))
        for traced in sides:
            passes[traced].append(rows[traced])

    verified = sum(_recheck(entry, (cold, warm), gate_seed, out)
                   for entry, cold, warm in results[False])
    for entry, cold, warm in results.get(True, []):
        _recheck(entry, (cold, warm), gate_seed, out)
    # Winners and their modelled times repeat exactly across passes and
    # between traced and untraced tunes.
    per_pass = len(TUNE_ROSTER) * 2
    winner_sets = set()
    for side in sides:
        picks = [(r.winner.label, r.score_seconds)
                 for _, cold, warm in results[side] for r in (cold, warm)]
        winner_sets.update(tuple(picks[i:i + per_pass])
                           for i in range(0, len(picks), per_pass))
    if len(winner_sets) != 1:
        out.fail("tune winners changed between passes")
    winners = [r.score_seconds * 1e6
               for _, cold, warm in results[False][:len(TUNE_ROSTER)]
               for r in (cold, warm)]

    colds = [sum(c for c, _ in rows) for rows in passes[False]]
    transfers = [sum(t for _, t in rows) for rows in passes[False]]
    setup_s = out.metrics["setup_s"]
    speed.note(out, {"setup_s": setup_s, "cold_s": colds,
                     "transfer_s": transfers})
    out.metrics.update({
        "setup_s": setup_s * out.scale,
        "cold_s": statistics.median(colds) * out.scale,
        "warm_s": statistics.median(transfers) * out.scale,
        "goodput_rps": verified / (sum(walls) * out.scale),
    })
    out.samples = {"cold_s": len(colds), "warm_s": len(transfers)}
    winner_us = geomean(winners)
    out.detail = {
        "tune.cold_s": (out.metrics["cold_s"], "s"),
        "tune.transfer_s": (out.metrics["warm_s"], "s"),
        "tune.winner_us": (winner_us, "us"),
    }
    out.layer["tune.winner_us"] = winner_us
    if recorder is not None:
        traced = [(cold, warm) for _, cold, warm in results[True]]
        evaluated = sum(r.search_stats["evaluated"]
                        for pair in traced for r in pair)
        total = sum(r.search_stats["total_candidates"]
                    for pair in traced for r in pair)
        gates = [g for pair in traced for r in pair for g in r.gate_results]
        # Median of per-family ratios: the ABBA order puts the traced
        # side first for half the families, so a first-tune-in-process
        # cost lands on both sides and the median discards it.
        ratios = [sum(t) / sum(u) for side_t, side_u in
                  zip(passes[True], passes[False])
                  for t, u in zip(side_t, side_u)]
        out.layer.update({
            "tuner.search.evaluated": evaluated,
            "tuner.search.eval_ratio": evaluated / total,
            "tuner.gate.pass_ratio":
                sum(g.passed for g in gates) / len(gates),
            "tuner.transfer.hit_ratio":
                sum(warm.transferred for _, warm in traced) / len(traced),
            "trace.overhead": statistics.median(ratios) - 1.0,
        })
    return out


WORKLOADS: Dict[str, Callable[..., Outcome]] = {
    "networks": run_networks,
    "serve": run_serve,
    "tune": run_tune,
}
