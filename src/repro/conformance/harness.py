"""Three-way conformance harness: emulated CUDA vs simulator vs numpy.

Every shipped kernel family is checked along three independent paths:

1. **Emulated generated CUDA** — ``CudaGenerator`` prints the kernel and
   :func:`repro.codegen.emulator.emulate` executes the printed source,
   exercising the emitted index arithmetic, swizzles, guards, and
   inline PTX verbatim.
2. **Simulator** — ``Simulator.run`` executes the IR directly (with the
   race sanitizer attached), never looking at the generated text.
3. **Reference** — the numpy library function the kernel claims to
   implement.

Paths 1 and 2 share only the PTX semantics table
(:mod:`repro.arch.ptx`) and the fp32-math substitution, so they are
required to agree *elementwise to fp32 round-off*; a mis-printed stride
or mis-simplified index expression shows up as a large divergence (see
:func:`mutate_index_stride`, used by the negative test).  Path 3 bounds
both against ground truth with a per-family tolerance.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..arch import AMPERE, HOPPER, VOLTA
from ..codegen.cuda import CudaGenerator, KernelSource
from ..codegen.emulator import EmulatorError, emulate
from ..kernels.epilogue import build_gemm_epilogue
from ..kernels.fmha import build_fused_fmha
from ..kernels.gemm_optimized import build_ampere_tc_gemm
from ..kernels.gemm_parametric import build_parametric_gemm
from ..kernels.lstm import build_fused_lstm_cell
from ..kernels.mlp import build_fused_mlp
from ..kernels.hopper import random_sparse24
from ..kernels.moves import build_ldmatrix_kernel, ldmatrix_reference
from ..kernels.config import (
    GemmConfig, HopperFp8GemmConfig, LayernormConfig, NaiveGemmConfig,
    SoftmaxConfig, Sparse24GemmConfig,
)
from ..kernels import build
from ..library import funcs
from ..sim import RunOptions, Simulator
from ..tensor.dtypes import FP8E4M3

#: Emulator and simulator share numerics by construction; allow only
#: fp32 round-off between them.
SIM_EMU_ATOL = 1e-5


@dataclass
class Case:
    """One conformance scenario: a kernel, its launch data, and truth."""

    name: str
    family: str
    kernel: object
    arrays: Dict[str, np.ndarray]
    outputs: Sequence[str]
    reference: Dict[str, np.ndarray]
    tol: float
    arch: object = AMPERE
    symbols: Optional[Dict[str, int]] = None
    #: Restrict the reference comparison to a slice of the output
    #: (parametric kernels only define rows < M).
    ref_region: Optional[Callable[[np.ndarray], np.ndarray]] = None


@dataclass
class CaseResult:
    name: str
    family: str
    passed: bool
    sim_emu_max: float = float("nan")
    emu_ref_max: float = float("nan")
    tol: float = float("nan")
    message: str = ""

    def format_row(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        detail = (self.message or
                  f"sim-emu {self.sim_emu_max:.3g}  "
                  f"emu-ref {self.emu_ref_max:.3g} (tol {self.tol:g})")
        return f"{status:4s}  {self.name:28s}  {detail}"


def _fp16(rng, *shape, scale: float = 1.0) -> np.ndarray:
    return ((rng.random(shape) - 0.5) * scale).astype(np.float16)


# -- the case library ---------------------------------------------------------------
def default_cases(seed: int = 0) -> List[Case]:
    """One small-shape case per shipped kernel family/variant.

    Shapes are the smallest each builder accepts so the whole sweep
    stays tier-1 fast while still covering every emitted construct:
    plain FMA loops, cp.async staging, ldmatrix/mma PTX (Ampere and
    Volta quad-pair), swizzled shared layouts, warp shuffles,
    predicated tails, and symbolic launch parameters.
    """
    rng = np.random.default_rng(seed)
    cases: List[Case] = []

    m = n = k = 16
    a, b = _fp16(rng, m, k), _fp16(rng, k, n)
    cases.append(Case(
        name="gemm_naive", family="gemm_naive",
        kernel=build(NaiveGemmConfig(m, n, k, grid=(2, 2),
                                     threads=(2, 2))),
        arrays={"A": a, "B": b, "C": np.zeros((m, n), np.float16)},
        outputs=["C"], reference={"C": funcs.gemm(a, b)}, tol=0.02,
    ))

    m, n, k = 32, 16, 16
    a, b = _fp16(rng, m, k), _fp16(rng, k, n)
    cases.append(Case(
        name="gemm_ampere", family="gemm",
        kernel=build_ampere_tc_gemm(m, n, k, block_tile=(32, 16, 16),
                                    warp_grid=(1, 1)),
        arrays={"A": a, "B": b, "C": np.zeros((m, n), np.float16)},
        outputs=["C"], reference={"C": funcs.gemm(a, b)}, tol=0.02,
    ))

    m, n, k = 64, 64, 32
    a, b = _fp16(rng, m, k), _fp16(rng, k, n)
    cases.append(Case(
        name="gemm_ampere_swizzled", family="gemm",
        kernel=build(GemmConfig(m=m, n=n, k=k, block_tile=(64, 64, 32),
                                warp_grid=(2, 2), swizzled=True)),
        arrays={"A": a, "B": b, "C": np.zeros((m, n), np.float16)},
        outputs=["C"], reference={"C": funcs.gemm(a, b)}, tol=0.02,
    ))

    m, n, k = 32, 16, 32
    a, b = _fp16(rng, m, k), _fp16(rng, k, n)
    cases.append(Case(
        name="gemm_ampere_pipelined", family="gemm",
        kernel=build(GemmConfig(m=m, n=n, k=k, block_tile=(32, 16, 16),
                                warp_grid=(1, 1),
                                variant="ampere_pipelined")),
        arrays={"A": a, "B": b, "C": np.zeros((m, n), np.float16)},
        outputs=["C"], reference={"C": funcs.gemm(a, b)}, tol=0.02,
    ))

    m, n, k = 32, 32, 16
    a, b = _fp16(rng, m, k), _fp16(rng, k, n)
    cases.append(Case(
        name="gemm_volta", family="gemm", arch=VOLTA,
        kernel=build(GemmConfig(m=m, n=n, k=k, block_tile=(32, 32, 16),
                                warp_grid=(1, 1), variant="volta",
                                qp_tile=(2, 2))),
        arrays={"A": a, "B": b, "C": np.zeros((m, n), np.float16)},
        outputs=["C"], reference={"C": funcs.gemm(a, b)}, tol=0.02,
    ))

    n, k, big_m, m_sym = 32, 16, 64, 28
    a, b = _fp16(rng, big_m, k), _fp16(rng, k, n)
    cases.append(Case(
        name="gemm_parametric", family="gemm_parametric",
        kernel=build_parametric_gemm(n=n, k=k, row_tile=8,
                                     max_grid_rows=8, threads=32),
        arrays={"A": a, "B": b,
                "C": np.zeros((big_m, n), np.float16)},
        symbols={"M": m_sym},
        outputs=["C"], reference={"C": funcs.gemm(a[:m_sym], b)},
        ref_region=lambda arr: arr[:m_sym], tol=0.02,
    ))

    m, n, k = 32, 16, 16
    a, b = _fp16(rng, m, k), _fp16(rng, k, n)
    bias = _fp16(rng, n)
    cases.append(Case(
        name="gemm_epilogue", family="gemm_epilogue",
        kernel=build_gemm_epilogue(m, n, k, block_tile=(32, 16, 16),
                                   warp_grid=(1, 1)),
        arrays={"A": a, "B": b, "bias": bias,
                "C": np.zeros((m, n), np.float16)},
        outputs=["C"],
        reference={"C": funcs.gemm_bias_act(a, b, bias, "relu")},
        tol=0.05,
    ))

    src = np.arange(256, dtype=np.float16).reshape(16, 16)
    cases.append(Case(
        name="moves_ldmatrix", family="moves",
        kernel=build_ldmatrix_kernel(),
        arrays={"src": src, "out": np.zeros((32, 8), np.float16)},
        outputs=["out"], reference={"out": ldmatrix_reference(src)},
        tol=0.0,
    ))

    rows, hidden = 8, 64
    x = _fp16(rng, rows, hidden)
    gamma = (rng.random(hidden) * 2).astype(np.float16)
    beta = _fp16(rng, hidden)
    cases.append(Case(
        name="layernorm", family="layernorm",
        kernel=build(LayernormConfig(rows, hidden, warps_per_block=4)),
        arrays={"X": x, "gamma": gamma, "beta": beta,
                "Y": np.zeros((rows, hidden), np.float16)},
        outputs=["Y"], reference={"Y": funcs.layernorm(x, gamma, beta)},
        tol=0.02,
    ))

    rows, cols = 32, 16
    x = _fp16(rng, rows, cols, scale=8.0)
    cases.append(Case(
        name="softmax", family="softmax",
        kernel=build(SoftmaxConfig(rows, cols, threads_per_block=32)),
        arrays={"X": x, "Y": np.zeros((rows, cols), np.float16)},
        outputs=["Y"], reference={"Y": funcs.softmax(x)}, tol=0.01,
    ))

    m, hidden = 64, 64
    x = _fp16(rng, m, hidden)
    weights = [_fp16(rng, hidden, hidden) for _ in range(2)]
    biases = [_fp16(rng, hidden) for _ in range(2)]
    cases.append(Case(
        name="mlp", family="mlp",
        kernel=build_fused_mlp(m, hidden, layers=2, block_rows=64,
                               warp_grid=(2, 2)),
        arrays={"X": x, "W0": weights[0], "W1": weights[1],
                "bias0": biases[0], "bias1": biases[1],
                "Y": np.zeros((m, hidden), np.float16)},
        outputs=["Y"],
        reference={"Y": funcs.mlp(x, weights, biases)}, tol=0.05,
    ))

    m, n, k = 32, 16, 16
    x, w = _fp16(rng, m, k), _fp16(rng, k, n)
    h, r = _fp16(rng, m, k), _fp16(rng, k, n)
    bias = _fp16(rng, n)
    cases.append(Case(
        name="lstm", family="lstm",
        kernel=build_fused_lstm_cell(m, n, k, block_tile=(32, 16, 16),
                                     warp_grid=(1, 1)),
        arrays={"X": x, "W": w, "H": h, "R": r, "bias": bias,
                "Y": np.zeros((m, n), np.float16)},
        outputs=["Y"],
        reference={"Y": funcs.lstm_cell(x, w, h, r, bias)}, tol=0.02,
    ))

    bh, seq, hd = 1, 16, 16
    q, kk = _fp16(rng, bh * seq, hd), _fp16(rng, bh * seq, hd)
    v = _fp16(rng, bh * seq, hd)
    cases.append(Case(
        name="fmha", family="fmha",
        kernel=build_fused_fmha(bh, seq, hd, q_tile=16, kv_chunk=16),
        arrays={"Q": q, "K": kk, "V": v, "O": np.zeros_like(q)},
        outputs=["O"],
        reference={"O": funcs.multi_head_attention(q, kk, v, heads=bh)},
        tol=0.02,
    ))

    # Hopper fp8 warpgroup GEMM: inputs are pre-quantized onto the e4m3
    # grid (fixed points of the round-on-store model), so the TMA stage
    # preserves them bitwise through the fp8 staging buffers.
    m = n = k = 64
    a8 = FP8E4M3.quantize(
        (rng.random((m, k)).astype(np.float32) - 0.5))
    b8 = FP8E4M3.quantize(
        (rng.random((k, n)).astype(np.float32) - 0.5))
    ref = (a8.astype(np.float64) @ b8.astype(np.float64)
           ).astype(np.float16)
    cases.append(Case(
        name="gemm_fp8_hopper", family="gemm_fp8", arch=HOPPER,
        kernel=build(HopperFp8GemmConfig(m=m, n=n, k=k, block_k=32)),
        arrays={"A": a8, "B": b8, "C": np.zeros((m, n), np.float16)},
        outputs=["C"], reference={"C": ref}, tol=0.05,
    ))

    # Hopper 2:4 structured-sparse GEMM: compressed A + metadata through
    # the smem decompress atomic, then the f16 wgmma.
    m = n = k = 64
    comp, meta, dense = random_sparse24(rng, m, k)
    bsp = _fp16(rng, k, n)
    ref = (dense.astype(np.float64) @ bsp.astype(np.float64)
           ).astype(np.float16)
    cases.append(Case(
        name="gemm_sparse24_hopper", family="gemm_sparse24", arch=HOPPER,
        kernel=build(Sparse24GemmConfig(m=m, n=n, k=k, block_k=32)),
        arrays={"A_comp": comp, "A_meta": meta, "B": bsp,
                "C": np.zeros((m, n), np.float16)},
        outputs=["C"], reference={"C": ref}, tol=0.05,
    ))

    return cases


#: Families the default case list covers (for coverage assertions).
FAMILIES = tuple(sorted({
    "gemm_naive", "gemm", "gemm_parametric", "gemm_epilogue", "moves",
    "layernorm", "softmax", "mlp", "lstm", "fmha", "gemm_fp8",
    "gemm_sparse24",
}))


# -- execution ---------------------------------------------------------------------
def run_case(case: Case, source: Optional[KernelSource] = None,
             options: Optional[RunOptions] = None) -> CaseResult:
    """Run one case all three ways and compare elementwise.

    ``source`` overrides the generated CUDA (used by the mutation
    self-check); by default the kernel is printed fresh.  ``options``
    selects the simulator's observers; the default sanitizes
    (conformance doubles as a race sweep over every family).
    """
    if source is None:
        source = CudaGenerator(case.arch).generate(case.kernel)
    if options is None:
        options = RunOptions(sanitize=True)
    sim_arrays = {k: v.copy() for k, v in case.arrays.items()}
    Simulator(case.arch).run(case.kernel, sim_arrays,
                             symbols=case.symbols, options=options)
    emu_arrays = {k: v.copy() for k, v in case.arrays.items()}
    try:
        emulate(source, emu_arrays, case.symbols)
    except (EmulatorError, IndexError, KeyError, ValueError,
            ZeroDivisionError) as exc:
        # Any crash while executing the generated source is a
        # conformance failure (e.g. a mutated stride indexing out of
        # bounds), not a harness error.
        return CaseResult(case.name, case.family, passed=False,
                          message=f"emulator error: "
                                  f"{type(exc).__name__}: {exc}")

    sim_emu_max = 0.0
    emu_ref_max = 0.0
    for out in case.outputs:
        sim_out = sim_arrays[out].astype(np.float32)
        emu_out = emu_arrays[out].astype(np.float32)
        sim_emu_max = max(sim_emu_max,
                          float(np.abs(sim_out - emu_out).max()))
        ref = case.reference.get(out)
        if ref is not None:
            region = case.ref_region or (lambda x: x)
            diff = np.abs(region(emu_out) -
                          np.asarray(ref, np.float32))
            emu_ref_max = max(emu_ref_max, float(diff.max()))
    passed = sim_emu_max <= SIM_EMU_ATOL and emu_ref_max <= case.tol
    return CaseResult(case.name, case.family, passed,
                      sim_emu_max=sim_emu_max, emu_ref_max=emu_ref_max,
                      tol=case.tol)


def run_all(cases: Optional[Sequence[Case]] = None,
            seed: int = 0,
            options: Optional[RunOptions] = None) -> List[CaseResult]:
    return [run_case(c, options=options)
            for c in (cases if cases is not None else default_cases(seed))]


def format_report(results: Sequence[CaseResult]) -> str:
    lines = [r.format_row() for r in results]
    passed = sum(r.passed for r in results)
    lines.append(f"{passed}/{len(results)} conformance cases passed")
    return "\n".join(lines)


# -- mutation self-check ------------------------------------------------------------
_INDEX_STRIDE = re.compile(r"\[([^\[\]\n]*?\* )(\d+)")


def mutate_index_stride(source: KernelSource) -> KernelSource:
    """Bump the first integer stride inside an index expression.

    Simulates the bug class the harness exists to catch: a mis-printed
    stride in the layout-to-index lowering.  Used by the negative test
    (and ``python -m repro.eval conformance --self-check``) to prove the
    three-way comparison actually has teeth.
    """
    lines = source.code.split("\n")
    for ln, line in enumerate(lines):
        # Only mutate an index on the right-hand side of an assignment
        # (a *read*): mutating e.g. a zero-init store into an
        # already-zero buffer would be an undetectable mutant.
        eq = line.find("=")
        if eq < 0:
            continue
        m = _INDEX_STRIDE.search(line, eq + 1)
        if m is None:
            continue
        stride = int(m.group(2))
        lines[ln] = (line[:m.start(2)] + str(stride + 1)
                     + line[m.end(2):])
        return KernelSource(source.name, "\n".join(lines),
                            source.grid_dim, source.block_dim,
                            source.smem_bytes)
    raise ValueError(
        f"no strided read index expression found in {source.name}"
    )
