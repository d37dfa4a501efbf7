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
from typing import Dict, List, Optional, Sequence, Tuple

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
from ..kernels.moves import build_ldmatrix_kernel
from ..kernels.config import (
    GemmConfig, HopperFp8GemmConfig, LayernormConfig, NaiveGemmConfig,
    SoftmaxConfig, Sparse24GemmConfig,
)
from ..kernels import build
from ..sim import RunOptions, Simulator

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
    #: ``(output, reference, tolerance)`` per checked output.
    checks: Sequence[Tuple[str, np.ndarray, float]] = ()
    arch: object = AMPERE
    symbols: Optional[Dict[str, int]] = None
    #: The problem-table shape the arrays were drawn at.
    shape: Dict[str, int] = field(default_factory=dict)


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


# -- the case library ---------------------------------------------------------------
#: ``(name, family, arch, kernel factory, shape)``, in draw order.  The
#: factory takes the shape as keywords; the arrays come from the
#: family's problem generator (:mod:`repro.library.problems`).
_ROWS = (
    ("gemm_naive", "gemm_naive", AMPERE,
     lambda m, n, k: build(NaiveGemmConfig(m, n, k, grid=(2, 2),
                                           threads=(2, 2))),
     dict(m=16, n=16, k=16)),
    ("gemm_ampere", "gemm", AMPERE,
     lambda m, n, k: build_ampere_tc_gemm(m, n, k, block_tile=(32, 16, 16),
                                          warp_grid=(1, 1)),
     dict(m=32, n=16, k=16)),
    ("gemm_ampere_swizzled", "gemm", AMPERE,
     lambda m, n, k: build(GemmConfig(m=m, n=n, k=k,
                                      block_tile=(64, 64, 32),
                                      warp_grid=(2, 2), swizzled=True)),
     dict(m=64, n=64, k=32)),
    ("gemm_ampere_pipelined", "gemm", AMPERE,
     lambda m, n, k: build(GemmConfig(m=m, n=n, k=k,
                                      block_tile=(32, 16, 16),
                                      warp_grid=(1, 1),
                                      variant="ampere_pipelined")),
     dict(m=32, n=16, k=32)),
    ("gemm_volta", "gemm", VOLTA,
     lambda m, n, k: build(GemmConfig(m=m, n=n, k=k,
                                      block_tile=(32, 32, 16),
                                      warp_grid=(1, 1), variant="volta",
                                      qp_tile=(2, 2))),
     dict(m=32, n=32, k=16)),
    # Symbolic M = 28 over 64 allocated rows: the guarded rows >= M
    # must stay zero.
    ("gemm_parametric", "gemm_parametric", AMPERE,
     lambda m, n, k, rows: build_parametric_gemm(
         n=n, k=k, row_tile=8, max_grid_rows=rows // 8, threads=32),
     dict(m=28, n=32, k=16, rows=64)),
    ("gemm_epilogue", "gemm_epilogue", AMPERE,
     lambda m, n, k: build_gemm_epilogue(m, n, k, block_tile=(32, 16, 16),
                                         warp_grid=(1, 1)),
     dict(m=32, n=16, k=16)),
    ("moves_ldmatrix", "moves", AMPERE, build_ldmatrix_kernel, {}),
    ("layernorm", "layernorm", AMPERE,
     lambda rows, hidden: build(LayernormConfig(rows, hidden,
                                                warps_per_block=4)),
     dict(rows=8, hidden=64)),
    ("softmax", "softmax", AMPERE,
     lambda rows, cols: build(SoftmaxConfig(rows, cols,
                                            threads_per_block=32)),
     dict(rows=32, cols=16)),
    ("mlp", "mlp", AMPERE,
     lambda m, hidden, layers: build_fused_mlp(
         m, hidden, layers=layers, block_rows=64, warp_grid=(2, 2)),
     dict(m=64, hidden=64, layers=2)),
    ("lstm", "lstm", AMPERE,
     lambda m, n, k: build_fused_lstm_cell(m, n, k, block_tile=(32, 16, 16),
                                           warp_grid=(1, 1)),
     dict(m=32, n=16, k=16)),
    ("fmha", "fmha", AMPERE,
     lambda batch_heads, seq, head_dim: build_fused_fmha(
         batch_heads, seq, head_dim, q_tile=16, kv_chunk=16),
     dict(batch_heads=1, seq=16, head_dim=16)),
    # Hopper fp8 warpgroup GEMM over pre-quantized e4m3 operands.
    ("gemm_fp8_hopper", "gemm_fp8", HOPPER,
     lambda m, n, k: build(HopperFp8GemmConfig(m=m, n=n, k=k, block_k=32)),
     dict(m=64, n=64, k=64)),
    # Hopper 2:4 structured-sparse GEMM: compressed A + metadata through
    # the smem decompress atomic, then the f16 wgmma.
    ("gemm_sparse24_hopper", "gemm_sparse24", HOPPER,
     lambda m, n, k: build(Sparse24GemmConfig(m=m, n=n, k=k, block_k=32)),
     dict(m=64, n=64, k=64)),
)


def default_cases(seed: int = 0) -> List[Case]:
    """One small-shape case per shipped kernel family/variant.

    Shapes are the smallest each builder accepts so the whole sweep
    stays tier-1 fast while still covering every emitted construct:
    plain FMA loops, cp.async staging, ldmatrix/mma PTX (Ampere and
    Volta quad-pair), swizzled shared layouts, warp shuffles,
    predicated tails, and symbolic launch parameters.  Every row draws
    its problem from one shared ``seed``-ed generator, in row order.
    """
    # Imported on first use: ``import repro.serve`` (which imports this
    # module) loads no module beyond the ones it needs.
    from ..library.problems import problem

    rng = np.random.default_rng(seed)
    cases: List[Case] = []
    for name, family, arch, make_kernel, shape in _ROWS:
        arrays, checks = problem(family, rng, **shape)
        kernel = make_kernel(**shape)
        # A symbolic dimension binds the shape's value of the same name.
        symbols = {v.name: shape[v.name.lower()] for v in kernel.symbols}
        cases.append(Case(
            name=name, family=family, kernel=kernel, arrays=arrays,
            outputs=[out for out, _, _ in checks], checks=checks,
            arch=arch, symbols=symbols or None, shape=dict(shape),
        ))
    return cases


#: Families the default case list covers (for coverage assertions).
FAMILIES = tuple(sorted({family for _, family, _, _, _ in _ROWS}))


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
    for out in case.outputs:
        sim_out = sim_arrays[out].astype(np.float32)
        emu_out = emu_arrays[out].astype(np.float32)
        sim_emu_max = max(sim_emu_max,
                          float(np.abs(sim_out - emu_out).max()))
    # Report the largest reference error with its check's tolerance.
    emu_ref_max, tol, refs_ok = 0.0, float("nan"), True
    for out, ref, check_tol in case.checks:
        err = float(np.abs(emu_arrays[out].astype(np.float32)
                           - np.asarray(ref, np.float32)).max())
        refs_ok = refs_ok and err <= check_tol
        if not err < emu_ref_max:  # a NaN error counts as the worst
            emu_ref_max, tol = err, check_tol
    passed = sim_emu_max <= SIM_EMU_ATOL and refs_ok
    return CaseResult(case.name, case.family, passed,
                      sim_emu_max=sim_emu_max, emu_ref_max=emu_ref_max,
                      tol=tol)


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
_READ_START = re.compile(r'=|"l"\(&')


def mutate_index_stride(source: KernelSource) -> KernelSource:
    """Bump the first integer stride inside an index expression.

    Simulates the bug class the harness exists to catch: a mis-printed
    stride in the layout-to-index lowering.  Used by the negative test
    (and ``python -m repro.eval conformance --self-check``) to prove the
    three-way comparison actually has teeth.
    """
    lines = source.code.split("\n")
    for ln, line in enumerate(lines):
        # Only mutate an index that is *read*: on the right-hand side
        # of an assignment or in an inline-PTX global address operand
        # (a TMA bulk copy's source).  Mutating e.g. a zero-init store
        # into an already-zero buffer would be an undetectable mutant.
        read = _READ_START.search(line)
        if read is None:
            continue
        m = _INDEX_STRIDE.search(line, read.end())
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
