"""SM90 (Hopper H100) architecture description.

Hopper widens the collective scope of the tensor pipeline from a warp to
a *warpgroup* (128 threads / 4 warps): ``wgmma.mma_async`` instructions
multiply whole 64xN tiles with A and B streamed straight from shared
memory, and the Tensor Memory Accelerator (TMA) moves whole tiles
global-to-shared with a single descriptor-driven ``cp.async.bulk.tensor``
instruction that bypasses the register file.  Hopper also introduces the
OCP fp8 operand formats (e4m3/e5m2, 2x fp16 tensor throughput) and
2:4 structured sparsity with metadata-indexed operands.

Everything Ampere matches still matches here — the Hopper table simply
prepends the warpgroup-scope atomics, so decompositions that stop at
warp scope lower exactly as they would on Ampere.
"""

from __future__ import annotations

from ..specs.atomic import AtomicSpec, OperandPattern as Op
from ..tensor.dtypes import FP8E4M3, FP8E5M2, FP16, FP32, INT32
from ..tensor.memspace import GL, RF, SH
from .ampere import _ampere_atomics
from .gpu import Architecture, register

WGMMA_F16 = "wgmma.mma_async.sync.aligned.m64n64k16.f32.f16.f16"
WGMMA_E4M3 = "wgmma.mma_async.sync.aligned.m64n64k32.f32.e4m3.e4m3"
TMA_G2S = "cp.async.bulk.tensor.2d.shared.global"
SPARSE24_DECOMPRESS = "sparse24.decompress [smem expand]"


def _is_tma(spec) -> bool:
    return spec.label.startswith("tma")


def _is_sparse24(spec) -> bool:
    return spec.label.startswith("sparse24")


def _hopper_atomics():
    table = []
    # Warpgroup mma: A/B are shared-memory tiles (descriptor operands on
    # hardware); only the fp32 accumulator is a register fragment, laid
    # out per lane as [4, 8] (4 values per 8-column n-block, 8 n-blocks).
    table.append(
        AtomicSpec(
            "wgmma.64.64.16.f16", "MatMul", WGMMA_F16, 128,
            [
                Op(mem=SH, dtype=FP16, shape=(64, 16)),
                Op(mem=SH, dtype=FP16, shape=(16, 64)),
            ],
            [Op(mem=RF, dtype=FP32, shape=(4, 8))],
        )
    )
    table.append(
        AtomicSpec(
            "wgmma.64.64.32.e4m3", "MatMul", WGMMA_E4M3, 128,
            [
                Op(mem=SH, dtype=FP8E4M3, shape=(64, 32)),
                Op(mem=SH, dtype=FP8E4M3, shape=(32, 64)),
            ],
            [Op(mem=RF, dtype=FP32, shape=(4, 8))],
        )
    )
    # TMA bulk tensor copies: one instruction per whole 2-D tile,
    # global-to-shared, register-file bypass, asynchronous (drained at
    # the next barrier).  Kernels opt in by labelling the Move "tma...".
    for dtype in (FP16, FP8E4M3, FP8E5M2, INT32):
        table.append(
            AtomicSpec(
                f"tma.g2s.{dtype.name}", "Move", TMA_G2S, 128,
                [Op(mem=GL, dtype=dtype)],
                [Op(mem=SH, dtype=dtype)],
                predicate=_is_tma,
            )
        )
    # 2:4 structured sparsity: expand a compressed (m, k/2) operand tile
    # plus its metadata to the dense (m, k) tile the wgmma consumes.
    table.append(
        AtomicSpec(
            "sparse24.decompress", "Spec", SPARSE24_DECOMPRESS, 128,
            [Op(mem=SH, dtype=FP16), Op(mem=SH, dtype=INT32)],
            [Op(mem=SH, dtype=FP16)],
            predicate=_is_sparse24,
        )
    )
    table.extend(_ampere_atomics())
    return table


#: NVIDIA H100 (SXM5): 132 SMs, 3350 GB/s HBM3, ~989 TFLOP/s dense fp16
#: Tensor Cores (fp8 doubles that), 67 TFLOP/s fp32 FMA.
HOPPER = Architecture(
    "H100 SXM", 90, _hopper_atomics(),
    capabilities=(
        "tensor_core", "ldmatrix", "cp_async",
        "tma", "wgmma", "fp8", "sparse_24",
    ),
    num_sms=132,
    tensor_fp16_tflops=989.5,
    fp32_tflops=66.9,
    fp16_tflops=133.8,
    dram_gbps=3350.0,
    smem_bytes_per_sm=228 * 1024,
    smem_gbps=33_000.0,
    launch_overhead_us=5.0,
)

register(HOPPER, "hopper", aliases=("sm90",))
