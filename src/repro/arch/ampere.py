"""SM86 (Ampere RTX A6000) architecture description.

Ampere's warp-wide ``mma.m16n8k16`` replaced Volta's quad-pair
instructions (an example of why Graphene keeps thread hierarchies
*logical* rather than built-in), and added ``ldmatrix`` tensorized
shared-to-register moves plus ``cp.async`` global-to-shared copies.
"""

from __future__ import annotations

from ..specs.atomic import AtomicSpec, OperandPattern as Op
from ..tensor.dtypes import FP16, FP32
from ..tensor.memspace import GL, RF, SH
from .atomics import common_atomics, generic_move, ldmatrix_atomics
from .gpu import Architecture, register


def _ampere_atomics():
    table = list(common_atomics())
    table.extend(ldmatrix_atomics())
    table.append(
        AtomicSpec(
            "mma.16816", "MatMul",
            "mma.sync.aligned.m16n8k16.row.col.f32.f16.f16.f32", 32,
            [
                Op(mem=RF, dtype=FP16, shape=(2, 2), tile_shape=(2,)),
                Op(mem=RF, dtype=FP16, shape=(2,), tile_shape=(2,)),
            ],
            [Op(mem=RF, dtype=FP32, shape=(2,), tile_shape=(2,))],
        )
    )
    # Asynchronous global-to-shared copies (bypass the register file).
    for dtype, n in ((FP16, 8), (FP32, 4), (FP16, 4)):
        table.append(
            AtomicSpec(
                f"cp.async.{dtype.name}x{n}", "Move",
                f"cp.async.cg.shared.global [{dtype.name} x{n}]", 1,
                [Op(mem=GL, dtype=dtype, shape=(n,), contiguous=True)],
                [Op(mem=SH, dtype=dtype, shape=(n,))],
            )
        )
    table.append(generic_move())
    return table


#: NVIDIA RTX A6000 (GA102): 84 SMs, 768 GB/s GDDR6, ~155 TFLOP/s fp16
#: Tensor Cores with fp32 accumulation, 38.7 TFLOP/s fp32 FMA.
AMPERE = Architecture(
    "RTX A6000", 86, _ampere_atomics(),
    capabilities=("tensor_core", "ldmatrix", "cp_async"),
    num_sms=84,
    tensor_fp16_tflops=154.8,
    fp32_tflops=38.7,
    fp16_tflops=38.7,
    dram_gbps=768.0,
    smem_bytes_per_sm=100 * 1024,
    smem_gbps=19_000.0,
    launch_overhead_us=5.0,
)

register(AMPERE, "ampere", aliases=("sm86", "sm80"))
