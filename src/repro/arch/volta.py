"""SM70 (Volta V100) architecture description.

Volta introduced Tensor Cores executed by *quad-pairs* — groups of eight
non-contiguous threads, e.g. threads 0-3 and 16-19 (paper Figure 6 and
Table 2).  Volta has no ldmatrix or cp.async; global-to-shared staging
goes through registers (modelled as a fused LDG+STS per-thread move).
"""

from __future__ import annotations

from ..specs.atomic import AtomicSpec, OperandPattern as Op
from ..tensor.dtypes import FP16, FP32
from ..tensor.memspace import GL, RF, SH
from .atomics import common_atomics, generic_move
from .gpu import Architecture, register


def _volta_atomics():
    table = list(common_atomics())
    table.append(
        AtomicSpec(
            "mma.884", "MatMul",
            "mma.sync.aligned.m8n8k4.row.col.f32.f16.f16.f32", 8,
            [
                Op(mem=RF, dtype=FP16, shape=(4,)),
                Op(mem=RF, dtype=FP16, shape=(4,)),
            ],
            [Op(mem=RF, dtype=FP32, shape=(2, 4))],
        )
    )
    # Global-to-shared staging: one LDG+STS pair per thread.
    for dtype, n in ((FP16, 8), (FP32, 4), (FP16, 2)):
        table.append(
            AtomicSpec(
                f"ldg.sts.{dtype.name}x{n}", "Move",
                "ld.global + st.shared", 1,
                [Op(mem=GL, dtype=dtype, shape=(n,), contiguous=True)],
                [Op(mem=SH, dtype=dtype, shape=(n,))],
            )
        )
    table.append(
        AtomicSpec(
            "ldg.sts.scalar", "Move", "ld.global + st.shared", 1,
            [Op(mem=GL, shape=())], [Op(mem=SH, shape=())],
        )
    )
    table.append(generic_move())
    return table


#: NVIDIA V100 (SXM2): 80 SMs, 900 GB/s HBM2, 125 TFLOP/s fp16 Tensor
#: Cores, 15.7 TFLOP/s fp32 FMA.
VOLTA = Architecture(
    "V100", 70, _volta_atomics(),
    capabilities=("tensor_core",),
    num_sms=80,
    tensor_fp16_tflops=125.0,
    fp32_tflops=15.7,
    fp16_tflops=31.4,
    dram_gbps=900.0,
    smem_bytes_per_sm=96 * 1024,
    smem_gbps=15_700.0,
    launch_overhead_us=5.0,
)

register(VOLTA, "volta", aliases=("sm70",))
