"""Row-wise softmax kernel (the unfused FMHA baseline's middle kernel).

A straightforward fused-row implementation: one thread per row, with the
numerically-stable max-subtraction formulation.  Used standalone for the
Figure 14 baseline and as the softmax stage inside the fused FMHA
kernel's decomposition.
"""

from __future__ import annotations

from ..frontend.builder import KernelBuilder
from ..ir.expr import Var
from ..specs.kernel import Kernel
from ..tensor.dtypes import FP16, FP32
from ..tensor.memspace import RF
from .config import SoftmaxConfig


def build(cfg: SoftmaxConfig) -> Kernel:
    """``Y[r] = softmax(scale * X[r])`` with one thread per row."""
    rows, cols = cfg.rows, cfg.cols
    threads_per_block, scale, name = (
        cfg.threads_per_block, cfg.scale, cfg.name
    )
    if rows % threads_per_block:
        raise ValueError("rows must divide by the block size")
    kb = KernelBuilder(name, (rows // threads_per_block,),
                       (threads_per_block,))
    x = kb.param("X", (rows, cols), FP16)
    y = kb.param("Y", (rows, cols), FP16)
    bid = kb.grid.indices()[0]
    t = Var("threadIdx.x")
    row = bid * threads_per_block + t

    vals = kb.alloc("sm_row", (cols,), FP32, RF)
    rmax = kb.alloc("sm_max", (1,), FP32, RF)
    rsum = kb.alloc("sm_sum", (1,), FP32, RF)
    scale_t = kb.alloc("sm_scale", (1,), FP32, RF)
    kb.init(scale_t, scale)

    x_rows = x.tile((1, None))
    y_rows = y.tile((1, None))
    kb.move(x_rows[row, 0], vals)
    kb.binary("mul", vals, scale_t, vals)
    kb.reduce("max", vals, rmax)
    kb.binary("sub", vals, rmax, vals)
    kb.unary("exp", vals, vals)
    kb.reduce("add", vals, rsum)
    kb.binary("div", vals, rsum, vals)
    kb.move(vals, y_rows[row, 0])
    return kb.build()
