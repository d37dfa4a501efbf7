"""Fused multi-head attention: correctness + paper-scale performance.

Builds the Figure 14 FMHA kernel (two Tensor Core GEMMs with an
in-shared-memory softmax between them, fused into one kernel), verifies
it numerically on the simulator at a small size, then evaluates the
MLPerf BERT configuration (16 heads, batch 32, seq 384, head dim 64)
with the performance model against the unfused baseline and NVIDIA's
handwritten TensorRT kernel.

Run:  python examples/fused_attention.py
"""

import numpy as np

from repro import AMPERE, Simulator
from repro.eval.figures import figure_14
from repro.kernels import FmhaConfig, build
from repro.library.funcs import multi_head_attention


def main():
    # -- numerics at simulation scale ----------------------------------------
    batch_heads, seq, dim = 2, 32, 16
    kernel = build(FmhaConfig(batch_heads, seq, dim, kv_chunk=16))
    rng = np.random.default_rng(1)
    q = (rng.random((batch_heads * seq, dim)) - 0.5).astype(np.float16)
    k = (rng.random((batch_heads * seq, dim)) - 0.5).astype(np.float16)
    v = (rng.random((batch_heads * seq, dim)) - 0.5).astype(np.float16)
    o = np.zeros_like(q)
    Simulator(AMPERE).run(kernel, {"Q": q, "K": k, "V": v, "O": o})

    reference = multi_head_attention(q, k, v, heads=batch_heads)
    error = np.abs(o.astype(np.float32) - reference).max()
    print(f"fused FMHA max error vs numpy attention: {error:.2e}")
    assert error < 0.02
    print("OK: softmax(Q K^T / sqrt(d)) V is computed correctly "
          "by the fused decomposition.\n")

    # -- the paper's Figure 14 ------------------------------------------------
    print(figure_14().format_table())


if __name__ == "__main__":
    main()
