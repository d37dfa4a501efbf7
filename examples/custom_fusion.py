"""Authoring a fusion no library provides: GEMM + tanh epilogue.

The paper notes that cuBLASLt offers no tanh epilogue (Section 6, LSTM
experiment) — with Graphene, fusions are not limited to a library's
menu.  This example authors ``Y = tanh(X @ W + bias)`` through the
public builder API, verifies it in the simulator, and prints the CUDA.

Run:  python examples/custom_fusion.py
"""

import numpy as np

from repro import AMPERE, CudaGenerator, Simulator
from repro.kernels import GemmEpilogueConfig, build


def main():
    m, n, k = 32, 16, 16
    kernel = build(GemmEpilogueConfig(
        m, n, k, arch="ampere", bias=True, activation="tanh",
        block_tile=(32, 16, 16), warp_grid=(1, 1),
        name="gemm_bias_tanh",
    ))

    rng = np.random.default_rng(5)
    x = (rng.random((m, k)) - 0.5).astype(np.float16)
    w = (rng.random((k, n)) - 0.5).astype(np.float16)
    bias = (rng.random(n) - 0.5).astype(np.float16)
    y = np.zeros((m, n), dtype=np.float16)
    Simulator(AMPERE).run(kernel, {"A": x, "B": w, "C": y, "bias": bias})

    reference = np.tanh(
        x.astype(np.float32) @ w.astype(np.float32)
        + bias.astype(np.float32)
    )
    error = np.abs(y.astype(np.float32) - reference).max()
    print(f"tanh-epilogue GEMM max error: {error:.2e}")
    assert error < 0.01
    print("OK: a fusion cuBLASLt does not offer, in ~10 lines.\n")

    source = CudaGenerator(AMPERE).generate(kernel)
    epilogue_lines = [
        line for line in source.code.splitlines() if "tanhf" in line
    ]
    print("generated epilogue lines (excerpt):")
    for line in epilogue_lines[:4]:
        print("   ", line.strip())


if __name__ == "__main__":
    main()
