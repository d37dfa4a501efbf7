"""The paper's running example (Figures 1, 5): a tensorized data
movement with ldmatrix.

Walks through the complete Graphene story:

1. logical thread groups: tiling a warp into 2x2 groups of 8 threads;
2. tiling the 16x16 shared-memory tensor into four 8x8 tiles;
3. the warp-level Move that matches the atomic ldmatrix.x4 spec;
4. the generated CUDA C++ with inline PTX (paper Figure 1c);
5. executing the instruction's data-to-thread mapping in the simulator
   and checking it against Figure 1b.

Run:  python examples/ldmatrix_move.py
"""

import numpy as np

from repro import AMPERE, CudaGenerator, Simulator, warp
from repro.layout import Layout
from repro.kernels import LdmatrixMoveConfig, build
from repro.kernels.moves import ldmatrix_lane_values, ldmatrix_reference


def main():
    # -- logical thread groups (Figure 5) ------------------------------------
    groups = warp().tile([8]).reshape((2, 2))
    print("warp tiled into 2x2 groups of 8 threads:", groups)
    print("  group coordinates:", groups.indices())
    print("  index within group:", groups.local_index())

    # Volta quad-pairs (Figure 6), just to show non-contiguous groups:
    quad_pairs = warp("qp").tile([Layout((4, 2), (1, 16))])
    print("quad-pairs:", quad_pairs)
    print()

    # -- the kernel and its CUDA (Figures 1c/1d) -----------------------------
    kernel = build(LdmatrixMoveConfig())
    source = CudaGenerator(AMPERE).generate(kernel)
    print(source.code)

    # -- execute the data-to-thread mapping (Figures 1a/1b) ------------------
    src = np.arange(256, dtype=np.float16).reshape(16, 16)
    out = np.zeros((32, 8), dtype=np.float16)
    Simulator(AMPERE).run(kernel, {"src": src, "out": out})

    print("thread 0 received:", out[0])
    print("thread 5 received:", out[5])
    for lane in range(32):
        expected = ldmatrix_lane_values(src, lane)
        assert set(map(float, out[lane])) == expected, lane
    assert np.array_equal(out, ldmatrix_reference(src))
    print("OK: every thread received exactly the values Figure 1b "
          "prescribes.")


if __name__ == "__main__":
    main()
