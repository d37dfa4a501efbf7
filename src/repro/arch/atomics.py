"""The atomic-specification tables (paper Table 2).

``common_atomics`` lists the instruction set shared by every modelled
architecture; :mod:`repro.arch.volta` and :mod:`repro.arch.ampere` extend
it with their generation-specific Tensor Core and data-movement
instructions.  Tables are ordered most-specific-first: instruction
selection picks the first structural match.
"""

from __future__ import annotations

from typing import List

from ..specs.atomic import AtomicSpec, OperandPattern as Op
from ..tensor.dtypes import FP16, FP32
from ..tensor.memspace import GL, RF, SH


def _move(name, instruction, width, src, dst):
    return AtomicSpec(name, "Move", instruction, width, [src], [dst])


def vector_moves() -> List[AtomicSpec]:
    """Vectorized and scalar per-thread loads and stores."""
    table: List[AtomicSpec] = []
    routes = [
        (GL, RF, "ld.global"),
        (RF, GL, "st.global"),
        (SH, RF, "ld.shared"),
        (RF, SH, "st.shared"),
        (SH, GL, "ld.shared + st.global"),
        (RF, RF, "mov"),
    ]
    widths = [
        (FP16, 8, "v4.b32"),
        (FP32, 4, "v4.b32"),
        (FP16, 4, "v2.b32"),
        (FP32, 2, "v2.b32"),
        (FP16, 2, "b32"),
    ]
    for src_mem, dst_mem, base in routes:
        for dtype, n, suffix in widths:
            table.append(
                _move(
                    f"{base}.{suffix}.{dtype.name}x{n}",
                    f"{base}.{suffix}",
                    1,
                    Op(mem=src_mem, dtype=dtype, shape=(n,), contiguous=True),
                    Op(mem=dst_mem, dtype=dtype, shape=(n,)),
                )
            )
        # Scalar fallbacks (any dtype).
        table.append(
            _move(
                f"{base}.scalar",
                f"{base}.b32",
                1,
                Op(mem=src_mem, shape=()),
                Op(mem=dst_mem, shape=()),
            )
        )
    return table


def compute_atomics() -> List[AtomicSpec]:
    """Thread-local FMA, pointwise, reduction, init and warp shuffles."""
    table: List[AtomicSpec] = [
        AtomicSpec(
            "hfma2", "MatMul", "hfma2", 1,
            [Op(dtype=FP16, shape=(2,)), Op(dtype=FP16, shape=(2,))],
            [Op(dtype=FP16, shape=(2,))],
        ),
        AtomicSpec(
            "hfma", "MatMul", "hfma", 1,
            [Op(dtype=FP16, shape=()), Op(dtype=FP16, shape=())],
            [Op(dtype=FP16, shape=())],
        ),
        AtomicSpec(
            "fmaf", "MatMul", "fmaf", 1,
            [Op(dtype=FP32, shape=()), Op(dtype=FP32, shape=())],
            [Op(dtype=FP32, shape=())],
        ),
        # Mixed-precision scalar fallback (fp16 inputs, fp32 accumulator).
        AtomicSpec(
            "fma.mixed", "MatMul", "fma.rn.f32.f16", 1,
            [Op(shape=()), Op(shape=())], [Op(shape=())],
        ),
        AtomicSpec(
            "hadd2", "BinaryPointwise", "hadd2", 1,
            [Op(dtype=FP16, shape=(2,)), Op(dtype=FP16, shape=(2,))],
            [Op(dtype=FP16, shape=(2,))],
            predicate=lambda s: s.op.name == "add",
        ),
        AtomicSpec(
            "hmul", "BinaryPointwise", "hmul", 1,
            [Op(dtype=FP16, shape=()), Op(dtype=FP16, shape=())],
            [Op(dtype=FP16, shape=())],
            predicate=lambda s: s.op.name == "mul",
        ),
    ]
    # Generic per-thread compute fallbacks (element counts must agree,
    # enforced by the executors).
    for n in (None,):
        table.extend(
            [
                AtomicSpec(
                    "binary.thread", "BinaryPointwise", "<op>", 1,
                    [Op(), Op()], [Op()],
                ),
                AtomicSpec(
                    "unary.thread", "UnaryPointwise", "<op>", 1,
                    [Op()], [Op()],
                ),
                AtomicSpec(
                    "reduce.thread", "Reduction", "<op-chain>", 1,
                    [Op()], [Op()],
                ),
                AtomicSpec(
                    "init.thread", "Init", "mov", 1,
                    [], [Op()],
                ),
            ]
        )
    table.append(
        AtomicSpec(
            "shfl.bfly", "Shfl", "shfl.sync.bfly.b32", 32,
            [Op(mem=RF)], [Op(mem=RF)],
        )
    )
    # Accumulator write-back: convert fp32 register pairs to fp16 and
    # store (cvt.rn.f16.f32 x2 + st.global.b32).
    for n, inst in ((2, "cvt.f16x2 + st.global.b32"),
                    (4, "cvt.f16x2 + st.global.v2.b32")):
        table.append(
            AtomicSpec(
                f"cvt.st.global.f16x{n}", "Move", inst, 1,
                [Op(mem=RF, dtype=FP32, shape=(n,), contiguous=True)],
                [Op(mem=GL, dtype=FP16, shape=(n,))],
            )
        )
    return table


def ldmatrix_atomics() -> List[AtomicSpec]:
    """Warp-collective shared-to-register matrix loads (SM75+).

    The ``.trans`` form is selected by putting ``"trans"`` in the Move
    spec's label; it distributes the transposed 8x8 matrices (used for
    mma B operands).
    """
    table = []
    for num, shape in ((4, (2, 2)), (2, (2,)), (1, ())):
        for trans in (False, True):
            suffix = ".trans" if trans else ""
            table.append(
                AtomicSpec(
                    f"ldmatrix.x{num}{suffix}", "Move",
                    f"ldmatrix.sync.aligned.m8n8.x{num}{suffix}.shared.b16",
                    32,
                    [Op(mem=SH, dtype=FP16, shape=(8,), contiguous=True)],
                    [Op(mem=RF, dtype=FP16, shape=shape, tile_shape=(2,))],
                    predicate=(
                        (lambda s: "trans" in s.label) if trans
                        else (lambda s: "trans" not in s.label)
                    ),
                )
            )
    return table


def generic_move() -> AtomicSpec:
    """Last-resort per-thread elementwise copy (an unrolled ld/st loop)."""
    return AtomicSpec(
        "move.thread.generic", "Move", "ld/st loop", 1,
        [Op()], [Op()],
    )


def common_atomics() -> List[AtomicSpec]:
    return vector_moves() + compute_atomics()
