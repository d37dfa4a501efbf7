"""CUDA emitters for atomic specifications.

Each emitter turns one matched leaf spec into CUDA C++ lines — plain
assignments for scalar instructions, ``reinterpret_cast`` copies for
vectorized moves, and inline PTX for tensor instructions (ldmatrix, mma,
cp.async), mirroring the paper's Figure 1c output.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Tuple

from ..ir.expr import Const, IntExpr
from ..layout import inttuple as it
from ..specs.base import Spec
from ..tensor.dtypes import FP8E4M3, FP8E5M2, FP16, FP32, INT32, DType
from ..tensor.memspace import GL, RF, SH
from ..tensor.tensor import Tensor, Tile


class EmitterContext:
    """Per-kernel emission state: indentation plus the temporary-name
    counter.

    One context lives for one ``CudaGenerator.generate`` call, so
    temporary identifiers (``__smem_addr3``, ``__red1``, ...) are
    numbered deterministically from zero within each kernel — the same
    kernel always prints the same source, regardless of what was
    generated before it in the process (goldens and the conformance
    emulator both rely on this).
    """

    def __init__(self, pad: str = ""):
        self.pad = pad
        self._tmp_counter = itertools.count()

    def at(self, pad: str) -> "EmitterContext":
        """The same emission context, indented for a nested statement."""
        ctx = EmitterContext.__new__(EmitterContext)
        ctx.pad = pad
        ctx._tmp_counter = self._tmp_counter
        return ctx

    def fresh(self, prefix: str) -> str:
        """A kernel-unique identifier for an emitted temporary."""
        return f"__{prefix}{next(self._tmp_counter)}"


# -- element addressing -------------------------------------------------------------
def _swizzled(tensor: Tensor, offset_str: str) -> str:
    sw = tensor.swizzle
    if sw.is_identity():
        return offset_str
    mask = (1 << sw.bits) - 1
    o = f"({offset_str})"
    return f"({o} ^ ((({o} >> {sw.base + sw.shift}) & {mask}) << {sw.base}))"


def element_offsets(tensor: Tensor) -> List[Tuple[IntExpr, List[str]]]:
    """Per-element (offset expression, predicate strings), colex order."""
    shape = tensor.layout.shape
    if shape == ():
        coords = [()]
    else:
        coords = list(it.iter_coords(shape))
    out = []
    for coord in coords:
        wrapped = coord if isinstance(coord, tuple) else (coord,)
        offset = tensor.offset + Const(tensor.layout(coord))
        preds: List[str] = []
        if tensor.guards is not None:
            for d, guard in enumerate(tensor.guards):
                if guard is None:
                    continue
                cd = wrapped[d] if d < len(wrapped) else 0
                lhs = guard.origin + Const(cd) if isinstance(cd, int) else \
                    guard.origin + cd
                preds.append(f"{lhs.to_c()} < {guard.extent.to_c()}")
        out.append((offset, preds))
    return out


def element_refs(tensor: Tensor) -> List[Tuple[str, List[str]]]:
    """Per-element ``buffer[index]`` strings with their predicates."""
    return [
        (f"{tensor.buffer}[{_swizzled(tensor, off.to_c())}]", preds)
        for off, preds in element_offsets(tensor)
    ]


def frag_b32_regs(tensor: Tensor) -> List[str]:
    """The fragment reinterpreted as packed 32-bit registers.

    fp16 pairs pack into one b32; fp32 values are one register each.
    Requires the fragment's pairs to be contiguous, which the atomic
    patterns guarantee.
    """
    offsets: List[IntExpr] = []
    if isinstance(tensor.element, Tile):
        for crd in it.iter_coords(tensor.layout.shape):
            offsets.extend(o for o, _ in element_offsets(tensor[crd]))
    else:
        offsets = [o for o, _ in element_offsets(tensor)]
    if tensor.dtype == FP16:
        regs = []
        for i in range(0, len(offsets), 2):
            off = offsets[i]
            if isinstance(off, Const):
                index = str(off.value // 2)
            else:
                index = f"({off.to_c()}) / 2"
            regs.append(f"((unsigned *)({tensor.buffer}))[{index}]")
        return regs
    return [f"{tensor.buffer}[{o.to_c()}]" for o in offsets]


def _guarded(lines: List[str], preds: List[str]) -> List[str]:
    if not preds:
        return lines
    cond = " && ".join(dict.fromkeys(preds))
    if len(lines) == 1:
        return [f"if ({cond}) {lines[0]}"]
    return [f"if ({cond}) {{"] + ["    " + l for l in lines] + ["}"]


def _cast(value: str, src: DType, dst: DType) -> str:
    if src == dst:
        return value
    if src == FP16 and dst != FP16:
        return f"__half2float({value})"
    if dst == FP16 and src != FP16:
        return f"__float2half({value})"
    return f"({dst.c_name})({value})"


# -- moves ------------------------------------------------------------------------------
_VECTOR_CASTS = {16: "float4", 8: "float2", 4: "float"}


def emit_move(spec, atomic, ctx) -> List[str]:
    """Per-thread moves: vectorized when possible, elementwise otherwise."""
    src, dst = spec.src, spec.dst
    src_refs = element_refs(src)
    dst_refs = element_refs(dst)
    nbytes = len(src_refs) * src.dtype.bytes
    vector_ok = (
        src.dtype == dst.dtype
        and len(src_refs) > 1
        and nbytes in _VECTOR_CASTS
        and atomic.name != "move.thread.generic"
    )
    if vector_ok:
        vec = _VECTOR_CASTS[nbytes]
        s = src_refs[0][0]
        d = dst_refs[0][0]
        preds = src_refs[0][1] + dst_refs[0][1]
        line = (
            f"*reinterpret_cast<{vec} *>(&{d}) = "
            f"*reinterpret_cast<const {vec} *>(&{s});"
        )
        if atomic.name.startswith("cp.async"):
            line = (
                f"__pipeline_memcpy_async(&{d}, &{s}, {nbytes}); "
                f"// {atomic.instruction}"
            )
        return _guarded([line], preds)
    lines: List[str] = []
    for (s, sp), (d, dp) in zip(src_refs, dst_refs):
        value = _cast(s, src.dtype, dst.dtype)
        lines.extend(_guarded([f"{d} = {value};"], sp + dp))
    return lines


def emit_ldmatrix(spec, atomic, ctx) -> List[str]:
    """Inline-PTX ldmatrix, as in paper Figure 1c."""
    src, dst = spec.src, spec.dst
    num = len(frag_b32_regs(dst))
    regs = frag_b32_regs(dst)
    outs = ", ".join(f"%{i}" for i in range(num))
    constraints = ", ".join(f'"=r"({r})' for r in regs)
    addr = ctx.fresh("smem_addr")
    src_off = element_offsets(src)[0][0].to_c()
    ptr = f"&{src.buffer}[{_swizzled(src, src_off)}]"
    return [
        "{",
        f"    unsigned {addr} = (unsigned)__cvta_generic_to_shared({ptr});",
        f'    asm volatile("{atomic.instruction} {{{outs}}}, [%{num}];\\n"',
        f"        : {constraints}",
        f'        : "r"({addr}));',
        "}",
    ]


def emit_mma(spec, atomic, ctx) -> List[str]:
    """Inline-PTX Tensor Core mma with packed fragment registers."""
    a_regs = frag_b32_regs(spec.a)
    b_regs = frag_b32_regs(spec.b)
    c_regs = frag_b32_regs(spec.c)
    nc, na, nb = len(c_regs), len(a_regs), len(b_regs)
    d_ph = ", ".join(f"%{i}" for i in range(nc))
    a_ph = ", ".join(f"%{i}" for i in range(nc, nc + na))
    b_ph = ", ".join(f"%{i}" for i in range(nc + na, nc + na + nb))
    asm = (
        f"{atomic.instruction} {{{d_ph}}}, {{{a_ph}}}, {{{b_ph}}}, "
        f"{{{d_ph}}};"
    )
    c_constraints = ", ".join(f'"+f"({r})' for r in c_regs)
    ab_constraints = ", ".join(f'"r"({r})' for r in a_regs + b_regs)
    return [
        f'asm volatile("{asm}\\n"',
        f"    : {c_constraints}",
        f"    : {ab_constraints});",
    ]


# -- Hopper warpgroup instructions ---------------------------------------------------------
def _static_2d(tensor: Tensor, what: str) -> Tuple[int, int, int, int]:
    """A view's static ``(rows, cols, row_stride, col_stride)``.

    The Hopper bulk instructions address whole 2-D tiles through
    descriptors; this reproduction encodes the descriptor contents
    (base + strides) as immediate asm operands, so the tile geometry
    must be compile-time constant.
    """
    if not tensor.swizzle.is_identity():
        raise ValueError(f"{what} does not support swizzled operands")
    shape = it.flatten(tensor.layout.shape)
    stride = it.flatten(tensor.layout.stride)
    dims = [(s, d) for s, d in zip(shape, stride) if s != 1]
    if len(dims) != 2 or not all(
        isinstance(s, int) and isinstance(d, int) for s, d in dims
    ):
        raise ValueError(
            f"{what} needs a static 2-D operand tile, got shape "
            f"{shape} / stride {stride}"
        )
    (rows, s_i), (cols, s_j) = dims
    return rows, cols, s_i, s_j


def emit_tma(spec, atomic, ctx) -> List[str]:
    """TMA bulk tensor copy: one instruction moves the whole 2-D tile.

    The hardware reads the tile geometry from a TensorMap descriptor;
    here the descriptor fields (base addresses, extents, strides) are
    spelled out as asm operands so the conformance emulator can execute
    the same data movement.
    """
    src, dst = spec.src, spec.dst
    rows, cols, s_i, s_j = _static_2d(src, "tma")
    drows, dcols, d_i, d_j = _static_2d(dst, "tma")
    if (rows, cols) != (drows, dcols):
        raise ValueError(
            f"tma tile mismatch: {rows}x{cols} -> {drows}x{dcols}"
        )
    src_base = element_offsets(src)[0][0].to_c()
    dst_base = element_offsets(dst)[0][0].to_c()
    addr = ctx.fresh("tma_dst")
    return [
        "{",
        f"    unsigned {addr} = "
        f"(unsigned)__cvta_generic_to_shared(&{dst.buffer}[{dst_base}]);",
        f'    asm volatile("{atomic.instruction} '
        '[%0], [%1], %2, %3, %4, %5, %6, %7;\\n"',
        f'        : : "r"({addr}), "l"(&{src.buffer}[{src_base}]),',
        f'            "n"({rows}), "n"({cols}), "n"({s_i}), "n"({s_j}), '
        f'"n"({d_i}), "n"({d_j}));',
        "}",
    ]


def emit_wgmma(spec, atomic, ctx) -> List[str]:
    """Warpgroup mma: A and B stream from shared memory.

    Only the fp32 accumulator fragment lives in registers; the smem
    operands are descriptor-addressed (base + strides as operands, as
    for TMA above).
    """
    a, b, c = spec.a, spec.b, spec.c
    _, _, s_ai, s_aj = _static_2d(a, "wgmma")
    _, _, s_bi, s_bj = _static_2d(b, "wgmma")
    c_refs = [r for r, _ in element_refs(c)]
    num = len(c_refs)
    d_ph = ", ".join(f"%{i}" for i in range(num))
    asm = (
        f"{atomic.instruction} {{{d_ph}}}, %{num}, %{num + 1}, "
        f"%{num + 2}, %{num + 3}, %{num + 4}, %{num + 5};"
    )
    c_constraints = ", ".join(f'"+f"({r})' for r in c_refs)
    a_base = element_offsets(a)[0][0].to_c()
    b_base = element_offsets(b)[0][0].to_c()
    a_addr = ctx.fresh("wgmma_a")
    b_addr = ctx.fresh("wgmma_b")
    return [
        "{",
        f"    unsigned {a_addr} = "
        f"(unsigned)__cvta_generic_to_shared(&{a.buffer}[{a_base}]);",
        f"    unsigned {b_addr} = "
        f"(unsigned)__cvta_generic_to_shared(&{b.buffer}[{b_base}]);",
        f'    asm volatile("{asm}\\n"',
        f"        : {c_constraints}",
        f'        : "r"({a_addr}), "r"({b_addr}), "n"({s_ai}), '
        f'"n"({s_aj}), "n"({s_bi}), "n"({s_bj}));',
        "}",
    ]


def emit_sparse_decompress(spec, atomic, ctx) -> List[str]:
    """Expand a 2:4-compressed smem tile to dense (plain C scatter).

    One thread per row; metadata entries index the surviving columns
    within each group of four.
    """
    comp, meta = spec.inputs
    dense = spec.outputs[0]
    rows, half_k, c_i, c_j = _static_2d(comp, "sparse24")
    _, _, m_i, m_j = _static_2d(meta, "sparse24")
    _, dcols, d_i, d_j = _static_2d(dense, "sparse24")
    comp_base = element_offsets(comp)[0][0].to_c()
    meta_base = element_offsets(meta)[0][0].to_c()
    dense_base = element_offsets(dense)[0][0].to_c()
    j = ctx.fresh("sj")
    g = ctx.fresh("sg")
    t = "threadIdx.x"

    def comp_at(col: str) -> str:
        return f"{comp.buffer}[{comp_base} + {t} * {c_i} + ({col}) * {c_j}]"

    def meta_at(col: str) -> str:
        return (f"(int){meta.buffer}[{meta_base} + {t} * {m_i} + "
                f"({col}) * {m_j}]")

    def dense_at(col: str) -> str:
        return f"{dense.buffer}[{dense_base} + {t} * {d_i} + ({col}) * {d_j}]"

    lines = [f"// {atomic.instruction}", f"if ({t} < {rows}) {{"]
    lines.append(f"    for (int {j} = 0; {j} < {dcols}; {j} += 1) {{")
    lines.append(f"        {dense_at(j)} = __float2half(0.0f);")
    lines.append("    }")
    lines.append(f"    for (int {g} = 0; {g} < {half_k // 2}; {g} += 1) {{")
    for pos in (0, 1):
        col = f"2 * {g} + {pos}" if pos else f"2 * {g}"
        target = dense_at(f"4 * {g} + {meta_at(col)}")
        lines.append(f"        {target} = {comp_at(col)};")
    lines.append("    }")
    lines.append("}")
    return lines


# -- thread-local compute ------------------------------------------------------------------
def emit_thread_matmul(spec, atomic, ctx) -> List[str]:
    lines = []
    a_refs = element_refs(spec.a)
    b_refs = element_refs(spec.b)
    c_refs = element_refs(spec.c)
    for (a, ap), (b, bp), (c, cp) in zip(a_refs, b_refs, c_refs):
        lines.extend(_guarded([f"{c} += {a} * {b};"], ap + bp + cp))
    return lines


def emit_pointwise(spec, atomic, ctx) -> List[str]:
    out = spec.outputs[0]
    in_refs = [element_refs(t) for t in spec.inputs]
    out_refs = element_refs(out)
    lines = []
    for i, (o, op_preds) in enumerate(out_refs):
        args = []
        preds = list(op_preds)
        for t, refs in zip(spec.inputs, in_refs):
            r, p = refs[i if len(refs) > 1 else 0]
            args.append(_cast(r, t.dtype, FP32))
            preds.extend(p)
        value = spec.op.c_expr(*args)
        lines.extend(
            _guarded([f"{o} = {_cast(value, FP32, out.dtype)};"], preds)
        )
    return lines


def emit_reduction(spec, atomic, ctx) -> List[str]:
    src = spec.inputs[0]
    dst = spec.outputs[0]
    acc = ctx.fresh("red")
    refs = [r for r, _ in element_refs(src)]
    lines = [f"float {acc} = {_cast(refs[0], src.dtype, FP32)};"]
    for r in refs[1:]:
        lines.append(
            f"{acc} = {spec.op.c_expr(acc, _cast(r, src.dtype, FP32))};"
        )
    for o, preds in element_refs(dst):
        lines.extend(_guarded([f"{o} = {_cast(acc, FP32, dst.dtype)};"], preds))
    return lines


def emit_init(spec, atomic, ctx) -> List[str]:
    out = spec.outputs[0]
    value = f"{float(spec.value)}f"
    lines = []
    for o, preds in element_refs(out):
        lines.extend(_guarded([f"{o} = {_cast(value, FP32, out.dtype)};"], preds))
    return lines


def emit_shfl(spec, atomic, ctx) -> List[str]:
    src = spec.inputs[0]
    dst = spec.outputs[0]
    lines = []
    for (s, sp), (d, dp) in zip(element_refs(src), element_refs(dst)):
        lines.extend(
            _guarded(
                [f"{d} = __shfl_xor_sync(0xffffffffu, {s}, "
                 f"{spec.xor_mask});"],
                sp + dp,
            )
        )
    return lines


#: Emitters keyed by atomic name, falling back to the spec kind.
EMITTERS: Dict[str, Callable] = {
    "Move": emit_move,
    "MatMul": emit_thread_matmul,
    "UnaryPointwise": emit_pointwise,
    "BinaryPointwise": emit_pointwise,
    "Reduction": emit_reduction,
    "Init": emit_init,
    "Shfl": emit_shfl,
    "mma.16816": emit_mma,
    "mma.884": emit_mma,
}
for _n in ("ldmatrix.x4", "ldmatrix.x2", "ldmatrix.x1",
           "ldmatrix.x4.trans", "ldmatrix.x2.trans", "ldmatrix.x1.trans"):
    EMITTERS[_n] = emit_ldmatrix
EMITTERS["wgmma.64.64.16.f16"] = emit_wgmma
EMITTERS["wgmma.64.64.32.e4m3"] = emit_wgmma
EMITTERS["sparse24.decompress"] = emit_sparse_decompress
for _dt in (FP16, FP8E4M3, FP8E5M2, INT32):
    EMITTERS[f"tma.g2s.{_dt.name}"] = emit_tma
