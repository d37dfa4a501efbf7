"""Symbolic integer expressions used for index arithmetic.

Graphene compiles tensor accesses into scalar index expressions over thread
and loop indices (paper Section 5.5).  This module provides the expression
AST, smart constructors that perform algebraic simplification (e.g.
``(M % 256) -> M`` iff ``M < 256``), interval bounds propagation, evaluation
for the functional simulator, and C-syntax printing for code generation.

All division is C-style integer division on non-negative operands, which
coincides with floor division; Graphene only ever produces non-negative
indices so the two agree.
"""

from __future__ import annotations

import math
from typing import Iterator, Mapping, Optional, Tuple, Union

from ..pickling import PickleBySlots

IntLike = Union[int, "IntExpr"]

_UNBOUNDED = (0, None)


class IntExpr(PickleBySlots):
    """Base class for symbolic non-negative integer expressions.

    Instances are immutable and hashable.  Arithmetic operators build new
    expressions through the simplifying smart constructors in this module.
    """

    __slots__ = ()

    # -- interval analysis -------------------------------------------------
    def bounds(self) -> Tuple[int, Optional[int]]:
        """Return an inclusive interval ``(lo, hi)`` containing this value.

        ``hi`` is ``None`` when no finite upper bound is known.
        """
        raise NotImplementedError

    # -- evaluation --------------------------------------------------------
    def evaluate(self, env: Mapping[str, int]) -> int:
        """Evaluate under a variable assignment ``env``."""
        raise NotImplementedError

    # -- code generation ---------------------------------------------------
    def to_c(self) -> str:
        """Render as a C expression string."""
        raise NotImplementedError

    def _prec(self) -> int:
        """Operator precedence for parenthesisation (larger binds tighter)."""
        return 100

    def free_vars(self) -> frozenset:
        return frozenset(v.name for v in self.walk() if isinstance(v, Var))

    def walk(self) -> Iterator["IntExpr"]:
        yield self

    # -- operators ----------------------------------------------------------
    def __add__(self, other: IntLike) -> "IntExpr":
        return add(self, other)

    def __radd__(self, other: IntLike) -> "IntExpr":
        return add(other, self)

    def __sub__(self, other: IntLike) -> "IntExpr":
        return sub(self, other)

    def __rsub__(self, other: IntLike) -> "IntExpr":
        return sub(other, self)

    def __mul__(self, other: IntLike) -> "IntExpr":
        return mul(self, other)

    def __rmul__(self, other: IntLike) -> "IntExpr":
        return mul(other, self)

    def __floordiv__(self, other: IntLike) -> "IntExpr":
        return div(self, other)

    def __rfloordiv__(self, other: IntLike) -> "IntExpr":
        return div(other, self)

    def __mod__(self, other: IntLike) -> "IntExpr":
        return mod(self, other)

    def __rmod__(self, other: IntLike) -> "IntExpr":
        return mod(other, self)

    def __repr__(self) -> str:
        return self.to_c()


class Const(IntExpr):
    """An integer literal."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        if not isinstance(value, int):
            raise TypeError(f"Const requires an int, got {value!r}")
        object.__setattr__(self, "value", value)

    def __setattr__(self, *a):  # immutability
        raise AttributeError("Const is immutable")

    def bounds(self):
        return (self.value, self.value)

    def evaluate(self, env):
        return self.value

    def to_c(self):
        return str(self.value)

    def __eq__(self, other):
        return isinstance(other, Const) and other.value == self.value

    def __hash__(self):
        return hash(("Const", self.value))


class Var(IntExpr):
    """A named integer variable, optionally with inclusive bounds."""

    __slots__ = ("name", "lo", "hi")

    def __init__(self, name: str, lo: int = 0, hi: Optional[int] = None):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, *a):
        raise AttributeError("Var is immutable")

    def bounds(self):
        return (self.lo, self.hi)

    def evaluate(self, env):
        try:
            return env[self.name]
        except KeyError:
            raise KeyError(f"unbound variable {self.name!r}") from None

    def to_c(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, Var) and other.name == self.name

    def __hash__(self):
        return hash(("Var", self.name))


class _BinOp(IntExpr):
    __slots__ = ("lhs", "rhs")
    op = "?"
    precedence = 0

    def __init__(self, lhs: IntExpr, rhs: IntExpr):
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def walk(self):
        yield self
        yield from self.lhs.walk()
        yield from self.rhs.walk()

    def _prec(self):
        return self.precedence

    def _child_c(self, child: IntExpr, *, right: bool = False) -> str:
        text = child.to_c()
        need = child._prec() < self.precedence
        if right and child._prec() == self.precedence:
            # C's binary operators are left-associative: a right child of
            # equal precedence needs parens unless both operators are the
            # same associative operator.
            same_assoc = isinstance(child, _BinOp) and child.op == self.op \
                and self.op in ("+", "*")
            if same_assoc and self.op == "*":
                # Flattening a * (b / c * d) to a * b / c * d moves the
                # floor division: only safe when the child's left spine
                # is pure multiplication.
                spine = child
                while isinstance(spine, _BinOp) \
                        and spine._prec() == self.precedence:
                    if spine.op != "*":
                        same_assoc = False
                        break
                    spine = spine.lhs
            need = not same_assoc
        return f"({text})" if need else text

    def to_c(self):
        return f"{self._child_c(self.lhs)} {self.op} {self._child_c(self.rhs, right=True)}"

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and other.lhs == self.lhs
            and other.rhs == self.rhs
        )

    def __hash__(self):
        return hash((type(self).__name__, self.lhs, self.rhs))


class Add(_BinOp):
    op = "+"
    precedence = 10

    def bounds(self):
        (a, b), (c, d) = self.lhs.bounds(), self.rhs.bounds()
        return (a + c, None if b is None or d is None else b + d)

    def evaluate(self, env):
        return self.lhs.evaluate(env) + self.rhs.evaluate(env)


class Sub(_BinOp):
    op = "-"
    precedence = 10

    def bounds(self):
        (a, b), (c, d) = self.lhs.bounds(), self.rhs.bounds()
        lo = a - d if d is not None else 0
        hi = None if b is None else b - c
        return (max(lo, 0) if lo < 0 else lo, hi)

    def evaluate(self, env):
        return self.lhs.evaluate(env) - self.rhs.evaluate(env)


class Mul(_BinOp):
    op = "*"
    precedence = 20

    def bounds(self):
        (a, b), (c, d) = self.lhs.bounds(), self.rhs.bounds()
        return (a * c, None if b is None or d is None else b * d)

    def evaluate(self, env):
        return self.lhs.evaluate(env) * self.rhs.evaluate(env)


class FloorDiv(_BinOp):
    op = "/"
    precedence = 20

    def bounds(self):
        (a, b), (c, d) = self.lhs.bounds(), self.rhs.bounds()
        lo = a // d if d not in (None, 0) else 0
        hi = None if b is None else b // max(c, 1)
        return (lo, hi)

    def evaluate(self, env):
        return self.lhs.evaluate(env) // self.rhs.evaluate(env)


class Mod(_BinOp):
    op = "%"
    precedence = 20

    def bounds(self):
        _, d = self.rhs.bounds()
        (a, b) = self.lhs.bounds()
        if d is None:
            return (0, b)
        hi = d - 1 if b is None else min(b, d - 1)
        return (0, hi)

    def evaluate(self, env):
        return self.lhs.evaluate(env) % self.rhs.evaluate(env)


def _wrap(value: IntLike) -> IntExpr:
    if isinstance(value, IntExpr):
        return value
    if isinstance(value, int):
        return Const(value)
    raise TypeError(f"expected int or IntExpr, got {value!r}")


def _const_of(expr: IntExpr) -> Optional[int]:
    return expr.value if isinstance(expr, Const) else None


def add(lhs: IntLike, rhs: IntLike) -> IntExpr:
    """``lhs + rhs`` with constant folding and identity elimination."""
    lhs, rhs = _wrap(lhs), _wrap(rhs)
    a, b = _const_of(lhs), _const_of(rhs)
    if a is not None and b is not None:
        return Const(a + b)
    if a == 0:
        return rhs
    if b == 0:
        return lhs
    # Fold constants rightward: (x + c1) + c2 -> x + (c1 + c2)
    if b is not None and isinstance(lhs, Add):
        inner = _const_of(lhs.rhs)
        if inner is not None:
            return add(lhs.lhs, inner + b)
    return Add(lhs, rhs)


def sub(lhs: IntLike, rhs: IntLike) -> IntExpr:
    lhs, rhs = _wrap(lhs), _wrap(rhs)
    a, b = _const_of(lhs), _const_of(rhs)
    if a is not None and b is not None:
        return Const(a - b)
    if b == 0:
        return lhs
    if lhs == rhs:
        return Const(0)
    return Sub(lhs, rhs)


def mul(lhs: IntLike, rhs: IntLike) -> IntExpr:
    lhs, rhs = _wrap(lhs), _wrap(rhs)
    a, b = _const_of(lhs), _const_of(rhs)
    if a is not None and b is not None:
        return Const(a * b)
    if a == 0 or b == 0:
        return Const(0)
    if a == 1:
        return rhs
    if b == 1:
        return lhs
    # Canonicalise constants to the right.
    if a is not None:
        lhs, rhs, b = rhs, lhs, a
    # (x * c1) * c2 -> x * (c1 * c2)
    if b is not None and isinstance(lhs, Mul):
        inner = _const_of(lhs.rhs)
        if inner is not None:
            return mul(lhs.lhs, inner * b)
    return Mul(lhs, rhs)


def div(lhs: IntLike, rhs: IntLike) -> IntExpr:
    """``lhs / rhs`` (integer) with simplification of provable cases."""
    lhs, rhs = _wrap(lhs), _wrap(rhs)
    a, b = _const_of(lhs), _const_of(rhs)
    if b == 0:
        raise ZeroDivisionError("division by zero in index expression")
    if a is not None and b is not None:
        return Const(a // b)
    if b == 1:
        return lhs
    if b is not None:
        lo, hi = lhs.bounds()
        if hi is not None and hi < b and lo >= 0:
            return Const(0)
        # (x * c) / b when c % b == 0 -> x * (c / b)
        if isinstance(lhs, Mul):
            c = _const_of(lhs.rhs)
            if c is not None and c % b == 0:
                return mul(lhs.lhs, c // b)
        # (x / c1) / c2 -> x / (c1 * c2)
        if isinstance(lhs, FloorDiv):
            c = _const_of(lhs.rhs)
            if c is not None:
                return div(lhs.lhs, c * b)
        # (x*c + y) / b  -> x*(c/b) + y/b  when c % b == 0 and 0 <= y < gcd-safe
        if isinstance(lhs, Add):
            split = _try_split_div(lhs, b)
            if split is not None:
                return split
    return FloorDiv(lhs, rhs)


def _try_split_div(expr: Add, b: int) -> Optional[IntExpr]:
    """Simplify ``(p + q) / b`` when one addend is a multiple of ``b``."""
    for first, second in ((expr.lhs, expr.rhs), (expr.rhs, expr.lhs)):
        factor = _multiple_of(first)
        if factor % b == 0:
            lo, hi = second.bounds()
            if lo >= 0 and hi is not None and hi < b:
                return div(first, b)
    return None


def _multiple_of(expr: IntExpr) -> int:
    """Return a positive integer g such that ``expr`` is a multiple of g."""
    if isinstance(expr, Const):
        return abs(expr.value) if expr.value != 0 else 1 << 62
    if isinstance(expr, Mul):
        return _multiple_of(expr.lhs) * _multiple_of(expr.rhs)
    if isinstance(expr, Add) or isinstance(expr, Sub):
        return math.gcd(_multiple_of(expr.lhs), _multiple_of(expr.rhs))
    return 1


def mod(lhs: IntLike, rhs: IntLike) -> IntExpr:
    """``lhs % rhs`` with simplification of provable cases."""
    lhs, rhs = _wrap(lhs), _wrap(rhs)
    a, b = _const_of(lhs), _const_of(rhs)
    if b == 0:
        raise ZeroDivisionError("modulo by zero in index expression")
    if a is not None and b is not None:
        return Const(a % b)
    if b == 1:
        return Const(0)
    if b is not None:
        lo, hi = lhs.bounds()
        if lo >= 0 and hi is not None and hi < b:
            return lhs  # (M % 256) -> M  iff  M < 256
        if _multiple_of(lhs) % b == 0:
            return Const(0)
        # (x*c + y) % b -> y % b when c % b == 0
        if isinstance(lhs, Add):
            for first, second in ((lhs.lhs, lhs.rhs), (lhs.rhs, lhs.lhs)):
                if _multiple_of(first) % b == 0:
                    return mod(second, b)
        # (x % (c*b)) % b has no general rule, but (x % b) % b -> x % b
        if isinstance(lhs, Mod):
            c = _const_of(lhs.rhs)
            if c is not None and c % b == 0 and c == b:
                return lhs
    return Mod(lhs, rhs)


def additive_part(expr: IntExpr, name: str,
                  fixed: frozenset = frozenset()) -> Optional[IntExpr]:
    """The part ``g`` of ``expr`` that carries variable ``name``, or None.

    ``expr - g`` does not depend on ``name``, and ``g`` mentions only
    ``name`` and the names in ``fixed``.  An expression of only those is
    all ``g``, one without ``name`` is all rest.  Otherwise the split
    distributes over ``+`` and ``-``, over ``*`` by a factor of
    ``fixed`` names and constants only, and over ``/`` and ``%`` by a
    constant ``d`` only when ``g`` is a multiple of ``d`` (then ``(g +
    r) / d = g / d + r / d`` and ``(g + r) % d = r % d``).  Anything
    else is None.  The result is built without bounds-based
    simplification, so it evaluates exactly.
    """
    names = expr.free_vars()
    if name not in names:
        return Const(0)
    if names <= fixed | {name}:
        return expr
    if isinstance(expr, (Add, Sub)):
        lhs = additive_part(expr.lhs, name, fixed)
        rhs = additive_part(expr.rhs, name, fixed)
        if lhs is None or rhs is None:
            return None
        return add(lhs, rhs) if isinstance(expr, Add) else sub(lhs, rhs)
    if isinstance(expr, Mul):
        for part, factor in ((expr.lhs, expr.rhs), (expr.rhs, expr.lhs)):
            if factor.free_vars() <= fixed:
                g = additive_part(part, name, fixed)
                return None if g is None else mul(g, factor)
        return None
    if isinstance(expr, (FloorDiv, Mod)) and isinstance(expr.rhs, Const):
        g = additive_part(expr.lhs, name, fixed)
        if g is None or _multiple_of(g) % expr.rhs.value:
            return None
        return FloorDiv(g, expr.rhs) if isinstance(expr, FloorDiv) \
            else Const(0)
    return None


def as_expr(value: IntLike) -> IntExpr:
    """Coerce an int or IntExpr to an IntExpr."""
    return _wrap(value)


def is_const(expr: IntLike, value: Optional[int] = None) -> bool:
    """True if ``expr`` is a constant (optionally equal to ``value``)."""
    expr = _wrap(expr)
    if not isinstance(expr, Const):
        return False
    return value is None or expr.value == value
