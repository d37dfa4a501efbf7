"""Unit and property tests for symbolic integer expressions."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ir.expr import (
    Add, Const, FloorDiv, Mod, Mul, Var, add, additive_part, as_expr, div,
    is_const, mod, mul, sub,
)


class TestConstantFolding:
    def test_add_consts(self):
        assert add(2, 3) == Const(5)

    def test_mul_consts(self):
        assert mul(4, 5) == Const(20)

    def test_sub_consts(self):
        assert sub(7, 3) == Const(4)

    def test_div_consts(self):
        assert div(17, 5) == Const(3)

    def test_mod_consts(self):
        assert mod(17, 5) == Const(2)

    def test_nested_folding(self):
        x = Var("x")
        expr = add(add(x, 3), 4)
        assert expr == add(x, 7)


class TestIdentities:
    def test_add_zero(self):
        x = Var("x")
        assert add(x, 0) is x
        assert add(0, x) is x

    def test_mul_one(self):
        x = Var("x")
        assert mul(x, 1) is x
        assert mul(1, x) is x

    def test_mul_zero(self):
        x = Var("x")
        assert mul(x, 0) == Const(0)

    def test_div_one(self):
        x = Var("x")
        assert div(x, 1) is x

    def test_mod_one(self):
        x = Var("x")
        assert mod(x, 1) == Const(0)

    def test_sub_self(self):
        x = Var("x")
        assert sub(x, x) == Const(0)

    def test_mul_constant_chains(self):
        x = Var("x")
        assert mul(mul(x, 4), 8) == mul(x, 32)


class TestBoundsDrivenSimplification:
    def test_paper_rule_mod(self):
        # (M % 256) -> M iff M < 256 (paper Section 3.4).
        m = Var("M", 0, 255)
        assert mod(m, 256) is m

    def test_mod_not_simplified_without_bounds(self):
        m = Var("M")
        assert isinstance(mod(m, 256), Mod)

    def test_div_to_zero(self):
        t = Var("t", 0, 31)
        assert div(t, 32) == Const(0)

    def test_multiple_of_mod(self):
        t = Var("t")
        assert mod(mul(t, 8), 8) == Const(0)
        assert mod(mul(t, 16), 8) == Const(0)

    def test_add_multiple_mod(self):
        t = Var("t", 0, 7)
        k = Var("k")
        assert mod(add(mul(k, 8), t), 8) is t

    def test_div_div_collapse(self):
        t = Var("t")
        assert div(div(t, 4), 8) == div(t, 32)

    def test_mul_div_cancel(self):
        t = Var("t")
        assert div(mul(t, 32), 8) == mul(t, 4)

    def test_split_div(self):
        t = Var("t", 0, 7)
        k = Var("k")
        assert div(add(mul(k, 8), t), 8) is k


class TestBounds:
    def test_var_bounds(self):
        assert Var("x", 2, 9).bounds() == (2, 9)

    def test_add_bounds(self):
        x = Var("x", 0, 3)
        y = Var("y", 1, 4)
        assert Add(x, y).bounds() == (1, 7)

    def test_mul_bounds(self):
        x = Var("x", 0, 3)
        assert Mul(x, Const(5)).bounds() == (0, 15)

    def test_mod_bounds(self):
        x = Var("x")
        assert Mod(x, Const(8)).bounds() == (0, 7)

    def test_div_bounds(self):
        x = Var("x", 0, 31)
        assert FloorDiv(x, Const(8)).bounds() == (0, 3)

    def test_unbounded(self):
        x = Var("x")
        assert Add(x, Const(1)).bounds()[1] is None


class TestPrinting:
    def test_simple(self):
        t = Var("t")
        assert add(mul(t, 4), 1).to_c() == "t * 4 + 1"

    def test_parenthesisation(self):
        t = Var("t")
        assert mul(add(t, 1), 4).to_c() == "(t + 1) * 4"

    def test_div_mod_parens(self):
        t = Var("t")
        expr = mod(div(t, 16), 2)
        assert expr.to_c() == "t / 16 % 2"

    def test_nested_right_assoc_parens(self):
        t = Var("t")
        expr = FloorDiv(Const(64), FloorDiv(t, Const(2)))
        assert expr.to_c() == "64 / (t / 2)"


class TestEvaluation:
    def test_env(self):
        t = Var("t")
        expr = add(mul(mod(t, 16), 8), div(t, 16))
        assert expr.evaluate({"t": 35}) == 3 * 8 + 2

    def test_unbound_raises(self):
        with pytest.raises(KeyError):
            Var("missing").evaluate({})


class TestCoercion:
    def test_as_expr_int(self):
        assert as_expr(5) == Const(5)

    def test_as_expr_passthrough(self):
        x = Var("x")
        assert as_expr(x) is x

    def test_as_expr_rejects_float(self):
        with pytest.raises(TypeError):
            as_expr(1.5)

    def test_is_const(self):
        assert is_const(Const(3), 3)
        assert not is_const(Var("x"))


class TestAdditivePart:
    """``additive_part(e, "b", {"M"})``: the part of ``e`` carrying
    ``b``, when ``e - g`` provably does not depend on ``b``."""

    b, t, m = Var("b"), Var("t"), Var("M")

    def part(self, expr):
        return additive_part(expr, "b", frozenset({"M"}))

    def test_distributes_over_add_and_sub(self):
        assert self.part(self.b * 64 + self.t) == self.b * 64
        assert self.part(Add(self.t, self.b) - self.b * 2) == \
            sub(self.b, self.b * 2)

    def test_block_and_symbol_terms_are_all_block_part(self):
        expr = self.b % 2 * 128 + self.m
        assert self.part(expr) == expr
        assert self.part(self.t * 4) == Const(0)

    def test_mul_by_symbols_and_constants_only(self):
        assert self.part(Mul(Add(self.b, self.t), self.m)) == \
            mul(self.b, self.m)
        assert self.part(Mul(Add(self.b, self.t), self.t)) is None

    def test_div_and_mod_need_a_multiple(self):
        offset = Add(Mul(self.b, Const(64)), self.t)
        assert self.part(FloorDiv(offset, Const(32))) == \
            FloorDiv(mul(self.b, 64), Const(32))
        assert self.part(Mod(offset, Const(32))) == Const(0)
        assert self.part(FloorDiv(offset, Const(128))) is None
        assert self.part(Mod(offset, Const(128))) is None
        assert self.part(FloorDiv(offset, self.m)) is None


# -- property tests -----------------------------------------------------------

_small = st.integers(min_value=0, max_value=100)
_varnames = st.sampled_from(["t", "b", "k"])


@st.composite
def exprs(draw, depth=0):
    """Random expression trees along with an evaluation environment."""
    if depth > 3 or draw(st.booleans()):
        if draw(st.booleans()):
            return Const(draw(_small))
        return Var(draw(_varnames))
    op = draw(st.sampled_from(["add", "sub", "mul", "div", "mod"]))
    lhs = draw(exprs(depth=depth + 1))
    rhs = draw(exprs(depth=depth + 1))
    if op == "add":
        return add(lhs, rhs)
    if op == "sub":
        return add(lhs, rhs)  # keep values non-negative
    if op == "mul":
        return mul(lhs, rhs)
    divisor = Const(draw(st.integers(min_value=1, max_value=64)))
    return div(lhs, divisor) if op == "div" else mod(lhs, divisor)


@given(exprs(), _small, _small, _small)
def test_printed_form_matches_semantics(expr, t, b, k):
    """The C rendering (with C division semantics) equals evaluate()."""
    env = {"t": t, "b": b, "k": k}
    printed = eval(  # noqa: S307 - renders only ints, vars and arithmetic
        expr.to_c().replace("/", "//"), {}, dict(env)
    )
    assert printed == expr.evaluate(env)


@given(exprs(), _small, _small, _small)
def test_bounds_contain_value(expr, t, b, k):
    """Interval analysis never excludes an attainable value.

    Generated variables declare lo=0 and no upper bound, and the strategy
    only produces monotone non-negative arithmetic, so the propagated
    interval must contain the evaluated result.
    """
    env = {"t": t, "b": b, "k": k}
    lo, hi = expr.bounds()
    value = expr.evaluate(env)
    assert value >= lo
    if hi is not None:
        assert value <= hi


_divisors = st.sampled_from([1, 2, 3, 4, 8, 16, 32, 64])


@st.composite
def offsets(draw, depth=0):
    """Random offset-like trees over a block index ``b``, a launch
    symbol ``M``, a thread index ``t`` and a loop index ``k``."""
    if depth > 3 or draw(st.booleans()):
        leaf = draw(st.sampled_from(["b", "bc", "M", "t", "k", "c"]))
        if leaf == "bc":
            return mul(Var("b"), draw(_divisors) * draw(_divisors))
        if leaf == "c":
            return Const(draw(_small))
        return Var(leaf)
    op = draw(st.sampled_from(["add", "sub", "mul", "div", "mod"]))
    lhs = draw(offsets(depth=depth + 1))
    if op in ("div", "mod"):
        divisor = draw(_divisors)
        return FloorDiv(lhs, Const(divisor)) if op == "div" \
            else Mod(lhs, Const(divisor))
    rhs = draw(offsets(depth=depth + 1))
    return {"add": Add, "sub": sub, "mul": Mul}[op](lhs, rhs)


@settings(max_examples=300)
@given(offsets(), st.lists(_small, min_size=2, max_size=6), _small, _small,
       _small)
def test_additive_part_leaves_a_block_invariant_rest(expr, blocks, m, t, k):
    """Wherever the split returns ``g``, ``expr - g`` evaluates the same
    at every sampled ``b`` for fixed other variables, and ``g`` mentions
    only ``b`` and the launch symbol."""
    g = additive_part(expr, "b", frozenset({"M"}))
    if g is None:
        return
    assert g.free_vars() <= {"b", "M"}
    rests = {expr.evaluate(env) - g.evaluate(env)
             for env in ({"b": b, "M": m, "t": t, "k": k} for b in blocks)}
    assert len(rests) == 1
