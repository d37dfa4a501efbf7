"""Simulator tests: statements, predication, collectives, errors."""

import numpy as np
import pytest

from repro.arch import AMPERE
from repro.frontend.builder import KernelBuilder
from repro.ir.expr import Const, Var
from repro.sim import SimulationError, Simulator
from repro.tensor import FP16, FP32, RF

from .reference_oracle import ReferenceSimulator


def run(kernel, **arrays):
    Simulator(AMPERE).run(kernel, arrays)
    return arrays


class TestBasics:
    def test_identity_copy(self):
        kb = KernelBuilder("copy", (1,), (8,))
        x = kb.param("x", (8,), FP32)
        y = kb.param("y", (8,), FP32)
        t = Var("threadIdx.x")
        kb.move(x.tile((1,))[t], y.tile((1,))[t])
        arrays = run(kb.build(), x=np.arange(8, dtype=np.float32),
                     y=np.zeros(8, dtype=np.float32))
        assert np.array_equal(arrays["y"], np.arange(8))

    def test_multi_block(self):
        kb = KernelBuilder("copy", (4,), (8,))
        x = kb.param("x", (32,), FP32)
        y = kb.param("y", (32,), FP32)
        idx = kb.grid.indices()[0] * 8 + Var("threadIdx.x")
        kb.move(x.tile((1,))[idx], y.tile((1,))[idx])
        arrays = run(kb.build(), x=np.arange(32, dtype=np.float32),
                     y=np.zeros(32, dtype=np.float32))
        assert np.array_equal(arrays["y"], np.arange(32))

    def test_loop_accumulation(self):
        kb = KernelBuilder("sum", (1,), (1,))
        x = kb.param("x", (16,), FP32)
        y = kb.param("y", (1,), FP32)
        acc = kb.alloc("acc", (1,), FP32, RF)
        kb.init(acc, 0.0)
        with kb.loop("i", 16) as i:
            kb.binary("add", acc, x.tile((1,))[i], acc)
        kb.move(acc, y.tile((1,))[0])
        arrays = run(kb.build(), x=np.ones(16, dtype=np.float32),
                     y=np.zeros(1, dtype=np.float32))
        assert arrays["y"][0] == 16.0

    def test_missing_binding_raises(self):
        kb = KernelBuilder("k", (1,), (1,))
        kb.param("x", (4,), FP32)
        with pytest.raises(SimulationError, match="missing binding"):
            Simulator(AMPERE).run(kb.build(), {})

    @pytest.mark.parametrize("simulator, bad, match", [
        pytest.param(simulator, bad, match, id=engine + suffix)
        for suffix, bad, match in [
            ("", {"x": np.zeros(5, np.float32)},
             r"'x' has 5 elements; its layout needs 8"),
            ("-dtype", {"x": np.zeros(8, np.float64)},
             r"'x' has dtype float64; the parameter is float32"),
            ("-unknown", {"z": np.zeros(8, np.float32)},
             r"bindings \['z'\] name no parameter of 'copy'"),
        ]
        for engine, simulator in (("vectorized", Simulator),
                                  ("reference", ReferenceSimulator))
    ])
    def test_short_binding_raises(self, simulator, bad, match):
        kb = KernelBuilder("copy", (1,), (8,))
        x = kb.param("x", (8,), FP32)
        y = kb.param("y", (8,), FP32)
        t = Var("threadIdx.x")
        kb.move(x.tile((1,))[t], y.tile((1,))[t])
        bindings = {"x": np.zeros(8, np.float32),
                    "y": np.zeros(8, np.float32), **bad}
        with pytest.raises(SimulationError, match=match):
            simulator(AMPERE).run(kb.build(), bindings, sanitize=True)

    def test_short_binding_checked_under_launch_symbols(self):
        kb = KernelBuilder("k", (1,), (1,))
        m = kb.symbol("M")
        kb.param("x", (m, 4), FP32)
        kernel = kb.build()
        Simulator(AMPERE).run(kernel, {"x": np.zeros((3, 4), np.float32)},
                              symbols={"M": 3})
        with pytest.raises(SimulationError, match="has 12 elements; its "
                           "layout needs 16"):
            Simulator(AMPERE).run(kernel, {"x": np.zeros((3, 4), np.float32)},
                                  symbols={"M": 4})

    def test_unbound_symbol_raises(self):
        kb = KernelBuilder("k", (1,), (1,))
        kb.symbol("M")
        with pytest.raises(SimulationError, match="unbound kernel symbols"):
            Simulator(AMPERE).run(kb.build(), {})


class TestPredication:
    def test_thread_dependent_guard(self):
        kb = KernelBuilder("k", (1,), (8,))
        y = kb.param("y", (8,), FP32)
        t = Var("threadIdx.x")
        with kb.when([(t, Const(4))]):
            kb.init(y.tile((1,))[t], 1.0)
        arrays = run(kb.build(), y=np.zeros(8, dtype=np.float32))
        assert arrays["y"].tolist() == [1, 1, 1, 1, 0, 0, 0, 0]

    def test_uniform_guard_prunes(self):
        kb = KernelBuilder("k", (1,), (4,))
        y = kb.param("y", (4,), FP32)
        t = Var("threadIdx.x")
        with kb.when([(Const(5), Const(4))]):  # always false
            kb.init(y.tile((1,))[t], 1.0)
        arrays = run(kb.build(), y=np.zeros(4, dtype=np.float32))
        assert not arrays["y"].any()

    def test_partial_tile_guard_prevents_oob(self):
        kb = KernelBuilder("k", (1,), (4,))
        x = kb.param("x", (10,), FP32)
        y = kb.param("y", (10,), FP32)
        t = Var("threadIdx.x")
        xt = x.tile((3,))
        yt = y.tile((3,))
        kb.move(xt[t], yt[t])
        arrays = run(kb.build(), x=np.arange(10, dtype=np.float32),
                     y=np.zeros(10, dtype=np.float32))
        assert np.array_equal(arrays["y"], np.arange(10))

    def test_varying_predicate_with_else_branch_rejected(self):
        """The If contract: thread-dependent predicates mean per-lane
        predicated execution of the then-branch, so no uniform branch
        decision exists and an else branch cannot be honoured."""
        from repro.ir.stmt import Block, If

        kb = KernelBuilder("k", (1,), (8,))
        y = kb.param("y", (8,), FP32)
        t = Var("threadIdx.x")
        kb._stack.append([])
        kb.init(y.tile((1,))[t], 1.0)
        then = Block(kb._stack.pop())
        kb._stack.append([])
        kb.init(y.tile((1,))[t], 2.0)
        orelse = Block(kb._stack.pop())
        kb._emit(If([(t, Const(4))], then, orelse))
        with pytest.raises(SimulationError,
                           match="thread-dependent predicates"):
            run(kb.build(), y=np.zeros(8, dtype=np.float32))

    def test_uniform_predicate_takes_else_branch(self):
        from repro.ir.stmt import Block, If

        kb = KernelBuilder("k", (1,), (4,))
        y = kb.param("y", (4,), FP32)
        t = Var("threadIdx.x")
        kb._stack.append([])
        kb.init(y.tile((1,))[t], 1.0)
        then = Block(kb._stack.pop())
        kb._stack.append([])
        kb.init(y.tile((1,))[t], 2.0)
        orelse = Block(kb._stack.pop())
        kb._emit(If([(Const(5), Const(4))], then, orelse))  # always false
        arrays = run(kb.build(), y=np.zeros(4, dtype=np.float32))
        assert arrays["y"].tolist() == [2, 2, 2, 2]

    def test_thread_dependent_partial_store_under_sanitizer(self):
        """Guarded-out lanes must not be recorded as accesses: a
        thread-dependent predicate protecting a partial-tile store is
        clean under the sanitizer (no out-of-bounds false positive)."""
        from repro.arch import AMPERE
        from repro.sim import Simulator

        kb = KernelBuilder("k", (1,), (8,))
        x = kb.param("x", (5,), FP32)
        y = kb.param("y", (5,), FP32)
        t = Var("threadIdx.x")
        with kb.when([(t, Const(5))]):
            kb.move(x.tile((1,))[t], y.tile((1,))[t])
        arrays = {"x": np.arange(5, dtype=np.float32),
                  "y": np.zeros(5, dtype=np.float32)}
        Simulator(AMPERE).run(kb.build(), arrays, sanitize=True)
        assert np.array_equal(arrays["y"], np.arange(5))


class TestCollectives:
    def test_shfl_butterfly(self):
        kb = KernelBuilder("k", (1,), (32,))
        y = kb.param("y", (32,), FP32)
        t = Var("threadIdx.x")
        v = kb.alloc("v", (1,), FP32, RF)
        peer = kb.alloc("p", (1,), FP32, RF)
        kb.move(y.tile((1,))[t], v)
        kb.shfl(v, peer, xor_mask=1, threads=kb.block)
        kb.move(peer, y.tile((1,))[t])
        arrays = run(kb.build(), y=np.arange(32, dtype=np.float32))
        expected = np.array([i ^ 1 for i in range(32)], dtype=np.float32)
        assert np.array_equal(arrays["y"], expected)

    def test_warp_allreduce_via_shfl(self):
        kb = KernelBuilder("k", (1,), (32,))
        y = kb.param("y", (32,), FP32)
        t = Var("threadIdx.x")
        v = kb.alloc("v", (1,), FP32, RF)
        peer = kb.alloc("p", (1,), FP32, RF)
        kb.move(y.tile((1,))[t], v)
        for mask in (16, 8, 4, 2, 1):
            kb.shfl(v, peer, xor_mask=mask, threads=kb.block)
            kb.binary("add", v, peer, v)
        kb.move(v, y.tile((1,))[t])
        arrays = run(kb.build(), y=np.arange(32, dtype=np.float32))
        assert np.all(arrays["y"] == np.arange(32).sum())

    def test_tiled_group_runs_every_group(self):
        kb = KernelBuilder("k", (1,), (64,))
        y = kb.param("y", (64,), FP32)
        t = Var("threadIdx.x")
        v = kb.alloc("v", (1,), FP32, RF)
        peer = kb.alloc("p", (1,), FP32, RF)
        warps = kb.block.tile([32])
        kb.move(y.tile((1,))[t], v)
        kb.shfl(v, peer, xor_mask=31, threads=warps)
        kb.move(peer, y.tile((1,))[t])
        arrays = run(kb.build(), y=np.arange(64, dtype=np.float32))
        # Each warp reverses within itself: lane l <- lane l^31.
        expected = np.array([(i // 32) * 32 + ((i % 32) ^ 31)
                             for i in range(64)], dtype=np.float32)
        assert np.array_equal(arrays["y"], expected)


class TestReductionSemantics:
    def test_rowwise_reduction_axes(self):
        kb = KernelBuilder("k", (1,), (1,))
        x = kb.param("x", (2, 3), FP32)
        y = kb.param("y", (3,), FP32)
        vals = kb.alloc("vals", (2, 3), FP32, RF)
        out = kb.alloc("out", (3,), FP32, RF)
        kb.move(x, vals)
        kb.reduce("add", vals, out, axes=(0,))
        kb.move(out, y)
        data = np.arange(6, dtype=np.float32).reshape(2, 3)
        arrays = run(kb.build(), x=data, y=np.zeros(3, dtype=np.float32))
        assert np.array_equal(arrays["y"], data.sum(axis=0))

    def test_max_reduction(self):
        kb = KernelBuilder("k", (1,), (1,))
        x = kb.param("x", (8,), FP32)
        y = kb.param("y", (1,), FP32)
        vals = kb.alloc("vals", (8,), FP32, RF)
        out = kb.alloc("out", (1,), FP32, RF)
        kb.move(x, vals)
        kb.reduce("max", vals, out)
        kb.move(out, y.tile((1,))[0])
        arrays = run(kb.build(), x=np.array([3, 1, 4, 1, 5, 9, 2, 6],
                                            dtype=np.float32),
                     y=np.zeros(1, dtype=np.float32))
        assert arrays["y"][0] == 9.0
