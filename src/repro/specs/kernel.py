"""Kernel: a named top-level spec plus its launch configuration.

A kernel corresponds to one ``__global__`` CUDA function: the outermost
spec of a decomposition (paper Figure 8, line 6), the grid/block thread
tensors it is launched with, its global-memory parameters, and any
symbolic (parametric-shape) variables that become extra scalar kernel
parameters.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..ir.expr import Var
from ..ir.stmt import Block, SpecStmt, walk
from ..pickling import PickleBySlots
from ..tensor.memspace import GL
from ..tensor.tensor import Tensor
from ..threads.threadgroup import BLOCK, THREAD, ThreadGroup
from .base import Allocate, Spec


class Kernel(PickleBySlots):
    """A complete, launchable Graphene kernel."""

    __slots__ = ("name", "grid", "block", "params", "body", "symbols",
                 "__weakref__")

    def __init__(
        self,
        name: str,
        grid: ThreadGroup,
        block: ThreadGroup,
        params: Sequence[Tensor],
        body: Block,
        symbols: Sequence[Var] = (),
    ):
        if grid.kind != BLOCK:
            raise ValueError("grid must be a tensor of blocks")
        if block.kind != THREAD:
            raise ValueError("block must be a tensor of threads")
        for p in params:
            if p.mem != GL:
                raise ValueError(
                    f"kernel parameters must live in global memory: {p!r}"
                )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "block", block)
        object.__setattr__(self, "params", tuple(params))
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "symbols", tuple(symbols))

    def __setattr__(self, *a):
        raise AttributeError("Kernel is immutable")

    def grid_size(self) -> int:
        return self.grid.size()

    def block_size(self) -> int:
        return self.block.size()

    def allocations(self) -> Tuple[Tensor, ...]:
        """All tensors introduced by Allocate specs in the body."""
        out = []
        for stmt in walk(self.body):
            if isinstance(stmt, SpecStmt) and isinstance(stmt.spec, Allocate):
                out.append(stmt.spec.tensor)
        return tuple(out)

    def specs(self) -> Tuple[Spec, ...]:
        """All specs appearing in the body, outermost first."""
        return tuple(
            stmt.spec for stmt in walk(self.body) if isinstance(stmt, SpecStmt)
        )

    def __repr__(self):
        return (
            f"Kernel({self.name} <<<{self.grid!r}, {self.block!r}>>> "
            f"params={[p.name for p in self.params]})"
        )
