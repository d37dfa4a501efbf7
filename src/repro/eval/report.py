"""Reporting helpers: paper-claimed vs model-measured tables, and the
one writer every ``BENCH_*.json`` artifact goes through."""

from __future__ import annotations

import json
import os
import platform
from typing import List, Optional, Sequence

import numpy as np

#: The checkout root (``src/repro/eval`` -> root), where ``.git`` lives.
_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))))


class FigureReport:
    """One reproduced table/figure: rows of labelled measurements."""

    def __init__(self, figure: str, title: str, columns: Sequence[str]):
        self.figure = figure
        self.title = title
        self.columns = list(columns)
        self.rows: List[list] = []
        self.notes: List[str] = []

    def add_row(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} values, got {len(values)}"
            )
        self.rows.append(list(values))

    def note(self, text: str) -> None:
        self.notes.append(text)

    def column(self, name: str) -> list:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    def format_table(self) -> str:
        def fmt(v):
            if isinstance(v, float):
                return f"{v:.3g}"
            return str(v)

        table = [self.columns] + [[fmt(v) for v in row] for row in self.rows]
        widths = [
            max(len(row[i]) for row in table) for i in range(len(self.columns))
        ]
        lines = [f"== {self.figure}: {self.title} =="]
        for r, row in enumerate(table):
            lines.append(
                "  ".join(cell.ljust(w) for cell, w in zip(row, widths))
            )
            if r == 0:
                lines.append("  ".join("-" * w for w in widths))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def __repr__(self):
        return self.format_table()


def _git_rev() -> str:
    """The checkout's commit, read from ``.git`` when there is one."""
    git = os.path.join(_ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(git, ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def write_artifact(outdir: str, filename: str, payload: dict, *,
                   repeats: Optional[int] = None) -> str:
    """Write ``payload`` to ``outdir/filename`` under the shared header.

    The ``"header"`` key carries the fields perfbench's header uses for
    the same purpose (host, core count, versions, git rev) plus the
    timing ``repeats`` behind the payload's numbers, if any.  Returns
    the path written.
    """
    header = {
        "host": platform.node(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_rev": _git_rev(),
        "repeats": repeats,
    }
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, filename)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**payload, "header": header}, fh, indent=2,
                  sort_keys=True)
        fh.write("\n")
    return path
