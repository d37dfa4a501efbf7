"""Smoke tests: every example script runs to completion."""

import runpy
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted(
    (Path(__file__).resolve().parent.parent / "examples").glob("*.py")
)


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script, capsys):
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), "examples must print their results"


def test_eval_cli_runs():
    result = subprocess.run(
        [sys.executable, "-m", "repro.eval", "figures", "fig13"],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert "Figure 13" in result.stdout


def test_eval_cli_rejects_unknown():
    result = subprocess.run(
        [sys.executable, "-m", "repro.eval", "fig99"],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 2
