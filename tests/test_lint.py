"""Repo-wide source lints.

A parameter annotated ``x: float = None`` lies about its type — the
default makes it ``Optional[float]``.  One slipped into the eval layer
once (``fmha_seconds``); this sweep keeps the class of bug out.  The
shared-memory bank rule is kept in one module.
"""

import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# "name: <non-Optional annotation> = None" in a def/dataclass context.
_BARE_NONE_DEFAULT = re.compile(
    r":\s*(?!Optional\b)(?!.*Optional\[)"
    r"(int|float|str|bool|bytes|complex)\s*=\s*None\b"
)


def test_no_bare_none_defaults():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if _BARE_NONE_DEFAULT.search(line):
                offenders.append(f"{path.relative_to(SRC)}:{lineno}: "
                                 f"{line.strip()}")
    assert not offenders, (
        "non-Optional annotations with a None default:\n"
        + "\n".join(offenders)
    )


_BANK_INDEX = re.compile(r"%\s*SMEM_BANKS\b")


def test_bank_rule_lives_in_sim_banks():
    """Only ``repro.sim.banks`` maps shared-memory words to banks.

    The profiler's counters, the static estimators and the perfmodel
    must all report bank conflicts by the same rule, so the rule has
    one home.
    """
    home = pathlib.Path("repro", "sim", "banks.py")
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC)
        if rel == home:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if _BANK_INDEX.search(line):
                offenders.append(f"{rel}:{lineno}: {line.strip()}")
    assert not offenders, (
        "bank indexing outside repro/sim/banks.py (call "
        "banks.wavefront_degree instead):\n" + "\n".join(offenders)
    )
