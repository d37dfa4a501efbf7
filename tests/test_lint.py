"""Repo-wide source lints.

A parameter annotated ``x: float = None`` lies about its type — the
default makes it ``Optional[float]``.  One slipped into the eval layer
once (``fmha_seconds``); this sweep keeps the class of bug out.  The
shared-memory bank rule is kept in one module, and the simulator keeps
no process-global cache keyed by ``id()``.
"""

import ast
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


def _is_id_call(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "id")


def _id_key_names(tree) -> set:
    """Names bound to an ``id(...)`` anywhere in the module."""
    return {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and _is_id_call(node.value)
        for target in node.targets if isinstance(target, ast.Name)
    }


def test_no_identity_keyed_module_dicts_in_sim():
    """No module-level table under ``repro/sim`` is keyed by ``id(``.

    An ``id()`` is unique only among live objects, so such a table must
    keep its keys alive, and at module level it then grows for the life
    of the process.  Tables owned by an object (a launch plan's view
    table) live as long as their owner and are fine.
    """
    offenders = []
    for path in sorted((SRC / "repro" / "sim").rglob("*.py")):
        tree = ast.parse(path.read_text())
        module_names = set()
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            module_names |= {t.id for t in targets if isinstance(t, ast.Name)}
        id_names = _id_key_names(tree)

        def is_id_key(key):
            return _is_id_call(key) or (isinstance(key, ast.Name)
                                        and key.id in id_names)

        for node in ast.walk(tree):
            if isinstance(node, ast.Subscript):
                table, keys = node.value, [node.slice]
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute):
                table, keys = node.func.value, node.args[:1]
            elif isinstance(node, ast.Compare):
                table, keys = node.comparators[-1], [node.left]
            else:
                continue
            if (isinstance(table, ast.Name) and table.id in module_names
                    and any(is_id_key(k) for k in keys)):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}: "
                                 f"{table.id}")
    assert not offenders, (
        "module-level tables keyed by id() under repro/sim:\n"
        + "\n".join(offenders)
    )


_PROBLEM_DRAW = re.compile(r"FP8E4M3\.quantize\(|random_sparse24\(")


def test_structured_inputs_drawn_only_in_the_problem_table():
    """Only ``repro.library.problems`` quantizes fp8 inputs or draws 2:4
    operands, so every consumer of a family's problem gets the same
    draw.  (``repro.kernels.hopper`` defines ``random_sparse24``.)"""
    home = pathlib.Path("repro", "library", "problems.py")
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC)
        if rel == home:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if _PROBLEM_DRAW.search(line) and not line.lstrip().startswith(
                    "def "):
                offenders.append(f"{rel}:{lineno}: {line.strip()}")
    assert not offenders, (
        "structured input draws outside repro/library/problems.py (call "
        "problems.draw or problems.problem instead):\n"
        + "\n".join(offenders)
    )


def test_no_tuner_space_overrides_verification_problem():
    """Every tuning space poses its gate problem through the base class,
    which draws from the problem table; a space only names the
    verification shape."""
    offenders = []
    for path in sorted((SRC / "repro" / "tuner").rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if (not isinstance(node, ast.ClassDef)
                    or node.name == "ConfigSpace"):
                continue
            offenders += [
                f"{path.relative_to(SRC)}:{item.lineno}: {node.name}"
                for item in node.body
                if isinstance(item, ast.FunctionDef)
                and item.name == "verification_problem"
            ]
    assert not offenders, (
        "tuner spaces overriding verification_problem:\n"
        + "\n".join(offenders)
    )
