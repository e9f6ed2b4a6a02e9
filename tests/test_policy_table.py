"""The numerical policy lives in one table at the top of ``matcore``.

Every tolerance, floor, cap, limit and iteration count is assigned once
there, with a ``#:`` line, and read elsewhere as ``matcore.NAME``.
"""

import ast
import importlib
import re
from pathlib import Path

from gammaops import matcore

SRC = Path(__file__).resolve().parents[1] / "src" / "gammaops"
TESTS = Path(__file__).resolve().parent
BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
POLICY_SUFFIX = re.compile(
    r"_(TOL|FLOOR|CAP|LIMIT|ITERS|SAMPLES|STARTS|TARGET|MARGIN|CLAMP)$")
PUBLIC_CONSTANT = re.compile(r"^[A-Z][A-Z0-9_]*$")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _module_statements(body):
    """Top-level statements, including those nested in module-level if/try."""
    for node in body:
        yield node
        if isinstance(node, (ast.If, ast.Try)):
            nested = node.body + node.orelse + getattr(node, "finalbody", [])
            for handler in getattr(node, "handlers", []):
                nested += handler.body
            yield from _module_statements(nested)


def _assigned(tree: ast.Module):
    """(name, line) for every module-level assignment target."""
    for node in _module_statements(tree.body):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield name.id, node.lineno


def _imported(tree: ast.Module):
    """(module, name, line) for every ``from module import name``, anywhere."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield node.module or "", alias.name, node.lineno


def _table() -> dict[str, int]:
    lines = (SRC / "matcore.py").read_text(encoding="utf-8").splitlines()
    table = {}
    for name, line in _assigned(_parse(SRC / "matcore.py")):
        if PUBLIC_CONSTANT.match(name):
            assert name not in table, f"matcore assigns {name} twice"
            assert lines[line - 2].startswith("#: "), f"{name} has no #: line"
            table[name] = line
    return table


def _other_modules():
    return [p for p in sorted(SRC.glob("*.py")) if p.name != "matcore.py"]


def test_table_is_documented_and_assigned_once():
    table = _table()
    assert {"PURITY_TOL", "POINT_TOL", "TRUNCATION_CAP", "RESOLVENT_FLOOR",
            "COINCIDE_TOL", "POWER_ITERS"} <= set(table)
    # the table is one block: no code between its first and last entry
    first, last = min(table.values()), max(table.values())
    tree = _parse(SRC / "matcore.py")
    for node in tree.body:
        if first < node.lineno < last:
            assert isinstance(node, ast.Assign), f"matcore:{node.lineno}"


def test_every_entry_is_read_in_the_package():
    # an entry read nowhere but its own assignment is dead policy, left
    # behind by the code that used it
    read = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "matcore"):
                read.add(node.attr)
            elif isinstance(node, ast.Name) and path.name == "matcore.py":
                read.add(node.id)
    unread = sorted(set(_table()) - read)
    assert not unread, unread


def test_no_other_module_defines_or_reexports_policy():
    table = _table()
    found = []
    for path in _other_modules():
        tree = _parse(path)
        for name, line in _assigned(tree):
            if name in table or POLICY_SUFFIX.search(name):
                found.append(f"{path.name}:{line} assigns {name}")
        for module, name, line in _imported(tree):
            if name in table or POLICY_SUFFIX.search(name):
                found.append(f"{path.name}:{line} imports {name} from .{module}")
    assert not found, found


def test_no_small_literals_outside_matcore():
    # underflow guards such as 1e-300 and 1e-150 are not tolerances
    found = []
    for path in _other_modules():
        for node in ast.walk(_parse(path)):
            if (isinstance(node, ast.Constant)
                    and isinstance(node.value, (int, float, complex))
                    and not isinstance(node.value, bool)
                    and 1e-100 < abs(node.value) < 1e-5):
                found.append(f"{path.name}:{node.lineno} {node.value!r}")
    assert not found, found


def test_tests_import_policy_from_matcore():
    table = _table()
    found = []
    for path in sorted(TESTS.glob("test_*.py")):
        for module, name, line in _imported(_parse(path)):
            if name in table and module != "gammaops.matcore":
                found.append(f"{path.name}:{line} imports {name} from {module}")
    assert not found, found


#: The benchmark's own copy of each policy value, and the entry it copies.
BENCHMARK_COPIES = {
    "RESIDUAL_TOL": "RESIDUAL_BREACH_TOL",
    "RADIUS_TOL": "RADIUS_BREACH_TOL",
    "MODEL_TOL": "MODEL_BREACH_TOL",
    "COINCIDE_TOL": "COINCIDE_TOL",
    "FSTAR_TOL": "FSTAR_MATCH_TOL",
    "CONFIRM_TOL": "MODEL_CONFIRM_TOL",
    "SCREEN_TOL": "SCREEN_TOL",
    "AUTO_TAIL_TARGET": "AUTO_TAIL_TARGET",
    "SEARCH_RESTARTS": "SEARCH_RESTARTS",
}


def test_benchmark_policy_copies_match_the_table(monkeypatch):
    # the benchmark keeps its own copies so that a change to the table
    # cannot loosen its checks; this makes any change happen in both places
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    workloads = importlib.import_module("workloads")
    numeric = {name for name, value in vars(workloads).items()
               if PUBLIC_CONSTANT.match(name)
               and isinstance(value, (int, float)) and not isinstance(value, bool)}
    assert numeric == set(BENCHMARK_COPIES)
    for copy, entry in BENCHMARK_COPIES.items():
        assert getattr(workloads, copy) == getattr(matcore, entry), copy
