"""Every public function of ``matcore`` serves the package itself, and every
private module-level function or constant serves its own module.

A helper whose last caller in ``src/gammaops`` is gone, and that only the
tests still call, is dead code kept alive by its own tests.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gammaops"


def _public_functions(tree: ast.Module) -> set[str]:
    return {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}


def _called(path: Path) -> set[str]:
    """Names called in a module as ``matcore.name(...)``, or as ``name(...)``
    inside matcore itself or after ``from .matcore import name``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bare = {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "matcore"
            for alias in node.names}
    out = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                and func.value.id == "matcore"):
            out.add(func.attr)
        elif isinstance(func, ast.Name) and (path.name == "matcore.py"
                                             or func.id in bare):
            out.add(func.id)
    return out


def test_every_public_matcore_function_is_called_in_the_package():
    tree = ast.parse((SRC / "matcore.py").read_text(encoding="utf-8"))
    called = set().union(*(_called(path) for path in sorted(SRC.glob("*.py"))))
    unused = sorted(_public_functions(tree) - called)
    assert not unused, unused


def _module_constants(tree: ast.Module) -> list[str]:
    """Names bound by the module-level assignments of a module."""
    targets = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets += node.targets
        elif isinstance(node, ast.AnnAssign):
            targets.append(node.target)
    return [name.id for target in targets for name in ast.walk(target)
            if isinstance(name, ast.Name)]


def test_every_private_function_is_used_in_its_module():
    # a merge that leaves a replaced ``_helper`` or ``_CONSTANT`` behind
    # fails here
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused += [f"{path.name}: {node.name}" for node in tree.body
                   if isinstance(node, ast.FunctionDef)
                   and node.name.startswith("_") and node.name not in read]
        unused += [f"{path.name}: {name}" for name in _module_constants(tree)
                   if name.startswith("_") and not name.startswith("__")
                   and name not in read]
    assert not unused, unused
