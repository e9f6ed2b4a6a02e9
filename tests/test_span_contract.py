"""The benchmark traces package functions by name; every name must resolve."""

import ast
import importlib
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _layers() -> dict:
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "LAYERS"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS table in {TRACING}")


def test_traced_spans_resolve_to_package_functions():
    layers = _layers()
    assert layers
    for mod_name, fn_names in layers.items():
        module = importlib.import_module(f"gammaops.{mod_name}")
        for fn_name in fn_names:
            fn = getattr(module, fn_name, None)
            assert inspect.isfunction(fn), f"{mod_name}.{fn_name}"
            assert fn.__module__ == module.__name__, f"{mod_name}.{fn_name}"
