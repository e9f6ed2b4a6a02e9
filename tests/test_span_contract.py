"""The benchmark traces package functions by name; every name must resolve."""

import ast
import importlib
import inspect
import json
from pathlib import Path

import numpy as np

import gammaops as g
from gammaops import cli, matcore

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
TRACING = BENCHMARKS / "tracing.py"


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


def test_traced_compare_search_covers_its_spans(tmp_path, capsys, monkeypatch):
    # the traced compare-search run fails when a refactor drops a span
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    pair = g.random_pure_gamma(3, seed=45, max_norm=0.8)
    u = matcore.haar_unitary(3, np.random.default_rng(46))
    ud = matcore.dagger(u)
    paths = []
    for name, (s, p) in (("a.json", (pair.s, pair.p)),
                         ("b.json", (u @ pair.s @ ud, u @ pair.p @ ud))):
        path = tmp_path / name
        path.write_text(json.dumps(cli.pair_file_doc(s, p)))
        paths.append(str(path))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_op("compare")
        code = cli.main(["compare", *paths, "--search", "2"])
    finally:
        tracer.uninstall()
    assert code == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["verdict"] == "EQUIVALENT"
    tracer.check_coverage(workloads._COMMON_SPANS + (
        "charfn.theta_at", "charfn.coincide_check"), range(1))


def test_traced_analyze_covers_its_spans(tmp_path, capsys, monkeypatch):
    # the analyze workloads' spans: a pure pair runs the model, the
    # benchmark's gamma-unitary pair makes the probe refine its sup
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    pure = g.random_pure_gamma(3, seed=47, max_norm=0.8)
    torus = workloads._torus_pair(2, np.random.default_rng(48))
    paths = []
    for name, (s, p) in (("pure.json", (pure.s, pure.p)), ("torus.json", torus)):
        path = tmp_path / name
        path.write_text(json.dumps(cli.pair_file_doc(s, p)))
        paths.append(str(path))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for path in paths:
            tracer.begin_op("analyze")
            assert cli.main(["analyze", path]) == cli.EXIT_OK
            assert json.loads(capsys.readouterr().out)["verdict"] == "ok"
    finally:
        tracer.uninstall()
    tracer.check_coverage(workloads._ANALYZE_SPANS, range(2))
