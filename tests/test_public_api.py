"""The names the package exports and the README lists must exist, and
importing the CLI stays light."""

import os
import re
import subprocess
import sys
from pathlib import Path

import gammaops as g

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(__file__).resolve().parents[1] / "src"


def test_every_exported_name_resolves():
    for name in g.__all__:
        assert hasattr(g, name), name


def test_readme_consumer_list_names_package_attributes():
    text = README.read_text(encoding="utf-8")
    consumers = re.search(r"Everything that needs\s+them \(([^)]*)\)", text)
    listed = re.findall(r"`(\w+)`", consumers.group(1))
    assert len(listed) > 5
    for name in listed:
        assert hasattr(g, name), name


def test_cli_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize would double the scipy modules a fresh CLI loads, and
    # with them its setup time and peak memory; scipy.sparse and scipy.fft
    # add tens of modules more, and numpy's FFT serves the Toeplitz products
    code = ("import sys, gammaops.cli; print(*(m in sys.modules for m in "
            "('scipy.optimize', 'scipy.sparse', 'scipy.fft')))")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.split() == ["False"] * 3
