"""The names the package exports and the README lists must exist."""

import re
from pathlib import Path

import gammaops as g

README = Path(__file__).resolve().parents[1] / "README.md"


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
