"""Every public name the package declares resolves."""

import ast
import importlib
from pathlib import Path

import pytest

import ddsls

MODULES = [
    "analysis",
    "blockops",
    "experiments",
    "hankel",
    "lqg",
    "lti",
    "sls",
    "solver",
    "synth",
]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"ddsls.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_every_name_the_package_imports_resolves():
    tree = ast.parse(Path(ddsls.__file__).read_text())
    names = [
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert names
    assert [n for n in names if not hasattr(ddsls, n)] == []
