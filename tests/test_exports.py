"""Every exported name resolves and has a caller outside the tests.

A deletion must take its __all__ entry with it, and a name that only the
tests reach does not belong in the package.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import collisionlab

MODULES = ["collisionlab"] + [
    f"collisionlab.{info.name}" for info in pkgutil.iter_modules(collisionlab.__path__)
    if info.name != "__main__"
]
ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ lists a name twice"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == [], f"{name}.__all__ names missing attributes: {missing}"


def _used_names(pattern, strings):
    """Names and attributes read in the files matching pattern; string constants too if strings."""
    used = set()
    for path in sorted(ROOT.glob(pattern)):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    return used


def test_every_exported_name_has_a_caller():
    # the package holds what a command, the certificate or the benchmark
    # runs; a name only the tests reach belongs in tests/oracles.py.  The
    # benchmark patches some names by string, so its constants count.
    used = _used_names("src/collisionlab/*.py", False) | _used_names("bench/*.py", True)
    unused = [
        f"{name}.{attr}"
        for name in MODULES
        for attr in getattr(importlib.import_module(name), "__all__", [])
        if attr not in used
    ]
    assert unused == [], f"exported names with no caller in src/ or bench/: {unused}"
