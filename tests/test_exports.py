"""Every exported name resolves: a deletion must take its __all__ entry with it."""

import importlib
import pkgutil

import pytest

import collisionlab

MODULES = ["collisionlab"] + [
    f"collisionlab.{info.name}" for info in pkgutil.iter_modules(collisionlab.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ lists a name twice"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == [], f"{name}.__all__ names missing attributes: {missing}"
