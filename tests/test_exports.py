"""Every exported name resolves, so deletions cannot leave stale exports."""

import importlib
import pkgutil

import pytest

import smithfact

MODULES = ["smithfact"] + [
    f"smithfact.{info.name}"
    for info in pkgutil.iter_modules(smithfact.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__"), f"{name} has no __all__"
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    module = importlib.import_module(name)
    assert set(module.__all__) <= set(namespace)
