"""Every exported name resolves, so deletions cannot leave stale exports."""

import importlib
import importlib.util
import pkgutil
import sys
import types
from pathlib import Path

import pytest

import smithfact

MODULES = ["smithfact"] + [
    f"smithfact.{info.name}"
    for info in pkgutil.iter_modules(smithfact.__path__)]

# reached as submodules (``smithfact.jsonio``, ``python -m smithfact.cli``),
# so the package does not re-export their names
NOT_REEXPORTED = {"smithfact", "smithfact.jsonio", "smithfact.cli"}

BENCH = Path(__file__).resolve().parent.parent / "bench"


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


def test_package_reexports_each_module_all():
    # the package holds exactly its modules' names, so a name deleted from
    # a module cannot linger in the package or the other way round; a name
    # that two modules export would appear twice in the package's list
    names = {"__version__"}
    for name in sorted(set(MODULES) - NOT_REEXPORTED):
        names |= set(importlib.import_module(name).__all__)
    assert sorted(smithfact.__all__) == sorted(names)


def test_package_namespace_holds_exports_and_submodules_only():
    # no helper the package builds its list with stays behind, and the star
    # import leaves ``smithfact.smith`` the function, as the tracer expects
    extra = {n for n, v in vars(smithfact).items()
             if not n.startswith("__") and n not in smithfact.__all__
             and getattr(v, "__name__", None) != f"smithfact.{n}"}
    assert extra == set()
    assert isinstance(smithfact.smith, types.FunctionType)


def _load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_benchmark_bindings_resolve():
    # every function the benchmark's tracer wraps, looked up as ``install``
    # looks it up but left in place, and every name its workloads import
    tracing = _load_bench("tracing")
    missing = []
    for t in tracing.TARGETS:
        owner = importlib.import_module(t.module)
        if "." in t.attr:
            cls_name, attr = t.attr.split(".")
            owner = getattr(owner, cls_name, None)
            if owner is None or attr not in vars(owner):
                missing.append(f"{t.module}.{t.attr}")
        elif not hasattr(owner, t.attr):
            missing.append(f"{t.module}.{t.attr}")
    assert missing == []
    assert set(_load_bench("workloads").WORKLOADS) == {
        "snf_certify", "mf_classify", "cli_batch"}
