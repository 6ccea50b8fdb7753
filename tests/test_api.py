import importlib

import pytest

import stefa

SUBMODULES = ("tensor", "sieve", "estimator", "prediction", "simlab", "cli")


def test_package_exports_resolve():
    for name in stefa.__all__:
        assert hasattr(stefa, name), f"stefa.__all__ lists missing {name!r}"


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_exports_resolve_once(module):
    mod = importlib.import_module(f"stefa.{module}")
    exported = mod.__all__
    missing = [name for name in exported if not hasattr(mod, name)]
    assert not missing, f"stefa.{module}.__all__ lists missing {missing}"
    duplicates = sorted({name for name in exported if exported.count(name) > 1})
    assert not duplicates, f"stefa.{module}.__all__ repeats {duplicates}"
