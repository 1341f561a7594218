"""The public API lists: each module's __all__ names exactly the public
functions and classes it defines, and the package re-exports all of them
but the invariant suite's."""

import importlib

import pytest

import maxsat

MODULES = ("numerics", "recursion", "potential", "thresholds", "systems")


def defined_public(mod):
    return {name for name, obj in vars(mod).items()
            if not name.startswith("_") and callable(obj)
            and getattr(obj, "__module__", None) == mod.__name__}


@pytest.mark.parametrize("name", MODULES + ("invariants",))
def test_all_lists_the_public_definitions(name):
    mod = importlib.import_module(f"maxsat.{name}")
    # sorted lists, so a name listed twice fails too
    assert sorted(mod.__all__) == sorted(defined_public(mod))


@pytest.mark.parametrize("name", MODULES)
def test_package_reexports_module_api(name):
    mod = importlib.import_module(f"maxsat.{name}")
    missing = [n for n in mod.__all__ if getattr(maxsat, n, None) is not getattr(mod, n)]
    assert missing == []
