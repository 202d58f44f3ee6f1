"""Every name a module of the package exports resolves, so a stale export fails here and not at a
user's import."""

import importlib
import pkgutil

import pytest

import ergodia

MODULES = ["ergodia"] + [f"ergodia.{m.name}" for m in pkgutil.iter_modules(ergodia.__path__)]


def test_every_module_is_listed():
    assert {"ergodia.dynamics", "ergodia.systems", "ergodia.stabilization", "ergodia.cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_a_star_import_resolves_every_exported_name(name):
    namespace = {}
    exec(f"from {name} import *", namespace)  # a name in __all__ that the module lacks raises here
    module = importlib.import_module(name)
    for attr in getattr(module, "__all__", ()):
        assert namespace[attr] is getattr(module, attr), attr
