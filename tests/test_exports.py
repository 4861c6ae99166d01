"""Every exported name exists: each module's __all__ against what the module binds.

A deletion that leaves its __all__ entry behind breaks `from module import *`
only when someone runs that import, so each module's list is checked here.
"""

import importlib
import pkgutil
import types

import pytest

import qpoisson

MODULES = sorted(
    f"qpoisson.{info.name}" for info in pkgutil.iter_modules(qpoisson.__path__)
    if info.name != "__main__"
)


def test_modules_are_found():
    assert {"qpoisson.circuit", "qpoisson.simulator", "qpoisson.cli"} <= set(MODULES)


@pytest.mark.parametrize("name", ["qpoisson"] + MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [x for x in exported if not hasattr(module, x)] == []


def test_star_import_binds_exactly_the_package_all():
    namespace: dict = {}
    exec("from qpoisson import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(qpoisson.__all__)
    assert qpoisson.__all__[0] == "__version__"
    assert not [x for x, value in namespace.items() if isinstance(value, types.ModuleType)]
