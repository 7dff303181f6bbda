import doctest
import importlib
import pkgutil
import types

import zhu_forge


def test_public_names_resolve():
    # A name deleted from the package must leave __all__ too.
    missing = [name for name in zhu_forge.__all__ if not hasattr(zhu_forge, name)]
    assert missing == []
    assert len(set(zhu_forge.__all__)) == len(zhu_forge.__all__)
    namespace: dict = {}
    exec("from zhu_forge import *", namespace)
    assert set(zhu_forge.__all__) <= set(namespace)


def test_all_lists_every_public_name():
    # An exported import missing from __all__ is caught here.
    public = {
        name
        for name, value in vars(zhu_forge).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(zhu_forge.__all__) == public | {"__version__"}


def test_docstring_examples_run():
    # pytest collects no doctests here, so the ``>>>`` examples run here.
    modules = [zhu_forge] + [
        importlib.import_module(f"zhu_forge.{info.name}")
        for info in pkgutil.iter_modules(zhu_forge.__path__)
    ]
    failed = attempted = 0
    for module in modules:
        result = doctest.testmod(module)
        failed += result.failed
        attempted += result.attempted
    assert failed == 0
    assert attempted >= 5
