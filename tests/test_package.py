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
