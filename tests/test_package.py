"""The package namespace: `__all__` lists the API names and no submodule."""

import types

import structdist


def test_all_lists_resolvable_api_names_and_no_module():
    names = structdist.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert not isinstance(getattr(structdist, name), types.ModuleType), name
    namespace = {}
    exec("from structdist import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(names)
