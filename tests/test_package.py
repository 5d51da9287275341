"""The package's public names: `__all__` against what `__init__` binds."""

import types

import singlestrip


def test_star_import_resolves_every_name_in_all():
    namespace: dict = {}
    exec("from singlestrip import *", namespace)
    assert [name for name in singlestrip.__all__ if name not in namespace] == []


def test_all_lists_exactly_the_public_names_bound_by_init():
    # submodules are bound on the package by the import system, not by
    # `__init__`, and `__version__` is public by convention
    bound = {
        name for name, value in vars(singlestrip).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(singlestrip.__all__) == len(set(singlestrip.__all__))
    assert set(singlestrip.__all__) == bound | {"__version__"}
