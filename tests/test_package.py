"""The package namespace: what `from sgc import *` exports."""

import types

import sgc


def test_all_names_resolve_and_are_not_submodules():
    assert len(set(sgc.__all__)) == len(sgc.__all__)
    for name in sgc.__all__:
        assert not isinstance(getattr(sgc, name), types.ModuleType), name
