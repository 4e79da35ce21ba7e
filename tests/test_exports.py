"""Every name a package exports resolves, so a deleted or renamed object
cannot leave a stale entry in ``__all__`` (``from subanneal import *``
would fail on it)."""

import importlib

import pytest


@pytest.mark.parametrize("module_name", ["subanneal", "subanneal.nn"])
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)
