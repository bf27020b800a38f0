"""Every exported name resolves; a stale ``__all__`` entry is the usual
leftover of deleted code."""

import importlib
import pkgutil

import pytest

import biotcgp

MODULES = ["biotcgp"] + [f"biotcgp.{info.name}"
                         for info in pkgutil.iter_modules(biotcgp.__path__)]


@pytest.mark.parametrize("name", [m for m in MODULES
                                  if hasattr(importlib.import_module(m), "__all__")])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
