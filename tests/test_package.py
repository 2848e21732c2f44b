"""Every name a ``vcgp`` module exports in ``__all__`` must exist.

A stale entry otherwise fails only at ``from vcgp.<module> import *``.
"""

import importlib
import pkgutil

import pytest

import vcgp

MODULES = sorted(f"vcgp.{info.name}" for info in pkgutil.iter_modules(vcgp.__path__))


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing attributes {missing}"
