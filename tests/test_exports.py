import importlib
import pkgutil

import pytest

import afferent

MODULES = sorted(info.name for info in pkgutil.iter_modules(afferent.__path__, "afferent.")
                 if not info.name.rpartition(".")[2].startswith("_"))


@pytest.mark.parametrize("name", ["afferent", *MODULES])
def test_every_exported_name_resolves(name):
    """A stale __all__ entry would break `from <module> import *`."""
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
