import importlib
import pkgutil

import pytest

import qpalloc

MODULES = ["qpalloc"] + [f"qpalloc.{info.name}"
                         for info in pkgutil.iter_modules(qpalloc.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
