"""Every name a module of the package exports must exist."""

import importlib
import pkgutil

import pytest

import coring_lab

MODULES = ["coring_lab"] + [f"coring_lab.{info.name}"
                            for info in pkgutil.iter_modules(coring_lab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)] == []
