"""Every exported name resolves, so a stale export of a deleted name fails
here rather than at a user's import."""

import importlib
import inspect
import pkgutil

import pytest

import hydrolimit

MODULES = sorted(m.name for m in pkgutil.iter_modules(hydrolimit.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"hydrolimit.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_names_are_module_exports():
    """The package has no ``__all__``: its star-import set is its public
    names, and each must be exported by one of its modules."""
    exported = set().union(*(importlib.import_module(f"hydrolimit.{m}").__all__ for m in MODULES))
    public = [
        n for n, v in vars(hydrolimit).items() if not n.startswith("_") and not inspect.ismodule(v)
    ]
    assert public and [n for n in public if n not in exported] == []
