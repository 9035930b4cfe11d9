"""The export lists name only what exists.

A function deleted from a module but left in an ``__all__`` breaks
``from lago import *`` and ``from lago.<module> import *`` alike, and no
call site notices.  Every name in ``lago.__all__`` and in each submodule's
``__all__`` must resolve, and the star-import must run.
"""

import importlib
import pkgutil

import pytest

import lago

MODULES = ["lago"] + [f"lago.{info.name}" for info in pkgutil.iter_modules(lago.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == [], f"{name}.__all__ names what {name} lacks"


@pytest.mark.parametrize("name", MODULES)
def test_the_star_import_runs(name):
    exec(f"from {name} import *", {})
