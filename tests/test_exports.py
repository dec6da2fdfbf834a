"""Every exported name resolves, in the package and in each submodule."""

import importlib
import pkgutil

import pytest

import stiefelbb

MODULES = ["stiefelbb"] + [
    "stiefelbb." + info.name for info in pkgutil.iter_modules(stiefelbb.__path__)
]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
