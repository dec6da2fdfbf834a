"""Every exported name resolves, in the package and in each submodule, and
has one home: the package re-exports the library modules, not the CLI."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_cli_names_live_only_in_bench():
    bench = importlib.import_module("stiefelbb.bench")
    assert set(bench.__all__) & set(stiefelbb.__all__) == set()


def test_package_exports_exactly_the_library_modules():
    library = [importlib.import_module(m) for m in MODULES[1:] if m != "stiefelbb.bench"]
    expected = set().union(*(mod.__all__ for mod in library)) | {"__version__"}
    assert len(set(stiefelbb.__all__)) == len(stiefelbb.__all__)
    assert set(stiefelbb.__all__) == expected


def test_package_import_leaves_the_cli_unloaded():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, stiefelbb; print('stiefelbb.bench' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
