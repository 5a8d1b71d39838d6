import importlib.util
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import bures

ROOT = Path(__file__).resolve().parent.parent


def test_public_names_resolve_once():
    # a deleted function must leave no stale export behind
    names = bures.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(bures, name) is not None, name


def test_import_loads_no_numpy():
    # `python -m bures` sets numpy's thread count after `import bures` and
    # before numpy loads, so the package itself must not import numpy
    code = ("import sys, bures\n"
            "assert 'numpy' not in sys.modules, 'numpy loaded'\n"
            "missing = set(bures.__all__) - set(dir(bures))\n"
            "assert not missing, missing\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


def test_integrate_export_is_the_function():
    # the submodule `bures.integrate` shares the function's name; importing
    # it first must not put the module in the function's place
    code = ("import bures.cli, bures\n"
            "from bures import integrate\n"
            "assert bures.integrate is integrate\n"
            "assert callable(integrate), integrate\n"
            "assert integrate.__module__ == 'bures.integrate'\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert callable(bures.integrate)


def test_console_script_runs_the_module_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["bures"]
    module, _, attr = entry.partition(":")
    fn = getattr(importlib.import_module(module), attr)
    # the file `python -m bures` executes, run here without its main guard
    script = importlib.util.find_spec("bures.__main__").origin
    assert Path(fn.__code__.co_filename).resolve() == Path(script).resolve()
    assert fn.__code__ == runpy.run_path(script)["main"].__code__
