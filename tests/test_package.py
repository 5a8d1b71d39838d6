import ast
import importlib.util
import json
import os
import pkgutil
import re
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


def test_no_public_name_is_a_submodule():
    # importing a submodule binds it on the package, so a public name shared
    # with a submodule would be the function or the module depending on
    # import order
    modules = {info.name for info in pkgutil.iter_modules(bures.__path__)}
    assert not set(bures.__all__) & modules


def test_integrate_export_is_the_function():
    # importing the submodule that defines `integrate` first must leave the
    # package's `integrate` the function
    code = ("import bures.integration, bures\n"
            "from bures import integrate\n"
            "assert bures.integrate is integrate\n"
            "assert callable(integrate), integrate\n"
            "assert integrate.__module__ == 'bures.integration'\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert callable(bures.integrate)


def test_readme_library_example_runs():
    # README's one Python block, run as written against this source tree
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                        re.M | re.S)
    assert len(blocks) == 1
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, "-c", blocks[0]], capture_output=True, text=True,
                       env={**os.environ, "PYTHONPATH": path})
    assert r.returncode == 0, r.stderr


# a fresh interpreter runs the CLI entry with the given arguments, then
# prints as JSON the names of the modules that ran: the CLI registers its
# subcommands' modules with importlib's LazyLoader, and one of those that
# never ran is still a _LazyModule
_LOADED = """
import contextlib, importlib.util, io, json, sys
from bures.__main__ import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        main(sys.argv[1:])
    except SystemExit:
        pass
print(json.dumps(sorted(name for name, module in sys.modules.items()
                        if not isinstance(module, importlib.util._LazyModule))))
"""

_CLI = {"bures", "bures.__main__", "bures.cli"}
# the modules that define the typed scalar API (EigenvalueAngles,
# DensityMatrixParams and the check forms on them): the batch commands run
# none of them
_SCALAR_API = {"bures.euler", "bures.measure"}
_QUADRATURE_UNUSED = {"bures.sampling", "bures.floatfmt", "bures.generators",
                      "bures.linalg", "bures.checks", "numpy.random"} | _SCALAR_API


@pytest.mark.parametrize("argv,needed,unused", [
    (["--help"], set(), None),
    (["integrate", "--help"], set(), None),
    (["integrate", "--n", "4", "--functional", "entropy"], set(), None),
    (["integrate", "--n", "3", "--functional", "entropy", "--points", "8"],
     {"bures.integration", "bures.kernels", "bures.tensorgrid"}, _QUADRATURE_UNUSED),
    (["volume", "--n", "3", "--points", "4"], {"bures.kernels", "bures.tensorgrid"},
     _QUADRATURE_UNUSED | {"bures.integration", "bures.functionals"}),
    (["integrate", "--n", "2", "--functional", "purity", "--method", "mc",
      "--samples", "100"], {"bures.integration", "bures.kernels", "bures.sampling"},
     {"bures.floatfmt", "bures.generators", "bures.linalg", "bures.checks",
      "bures.tensorgrid"} | _SCALAR_API),
    (["sample", "--n", "3", "--count", "10", "--seed", "1"],
     {"bures.sampling", "bures.kernels", "bures.floatfmt"},
     {"bures.integration", "bures.functionals", "bures.generators", "bures.linalg",
      "bures.checks", "bures.tensorgrid"} | _SCALAR_API),
    (["density", "--n", "3", "--params",
      "theta1=0.31,theta2=0.77,alpha=2.13,beta=0.95,gamma=0.41,theta_big=1.02,a=2.9,b=0.2"],
     {"bures.kernels"} | _SCALAR_API,
     {"bures.sampling", "bures.floatfmt", "bures.integration", "bures.functionals",
      "bures.tensorgrid", "bures.checks", "numpy.random"}),
], ids=["help", "integrate-help", "usage-error", "quadrature", "volume", "mc", "sample",
        "density"])
def test_each_command_runs_only_what_it_needs(argv, needed, unused):
    # --help and usage errors end before numpy loads (unused None: nothing
    # beyond the CLI runs); a subcommand runs the modules it needs only
    r = subprocess.run([sys.executable, "-c", _LOADED, *argv],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    ran = set(json.loads(r.stdout))
    assert _CLI | needed <= ran
    if unused is None:
        assert "numpy" not in ran
        assert {m for m in ran if m.startswith("bures")} == _CLI
    else:
        assert "numpy" in ran
        assert not ran & unused, ran & unused


def test_cli_import_registers_the_subcommand_modules():
    # code that looks the modules up right after `import bures.cli` finds
    # each one a subcommand runs, and runs it on first use
    code = ("import sys, bures.cli, bures\n"
            "names = ('euler', 'floatfmt', 'functionals', 'generators', 'integration',\n"
            "         'kernels', 'linalg', 'measure', 'sampling', 'tensorgrid')\n"
            "assert all('bures.' + n in sys.modules for n in names)\n"
            "assert 'numpy' not in sys.modules\n"
            "assert bures.sampling.sample.__module__ == 'bures.sampling'\n"
            "assert sys.modules['bures.measure'].normalization_constant(2) > 0\n"
            "assert bures.integrate.__module__ == 'bures.integration'\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


# the (module, function) names by which perfbench's outside-in tracer still
# finds a function, with the module that defines it: the tracer wraps that
# object wherever a module binds it, and skips a name that no longer
# resolves, so a rename here would zero a per-layer metric without an error.
# This list goes when perfbench reads an in-package trace channel instead.
_TRACED_NAMES = {
    ("cli", "main"): "cli",
    ("cli", "dumps_record"): "cli",
    ("sampling", "sample"): "sampling",
    ("measure", "normalization_constant"): "kernels",
    ("measure", "eigen_measure_factor"): "kernels",
    ("measure", "coset_measure_factor"): "kernels",
    ("tensorgrid", "tensor_quadrature"): "tensorgrid",
    ("euler", "density_batch"): "kernels",
    ("functionals", "from_matrices"): "functionals",
    ("functionals", "from_eigenvalues"): "functionals",
}


@pytest.mark.parametrize("module,name", list(_TRACED_NAMES),
                         ids=[".".join(key) for key in _TRACED_NAMES])
def test_traced_name_is_bound(module, name):
    source = importlib.import_module(f"bures.{_TRACED_NAMES[module, name]}")
    fn = getattr(importlib.import_module(f"bures.{module}"), name)
    assert callable(fn) and fn is getattr(source, name)
    assert fn.__module__ == source.__name__


def test_console_script_runs_the_module_entry():
    # the console script calls the function that `python -m bures` calls
    # under its main guard, and that is the process entry, not main
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["bures"]
    module, _, attr = entry.partition(":")
    assert (module, attr) == ("bures.__main__", "run")
    fn = getattr(importlib.import_module(module), attr)
    # the file `python -m bures` executes, run here without its main guard
    script = importlib.util.find_spec("bures.__main__").origin
    assert Path(fn.__code__.co_filename).resolve() == Path(script).resolve()
    assert fn.__code__ == runpy.run_path(script)[attr].__code__
    tree = ast.parse(Path(script).read_text())
    guard = [node for node in tree.body if isinstance(node, ast.If)
             and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [ast.unparse(node) for node in guard[0].body] == [f"{attr}()"]
