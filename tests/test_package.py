"""The package's public surface."""

import argparse
import ast
import json
import pathlib
import pkgutil

import pytest

import panelspec
from panelspec import cli

from helpers import run_fresh

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"

# Adding or removing a public name is an API change: edit this list with it.
PUBLIC_NAMES = [
    "ALTERNATIVE", "CONCENTRATED_VERTICAL", "ColumnSchema",
    "ConfigurationError", "ContaminationConfig", "DgpConfig",
    "EstimateResult", "FIXED_EFFECTS", "HAUSMAN", "HELLINGER",
    "NO_CONTAMINATION", "NULL", "POOLED_OLS", "PanelDataset",
    "PanelSpecError", "RANDOM_EFFECTS", "RANDOM_VERTICAL", "StudyResult",
    "TestResult", "TransformedPanel", "VarianceComponents",
    "WEIGHTED_FIXED_EFFECTS", "WEIGHTED_HAUSMAN", "WleConfig",
    "__version__", "apply_contamination", "chi_square_sf", "compute_theta",
    "estimate_variance_components", "fit_fixed_effects", "fit_pooled_ols",
    "fit_random_effects", "fit_weighted_fixed_effects", "generate",
    "hausman_test", "kernel_density_at", "load_long_csv",
    "pearson_residuals", "quasi_demean", "raf_hellinger", "run_study",
    "smoothed_model_density", "study_to_csv", "study_to_json", "to_stacked",
    "weight_function", "weighted_hausman_test", "within_transform",
]


# Each subcommand's options, help aside. Adding a knob is an interface
# change too: edit this list with it.
CLI_OPTIONS = {
    "fit": ["--data", "--format", "--kappa", "--max-iter", "--method",
            "--raf", "--time", "--tol", "--unit", "--x", "--y"],
    "test": ["--data", "--format", "--kappa", "--max-iter", "--raf",
             "--time", "--tol", "--unit", "--which", "--x", "--y"],
    "simulate": ["--beta", "--contamination", "--format", "--gammas",
                 "--high", "--hypothesis", "--kappa", "--low", "--m",
                 "--max-iter", "--n", "--out", "--paper-figure", "--raf",
                 "--s", "--seed", "--t", "--tau", "--tol"],
}

# The values of each option that takes a fixed set, in parser order. A
# choice added or dropped changes what a command accepts: edit this too.
CLI_CHOICES = {
    "fit": {"--method": ["pooled", "fe", "re", "wfe"], "--raf": ["hellinger"],
            "--format": ["json", "csv"]},
    "test": {"--which": ["hausman", "weighted", "both"],
             "--raf": ["hellinger"], "--format": ["json", "csv"]},
    "simulate": {"--hypothesis": ["null", "alt", "alternative"],
                 "--contamination": ["none", "random", "concentrated"],
                 "--raf": ["hellinger"], "--paper-figure": [1, 2, 4, 5],
                 "--format": ["json", "csv"]},
}


def test_public_names_are_pinned_and_resolve():
    assert sorted(panelspec.__all__) == PUBLIC_NAMES
    for name in panelspec.__all__:
        assert getattr(panelspec, name) is not None, name


def test_cli_options_are_pinned():
    (commands,) = [action for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    options = {
        name: sorted(flag for action in parser._actions
                     if action.dest != "help"
                     for flag in action.option_strings)
        for name, parser in commands.choices.items()
    }
    assert options == CLI_OPTIONS


def test_cli_choices_are_pinned():
    (commands,) = [action for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    choices = {
        name: {action.option_strings[0]: list(action.choices)
               for action in parser._actions if action.choices is not None}
        for name, parser in commands.choices.items()
    }
    assert choices == CLI_CHOICES


@pytest.mark.parametrize("module", sorted(
    info.name for info in pkgutil.iter_modules(panelspec.__path__)
    if info.name != "__main__"
))
def test_submodule_all_names_resolve(module):
    # A name left in __all__ after its definition is gone makes
    # ``from panelspec.<module> import *`` raise AttributeError.
    exec(f"from panelspec.{module} import *", {})


def _scipy_modules_after(script, blocked=()):
    """Run ``script`` in a fresh interpreter where importing any module
    named in ``blocked`` raises; return the names of the ``scipy``
    modules it left loaded."""
    return set(json.loads(run_fresh(f"""
import sys
class Block:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name in {tuple(blocked)!r}:
            raise ImportError(name + " is blocked")
sys.meta_path.insert(0, Block)
""" + script + """
import json
print(json.dumps([name for name, module in sys.modules.items()
                  if name.split(".")[0] == "scipy" and module is not None]))
""")))


def test_fit_and_test_import_no_scipy_package():
    # With the scipy packages blocked, any import of them raises; the
    # LAPACK extension loads under a stand-in package that is gone after.
    flags = ["--data", str(FIXTURES / "fe_oracle.csv"), "--unit", "unit",
             "--time", "time", "--y", "y", "--x", "x1,x2"]
    loaded = _scipy_modules_after(f"""
import contextlib, io
import panelspec
from panelspec import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main({["fit", *flags, "--method", "wfe"]!r}) == 0
    assert cli.main({["test", *flags]!r}) == 0
""", blocked=("scipy", "scipy.linalg", "scipy.special"))
    assert loaded == set()


def test_simulate_loads_ndtri_without_scipy_special():
    # The normal quantile comes from scipy.special's _ufuncs extension;
    # the package __init__ would add about 300 modules and 23 MB.
    loaded = _scipy_modules_after("""
import contextlib, io
from panelspec import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["simulate", "--s", "1"]) == 0
""", blocked=("scipy.linalg", "scipy.special"))
    assert not any(name.startswith("scipy.special") for name in loaded)


def test_cli_import_and_parser_load_no_scipy_special():
    # ndtri loads on the first draw, never at import; the LAPACK load
    # leaves no scipy module registered.
    loaded = _scipy_modules_after("""
from panelspec import cli
cli.build_parser()
""")
    assert loaded == set()


def _import_system_uses(source):
    """Lines of ``source`` that import ``importlib`` or change
    ``sys.modules``."""
    uses = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
            hit = any(name.split(".")[0] == "importlib" for name in names)
        elif isinstance(node, ast.ImportFrom):
            hit = (node.module or "").split(".")[0] == "importlib"
        elif isinstance(node, ast.Subscript):  # sys.modules[...] = or del
            hit = (not isinstance(node.ctx, ast.Load)
                   and ast.unparse(node.value) == "sys.modules")
        elif isinstance(node, ast.Attribute):  # sys.modules.pop and kin
            hit = (ast.unparse(node.value) == "sys.modules" and node.attr
                   in ("clear", "pop", "popitem", "setdefault", "update"))
        else:
            continue
        if hit:
            uses.append(node.lineno)
    return uses


@pytest.mark.parametrize("module", sorted(
    path.name for path in pathlib.Path(panelspec.__file__).parent.glob("*.py")
))
def test_only_linalg_touches_the_import_system(module):
    # _linalg._scipy_extension is the one place that loads scipy's
    # extensions around their packages; finding its uses shows that the
    # check sees them.
    path = pathlib.Path(panelspec.__file__).parent / module
    uses = _import_system_uses(path.read_text(encoding="utf-8"))
    assert bool(uses) == (module == "_linalg.py"), uses
