"""The package's public surface."""

import argparse
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


def _scipy_modules_after(script):
    """Run ``script`` in a fresh interpreter; return the names of the
    ``scipy`` modules it left loaded."""
    return set(json.loads(run_fresh(script + """
import json
print(json.dumps([name for name, module in sys.modules.items()
                  if name.split(".")[0] == "scipy" and module is not None]))
""")))


def test_fit_and_test_import_no_scipy_package():
    # With the scipy packages blocked, any import of them raises; only
    # scipy's LAPACK extension, loaded from its file, may be present.
    flags = ["--data", str(FIXTURES / "fe_oracle.csv"), "--unit", "unit",
             "--time", "time", "--y", "y", "--x", "x1,x2"]
    loaded = _scipy_modules_after(f"""
import contextlib, io, sys
for name in ("scipy", "scipy.linalg", "scipy.special"):
    sys.modules[name] = None
import panelspec
from panelspec import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main({["fit", *flags, "--method", "wfe"]!r}) == 0
    assert cli.main({["test", *flags]!r}) == 0
""")
    assert loaded <= {"scipy.linalg._flapack"}


def test_simulate_loads_ndtri_without_scipy_special():
    # The normal quantile comes from scipy.special's _ufuncs extension;
    # the package __init__ would add about 300 modules and 23 MB.
    loaded = _scipy_modules_after("""
import contextlib, io, sys
from panelspec import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["simulate", "--s", "1"]) == 0
""")
    assert "scipy.special" not in loaded
    assert "scipy.special._ufuncs" in loaded


def test_cli_import_and_parser_load_no_scipy_special():
    # ndtri loads on the first draw, never at import.
    loaded = _scipy_modules_after("""
import sys
from panelspec import cli
cli.build_parser()
""")
    assert not any(name.startswith("scipy.special") for name in loaded)
