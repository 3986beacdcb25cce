"""The package's public surface."""

import pkgutil

import pytest

import panelspec

# Adding or removing a public name is an API change: edit this list with it.
PUBLIC_NAMES = [
    "ALTERNATIVE", "CONCENTRATED_VERTICAL", "ColumnSchema",
    "ConfigurationError", "ContaminationConfig", "DgpConfig",
    "EstimateResult", "FIXED_EFFECTS", "HAUSMAN", "HELLINGER", "IDENTITY",
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


def test_public_names_are_pinned_and_resolve():
    assert sorted(panelspec.__all__) == PUBLIC_NAMES
    for name in panelspec.__all__:
        assert getattr(panelspec, name) is not None, name


@pytest.mark.parametrize("module", sorted(
    info.name for info in pkgutil.iter_modules(panelspec.__path__)
    if info.name != "__main__"
))
def test_submodule_all_names_resolve(module):
    # A name left in __all__ after its definition is gone makes
    # ``from panelspec.<module> import *`` raise AttributeError.
    exec(f"from panelspec.{module} import *", {})
