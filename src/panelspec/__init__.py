"""Robust estimation and specification testing for balanced panels.

The package covers the classical within / feasible-GLS toolchain, a
weighted-likelihood fixed-effects estimator whose observation weights
come from kernel-vs-model density concordance, Hausman-type
specification tests contrasting the estimators, and a reproducible
Monte Carlo harness for size and power studies.
"""

from .data import ColumnSchema, PanelDataset, load_long_csv, to_stacked
from .estimators import (
    FIXED_EFFECTS,
    POOLED_OLS,
    RANDOM_EFFECTS,
    WEIGHTED_FIXED_EFFECTS,
    EstimateResult,
    VarianceComponents,
    estimate_variance_components,
    fit_fixed_effects,
    fit_pooled_ols,
    fit_random_effects,
)
from .exceptions import ConfigurationError, PanelSpecError
from .inference import (
    HAUSMAN,
    WEIGHTED_HAUSMAN,
    TestResult,
    chi_square_sf,
    hausman_test,
    weighted_hausman_test,
)
from .mcstudy import (
    ALTERNATIVE,
    CONCENTRATED_VERTICAL,
    NO_CONTAMINATION,
    NULL,
    RANDOM_VERTICAL,
    ContaminationConfig,
    DgpConfig,
    StudyResult,
    apply_contamination,
    generate,
    run_study,
    study_to_csv,
    study_to_json,
)
from .transforms import (
    TransformedPanel,
    compute_theta,
    quasi_demean,
    within_transform,
)
from .wle import (
    HELLINGER,
    WleConfig,
    fit_weighted_fixed_effects,
    kernel_density_at,
    pearson_residuals,
    raf_hellinger,
    smoothed_model_density,
    weight_function,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "PanelSpecError",
    "ConfigurationError",
    "ColumnSchema",
    "PanelDataset",
    "load_long_csv",
    "to_stacked",
    "TransformedPanel",
    "within_transform",
    "quasi_demean",
    "compute_theta",
    "POOLED_OLS",
    "FIXED_EFFECTS",
    "RANDOM_EFFECTS",
    "WEIGHTED_FIXED_EFFECTS",
    "EstimateResult",
    "VarianceComponents",
    "fit_pooled_ols",
    "fit_fixed_effects",
    "fit_random_effects",
    "estimate_variance_components",
    "HELLINGER",
    "WleConfig",
    "kernel_density_at",
    "smoothed_model_density",
    "pearson_residuals",
    "raf_hellinger",
    "weight_function",
    "fit_weighted_fixed_effects",
    "HAUSMAN",
    "WEIGHTED_HAUSMAN",
    "TestResult",
    "chi_square_sf",
    "hausman_test",
    "weighted_hausman_test",
    "NULL",
    "ALTERNATIVE",
    "NO_CONTAMINATION",
    "RANDOM_VERTICAL",
    "CONCENTRATED_VERTICAL",
    "DgpConfig",
    "ContaminationConfig",
    "StudyResult",
    "generate",
    "apply_contamination",
    "run_study",
    "study_to_json",
    "study_to_csv",
]
