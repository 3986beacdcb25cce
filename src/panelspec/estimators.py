"""Classical panel estimators: pooled OLS, within, and feasible GLS.

All estimators operate on a :class:`~panelspec.data.PanelDataset`,
transform it as required, and solve the least-squares problem by
column-pivoted QR. Results are returned in a common
:class:`EstimateResult` container so downstream tests can contrast any
pair of fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._linalg import lstsq_qr
from .data import PanelDataset, to_stacked
from .exceptions import (
    InsufficientDegreesOfFreedomError,
    NonNumericValueError,
    ZeroTotalVariationError,
)
from .transforms import compute_theta, quasi_demean, within_transform

__all__ = [
    "POOLED_OLS",
    "FIXED_EFFECTS",
    "RANDOM_EFFECTS",
    "WEIGHTED_FIXED_EFFECTS",
    "EstimateResult",
    "VarianceComponents",
    "fit_pooled_ols",
    "fit_fixed_effects",
    "estimate_variance_components",
    "fit_random_effects",
]

POOLED_OLS = "pooled_ols"
FIXED_EFFECTS = "fixed_effects"
RANDOM_EFFECTS = "random_effects"
WEIGHTED_FIXED_EFFECTS = "weighted_fixed_effects"


@dataclass(frozen=True)
class VarianceComponents:
    """Estimated error-component variances and the implied GLS fraction.

    Attributes
    ----------
    sigma2_eps : float
        Idiosyncratic variance, from the within residuals.
    sigma2_alpha : float
        Unit-effect variance, from the between regression, clamped at 0.
    theta : float
        Quasi-demeaning fraction implied by the two variances.
    """

    sigma2_eps: float
    sigma2_alpha: float
    theta: float


@dataclass(frozen=True)
class EstimateResult:
    """Outcome of one estimator run.

    Attributes
    ----------
    method : str
        One of the module-level method constants.
    beta : ndarray, shape (K,)
        Slope estimates.
    cov_beta : ndarray, shape (K, K)
        Estimated covariance of ``beta``; symmetric positive definite.
    sigma2_eps : float
        Idiosyncratic variance estimate used to scale ``cov_beta``.
    sigma2_alpha : float
        Unit-effect variance estimate; 0.0 for methods that do not
        estimate it.
    residuals : ndarray, shape (N, T)
        Residuals on the estimator's transformed scale.
    rss : float
        Sum of squared residuals on the transformed scale.
    r_squared : float
        ``1 - rss / tss`` where ``tss`` is the total variation of the
        transformed response around its mean.
    tss : float
        The total variation used for ``r_squared``.
    converged : bool
        Always True for one-shot estimators; reports loop convergence
        for iterative ones.
    iterations : int
        Number of iterations performed (0 for one-shot estimators); for
        the weighted fit, evaluations of its fixed-point map.
    distance_bound : float or None
        Iterative fits: a bound on the relative distance of the result
        to the estimator's fixed point, infinite where the steps did
        not contract. None for one-shot estimators.
    weights : ndarray or None
        Observation weights of shape (N, T) for weighted estimators.
    variance_components : VarianceComponents or None
        The components a GLS fit was built from; None otherwise.
    """

    method: str
    beta: np.ndarray = field(repr=False)
    cov_beta: np.ndarray = field(repr=False)
    sigma2_eps: float
    sigma2_alpha: float
    residuals: np.ndarray = field(repr=False)
    rss: float
    r_squared: float
    tss: float
    converged: bool = True
    iterations: int = 0
    distance_bound: Optional[float] = None
    weights: Optional[np.ndarray] = field(default=None, repr=False)
    variance_components: Optional[VarianceComponents] = None

    def std_errors(self) -> np.ndarray:
        """Square roots of the covariance diagonal."""
        return np.sqrt(np.diag(self.cov_beta))


def _total_variation(y: np.ndarray) -> float:
    tss = float(np.sum((y - y.mean()) ** 2))
    if tss <= 0.0:
        raise ZeroTotalVariationError(
            "transformed response has no variation; R^2 is undefined"
        )
    return tss


def _ols(panel) -> tuple[np.ndarray, ...]:
    """Stack a panel, raw or transformed, and solve it by least squares.

    Returns the stacked ``(y, x)``, the slopes, ``(x'x)^-1`` and the
    residuals ``y - x @ beta``.
    """
    y, x = to_stacked(panel)
    beta, gram_inv = lstsq_qr(x, y)
    return y, x, beta, gram_inv, y - x @ beta


def _within_solve(dataset: PanelDataset) -> tuple[np.ndarray, ...]:
    """The within solve that FE, RE and WFE share, kept read-only on the
    immutable dataset as ``functools.cached_property`` would."""
    if "_within_solve" not in vars(dataset):
        solve = _ols(within_transform(dataset))
        for a in solve:
            a.setflags(write=False)
        vars(dataset)["_within_solve"] = solve
    return vars(dataset)["_within_solve"]


def _fit_result(
    method: str,
    n_units: int,
    solve: tuple,
    *,
    dof: Optional[int] = None,
    sigma2_eps: Optional[float] = None,
    sigma2_alpha: float = 0.0,
    **fields,
) -> EstimateResult:
    """Summarize a least-squares solve ``(y, x, beta, gram_inv, resid)``.

    The RSS, TSS and R^2 are taken on the scale of ``y``; the
    covariance is ``sigma2_eps * gram_inv``, with ``sigma2_eps = rss /
    dof`` unless given. Raises ``NonNumericValueError`` when the RSS or
    the TSS overflows.
    """
    y, _, beta, gram_inv, resid = solve
    # Finite data can overflow in these sums where no solver sees it: pooled
    # OLS does not demean, so its solver's input stays finite.
    with np.errstate(over="ignore"):
        rss = float(resid @ resid)
        tss = _total_variation(y)
    if not (math.isfinite(rss) and math.isfinite(tss)):
        raise NonNumericValueError("overflow: sum of squares not finite")
    if sigma2_eps is None:
        sigma2_eps = rss / dof
    return EstimateResult(
        method=method,
        beta=beta,
        cov_beta=sigma2_eps * gram_inv,
        sigma2_eps=sigma2_eps,
        sigma2_alpha=sigma2_alpha,
        residuals=resid.reshape(n_units, -1),
        rss=rss,
        r_squared=1.0 - rss / tss,
        tss=tss,
        **fields,
    )


def fit_pooled_ols(dataset: PanelDataset) -> EstimateResult:
    """OLS on the stacked panel, ignoring unit effects.

    The variance estimate is ``rss / (NT - K)``. With unit effects
    present this estimator is inconsistent for the slopes; it serves as
    the ``theta = 0`` end of the GLS family.

    Raises
    ------
    RankDeficientDesignError
        The stacked design is rank deficient.
    ZeroTotalVariationError
        The response has no variation.
    """
    n, t, k = dataset.x.shape
    return _fit_result(POOLED_OLS, n, _ols(dataset), dof=n * t - k)


def fit_fixed_effects(dataset: PanelDataset) -> EstimateResult:
    """Within (fixed-effects) estimator.

    OLS on the within-transformed data. The idiosyncratic variance is
    ``rss / (N(T-1) - K)``, accounting for the N demeaning constraints.

    Raises
    ------
    RankDeficientDesignError
        A regressor is constant within every unit (time-invariant) or
        the demeaned design is otherwise collinear.
    ZeroTotalVariationError
        The demeaned response has no variation.
    """
    n, t, k = dataset.x.shape
    return _fit_result(
        FIXED_EFFECTS, n, _within_solve(dataset), dof=n * (t - 1) - k
    )


def estimate_variance_components(dataset: PanelDataset) -> VarianceComponents:
    """Estimate the error-component variances.

    The idiosyncratic variance comes from the within residuals,
    ``rss_within / (N(T-1) - K)``. The effect variance comes from the
    between regression of unit means on unit mean regressors plus an
    intercept: ``max(0, rss_between / (N - K - 1) - sigma2_eps / T)``.
    The clamp at zero makes theta = 0 (pooled OLS) the boundary case.

    Raises
    ------
    InsufficientDegreesOfFreedomError
        ``N(T-1) <= K`` or ``N <= K + 1``, leaving a denominator
        nonpositive.
    RankDeficientDesignError
        The within design or the between design is collinear.
    """
    n, t, k = dataset.x.shape
    if n * (t - 1) <= k or n <= k + 1:
        raise InsufficientDegreesOfFreedomError(
            f"variance components need N(T-1) > K and N > K+1; "
            f"got N={n}, T={t}, K={k}"
        )
    resid_w = _within_solve(dataset)[4]
    sigma2_eps = float(resid_w @ resid_w) / (n * (t - 1) - k)

    y_b = dataset.y.mean(axis=1)
    x_b = np.column_stack([np.ones(n), dataset.x.mean(axis=1)])
    beta_b, _ = lstsq_qr(x_b, y_b)
    resid_b = y_b - x_b @ beta_b
    s2_between = float(resid_b @ resid_b) / (n - k - 1)
    sigma2_alpha = max(0.0, s2_between - sigma2_eps / t)

    theta = compute_theta(sigma2_eps, sigma2_alpha, t)
    return VarianceComponents(
        sigma2_eps=sigma2_eps, sigma2_alpha=sigma2_alpha, theta=theta
    )


def fit_random_effects(dataset: PanelDataset) -> EstimateResult:
    """Feasible GLS (random-effects) estimator.

    Estimates the variance components, quasi-demeans the data by the
    implied ``theta``, and runs OLS on the result. The coefficient
    covariance is ``sigma2_eps * (Xq' Xq)^-1`` with the *within*
    idiosyncratic variance as the leading scale, which makes the
    covariance comparable to the within estimator's in the
    specification tests.

    Raises
    ------
    InsufficientDegreesOfFreedomError
        Variance components are not estimable.
    RankDeficientDesignError
        A design matrix along the way is collinear.
    ZeroTotalVariationError
        The quasi-demeaned response has no variation.
    """
    vc = estimate_variance_components(dataset)
    return _fit_result(
        RANDOM_EFFECTS,
        dataset.n_units,
        _ols(quasi_demean(dataset, vc.theta)),
        sigma2_eps=vc.sigma2_eps,
        sigma2_alpha=vc.sigma2_alpha,
        variance_components=vc,
    )
