"""Specification tests contrasting panel estimators.

The classical test contrasts the within and GLS estimates: under
exogenous unit effects both are consistent and their difference is
centered at zero with covariance equal to the difference of the two
covariances. The weighted variant replaces the within estimate with the
weighted-likelihood fit, which keeps its power when outliers distort
the classical contrast. Both statistics are asymptotically chi-square
with K degrees of freedom under the null.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .estimators import (
    FIXED_EFFECTS,
    RANDOM_EFFECTS,
    WEIGHTED_FIXED_EFFECTS,
    EstimateResult,
)
from .exceptions import (
    ConfigurationError,
    DimensionMismatchError,
    MethodMismatchError,
    NegativeArgumentError,
)

__all__ = [
    "HAUSMAN",
    "WEIGHTED_HAUSMAN",
    "TestResult",
    "chi_square_sf",
    "hausman_test",
    "weighted_hausman_test",
]

HAUSMAN = "hausman"
WEIGHTED_HAUSMAN = "weighted_hausman"

# The robust fit each test contrasts with the random-effects fit.
_ROBUST_METHOD = {
    HAUSMAN: FIXED_EFFECTS,
    WEIGHTED_HAUSMAN: WEIGHTED_FIXED_EFFECTS,
}

# Eigenvalues of the covariance difference below this fraction of the
# largest one are clamped up before inverting.
_EIG_FLOOR_REL = 1e-12


@dataclass(frozen=True)
class TestResult:
    """Outcome of a specification test.

    Attributes
    ----------
    kind : str
        ``HAUSMAN`` or ``WEIGHTED_HAUSMAN``.
    statistic : float
        Quadratic-form statistic; nonnegative.
    df : int
        Degrees of freedom, equal to the number of regressors.
    p_value : float
        Upper-tail chi-square probability of ``statistic``.
    q : ndarray, shape (K,)
        Contrast vector between the two coefficient estimates.
    repaired : bool
        True when any eigenvalue had to be clamped to keep the
        difference positive definite.
    """

    kind: str
    statistic: float
    df: int
    p_value: float
    q: np.ndarray = field(repr=False)
    repaired: bool


def chi_square_sf(x: float, df: int) -> float:
    """Chi-square survival function ``P(X > x)`` with ``df`` degrees.

    Closed form in ``y = x/2``: the sum of ``exp(-y) y^k / Gamma(k+1)``
    over ``k = 0, 1, ...`` (even ``df``) or ``k = 1/2, 3/2, ...`` plus
    ``erfc(sqrt(y))`` (odd ``df``), ``df // 2`` terms, each in log space:
    a large ``x`` gives 0.0, and ``df = 2`` exactly ``exp(-x/2)``.

    Raises
    ------
    NegativeArgumentError
        ``x < 0`` or not finite.
    ConfigurationError
        ``df`` is not a positive integer (NaN and infinity included).
    """
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise NegativeArgumentError(
            f"statistic must be finite and nonnegative, got {x}"
        )
    if not math.isfinite(df) or int(df) != df or df < 1:
        raise ConfigurationError(f"df must be a positive integer, got {df}")
    y, odd = x / 2.0, int(df) % 2
    if y == 0.0:
        return 1.0
    # Above 1e-300, rounding exponents (about -y) and sqrt(y) costs <= 9.3e-14.
    terms = [math.exp(k * math.log(y) - math.lgamma(k + 1.0) - y)
             for k in (j + 0.5 * odd for j in range(int(df) // 2))]
    return math.fsum([math.erfc(math.sqrt(y)) if odd else 0.0, *terms])


def _contrast(
    kind: str,
    robust: EstimateResult,
    re_result: EstimateResult,
) -> TestResult:
    expected = _ROBUST_METHOD[kind]
    if robust.method != expected:
        raise MethodMismatchError(
            f"expected a {expected} fit, got {robust.method}"
        )
    if re_result.method != RANDOM_EFFECTS:
        raise MethodMismatchError(
            f"expected a {RANDOM_EFFECTS} fit, got {re_result.method}"
        )
    if len(re_result.beta) != len(robust.beta):
        raise DimensionMismatchError(
            f"coefficient lengths differ: {len(robust.beta)} vs "
            f"{len(re_result.beta)}"
        )
    q = np.asarray(robust.beta, dtype=float) - np.asarray(
        re_result.beta, dtype=float
    )
    k = q.size
    m = np.asarray(robust.cov_beta, dtype=float) - np.asarray(
        re_result.cov_beta, dtype=float
    )
    m = 0.5 * (m + m.T)
    eigvals, eigvecs = np.linalg.eigh(m)
    top = float(eigvals.max())
    floor = _EIG_FLOOR_REL * (top if top > 0.0 else 1.0)
    repaired = bool(np.any(eigvals < floor))
    clamped = np.maximum(eigvals, floor)
    z = eigvecs.T @ q
    statistic = float(np.sum(z * z / clamped))
    return TestResult(
        kind=kind,
        statistic=statistic,
        df=k,
        p_value=chi_square_sf(statistic, k),
        q=q,
        repaired=repaired,
    )


def hausman_test(
    fe_result: EstimateResult, re_result: EstimateResult
) -> TestResult:
    """Contrast the within and GLS estimates.

    The statistic is ``q' M^-1 q`` with ``q`` the coefficient
    difference and ``M`` the difference of the two covariance
    matrices. ``M`` is symmetrized and its eigenvalues clamped to a
    small positive floor before inversion; the ``repaired`` flag
    records whether clamping occurred.

    Raises
    ------
    MethodMismatchError
        The first argument is not a fixed-effects fit or the second is
        not a random-effects fit.
    DimensionMismatchError
        The coefficient vectors have different lengths.
    """
    return _contrast(HAUSMAN, fe_result, re_result)


def weighted_hausman_test(
    wfe_result: EstimateResult, re_result: EstimateResult
) -> TestResult:
    """Contrast the weighted fixed-effects and GLS estimates.

    Same construction as :func:`hausman_test` with the weighted fit in
    place of the within fit. With weights identically one the two
    statistics coincide.

    Raises
    ------
    MethodMismatchError, DimensionMismatchError
        As for :func:`hausman_test`.
    """
    return _contrast(WEIGHTED_HAUSMAN, wfe_result, re_result)

