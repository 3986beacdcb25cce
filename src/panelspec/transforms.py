"""Within and quasi-demeaning transformations for balanced panels.

The within transformation subtracts each unit's time average from every
cell, sweeping out unit intercepts. Quasi-demeaning subtracts a fraction
``theta`` of the unit average; ``theta = 0`` leaves the data untouched
and ``theta = 1`` reproduces the within transformation. The GLS value of
``theta`` is computed from the variance components.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .data import PanelDataset
from .exceptions import ThetaOutOfRangeError, ZeroIdiosyncraticVarianceError

__all__ = [
    "TransformedPanel",
    "within_transform",
    "quasi_demean",
    "compute_theta",
]


class TransformedPanel(NamedTuple):
    """Transformed response ``y``, shape (N, T), and regressors ``x``,
    shape (N, T, K), in the layout of the panel they came from."""

    y: np.ndarray
    x: np.ndarray


def within_transform(dataset: PanelDataset) -> TransformedPanel:
    """Subtract each unit's time average: ``quasi_demean(dataset, 1.0)``.

    Every transformed unit sums to zero over time, exactly up to
    floating-point accumulation; applying the transform twice gives the
    same result as applying it once.
    """
    return quasi_demean(dataset, 1.0)


def quasi_demean(dataset: PanelDataset, theta: float) -> TransformedPanel:
    """Subtract ``theta`` times each unit's time average.

    A unit mean of finite values can overflow; the result then holds
    non-finite cells, which the least-squares solver rejects as a data
    error.

    Parameters
    ----------
    dataset : PanelDataset
    theta : float
        Fraction of the unit mean to remove, in [0, 1]. ``theta = 0``
        returns the data unchanged; ``theta = 1`` equals the within
        transformation.

    Raises
    ------
    ThetaOutOfRangeError
        ``theta`` is outside [0, 1] or not finite.
    """
    theta = float(theta)
    if not math.isfinite(theta) or theta < 0.0 or theta > 1.0:
        raise ThetaOutOfRangeError(f"theta must lie in [0, 1], got {theta}")
    with np.errstate(over="ignore", invalid="ignore"):
        y = dataset.y - theta * dataset.y.mean(axis=1, keepdims=True)
        x = dataset.x - theta * dataset.x.mean(axis=1, keepdims=True)
    return TransformedPanel(y, x)


def compute_theta(sigma2_eps: float, sigma2_alpha: float, n_periods: int) -> float:
    """GLS quasi-demeaning fraction from the variance components.

    Computes ``1 - sqrt(sigma2_eps / (sigma2_eps + T * sigma2_alpha))``
    for T periods. Zero effect variance gives 0 (pooled OLS); as the
    effect variance dominates, the value approaches 1 (within).

    Raises
    ------
    ZeroIdiosyncraticVarianceError
        ``sigma2_eps <= 0``, for which the ratio is undefined.
    ThetaOutOfRangeError
        ``sigma2_alpha < 0`` or ``n_periods < 1`` (would leave [0, 1]).
    """
    sigma2_eps = float(sigma2_eps)
    sigma2_alpha = float(sigma2_alpha)
    if sigma2_eps <= 0.0 or not math.isfinite(sigma2_eps):
        raise ZeroIdiosyncraticVarianceError(
            f"idiosyncratic variance must be positive, got {sigma2_eps}"
        )
    if sigma2_alpha < 0.0 or not math.isfinite(sigma2_alpha):
        raise ThetaOutOfRangeError(
            f"effect variance must be nonnegative, got {sigma2_alpha}"
        )
    if n_periods < 1:
        raise ThetaOutOfRangeError(f"n_periods must be >= 1, got {n_periods}")
    return 1.0 - math.sqrt(
        sigma2_eps / (sigma2_eps + n_periods * sigma2_alpha)
    )
