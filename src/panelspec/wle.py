"""Weighted-likelihood fixed-effects estimation.

The within residuals are compared, through Pearson residuals, against
the normal model they should follow when the specification is correct:
a kernel density estimate of the residuals is set against the model
density smoothed with the same kernel, so that on clean data the two
agree in expectation and every observation keeps weight near one.
Observations the model cannot explain get large Pearson residuals and,
through the residual adjustment function, weights near zero. The
estimator iterates weighted least squares on the demeaned data until
the coefficients settle.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from ._linalg import lstsq_qr
from .data import PanelDataset
from .estimators import (
    WEIGHTED_FIXED_EFFECTS,
    EstimateResult,
    _fit_result,
    _ols,
)
from .exceptions import (
    ConfigurationError,
    DegenerateWeightsError,
    DeltaOutOfRangeError,
    EmptySampleError,
    NonpositiveBandwidthError,
    NonpositiveScaleError,
)
from .transforms import within_transform

__all__ = [
    "HELLINGER",
    "IDENTITY",
    "WleConfig",
    "WeightState",
    "kernel_density_at",
    "smoothed_model_density",
    "pearson_residuals",
    "raf_hellinger",
    "weight_function",
    "compute_weight_state",
    "fit_weighted_fixed_effects",
]

HELLINGER = "hellinger"
# Diagnostic adjustment A(delta) = delta: weights are identically one and
# the fit reproduces unweighted least squares.
IDENTITY = "identity"

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Cap on the scratch matrix for kernel evaluation; larger jobs are chunked
# over evaluation points, which leaves every per-point sum unchanged.
_CHUNK_CELLS = 4_000_000

# Fast Gauss transform (Greengard & Strain 1991; Yang, Duraiswami & Gumerov
# 2003), in kernel units z = x / h. Sources fall in boxes of width one; box
# b, centred at c_b = b + 1/2, keeps the moments
#     M_bk = sum_i exp(-s_i^2 / 2) s_i^k / k!,   s_i = z_i - c_b,
# and a target at t = y - c_b reads it as
#     sum_i exp(-(t - s_i)^2 / 2) ~= exp(-t^2 / 2) sum_{k<P} M_bk t^k,
# from exp(-(t - s)^2/2) = exp(-t^2/2) exp(-s^2/2) e^{ts}. Each target sums
# the boxes within R of its own, so |s| <= 1/2 and |t| <= R + 1/2, each
# widened by 2^-8 for the rounding of keys and centres below
# _FGT_MAX_REACH. Per source, in units of the kernel's peak, the Taylor
# remainder is at most exp(-(t^2 + s^2)/2) |ts|^P / P! max(1, e^{ts}),
# whose maximum over that range (at t ~ 5.4) is 3.1e-21 for P = 26; a
# source beyond the reach lies more than R - 2^-8 away and adds at most
# exp(-(R - 2^-8)^2 / 2) = 2.0e-22 for R = 10. The absolute error is thus
# below n * 3.1e-21 peaks. At a sample point the dense sum is at least one
# peak (the point's own term), so there the error is below 1e-13 relative
# for n up to 3e7; rounding adds the few ulps per term that the dense sum
# also carries.
_FGT_ORDER = 26
_FGT_RADIUS = 10
_FGT_OFFSETS = np.arange(-_FGT_RADIUS, _FGT_RADIUS + 1, dtype=float)
# Beyond 2^44 bandwidths from zero, box keys and centres lose the precision
# the bound above assumes; such samples take the dense path.
_FGT_MAX_REACH = 2.0**44
# Size (sample x points) from which the FGT runs: the smallest n = m where
# it beat the dense loop by more than the repeat-to-repeat spread. Timed
# with points = sample, h = 0.5, one BLAS thread, on a 2-core x86-64 host:
# the dense loop is 4-6x faster at n = 100-150; at n = 200-275 the two
# differ by less than the spread in at least one run; from
# n = 300 the FGT wins beyond the spread in every run (0.61-0.66 against
# 0.95-1.05 ms), 4x at n = 800 and 13x at n = 2000.
_FGT_MIN_CELLS = 300 * 300
# Targets per evaluation block: keeps each (targets x offsets) scratch array
# near 170 kB, in cache.
_FGT_BLOCK = 1024


@dataclass(frozen=True)
class WleConfig:
    """Tuning constants for the weighted fit.

    Attributes
    ----------
    kappa : float
        Bandwidth fraction: the kernel bandwidth is ``kappa`` times the
        current residual scale. Must be positive.
    max_iterations : int
        Cap on weighted least-squares iterations.
    tolerance : float
        Relative sup-norm change in coefficients that counts as
        converged.
    raf : str
        Residual adjustment function: ``HELLINGER`` (default) or the
        ``IDENTITY`` diagnostic.
    """

    kappa: float = 0.5
    max_iterations: int = 50
    tolerance: float = 1e-6
    raf: str = HELLINGER

    def __post_init__(self) -> None:
        if not (self.kappa > 0.0 and math.isfinite(self.kappa)):
            raise NonpositiveBandwidthError(
                f"kappa must be positive, got {self.kappa}"
            )
        if (
            not isinstance(self.max_iterations, numbers.Integral)
            or self.max_iterations < 1
        ):
            raise ConfigurationError(
                f"max_iterations must be an integer >= 1, "
                f"got {self.max_iterations!r}"
            )
        if not (self.tolerance > 0.0 and math.isfinite(self.tolerance)):
            raise ConfigurationError(
                f"tolerance must be positive and finite, got {self.tolerance}"
            )
        if self.raf not in (HELLINGER, IDENTITY):
            raise ConfigurationError(f"unknown raf {self.raf!r}")


@dataclass(frozen=True)
class WeightState:
    """Diagnostics of one weighting pass.

    Attributes
    ----------
    residuals : ndarray, shape (n,)
        The demeaned residuals the weights were computed from.
    sigma_nu : float
        Residual scale used for the kernel bandwidth and model density.
    pearson : ndarray, shape (n,)
        Pearson residuals delta_i = f*(r_i) / m*(r_i) - 1.
    weights : ndarray, shape (n,)
        Weights in [0, 1], one per residual.
    """

    residuals: np.ndarray = field(repr=False)
    sigma_nu: float
    pearson: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)


def kernel_density_at(
    sample: np.ndarray, points: np.ndarray, bandwidth: float
) -> np.ndarray:
    """Normal-kernel density estimate of ``sample``, at ``points``.

    Parameters
    ----------
    sample : ndarray, shape (n,)
        Observed values; n >= 1.
    points : ndarray, shape (m,)
        Evaluation points.
    bandwidth : float
        Kernel standard deviation; must be positive.

    Returns
    -------
    ndarray, shape (m,)
        ``(1/n) sum_i phi((points - sample_i) / h) / h``.

    Notes
    -----
    Below ``_FGT_MIN_CELLS`` sample-point pairs, and whenever an input is
    non-finite or lies more than ``2**44`` bandwidths from zero, each
    value is a direct sum over the entire sample, chunked over the
    evaluation points without changing any per-point sum. Larger jobs
    use a fast Gauss transform (Greengard & Strain 1991; Yang,
    Duraiswami & Gumerov 2003) in time linear in n + m, with P = 26 Taylor
    terms and a reach of 10 bandwidths: its absolute error is below
    ``n * 3.1e-21`` kernel peaks, which is 1e-13 relative to the direct
    sum at any sample point for n up to 3e7. Points more than 10
    bandwidths from every sample value, where the density is below
    ``exp(-50)`` of a peak, get no such relative guarantee.
    """
    sample = np.asarray(sample, dtype=float).ravel()
    points = np.asarray(points, dtype=float).ravel()
    if sample.size == 0:
        raise EmptySampleError("kernel density needs a nonempty sample")
    if not (bandwidth > 0.0 and math.isfinite(bandwidth)):
        raise NonpositiveBandwidthError(
            f"bandwidth must be positive, got {bandwidth}"
        )
    n = sample.size
    scale = 1.0 / (n * bandwidth * _SQRT_2PI)
    if n * points.size >= _FGT_MIN_CELLS:
        reach = max(np.abs(sample).max(), np.abs(points).max()) / bandwidth
        if reach < _FGT_MAX_REACH:  # False for NaN and inf as well
            return _fast_gauss_transform(sample, points, bandwidth) * scale
    out = np.empty(points.size)
    step = max(1, _CHUNK_CELLS // max(n, 1))
    for start in range(0, points.size, step):
        block = points[start : start + step, np.newaxis]
        z = (block - sample[np.newaxis, :]) / bandwidth
        out[start : start + step] = np.exp(-0.5 * z * z).sum(axis=1) * scale
    return out


def _fast_gauss_transform(
    sample: np.ndarray, points: np.ndarray, bandwidth: float
) -> np.ndarray:
    """``sum_i exp(-((points - sample_i) / h)^2 / 2)`` by the Taylor FGT.

    Only occupied boxes are stored, so memory is O(n * P) however far
    apart the sample's clusters lie. Inputs must be finite and within
    ``_FGT_MAX_REACH`` bandwidths of zero.
    """
    h = bandwidth
    src_key = np.floor(sample / h)
    boxes, src_box = np.unique(src_key, return_inverse=True)
    s = (sample - (src_key + 0.5) * h) / h
    # terms[i, k] = exp(-s_i^2 / 2) s_i^k / k!
    terms = np.empty((sample.size, _FGT_ORDER))
    terms[:, 0] = np.exp(-0.5 * s * s)
    terms[:, 1:] = s[:, np.newaxis] / np.arange(1, _FGT_ORDER)
    np.cumprod(terms, axis=1, out=terms)
    # moments[k, b]; the extra zero column stands for every empty box.
    n_boxes = boxes.size
    moments = np.zeros((_FGT_ORDER, n_boxes + 1))
    for k in range(_FGT_ORDER):
        moments[k, :n_boxes] = np.bincount(
            src_box, weights=terms[:, k], minlength=n_boxes
        )

    tgt_key = np.floor(points / h)
    tgt_boxes, tgt_box = np.unique(tgt_key, return_inverse=True)
    # lookup[j, d]: column of box tgt_boxes[j] + _FGT_OFFSETS[d] in moments.
    near = tgt_boxes[:, np.newaxis] + _FGT_OFFSETS
    lookup = np.minimum(np.searchsorted(boxes, near), n_boxes - 1)
    lookup[boxes[lookup] != near] = n_boxes

    out = np.empty(points.size)
    for start in range(0, points.size, _FGT_BLOCK):
        block = slice(start, start + _FGT_BLOCK)
        col = lookup[tgt_box[block]]
        key = tgt_key[block, np.newaxis] + _FGT_OFFSETS
        t = (points[block, np.newaxis] - (key + 0.5) * h) / h
        acc = moments[-1][col]
        for k in range(_FGT_ORDER - 2, -1, -1):
            acc *= t
            acc += moments[k][col]
        acc *= np.exp(-0.5 * t * t)
        out[block] = acc.sum(axis=1)
    return out


def smoothed_model_density(
    points: np.ndarray, sigma_nu: float, bandwidth: float
) -> np.ndarray:
    """Normal model density convolved with the normal kernel.

    The convolution of a N(0, sigma_nu^2) density with a N(0, h^2)
    kernel is the N(0, sigma_nu^2 + h^2) density, evaluated here in
    closed form. ``bandwidth = 0`` is allowed and returns the plain
    model density (the no-smoothing limit).

    Raises
    ------
    NonpositiveScaleError
        ``sigma_nu <= 0``.
    NonpositiveBandwidthError
        ``bandwidth < 0``.
    """
    points = np.asarray(points, dtype=float)
    if not (sigma_nu > 0.0 and math.isfinite(sigma_nu)):
        raise NonpositiveScaleError(
            f"sigma_nu must be positive, got {sigma_nu}"
        )
    if bandwidth < 0.0 or not math.isfinite(bandwidth):
        raise NonpositiveBandwidthError(
            f"bandwidth must be nonnegative, got {bandwidth}"
        )
    var = sigma_nu * sigma_nu + bandwidth * bandwidth
    sd = math.sqrt(var)
    return np.exp(-0.5 * (points / sd) ** 2) / (sd * _SQRT_2PI)


def pearson_residuals(
    residuals: np.ndarray,
    sigma_nu: float,
    config: Optional[WleConfig] = None,
) -> np.ndarray:
    """Pearson residuals of a residual sample against the normal model.

    With ``h = config.kappa * sigma_nu``, computes
    ``delta_i = f*(r_i) / m*(r_i) - 1`` where ``f*`` is the kernel
    density estimate of the residuals and ``m*`` the kernel-smoothed
    N(0, sigma_nu^2) model density. Under the model both densities
    agree in expectation and delta concentrates near zero.

    Raises
    ------
    EmptySampleError
        Fewer than two residuals.
    NonpositiveScaleError, NonpositiveBandwidthError
        Nonpositive scale or implied bandwidth.
    """
    config = config or WleConfig()
    residuals = np.asarray(residuals, dtype=float).ravel()
    if residuals.size < 2:
        raise EmptySampleError(
            f"need at least 2 residuals, got {residuals.size}"
        )
    h = config.kappa * sigma_nu
    f_star = kernel_density_at(residuals, residuals, h)
    m_star = smoothed_model_density(residuals, sigma_nu, h)
    # m* underflows only for residuals dozens of scales out; treat the
    # ratio as infinite surprise there rather than dividing by zero, and
    # let a subnormal m* overflow the ratio to inf the same way.
    with np.errstate(over="ignore"):
        ratio = np.divide(
            f_star,
            m_star,
            out=np.full_like(f_star, np.inf),
            where=m_star > 0.0,
        )
    return ratio - 1.0


def raf_hellinger(delta: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """Hellinger residual adjustment ``A(delta) = 2(sqrt(delta+1) - 1)``.

    Defined for ``delta > -1``; concave, with A(0) = 0 and slope 1 at
    zero, so small Pearson residuals pass through nearly unchanged
    while large ones are damped.

    Raises
    ------
    DeltaOutOfRangeError
        Any ``delta <= -1``.
    """
    arr = np.asarray(delta, dtype=float)
    if np.any(arr[np.isfinite(arr)] <= -1.0) or np.any(np.isnan(arr)):
        raise DeltaOutOfRangeError(
            "Pearson residuals must exceed -1"
        )
    out = 2.0 * (np.sqrt(arr + 1.0) - 1.0)
    if np.isscalar(delta):
        return float(out)
    return out


def weight_function(
    delta: Union[float, np.ndarray], raf: str = HELLINGER
) -> Union[float, np.ndarray]:
    """Map Pearson residuals to weights in [0, 1].

    ``w = min(1, [A(delta) + 1]^+ / (delta + 1))``. Observations in
    perfect concordance (delta = 0) get weight 1; strongly surprising
    observations in either direction get weights near 0. The
    ``IDENTITY`` adjustment gives weight 1 everywhere.

    Non-finite ``delta`` (infinite surprise) maps to weight 0.
    """
    arr = np.asarray(delta, dtype=float)
    finite = np.isfinite(arr)
    safe = np.where(finite, arr, 0.0)
    if raf == IDENTITY:
        adjusted = safe + 1.0
    elif raf == HELLINGER:
        adjusted = raf_hellinger(safe) + 1.0
    else:
        raise ConfigurationError(f"unknown raf {raf!r}")
    w = np.minimum(1.0, np.maximum(0.0, adjusted) / (safe + 1.0))
    w = np.where(finite, w, 0.0)
    if np.isscalar(delta):
        return float(w)
    return w


def compute_weight_state(
    residuals: np.ndarray, sigma_nu: float, config: Optional[WleConfig] = None
) -> WeightState:
    """One weighting pass: Pearson residuals and weights for a sample."""
    config = config or WleConfig()
    residuals = np.asarray(residuals, dtype=float).ravel()
    delta = pearson_residuals(residuals, sigma_nu, config)
    weights = weight_function(delta, config.raf)
    return WeightState(
        residuals=residuals,
        sigma_nu=float(sigma_nu),
        pearson=delta,
        weights=np.asarray(weights),
    )


def fit_weighted_fixed_effects(
    dataset: PanelDataset, config: Optional[WleConfig] = None
) -> EstimateResult:
    """Weighted-likelihood estimator on the within-transformed panel.

    Starting from the within fit, iterates: compute Pearson residuals
    of the current demeaned residuals, turn them into weights, solve
    weighted least squares, and update the residual scale. Stops when
    the coefficient vector changes by less than ``config.tolerance``
    in relative sup-norm, or after ``config.max_iterations`` loops, in
    which case the result carries ``converged=False`` (not an error).

    The reported covariance is ``sigma2_eps * (X' W X)^-1`` on the
    demeaned data, with ``sigma2_eps`` the weighted residual variance
    corrected for the demeaning constraints and parameter count, so
    that unit weights reproduce the within estimator's covariance
    exactly.

    Raises
    ------
    DegenerateWeightsError
        The weight mass ``sum(w)`` fell to ``K`` or below.
    RankDeficientDesignError
        The (weighted) demeaned design is collinear.
    ZeroTotalVariationError
        The demeaned response has no variation.
    """
    config = config or WleConfig()
    n_units, t, k = dataset.x.shape
    y, x, beta, gram_inv, resid = _ols(within_transform(dataset))
    n = y.size
    weights = np.ones(n)
    # Initial scale: the unit-weight case of the update formula below.
    sigma2_nu = float(resid @ resid) / (n - k)
    converged = False
    iterations = 0

    if sigma2_nu > 0.0:
        for iterations in range(1, config.max_iterations + 1):
            weights = compute_weight_state(
                resid, math.sqrt(sigma2_nu), config
            ).weights
            sum_w = float(weights.sum())
            if sum_w <= k:
                raise DegenerateWeightsError(
                    f"weight mass {sum_w:.6g} does not exceed K={k}"
                )
            sq = np.sqrt(weights)
            beta_new, gram_inv = lstsq_qr(sq[:, np.newaxis] * x, sq * y)
            resid = y - x @ beta_new
            wrss = float(weights @ (resid * resid))
            sigma2_nu = wrss / (sum_w - k * sum_w / n)
            step = float(np.max(np.abs(beta_new - beta)))
            scale = max(1.0, float(np.max(np.abs(beta))))
            beta = beta_new
            if step / scale < config.tolerance:
                converged = True
                break
    else:
        # The within fit is exact; there is nothing to reweight.
        converged = True

    sum_w = float(weights.sum())
    wrss = float(weights @ (resid * resid))
    # Weighted variance with the demeaning constraints in the correction,
    # so unit weights reduce to rss / (N(T-1) - K) exactly.
    return _fit_result(
        WEIGHTED_FIXED_EFFECTS,
        n_units,
        (y, x, beta, gram_inv, resid),
        sigma2_eps=wrss / (sum_w * (n - n_units - k) / n),
        converged=converged,
        iterations=iterations,
        weights=weights.reshape(n_units, t),
    )
