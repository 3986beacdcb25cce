"""Weighted-likelihood fixed-effects estimation.

The within residuals are compared, through Pearson residuals, against
the normal model they should follow when the specification is correct:
a kernel density estimate of the residuals is set against the model
density smoothed with the same kernel, so that on clean data the two
agree in expectation and every observation keeps weight near one.
Observations the model cannot explain get large Pearson residuals and,
through the residual adjustment function, weights near zero. The
estimator is the fixed point of weighted least squares on the demeaned
data, reached by an accelerated iteration that stops on a bound on its
distance to that point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ._linalg import lstsq_qr
from .data import PanelDataset
from .estimators import (
    WEIGHTED_FIXED_EFFECTS,
    EstimateResult,
    _fit_result,
    _sum_of_squares,
    _within_solve,
)
from .exceptions import (
    ConfigurationError,
    DegenerateWeightsError,
    DeltaOutOfRangeError,
    EmptySampleError,
    NonpositiveBandwidthError,
    NonpositiveScaleError,
    PanelSpecError,
    require_count,
)

__all__ = [
    "HELLINGER",
    "WleConfig",
    "kernel_density_at",
    "smoothed_model_density",
    "pearson_residuals",
    "raf_hellinger",
    "weight_function",
    "fit_weighted_fixed_effects",
]

HELLINGER = "hellinger"

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Cap on the scratch matrix for kernel evaluation; larger jobs are chunked
# over evaluation points, which leaves every per-point sum unchanged.
_CHUNK_CELLS = 4_000_000

# Fast Gauss transform (Greengard & Strain 1991) with source-to-target
# translation, in kernel units z = x / h. Values fall in boxes of width one;
# box b is centred at c_b = b + 1/2, and s = z - c_b is a value's offset from
# its box centre. A target at offset u in box j lies D + u - s from a source
# in box b, with D = j - b an exact integer, and the Taylor expansion of
# g(x) = exp(-x^2 / 2) about D,
#     g(D + u - s) ~= sum_{k+l<P} g^(k+l)(D) u^k (-s)^l / (k! l!),
# separates the two offsets. So each source box keeps the moments
#     M_bl = sum_{i in b} s_i^l,   l < P,
# each target box j gets one local expansion of P terms,
#     L_jk = sum_D sum_l T_D[l, k] M_{j-D, l},
#     T_D[l, k] = g^(k+l)(D) (-1)^l / (k! l!)   (zero for k + l >= P),
# and a target costs P terms: sum_k L_jk u^k. Here g^(n)(D) =
# (-1)^n He_n(D) exp(-D^2 / 2), and D runs over the 2R + 1 integers in
# [-R, R], so the T_D are one table built at import. Error: floor(z) may
# round across a box edge, so |s| and |u| are at most 1/2 + 2^-8 below
# _FGT_MAX_REACH and |u - s| <= 1 + 2^-7. Cramer's inequality,
# |He_n(x)| exp(-x^2 / 4) <= 1.0865 sqrt(n!), bounds the Taylor remainder
# g^(P)(xi) (u - s)^P / P! per source, in units of the kernel's peak, by
# 1.0865 (1 + 2^-7)^P / sqrt(P!) = 2.4e-21 for P = 36; a source beyond the
# reach lies more than R - 2^-7 away and adds at most
# exp(-(R - 2^-7)^2 / 2) = 2.1e-22 for R = 10. The absolute error is thus
# below n * 2.4e-21 peaks. At a sample point the dense sum is at least one
# peak (the point's own term), so there the error is below 1e-13 relative
# for n up to 3e7; rounding adds the few ulps per term that the dense sum
# also carries. The offsets must be as accurate as the dense sum's
# differences (y - x) / h: a box centre rounded to fl(c_b h) would leave an
# error of order |z| ulps that D, being exact, does not cancel, so each
# centre is carried as an exact sum hi + lo (a Dekker product per box).
_FGT_ORDER = 36
_FGT_RADIUS = 10
_FGT_OFFSETS = np.arange(-_FGT_RADIUS, _FGT_RADIUS + 1, dtype=float)
# Beyond 2^44 bandwidths from zero, box keys lose the precision the bound
# above assumes; such samples take the dense path.
_FGT_MAX_REACH = 2.0**44
# Size (sample x points) from which the FGT runs. Timed with points =
# sample, h = 0.5, one BLAS thread, on a 2-core x86-64 host, alternating the
# two paths, on a standard normal sample and on one with 5% outliers at
# 10-35: from n = 200 the FGT was never slower than the dense loop by more
# than the repeat-to-repeat spread, and 2.4-2.9x faster on the normal
# sample; at n = 175 it lost on the sample with outliers, and at n = 100-150
# the dense loop is 1.4-2.8x faster.
_FGT_MIN_CELLS = 200 * 200
# Targets per evaluation block: keeps each (P x targets) scratch array near
# 300 kB, in cache.
_FGT_BLOCK = 1024
# Target boxes per translation product: each (boxes x P) by (P x P) product
# then stays below OpenBLAS's threading threshold (m n k <= 65536 * 4), so
# that the result does not depend on the number of BLAS threads.
_FGT_BOX_BLOCK = 128


def _fgt_translations() -> np.ndarray:
    """The translation table ``T[D + R, l, k]`` of the comment above."""
    order, radius = _FGT_ORDER, _FGT_RADIUS
    # derivs[D + R, n] = g^(n)(D) = (-1)^n He_n(D) exp(-D^2 / 2); He_n(D) is
    # an integer for integer D, so the recurrence runs exactly.
    derivs = np.empty((2 * radius + 1, order))
    for row, d in enumerate(range(-radius, radius + 1)):
        he_prev, he = 0, 1
        for n in range(order):
            derivs[row, n] = (-1) ** n * he
            he_prev, he = he, d * he - n * he_prev
    derivs *= np.exp(-0.5 * _FGT_OFFSETS**2)[:, np.newaxis]
    inv_fact = np.array([1 / math.factorial(j) for j in range(order)])
    table = np.zeros((2 * radius + 1, order, order))
    for l in range(order):
        table[:, l, : order - l] = (
            derivs[:, l:] * ((-1) ** l * inv_fact[l]) * inv_fact[: order - l]
        )
    return table


_FGT_TRANSLATIONS = _fgt_translations()


@dataclass(frozen=True)
class WleConfig:
    """Tuning constants for the weighted fit.

    Attributes
    ----------
    kappa : float
        Bandwidth fraction: the kernel bandwidth is ``kappa`` times the
        current residual scale. Must be positive.
    max_iterations : int
        Cap on evaluations of the fixed-point map, each one kernel
        density pass and one weighted solve.
    tolerance : float
        Bound on the relative distance of the state ``(beta,
        sigma2_nu)`` to the fixed point, ``beta`` in sup-norm over
        ``max(1, |beta|_inf)``, below which the fit counts as converged.
    raf : str
        Residual adjustment function; ``HELLINGER``, the only one.
    """

    kappa: float = 0.5
    max_iterations: int = 50
    tolerance: float = 1e-6
    raf: str = HELLINGER

    def __post_init__(self) -> None:
        if not (self.kappa > 0.0 and math.isfinite(self.kappa)):
            raise ConfigurationError(
                f"kappa must be positive, got {self.kappa}"
            )
        require_count("max_iterations", self.max_iterations, 1)
        if not (self.tolerance > 0.0 and math.isfinite(self.tolerance)):
            raise ConfigurationError(
                f"tolerance must be positive and finite, got {self.tolerance}"
            )
        # perfbench still passes raf; the field goes when it stops.
        if self.raf != HELLINGER:
            raise ConfigurationError(f"unknown raf {self.raf!r}")


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
    use a fast Gauss transform (Greengard & Strain 1991) in time linear
    in n + m: source moments of P = 36 terms per box of one bandwidth,
    translated to one local expansion per target box from the boxes
    within 10 bandwidths. Its absolute error is below ``n * 2.4e-21``
    kernel peaks, which is 1e-13 relative to the direct sum at any
    sample point for n up to 3e7. Points more than 10 bandwidths from
    every sample value, where the density is below ``exp(-50)`` of a
    peak, get no such relative guarantee. Passing the same array as
    ``sample`` and ``points`` sorts and boxes it once; the result is the
    same as for a copy.
    """
    same = points is sample
    sample = np.asarray(sample, dtype=float).ravel()
    points = sample if same else np.asarray(points, dtype=float).ravel()
    if sample.size == 0:
        raise EmptySampleError("kernel density needs a nonempty sample")
    if not (bandwidth > 0.0 and math.isfinite(bandwidth)):
        raise NonpositiveBandwidthError(
            f"bandwidth must be positive, got {bandwidth}"
        )
    n = sample.size
    scale = 1.0 / (n * bandwidth * _SQRT_2PI)
    if n * points.size >= _FGT_MIN_CELLS:
        with np.errstate(over="ignore"):  # inf for a tiny bandwidth
            reach = max(np.abs(sample).max(), np.abs(points).max()) / bandwidth
        if reach < _FGT_MAX_REACH:  # False for NaN and inf as well
            return _fast_gauss_transform(sample, points, bandwidth) * scale
    out = np.empty(points.size)
    step = max(1, _CHUNK_CELLS // max(n, 1))
    # A tiny bandwidth overflows z * z to inf, and exp(-inf) = 0 is right.
    with np.errstate(over="ignore"):
        for start in range(0, points.size, step):
            block = points[start : start + step, np.newaxis]
            z = (block - sample[np.newaxis, :]) / bandwidth
            out[start : start + step] = np.exp(-0.5 * z * z).sum(axis=1) * scale
    return out


def _split(a):
    """Veltkamp's split ``a = hi + lo``, each part of at most 26 bits."""
    t = a * 134217729.0  # 2^27 + 1
    hi = t - (t - a)
    return hi, a - hi


def _fgt_boxes(values: np.ndarray, h: float) -> tuple:
    """Sort ``values`` into the transform's boxes of width ``h``.

    Returns ``(order, keys, starts, box, powers)``: the sorting
    permutation; the occupied boxes' keys ``floor(value / h)``, in
    increasing order; where each box starts in sorted order; the box of
    each sorted value; and ``powers[l, i] = s_i^l``, ``l < P``, for the
    offset ``s_i`` of the i-th sorted value from its box centre, in
    kernel units.
    """
    order = np.argsort(values)
    ordered = values[order]
    key = np.floor(ordered / h)
    first = np.empty(key.size, dtype=bool)
    first[0] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    box = np.cumsum(first) - 1
    keys = key[starts]
    # Dekker's exact product (keys + 1/2) * h = hi + lo, taken on the
    # mantissa of h so that the split cannot overflow.
    mantissa, exponent = math.frexp(h)
    centre = keys + 0.5
    hi = centre * mantissa
    c_hi, c_lo = _split(centre)
    m_hi, m_lo = _split(mantissa)
    lo = ((c_hi * m_hi - hi) + c_hi * m_lo + c_lo * m_hi) + c_lo * m_lo
    powers = np.empty((_FGT_ORDER, values.size))
    powers[0] = 1.0
    offset = powers[1]
    np.subtract(ordered, np.ldexp(hi, exponent)[box], out=offset)
    offset -= np.ldexp(lo, exponent)[box]
    offset /= h
    # Rows [done, 2 * done) are rows [0, done) times s^done.
    done = 2
    while done < _FGT_ORDER:
        width = min(done, _FGT_ORDER - done)
        np.multiply(
            powers[:width],
            powers[done - 1] * offset,
            out=powers[done : done + width],
        )
        done += width
    return order, keys, starts, box, powers


def _fast_gauss_transform(
    sample: np.ndarray, points: np.ndarray, bandwidth: float
) -> np.ndarray:
    """``sum_i exp(-((points - sample_i) / h)^2 / 2)`` by the translated FGT.

    Only occupied boxes are stored, so memory is O((n + m) P) however far
    apart the sample's clusters lie. When ``points is sample`` the sort,
    the boxes and the powers serve both sides. Inputs must be finite and
    within ``_FGT_MAX_REACH`` bandwidths of zero.
    """
    source = _fgt_boxes(sample, bandwidth)
    target = source if points is sample else _fgt_boxes(points, bandwidth)
    _, src_keys, src_starts, _, src_powers = source
    order, tgt_keys, _, tgt_box, tgt_powers = target
    # moments[b, l]; the extra zero row stands for every empty box.
    n_boxes = src_keys.size
    moments = np.zeros((n_boxes + 1, _FGT_ORDER))
    moments[:n_boxes] = np.add.reduceat(src_powers, src_starts, axis=1).T
    # lookup[j, d]: row of box tgt_keys[j] - _FGT_OFFSETS[d] in moments.
    near = tgt_keys[:, np.newaxis] - _FGT_OFFSETS
    lookup = np.minimum(np.searchsorted(src_keys, near), n_boxes - 1)
    lookup[src_keys[lookup] != near] = n_boxes

    # local[j]: the local expansion of target box j, one product per
    # offset D, summed over D in a fixed order; transposed for the gathers.
    local = np.empty((tgt_keys.size, _FGT_ORDER))
    for start in range(0, tgt_keys.size, _FGT_BOX_BLOCK):
        rows = lookup[start : start + _FGT_BOX_BLOCK].T
        local[start : start + _FGT_BOX_BLOCK] = np.matmul(
            moments[rows], _FGT_TRANSLATIONS
        ).sum(axis=0)
    local = np.ascontiguousarray(local.T)

    out = np.empty(points.size)
    for start in range(0, points.size, _FGT_BLOCK):
        block = slice(start, start + _FGT_BLOCK)
        out[order[block]] = np.einsum(
            "kj,kj->j", local[:, tgt_box[block]], tgt_powers[:, block]
        )
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
    if np.any(np.isnan(arr) | (arr <= -1.0)):
        raise DeltaOutOfRangeError(
            "Pearson residuals must exceed -1"
        )
    out = 2.0 * (np.sqrt(arr + 1.0) - 1.0)
    if np.isscalar(delta):
        return float(out)
    return out


def weight_function(
    delta: Union[float, np.ndarray]
) -> Union[float, np.ndarray]:
    """Map Pearson residuals to weights in [0, 1].

    ``w = min(1, [A(delta) + 1]^+ / (delta + 1))`` with the Hellinger
    adjustment ``A``: weight 1 at perfect concordance (delta = 0), near 0
    for strongly surprising observations in either direction, and 0 for
    a non-finite ``delta`` (infinite surprise).
    """
    arr = np.asarray(delta, dtype=float)
    finite = np.isfinite(arr)
    safe = np.where(finite, arr, 0.0)
    adjusted = np.maximum(0.0, raf_hellinger(safe) + 1.0)
    w = np.where(finite, np.minimum(1.0, adjusted / (safe + 1.0)), 0.0)
    if np.isscalar(delta):
        return float(w)
    return w


def _reweight(
    y: np.ndarray,
    x: np.ndarray,
    beta: np.ndarray,
    sigma2_nu: float,
    config: WleConfig,
) -> tuple:
    """One evaluation of the map ``(beta, sigma2_nu) -> (beta', sigma2_nu')``.

    Weights the residuals ``y - x beta`` at scale ``sqrt(sigma2_nu)``,
    solves weighted least squares and updates the scale. Returns
    ``(beta', sigma2_nu', weights, gram_inv, resid)``, where ``weights``
    are the ones the solve used and ``resid = y - x beta'``, so that
    ``x' W resid = 0``.
    """
    n, k = x.shape
    delta = pearson_residuals(y - x @ beta, math.sqrt(sigma2_nu), config)
    weights = weight_function(delta)
    sum_w = float(weights.sum())
    if sum_w <= k:
        raise DegenerateWeightsError(
            f"weight mass {sum_w:.6g} does not exceed K={k}"
        )
    sq = np.sqrt(weights)
    beta, gram_inv = lstsq_qr(sq[:, np.newaxis] * x, sq * y)
    resid = y - x @ beta
    wrss = float(weights @ (resid * resid))
    return beta, wrss / (sum_w - k * sum_w / n), weights, gram_inv, resid


def _extrapolate(cycle: list) -> Optional[tuple]:
    """SQUAREM's S3 step (Varadhan & Roland 2008) from ``p, F(p), F(F(p))``.

    On the state ``(beta, sigma2_nu)``, with ``r = F(p) - p`` and
    ``v = F(F(p)) - 2 F(p) + p``, the step length ``alpha = -|r| / |v|``,
    clamped to at most -1, gives ``p - 2 alpha r + alpha^2 v``. Returns
    None where that is ``F(F(p))`` itself (``alpha = -1``) or no usable
    state: a value not finite, or ``sigma2_nu <= 0``.
    """
    p0, p1, p2 = (np.append(state[0], state[1]) for state in cycle)
    with np.errstate(over="ignore", invalid="ignore"):
        r = p1 - p0
        v = p2 - p1 - r
        norm_r, norm_v = float(np.linalg.norm(r)), float(np.linalg.norm(v))
        if not norm_r > norm_v > 0.0:
            return None
        alpha = -norm_r / norm_v
        point = p0 - 2.0 * alpha * r + alpha * alpha * v
    if not (np.isfinite(point).all() and point[-1] > 0.0):
        return None
    return point[:-1], float(point[-1])


def fit_weighted_fixed_effects(
    dataset: PanelDataset, config: Optional[WleConfig] = None
) -> EstimateResult:
    """Weighted-likelihood estimator on the within-transformed panel.

    The estimate is the fixed point of a map on ``(beta, sigma2_nu)``:
    weight the current demeaned residuals through their Pearson
    residuals, solve weighted least squares, and update the residual
    scale. Starting from the within fit, the map is iterated with
    SQUAREM (Varadhan & Roland 2008, scheme S3): after every two plain
    evaluations the state is extrapolated along their steps, and one
    plain evaluation follows. An extrapolated state that is unusable
    (a value not finite, or ``sigma2_nu <= 0``), or whose evaluation
    raises a package error, is replaced by the last plain state.

    After each evaluation the relative distance of its result ``F(p)``
    to the fixed point, ``beta`` in sup-norm over ``max(1, |beta|_inf)``
    and ``sigma2_nu`` over itself, is bounded by
    ``rho * step / (1 - rho)``, the a-posteriori bound of a contraction
    with rate ``rho``. Here ``step`` is the change from ``p`` to
    ``F(p)`` in the same units, and ``rho`` estimates the rate
    conservatively: the largest ratio of two consecutive plain steps
    since the steps last grew. The bound is infinite while the latest
    ratio is 1 or more, and zero after a zero step. The first
    evaluation has no ratio yet; its bound is the relative change of
    ``beta`` alone, the plain iteration's rule, so a fit that starts at
    its fixed point stops after one evaluation. The fit stops once the
    bound is below ``config.tolerance``, or after
    ``config.max_iterations`` map evaluations, in which case the result
    carries ``converged=False`` (not an error). The result reports the
    evaluations as ``iterations`` and the last bound as
    ``distance_bound``. Its coefficients, weights and residuals are
    those of the last evaluation, so ``X' W r = 0`` holds on the
    demeaned data.

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
    y, x, beta, gram_inv, resid = _within_solve(dataset)
    n = y.size
    # Initial scale: the unit-weight case of the update formula.
    sigma2_nu = _sum_of_squares(resid) / (n - k)
    fit = (beta, sigma2_nu, np.ones(n), gram_inv, resid)
    # An exact within fit is its own fixed point: nothing to reweight.
    bound = 0.0 if sigma2_nu <= 0.0 else math.inf
    # rate: the largest ratio of consecutive plain steps since the steps
    # last grew; infinite while the latest ratio is >= 1.
    rate, step, iterations = math.inf, None, 0
    # point: the state evaluated next; fit: the last evaluation, produced
    # by a change of ``step``; cycle: the plain states since the last
    # extrapolation.
    point, cycle = fit, [fit]
    while bound >= config.tolerance and iterations < config.max_iterations:
        if len(cycle) == 3:
            point = _extrapolate(cycle) or fit
            cycle = []
        iterations += 1
        try:
            out = _reweight(y, x, point[0], point[1], config)
        except PanelSpecError:
            if point is fit:
                raise
            point = fit
            continue
        scale = max(1.0, float(np.max(np.abs(point[0]))))
        beta_step = float(np.max(np.abs(out[0] - point[0]))) / scale
        new_step = max(beta_step, abs(out[1] - point[1]) / point[1])
        if step is None:
            # No rate yet: the plain iteration's rule on beta's step.
            bound = beta_step
        else:
            if point is fit:
                ratio = new_step / step
                rate = ratio if rate >= 1.0 else max(rate, ratio)
            if new_step == 0.0:
                bound = 0.0
            elif rate < 1.0:
                bound = rate * new_step / (1.0 - rate)
            else:
                bound = math.inf
        fit, step, point = out, new_step, out
        cycle.append(out)

    beta, _, weights, gram_inv, resid = fit
    sum_w = float(weights.sum())
    wrss = float(weights @ (resid * resid))
    # Weighted variance with the demeaning constraints in the correction,
    # so unit weights reduce to rss / (N(T-1) - K) exactly.
    return _fit_result(
        WEIGHTED_FIXED_EFFECTS,
        n_units,
        (y, x, beta, gram_inv, resid),
        sigma2_eps=wrss / (sum_w * (n - n_units - k) / n),
        converged=bound < config.tolerance,
        iterations=iterations,
        distance_bound=bound,
        weights=weights.reshape(n_units, t),
    )
