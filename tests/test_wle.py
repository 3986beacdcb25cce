"""Kernel densities, Pearson residuals, weights, and the weighted fit."""

import inspect
import math
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.integrate import quad
from scipy.special import ndtri

from panelspec import (
    PanelDataset,
    WleConfig,
    fit_fixed_effects,
    fit_weighted_fixed_effects,
    kernel_density_at,
    pearson_residuals,
    raf_hellinger,
    smoothed_model_density,
    weight_function,
)
from panelspec import wle
from panelspec.estimators import _within_solve
from panelspec.mcstudy import (
    CONCENTRATED_VERTICAL,
    ContaminationConfig,
    DgpConfig,
    RANDOM_VERTICAL,
    apply_contamination,
    generate,
    substream,
)
from panelspec.exceptions import (
    ConfigurationError,
    DegenerateWeightsError,
    DeltaOutOfRangeError,
    EmptySampleError,
    NonpositiveBandwidthError,
    NonpositiveScaleError,
    ZeroTotalVariationError,
)

from helpers import PANEL_SHAPES, PROPERTY_SETTINGS, make_panel, run_fresh

PHI0 = 1.0 / math.sqrt(2.0 * math.pi)


def _phi(z):
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def test_kernel_density_single_point():
    out = kernel_density_at(np.array([0.0]), np.array([0.0]), 1.0)
    assert out[0] == pytest.approx(PHI0, abs=1e-12)
    assert out[0] == pytest.approx(0.39894228, abs=1e-8)


def test_kernel_density_two_points():
    out = kernel_density_at(np.array([-1.0, 1.0]), np.array([0.0]), 1.0)
    assert out[0] == pytest.approx(0.24197072, abs=1e-8)


def test_kernel_density_matches_double_loop():
    rng = np.random.default_rng(20)
    sample = rng.normal(size=40)
    points = rng.normal(size=7) * 2.0
    h = 0.37
    got = kernel_density_at(sample, points, h)
    for j, e in enumerate(points):
        expected = sum(_phi((e - r) / h) / h for r in sample) / sample.size
        assert got[j] == pytest.approx(expected, abs=1e-12)


def test_kernel_density_chunking_consistency():
    # Force several chunks through a large evaluation grid and check a
    # spot value against the unchunked formula.
    rng = np.random.default_rng(21)
    sample = rng.normal(size=3000)
    points = np.linspace(-3, 3, 2500)
    got = kernel_density_at(sample, points, 0.5)
    z = (points[1234] - sample) / 0.5
    direct = float(np.exp(-0.5 * z * z).sum() / (sample.size * 0.5 * math.sqrt(2 * math.pi)))
    assert got[1234] == pytest.approx(direct, rel=1e-13)
    assert np.all(got > 0.0)


def _dense_density(sample, points, h):
    z = (points[:, np.newaxis] - sample[np.newaxis, :]) / h
    return np.exp(-0.5 * z * z).sum(axis=1) / (sample.size * h * math.sqrt(2 * math.pi))


def _direct_path(monkeypatch):
    """Make ``kernel_density_at`` take its dense loop at every size."""
    monkeypatch.setattr(wle, "_FGT_MIN_CELLS", math.inf)


@PROPERTY_SETTINGS
@given(
    n=st.integers(min_value=20, max_value=700),
    log10_h=st.floats(min_value=-3.0, max_value=1.0),
    far=st.lists(st.floats(min_value=1.0, max_value=6.0), max_size=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(n=60, log10_h=-0.3, far=[], seed=1)
@example(n=700, log10_h=-0.3, far=[], seed=2)
@example(n=700, log10_h=-3.0, far=[6.0, 1.0], seed=3)
def test_kernel_density_matches_dense_sum(n, log10_h, far, seed):
    # Points are the sample and a copy jittered by up to one bandwidth,
    # so 2 n^2 cells cross the FGT cutoff (200^2) near n = 142. Far
    # outliers sit 10^far bandwidths beyond the bulk, on either side.
    rng = np.random.default_rng(seed)
    h = 10.0**log10_h
    sample = rng.standard_normal(n)
    edge = np.abs(sample).max()
    signs = rng.choice([-1.0, 1.0], size=len(far))
    sample[: len(far)] = signs * (edge + h * 10.0 ** np.asarray(far))
    points = np.concatenate([sample, sample + rng.uniform(-h, h, n)])
    got = kernel_density_at(sample, points, h)
    np.testing.assert_allclose(got, _dense_density(sample, points, h), rtol=1e-13)


def test_kernel_density_far_outlier_stores_occupied_boxes(monkeypatch):
    rng = np.random.default_rng(22)
    sample = np.append(rng.standard_normal(3000), 1e12)
    calls = []
    fgt = wle._fast_gauss_transform

    def spy(*args):
        calls.append(args)
        return fgt(*args)

    monkeypatch.setattr(wle, "_fast_gauss_transform", spy)
    tracemalloc.start()
    try:
        got = kernel_density_at(sample, sample, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(calls) == 1
    # A box array spanning the gap would need 1e12 cells.
    assert peak < 20e6
    _direct_path(monkeypatch)
    dense = kernel_density_at(sample, sample, 1.0)
    np.testing.assert_allclose(got, dense, rtol=1e-13)
    assert got[-1] == pytest.approx(1.0 / (3001 * math.sqrt(2 * math.pi)), rel=1e-15)


def test_kernel_density_unboxable_inputs_take_dense_path(monkeypatch):
    # Non-finite values, and values so many bandwidths from zero that box
    # keys lose precision (1e16 here), give exactly the dense result.
    rng = np.random.default_rng(23)
    sample = rng.standard_normal(400)
    points = sample.copy()
    points[7] = np.inf
    with_nan = sample.copy()
    with_nan[3] = np.nan
    distant = 1e6 + 1e-9 * sample
    probe = (np.array([0.0, np.nan]), np.array([0.0, np.inf]), 0.5)
    cases = [
        (sample, points, 0.5),
        (with_nan, sample, 0.5),
        (distant, distant, 1e-10),
        probe,
    ]
    got = [kernel_density_at(*case) for case in cases]
    monkeypatch.setattr(wle, "_FGT_MIN_CELLS", 0)
    forced = kernel_density_at(*probe)
    _direct_path(monkeypatch)
    for out, case in zip(got, cases):
        assert np.array_equal(out, kernel_density_at(*case), equal_nan=True)
    assert got[0][7] == 0.0 and np.all(np.isnan(got[1]))
    assert np.all(np.isnan(got[3])) and np.all(np.isnan(forced))


def _many_boxes(n, seed):
    """5% outliers at 10-35 on either side of a standard normal bulk, so
    that at h = 0.5 the sample fills dozens of boxes."""
    rng = np.random.default_rng(seed)
    r = rng.standard_normal(n)
    k = n // 20
    r[:k] = rng.uniform(10.0, 35.0, k) * rng.choice([-1.0, 1.0], k)
    return r


@pytest.mark.parametrize("n, fgt_side", [(100, False), (2000, True)])
def test_kernel_density_same_array_reuse_changes_no_bit(n, fgt_side):
    # One array passed as both sample and points is sorted and boxed
    # once; the result must equal the one for a copy, bit for bit.
    assert (n * n >= wle._FGT_MIN_CELLS) == fgt_side
    r = _many_boxes(n, seed=24)
    got = kernel_density_at(r, r, 0.5)
    assert np.array_equal(got, kernel_density_at(r, r.copy(), 0.5))


def test_kernel_density_independent_of_blas_threads():
    code = "\n".join([
        "import numpy as np",
        "from panelspec.wle import kernel_density_at",
        inspect.getsource(_many_boxes),
        "r = _many_boxes(2000, seed=25)",
        "print(kernel_density_at(r, r, 0.5).tobytes().hex())",
    ])
    outputs = [run_fresh(code, env={"OPENBLAS_NUM_THREADS": threads})
               for threads in ("1", "2")]
    assert len(outputs[0]) > 1000 and outputs[0] == outputs[1]


def test_kernel_density_errors():
    with pytest.raises(EmptySampleError):
        kernel_density_at(np.array([]), np.array([0.0]), 1.0)
    for h in (0.0, -1.0, np.nan):
        with pytest.raises(NonpositiveBandwidthError):
            kernel_density_at(np.array([1.0]), np.array([0.0]), h)


def test_smoothed_model_density_no_smoothing_limit():
    out = smoothed_model_density(np.array([0.0]), 1.0, 0.0)
    assert out[0] == pytest.approx(0.39894228, abs=1e-8)


def test_smoothed_model_density_convolution_value():
    out = smoothed_model_density(np.array([0.0]), 1.0, 1.0)
    assert out[0] == pytest.approx(0.28209479, abs=1e-8)
    assert out[0] == pytest.approx(1.0 / math.sqrt(4.0 * math.pi), abs=1e-12)


def test_smoothed_model_density_matches_quadrature():
    sigma, h = 0.8, 0.4
    grid = np.array([-2.5, -1.0, -0.3, 0.0, 0.7, 1.9, 3.2])
    got = smoothed_model_density(grid, sigma, h)
    for j, e in enumerate(grid):
        val, err = quad(
            lambda s: _phi((e - s) / h) / h * _phi(s / sigma) / sigma,
            -np.inf, np.inf, epsabs=1e-12, epsrel=1e-12,
        )
        assert err < 1e-10
        assert got[j] == pytest.approx(val, abs=1e-8)


def test_smoothed_model_density_errors():
    with pytest.raises(NonpositiveScaleError):
        smoothed_model_density(np.array([0.0]), 0.0, 0.5)
    with pytest.raises(NonpositiveBandwidthError):
        smoothed_model_density(np.array([0.0]), 1.0, -0.5)


def test_pearson_residuals_model_quantile_concordance():
    n = 10000
    residuals = ndtri((np.arange(1, n + 1) - 0.5) / n)
    delta = pearson_residuals(residuals, 1.0, WleConfig(kappa=0.5))
    assert np.max(np.abs(delta)) < 0.2
    assert np.all(delta > -1.0)


def test_pearson_residuals_far_outlier():
    rng = np.random.default_rng(22)
    residuals = np.append(rng.normal(size=500), 20.0)
    delta = pearson_residuals(residuals, 1.0, WleConfig(kappa=0.5))
    assert delta[-1] > 1e3


@pytest.mark.parametrize("far", [42.4, 44.0])
def test_pearson_residuals_beyond_the_model_density(far):
    # At 42.4 scales m* is subnormal and the ratio overflows; at 44 m*
    # underflows to zero. Both are infinite surprise, without a warning.
    rng = np.random.default_rng(22)
    residuals = np.append(rng.normal(size=500), far)
    delta = pearson_residuals(residuals, 1.0, WleConfig(kappa=0.5))
    assert delta[-1] == np.inf


def test_pearson_residuals_degenerate_sample():
    with pytest.raises(EmptySampleError):
        pearson_residuals(np.array([1.0]), 1.0)
    with pytest.raises(EmptySampleError):
        pearson_residuals(np.array([]), 1.0)


def test_raf_hellinger_values():
    assert raf_hellinger(0.0) == 0.0
    assert raf_hellinger(3.0) == 2.0
    assert raf_hellinger(-0.99) == pytest.approx(-1.8, abs=1e-12)
    with pytest.raises(DeltaOutOfRangeError):
        raf_hellinger(-1.0)
    with pytest.raises(DeltaOutOfRangeError):
        raf_hellinger(np.array([0.0, -1.5]))


def test_raf_hellinger_rejects_minus_infinity():
    # -inf is <= -1 like any other delta out of range, not a nan result.
    with pytest.raises(DeltaOutOfRangeError):
        raf_hellinger(-np.inf)
    with pytest.raises(DeltaOutOfRangeError):
        raf_hellinger(np.array([0.0, np.inf, -np.inf]))


def test_weight_function_values():
    assert weight_function(0.0) == 1.0
    assert weight_function(3.0) == 0.75
    assert weight_function(-0.99) == 0.0
    with pytest.raises(DeltaOutOfRangeError):
        weight_function(-1.0)


def test_weight_function_range_and_shape():
    delta = np.concatenate([
        np.linspace(-0.999, 5.0, 301), np.array([1e3, 1e6, np.inf]),
    ])
    w = weight_function(delta)
    assert np.all((w >= 0.0) & (w <= 1.0))
    assert w[-1] == 0.0
    # Weight 1 at perfect concordance, nearly 1 close to it.
    assert weight_function(1e-8) == pytest.approx(1.0, abs=1e-12)
    assert weight_function(0.01) > 0.99
    assert weight_function(-0.01) > 0.99


def test_weight_function_continuity():
    # Steepest stretch is the clamp onset near delta = -0.75 (slope 8),
    # so the grid step bounds the allowed jump.
    grid = np.linspace(-0.99, 10.0, 16001)
    w = np.asarray(weight_function(grid))
    assert np.max(np.abs(np.diff(w))) < 0.01


def test_monotone_response_to_growing_outlier():
    rng = np.random.default_rng(11)
    base = rng.normal(size=400)
    weights = []
    for c in (3.0, 5.0, 10.0, 20.0):
        delta = pearson_residuals(np.append(base, c), 1.0)
        w = weight_function(delta)
        assert np.all(delta > -1.0)
        assert np.all((w >= 0.0) & (w <= 1.0))
        weights.append(float(w[-1]))
    assert all(a >= b for a, b in zip(weights, weights[1:]))
    assert weights[-1] < 1e-6


def test_wle_config_validation():
    with pytest.raises(NonpositiveBandwidthError):
        WleConfig(kappa=0.0)
    with pytest.raises(ValueError):
        WleConfig(max_iterations=0)
    with pytest.raises(ConfigurationError):
        WleConfig(max_iterations=2.5)
    with pytest.raises(ConfigurationError):
        WleConfig(max_iterations=True)
    for tolerance in (0.0, math.inf, math.nan):
        with pytest.raises(ConfigurationError):
            WleConfig(tolerance=tolerance)
    for raf in ("bogus", "identity"):
        with pytest.raises(ConfigurationError):
            WleConfig(raf=raf)


def test_weighted_fit_clean_data_near_within():
    ds = make_panel(200, 4, 2, seed=24, beta=(1.0, -1.5))
    fe = fit_fixed_effects(ds)
    wfe = fit_weighted_fixed_effects(ds)
    assert wfe.converged
    assert np.max(np.abs(wfe.beta - fe.beta)) < 0.05
    assert float(wfe.weights.min()) > 0.5
    assert wfe.weights.shape == (200, 4)


@PROPERTY_SETTINGS
@given(**PANEL_SHAPES)
@example(n=50, t=4, k=2, seed=25)
def test_weighted_fit_identity_equals_within(n, t, k, seed):
    # Unit weights leave the within coefficients and residuals where they
    # are, bit for bit, so the first evaluation finds a zero step. A
    # module-global seam: hypothesis does not mix with monkeypatch.
    ds = make_panel(n, t, k, seed=seed)
    fe = fit_fixed_effects(ds)
    with patch.object(wle, "weight_function", np.ones_like):
        wfe = fit_weighted_fixed_effects(ds)
    np.testing.assert_array_equal(wfe.beta, fe.beta)
    np.testing.assert_array_equal(wfe.residuals, fe.residuals)
    assert np.all(wfe.weights == 1.0)
    assert wfe.sigma2_eps == pytest.approx(fe.sigma2_eps, rel=1e-14)
    assert np.allclose(wfe.cov_beta, fe.cov_beta, rtol=1e-12)
    assert (wfe.iterations, wfe.distance_bound, wfe.converged) == (1, 0.0, True)


def test_weighted_fit_downweights_outliers_and_dominates():
    # Null DGP with 5 percent of responses replaced by large uniforms.
    beta = np.array([1.0, -1.5])
    dgp = DgpConfig(n_units=100, n_periods=3, seed=26)
    cc = ContaminationConfig(scheme=RANDOM_VERTICAL, n_outliers=15)

    # One replication in detail: every replaced cell gets weight < 0.1.
    rng = substream(dgp.seed, 0)
    clean = generate(dgp, rng)
    dirty = apply_contamination(clean, cc, rng)
    mask = dirty.y != clean.y
    assert int(mask.sum()) == 15
    wfe = fit_weighted_fixed_effects(dirty)
    assert float(wfe.weights[mask].max()) < 0.1

    # Across replications the weighted fit beats the within fit for the
    # slopes at least 80 percent of the time.
    wins = 0
    reps = 200
    for r in range(reps):
        rng = substream(dgp.seed, r)
        ds = apply_contamination(generate(dgp, rng), cc, rng)
        fe_err = np.max(np.abs(fit_fixed_effects(ds).beta - beta))
        wfe_err = np.max(np.abs(fit_weighted_fixed_effects(ds).beta - beta))
        wins += wfe_err < fe_err
    assert wins >= 0.8 * reps


@PROPERTY_SETTINGS
@given(**PANEL_SHAPES)
@example(n=30, t=4, k=2, seed=27)
def test_weighted_fit_unit_permutation_invariance(n, t, k, seed):
    ds = make_panel(n, t, k, seed=seed)
    perm = np.random.default_rng(seed + 1).permutation(n)
    permuted = PanelDataset(
        tuple(ds.unit_ids[i] for i in perm),
        ds.time_ids, ds.y[perm], ds.x[perm],
    )
    a = fit_weighted_fixed_effects(ds)
    b = fit_weighted_fixed_effects(permuted)
    assert np.allclose(a.beta, b.beta, atol=1e-12)


def test_weighted_fit_scale_consistency():
    # On clean data the weighted residual scale stays within 10 percent
    # of the within estimate (median over replications).
    ratios = []
    for r in range(100):
        ds = make_panel(200, 4, 2, seed=2900 + r, beta=(1.0, -1.5))
        fe = fit_fixed_effects(ds)
        wfe = fit_weighted_fixed_effects(ds)
        ratios.append(math.sqrt(wfe.sigma2_eps / fe.sigma2_eps))
    med = float(np.median(ratios))
    assert 0.9 <= med <= 1.1


def test_weighted_fit_large_panel_matches_dense_kernel(monkeypatch):
    ds = make_panel(2000, 4, 2, seed=40)
    y = ds.y.copy()
    y[:20, 1] += 15.0  # a few outliers, so the fit takes several steps
    ds = PanelDataset(ds.unit_ids, ds.time_ids, y, ds.x)
    fast = fit_weighted_fixed_effects(ds)
    _direct_path(monkeypatch)
    dense = fit_weighted_fixed_effects(ds)
    assert fast.iterations == dense.iterations > 1
    assert fast.converged and dense.converged
    np.testing.assert_allclose(fast.beta, dense.beta, rtol=1e-12)
    np.testing.assert_allclose(fast.weights, dense.weights, rtol=1e-12, atol=1e-15)


def test_weighted_fit_non_convergence_reported():
    dgp = DgpConfig(n_units=100, n_periods=3, seed=30)
    cc = ContaminationConfig(scheme=RANDOM_VERTICAL, n_outliers=15)
    rng = substream(dgp.seed, 0)
    ds = apply_contamination(generate(dgp, rng), cc, rng)
    res = fit_weighted_fixed_effects(ds, WleConfig(max_iterations=1))
    assert not res.converged
    assert res.iterations == 1


def test_weighted_fit_on_exact_data():
    rng = np.random.default_rng(32)
    x = rng.normal(size=(10, 4, 2))
    y = x @ np.array([1.0, -1.5]) + rng.normal(size=10)[:, np.newaxis]
    ds = PanelDataset(tuple(f"u{i}" for i in range(10)),
                      (1, 2, 3, 4), y, x)
    res = fit_weighted_fixed_effects(ds)
    assert res.converged
    assert res.iterations <= 1
    assert np.allclose(res.beta, [1.0, -1.5], atol=1e-10)
    assert res.rss < 1e-20
    assert res.r_squared == pytest.approx(1.0, abs=1e-12)


def test_weighted_fit_zero_variation():
    rng = np.random.default_rng(33)
    y = np.outer(np.arange(5.0), np.ones(3))
    ds = PanelDataset(tuple("abcde"), (1, 2, 3), y, rng.normal(size=(5, 3, 2)))
    with pytest.raises(ZeroTotalVariationError):
        fit_weighted_fixed_effects(ds)


# --- the fixed point ---------------------------------------------------------

def _contaminated(scheme, m, r, seed=7):
    """Replication ``r`` of the 100 x 3 null design with ``m`` outliers."""
    dgp = DgpConfig(n_units=100, n_periods=3, seed=seed)
    rng = substream(seed, r)
    return apply_contamination(
        generate(dgp, rng), ContaminationConfig(scheme=scheme, n_outliers=m),
        rng)


def _plain_fixed_point(ds, tolerance=1e-13, max_iterations=5000):
    """The unaccelerated loop: apply the map until beta moves by less than
    ``tolerance`` relative to ``max(1, |beta|_inf)``."""
    y, x, beta, _, resid = _within_solve(ds)
    n, k = x.shape
    sigma2_nu = float(resid @ resid) / (n - k)
    for _ in range(max_iterations):
        new, sigma2_nu = wle._reweight(y, x, beta, sigma2_nu, WleConfig())[:2]
        step = np.max(np.abs(new - beta)) / max(1.0, np.max(np.abs(beta)))
        beta = new
        if step < tolerance:
            return beta
    raise AssertionError("the plain reference loop did not converge")


def _assert_at_fixed_point(ds, config=WleConfig()):
    fit = fit_weighted_fixed_effects(ds, config)
    assert fit.converged and fit.iterations < config.max_iterations
    assert fit.distance_bound < config.tolerance
    reference = _plain_fixed_point(ds)
    scale = max(1.0, float(np.max(np.abs(reference))))
    distance = float(np.max(np.abs(fit.beta - reference)))
    assert distance <= config.tolerance * scale, distance
    return fit


_DESIGNS = [(scheme, m) for scheme in (RANDOM_VERTICAL, CONCENTRATED_VERTICAL)
            for m in (15, 30)]


@pytest.mark.parametrize("scheme, m", _DESIGNS)
def test_weighted_fit_lies_within_tolerance_of_its_fixed_point(scheme, m):
    # The paper's contaminated design (figure 4): each fit must be within
    # tolerance of a tight plain-loop fixed point, and none may hit the cap.
    for r in range(100):
        _assert_at_fixed_point(_contaminated(scheme, m, r))


@PROPERTY_SETTINGS
@given(design=st.sampled_from(_DESIGNS),
       seed=st.integers(min_value=0, max_value=2**31 - 1),
       r=st.integers(min_value=0, max_value=10**6),
       tolerance=st.sampled_from([1e-4, 1e-6, 1e-8]))
@example(design=(RANDOM_VERTICAL, 30), seed=7, r=89, tolerance=1e-6)
def test_weighted_fit_fixed_point_property(design, seed, r, tolerance):
    # r = 89 with 30 random outliers ended 4.8e-4 from the fixed point at
    # the 50-iteration cap under the unaccelerated step rule; it must now
    # converge under the cap.
    scheme, m = design
    _assert_at_fixed_point(_contaminated(scheme, m, r, seed),
                           WleConfig(tolerance=tolerance))


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(wle, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(wle, name, spy)
    return calls


@pytest.mark.parametrize("max_iterations", [1, 2, 3, 4, 5, 7, 50])
@pytest.mark.parametrize("scheme, m", _DESIGNS)
def test_each_iteration_is_one_kernel_pass_and_one_solve(
    monkeypatch, scheme, m, max_iterations
):
    # Extrapolated states are evaluated too, so the cap bounds kernel
    # passes, not plain steps. Each evaluation looks up the kernel, the
    # weights and the solve as module globals, so a wrapper on any of
    # them (as perfbench's tracer sets) sees every pass.
    ds = _contaminated(scheme, m, 3)
    kde = _count_calls(monkeypatch, "kernel_density_at")
    weigh = _count_calls(monkeypatch, "weight_function")
    solve = _count_calls(monkeypatch, "lstsq_qr")
    fit = fit_weighted_fixed_effects(
        ds, WleConfig(max_iterations=max_iterations))
    assert fit.iterations == len(kde) == len(weigh) == len(solve)
    assert fit.iterations <= max_iterations
    assert fit.converged == (fit.distance_bound < 1e-6)
    if not fit.converged:
        assert fit.iterations == max_iterations


def test_extrapolation_step():
    # S3 from p, F(p), F(F(p)) of a linear map with rate 1/2 lands on its
    # fixed point (0, 1); alpha = -1 and sigma2 <= 0 give no state.
    fixed = np.array([0.0, 1.0])
    states = [fixed + 0.5**j * np.array([1.0, 0.5]) for j in range(3)]
    beta, sigma2 = wle._extrapolate([(p[:1], p[1]) for p in states])
    np.testing.assert_allclose([beta[0], sigma2], fixed, atol=1e-15)
    growing = [(np.array([2.0**j]), 1.0) for j in range(3)]
    assert wle._extrapolate(growing) is None
    overshoot = [(np.zeros(1), s2) for s2 in (1.0, 0.6, 0.25)]
    assert wle._extrapolate(overshoot) is None


def test_failed_extrapolation_falls_back_to_the_plain_state(monkeypatch):
    # Every extrapolated state lies so far off that all weights vanish and
    # its evaluation raises before the solve; the fit goes on from the
    # plain state to the same fixed point, and each failed evaluation
    # still counts as one kernel pass and one weighting.
    tried = []

    def far_off(cycle):
        tried.append(cycle)
        return cycle[-1][0] + 1e6, cycle[-1][1]

    ds = _contaminated(RANDOM_VERTICAL, 30, 3)
    reference = _plain_fixed_point(ds)
    monkeypatch.setattr(wle, "_extrapolate", far_off)
    kde = _count_calls(monkeypatch, "kernel_density_at")
    weigh = _count_calls(monkeypatch, "weight_function")
    solve = _count_calls(monkeypatch, "lstsq_qr")
    fit = fit_weighted_fixed_effects(ds, WleConfig(max_iterations=200))
    assert fit.converged and len(tried) >= 3
    assert fit.iterations == len(kde) == len(weigh) == len(solve) + len(tried)
    distance = float(np.max(np.abs(fit.beta - reference)))
    assert distance <= 1e-6 * max(1.0, float(np.max(np.abs(reference))))


def test_vanishing_weights_raise_on_the_first_evaluation():
    # The first evaluation starts from the within fit, the last plain
    # state, so the fit has nothing to fall back to and raises at once.
    ds = _contaminated(RANDOM_VERTICAL, 30, 3)
    with patch.object(wle, "weight_function",
                      side_effect=np.zeros_like) as weigh:
        with pytest.raises(DegenerateWeightsError, match="weight mass 0 "):
            fit_weighted_fixed_effects(ds)
    assert weigh.call_count == 1


def test_weighted_fit_returns_its_last_solve():
    # Coefficients, weights and residuals come from one weighted solve, so
    # the weighted normal equations hold on the demeaned data.
    ds = _contaminated(RANDOM_VERTICAL, 30, 12)
    fit = fit_weighted_fixed_effects(ds)
    y, x = _within_solve(ds)[:2]
    resid = fit.residuals.ravel()
    np.testing.assert_array_equal(resid, y - x @ fit.beta)
    score = x.T @ (fit.weights.ravel() * resid)
    assert np.max(np.abs(score)) < 1e-10 * float(np.abs(y).sum())

