"""Kernel densities, Pearson residuals, weights, and the weighted fit."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.integrate import quad
from scipy.special import ndtri

from panelspec import (
    PanelDataset,
    WleConfig,
    compute_weight_state,
    fit_fixed_effects,
    fit_weighted_fixed_effects,
    kernel_density_at,
    pearson_residuals,
    raf_hellinger,
    smoothed_model_density,
    weight_function,
)
from panelspec import wle
from panelspec.wle import HELLINGER, IDENTITY
from panelspec.mcstudy import (
    ContaminationConfig,
    DgpConfig,
    RANDOM_VERTICAL,
    contaminate_random,
    generate,
    substream,
)
from panelspec.exceptions import (
    ConfigurationError,
    DeltaOutOfRangeError,
    EmptySampleError,
    NonpositiveBandwidthError,
    NonpositiveScaleError,
    ZeroTotalVariationError,
)

from helpers import PANEL_SHAPES, PROPERTY_SETTINGS, make_panel

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
    # so 2 n^2 cells cross the FGT cutoff (300^2) near n = 212. Far
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


def test_weight_function_values():
    assert weight_function(0.0) == 1.0
    assert weight_function(3.0) == 0.75
    assert weight_function(-0.99) == 0.0
    with pytest.raises(DeltaOutOfRangeError):
        weight_function(-1.0)


def test_weight_function_identity_is_unit():
    delta = np.array([-0.5, 0.0, 0.3, 4.0, 250.0])
    w = weight_function(delta, IDENTITY)
    assert np.all(w == 1.0)


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
        state = compute_weight_state(np.append(base, c), 1.0)
        weights.append(float(state.weights[-1]))
    assert all(a >= b for a, b in zip(weights, weights[1:]))
    assert weights[-1] < 1e-6


def test_compute_weight_state_consistency():
    rng = np.random.default_rng(23)
    residuals = rng.normal(size=200)
    state = compute_weight_state(residuals, 1.0)
    assert np.array_equal(
        state.weights, np.asarray(weight_function(state.pearson, HELLINGER))
    )
    assert np.all(state.pearson > -1.0)
    assert np.all((state.weights >= 0.0) & (state.weights <= 1.0))


def test_wle_config_validation():
    with pytest.raises(NonpositiveBandwidthError):
        WleConfig(kappa=0.0)
    with pytest.raises(ValueError):
        WleConfig(max_iterations=0)
    with pytest.raises(ConfigurationError):
        WleConfig(max_iterations=2.5)
    for tolerance in (0.0, math.inf, math.nan):
        with pytest.raises(ConfigurationError):
            WleConfig(tolerance=tolerance)
    with pytest.raises(ValueError):
        WleConfig(raf="bogus")


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
    ds = make_panel(n, t, k, seed=seed)
    fe = fit_fixed_effects(ds)
    wfe = fit_weighted_fixed_effects(ds, WleConfig(raf=IDENTITY))
    assert np.allclose(wfe.beta, fe.beta, atol=1e-10)
    assert np.all(wfe.weights == 1.0)
    assert wfe.sigma2_eps == pytest.approx(fe.sigma2_eps, rel=1e-14)
    assert np.allclose(wfe.cov_beta, fe.cov_beta, rtol=1e-12)
    assert wfe.converged


def test_weighted_fit_downweights_outliers_and_dominates():
    # Null DGP with 5 percent of responses replaced by large uniforms.
    beta = np.array([1.0, -1.5])
    dgp = DgpConfig(n_units=100, n_periods=3, seed=26)
    cc = ContaminationConfig(scheme=RANDOM_VERTICAL, n_outliers=15)

    # One replication in detail: every replaced cell gets weight < 0.1.
    rng = substream(dgp.seed, 0)
    clean = generate(dgp, rng)
    dirty = contaminate_random(clean, cc, rng)
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
        ds = contaminate_random(generate(dgp, rng), cc, rng)
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
    ds = contaminate_random(generate(dgp, rng), cc, rng)
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
