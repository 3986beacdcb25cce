"""Pooled OLS, within, variance components, and feasible GLS."""

from collections import Counter
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given

from panelspec import (
    PanelDataset,
    compute_theta,
    estimate_variance_components,
    fit_fixed_effects,
    fit_pooled_ols,
    fit_random_effects,
)
from panelspec import cli, estimators, mcstudy, wle
from panelspec.exceptions import (
    InsufficientDegreesOfFreedomError,
    NonNumericValueError,
    RankDeficientDesignError,
)

from helpers import (
    PANEL_SHAPES,
    PROPERTY_SETTINGS,
    lsdv_slopes,
    make_panel,
    normal_equations,
)

BETA = np.array([1.0, -1.5])


def _noise_free_panel(n=10, t=4, seed=0, with_effects=False):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, t, 2))
    y = x @ BETA
    if with_effects:
        y = y + rng.normal(size=n)[:, np.newaxis]
    units = tuple(f"u{i}" for i in range(n))
    return PanelDataset(units, tuple(range(1, t + 1)), y, x)


def _centered_error_panel(n=12, t=4, k=2, seed=3):
    # Errors are demeaned per unit, so unit means satisfy the between
    # regression exactly and the effect-variance estimate clamps to 0.
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, t, k))
    eps = rng.normal(size=(n, t))
    eps = eps - eps.mean(axis=1, keepdims=True)
    y = x @ np.arange(1.0, k + 1.0) + eps
    units = tuple(f"u{i}" for i in range(n))
    return PanelDataset(units, tuple(range(1, t + 1)), y, x)


def test_pooled_exact_interpolation():
    res = fit_pooled_ols(_noise_free_panel())
    assert np.allclose(res.beta, BETA, atol=1e-12)
    assert res.rss == pytest.approx(0.0, abs=1e-18)
    assert res.r_squared == pytest.approx(1.0, abs=1e-12)


def test_pooled_matches_normal_equations():
    ds = make_panel(3, 2, 1, seed=1)
    res = fit_pooled_ols(ds)
    y = ds.y.reshape(-1)
    x = ds.x.reshape(-1, 1)
    assert np.allclose(res.beta, normal_equations(x, y), atol=1e-12)
    # Covariance scale rss / (NT - K) on the plain Gram inverse.
    sigma2 = res.rss / (6 - 1)
    assert np.allclose(res.cov_beta, sigma2 * np.linalg.inv(x.T @ x),
                       rtol=1e-10)


def test_pooled_rank_deficient():
    ds = make_panel(4, 3, 2, seed=2)
    x = np.array(ds.x)
    x[:, :, 1] = 2.0 * x[:, :, 0]
    dup = PanelDataset(ds.unit_ids, ds.time_ids, ds.y, x)
    with pytest.raises(RankDeficientDesignError):
        fit_pooled_ols(dup)


def test_fixed_effects_time_invariant_regressor():
    ds = make_panel(5, 3, 2, seed=4)
    x = np.array(ds.x)
    x[:, :, 1] = np.linspace(1.0, 2.0, 5)[:, np.newaxis]
    ds2 = PanelDataset(ds.unit_ids, ds.time_ids, ds.y, x)
    with pytest.raises(RankDeficientDesignError):
        fit_fixed_effects(ds2)


def test_fixed_effects_absorbs_intercepts():
    res = fit_fixed_effects(_noise_free_panel(with_effects=True))
    assert np.allclose(res.beta, BETA, atol=1e-10)


def test_fixed_effects_matches_lsdv():
    ds = make_panel(4, 3, 2, seed=5)
    res = fit_fixed_effects(ds)
    assert np.allclose(res.beta, lsdv_slopes(ds), atol=1e-10)


def test_fixed_effects_sigma2_dof():
    ds = make_panel(6, 4, 2, seed=6)
    res = fit_fixed_effects(ds)
    assert res.sigma2_eps == pytest.approx(res.rss / (6 * 3 - 2), rel=1e-12)


def test_fixed_effects_unit_shift_invariance():
    ds = make_panel(6, 4, 2, seed=7)
    base = fit_fixed_effects(ds)
    shifted = PanelDataset(
        ds.unit_ids, ds.time_ids,
        ds.y + 100.0 * np.arange(1.0, 7.0)[:, np.newaxis], ds.x,
    )
    res = fit_fixed_effects(shifted)
    assert np.allclose(res.beta, base.beta, atol=1e-10)


def test_variance_components_consistency():
    ds = make_panel(2000, 4, 2, seed=8, beta=BETA)
    vc = estimate_variance_components(ds)
    assert 0.9 <= vc.sigma2_eps <= 1.1
    assert 0.8 <= vc.sigma2_alpha <= 1.2
    assert vc.theta == compute_theta(vc.sigma2_eps, vc.sigma2_alpha, 4)


def test_variance_components_no_effects():
    ds = make_panel(2000, 4, 2, seed=9, alpha_scale=0.0)
    vc = estimate_variance_components(ds)
    assert vc.sigma2_alpha < 0.05
    assert vc.theta < 0.2


def test_variance_components_clamped_to_zero():
    vc = estimate_variance_components(_centered_error_panel())
    # Between residuals vanish, so the raw estimate is negative and the
    # clamp returns exactly zero.
    assert vc.sigma2_alpha == 0.0
    assert vc.theta == 0.0


def test_variance_components_dof_guard():
    rng = np.random.default_rng(10)
    ds = PanelDataset(("A", "B", "C"), (1, 2),
                      rng.normal(size=(3, 2)), rng.normal(size=(3, 2, 2)))
    with pytest.raises(InsufficientDegreesOfFreedomError):
        estimate_variance_components(ds)


def test_random_effects_collapses_to_pooled_at_theta_zero():
    ds = _centered_error_panel()
    re = fit_random_effects(ds)
    pooled = fit_pooled_ols(ds)
    assert re.variance_components.theta == 0.0
    assert np.allclose(re.beta, pooled.beta, atol=1e-12)


def test_random_effects_exact_on_noise_free_data():
    res = fit_random_effects(_noise_free_panel(with_effects=True))
    assert np.allclose(res.beta, BETA, atol=1e-10)


def test_random_effects_near_fixed_effects_under_null():
    ds = make_panel(2000, 4, 2, seed=11, beta=BETA)
    re = fit_random_effects(ds)
    fe = fit_fixed_effects(ds)
    assert np.max(np.abs(re.beta - fe.beta)) < 0.05


@PROPERTY_SETTINGS
@given(**PANEL_SHAPES)
@example(n=30, t=4, k=2, seed=12)
def test_random_effects_forced_theta_one_equals_within(n, t, k, seed):
    ds = make_panel(n, t, k, seed=seed)
    # A module-global seam: hypothesis does not mix with monkeypatch.
    with patch.object(estimators, "compute_theta", return_value=1.0):
        re = fit_random_effects(ds)
    fe = fit_fixed_effects(ds)
    assert np.allclose(re.beta, fe.beta, atol=1e-10)
    assert re.variance_components.theta == 1.0


def test_random_effects_records_components():
    ds = make_panel(40, 4, 2, seed=13)
    re = fit_random_effects(ds)
    vc = estimate_variance_components(ds)
    assert re.variance_components.sigma2_eps == vc.sigma2_eps
    assert re.variance_components.sigma2_alpha == vc.sigma2_alpha
    assert re.sigma2_eps == vc.sigma2_eps


@PROPERTY_SETTINGS
@given(**PANEL_SHAPES)
@example(n=15, t=4, k=3, seed=14)
def test_rescaling_equivariance(n, t, k, seed):
    ds = make_panel(n, t, k, seed=seed)
    c = -2.5
    j = k // 2
    x = np.array(ds.x)
    x[:, :, j] *= c
    scaled = PanelDataset(ds.unit_ids, ds.time_ids, ds.y, x)
    for fit in (fit_pooled_ols, fit_fixed_effects, fit_random_effects):
        base = fit(ds)
        res = fit(scaled)
        expect = np.array(base.beta)
        expect[j] /= c
        assert np.allclose(res.beta, expect, rtol=1e-10), fit.__name__


@pytest.mark.parametrize("x_scale, y_scale", [(1e-160, 1.0), (1e-150, 1e10)],
                         ids=["gram_inverse", "covariance"])
def test_overflowing_covariance_is_refused(x_scale, y_scale):
    # The Gram inverse overflows (near 1e320), or it stays finite (near
    # 1e300) and sigma2_eps times it overflows. In-process, so a numpy
    # warning on the way fails the test.
    ds = make_panel(30, 4, 2, seed=1)
    tiny = PanelDataset(ds.unit_ids, ds.time_ids, ds.y * y_scale,
                        ds.x * x_scale)
    with pytest.raises(NonNumericValueError,
                       match="^overflow: coefficient covariance not finite$"):
        fit_fixed_effects(tiny)


def test_result_invariants():
    ds = make_panel(10, 4, 2, seed=15)
    for fit in (fit_pooled_ols, fit_fixed_effects, fit_random_effects):
        res = fit(ds)
        assert np.allclose(res.cov_beta, res.cov_beta.T, atol=1e-15)
        assert np.min(np.linalg.eigvalsh(res.cov_beta)) >= -1e-15
        assert res.rss == pytest.approx(
            float(np.sum(res.residuals ** 2)), rel=1e-10
        )
        assert res.r_squared == pytest.approx(
            1.0 - res.rss / res.tss, rel=1e-12
        )
        assert res.r_squared <= 1.0
        assert len(res.std_errors()) == 2


def _spy(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def spy(*args, **kwargs):
        calls[f"{module.__name__}.{name}"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)


@pytest.fixture
def solve_calls(monkeypatch):
    """Counts of the within transforms and least-squares solves."""
    calls = Counter()
    _spy(monkeypatch, estimators, "within_transform", calls)
    _spy(monkeypatch, estimators, "lstsq_qr", calls)
    _spy(monkeypatch, wle, "lstsq_qr", calls)
    return calls


def test_one_within_solve_per_replication(solve_calls):
    study = mcstudy.run_study(
        mcstudy.DgpConfig(n_units=50, n_periods=3, seed=3), s=1
    )
    assert study.failures == 0
    # Within (FE, variance components, WFE start), between and RE.
    assert solve_calls["panelspec.estimators.within_transform"] == 1
    assert solve_calls["panelspec.estimators.lstsq_qr"] == 3
    assert solve_calls["panelspec.wle.lstsq_qr"] >= 1


@pytest.mark.parametrize("which", ["hausman", "weighted", "both"])
def test_one_within_solve_per_test_command(which, solve_calls, capsys):
    data = Path(__file__).resolve().parent / "fixtures" / "contaminated_alt.csv"
    assert cli.main(["test", "--data", str(data), "--unit", "unit",
                     "--time", "time", "--y", "y", "--x", "x1,x2",
                     "--which", which]) == 0
    out = capsys.readouterr().out
    assert ('"weighted_hausman"' in out) == (which != "hausman")
    assert solve_calls["panelspec.estimators.within_transform"] == 1
    assert solve_calls["panelspec.estimators.lstsq_qr"] == 3
    # The weighted fit, and its solves, run only for the weighted test.
    if which == "hausman":
        assert solve_calls["panelspec.wle.lstsq_qr"] == 0
    else:
        assert solve_calls["panelspec.wle.lstsq_qr"] >= 1


def test_shared_within_solve_is_read_only(solve_calls):
    ds = make_panel(10, 4, 2, seed=16)
    first = fit_fixed_effects(ds)
    second = fit_fixed_effects(ds)
    assert solve_calls["panelspec.estimators.within_transform"] == 1
    assert first.beta is second.beta
    with pytest.raises(ValueError, match="read-only"):
        first.beta[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        first.residuals[0, 0] = 0.0
