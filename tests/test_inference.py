"""Specification tests and chi-square tails."""

import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given
from scipy.integrate import quad

from panelspec import (
    EstimateResult,
    PanelDataset,
    WleConfig,
    chi_square_sf,
    fit_fixed_effects,
    fit_pooled_ols,
    fit_random_effects,
    fit_weighted_fixed_effects,
    hausman_test,
    weighted_hausman_test,
)
from panelspec import estimators, wle
from panelspec.estimators import (
    FIXED_EFFECTS,
    RANDOM_EFFECTS,
    WEIGHTED_FIXED_EFFECTS,
)
from panelspec.inference import HAUSMAN, WEIGHTED_HAUSMAN
from panelspec.mcstudy import specification_tests
from panelspec.exceptions import (
    ConfigurationError,
    DimensionMismatchError,
    MethodMismatchError,
    NegativeArgumentError,
)

from helpers import PANEL_SHAPES, PROPERTY_SETTINGS, make_panel


def _result(method, beta, cov, **kw):
    beta = np.asarray(beta, dtype=float)
    fields = dict(
        method=method,
        beta=beta,
        cov_beta=np.asarray(cov, dtype=float),
        sigma2_eps=1.0,
        sigma2_alpha=0.0,
        residuals=np.zeros((2, 2)),
        rss=0.0,
        r_squared=1.0,
        tss=1.0,
    )
    fields.update(kw)
    return EstimateResult(**fields)


def _chi2_pdf(t, df):
    return (
        t ** (df / 2.0 - 1.0)
        * math.exp(-t / 2.0)
        / (2.0 ** (df / 2.0) * math.gamma(df / 2.0))
    )


def test_sf_at_zero():
    for df in range(1, 6):
        assert chi_square_sf(0.0, df) == 1.0


def test_sf_df2_closed_form():
    assert chi_square_sf(5.99146, 2) == pytest.approx(0.05, abs=1e-5)
    for x in np.linspace(0.0, 100.0, 81):
        assert chi_square_sf(float(x), 2) == pytest.approx(
            math.exp(-x / 2.0), abs=1e-12
        )


def test_sf_matches_quadrature():
    for df in (1, 3, 7):
        for x in (0.5, 5.0, 20.0):
            val, err = quad(_chi2_pdf, x, np.inf, args=(df,),
                            epsabs=1e-13, epsrel=1e-12)
            assert err < 1e-11
            assert chi_square_sf(x, df) == pytest.approx(val, abs=1e-10)


def test_sf_monotonicity():
    xs = np.linspace(0.5, 30.0, 60)
    vals = [chi_square_sf(float(x), 3) for x in xs]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    by_df = [chi_square_sf(5.0, df) for df in range(1, 11)]
    assert all(a < b for a, b in zip(by_df, by_df[1:]))


def test_sf_rejects_bad_arguments():
    with pytest.raises(NegativeArgumentError):
        chi_square_sf(-0.5, 2)
    with pytest.raises(NegativeArgumentError):
        chi_square_sf(math.nan, 2)
    for df in (0, 2.5, math.nan, math.inf):
        with pytest.raises(ConfigurationError):
            chi_square_sf(1.0, df)


def test_hausman_scalar_case():
    fe = _result(FIXED_EFFECTS, [0.5], [[0.05]])
    re = _result(RANDOM_EFFECTS, [0.3], [[0.01]])
    out = hausman_test(fe, re)
    assert out.kind == HAUSMAN
    assert out.statistic == pytest.approx(1.0, abs=1e-12)
    assert out.df == 1
    assert out.p_value == pytest.approx(0.3173105078629141, abs=1e-10)
    assert not out.repaired
    assert out.q[0] == pytest.approx(0.2, abs=1e-15)


def test_hausman_positive_definite_no_repair():
    fe = _result(FIXED_EFFECTS, [0.6, 0.4], np.diag([0.05, 0.02]))
    re = _result(RANDOM_EFFECTS, [0.5, 0.2], np.diag([0.02, 0.01]))
    out = hausman_test(fe, re)
    assert not out.repaired
    assert out.statistic == pytest.approx(0.1 ** 2 / 0.03 + 0.2 ** 2 / 0.01,
                                          rel=1e-10)


def test_hausman_negative_difference_repaired():
    fe = _result(FIXED_EFFECTS, [0.6, 0.4], np.diag([0.01, 0.01]))
    re = _result(RANDOM_EFFECTS, [0.5, 0.2], np.diag([0.02, 0.02]))
    out = hausman_test(fe, re)
    assert out.repaired
    assert out.statistic > 1e9
    assert 0.0 <= out.p_value <= 1.0


def test_hausman_identical_fits_forced_theta():
    ds = make_panel(30, 4, 2, seed=40)
    fe = fit_fixed_effects(ds)
    with patch.object(estimators, "compute_theta", return_value=1.0):
        re = fit_random_effects(ds)
    out = hausman_test(fe, re)
    assert np.all(out.q == 0.0)
    assert out.statistic == 0.0
    assert out.p_value == 1.0


def test_weighted_test_unit_weights_match_hausman():
    ds = make_panel(40, 4, 2, seed=41)
    fe = fit_fixed_effects(ds)
    re = fit_random_effects(ds)
    with patch.object(wle, "weight_function", np.ones_like):
        wfe = fit_weighted_fixed_effects(ds)
    h = hausman_test(fe, re)
    wh = weighted_hausman_test(wfe, re)
    assert wh.kind == WEIGHTED_HAUSMAN
    assert abs(wh.statistic - h.statistic) < 1e-10
    assert abs(wh.p_value - h.p_value) < 1e-12


def test_weighted_test_close_to_hausman_on_clean_data():
    gaps = []
    for r in range(200):
        ds = make_panel(200, 4, 2, seed=4200 + r, beta=(1.0, -1.5))
        fe = fit_fixed_effects(ds)
        re = fit_random_effects(ds)
        wfe = fit_weighted_fixed_effects(ds)
        h = hausman_test(fe, re)
        wh = weighted_hausman_test(wfe, re)
        gaps.append(abs(wh.statistic - h.statistic))
    assert float(np.median(gaps)) < 0.5


def test_statistic_scaling_invariance():
    ds = make_panel(60, 4, 2, seed=43)
    c = 7.3
    x = np.array(ds.x)
    x[:, :, 1] *= c
    scaled = PanelDataset(ds.unit_ids, ds.time_ids, ds.y, x)

    # The IRLS stopping rule is not scale-free at its default looseness,
    # so pin the shared fixed point with a tight tolerance.
    tight = WleConfig(tolerance=1e-13, max_iterations=500)

    def stats(d):
        fe = fit_fixed_effects(d)
        re = fit_random_effects(d)
        wfe = fit_weighted_fixed_effects(d, tight)
        return (hausman_test(fe, re).statistic,
                weighted_hausman_test(wfe, re).statistic)

    h1, w1 = stats(ds)
    h2, w2 = stats(scaled)
    assert h2 == pytest.approx(h1, rel=1e-8)
    assert w2 == pytest.approx(w1, rel=1e-8)


@PROPERTY_SETTINGS
@given(**PANEL_SHAPES)
@example(n=50, t=4, k=2, seed=44)
def test_statistic_unit_reorder_invariance(n, t, k, seed):
    # Both statistics are sums over units, so the order of the units in
    # the panel must not move them.
    ds = make_panel(n, t, k, seed=seed)
    perm = np.random.default_rng(seed + 1).permutation(n)
    permuted = PanelDataset(
        tuple(ds.unit_ids[i] for i in perm), ds.time_ids,
        ds.y[perm], ds.x[perm],
    )
    tight = WleConfig(tolerance=1e-13, max_iterations=500)
    a = specification_tests(ds, wle_config=tight)[2]
    b = specification_tests(permuted, wle_config=tight)[2]
    for before, after in zip(a, b):
        assert after.statistic == pytest.approx(before.statistic, rel=1e-8)


def _slopes_and_statistics(ds):
    """Pooled, FE and RE slopes, and both statistics, of one panel."""
    tight = WleConfig(tolerance=1e-13, max_iterations=500)
    fe, re, tests = specification_tests(ds, wle_config=tight)
    slopes = [fit_pooled_ols(ds).beta, fe.beta, re.beta]
    return slopes, [t.statistic for t in tests]


# The next two tests pin open defects, listed in the ROADMAP. Each holds
# its invariance to rel 1e-8, as test_statistic_scaling_invariance does,
# and fails today; once the defect is mended it passes, and strict
# marking then fails it until the mark comes off.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="pooled OLS and RE fit no intercept")
def test_location_invariance():
    # Constants added to y and to each regressor move no slope and
    # neither statistic. Pooled and RE leave out the (1 - theta)
    # intercept column, so their slopes and both statistics move.
    ds = make_panel(30, 4, 2, seed=1)
    shifted = PanelDataset(ds.unit_ids, ds.time_ids, ds.y + 5.0,
                           ds.x + np.array([3.0, -2.0]))
    slopes, stats = _slopes_and_statistics(ds)
    moved_slopes, moved_stats = _slopes_and_statistics(shifted)
    for got, want in zip(moved_slopes, slopes):
        assert got == pytest.approx(want, rel=1e-8)
    assert moved_stats == pytest.approx(stats, rel=1e-8)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the contrast's eigenvalue floor depends on units")
def test_per_regressor_rescaling_invariance():
    # x1 in units a million times smaller divides its slopes by 1e6 and
    # moves neither statistic. The eigenvalue floor, relative to the
    # largest eigenvalue, clamps x1's direction, so both statistics fall.
    ds = make_panel(30, 4, 2, seed=1)
    x = np.array(ds.x)
    x[:, :, 0] *= 1e6
    scaled = PanelDataset(ds.unit_ids, ds.time_ids, ds.y, x)
    slopes, stats = _slopes_and_statistics(ds)
    moved_slopes, moved_stats = _slopes_and_statistics(scaled)
    for got, want in zip(moved_slopes, slopes):
        assert got * np.array([1e6, 1.0]) == pytest.approx(want, rel=1e-8)
    assert moved_stats == pytest.approx(stats, rel=1e-8)


def test_p_value_matches_sf_exactly():
    ds = make_panel(30, 4, 2, seed=46)
    out = hausman_test(fit_fixed_effects(ds), fit_random_effects(ds))
    assert out.p_value == chi_square_sf(out.statistic, out.df)
    assert out.statistic >= 0.0


@pytest.mark.parametrize("test, method, other", [
    (hausman_test, FIXED_EFFECTS, WEIGHTED_FIXED_EFFECTS),
    (weighted_hausman_test, WEIGHTED_FIXED_EFFECTS, FIXED_EFFECTS),
], ids=["hausman", "weighted"])
@pytest.mark.parametrize("case", ["robust", "re", "length"])
def test_method_and_dimension_guards(test, method, other, case):
    # The checks run in this order: robust method, RE method, lengths.
    # Each case also fails every later check, so a reordered guard
    # raises the wrong message.
    one, two = [0.5], [0.5, 0.2]
    robust = _result(method, one, [[0.05]])
    args, error, message = {
        "robust": (
            (_result(other, one, [[0.05]]), _result(other, two, np.eye(2))),
            MethodMismatchError, f"expected a {method} fit, got {other}",
        ),
        "re": (
            (robust, _result(method, two, np.eye(2))),
            MethodMismatchError,
            f"expected a {RANDOM_EFFECTS} fit, got {method}",
        ),
        "length": (
            (robust, _result(RANDOM_EFFECTS, two, np.eye(2))),
            DimensionMismatchError, "coefficient lengths differ: 1 vs 2",
        ),
    }[case]
    with pytest.raises(error) as info:
        test(*args)
    assert str(info.value) == message
