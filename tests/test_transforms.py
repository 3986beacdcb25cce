"""Within and quasi-demeaning transformations."""

import numpy as np
import pytest

from panelspec import (
    PanelDataset,
    compute_theta,
    quasi_demean,
    within_transform,
)
from panelspec.exceptions import (
    ThetaOutOfRangeError,
    ZeroIdiosyncraticVarianceError,
)

from helpers import make_panel


def _tiny_panel():
    y = np.array([[1.0, 3.0], [2.0, 4.0], [10.0, 20.0]])
    x = np.array([[[1.0], [2.0]], [[3.0], [5.0]], [[0.0], [4.0]]])
    return PanelDataset(("A", "B", "C"), (1, 2), y, x)


def test_within_mean_removal():
    out = within_transform(_tiny_panel())
    assert np.allclose(out.y[0], [-1.0, 1.0])
    assert np.allclose(out.y[1], [-1.0, 1.0])
    assert np.allclose(out.y[2], [-5.0, 5.0])


def test_within_three_period_example():
    y = np.array([[2.0, 4.0, 9.0], [1.0, 1.0, 1.0]])
    x = np.random.default_rng(0).normal(size=(2, 3, 1))
    ds = PanelDataset(("A", "B"), (1, 2, 3), y, x)
    out = within_transform(ds)
    assert np.allclose(out.y[0], [-3.0, -1.0, 4.0])
    assert np.allclose(out.y[1], [0.0, 0.0, 0.0])


def test_within_annihilates_unit_constant_regressor():
    ds = make_panel(4, 3, 2, seed=5)
    x = np.array(ds.x)
    # Constant within each unit but varying across units, so the panel
    # validator keeps it while demeaning wipes it out.
    x[:, :, 1] = np.arange(4.0)[:, np.newaxis]
    ds2 = PanelDataset(ds.unit_ids, ds.time_ids, ds.y, x)
    out = within_transform(ds2)
    assert np.allclose(out.x[:, :, 1], 0.0, atol=1e-12)


def test_within_unit_sums_vanish():
    ds = make_panel(20, 5, 3, seed=6)
    out = within_transform(ds)
    assert np.all(np.abs(out.y.sum(axis=1)) < 1e-10)
    assert np.all(np.abs(out.x.sum(axis=1)) < 1e-10)


def test_within_idempotent():
    ds = make_panel(8, 4, 2, seed=7)
    once = within_transform(ds)
    ds2 = PanelDataset(ds.unit_ids, ds.time_ids, once.y, once.x)
    twice = within_transform(ds2)
    assert np.allclose(once.y, twice.y, atol=1e-12)
    assert np.allclose(once.x, twice.x, atol=1e-12)


def test_quasi_demean_theta_zero_is_identity():
    ds = make_panel(5, 3, 2, seed=8)
    out = quasi_demean(ds, 0.0)
    assert np.array_equal(out.y, ds.y)
    assert np.array_equal(out.x, ds.x)


def test_quasi_demean_theta_one_is_within():
    ds = make_panel(5, 3, 2, seed=9)
    quasi = quasi_demean(ds, 1.0)
    within = within_transform(ds)
    assert np.array_equal(quasi.y, within.y)
    assert np.array_equal(quasi.x, within.x)


def test_quasi_demean_half():
    out = quasi_demean(_tiny_panel(), 0.5)
    # Unit A: y = (1, 3), mean 2 -> (1, 3) - 1 = (0, 2); unit B likewise.
    assert np.allclose(out.y[0], [0.0, 2.0])
    y2 = np.array([[2.0, 4.0], [0.0, 1.0], [5.0, 6.0]])
    ds = PanelDataset(("A", "B", "C"), (1, 2), y2,
                      _tiny_panel().x)
    assert np.allclose(quasi_demean(ds, 0.5).y[0], [0.5, 2.5])


def test_quasi_demean_rejects_bad_theta():
    ds = make_panel(3, 3, 1, seed=10)
    for theta in (-0.1, 1.1, np.inf, np.nan):
        with pytest.raises(ThetaOutOfRangeError):
            quasi_demean(ds, theta)


def test_quasi_demean_linear_in_data():
    a, b = 2.5, -1.25
    ds1 = make_panel(5, 3, 2, seed=11)
    ds2 = make_panel(5, 3, 2, seed=12)
    combo = PanelDataset(
        ds1.unit_ids, ds1.time_ids,
        a * ds1.y + b * ds2.y, a * ds1.x + b * ds2.x,
    )
    t1 = quasi_demean(ds1, 0.7)
    t2 = quasi_demean(ds2, 0.7)
    tc = quasi_demean(combo, 0.7)
    assert np.allclose(tc.y, a * t1.y + b * t2.y, atol=1e-12)
    assert np.allclose(tc.x, a * t1.x + b * t2.x, atol=1e-12)


def test_compute_theta_values():
    assert compute_theta(1.0, 0.0, 5) == 0.0
    assert compute_theta(1.0, 1.0, 3) == pytest.approx(0.5, abs=1e-15)
    assert compute_theta(1.0, 1e12, 4) > 0.999999


def test_compute_theta_monotonicity():
    grid = np.linspace(0.1, 5.0, 9)
    in_alpha = [compute_theta(1.0, a, 4) for a in grid]
    assert all(x < y for x, y in zip(in_alpha, in_alpha[1:]))
    in_t = [compute_theta(1.0, 1.0, t) for t in range(2, 9)]
    assert all(x < y for x, y in zip(in_t, in_t[1:]))
    in_eps = [compute_theta(e, 1.0, 4) for e in grid]
    assert all(x > y for x, y in zip(in_eps, in_eps[1:]))


def test_compute_theta_errors():
    with pytest.raises(ZeroIdiosyncraticVarianceError):
        compute_theta(0.0, 1.0, 4)
    with pytest.raises(ZeroIdiosyncraticVarianceError):
        compute_theta(-1.0, 1.0, 4)
    with pytest.raises(ThetaOutOfRangeError):
        compute_theta(1.0, -0.5, 4)
