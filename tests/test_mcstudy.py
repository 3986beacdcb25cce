"""Data generation, contamination, and study-driver behavior."""

import json
import math
from collections import Counter
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest

from panelspec import wle
from panelspec.estimators import fit_fixed_effects, fit_random_effects
from panelspec.exceptions import (
    ConfigurationError,
    PanelSpecError,
    TooManyOutliersError,
)
from panelspec.inference import (
    HAUSMAN,
    WEIGHTED_HAUSMAN,
    hausman_test,
    weighted_hausman_test,
)
from panelspec.mcstudy import (
    ALTERNATIVE,
    CONCENTRATED_VERTICAL,
    NO_CONTAMINATION,
    RANDOM_VERTICAL,
    ContaminationConfig,
    DgpConfig,
    apply_contamination,
    generate,
    run_study,
    specification_tests,
    standard_normal,
    study_to_csv,
    study_to_json,
    substream,
)
from panelspec.wle import WleConfig, fit_weighted_fixed_effects


def test_substream_is_deterministic_and_disjoint():
    a = substream(7, 3).integers(0, 1 << 30, size=8)
    b = substream(7, 3).integers(0, 1 << 30, size=8)
    c = substream(7, 4).integers(0, 1 << 30, size=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_standard_normal_moments_and_determinism():
    z1 = standard_normal(substream(11, 0), 200_000)
    z2 = standard_normal(substream(11, 0), 200_000)
    assert np.array_equal(z1, z2)
    assert np.all(np.isfinite(z1))
    assert abs(z1.mean()) < 0.01
    assert abs(z1.var() - 1.0) < 0.02


@pytest.mark.parametrize("k", [0, (1 << 53) - 1])
def test_standard_normal_is_finite_at_the_extreme_draws(k):
    # A generator stub whose every draw is k; (2k + 1) / 2^54 rounds to
    # exactly 1.0 at k = 2^53 - 1.
    rng = SimpleNamespace(
        integers=lambda low, high, size, dtype: np.full(size, k, dtype=dtype))
    z = standard_normal(rng, 3)
    assert np.all(np.isfinite(z))
    assert np.all(z > 8.0) if k else np.all(z < -8.0)


def test_generate_null_reproducible_and_shaped():
    cfg = DgpConfig(n_units=30, n_periods=3, seed=5)
    a = generate(cfg)
    b = generate(cfg, substream(5, 0))
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.x, b.x)
    assert a.y.shape == (30, 3)
    assert a.x.shape == (30, 3, 2)
    assert a.unit_ids[0] == "u0001"
    assert a.time_ids == (1, 2, 3)


def test_generate_null_error_structure():
    cfg = DgpConfig(n_units=2000, n_periods=4, seed=6)
    ds = generate(cfg)
    u = ds.y - ds.x @ np.array(cfg.beta)
    assert 1.8 <= float(u.var()) <= 2.2
    # cross-period covariance within a unit estimates the effect variance
    cross = float(np.cov(u[:, 0], u[:, 1])[0, 1])
    assert 0.85 <= cross <= 1.15


def test_alternative_with_zero_tau_matches_null():
    null_cfg = DgpConfig(n_units=40, n_periods=4, seed=8)
    alt_cfg = DgpConfig(
        n_units=40, n_periods=4, hypothesis=ALTERNATIVE,
        tau=(0.0, 0.0), seed=8,
    )
    a = generate(null_cfg)
    b = generate(alt_cfg)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.x, b.x)


def test_alternative_effects_track_regressors():
    cfg = DgpConfig(
        n_units=2000, n_periods=4, hypothesis=ALTERNATIVE,
        tau=(1.0, 1.0), seed=9,
    )
    ds = generate(cfg)
    alpha_hat = (ds.y - ds.x @ np.array(cfg.beta)).mean(axis=1)
    xbar = ds.x[:, :, 0].mean(axis=1)
    corr = float(np.corrcoef(alpha_hat, xbar)[0, 1])
    assert corr > 0.3


def test_generate_dispatches_on_hypothesis():
    tau = np.array([0.5, -2.0])
    alt_cfg = DgpConfig(
        n_units=20, n_periods=3, hypothesis=ALTERNATIVE, tau=tau, seed=10
    )
    null_cfg = DgpConfig(n_units=20, n_periods=3, tau=tau, seed=10)
    rng = substream(10, 0)
    x = standard_normal(rng, (20, 3, 2))
    eta = standard_normal(rng, 20)
    eps = standard_normal(rng, (20, 3))
    base = x @ np.array(null_cfg.beta)
    alt = generate(alt_cfg)
    null = generate(null_cfg)
    assert np.array_equal(null.x, x) and np.array_equal(alt.x, x)
    assert np.array_equal(null.y, base + eta[:, np.newaxis] + eps)
    alpha = (x @ tau).mean(axis=1) + eta
    assert np.array_equal(alt.y, base + alpha[:, np.newaxis] + eps)


def test_dgp_config_validation():
    with pytest.raises(ValueError):
        DgpConfig(n_units=1, n_periods=4)
    with pytest.raises(ValueError):
        DgpConfig(n_units=10, n_periods=1)
    with pytest.raises(ValueError):
        DgpConfig(n_units=10, n_periods=4, beta=())
    with pytest.raises(ValueError):
        DgpConfig(n_units=10, n_periods=4, hypothesis="sideways")
    with pytest.raises(ValueError):
        DgpConfig(n_units=10, n_periods=4, hypothesis=ALTERNATIVE,
                  tau=(1.0,))
    with pytest.raises(ValueError):
        DgpConfig(n_units=10, n_periods=4, seed=-1)
    for values in ({"beta": (math.nan, 1.0)}, {"beta": (1.0, math.inf)},
                   {"tau": (math.inf, 1.0), "hypothesis": ALTERNATIVE},
                   {"tau": (1.0, math.nan)}):
        with pytest.raises(ConfigurationError):
            DgpConfig(n_units=10, n_periods=4, **values)
    for sizes in ({"n_units": 2.5, "n_periods": 4},
                  {"n_units": 10, "n_periods": 2.5},
                  {"n_units": 10, "n_periods": 4, "seed": 2.5},
                  {"n_units": 10, "n_periods": 4, "seed": True}):
        with pytest.raises(ConfigurationError):
            DgpConfig(**sizes)


def test_contamination_config_validation():
    with pytest.raises(ValueError):
        ContaminationConfig(scheme="diagonal")
    with pytest.raises(ValueError):
        ContaminationConfig(scheme=RANDOM_VERTICAL, n_outliers=-1)
    with pytest.raises(ConfigurationError):
        ContaminationConfig(scheme=RANDOM_VERTICAL, n_outliers=2.5)
    with pytest.raises(ValueError):
        ContaminationConfig(scheme=NO_CONTAMINATION, n_outliers=3)
    # A clean design has no replacement values to bound.
    for low, high in ((1.0, 2.0), (1.0, None), (None, 2.0)):
        with pytest.raises(ConfigurationError):
            ContaminationConfig(scheme=NO_CONTAMINATION, low=low, high=high)
    with pytest.raises(ValueError):
        ContaminationConfig(scheme=RANDOM_VERTICAL, n_outliers=1, low=2.0)
    with pytest.raises(ValueError):
        ContaminationConfig(scheme=RANDOM_VERTICAL, n_outliers=1,
                            low=5.0, high=5.0)
    for low, high in ((-math.inf, 0.0), (0.0, math.inf), (math.nan, 1.0),
                      (0.0, math.nan)):
        with pytest.raises(ConfigurationError):
            ContaminationConfig(scheme=RANDOM_VERTICAL, n_outliers=1,
                                low=low, high=high)
    random = ContaminationConfig(scheme=RANDOM_VERTICAL, n_outliers=1)
    assert (random.low, random.high) == (10.0, 35.0)
    concentrated = ContaminationConfig(scheme=CONCENTRATED_VERTICAL,
                                       n_outliers=1)
    assert (concentrated.low, concentrated.high) == (17.0, 18.0)
    given = ContaminationConfig(scheme=RANDOM_VERTICAL, n_outliers=1,
                                low=np.float32(1), high=2)
    assert [type(v) for v in (given.low, given.high)] == [float, float]
    clean = ContaminationConfig()
    assert (clean.low, clean.high) == (None, None)


def _clean_panel(seed):
    return generate(DgpConfig(n_units=100, n_periods=3, seed=seed))


def test_random_contamination_replaces_exact_count():
    ds = _clean_panel(12)
    cfg = ContaminationConfig(scheme=RANDOM_VERTICAL, n_outliers=15)
    dirty = apply_contamination(ds, cfg, substream(12, 1))
    mask = dirty.y != ds.y
    assert int(mask.sum()) == 15
    assert np.all(dirty.y[mask] >= 10.0)
    assert np.all(dirty.y[mask] < 35.0)
    assert np.array_equal(dirty.x, ds.x)
    assert np.array_equal(dirty.y[~mask], ds.y[~mask])


def test_random_contamination_deterministic():
    ds = _clean_panel(13)
    cfg = ContaminationConfig(scheme=RANDOM_VERTICAL, n_outliers=9)
    a = apply_contamination(ds, cfg, substream(13, 1))
    b = apply_contamination(ds, cfg, substream(13, 1))
    assert np.array_equal(a.y, b.y)


def test_random_contamination_noop_and_capacity():
    ds = _clean_panel(14)
    noop = ContaminationConfig(scheme=RANDOM_VERTICAL, n_outliers=0)
    out = apply_contamination(ds, noop, substream(14, 1))
    assert np.array_equal(out.y, ds.y)
    over = ContaminationConfig(scheme=RANDOM_VERTICAL, n_outliers=301)
    with pytest.raises(TooManyOutliersError):
        apply_contamination(ds, over, substream(14, 1))


def test_concentrated_contamination_block_structure():
    ds = _clean_panel(15)
    cfg = ContaminationConfig(scheme=CONCENTRATED_VERTICAL, n_outliers=15)
    dirty = apply_contamination(ds, cfg, substream(15, 1))
    mask = dirty.y != ds.y
    assert int(mask.sum()) == 15
    assert np.all(dirty.y[mask] >= 17.0)
    assert np.all(dirty.y[mask] < 18.0)
    per_unit = mask.sum(axis=1)
    counts = Counter(int(c) for c in per_unit if c > 0)
    # T = 3 gives blocks of 2; 15 = 7 full blocks plus one remainder cell
    assert counts == {2: 7, 1: 1}
    for row in np.flatnonzero(per_unit):
        hit = np.flatnonzero(mask[row])
        assert np.array_equal(hit, np.arange(hit[0], hit[0] + hit.size))


def test_concentrated_contamination_noop_capacity_determinism():
    ds = _clean_panel(16)
    noop = ContaminationConfig(scheme=CONCENTRATED_VERTICAL, n_outliers=0)
    assert np.array_equal(
        apply_contamination(ds, noop, substream(16, 1)).y, ds.y
    )
    over = ContaminationConfig(scheme=CONCENTRATED_VERTICAL, n_outliers=201)
    with pytest.raises(TooManyOutliersError):
        apply_contamination(ds, over, substream(16, 1))
    cfg = ContaminationConfig(scheme=CONCENTRATED_VERTICAL, n_outliers=8)
    a = apply_contamination(ds, cfg, substream(16, 2))
    b = apply_contamination(ds, cfg, substream(16, 2))
    assert np.array_equal(a.y, b.y)


def test_apply_contamination_dispatch():
    # No scheme and no outliers return the dataset itself, drawing nothing.
    ds = _clean_panel(17)
    for cfg in (None, ContaminationConfig(),
                ContaminationConfig(scheme=RANDOM_VERTICAL, n_outliers=0)):
        rng = substream(17, 1)
        assert apply_contamination(ds, cfg, rng) is ds
        assert rng.random() == substream(17, 1).random()


# The exact cells and values each scheme replaces for one seed, so any
# change to a scheme's draws or their order shows here.
_PINNED_DRAWS = {
    RANDOM_VERTICAL: (4, {
        (0, 2): 15.014517133417531, (2, 1): 16.649372780349704,
        (2, 3): 19.882994190432612, (4, 3): 22.278528267780153,
    }),
    # T = 5 gives blocks of 3: units 1 and 2 take one each, unit 0 the
    # remainder cell.
    CONCENTRATED_VERTICAL: (7, {
        (0, 0): 17.287278024173684, (1, 0): 17.53876135378258,
        (1, 1): 17.90654179117699, (1, 2): 17.328663599483217,
        (2, 1): 17.52153014474372, (2, 2): 17.747804980692,
        (2, 3): 17.629368111880147,
    }),
}


@pytest.mark.parametrize("scheme", sorted(_PINNED_DRAWS))
def test_contamination_draws_are_pinned(scheme):
    ds = generate(DgpConfig(n_units=6, n_periods=5, seed=3))
    m, expected = _PINNED_DRAWS[scheme]
    cfg = ContaminationConfig(scheme=scheme, n_outliers=m)
    dirty = apply_contamination(ds, cfg, substream(3, 1))
    replaced = {
        (int(i), int(j)): float(dirty.y[i, j])
        for i, j in np.argwhere(dirty.y != ds.y)
    }
    assert replaced == expected
    assert np.array_equal(dirty.x, ds.x)


_SMALL_DGP = DgpConfig(n_units=25, n_periods=4, seed=21)
_SMALL_GRID = (0.05, 0.10, 0.20)


def test_run_study_repeatable_and_tabulated():
    a = run_study(_SMALL_DGP, s=6, gamma_grid=_SMALL_GRID)
    b = run_study(_SMALL_DGP, s=6, gamma_grid=_SMALL_GRID)
    assert study_to_json([a]) == study_to_json([b])
    assert a.failures == 0
    assert a.df == 2
    assert a.s_replications == 6
    assert set(a.rejection_rates) == {HAUSMAN, WEIGHTED_HAUSMAN}
    for kind in (HAUSMAN, WEIGHTED_HAUSMAN):
        rates = a.rejection_rates[kind]
        assert len(rates) == 3
        assert all(0.0 <= r <= 1.0 for r in rates)
        assert all(x <= y for x, y in zip(rates, rates[1:]))
        assert a.statistics[kind].shape == (6,)
        assert np.all(a.statistics[kind] >= 0.0)


@pytest.mark.parametrize("n_units, outliers", [
    (50, ContaminationConfig(scheme=CONCENTRATED_VERTICAL, n_outliers=12)),
    # N = K + 1 leaves the variance components no degrees of freedom.
    (3, ContaminationConfig(scheme=RANDOM_VERTICAL, n_outliers=2)),
], ids=["contaminated", "all_failed"])
def test_run_study_matches_per_replication_pipeline(n_units, outliers):
    # Replication r is the public pipeline on substream (seed, r); a
    # package error drops it from the statistics and counts a failure.
    dgp = DgpConfig(n_units=n_units, n_periods=3, seed=23)
    study = run_study(dgp, outliers, s=6)
    rows, failures = [], 0
    for r in range(6):
        rng = substream(dgp.seed, r)
        try:
            ds = apply_contamination(generate(dgp, rng), outliers, rng)
            fe = fit_fixed_effects(ds)
            re = fit_random_effects(ds)
            wfe = fit_weighted_fixed_effects(ds)
            rows.append((hausman_test(fe, re).statistic,
                         weighted_hausman_test(wfe, re).statistic))
        except PanelSpecError:
            failures += 1
    assert study.failures == failures
    for kind, column in ((HAUSMAN, 0), (WEIGHTED_HAUSMAN, 1)):
        expected = np.array([row[column] for row in rows])
        assert np.array_equal(study.statistics[kind], expected)


def test_run_study_counts_degenerate_weights_as_failures():
    # Every weighted fit raises DegenerateWeightsError, a package error,
    # so each replication is dropped from both tests and counted.
    with patch.object(wle, "weight_function", np.zeros_like):
        study = run_study(_SMALL_DGP, s=3)
    assert study.failures == 3
    for kind in (HAUSMAN, WEIGHTED_HAUSMAN):
        assert study.statistics[kind].shape == (0,)
        assert math.isnan(study.rejection_rates[kind][0])


def test_specification_tests_follow_kinds():
    ds = generate(DgpConfig(n_units=30, n_periods=3, seed=9))
    fe, re, tests = specification_tests(ds, (WEIGHTED_HAUSMAN, HAUSMAN))
    assert [t.kind for t in tests] == [WEIGHTED_HAUSMAN, HAUSMAN]
    assert tests[1].statistic == hausman_test(fe, re).statistic
    for kinds in ((), ("bogus",), (HAUSMAN, "bogus")):
        with pytest.raises(ConfigurationError):
            specification_tests(ds, kinds)


def test_run_study_validation():
    with pytest.raises(ValueError):
        run_study(_SMALL_DGP, s=0)
    with pytest.raises(ConfigurationError):
        run_study(_SMALL_DGP, s=2.5)
    with pytest.raises(ConfigurationError):
        run_study(_SMALL_DGP, s=True)
    with pytest.raises(ValueError):
        run_study(_SMALL_DGP, s=4, gamma_grid=())
    with pytest.raises(ValueError):
        run_study(_SMALL_DGP, s=4, gamma_grid=(0.05, 1.0))
    over = ContaminationConfig(scheme=RANDOM_VERTICAL, n_outliers=101)
    tiny = DgpConfig(n_units=25, n_periods=4, seed=21)
    with pytest.raises(TooManyOutliersError):
        run_study(tiny, over, s=4)


def test_study_serializations_agree():
    clean = run_study(_SMALL_DGP, s=5, gamma_grid=(0.05, 0.10))
    outliers = ContaminationConfig(scheme=RANDOM_VERTICAL, n_outliers=5)
    dirty = run_study(_SMALL_DGP, outliers, s=4)
    assert clean.contamination == ContaminationConfig()
    assert clean.wle_config == WleConfig()
    assert dirty.dgp == _SMALL_DGP and dirty.contamination == outliers

    runs = json.loads(study_to_json([clean, dirty]))["runs"]
    assert [run["scheme"] for run in runs] == [NO_CONTAMINATION, RANDOM_VERTICAL]
    assert (runs[0]["low"], runs[0]["high"]) == (None, None)
    assert (runs[1]["low"], runs[1]["high"]) == (10.0, 35.0)
    assert [run["s_replications"] for run in runs] == [5, 4]
    assert [run["gamma_grid"] for run in runs] == [[0.05, 0.10], [0.05]]
    for run in runs:
        assert (run["n_units"], run["n_periods"], run["seed"]) == (25, 4, 21)
        assert run["df"] == 2
        assert run["kappa"] == 0.5
        assert sorted(run["tests"]) == [HAUSMAN, WEIGHTED_HAUSMAN]

    lines = study_to_csv([clean, dirty]).strip().split("\n")
    assert lines[0] == ("test,hypothesis,n_units,n_periods,scheme,m,"
                        "gamma,rejection_rate,s,failures")
    assert len(lines) == 1 + 2 * 2 + 2 * 1
    for line in lines[1:]:
        kind, hyp, n, t, scheme, m, gamma, rate, s, failures = line.split(",")
        run = runs[0] if scheme == NO_CONTAMINATION else runs[1]
        level = run["gamma_grid"].index(float(gamma))
        assert float(rate) == run["tests"][kind]["rejection_rates"][level]
        assert (hyp, int(n), int(t), int(m), int(s), int(failures)) == (
            run["hypothesis"], run["n_units"], run["n_periods"],
            run["n_outliers"], run["s_replications"], run["failures"])

    # Numpy integers are valid sizes and reach the JSON as plain ints.
    numpy_sized = run_study(
        DgpConfig(n_units=np.int64(25), n_periods=np.int64(4),
                  seed=np.int64(21)),
        s=np.int64(5), gamma_grid=(0.05, 0.10),
    )
    assert study_to_json([numpy_sized]) == study_to_json([clean])
    with pytest.raises(ConfigurationError):
        study_to_json([])


def test_alternative_study_has_power():
    dgp = DgpConfig(
        n_units=100, n_periods=4, hypothesis=ALTERNATIVE, seed=22
    )
    study = run_study(dgp, s=30)
    assert study.rejection_rates[HAUSMAN][0] >= 0.8
    assert study.rejection_rates[WEIGHTED_HAUSMAN][0] >= 0.8
