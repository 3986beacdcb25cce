"""Acceptance gate: ten go/no-go checks with printed verdicts.

Run with ``pytest -s tests/test_acceptance.py`` to see one line per
criterion. Each test prints its verdict with the measured numbers
before asserting, so a red run still reports every measurement.
"""

import json
import math
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import chi2, kstest

from panelspec import (
    WleConfig,
    chi_square_sf,
    fit_fixed_effects,
    fit_pooled_ols,
    fit_weighted_fixed_effects,
    to_stacked,
    within_transform,
)
from panelspec.inference import HAUSMAN, WEIGHTED_HAUSMAN
from panelspec.mcstudy import (
    ALTERNATIVE,
    CONCENTRATED_VERTICAL,
    RANDOM_VERTICAL,
    ContaminationConfig,
    DgpConfig,
    run_study,
)

from helpers import lsdv_slopes, make_panel, normal_equations

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"


def _report(number, label, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {label}: {verdict} ({detail})")


def test_criterion_1_small_instance_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_fe = 0.0
    worst_pooled = 0.0
    for r in range(50):
        n = int(rng.integers(3, 7))
        t = int(rng.integers(2, 5))
        k = int(rng.integers(1, 3))
        ds = make_panel(n, t, k, seed=2000 + r)
        gap_fe = float(np.max(np.abs(
            fit_fixed_effects(ds).beta - lsdv_slopes(ds)
        )))
        y = ds.y.reshape(-1)
        x = ds.x.reshape(-1, ds.n_regressors)
        gap_pooled = float(np.max(np.abs(
            fit_pooled_ols(ds).beta - normal_equations(x, y)
        )))
        worst_fe = max(worst_fe, gap_fe)
        worst_pooled = max(worst_pooled, gap_pooled)
    elapsed = time.perf_counter() - start
    ok = worst_fe < 1e-10 and worst_pooled < 1e-12 and elapsed < 5.0
    _report(1, "small-instance oracle equivalence", ok,
            f"max fe gap {worst_fe:.2e}, max pooled gap {worst_pooled:.2e}, "
            f"{elapsed:.1f}s")
    assert ok


def test_criterion_2_asymptotic_equivalence():
    start = time.perf_counter()
    gaps = []
    weight_gaps = []
    for r in range(100):
        ds = make_panel(200, 4, 2, seed=3000 + r, beta=(1.0, -1.5))
        fe = fit_fixed_effects(ds)
        wfe = fit_weighted_fixed_effects(ds, WleConfig(kappa=0.5))
        gaps.append(float(np.max(np.abs(wfe.beta - fe.beta))))
        weight_gaps.append(float(np.max(np.abs(wfe.weights - 1.0))))
    med = float(np.median(gaps))
    p95 = float(np.percentile(gaps, 95))
    med_w = float(np.median(weight_gaps))
    elapsed = time.perf_counter() - start
    ok = med < 0.02 and p95 < 0.05 and med_w < 0.2 and elapsed < 120.0
    _report(2, "weighted/unweighted asymptotic equivalence", ok,
            f"median gap {med:.4f}, p95 {p95:.4f}, "
            f"median sup|w-1| {med_w:.4f}, {elapsed:.1f}s")
    assert ok


@pytest.fixture(scope="module")
def null_study_1000():
    start = time.perf_counter()
    dgp = DgpConfig(n_units=200, n_periods=4, seed=77)
    study = run_study(dgp, s=1000, gamma_grid=(0.05,))
    return study, time.perf_counter() - start


def test_criterion_3_empirical_size(null_study_1000):
    study, elapsed = null_study_1000
    size_h = study.rejection_rates[HAUSMAN][0]
    size_w = study.rejection_rates[WEIGHTED_HAUSMAN][0]
    ok = (0.03 <= size_h <= 0.09 and 0.03 <= size_w <= 0.09
          and study.failures == 0 and elapsed < 600.0)
    _report(3, "clean null size at the 5% level", ok,
            f"hausman {size_h:.3f}, weighted {size_w:.3f}, "
            f"{study.failures} failures, {elapsed:.1f}s")
    assert ok


def test_criterion_4_clean_power():
    start = time.perf_counter()
    dgp = DgpConfig(
        n_units=100, n_periods=4, hypothesis=ALTERNATIVE, seed=78
    )
    study = run_study(dgp, s=500, gamma_grid=(0.05,))
    power_h = study.rejection_rates[HAUSMAN][0]
    power_w = study.rejection_rates[WEIGHTED_HAUSMAN][0]
    elapsed = time.perf_counter() - start
    ok = power_h >= 0.95 and power_w >= 0.95 and elapsed < 300.0
    _report(4, "clean alternative power", ok,
            f"hausman {power_h:.3f}, weighted {power_w:.3f}, {elapsed:.1f}s")
    assert ok


def test_criterion_5_contaminated_power_dominance():
    start = time.perf_counter()
    dgp = DgpConfig(
        n_units=100, n_periods=3, hypothesis=ALTERNATIVE, seed=79
    )
    outcomes = {}
    for scheme, m in ((RANDOM_VERTICAL, 15), (CONCENTRATED_VERTICAL, 30)):
        contamination = ContaminationConfig(scheme=scheme, n_outliers=m)
        study = run_study(dgp, contamination, s=500, gamma_grid=(0.05,))
        outcomes[scheme] = (
            study.rejection_rates[HAUSMAN][0],
            study.rejection_rates[WEIGHTED_HAUSMAN][0],
        )
    elapsed = time.perf_counter() - start
    ok = all(w >= h for h, w in outcomes.values()) and elapsed < 900.0
    detail = ", ".join(
        f"{scheme}: hausman {h:.3f} vs weighted {w:.3f}"
        for scheme, (h, w) in outcomes.items()
    )
    ok_text = f"{detail}, {elapsed:.1f}s"
    _report(5, "contaminated power dominance", ok, ok_text)
    assert ok


def test_criterion_6_null_distribution_shape(null_study_1000):
    study, elapsed = null_study_1000
    p_h = kstest(study.statistics[HAUSMAN], chi2(2).cdf).pvalue
    p_w = kstest(study.statistics[WEIGHTED_HAUSMAN], chi2(2).cdf).pvalue
    ok = p_h >= 0.01 and p_w >= 0.01 and elapsed < 600.0
    _report(6, "null statistics match the chi-square law", ok,
            f"KS p hausman {p_h:.3f}, weighted {p_w:.3f}, "
            f"study time {elapsed:.1f}s")
    assert ok


def test_criterion_7_tail_probability_accuracy():
    start = time.perf_counter()
    worst_df2 = max(
        abs(chi_square_sf(float(x), 2) - math.exp(-x / 2.0))
        for x in np.linspace(0.0, 100.0, 1001)
    )

    def pdf(t, df):
        return (t ** (df / 2.0 - 1.0) * math.exp(-t / 2.0)
                / (2.0 ** (df / 2.0) * math.gamma(df / 2.0)))

    worst_quad = 0.0
    for df in range(1, 11):
        for x in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 35.0, 50.0):
            oracle, _ = quad(pdf, x, np.inf, args=(df,),
                             epsabs=1e-13, epsrel=1e-12)
            worst_quad = max(worst_quad,
                             abs(chi_square_sf(x, df) - oracle))
    elapsed = time.perf_counter() - start
    ok = worst_df2 < 1e-12 and worst_quad < 1e-10 and elapsed < 5.0
    _report(7, "chi-square tail accuracy", ok,
            f"df=2 max err {worst_df2:.2e}, quadrature max err "
            f"{worst_quad:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_8_weight_trivials_and_fixed_point():
    from panelspec import raf_hellinger, weight_function

    trivials = (
        weight_function(0.0) == 1.0
        and weight_function(3.0) == 0.75
        and weight_function(-0.99) == 0.0
        and raf_hellinger(0.0) == 0.0
    )
    rng = np.random.default_rng(103)
    worst = 0.0
    converged_all = True
    for r in range(20):
        n = int(rng.integers(40, 120))
        ds = make_panel(n, 4, 2, seed=5000 + r)
        res = fit_weighted_fixed_effects(ds)
        converged_all &= res.converged
        _, x_within = to_stacked(within_transform(ds))
        score = x_within.T @ (
            res.weights.reshape(-1) * res.residuals.reshape(-1)
        )
        worst = max(worst, float(np.max(np.abs(score))))
    ok = trivials and converged_all and worst < 1e-6
    _report(8, "weight trivials and estimating-equation residual", ok,
            f"trivials {'ok' if trivials else 'bad'}, "
            f"max score {worst:.2e}")
    assert ok


def _run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "panelspec", *args],
        capture_output=True, env=env,
    )


def test_criterion_9_report_carries_comparison_fields():
    proc = _run_cli(
        "test", "--data", str(FIXTURES / "contaminated_alt.csv"),
        "--unit", "unit", "--time", "time", "--y", "y", "--x", "x1,x2",
        "--which", "both",
    )
    doc = json.loads(proc.stdout) if proc.returncode == 0 else {}
    kinds = {t.get("kind") for t in doc.get("tests", ())}
    has_tests = kinds == {"hausman", "weighted_hausman"} and all(
        "statistic" in t and "p_value" in t for t in doc.get("tests", ())
    )
    stats = doc.get("fit_statistics", {})
    has_stats = {"rss_fe", "rss_re", "r_squared_fe", "r_squared_re"} <= set(
        stats
    )
    ok = proc.returncode == 0 and has_tests and has_stats
    _report(9, "test report carries both statistics and fit summaries", ok,
            f"kinds {sorted(kinds)}, fit fields {sorted(stats)}")
    assert ok


def test_criterion_10_simulation_determinism():
    start = time.perf_counter()
    args = (
        "simulate", "--hypothesis", "alt", "--n", "100", "--t", "3",
        "--s", "60", "--contamination", "random", "--m", "15",
        "--gammas", "0.05", "--seed", "79",
    )
    one, two = {"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"}
    baseline = _run_cli(*args, env_extra=one)
    outputs = [
        _run_cli(*args, env_extra=one).stdout,
        _run_cli(*args, env_extra=two).stdout,
    ]
    elapsed = time.perf_counter() - start
    identical = all(out == baseline.stdout for out in outputs)
    ok = baseline.returncode == 0 and identical and len(baseline.stdout) > 0
    _report(10, "simulation output byte-identical across BLAS thread counts",
            ok,
            f"{len(outputs) + 1} invocations compared, {elapsed:.1f}s")
    assert ok
