"""Shared test utilities: panel builders, brute-force oracles and a
fresh interpreter.

The oracles deliberately avoid the package's own solver path: they go
through ``numpy.linalg`` on explicitly materialized design matrices, so
agreement with the estimators is evidence, not circularity.
"""

import os
import pathlib
import subprocess
import sys

import numpy as np
from hypothesis import settings, strategies as st

import panelspec
from panelspec import PanelDataset

# The directory this run imports panelspec from, for fresh interpreters.
SRC = str(pathlib.Path(panelspec.__file__).resolve().parents[1])

# Panel shapes and seeds for the property tests, passed to ``@given``.
# Bounds keep N(T-1) > K and N > K + 1, so every estimator is identified,
# and keep each example small enough for the fast suite.
PANEL_SHAPES = dict(
    n=st.integers(min_value=8, max_value=40),
    t=st.integers(min_value=2, max_value=5),
    k=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
# Fixed example sequence, so a run is reproducible on every host.
PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)


def make_panel(
    n, t, k, seed, beta=None, alpha_scale=1.0, noise_scale=1.0
):
    """Random balanced panel with y = X beta + alpha_i + eps.

    Regressors, unit effects, and errors are standard normal scaled by
    the given factors; ``beta`` defaults to (1, 2, ..., k).
    """
    rng = np.random.default_rng(seed)
    if beta is None:
        beta = np.arange(1.0, k + 1.0)
    beta = np.asarray(beta, dtype=float)
    x = rng.normal(size=(n, t, k))
    alpha = alpha_scale * rng.normal(size=n)
    eps = noise_scale * rng.normal(size=(n, t))
    y = x @ beta + alpha[:, np.newaxis] + eps
    units = tuple(f"u{i + 1}" for i in range(n))
    times = tuple(range(1, t + 1))
    return PanelDataset(units, times, y, x)


def lsdv_slopes(dataset):
    """Fixed-effects oracle: OLS on the regressors plus unit dummies.

    Returns only the K slope coefficients of the least-squares fit of
    the stacked response on [X, unit indicators].
    """
    n, t, k = dataset.x.shape
    y = dataset.y.reshape(n * t)
    x = dataset.x.reshape(n * t, k)
    dummies = np.kron(np.eye(n), np.ones((t, 1)))
    coef, _, _, _ = np.linalg.lstsq(np.hstack([x, dummies]), y, rcond=None)
    return coef[:k]


def normal_equations(x, y):
    """Pooled OLS oracle: solve X'X b = X'y directly."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.linalg.solve(x.T @ x, x.T @ y)


def write_long_csv(path, dataset, unit_col="unit", time_col="time",
                   y_col="y", x_prefix="x"):
    """Write a panel as a long-format CSV with full float precision."""
    n, t, k = dataset.x.shape
    lines = [",".join(
        [unit_col, time_col, y_col] + [f"{x_prefix}{j + 1}" for j in range(k)]
    )]
    for i, unit in enumerate(dataset.unit_ids):
        for s, time in enumerate(dataset.time_ids):
            vals = [repr(float(dataset.y[i, s]))]
            vals += [repr(float(v)) for v in dataset.x[i, s]]
            lines.append(",".join([str(unit), str(time)] + vals))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def run_fresh(script, env=None):
    """Run ``script`` by ``python -c`` in a fresh interpreter that imports
    the panelspec under test, with ``env`` added to this process's
    environment; require exit status 0 and return standard output."""
    env = dict(os.environ, **(env or {}))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
