"""Regenerate the frozen CSV fixtures and their recorded oracle values.

Run from the repository root:

    python3 tests/fixtures/_generate.py

The fixtures are committed; rerunning must reproduce them byte for byte.
Expected slopes are computed here with a dummy-variable regression via
``numpy.linalg.lstsq``, independent of the package's estimator path.
"""

import csv
import json
import pathlib

import numpy as np

from panelspec.mcstudy import (
    ALTERNATIVE,
    RANDOM_VERTICAL,
    ContaminationConfig,
    DgpConfig,
    apply_contamination,
    generate,
    substream,
)

HERE = pathlib.Path(__file__).resolve().parent


def write_csv(path, dataset):
    n, t, k = dataset.x.shape
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["unit", "time", "y"] + [f"x{j + 1}" for j in range(k)])
        for i in range(n):
            for s in range(t):
                writer.writerow(
                    [dataset.unit_ids[i], dataset.time_ids[s],
                     repr(float(dataset.y[i, s]))]
                    + [repr(float(dataset.x[i, s, j])) for j in range(k)]
                )


def dummy_regression_oracle(dataset):
    """Slopes and standard errors from the dummy-variable regression."""
    n, t, k = dataset.x.shape
    y = dataset.y.reshape(n * t)
    x = dataset.x.reshape(n * t, k)
    dummies = np.kron(np.eye(n), np.ones((t, 1)))
    design = np.hstack([x, dummies])
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    rss = float(resid @ resid)
    sigma2 = rss / (n * t - n - k)
    cov = sigma2 * np.linalg.inv(design.T @ design)[:k, :k]
    return {
        "beta": [float(b) for b in coef[:k]],
        "std_errors": [float(np.sqrt(cov[j, j])) for j in range(k)],
        "sigma2_eps": sigma2,
        "rss": rss,
    }


def main():
    clean_cfg = DgpConfig(n_units=50, n_periods=4, beta=(1.0, -1.5), seed=1)
    clean = generate(clean_cfg, substream(clean_cfg.seed, 0))
    write_csv(HERE / "fe_oracle.csv", clean)
    expected = dummy_regression_oracle(clean)
    expected["recipe"] = {
        "n_units": 50, "n_periods": 4, "beta": [1.0, -1.5],
        "hypothesis": "null", "seed": 1,
    }
    (HERE / "fe_oracle_expected.json").write_text(
        json.dumps(expected, indent=2, sort_keys=True) + "\n"
    )

    alt_cfg = DgpConfig(
        n_units=100, n_periods=3, beta=(1.0, -1.5),
        hypothesis=ALTERNATIVE, tau=(1.0, 1.0), seed=37,
    )
    rng = substream(alt_cfg.seed, 0)
    dirty = generate(alt_cfg, rng)
    outliers = ContaminationConfig(
        scheme=RANDOM_VERTICAL, n_outliers=15, low=4.0, high=8.0
    )
    dirty = apply_contamination(dirty, outliers, rng)
    write_csv(HERE / "contaminated_alt.csv", dirty)

    print("wrote", HERE / "fe_oracle.csv")
    print("wrote", HERE / "fe_oracle_expected.json")
    print("wrote", HERE / "contaminated_alt.csv")


if __name__ == "__main__":
    main()
