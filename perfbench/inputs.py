"""Benchmark inputs and the numpy references their outputs are checked by.

The CSV panels come from this file's own seeded generator, not from
``panelspec.mcstudy``, so a change to the library's generator cannot
change what the CSV workloads measure. Values are written with
``repr`` and therefore parse back to exactly the generated floats.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BETA = (1.0, -1.5)
COLUMNS = ("unit", "time", "y", "x1", "x2")
DATA_FLAGS = ["--unit", "unit", "--time", "time", "--y", "y", "--x", "x1,x2"]

# Tolerances of the output checks.
# rss and R^2 of the within fit: the program's pivoted QR and numpy's
# SVD least squares solve the same problem on the same floats, so they
# agree to rounding; 1e-9 relative leaves room for a 100k-row sum.
FE_RTOL = 1e-9
# The weighted fit stops once a step changes beta by less than its
# tolerance (1e-6 relative), so two correct implementations can stop one
# step apart; beta must agree to ten times that tolerance, and weights,
# which move with beta through the residuals, to the same absolute size.
WFE_BETA_RTOL = 1e-5
WFE_WEIGHT_ATOL = 1e-5


@dataclass(frozen=True)
class CsvInput:
    path: Path
    rows: int
    bytes: int
    sha256: str
    y: np.ndarray
    x: np.ndarray

    def record(self) -> dict:
        return {"file": self.path.name, "rows": self.rows,
                "bytes": self.bytes, "sha256": self.sha256}


def program_seed(seed: int, i: int) -> int:
    """The ``--seed`` passed to the program on call ``i`` of a run."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0] >> 1)


def write_panel(path: Path, seed: int, index: int, n: int, t: int) -> CsvInput:
    """Clean null panel ``y = x beta + alpha_i + eps`` as a long CSV."""
    rng = np.random.default_rng([seed, index, n, t])
    x = rng.standard_normal((n, t, len(BETA)))
    alpha = rng.standard_normal(n)
    eps = rng.standard_normal((n, t))
    y = x @ np.array(BETA) + alpha[:, np.newaxis] + eps
    lines = [",".join(COLUMNS)]
    for i, (yi, xi) in enumerate(zip(y.tolist(), x.tolist())):
        unit = f"u{i + 1:06d}"
        for j in range(t):
            lines.append(f"{unit},{j + 1},{yi[j]!r},{xi[j][0]!r},{xi[j][1]!r}")
    data = ("\n".join(lines) + "\n").encode()
    path.write_bytes(data)
    return CsvInput(path, n * t, len(data), hashlib.sha256(data).hexdigest(),
                    y, x)


def _demeaned(y: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    yd = (y - y.mean(axis=1, keepdims=True)).ravel()
    xd = (x - x.mean(axis=1, keepdims=True)).reshape(yd.size, x.shape[2])
    return yd, xd


def within_reference(y: np.ndarray, x: np.ndarray) -> tuple[float, float]:
    """``(rss, r_squared)`` of the within fit by numpy least squares."""
    yd, xd = _demeaned(y, x)
    beta = np.linalg.lstsq(xd, yd, rcond=None)[0]
    resid = yd - xd @ beta
    rss = float(resid @ resid)
    tss = float(np.sum((yd - yd.mean()) ** 2))
    return rss, 1.0 - rss / tss


def _dense_kde(r: np.ndarray, h: float, block: int = 512) -> np.ndarray:
    out = np.empty_like(r)
    for s in range(0, r.size, block):
        z = (r[s:s + block, np.newaxis] - r[np.newaxis, :]) / h
        out[s:s + block] = np.exp(-0.5 * z * z).sum(axis=1)
    return out / (r.size * h * math.sqrt(2.0 * math.pi))


def wfe_reference(y: np.ndarray, x: np.ndarray, kappa: float = 0.5,
                  tol: float = 1e-6, max_iter: int = 50):
    """Hellinger weighted within fit with a dense kernel density.

    Returns ``(beta, weights of shape (N, T))``.
    """
    yd, xd = _demeaned(y, x)
    n, k = xd.shape
    beta = np.linalg.lstsq(xd, yd, rcond=None)[0]
    resid = yd - xd @ beta
    weights = np.ones(n)
    s2 = float(resid @ resid) / (n - k)
    for _ in range(max_iter):
        s = math.sqrt(s2)
        h = kappa * s
        sd = math.sqrt(s2 + h * h)
        model = np.exp(-0.5 * (resid / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = _dense_kde(resid, h) / model - 1.0
        finite = np.isfinite(delta)
        d = np.where(finite, delta, 0.0)
        w = np.minimum(1.0, np.maximum(0.0, 2.0 * np.sqrt(d + 1.0) - 1.0) / (d + 1.0))
        weights = np.where(finite, w, 0.0)
        sq = np.sqrt(weights)
        new = np.linalg.lstsq(sq[:, np.newaxis] * xd, sq * yd, rcond=None)[0]
        resid = yd - xd @ new
        sw = float(weights.sum())
        s2 = float(weights @ (resid * resid)) / (sw - k * sw / n)
        step = float(np.max(np.abs(new - beta))) / max(1.0, float(np.max(np.abs(beta))))
        beta = new
        if step < tol:
            break
    return beta, weights.reshape(y.shape)
