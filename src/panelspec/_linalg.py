"""Internal least-squares solver with an explicit rank policy.

All estimators route through :func:`lstsq_qr`, which factors the design
by column-pivoted QR and refuses to solve near-singular systems instead
of silently regularizing them. Explicit matrix inversion is avoided;
the Gram inverse is assembled from the triangular factor. LAPACK comes
from scipy's f2py extension, loaded from its file: scipy's package
``__init__``s would cost a fresh process about 0.4 s and 28 MB.
"""

from __future__ import annotations

import sys
from importlib import import_module, machinery, util

import numpy as np

from .exceptions import NonNumericValueError, RankDeficientDesignError

# Relative pivot threshold: |R[j, j]| below RCOND times the largest pivot
# marks the design as rank deficient.
RCOND = 1e-10


def _load_flapack(linalg_dir=None):
    """``scipy.linalg._flapack`` from its file in ``linalg_dir`` (scipy's
    ``linalg`` by default), or through scipy's ``__init__``s where it
    cannot load alone (Windows wheels need the DLL directory they add)."""
    # PathFinder locates scipy without running it or reading sys.modules.
    scipy = machinery.PathFinder.find_spec("scipy")
    spec = scipy and machinery.FileFinder(
        linalg_dir or f"{scipy.submodule_search_locations[0]}/linalg",
        (machinery.ExtensionFileLoader, machinery.EXTENSION_SUFFIXES),
    ).find_spec("scipy.linalg._flapack")
    try:
        module = util.module_from_spec(spec)  # AttributeError: spec is None
        spec.loader.exec_module(module)
    except (AttributeError, ImportError):
        return import_module("scipy.linalg._flapack")
    # The extension entered itself in sys.modules, where a later import
    # of scipy.linalg must not find it ahead of its package.
    if "scipy.linalg" not in sys.modules:
        sys.modules.pop(spec.name, None)
    return module


_flapack = _load_flapack()
dgeqp3, dorgqr, dtrtrs = _flapack.dgeqp3, _flapack.dorgqr, _flapack.dtrtrs


def lstsq_qr(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``min ||x b - y||`` and return ``(b, (x'x)^-1)``.

    Parameters
    ----------
    x : ndarray, shape (n, k)
        Design matrix with n >= k.
    y : ndarray, shape (n,)
        Response vector.

    Returns
    -------
    beta : ndarray, shape (k,)
    gram_inv : ndarray, shape (k, k)
        Symmetric inverse of ``x.T @ x``.

    Raises
    ------
    RankDeficientDesignError
        The design has no columns, fewer rows than columns, or a pivoted
        R diagonal entry below ``RCOND`` times the largest one.
    NonNumericValueError
        ``x`` or ``y`` is not finite (a transformation overflowed), or a
        column's norm overflows.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    n, k = x.shape
    if n < k or k == 0:
        raise RankDeficientDesignError(f"design has {n} rows but {k} columns")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise NonNumericValueError("overflow: least-squares input not finite")
    # Default workspace: up to 128 columns LAPACK runs unblocked code anyway.
    packed, jpvt, tau, _, _ = dgeqp3(np.array(x, order="F"), overwrite_a=1)
    diag = np.abs(packed.diagonal())
    if not np.isfinite(diag).all():
        raise NonNumericValueError(
            "overflow: least-squares column norm not finite"
        )
    if diag[0] == 0.0 or diag.min() < RCOND * diag.max():
        raise RankDeficientDesignError(
            "design matrix is rank deficient (collinear or constant "
            f"columns): pivoted diagonal {diag}"
        )
    # dtrtrs reads only R's triangle of packed; dorgqr then overwrites it.
    r_inv, _ = dtrtrs(packed, np.eye(k, order="F"), overwrite_b=1)
    q, _, _ = dorgqr(packed, tau, overwrite_a=1)
    inv = np.argsort(jpvt)  # column j of x is pivoted column inv[j]
    beta = (r_inv @ (q.T @ y))[inv]
    gram_inv = (r_inv @ r_inv.T)[inv[:, np.newaxis], inv]
    # Exact symmetry keeps downstream eigendecompositions honest.
    return beta, 0.5 * (gram_inv + gram_inv.T)
