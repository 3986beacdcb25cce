"""Internal least-squares solver with an explicit rank policy.

All estimators route through :func:`lstsq_qr`, which factors the design
by column-pivoted QR and refuses to solve near-singular systems instead
of silently regularizing them. Explicit matrix inversion is avoided;
the Gram inverse is assembled from the triangular factor. LAPACK, and
``ndtri`` for the Monte Carlo draws, come from scipy's extensions, which
:func:`_scipy_extension` loads without scipy's package ``__init__``s:
those would cost a fresh process up to 0.4 s and 28 MB.
"""

from __future__ import annotations

import sys
import types
from importlib import import_module, machinery

import numpy as np

from .exceptions import NonNumericValueError, RankDeficientDesignError

# Relative pivot threshold: |R[j, j]| below RCOND times the largest pivot
# marks the design as rank deficient.
RCOND = 1e-10


def _scipy_extension(name: str):
    """Extension module ``name``, ``scipy.<package>.<module>``, loaded
    without running scipy's package ``__init__``s.

    An extension imports its sibling extensions through its package, so
    a bare stand-in, on the path found by locating scipy without
    importing it, serves as the package for the one import. The stand-in
    and what the import added under it then leave ``sys.modules``, so a
    later ``import scipy.<package>`` runs as usual and binds the same
    extension objects. If the package is imported already, or the
    extension cannot load alone (another scipy layout, or a Windows
    wheel that needs its package's DLL directory), ``name`` is imported
    through its package.
    """
    package = name.rpartition(".")[0]
    if package not in sys.modules:
        before = set(sys.modules)
        stand_in = sys.modules[package] = types.ModuleType(package)
        try:
            scipy = machinery.PathFinder.find_spec("scipy")  # None: no scipy
            home = scipy.submodule_search_locations[0]
            stand_in.__path__ = [f"{home}/{package.removeprefix('scipy.')}"]
            return import_module(name)
        except (AttributeError, ImportError):
            pass  # import the package
        finally:
            for added in set(sys.modules) - before:
                if added == package or added.startswith(f"{package}."):
                    del sys.modules[added]
    return import_module(name)


_flapack = _scipy_extension("scipy.linalg._flapack")
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
        Symmetric inverse of ``x.T @ x``; not finite where it overflows.

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
    with np.errstate(over="ignore", invalid="ignore"):  # see _fit_result
        gram_inv = (r_inv @ r_inv.T)[inv[:, np.newaxis], inv]
        # Exact symmetry keeps downstream eigendecompositions honest.
        return beta, 0.5 * (gram_inv + gram_inv.T)
