"""The least-squares solver against scipy's QR path, bit for bit."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import qr, solve_triangular

from panelspec._linalg import RCOND, lstsq_qr
from panelspec.exceptions import NonNumericValueError, RankDeficientDesignError

from helpers import run_fresh

LAYOUTS = ("C", "F", "strided")


def scipy_lstsq_qr(x, y):
    """The solver as written on ``scipy.linalg.qr`` and ``solve_triangular``.

    ``lstsq_qr`` calls the LAPACK routines behind these two functions
    directly; it must return the same bits.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    k = x.shape[1]
    q, r, piv = qr(x, mode="economic", pivoting=True)
    r_inv = solve_triangular(r, np.eye(k), lower=False)
    beta = np.empty(k)
    beta[piv] = r_inv @ (q.T @ y)
    gram_inv = np.empty((k, k))
    gram_inv[np.ix_(piv, piv)] = r_inv @ r_inv.T
    return beta, 0.5 * (gram_inv + gram_inv.T), np.abs(np.diag(r))


def _design(n, k, seed, log_scales, layout):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, k)) * 10.0 ** np.asarray(log_scales)
    y = rng.normal(size=n)
    if layout == "F":
        x = np.asfortranarray(x)
    elif layout == "strided":
        x = np.repeat(x, 2, axis=1)[:, ::2]
        y = np.repeat(y, 2)[::2]
    return x, y


@st.composite
def designs(draw):
    k = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=k, max_value=300))
    log_scales = draw(st.lists(st.floats(-4.0, 4.0), min_size=k, max_size=k))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return _design(n, k, seed, log_scales, draw(st.sampled_from(LAYOUTS)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(designs())
def test_lstsq_qr_equals_scipy_path_bitwise(design):
    x, y = design
    x_before, y_before = x.copy(), y.copy()
    beta_ref, gram_ref, diag = scipy_lstsq_qr(x, y)
    if diag.min() < RCOND * diag.max():
        with pytest.raises(RankDeficientDesignError):
            lstsq_qr(x, y)
    else:
        beta, gram_inv = lstsq_qr(x, y)
        assert np.array_equal(beta, beta_ref)
        assert np.array_equal(gram_inv, gram_ref)
    np.testing.assert_array_equal(x, x_before)
    np.testing.assert_array_equal(y, y_before)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("n,k", [(300, 2), (800, 4), (3, 3)])
def test_lstsq_qr_equals_scipy_path_on_benchmark_shapes(n, k, layout):
    x, y = _design(n, k, 7, np.zeros(k), layout)
    beta, gram_inv = lstsq_qr(x, y)
    beta_ref, gram_ref, _ = scipy_lstsq_qr(x, y)
    assert np.array_equal(beta, beta_ref)
    assert np.array_equal(gram_inv, gram_ref)
    assert np.array_equal(gram_inv, gram_inv.T)


@pytest.mark.parametrize("x,match", [
    (np.column_stack([np.arange(6.0), 2.0 * np.arange(6.0)]), "rank deficient"),
    (np.column_stack([np.arange(6.0), np.zeros(6)]), "rank deficient"),
    (np.zeros((6, 2)), "rank deficient"),
    (np.ones((2, 3)), "2 rows but 3 columns"),
    (np.ones((4, 0)), "4 rows but 0 columns"),
])
def test_lstsq_qr_rejects_unidentified_designs(x, match):
    with pytest.raises(RankDeficientDesignError, match=match):
        lstsq_qr(x, np.ones(x.shape[0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["x", "y"])
def test_lstsq_qr_rejects_non_finite_inputs(bad, where):
    x, y = _design(10, 2, 0, np.zeros(2), "C")
    if where == "x":
        x[3, 1] = bad
    else:
        y[3] = bad
    with pytest.raises(NonNumericValueError, match="not finite"):
        lstsq_qr(x, y)


# Each extension that _linalg._scipy_extension loads, as a fresh
# interpreter uses it: code that defines use(), a computation on it, and
# code that loads it again for the next use(); its routine as bound, and
# as its package exposes it.
_EXTENSIONS = {
    "scipy.linalg._flapack": SimpleNamespace(
        setup="""
from panelspec import _linalg
rng = np.random.default_rng(5)
x, y = rng.normal(size=(300, 3)), rng.normal(size=300)
use = lambda: _linalg.lstsq_qr(x, y)
""",
        reload="""
flapack = _linalg._scipy_extension("scipy.linalg._flapack")
_linalg.dgeqp3, _linalg.dorgqr, _linalg.dtrtrs = (
    flapack.dgeqp3, flapack.dorgqr, flapack.dtrtrs)
""",
        bound="_linalg.dgeqp3",
        public="scipy.linalg._flapack.dgeqp3",
    ),
    "scipy.special._ufuncs": SimpleNamespace(
        setup="""
from panelspec import mcstudy
use = lambda: [mcstudy.standard_normal(mcstudy.substream(3, 0), 1000)]
""",
        reload="mcstudy._ndtri.cache_clear(); mcstudy._ndtri()",
        bound="mcstudy._ndtri()",
        public="scipy.special.ndtri",
    ),
}


def _run_with(name, script):
    """Run ``script`` after the setup of extension ``name`` and a first
    ``before = use()``, in a fresh interpreter where warnings are errors."""
    ext = _EXTENSIONS[name]
    run_fresh("""
import sys, warnings
warnings.simplefilter("error")
import numpy as np
from panelspec import _linalg
""" + ext.setup + """
before = use()
""" + script.format(package=name.rpartition(".")[0], **vars(ext)) + """
assert all(np.array_equal(a, b) for a, b in zip(before, use()))
""")


@pytest.mark.parametrize("name", sorted(_EXTENSIONS))
def test_a_later_package_import_binds_the_loaded_extension(name):
    # The package __init__ runs as usual after the bare load, and its
    # extension is the very module object that was loaded.
    _run_with(name, """
assert not any(m.startswith("{package}") for m in sys.modules)
import scipy.linalg, scipy.special, scipy.stats
assert {public} is {bound}
{reload}
""")


@pytest.mark.parametrize("name", sorted(_EXTENSIONS))
def test_extension_falls_back_to_the_package_import(name):
    # With scipy not found on the path, the package import serves.
    _run_with(name, """
from types import SimpleNamespace
_linalg.machinery = SimpleNamespace(
    PathFinder=SimpleNamespace(find_spec=lambda name: None))
{reload}
assert "{package}" in sys.modules
""")
