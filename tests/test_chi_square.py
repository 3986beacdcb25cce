"""The closed-form chi-square tail against scipy's incomplete gamma
function and a 200-bit reference."""

import math
import warnings

import mpmath
from hypothesis import assume, example, given, strategies as st
from scipy.special import gammaincc

from panelspec.inference import chi_square_sf

from helpers import PROPERTY_SETTINGS


# The closed form rounds each exponent, about -y with y = x/2, and the
# root sqrt(y) for erfc: up to 9.3e-14 relative at x near 1400. Summing
# the exponent as (k log y - y) - lgamma(k + 1) rounds twice at that
# size: 1.1e-13 at the first two examples. gammaincc rounds its own
# prefactor near -y too, and lies up to 1.14e-13 from the exact tail
# (last example), so the two may differ by twice such an error.
@PROPERTY_SETTINGS
@given(df=st.integers(1, 30), x=st.floats(0.0, 2000.0))
@example(df=6, x=1057.58)
@example(df=12, x=1251.42)
@example(df=1, x=1370.82)
@example(df=6, x=1090.22)
def test_chi_square_sf_matches_the_incomplete_gamma_function(df, x):
    ref = float(gammaincc(df / 2.0, x / 2.0))
    assume(ref > 1e-300)
    with mpmath.workprec(200):
        exact = float(mpmath.gammainc(mpmath.mpf(df) / 2, mpmath.mpf(x) / 2,
                                      regularized=True))
    got = chi_square_sf(x, df)
    assert abs(got - exact) <= 1e-13 * exact
    assert abs(got - ref) <= max(1e-13, x * 2.0**-52) * ref


@PROPERTY_SETTINGS
@given(x=st.floats(0.0, 1e4))
@example(x=3.2)
@example(x=10.0)
def test_two_degrees_of_freedom_is_exactly_exp(x):
    assert chi_square_sf(x, 2) == math.exp(-x / 2)


def test_chi_square_sf_ends():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for df in range(1, 31):
            assert chi_square_sf(0.0, df) == 1.0
            assert chi_square_sf(1e300, df) == 0.0
        assert chi_square_sf(1e300, 1001) == 0.0
