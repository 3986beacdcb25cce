"""Exception types raised across the package.

Every error that signals a violated contract derives from
:class:`PanelSpecError`, so callers (and the command line front end) can
catch one base class and report the message. ``require_count`` is the
one check of a count argument.
"""

from __future__ import annotations

import numbers


class PanelSpecError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(PanelSpecError, ValueError):
    """A configuration value or argument is outside its allowed set."""


def require_count(name: str, value, least: int) -> None:
    """Reject a count that is a bool, not an integer or below ``least``."""
    integral = isinstance(value, numbers.Integral)
    if not integral or isinstance(value, bool) or value < least:
        raise ConfigurationError(
            f"{name} must be an integer >= {least}, got {value!r}"
        )


# --- data loading and dataset construction -------------------------------

class SchemaError(PanelSpecError):
    """A file or column schema is malformed, or they do not match."""


class MissingCellError(PanelSpecError):
    """The panel is unbalanced: some (unit, time) cell has no row."""


class DuplicateCellError(PanelSpecError):
    """A (unit, time) cell appears more than once."""


class NonNumericValueError(PanelSpecError):
    """A response or regressor value could not be read as a finite number."""


class TooFewUnitsOrPeriodsError(PanelSpecError):
    """The panel is too small to identify the models (N, T, or df bound)."""


class InterceptColumnError(PanelSpecError):
    """A regressor column is globally constant.

    Constant columns are annihilated by demeaning and make the design
    singular; unit intercepts are handled by the transformations, so a
    constant regressor is rejected at construction time.
    """


# --- transformations -------------------------------------------------------

class ThetaOutOfRangeError(PanelSpecError):
    """A quasi-demeaning parameter outside [0, 1] was supplied."""


class ZeroIdiosyncraticVarianceError(PanelSpecError):
    """The idiosyncratic variance is zero or negative; theta is undefined."""


# --- estimation ------------------------------------------------------------

class RankDeficientDesignError(PanelSpecError):
    """The (transformed) design matrix does not have full column rank."""


class InsufficientDegreesOfFreedomError(PanelSpecError):
    """Too few observations or units for the requested variance estimate."""


# --- weighted-likelihood machinery ----------------------------------------

class EmptySampleError(PanelSpecError):
    """A residual sample with fewer points than required was supplied."""


class NonpositiveBandwidthError(PanelSpecError):
    """A kernel bandwidth that must be positive was not."""


class NonpositiveScaleError(PanelSpecError):
    """A scale parameter that must be positive was not."""


class DeltaOutOfRangeError(PanelSpecError):
    """A Pearson residual at or below -1 was supplied to the RAF."""


class DegenerateWeightsError(PanelSpecError):
    """The weight mass collapsed: sum of weights does not exceed K."""


# --- inference -------------------------------------------------------------

class DimensionMismatchError(PanelSpecError):
    """Two estimates to be contrasted have different coefficient lengths."""


class MethodMismatchError(PanelSpecError):
    """An estimate produced by the wrong estimator was supplied to a test."""


class NegativeArgumentError(PanelSpecError):
    """A chi-square statistic argument below zero was supplied."""


class ZeroTotalVariationError(PanelSpecError):
    """The transformed response has no variation; R^2 is undefined."""


# --- Monte Carlo -----------------------------------------------------------

class TooManyOutliersError(PanelSpecError):
    """More contaminated cells were requested than the scheme can place."""
