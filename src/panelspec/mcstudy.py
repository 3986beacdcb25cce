"""Monte Carlo size and power studies for the specification tests.

Provides the data-generating process under both hypotheses (exogenous
and correlated unit effects), ``apply_contamination``, which places
either vertical-outlier scheme, ``specification_tests``, the one
fit-and-contrast sequence behind every replication and ``panelspec
test``, ``run_study``, which runs it over many replications and
tabulates rejection rates on a grid of nominal levels, and the JSON and
CSV reports of a list of studies, which the library and ``panelspec
simulate`` write alike.

Reproducibility contract: every replication draws from its own
substream derived from ``(master seed, replication index)``, normal
variates are produced by the inverse CDF from 53-bit uniforms, and the
replications run one after another in replication order. Outputs are
therefore byte-identical for a given seed.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ._linalg import _scipy_extension
from .data import PanelDataset
from .estimators import (
    EstimateResult,
    fit_fixed_effects,
    fit_random_effects,
)
from .exceptions import (
    ConfigurationError,
    PanelSpecError,
    TooManyOutliersError,
    require_count,
)
from .inference import (
    HAUSMAN,
    WEIGHTED_HAUSMAN,
    TestResult,
    hausman_test,
    weighted_hausman_test,
)
from .wle import WleConfig, fit_weighted_fixed_effects

__all__ = [
    "NULL",
    "ALTERNATIVE",
    "NO_CONTAMINATION",
    "RANDOM_VERTICAL",
    "CONCENTRATED_VERTICAL",
    "DgpConfig",
    "ContaminationConfig",
    "StudyResult",
    "standard_normal",
    "substream",
    "generate",
    "apply_contamination",
    "specification_tests",
    "run_study",
    "study_to_json",
    "study_to_csv",
]

NULL = "null"
ALTERNATIVE = "alternative"

NO_CONTAMINATION = "none"
RANDOM_VERTICAL = "random"
CONCENTRATED_VERTICAL = "concentrated"

_DEFAULT_BOUNDS = {
    RANDOM_VERTICAL: (10.0, 35.0),
    CONCENTRATED_VERTICAL: (17.0, 18.0),
}


def _require_finite(name: str, values: tuple[float, ...]) -> None:
    """Reject a design value that is infinite or NaN."""
    if not all(math.isfinite(v) for v in values):
        raise ConfigurationError(f"{name} must be finite, got {values}")


@dataclass(frozen=True)
class DgpConfig:
    """Design of one data-generating process.

    Attributes
    ----------
    n_units, n_periods : int
        Panel dimensions N and T.
    beta : tuple of float
        Slope vector; its length fixes the number of regressors.
    hypothesis : str
        ``NULL`` draws unit effects independent of the regressors;
        ``ALTERNATIVE`` makes each unit effect the time average of
        ``x @ tau`` plus noise, so the effects are correlated with the
        regressors and the specification tests should reject.
    tau : tuple of float
        Correlation loadings under the alternative; same length as
        ``beta``. All zeros reproduces the null draw for draw.
    seed : int
        Master seed; replication ``r`` uses the substream
        ``(seed, r)``.
    """

    n_units: int
    n_periods: int
    beta: tuple[float, ...] = (1.0, -1.5)
    hypothesis: str = NULL
    tau: tuple[float, ...] = (1.0, 1.0)
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))
        object.__setattr__(self, "tau", tuple(float(v) for v in self.tau))
        require_count("n_units", self.n_units, 2)
        require_count("n_periods", self.n_periods, 2)
        require_count("seed", self.seed, 0)
        if not self.beta:
            raise ConfigurationError("beta must be nonempty")
        _require_finite("beta", self.beta)
        _require_finite("tau", self.tau)
        if self.hypothesis not in (NULL, ALTERNATIVE):
            raise ConfigurationError(f"unknown hypothesis {self.hypothesis!r}")
        if self.hypothesis == ALTERNATIVE and len(self.tau) != len(self.beta):
            raise ConfigurationError(
                f"tau has length {len(self.tau)}, expected {len(self.beta)}"
            )


@dataclass(frozen=True)
class ContaminationConfig:
    """Vertical-outlier scheme applied after generation.

    Attributes
    ----------
    scheme : str
        ``NO_CONTAMINATION``, ``RANDOM_VERTICAL`` (replace m response
        cells chosen uniformly over the panel), or
        ``CONCENTRATED_VERTICAL`` (replace blocks of ceil(T/2)
        consecutive responses in randomly chosen units until exactly m
        cells are replaced; the last unit may get a shorter block).
    n_outliers : int
        Exact number of replaced cells m.
    low, high : float, optional
        Replacement values are drawn uniformly from [low, high).
        Defaults, set at construction: (10, 35) for the random scheme,
        (17, 18) for the concentrated one; ``NO_CONTAMINATION`` has none.
    """

    scheme: str = NO_CONTAMINATION
    n_outliers: int = 0
    low: Optional[float] = None
    high: Optional[float] = None

    def __post_init__(self) -> None:
        if self.scheme not in (
            NO_CONTAMINATION,
            RANDOM_VERTICAL,
            CONCENTRATED_VERTICAL,
        ):
            raise ConfigurationError(f"unknown scheme {self.scheme!r}")
        require_count("n_outliers", self.n_outliers, 0)
        if self.scheme == NO_CONTAMINATION:
            if self.n_outliers != 0:
                raise ConfigurationError("scheme 'none' cannot place outliers")
            if (self.low, self.high) != (None, None):
                raise ConfigurationError("scheme 'none' takes no low or high")
        if (self.low is None) != (self.high is None):
            raise ConfigurationError("low and high must be given together")
        if self.low is None:
            low, high = _DEFAULT_BOUNDS.get(self.scheme, (None, None))
        else:
            _require_finite("low and high", (self.low, self.high))
            if not self.low < self.high:
                raise ConfigurationError(
                    f"need low < high, got [{self.low}, {self.high})"
                )
            low, high = float(self.low), float(self.high)
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "high", high)


def substream(seed: int, replication: int) -> np.random.Generator:
    """Independent generator for one replication of one study."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence((seed, replication)))
    )


def standard_normal(rng: np.random.Generator, size) -> np.ndarray:
    """Standard normals by inverse CDF from 53-bit uniforms.

    The uniform is ``(2k + 1) / 2^54`` for a 53-bit integer ``k``, on the
    2^-53 grid from ``k = 2^52`` on, and clamped below 1, which the top
    ``k`` rounds to; so the quantile function never sees 0 or 1. Unlike
    rejection samplers, consumption from the stream is one draw per
    variate on every platform.
    """
    k = rng.integers(0, 1 << 53, size=size, dtype=np.int64)
    u = (2.0 * k + 1.0) * (2.0 ** -54)
    return _ndtri()(np.minimum(u, 1.0 - 2.0 ** -53))  # nextafter(1, 0)


@functools.cache
def _ndtri():
    """scipy's ``ndtri`` ufunc, loaded on the first draw, not at import."""
    return _scipy_extension("scipy.special._ufuncs").ndtri


def _uniform(
    rng: np.random.Generator, low: float, high: float, size
) -> np.ndarray:
    return low + (high - low) * rng.random(size)


@functools.lru_cache(maxsize=16)
def _labels(n: int, t: int) -> tuple[tuple[str, ...], tuple[int, ...]]:
    return tuple(f"u{i + 1:04d}" for i in range(n)), tuple(range(1, t + 1))


def generate(
    cfg: DgpConfig, rng: Optional[np.random.Generator] = None
) -> PanelDataset:
    """Panel ``y = X @ beta + alpha + eps`` under ``cfg.hypothesis``.

    Draws, in order: regressors X (N, T, K), unit shocks eta (N,) and
    idiosyncratic errors eps (N, T), all standard normal. Under ``NULL``
    the unit effect is ``alpha = eta``, independent of the regressors;
    under ``ALTERNATIVE`` it is ``alpha_i = mean_t(x_it' tau) + eta_i``.
    With ``tau = 0`` the two hypotheses give the same panel bit for bit.
    ``rng`` defaults to the substream ``(cfg.seed, 0)``.
    """
    rng = rng if rng is not None else substream(cfg.seed, 0)
    n, t, k = cfg.n_units, cfg.n_periods, len(cfg.beta)
    x = standard_normal(rng, (n, t, k))
    alpha = standard_normal(rng, n)
    eps = standard_normal(rng, (n, t))
    # A large beta or tau can overflow y; PanelDataset then refuses it.
    with np.errstate(over="ignore", invalid="ignore"):
        if cfg.hypothesis == ALTERNATIVE:
            alpha = (x @ np.array(cfg.tau)).mean(axis=1) + alpha
        y = x @ np.array(cfg.beta) + alpha[:, np.newaxis] + eps
    units, times = _labels(n, t)
    return PanelDataset(units, times, y, x)


def _require_capacity(cfg: ContaminationConfig, n: int, t: int) -> int:
    """Reject more outliers than ``cfg``'s scheme can place in N x T cells.

    Returns the most cells one unit can take: all T for the random
    scheme, one block of ceil(T / 2) for the concentrated one.
    """
    m = cfg.n_outliers
    if cfg.scheme == CONCENTRATED_VERTICAL:
        b = (t + 1) // 2
        if m > n * b:
            raise TooManyOutliersError(
                f"cannot place {m} outliers in blocks of {b} over {n} units"
            )
        return b
    if m > n * t:
        raise TooManyOutliersError(
            f"cannot place {m} outliers in {n * t} cells"
        )
    return t


def apply_contamination(
    dataset: PanelDataset,
    cfg: Optional[ContaminationConfig],
    rng: np.random.Generator,
) -> PanelDataset:
    """Replace ``m = cfg.n_outliers`` responses by uniform draws.

    The random scheme draws the cell positions first (a permutation
    prefix over the N*T cells in unit-major order), then the values.
    The concentrated one replaces blocks of ``b = ceil(T / 2)``
    consecutive responses, so every contaminated unit has at least
    half its responses replaced, except possibly one remainder unit
    that takes ``m mod b`` cells so that exactly ``m`` cells change; it
    draws the units (a permutation prefix), then per unit its block
    start and its values. None, scheme 'none' and ``m = 0`` return the
    dataset unchanged without consuming draws.

    Raises
    ------
    TooManyOutliersError
        ``m`` exceeds the scheme's capacity: ``N * T`` cells, or
        ``N * b`` for the concentrated scheme.
    """
    if cfg is None:
        return dataset
    n, t = dataset.y.shape
    b = _require_capacity(cfg, n, t)
    m = cfg.n_outliers
    if m == 0:  # always so for scheme 'none'
        return dataset
    low, high = cfg.low, cfg.high
    y = dataset.y.copy()
    if cfg.scheme == RANDOM_VERTICAL:
        cells = rng.permutation(n * t)[:m]
        y.reshape(-1)[cells] = _uniform(rng, low, high, m)
    else:
        full, rem = divmod(m, b)
        chosen = rng.permutation(n)[: full + (1 if rem else 0)]
        for j, unit in enumerate(chosen):
            length = b if j < full else rem
            start = int(rng.integers(0, t - length + 1))
            y[unit, start : start + length] = _uniform(rng, low, high, length)
    return PanelDataset(dataset.unit_ids, dataset.time_ids, y, dataset.x)


@dataclass(frozen=True)
class StudyResult:
    """Tabulated outcome of one Monte Carlo study.

    Attributes
    ----------
    gamma_grid : tuple of float
        Nominal levels the rejection rates are evaluated at.
    rejection_rates : dict
        Per test kind, a tuple parallel to ``gamma_grid`` with the
        fraction of successful replications whose p-value is at or
        below the level.
    statistics : dict
        Per test kind, the realized statistics of the successful
        replications, in replication order.
    s_replications : int
        Number of replications requested.
    failures : int
        Replications aborted by estimation errors; excluded from the
        rates' denominators.
    dgp, contamination, wle_config
        The design the study ran, which its report carries.
    """

    gamma_grid: tuple[float, ...]
    rejection_rates: dict[str, tuple[float, ...]]
    statistics: dict[str, np.ndarray] = field(repr=False)
    s_replications: int
    failures: int
    dgp: DgpConfig
    contamination: ContaminationConfig
    wle_config: WleConfig

    @property
    def df(self) -> int:
        """Degrees of freedom of both tests (number of regressors)."""
        return len(self.dgp.beta)


def specification_tests(
    dataset: PanelDataset,
    kinds: Sequence[str] = (HAUSMAN, WEIGHTED_HAUSMAN),
    wle_config: Optional[WleConfig] = None,
) -> tuple[EstimateResult, EstimateResult, list[TestResult]]:
    """Fit FE and RE once, and WFE for ``WEIGHTED_HAUSMAN`` only; return
    ``(fe, re, tests)``, one test per entry of ``kinds``, in its order.

    An empty ``kinds`` or an unknown kind raises ``ConfigurationError``.
    """
    # Looked up per call, so a wrapper set on this module sees the calls.
    tests = {HAUSMAN: hausman_test, WEIGHTED_HAUSMAN: weighted_hausman_test}
    if not kinds or not set(kinds) <= tests.keys():
        raise ConfigurationError(f"unknown or no test kinds: {kinds!r}")
    fe = fit_fixed_effects(dataset)
    re = fit_random_effects(dataset)
    robust = {HAUSMAN: fe}
    if WEIGHTED_HAUSMAN in kinds:
        wfe = fit_weighted_fixed_effects(dataset, wle_config)
        robust[WEIGHTED_HAUSMAN] = wfe
    return fe, re, [tests[kind](robust[kind], re) for kind in kinds]


def run_study(
    dgp: DgpConfig,
    contamination: Optional[ContaminationConfig] = None,
    *,
    s: int = 1000,
    gamma_grid: Sequence[float] = (0.05,),
    wle_config: Optional[WleConfig] = None,
) -> StudyResult:
    """Run both specification tests over ``s`` replications.

    Replication ``r`` generates a panel from ``dgp``'s substream
    ``(seed, r)``, applies the contamination with the same stream,
    and runs both tests on it with :func:`specification_tests`. The
    replications run serially in order ``r = 0, ..., s - 1``.
    Replications that abort with a package error count as failures and
    are excluded from the rejection rates.

    Parameters
    ----------
    contamination, wle_config : optional
        None means no contamination and the default weighted fit; the
        result records the configs that were used.
    """
    require_count("s", s, 1)
    gammas = tuple(float(g) for g in gamma_grid)
    if not gammas or any(not (0.0 < g < 1.0) for g in gammas):
        raise ConfigurationError(f"levels must lie in (0, 1), got {gammas}")
    contamination = contamination or ContaminationConfig()
    wle_config = wle_config or WleConfig()
    _require_capacity(contamination, dgp.n_units, dgp.n_periods)

    kinds = (HAUSMAN, WEIGHTED_HAUSMAN)
    kept = []
    for r in range(s):
        rng = substream(dgp.seed, r)
        try:
            ds = apply_contamination(generate(dgp, rng), contamination, rng)
            kept.append(specification_tests(ds, kinds, wle_config)[2])
        except PanelSpecError:
            continue
    statistics, rejection_rates = {}, {}
    for j, kind in enumerate(kinds):
        statistics[kind] = np.array([tests[j].statistic for tests in kept])
        pvals = np.array([tests[j].p_value for tests in kept])
        rejection_rates[kind] = tuple(
            float(np.mean(pvals <= g)) if kept else math.nan for g in gammas
        )
    return StudyResult(
        gamma_grid=gammas,
        rejection_rates=rejection_rates,
        statistics=statistics,
        s_replications=s,
        failures=s - len(kept),
        dgp=dgp,
        contamination=contamination,
        wle_config=wle_config,
    )


def _run_document(result: StudyResult) -> dict:
    """One study's entry in the ``runs`` list: its design and results."""
    dgp, cont = result.dgp, result.contamination
    # int() and float() let numpy scalars in a config reach the JSON.
    return {
        "hypothesis": dgp.hypothesis,
        "n_units": int(dgp.n_units),
        "n_periods": int(dgp.n_periods),
        "scheme": cont.scheme,
        "n_outliers": int(cont.n_outliers),
        "low": cont.low,
        "high": cont.high,
        "seed": int(dgp.seed),
        "kappa": float(result.wle_config.kappa),
        "s_replications": int(result.s_replications),
        "failures": int(result.failures),
        "df": result.df,
        "gamma_grid": list(result.gamma_grid),
        "tests": {
            kind: {
                # NaN (every replication failed) is not JSON: write null.
                "rejection_rates": [
                    None if math.isnan(r) else r
                    for r in result.rejection_rates[kind]
                ],
                "statistics": result.statistics[kind].tolist(),
            }
            for kind in sorted(result.statistics)
        },
    }


def study_to_json(results: Sequence[StudyResult]) -> str:
    """The ``simulate`` JSON report: ``{"runs": [...]}``, one run per study.

    Keys are sorted, so the text is deterministic; it validates against
    ``schemas/simulate_report.schema.json``, which needs at least one
    run, so an empty ``results`` raises ``ConfigurationError``.
    """
    if not results:
        raise ConfigurationError("a study report needs at least one study")
    runs = [_run_document(result) for result in results]
    return json.dumps({"runs": runs}, indent=2, sort_keys=True) + "\n"


def study_to_csv(results: Sequence[StudyResult]) -> str:
    """The ``simulate`` CSV report: one row per study, test and level, read
    from the study's ``runs`` entry in the JSON (a null rate is ``nan``).
    Studies keep their order, tests come sorted and levels in grid order.
    """
    rows = []
    for run in map(_run_document, results):
        design = [run["hypothesis"], run["n_units"], run["n_periods"],
                  run["scheme"], run["n_outliers"]]
        for kind, test in run["tests"].items():
            for gamma, rate in zip(run["gamma_grid"], test["rejection_rates"]):
                rows.append([kind, *design, gamma,
                             math.nan if rate is None else rate,
                             run["s_replications"], run["failures"]])
    return _csv_text(["test", "hypothesis", "n_units", "n_periods", "scheme",
                      "m", "gamma", "rejection_rate", "s", "failures"], rows)


def _csv_text(header: Sequence[str], rows) -> str:
    """CSV text of ``header`` then ``rows``: the one writer behind every
    ``--format csv`` report. Floats go by ``repr`` and so read back exact."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()
