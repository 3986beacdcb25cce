"""Command-line front end.

Three subcommands: ``fit`` estimates one model on a long-format CSV,
``test`` runs the specification tests, and ``simulate`` launches a
Monte Carlo study. JSON on standard output is the primary interface;
``--format csv`` renders the same report document flat, for spreadsheet
or plotting pipelines. Exit codes: 0 success, 1 data, configuration or estimation
error (one line on standard error), 2 usage error. Any other exception
is a bug and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import inf
from typing import Optional, Sequence

from .data import ColumnSchema, load_long_csv
from .estimators import (
    EstimateResult,
    fit_fixed_effects,
    fit_pooled_ols,
    fit_random_effects,
)
from .exceptions import PanelSpecError
from .inference import HAUSMAN, WEIGHTED_HAUSMAN
from .mcstudy import (
    ALTERNATIVE,
    CONCENTRATED_VERTICAL,
    NO_CONTAMINATION,
    NULL,
    RANDOM_VERTICAL,
    ContaminationConfig,
    DgpConfig,
    _csv_text,
    run_study,
    specification_tests,
    study_to_csv,
    study_to_json,
)
from .wle import HELLINGER, WleConfig, fit_weighted_fixed_effects

__all__ = ["main", "build_parser", "cmd_fit", "cmd_test", "cmd_simulate"]

_METHODS = {
    "pooled": fit_pooled_ols,
    "fe": fit_fixed_effects,
    "re": fit_random_effects,
}

# The tests each --which choice runs, in report order.
_WHICH = {"hausman": (HAUSMAN,), "weighted": (WEIGHTED_HAUSMAN,),
          "both": (HAUSMAN, WEIGHTED_HAUSMAN)}

# Preset study grids for the simulate subcommand (--paper-figure):
# 1 and 2 sweep the cross-sectional size on clean data (size and power);
# 4 and 5 sweep contamination schemes on a fixed 100 x 3 panel.
_CLEAN_GAMMAS = (0.05, 0.10, 0.15, 0.20)
_CONTAMINATED_GAMMAS = (0.01, 0.02, 0.05, 0.10, 0.15, 0.20, 0.25)
_PRESET_N_GRID = (25, 50, 75, 100, 150, 200)


def _comma_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of numbers, got {text!r}"
        ) from None


def _comma_names(text: str) -> tuple[str, ...]:
    names = tuple(v.strip() for v in text.split(",") if v.strip())
    if not names:
        raise argparse.ArgumentTypeError("expected at least one column name")
    return names


def _add_data_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", required=True, help="long-format CSV file")
    parser.add_argument("--unit", required=True, help="unit id column")
    parser.add_argument("--time", required=True, help="time id column")
    parser.add_argument("--y", required=True, help="response column")
    parser.add_argument(
        "--x",
        required=True,
        type=_comma_names,
        help="regressor columns, comma separated",
    )


def _add_wle_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--kappa", type=float, default=WleConfig.kappa,
        help="bandwidth fraction for the weighted fit (default %(default)s)",
    )
    parser.add_argument(
        "--max-iter", type=int, default=WleConfig.max_iterations,
        help="cap on the weighted fit's map evaluations, each one kernel "
        "density pass and one weighted solve (default %(default)s)",
    )
    parser.add_argument(
        "--tol", type=float, default=WleConfig.tolerance,
        help="the weighted fit stops once its bound on the relative "
        "distance to its fixed point falls below this (default "
        "%(default)s)",
    )
    parser.add_argument(
        "--raf", choices=[HELLINGER], default=WleConfig.raf,
        help="residual adjustment function; hellinger is the only one "
        "(default %(default)s)",
    )


def _comma_default(values: Sequence[float]) -> str:
    # argparse runs a string default through the flag's type, so the
    # help shows the flag as typed and the parsed value is the tuple.
    return ",".join(repr(v) for v in values)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="panelspec",
        description="Panel-data estimation, robust weighting, and "
        "specification testing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="estimate one model on a CSV panel")
    _add_data_flags(p_fit)
    p_fit.add_argument(
        "--method", required=True, choices=["pooled", "fe", "re", "wfe"],
        help="pooled OLS, fixed effects, random effects, or weighted "
        "fixed effects",
    )
    _add_wle_flags(p_fit)
    p_fit.add_argument("--format", choices=["json", "csv"], default="json")
    p_fit.set_defaults(func=cmd_fit)

    p_test = sub.add_parser("test", help="run specification tests on a CSV panel")
    _add_data_flags(p_test)
    p_test.add_argument(
        "--which", choices=["hausman", "weighted", "both"], default="both",
        help="which specification test(s) to run (default both)",
    )
    _add_wle_flags(p_test)
    p_test.add_argument("--format", choices=["json", "csv"], default="json")
    p_test.set_defaults(func=cmd_test)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo study")
    p_sim.add_argument(
        "--hypothesis", choices=["null", "alt", "alternative"],
        default="null",
        help="data-generating process (default null)",
    )
    p_sim.add_argument("--n", type=int, default=100, help="units N (default 100)")
    p_sim.add_argument("--t", type=int, default=4, help="periods T (default 4)")
    p_sim.add_argument("--s", type=int, default=1000,
                       help="replications (default 1000)")
    p_sim.add_argument(
        "--gammas", type=_comma_floats, default=(0.05,),
        help="nominal levels, comma separated (default 0.05)",
    )
    p_sim.add_argument(
        "--contamination",
        choices=[NO_CONTAMINATION, RANDOM_VERTICAL, CONCENTRATED_VERTICAL],
        default=NO_CONTAMINATION,
    )
    p_sim.add_argument("--m", type=int, default=0,
                       help="number of replaced response cells")
    p_sim.add_argument("--low", type=float, default=None,
                       help="lower replacement bound")
    p_sim.add_argument("--high", type=float, default=None,
                       help="upper replacement bound")
    p_sim.add_argument("--seed", type=int, default=DgpConfig.seed,
                       help="master seed (default %(default)s)")
    p_sim.add_argument(
        "--beta", type=_comma_floats, default=_comma_default(DgpConfig.beta),
        help="slope vector (default %(default)s)",
    )
    p_sim.add_argument(
        "--tau", type=_comma_floats, default=_comma_default(DgpConfig.tau),
        help="correlation loadings under the alternative "
        "(default %(default)s)",
    )
    _add_wle_flags(p_sim)
    p_sim.add_argument(
        "--paper-figure", type=int, choices=[1, 2, 4, 5], default=None,
        help="preset study grid: 1 size vs N, 2 power vs N, "
        "4 contaminated size, 5 contaminated power; overrides "
        "--hypothesis/--n/--t/--gammas/--contamination/--m",
    )
    p_sim.add_argument("--out", default=None,
                       help="output file (default standard output)")
    p_sim.add_argument("--format", choices=["json", "csv"], default="json")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def _print(doc: str, out: Optional[str] = None) -> None:
    if out is None:
        sys.stdout.write(doc)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(doc)


def _load(args: argparse.Namespace):
    schema = ColumnSchema(
        unit_col=args.unit, time_col=args.time, y_col=args.y, x_cols=args.x
    )
    return load_long_csv(args.data, schema)


def _wle_config(args: argparse.Namespace) -> WleConfig:
    return WleConfig(
        kappa=args.kappa,
        max_iterations=args.max_iter,
        tolerance=args.tol,
        raf=args.raf,
    )


def _fit_doc(result: EstimateResult, regressors: Sequence[str]) -> dict:
    bound = result.distance_bound
    doc = {
        "method": result.method,
        "regressors": list(regressors),
        "beta": [float(b) for b in result.beta],
        "std_errors": [float(s) for s in result.std_errors()],
        "sigma2_eps": result.sigma2_eps,
        "sigma2_alpha": result.sigma2_alpha,
        "theta": (
            result.variance_components.theta
            if result.variance_components is not None
            else None
        ),
        "rss": result.rss,
        "r_squared": result.r_squared,
        "converged": result.converged,
        "iterations": result.iterations,
        # null for one-shot fits and where the steps did not contract (inf)
        "distance_bound": bound if bound is not None and bound < inf else None,
        "n_units": int(result.residuals.shape[0]),
        "n_periods": int(result.residuals.shape[1]),
        "weights": (
            result.weights.tolist() if result.weights is not None else None
        ),
        "min_weight": (
            float(result.weights.min()) if result.weights is not None else None
        ),
    }
    return doc


def _fit_json(doc: dict) -> str:
    """``json.dumps(doc, indent=2) + "\\n"``, byte for byte, for a fit report.

    json's indent encoder is pure Python, slow on the N x T weights; each of
    their rows fills a template of ``%r``, json's ``float.__repr__``, here.
    """
    items = []
    for key, value in doc.items():
        if key == "weights" and value:
            row = ",\n      ".join(["%r"] * len(value[0]))
            row = f"[\n      {row}\n    ]" if row else "[]"
            rows = ",\n    ".join([row % tuple(r) for r in value])
            text = f"[\n    {rows}\n  ]"
            if "n" in text:  # repr's nan, inf and -inf, spelled as json's
                text = text.replace("nan", "NaN").replace("inf", "Infinity")
        else:
            text = json.dumps(value, indent=2).replace("\n", "\n  ")
        items.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(items) + "\n}\n"


def cmd_fit(args: argparse.Namespace) -> int:
    """Estimate one model and print the result."""
    wle_config = _wle_config(args)
    dataset = _load(args)
    if args.method == "wfe":
        result = fit_weighted_fixed_effects(dataset, wle_config)
    else:
        result = _METHODS[args.method](dataset)
    doc = _fit_doc(result, args.x)
    if args.format == "json":
        _print(_fit_json(doc))
    else:
        _print(_csv_text(["regressor", "estimate", "std_error"], zip(
            doc["regressors"], doc["beta"], doc["std_errors"])))
    return 0


def cmd_test(args: argparse.Namespace) -> int:
    """Run the ``--which`` tests by ``specification_tests``; print a report.

    The report carries each statistic with its p-value plus the residual
    sums of squares and R-squared under the fixed- and random-effects
    fits, so a model choice can be read off one document.
    """
    wle_config = _wle_config(args)
    dataset = _load(args)
    fe, re, records = specification_tests(
        dataset, _WHICH[args.which], wle_config
    )
    doc = {
        "tests": [
            {
                "kind": t.kind,
                "statistic": t.statistic,
                "df": t.df,
                "p_value": t.p_value,
                "repaired": t.repaired,
                "q": [float(v) for v in t.q],
            }
            for t in records
        ],
        "fit_statistics": {
            "rss_fe": fe.rss,
            "rss_re": re.rss,
            "r_squared_fe": fe.r_squared,
            "r_squared_re": re.r_squared,
        },
        "theta": re.variance_components.theta,
        "n_units": dataset.n_units,
        "n_periods": dataset.n_periods,
    }
    if args.format == "json":
        _print(json.dumps(doc, indent=2) + "\n")
    else:
        stats = doc["fit_statistics"]
        _print(_csv_text(
            ["test", "statistic", "df", "p_value", "repaired", *stats],
            ([t["kind"], t["statistic"], t["df"], t["p_value"],
              t["repaired"], *stats.values()] for t in doc["tests"])))
    return 0


def _designs(
    args: argparse.Namespace,
) -> list[tuple[DgpConfig, ContaminationConfig, Sequence[float]]]:
    """The design and levels of each study ``simulate`` runs, in order."""
    fig = args.paper_figure
    if fig is None:
        hypothesis = NULL if args.hypothesis == "null" else ALTERNATIVE
        grid = [(hypothesis, args.n, args.t, args.gammas,
                 args.contamination, args.m)]
    elif fig in (1, 2):
        hypothesis = NULL if fig == 1 else ALTERNATIVE
        grid = [(hypothesis, n, 4, _CLEAN_GAMMAS, NO_CONTAMINATION, 0)
                for n in _PRESET_N_GRID]
    else:
        hypothesis = NULL if fig == 4 else ALTERNATIVE
        grid = [(hypothesis, 100, 3, _CONTAMINATED_GAMMAS, scheme, m)
                for scheme in (RANDOM_VERTICAL, CONCENTRATED_VERTICAL)
                for m in (15, 30)]
    designs = []
    for hypothesis, n, t, gammas, scheme, m in grid:
        dgp = DgpConfig(n_units=n, n_periods=t, beta=args.beta,
                        hypothesis=hypothesis, tau=args.tau, seed=args.seed)
        contamination = ContaminationConfig(
            scheme=scheme, n_outliers=m, low=args.low, high=args.high)
        designs.append((dgp, contamination, gammas))
    return designs


def cmd_simulate(args: argparse.Namespace) -> int:
    """Run one or more studies and write their report."""
    wle_config = _wle_config(args)
    studies = [
        run_study(dgp, contamination, s=args.s, gamma_grid=gammas,
                  wle_config=wle_config)
        for dgp, contamination, gammas in _designs(args)
    ]
    render = study_to_json if args.format == "json" else study_to_csv
    _print(render(studies), args.out)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PanelSpecError, OSError) as exc:
        print(f"panelspec: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
