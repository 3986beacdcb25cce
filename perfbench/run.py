"""End-to-end and per-layer benchmark of the panelspec command line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sim_clean --seed 1 --seconds 20 --trace 0

``--workload all`` runs the four in turn and ends with one combined
result whose metric names are prefixed by the workload.

Workloads (``perfbench/README.md`` says why each was chosen, and why
BENCHMARK.json declares only the first three):

* ``sim_clean``        ``simulate --paper-figure 1 --s 10``
* ``sim_contaminated`` ``simulate --paper-figure 4 --s 3``
* ``fit_wfe_large``    ``fit --method wfe`` on clean 2000 x 4 CSV panels
* ``test_csv``         ``test --which hausman`` on a clean 25000 x 4 CSV

The load is a closed loop from one process: one caller starts each
command after the previous one returns. ``--trace 0`` times warmed,
in-process ``cli.main(argv)`` calls for ``--seconds`` and reports the
end-to-end metrics. ``--trace 1`` installs timing wrappers on the
module attributes the program's calls go through and reports the
per-layer metrics. Every output is checked; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. A full record, spans included, is written to
``.perfbench/BENCH_<workload>_seed<seed>_trace<0|1>.json``.
"""

import os

# Pinned before numpy loads BLAS, and inherited by every child process.
BLAS_PIN = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)}
os.environ.update(BLAS_PIN)
os.environ.pop("PANELSPEC_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import inspect  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Optional  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import tracing  # noqa: E402
from tracing import median, tail_percentile  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
PROBE = Path(__file__).resolve().parent / "probe.py"
MISSING = "missing"
CHILD_TIMEOUT_S = 120
PERIODS = 4


@dataclass(frozen=True)
class Plan:
    """Problem sizes; the smoke test shrinks them."""

    # Replications per study for every ``simulate`` workload; None keeps
    # each workload's own ``--s``.
    sim_s: Optional[int] = None
    fit_units: int = 2000
    test_units: int = 25000
    # Clean 2000 x 4 panels need one or two weighted iterations depending
    # on the draw, so each call reads the next of several panels and the
    # median does not hinge on one draw.
    fit_files: int = 24
    # Fresh interpreters timed for setup_s, after one untimed start that
    # may compile bytecode.
    setup_starts: int = 5
    kde_sizes: tuple = (300, 800, 8000, 40000)
    xcheck_reps: int = 200
    xcheck_fit_units: int = 2000
    xcheck_thread_units: int = 200


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    figure: int = 0
    # ``--s`` of a ``simulate`` workload: small enough that one run times
    # well over MIN_TAIL_SAMPLES calls, so wall_s_tail is a real tail.
    s: int = 0


WORKLOADS = {w.name: w for w in (
    Workload("sim_clean", "simulate", 1, s=10),
    Workload("sim_contaminated", "simulate", 4, s=3),
    Workload("fit_wfe_large", "fit"),
    Workload("test_csv", "test"),
)}

# Per-layer metrics that are counts of deterministic work: taken from the
# first traced command or replay instead of a median over several.
_EXACT = {
    "wle.kde_calls", "wle.iterations_total", "wle.iterations_p50",
    "wle.iterations_max", "wle.cap_hits", "linalg.qr_calls_per_rep",
    "linalg.noniter_qr_calls_per_rep", "transforms.within.calls_per_rep",
}


def unit_of(name: str) -> str:
    words = name.replace(".", "_").split("_")
    if "ms" in words:
        return "ms"
    if name.endswith("per_s"):
        return "1/s"
    if "s" in words:
        return "s"
    if "mb" in words:
        return "MB"
    if "bytes" in words:
        return "bytes"
    if "frac" in name or "speedup" in name:
        return "ratio"
    return "count"


class Session:
    """One benchmark run: inputs, report lines and output checks."""

    def __init__(self, workload: Workload, plan: Plan, seed: int,
                 seconds: float, workdir: Path, say=print) -> None:
        self.workload = workload
        self.plan = plan
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.say = say
        self.sim_s = plan.sim_s or workload.s
        self.checks: list[dict] = []
        self.files: list[inputs.CsvInput] = []
        self.attempted = 0
        self.failed = 0

    def prepare_inputs(self) -> None:
        wl, plan = self.workload, self.plan
        if wl.command == "simulate":
            return
        n, count = ((plan.fit_units, plan.fit_files) if wl.command == "fit"
                    else (plan.test_units, 1))
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.files = [
            inputs.write_panel(self.workdir / f"panel{i}.csv", self.seed, i,
                               n, PERIODS)
            for i in range(count)
        ]
        for f in self.files:
            self.say(f"input {f.path.name}: rows={f.rows} bytes={f.bytes} "
                     f"sha256={f.sha256}")

    def argv(self, i: int) -> list[str]:
        wl = self.workload
        if wl.command == "simulate":
            return ["simulate", "--paper-figure", str(wl.figure), "--seed",
                    str(inputs.program_seed(self.seed, i)),
                    "--s", str(self.sim_s)]
        path = str(self.files[i % len(self.files)].path)
        if wl.command == "fit":
            return ["fit", "--data", path, *inputs.DATA_FLAGS,
                    "--method", "wfe"]
        return ["test", "--data", path, *inputs.DATA_FLAGS,
                "--which", "hausman"]

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"check": name, "ok": bool(ok), "detail": detail})
        self.say(f"check {name}: {'ok' if ok else 'FAILED'}"
                 + (f" ({detail})" if detail else ""))

    @property
    def correct(self) -> bool:
        return all(c["ok"] for c in self.checks)


# ---------------------------------------------------------------- calls


def call(main, argv: list[str]):
    """One in-process command: ``(seconds, exit code, stdout, stderr)``."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    dt = time.perf_counter() - t0
    return dt, code, out.getvalue(), err.getvalue()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_times(plan: Plan) -> list[float]:
    """Fresh interpreter start until the CLI is imported and its parser built."""
    times = []
    for i in range(plan.setup_starts + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(PROBE), "setup"], env=child_env(), cwd=ROOT,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        t1 = float(proc.stdout.split()[-1])
        if i:
            times.append(t1 - t0)
    return times


def peak_rss_mb(argv: list[str]) -> float:
    proc = subprocess.run(
        [sys.executable, str(PROBE), "rss", *argv], env=child_env(), cwd=ROOT,
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return int(proc.stdout.split()[-1]) / 1024.0


# --------------------------------------------------------------- checks


def load_schemas() -> dict:
    return {p.name.split(".")[0]: json.loads(p.read_text())
            for p in (SRC / "panelspec" / "schemas").glob("*.schema.json")}


def check_outputs(s: Session, results: list[tuple]) -> dict:
    """Check every output; count attempted and failed operations.

    ``results`` holds ``(argv, exit code, stdout)`` of every call made.
    Returns the parsed output of the first call that succeeded.
    """
    import jsonschema

    schema = load_schemas()[{"simulate": "simulate_report", "fit": "fit_result",
                             "test": "test_report"}[s.workload.command]]
    validator = jsonschema.validators.validator_for(schema)(schema)
    parsed, errors = {}, []
    by_argv = defaultdict(set)
    for argv, code, out in results:
        if code != 0:
            continue
        by_argv[tuple(argv)].add(out)
        if out not in parsed:
            parsed[out] = json.loads(out)
            errors += [e.message for e in validator.iter_errors(parsed[out])]
    if not parsed:
        raise RuntimeError("no call succeeded; nothing to check")
    s.check("schema", not errors, f"{len(parsed)} distinct outputs"
            + (f"; {errors[0]}" if errors else ""))
    runs = Counter(tuple(a) for a, code, _ in results if code == 0)
    repeated = [k for k, n in runs.items() if n > 1]
    s.check("same input gives identical bytes",
            bool(repeated) and all(len(outs) == 1 for outs in by_argv.values()),
            f"{len(repeated)} inputs run more than once")

    first = next(parsed[out] for _, code, out in results if code == 0)
    if s.workload.command == "simulate":
        reps = sum(r["s_replications"] for r in first["runs"])
        for argv, code, out in results:
            s.attempted += reps
            s.failed += (reps if code != 0
                         else sum(r["failures"] for r in parsed[out]["runs"]))
        s.check("simulate echoes its seed and size", all(
            r["seed"] == int(argv[argv.index("--seed") + 1])
            and r["s_replications"] == s.sim_s
            for argv, code, out in results if code == 0
            for r in parsed[out]["runs"]))
    else:
        s.attempted += len(results)
        s.failed += sum(code != 0 for _, code, _ in results)
        panel = s.files[0]
        if s.workload.command == "fit":
            beta, weights = inputs.wfe_reference(panel.y, panel.x)
            got_b = np.array(first["beta"])
            got_w = np.array(first["weights"])
            db = float(np.max(np.abs(got_b - beta)) / max(1.0, np.max(np.abs(beta))))
            dw = float(np.max(np.abs(got_w - weights)))
            s.check("wfe beta vs dense reference", db <= inputs.WFE_BETA_RTOL,
                    f"rel diff {db:.3g} <= {inputs.WFE_BETA_RTOL}")
            s.check("wfe weights vs dense reference", dw <= inputs.WFE_WEIGHT_ATOL,
                    f"abs diff {dw:.3g} <= {inputs.WFE_WEIGHT_ATOL}")
        else:
            rss, r2 = inputs.within_reference(panel.y, panel.x)
            fs = first["fit_statistics"]
            d_rss = abs(fs["rss_fe"] - rss) / rss
            d_r2 = abs(fs["r_squared_fe"] - r2) / abs(r2)
            s.check("rss_fe vs numpy within fit", d_rss <= inputs.FE_RTOL,
                    f"rel diff {d_rss:.3g} <= {inputs.FE_RTOL}")
            s.check("r_squared_fe vs numpy within fit", d_r2 <= inputs.FE_RTOL,
                    f"rel diff {d_r2:.3g} <= {inputs.FE_RTOL}")
    return first


def rows_per_call(s: Session, doc: dict) -> int:
    if s.workload.command == "simulate":
        return sum(r["n_units"] * r["n_periods"] * r["s_replications"]
                   for r in doc["runs"])
    return s.files[0].rows


# ------------------------------------------------------------ end to end


def measure_end_to_end(s: Session, cli) -> dict:
    setup = setup_times(s.plan)
    rss = peak_rss_mb(s.argv(0))
    warm = call(cli.main, s.argv(0))
    results = [(s.argv(0), warm[1], warm[2])]
    samples = []
    deadline = time.perf_counter() + s.seconds
    i = 0
    while len(samples) < tracing.MIN_TAIL_SAMPLES or time.perf_counter() < deadline:
        dt, code, out, err = call(cli.main, s.argv(i))
        if code != 0:
            s.say(f"call {i} exited {code}: {err.strip()}")
        samples.append(dt)
        results.append((s.argv(i), code, out))
        i += 1
    doc = check_outputs(s, results)
    wall = statistics.median(samples)
    tail, pct = tail_percentile(samples)
    rows = rows_per_call(s, doc)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "wall_s_tail": tail,
        "rows_per_s": rows / wall,
        "peak_rss_mb": rss,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "wall_s": f"median of {len(samples)} calls",
        "wall_s_tail": f"p{pct:.1f} of {len(samples)} calls",
        "rows_per_s": f"{rows} panel rows per call",
        "peak_rss_mb": "one call in a child process",
    }
    if s.workload.command == "simulate":
        reps = sum(r["s_replications"] for r in doc["runs"])
        metrics["replications_per_s"] = reps / wall
        notes["replications_per_s"] = f"{reps} replications per call"
    metrics["failed_frac"] = s.failed / s.attempted
    notes["failed_frac"] = f"{s.failed}/{s.attempted}"
    return {"metrics": metrics, "notes": notes, "samples": samples,
            "setup_samples": setup}


# ---------------------------------------------------------------- traced


def study_configs(args, doc: dict):
    """Library configs of each study in a ``simulate`` output."""
    from panelspec import mcstudy, wle

    cfg = wle.WleConfig(kappa=args.kappa, max_iterations=args.max_iter,
                        tolerance=args.tol, raf=args.raf)
    out = []
    for run in doc["runs"]:
        dgp = mcstudy.DgpConfig(
            n_units=run["n_units"], n_periods=run["n_periods"],
            beta=args.beta, hypothesis=run["hypothesis"], tau=args.tau,
            seed=run["seed"])
        cont = mcstudy.ContaminationConfig(
            scheme=run["scheme"], n_outliers=run["n_outliers"],
            low=run["low"], high=run["high"])
        out.append((dgp, cont, cfg, run))
    return out


def replay(configs) -> list[dict]:
    """Every replication of one ``simulate`` call, through public functions.

    Mirrors the order ``run_study`` uses: substream, generate,
    contaminate, FE, RE, WFE, both tests. Returns the test statistics of
    each study. It only checks the program; no metric comes from it.
    """
    from panelspec import estimators, inference, mcstudy, wle
    from panelspec.exceptions import PanelSpecError

    stats = []
    for dgp, cont, cfg, run in configs:
        got = {"hausman": [], "weighted_hausman": []}
        for r in range(run["s_replications"]):
            rng = mcstudy.substream(dgp.seed, r)
            try:
                ds = mcstudy.generate(dgp, rng)
                ds = mcstudy.apply_contamination(ds, cont, rng)
                fe = estimators.fit_fixed_effects(ds)
                re_fit = estimators.fit_random_effects(ds)
                wfe = wle.fit_weighted_fixed_effects(ds, cfg)
                h = inference.hausman_test(fe, re_fit)
                wh = inference.weighted_hausman_test(wfe, re_fit)
            except PanelSpecError:
                continue
            got["hausman"].append(h.statistic)
            got["weighted_hausman"].append(wh.statistic)
        stats.append(got)
    return stats


def _under_study(spans, i: int) -> bool:
    parent = spans[i][3]
    return parent is not None and spans[parent][0] == "mcstudy.run_study"


def replication_ms(spans, idxs) -> list[float]:
    """Duration of each replication the program ran within ``idxs``.

    A replication runs from its ``mcstudy.generate`` span to the end of
    the last span it opened directly under ``run_study``.
    """
    bounds = {}
    for i in idxs:
        if _under_study(spans, i):
            _, start, end, _, rep, _ = spans[i]
            lo, hi = bounds.get(rep, (start, end))
            bounds[rep] = (min(lo, start), max(hi, end))
    return [(hi - lo) * 1e3 for lo, hi in bounds.values()]


def failures_by_class(spans, idxs) -> Counter:
    """Exceptions that ended a replication, by class."""
    return Counter(spans[i][5]["raised"] for i in idxs
                   if _under_study(spans, i) and spans[i][5]
                   and "raised" in spans[i][5])


def layer_metrics(spans, selfs, idxs, reps: int, missing: set, rows: int):
    """Per-layer metrics of one traced command."""
    by = defaultdict(list)
    for i in idxs:
        by[spans[i][0]].append(i)

    def gone(*names):
        return any(n in missing for n in names)

    def self_s(*names):
        return MISSING if gone(*names) else sum(selfs[i] for n in names for i in by[n])

    def count(*names):
        return MISSING if gone(*names) else sum(len(by[n]) for n in names)

    def durs_ms(name):
        return [(spans[i][2] - spans[i][1]) * 1e3 for i in by[name]]

    def ms_p50(name):
        return MISSING if gone(name) else median(durs_ms(name))

    m = {}
    fits = [(i, spans[i][5]) for i in by["wle.fit"]
            if spans[i][5] and "iterations" in spans[i][5]]
    iters = [a["iterations"] for _, a in fits]
    kde_first = {}
    for i in by["wle.kde"]:
        kde_first.setdefault(spans[i][3], spans[i][1])
    loop_ms = [(spans[i][2] - kde_first[i]) * 1e3 / a["iterations"]
               for i, a in fits if a["iterations"] and i in kde_first]
    fit_gone = gone("wle.fit")
    m["wle.kde.self_s"] = self_s("wle.kde")
    m["wle.kde_calls"] = count("wle.kde")
    m["wle.kde_ms_p50"] = ms_p50("wle.kde")
    m["wle.iterations_total"] = MISSING if fit_gone else sum(iters)
    m["wle.iterations_p50"] = MISSING if fit_gone else median(iters)
    m["wle.iterations_max"] = MISSING if fit_gone else max(iters, default=0)
    m["wle.cap_hits"] = MISSING if fit_gone else sum(not a["converged"] for _, a in fits)
    m["wle.iteration_ms_p50"] = MISSING if gone("wle.fit", "wle.kde") else median(loop_ms)
    m["wle.fit.self_s"] = self_s("wle.fit")
    m["wle.weights.self_s"] = self_s("wle.weights")
    m["wle.solve.self_s"] = self_s("wle.solve")
    qr = count("linalg.lstsq_qr", "wle.solve")
    m["linalg.qr_calls_per_rep"] = MISSING if qr == MISSING else qr / reps
    m["linalg.noniter_qr_calls_per_rep"] = (
        MISSING if MISSING in (qr, m["wle.iterations_total"])
        else (qr - m["wle.iterations_total"]) / reps)
    m["linalg.lstsq_qr.self_s"] = self_s("linalg.lstsq_qr", "wle.solve")
    for layer in ("fe", "vc", "re"):
        m[f"estimators.{layer}.self_s"] = self_s(f"estimators.{layer}")
    m["transforms.within.self_s"] = self_s("transforms.within")
    within = count("transforms.within")
    m["transforms.within.calls_per_rep"] = MISSING if within == MISSING else within / reps
    m["transforms.quasi_demean.self_s"] = self_s("transforms.quasi_demean")
    load = MISSING if gone("data.load") else sum(d / 1e3 for d in durs_ms("data.load"))
    m["data.load_s"] = load if load != 0.0 else None
    m["data.rows_per_s"] = rows / load if isinstance(load, float) and load > 0 else None
    m["mcstudy.generate.self_s"] = self_s("mcstudy.generate")
    m["mcstudy.contaminate.self_s"] = self_s("mcstudy.contaminate")
    m["inference.hausman_ms_p50"] = ms_p50("inference.hausman")
    m["inference.whausman_ms_p50"] = ms_p50("inference.whausman")
    return m


def repaired(spans, idxs, missing: set) -> tuple[dict, dict]:
    """Share of contrasts the tests had to repair, with its base."""
    metrics, notes = {}, {}
    for kind, name in (("hausman", "inference.hausman"),
                       ("weighted_hausman", "inference.whausman")):
        flags = [spans[i][5]["repaired"] for i in idxs
                 if spans[i][0] == name and spans[i][5]
                 and "repaired" in spans[i][5]]
        key = f"inference.repaired_frac.{kind}"
        metrics[key] = (MISSING if name in missing
                        else sum(flags) / len(flags) if flags else None)
        notes[key] = f"base {sum(flags)}/{len(flags)}"
    return metrics, notes


def combine(units: list[dict]) -> dict:
    """Exact counts from the first unit, medians of the rest."""
    out = {}
    for key in units[0]:
        vals = [u[key] for u in units]
        if key in _EXACT or MISSING in vals:
            out[key] = vals[0]
        else:
            nums = [v for v in vals if v is not None]
            out[key] = statistics.median(nums) if nums else None
    return out


def kde_sizes(plan: Plan, seed: int) -> dict:
    from panelspec import wle

    fn = getattr(wle, "kernel_density_at", None)
    out = {}
    for n in plan.kde_sizes:
        key = f"wle.kde_ms.n{n}"
        if fn is None:
            out[key] = MISSING
            continue
        sample = np.random.default_rng([seed, n]).standard_normal(n)
        t0 = time.perf_counter()
        fn(sample, sample, 0.5)
        out[key] = (time.perf_counter() - t0) * 1e3
    return out


def speedup_2w(configs) -> object:
    """``run_study`` wall time with one worker over that with two."""
    from panelspec import mcstudy

    if "n_threads" not in inspect.signature(mcstudy.run_study).parameters:
        return MISSING
    walls = {}
    for workers in (1, 2):
        t0 = time.perf_counter()
        for dgp, cont, cfg, run in configs:
            mcstudy.run_study(dgp, cont, s=run["s_replications"],
                              gamma_grid=run["gamma_grid"], wle_config=cfg,
                              n_threads=workers)
        walls[workers] = time.perf_counter() - t0
    return walls[1] / walls[2]


def measure_traced(s: Session, cli) -> dict:
    """Per-layer metrics from the spans of traced ``cli.main`` calls.

    Calls alternate untraced and traced on the same argv; the two outputs
    must be identical bytes, so both runs measure the same program.
    """
    tracer = tracing.Tracer()
    traced_main = tracer.wrap("cli.main", cli.main, None)
    sim = s.workload.command == "simulate"
    warm = call(cli.main, s.argv(0))
    results = [(s.argv(0), warm[1], warm[2])]
    untraced, traced, units = [], [], []
    deadline = time.perf_counter() + s.seconds
    i = 0
    while i < 3 or time.perf_counter() < deadline:
        argv = s.argv(i)
        dt, code, out, _ = call(cli.main, argv)
        untraced.append(dt)
        results.append((argv, code, out))
        tracer.install()
        tracer.rep = ("cli", i, 0)
        start = len(tracer.spans)
        try:
            dt, code, out, _ = call(traced_main, argv)
        finally:
            tracer.uninstall()
        traced.append(dt)
        results.append((argv, code, out))
        if code == 0:
            units.append((range(start, len(tracer.spans)), out))
        i += 1
    first = check_outputs(s, results)
    if not units:
        raise RuntimeError("no traced call succeeded")
    missing = tracer.missing_spans()
    if tracer.missing:
        s.say(f"wrappers missing their target: {', '.join(tracer.missing)}")

    args = cli.build_parser().parse_args(s.argv(0))
    if sim:
        shadow = tracing.Tracer()
        shadow.install()
        try:
            stats = replay(study_configs(args, first))
        finally:
            shadow.uninstall()
        s.check("replayed statistics equal simulate output",
                all(got[kind] == run["tests"][kind]["statistics"]
                    for got, run in zip(stats, first["runs"]) for kind in got),
                "call 0 replayed under the wrappers")

    spans = tracer.spans
    selfs = tracing.self_times(spans)
    rows = rows_per_call(s, first)
    reps = sum(r["s_replications"] for r in first["runs"]) if sim else 1
    metrics = combine([layer_metrics(spans, selfs, idxs, reps, missing, rows)
                       for idxs, _ in units])
    metrics_repaired, notes = repaired(
        spans, [i for idxs, _ in units for i in idxs], missing)
    metrics.update(metrics_repaired)
    rep_ms = [ms for idxs, _ in units for ms in replication_ms(spans, idxs)]
    if {"mcstudy.run_study", "mcstudy.generate"} & missing:
        metrics["mcstudy.replication_ms_p50"] = MISSING
        metrics["mcstudy.replication_ms_tail"] = MISSING
    else:
        metrics["mcstudy.replication_ms_p50"] = median(rep_ms)
        metrics["mcstudy.replication_ms_tail"] = None
        notes["mcstudy.replication_ms_p50"] = (
            f"{len(rep_ms)} replications in {len(units)} traced calls")
        if len(rep_ms) >= tracing.MIN_TAIL_SAMPLES:
            tail, pct = tail_percentile(rep_ms)
            metrics["mcstudy.replication_ms_tail"] = tail
            notes["mcstudy.replication_ms_tail"] = f"p{pct:.1f} of {len(rep_ms)}"
    if sim:
        failures = failures_by_class(spans, units[0][0])
        for name, n in sorted(failures.items()):
            metrics[f"mcstudy.failures.{name}"] = n
        other = sum(r["failures"] for r in first["runs"]) - sum(failures.values())
        if other:
            metrics["mcstudy.failures.unattributed"] = other
        metrics["mcstudy.speedup_2w"] = speedup_2w(study_configs(args, first))
    metrics["cli.self_s"] = statistics.median(selfs[idxs[0]] for idxs, _ in units)
    metrics["cli.output_bytes"] = len(units[0][1].encode())
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    metrics.update(kde_sizes(s.plan, s.seed))
    notes["trace.overhead_frac"] = (f"median traced {statistics.median(traced):.4f} s "
                                    f"over untraced {statistics.median(untraced):.4f} s, "
                                    f"{len(traced)} pairs")
    return {"metrics": metrics, "notes": notes, "spans": spans,
            "missing_targets": tracer.missing,
            "xcheck": cross_check(s.workload, s.plan)}


# ---------------------------------------------------- ROADMAP cross-check


def cross_check(wl: Workload, plan: Plan) -> list[dict]:
    """The ROADMAP's seed-7 baselines that this workload's layers cover.

    ``roadmap`` is the figure in ROADMAP.md, ``scratch`` the value an
    unmodified copy gave when this benchmark was written. Deviations are
    reported, not failed: only the mean iteration count is expected to
    repeat exactly.
    """
    from panelspec import estimators, inference, mcstudy, wle

    rows = []

    def row(name, measured, roadmap, scratch, unit, note=""):
        rows.append({"name": name, "measured": measured, "roadmap": roadmap,
                     "scratch": scratch, "unit": unit, "note": note})

    pc = time.perf_counter
    if wl.figure == 1:
        dgp = mcstudy.DgpConfig(n_units=100, n_periods=3, seed=7)
        rep_ms, wfe_ms = [], []
        for r in range(plan.xcheck_reps):
            t0 = pc()
            rng = mcstudy.substream(7, r)
            ds = mcstudy.generate(dgp, rng)
            fe = estimators.fit_fixed_effects(ds)
            re_fit = estimators.fit_random_effects(ds)
            t1 = pc()
            wfe = wle.fit_weighted_fixed_effects(ds)
            t2 = pc()
            inference.hausman_test(fe, re_fit)
            inference.weighted_hausman_test(wfe, re_fit)
            rep_ms.append((pc() - t0) * 1e3)
            wfe_ms.append((t2 - t1) * 1e3)
        row("clean 100x3 replication, mean", statistics.mean(rep_ms), 9.0, 8.4, "ms")
        row("  of which WFE, mean", statistics.mean(wfe_ms), 5.8, 5.2, "ms")
        if "n_threads" in inspect.signature(mcstudy.run_study).parameters:
            dgp = mcstudy.DgpConfig(n_units=plan.xcheck_thread_units, n_periods=4, seed=7)
            walls = {}
            for workers in (1, 2):
                t0 = pc()
                mcstudy.run_study(dgp, s=plan.xcheck_reps, n_threads=workers)
                walls[workers] = pc() - t0
            label = f"{plan.xcheck_reps} replications at {plan.xcheck_thread_units}x4"
            row(f"{label}, --threads 1", walls[1], 2.16, None, "s")
            row(f"{label}, --threads 2", walls[2], 2.57, None, "s")
            row("  --threads 2 over --threads 1", walls[2] / walls[1], 2.57 / 2.16,
                None, "ratio")
        else:
            row("--threads 2 against --threads 1", MISSING, 2.57 / 2.16, None,
                "ratio", "run_study has no worker count")
    elif wl.figure == 4:
        dgp = mcstudy.DgpConfig(n_units=100, n_periods=3, seed=7)
        cont = mcstudy.ContaminationConfig(scheme=mcstudy.RANDOM_VERTICAL, n_outliers=30)
        wfe_ms, iters, capped = [], [], 0
        for r in range(plan.xcheck_reps):
            rng = mcstudy.substream(7, r)
            ds = mcstudy.apply_contamination(mcstudy.generate(dgp, rng), cont, rng)
            t0 = pc()
            fit = wle.fit_weighted_fixed_effects(ds)
            wfe_ms.append((pc() - t0) * 1e3)
            iters.append(fit.iterations)
            capped += not fit.converged
        mean_iter = sum(iters) / len(iters)
        row("WFE with 30 random outliers, mean", statistics.mean(wfe_ms), 31.7, 27.4, "ms")
        row("  mean WFE iterations", mean_iter, 23.7, 23.705, "count",
            "matches exactly" if mean_iter == 23.705 else "DIFFERS from 23.705")
        row("  fits at the iteration cap", capped, None, 2, "count")
    elif wl.command == "fit":
        dgp = mcstudy.DgpConfig(n_units=plan.xcheck_fit_units, n_periods=4, seed=7)
        ds = mcstudy.generate(dgp, mcstudy.substream(7, 0))
        t0 = pc()
        fit = wle.fit_weighted_fixed_effects(ds)
        row(f"{plan.xcheck_fit_units}x4 WFE fit", (pc() - t0) * 1e3, 905.0, 863.0, "ms",
            f"{fit.iterations} iterations")
    return rows


# ---------------------------------------------------------------- report


def environment() -> dict:
    import scipy

    env = {"python": platform.python_version(), "numpy": np.__version__,
           "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
           "blas_pin": dict(BLAS_PIN),
           "PANELSPEC_THREADS": os.environ.get("PANELSPEC_THREADS", "unset")}
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
        env["cpu"] = next(line.split(":", 1)[1].strip()
                          for line in cpuinfo.splitlines()
                          if line.startswith("model name"))
    except (OSError, StopIteration):
        env["cpu"] = "unknown"
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            env[f"L{level}"] = size
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["openblas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        env["openblas"] = "unknown"
    return env


def fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        plan: Optional[Plan] = None, say=print) -> tuple[Session, dict]:
    from panelspec import cli

    plan = plan or Plan()
    workdir = WORK / f"run-{os.getpid()}"
    s = Session(workload, plan, seed, seconds, workdir, say)
    env = environment()
    say("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    try:
        s.prepare_inputs()
        record = (measure_traced if trace else measure_end_to_end)(s, cli)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, value in record["metrics"].items():
        note = record["notes"].get(name, "")
        say(f"metric {workload.name} {name} = {fmt(value)} {unit_of(name)}"
            + (f"  [{note}]" if note else ""))
    for x in record.get("xcheck", []):
        say(f"xcheck {x['name']}: {fmt(x['measured'])} {x['unit']} "
            f"(ROADMAP {fmt(x['roadmap'])}, scratch {fmt(x['scratch'])})"
            + (f" {x['note']}" if x["note"] else ""))
    record.update(workload=workload.name, seed=seed, seconds=seconds,
                  trace=int(trace), env=env, checks=s.checks,
                  inputs=[f.record() for f in s.files],
                  attempted=s.attempted, failed=s.failed, correct=s.correct)
    return s, record


def result_line(s: Session, metrics: dict, declared: list[dict]) -> dict:
    out = {}
    for d in declared:
        value = metrics.get(d["name"])
        out[d["name"]] = {"value": None if value == MISSING else value,
                          "unit": d["unit"]}
    return {"correct": s.correct, "attempted": s.attempted,
            "failed": s.failed, "metrics": out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "panelspec" / "__init__.py").is_file():
        print(f"perfbench: no panelspec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import panelspec

    if Path(panelspec.__file__).resolve().parent != SRC / "panelspec":
        print(f"perfbench: imported panelspec from {panelspec.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = {}
    for name in names:
        s, record = run(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        WORK.mkdir(exist_ok=True)
        out = WORK / f"BENCH_{name}_seed{args.seed}_trace{args.trace}.json"
        out.write_text(json.dumps(record, default=str) + "\n")
        print(f"record written to {out.relative_to(ROOT)}")
        lines[name] = result_line(s, record["metrics"], declared)
    line = lines[names[0]]
    if len(names) > 1:
        for name, result in lines.items():
            print(f"result {name} {json.dumps(result)}")
        line = {"correct": all(v["correct"] for v in lines.values()),
                "attempted": sum(v["attempted"] for v in lines.values()),
                "failed": sum(v["failed"] for v in lines.values()),
                "metrics": {f"{name}/{k}": m for name, v in lines.items()
                            for k, m in v["metrics"].items()}}
    print(json.dumps(line))
    return 0 if line["correct"] else 1

if __name__ == "__main__":
    sys.exit(main())
