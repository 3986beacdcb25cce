"""End-to-end command-line checks, run through subprocesses except where a
test patches the program in-process."""

import hashlib
import importlib.resources as resources
import importlib.util
import json
import pathlib
import subprocess
import sys
from unittest.mock import patch

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from panelspec import PanelDataset, cli, wle
from panelspec.mcstudy import (
    RANDOM_VERTICAL,
    ContaminationConfig,
    DgpConfig,
    run_study,
    study_to_csv,
    study_to_json,
)
from panelspec.wle import WleConfig

from helpers import make_panel, write_long_csv

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"
DATA_FLAGS = ["--unit", "unit", "--time", "time", "--y", "y", "--x", "x1,x2"]


def run_cli(*args, text=True):
    return subprocess.run(
        [sys.executable, "-m", "panelspec", *args],
        capture_output=True, text=text,
    )


def _schema(name):
    path = resources.files("panelspec") / "schemas" / name
    return json.loads(path.read_text())


def _fit(method, data, *extra):
    proc = run_cli("fit", "--data", str(data), *DATA_FLAGS,
                   "--method", method, *extra)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    jsonschema.validate(instance=doc, schema=_schema("fit_result.schema.json"))
    return doc


def test_fit_fe_matches_recorded_oracle():
    expected = json.loads((FIXTURES / "fe_oracle_expected.json").read_text())
    doc = _fit("fe", FIXTURES / "fe_oracle.csv")
    assert doc["method"] == "fixed_effects"
    assert doc["regressors"] == ["x1", "x2"]
    for got, want in zip(doc["beta"], expected["beta"]):
        assert got == pytest.approx(want, abs=1e-10)
    for got, want in zip(doc["std_errors"], expected["std_errors"]):
        assert got == pytest.approx(want, abs=1e-10)
    assert doc["rss"] == pytest.approx(expected["rss"], rel=1e-10)
    assert doc["n_units"] == 50
    assert doc["n_periods"] == 4
    assert doc["weights"] is None


def test_fit_weighted_on_clean_fixture():
    doc = _fit("wfe", FIXTURES / "fe_oracle.csv", "--kappa", "0.5")
    assert doc["method"] == "weighted_fixed_effects"
    assert doc["converged"] is True
    assert 0.0 <= doc["distance_bound"] < 1e-6
    assert doc["min_weight"] > 0.5
    assert all(w > 0.5 for row in doc["weights"] for w in row)
    assert len(doc["weights"]) == 50
    assert len(doc["weights"][0]) == 4


@pytest.mark.parametrize("method, extra, converged", [
    ("fe", (), None),
    ("pooled", (), None),
    ("re", (), None),
    ("wfe", ("--max-iter", "1"), False),
    ("wfe", ("--tol", "1e-10"), True),
])
def test_fit_reports_its_distance_bound(method, extra, converged):
    doc = _fit(method, FIXTURES / "contaminated_alt.csv", *extra)
    assert "distance_bound" in _schema("fit_result.schema.json")["required"]
    if converged is None:
        assert doc["distance_bound"] is None
    else:
        assert doc["converged"] is converged
        assert (0.0 <= doc["distance_bound"] < 1e-10) == converged


# Floats json spells apart from repr, or that the shortest repr writes
# in an unusual form; regressor names json must quote or escape.
_FLOATS = st.floats() | st.sampled_from(
    [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e16, 3.0])
_NAMES = st.text(alphabet='x1 "\\/\n\té\u2603\U0001f600', min_size=1)


@st.composite
def _fit_docs(draw):
    n, t = draw(st.integers(0, 5)), draw(st.integers(0, 4))
    rows = st.lists(_FLOATS, min_size=t, max_size=t)
    weights = draw(st.none() | st.lists(rows, min_size=n, max_size=n))
    k = draw(st.integers(1, 3))
    floats = st.lists(_FLOATS, min_size=k, max_size=k)
    maybe = _FLOATS | st.none()
    return {
        "method": draw(st.sampled_from(["fixed_effects", "random_effects"])),
        "regressors": draw(st.lists(_NAMES, min_size=k, max_size=k)),
        "beta": draw(floats), "std_errors": draw(floats),
        "sigma2_eps": draw(_FLOATS), "sigma2_alpha": draw(_FLOATS),
        "theta": draw(maybe), "rss": draw(_FLOATS), "r_squared": draw(_FLOATS),
        "converged": draw(st.booleans()),
        "iterations": draw(st.integers(0, 500)),
        "distance_bound": draw(maybe), "n_units": n, "n_periods": t,
        "weights": weights,
        "min_weight": None if weights is None else draw(maybe),
    }


@settings(max_examples=200, deadline=None, derandomize=True)
@given(doc=_fit_docs())
@example(doc={"weights": [[1.0, 0.1, -0.0], [5e-324, 1e16, float("nan")],
                          [float("inf"), -float("inf"), 2.0]]})
@example(doc={"regressors": ['a"b', "\u00e9"], "weights": None})
def test_fit_report_writer_is_json_dumps(doc):
    assert cli._fit_json(doc) == json.dumps(doc, indent=2) + "\n"


def test_fit_reads_a_byte_order_mark(tmp_path):
    original = FIXTURES / "fe_oracle.csv"
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + original.read_bytes())
    assert _fit("fe", bom) == _fit("fe", original)


def test_fixture_generator_reproduces_committed_fixtures(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "fixture_generator", FIXTURES / "_generate.py")
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    generator.HERE = tmp_path
    generator.main()
    for name in ("fe_oracle.csv", "contaminated_alt.csv"):
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes()
    got = json.loads((tmp_path / "fe_oracle_expected.json").read_text())
    want = json.loads((FIXTURES / "fe_oracle_expected.json").read_text())
    assert got.keys() == want.keys()
    assert got.pop("recipe") == want.pop("recipe")
    # numpy lstsq may differ in the last bits between BLAS builds.
    for key in want:
        assert got[key] == pytest.approx(want[key], rel=1e-12, abs=1e-12)


def test_fit_csv_projection():
    proc = run_cli("fit", "--data", str(FIXTURES / "fe_oracle.csv"),
                   *DATA_FLAGS, "--method", "fe", "--format", "csv")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "regressor,estimate,std_error"
    assert len(lines) == 3
    doc = _fit("fe", FIXTURES / "fe_oracle.csv")
    for line, name, beta in zip(lines[1:], ["x1", "x2"], doc["beta"]):
        got_name, est, _se = line.split(",")
        assert got_name == name
        assert float(est) == beta


def test_fit_usage_and_data_errors():
    missing_flag = run_cli("fit", "--data", str(FIXTURES / "fe_oracle.csv"),
                           "--unit", "unit", "--time", "time", "--y", "y",
                           "--method", "fe")
    assert missing_flag.returncode == 2
    bad_file = run_cli("fit", "--data", "no-such-file.csv", *DATA_FLAGS,
                       "--method", "fe")
    assert bad_file.returncode == 1
    assert bad_file.stderr.startswith("panelspec: error:")
    bad_flag = run_cli("fit", "--data", str(FIXTURES / "fe_oracle.csv"),
                       *DATA_FLAGS, "--method", "ridge")
    assert bad_flag.returncode == 2


@pytest.mark.parametrize("command", [["fit", "--method", "fe"], ["test"]])
def test_seed_is_a_simulate_flag_only(command):
    proc = run_cli(command[0], "--data", str(FIXTURES / "fe_oracle.csv"),
                   *DATA_FLAGS, *command[1:], "--seed", "3")
    assert proc.returncode == 2
    assert "unrecognized arguments: --seed 3" in proc.stderr
    assert cli.build_parser().parse_args(["simulate", "--seed", "3"]).seed == 3


@pytest.mark.parametrize("command", [
    ["fit", "--data", "d.csv", *DATA_FLAGS, "--method", "wfe"],
    ["test", "--data", "d.csv", *DATA_FLAGS],
    ["simulate"],
])
def test_flag_defaults_are_the_config_defaults(command):
    args = cli.build_parser().parse_args(command)
    assert cli._wle_config(args) == WleConfig()
    if command[0] == "simulate":
        dgp = DgpConfig(n_units=2, n_periods=2)
        assert (args.beta, args.tau, args.seed) == (dgp.beta, dgp.tau,
                                                    dgp.seed)


@pytest.mark.parametrize("args", [
    ["simulate", "--s", "0"],
    ["fit", "--data", str(FIXTURES / "fe_oracle.csv"), *DATA_FLAGS,
     "--method", "wfe", "--max-iter", "0"],
    ["simulate", "--n", "25", "--s", "2", "--beta", "nan,1"],
    # WLE flags are checked even when the command fits no weighted model.
    ["test", "--data", str(FIXTURES / "fe_oracle.csv"), *DATA_FLAGS,
     "--which", "hausman", "--max-iter", "0"],
    ["test", "--data", str(FIXTURES / "fe_oracle.csv"), *DATA_FLAGS,
     "--which", "hausman", "--kappa", "-1"],
    ["fit", "--data", str(FIXTURES / "fe_oracle.csv"), *DATA_FLAGS,
     "--method", "fe", "--tol", "0"],
    # A clean design has no replacement values to bound.
    ["simulate", "--s", "1", "--low", "5", "--high", "6"],
])
def test_configuration_errors_exit_1(args):
    proc = run_cli(*args)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("panelspec: error:")
    assert proc.stderr.count("\n") == 1


def test_identity_adjustment_is_a_usage_error():
    proc = run_cli("fit", "--data", str(FIXTURES / "fe_oracle.csv"),
                   *DATA_FLAGS, "--method", "wfe", "--raf", "identity")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "invalid choice: 'identity'" in proc.stderr


def test_degenerate_weights_exit_1(capsys):
    with patch.object(wle, "weight_function", np.zeros_like):
        code = cli.main(["fit", "--data", str(FIXTURES / "fe_oracle.csv"),
                         *DATA_FLAGS, "--method", "wfe"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith("panelspec: error: weight mass 0 ")
    assert err.count("\n") == 1


def test_short_row_is_a_data_error(tmp_path):
    short = tmp_path / "short.csv"
    short.write_text("unit,time,y,x1,x2\na,1,1.0,2.0\n")
    proc = run_cli("fit", "--data", str(short), *DATA_FLAGS, "--method", "fe")
    assert proc.returncode == 1
    assert proc.stderr.startswith("panelspec: error:")
    assert proc.stderr.count("\n") == 1
    assert "short.csv:2: row has 4 fields, header has 5" in proc.stderr


def test_long_row_is_a_data_error(tmp_path):
    long = tmp_path / "long.csv"
    long.write_text("unit,time,y,x1,x2\na,1,1.0,2.0,3.0,99\n")
    proc = run_cli("fit", "--data", str(long), *DATA_FLAGS,
                   "--method", "pooled")
    assert proc.returncode == 1
    assert proc.stderr.startswith("panelspec: error:")
    assert proc.stderr.count("\n") == 1
    assert "long.csv:2: row has 6 fields, header has 5" in proc.stderr


def test_field_longer_than_csv_limit_is_a_data_error(tmp_path):
    data = tmp_path / "wide.csv"
    data.write_text(f"unit,time,y,x1,x2\n{'u' * 200_000},1,1.0,2.0,3.0\n")
    proc = run_cli("fit", "--data", str(data), *DATA_FLAGS, "--method", "fe")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (f"panelspec: error: {data}:2: field larger than "
                           "field limit (131072)\n")


def _overflowing_csv(tmp_path, column):
    """``fe_oracle.csv`` with 1.7e308 in two cells of one unit's ``column``:
    finite, so the loader accepts them, but their unit mean is inf."""
    lines = (FIXTURES / "fe_oracle.csv").read_text().splitlines()
    j = lines[0].split(",").index(column)
    for i in (1, 2):
        fields = lines[i].split(",")
        fields[j] = "1.7e308"
        lines[i] = ",".join(fields)
    data = tmp_path / f"overflow_{column}.csv"
    data.write_text("\n".join(lines) + "\n")
    return data


@pytest.mark.parametrize("column", ["x1", "y"])
@pytest.mark.parametrize("command", [
    ["fit", "--method", "fe"], ["test"],
    ["fit", "--method", "re"], ["fit", "--method", "wfe"],
])
def test_values_that_overflow_in_demeaning_are_data_errors(
    tmp_path, column, command
):
    # The unit mean overflows without a numpy warning; the solver rejects
    # the non-finite demeaned data, and that is the one line on stderr.
    data = _overflowing_csv(tmp_path, column)
    proc = run_cli(command[0], "--data", str(data), *DATA_FLAGS, *command[1:])
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (
        "panelspec: error: overflow: least-squares input not finite\n"
    )


@pytest.mark.parametrize("column, message", [
    ("x1", "overflow: least-squares column norm not finite"),
    ("y", "overflow: sum of squares not finite"),
])
def test_values_that_overflow_in_pooled_sums_are_data_errors(
    tmp_path, column, message
):
    # Pooled OLS does not demean: the solver's input is finite, and the
    # overflow happens in a column norm or in the sums of squares.
    data = _overflowing_csv(tmp_path, column)
    proc = run_cli("fit", "--data", str(data), *DATA_FLAGS,
                   "--method", "pooled")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"panelspec: error: {message}\n"


@pytest.mark.parametrize("command", [
    ["fit", "--method", "pooled"], ["fit", "--method", "fe"], ["test"],
    ["fit", "--method", "re"], ["fit", "--method", "wfe"],
])
def test_values_that_overflow_in_squares_are_data_errors(tmp_path, command):
    # y = 1.5e308 in one cell of five units: the unit means and the
    # demeaned data stay finite, but a sum of squares overflows; each
    # method names it on one stderr line, with no numpy warning.
    panel = make_panel(20, 3, 2, seed=6)
    y = panel.y.copy()
    y[:5, 0] = 1.5e308
    data = tmp_path / "squares.csv"
    write_long_csv(data, PanelDataset(panel.unit_ids, panel.time_ids, y,
                                      panel.x))
    proc = run_cli(command[0], "--data", str(data), *DATA_FLAGS, *command[1:])
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (
        "panelspec: error: overflow: sum of squares not finite\n"
    )


@pytest.mark.parametrize("flags", [
    ["--beta", "1e308,1e308"],
    ["--contamination", "random", "--m", "5", "--low", "1e308",
     "--high", "1.7e308"],
    # The kernel's squared distances overflow; no weight mass is left.
    ["--kappa", "1e-300"],
    ["--kappa", "1e-320"],
])
def test_simulate_counts_overflow_as_failures(flags, capsys):
    # In-process, where the suite's filterwarnings turns a numpy
    # RuntimeWarning into an error.
    argv = ["simulate", *flags, "--n", "20", "--t", "3", "--s", "2"]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["runs"][0]["failures"] == 2


def test_internal_value_error_propagates(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("internal bug")

    monkeypatch.setattr(cli, "load_long_csv", broken)
    with pytest.raises(ValueError, match="internal bug"):
        cli.main(["fit", "--data", str(FIXTURES / "fe_oracle.csv"),
                  *DATA_FLAGS, "--method", "fe"])


def _test_report(*extra, data=None):
    data = data or FIXTURES / "contaminated_alt.csv"
    proc = run_cli("test", "--data", str(data), *DATA_FLAGS, *extra)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    jsonschema.validate(instance=doc,
                        schema=_schema("test_report.schema.json"))
    return doc


def test_both_tests_on_contaminated_fixture():
    doc = _test_report("--which", "both")
    assert [t["kind"] for t in doc["tests"]] == ["hausman", "weighted_hausman"]
    hausman, weighted = doc["tests"]
    assert weighted["statistic"] > hausman["statistic"]
    assert weighted["p_value"] < hausman["p_value"]
    assert hausman["df"] == 2 and weighted["df"] == 2
    assert not hausman["repaired"] and not weighted["repaired"]
    stats = doc["fit_statistics"]
    assert set(stats) == {"rss_fe", "rss_re", "r_squared_fe", "r_squared_re"}
    assert stats["rss_fe"] > 0 and stats["rss_re"] > 0
    assert 0.0 <= doc["theta"] <= 1.0


def test_report_fit_statistics_equal_fit_fields():
    stats = _test_report()["fit_statistics"]
    for method, suffix in (("fe", "_fe"), ("re", "_re")):
        doc = _fit(method, FIXTURES / "contaminated_alt.csv")
        assert stats["rss" + suffix] == doc["rss"]
        assert stats["r_squared" + suffix] == doc["r_squared"]


def test_which_selects_single_record():
    doc = _test_report("--which", "hausman")
    assert [t["kind"] for t in doc["tests"]] == ["hausman"]
    doc = _test_report("--which", "weighted")
    assert [t["kind"] for t in doc["tests"]] == ["weighted_hausman"]


def test_test_csv_projection():
    proc = run_cli("test", "--data", str(FIXTURES / "contaminated_alt.csv"),
                   *DATA_FLAGS, "--format", "csv")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == ("test,statistic,df,p_value,repaired,"
                        "rss_fe,rss_re,r_squared_fe,r_squared_re")
    assert len(lines) == 3
    for line in lines[1:]:
        assert len(line.split(",")) == 9


_SIM_ARGS = ["simulate", "--n", "25", "--t", "4", "--s", "3",
             "--gammas", "0.05,0.10", "--seed", "5"]


def test_simulate_json_schema_and_determinism():
    first = run_cli(*_SIM_ARGS, text=False)
    second = run_cli(*_SIM_ARGS, text=False)
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    doc = json.loads(first.stdout)
    jsonschema.validate(instance=doc,
                        schema=_schema("simulate_report.schema.json"))
    assert len(doc["runs"]) == 1
    run = doc["runs"][0]
    assert run["hypothesis"] == "null"
    assert run["scheme"] == "none"
    assert run["s_replications"] == 3
    assert run["failures"] == 0
    assert sorted(run["tests"]) == ["hausman", "weighted_hausman"]


@pytest.mark.parametrize("flags,dgp,contamination,gammas", [
    (["--n", "25", "--t", "4", "--gammas", "0.05,0.10", "--seed", "5"],
     DgpConfig(n_units=25, n_periods=4, seed=5), None, (0.05, 0.10)),
    (["--n", "30", "--t", "3", "--seed", "6", "--contamination", "random",
      "--m", "6", "--low", "4", "--high", "8"],
     DgpConfig(n_units=30, n_periods=3, seed=6),
     ContaminationConfig(scheme=RANDOM_VERTICAL, n_outliers=6,
                         low=4.0, high=8.0),
     (0.05,)),
], ids=["clean", "contaminated"])
def test_library_and_cli_write_the_same_study(flags, dgp, contamination,
                                              gammas):
    study = run_study(dgp, contamination, s=3, gamma_grid=gammas)
    report = study_to_json([study])
    jsonschema.validate(instance=json.loads(report),
                        schema=_schema("simulate_report.schema.json"))
    for fmt, text in (("json", report), ("csv", study_to_csv([study]))):
        proc = run_cli("simulate", *flags, "--s", "3", "--format", fmt,
                       text=False)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == text.encode()


def test_simulate_all_failed_is_strict_json():
    # N(T-1) = 2 does not exceed K = 2, so every replication fails.
    proc = run_cli("simulate", "--n", "2", "--t", "2", "--s", "3")
    assert proc.returncode == 0, proc.stderr

    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    doc = json.loads(proc.stdout, parse_constant=reject)
    jsonschema.validate(instance=doc,
                        schema=_schema("simulate_report.schema.json"))
    run = doc["runs"][0]
    assert run["failures"] == 3
    for test in run["tests"].values():
        assert test["rejection_rates"] == [None]
        assert test["statistics"] == []


def test_simulate_preset_grid_csv_shape():
    proc = run_cli("simulate", "--paper-figure", "1", "--s", "2",
                   "--seed", "3", "--format", "csv")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().split("\n")
    header = lines[0].split(",")
    assert header == ["test", "hypothesis", "n_units", "n_periods", "scheme",
                      "m", "gamma", "rejection_rate", "s", "failures"]
    # 6 panel sizes x 4 levels x 2 tests
    assert len(lines) == 1 + 48
    n_values = set()
    for line in lines[1:]:
        row = line.split(",")
        assert row[1] == "null"
        assert row[3] == "4"
        assert row[4] == "none"
        assert row[5] == "0"
        n_values.add(int(row[2]))
    assert n_values == {25, 50, 75, 100, 150, 200}


def test_simulate_writes_output_file(tmp_path):
    out = tmp_path / "study.json"
    proc = run_cli(*_SIM_ARGS, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
    doc = json.loads(out.read_text())
    assert "runs" in doc


def test_simulate_capacity_error():
    proc = run_cli("simulate", "--n", "100", "--t", "3", "--s", "2",
                   "--contamination", "random", "--m", "301")
    assert proc.returncode == 1
    assert "panelspec: error:" in proc.stderr
    assert "301" in proc.stderr


# sha256 of the `simulate` JSON report for two paper grids, and of the weighted
# fit and both tests on the contaminated fixture. Every least-squares
# solve, transform and kernel sum on the study path feeds these bytes, so a
# speed-up that moves any bit fails here. A change that declares new numbers
# updates the hashes and states the old and new ones in CHANGES.md. Taken
# with the numpy 2.4 / scipy 1.17 OpenBLAS wheels; another BLAS build may
# round differently.
PINNED_SIMULATE_SHA256 = {
    ("1", "3"): "f70b28928c01490f1e21ce75c2917d88720ec1ce689db437407cabec520d9aef",
    ("4", "2"): "629fff48d54b5b1401a5bf61a70758972817d8be33cfa9b757b8a9811365c0fb",
}


@pytest.mark.parametrize("figure,s", sorted(PINNED_SIMULATE_SHA256))
def test_simulate_paper_figure_output_is_pinned(figure, s):
    proc = run_cli("simulate", "--paper-figure", figure, "--s", s,
                   "--format", "json", text=False)
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256(proc.stdout).hexdigest()
    assert digest == PINNED_SIMULATE_SHA256[(figure, s)]


PINNED_FIXTURE_SHA256 = {
    ("fit", "--method", "wfe"):
        "5ed15f861552145d6cbf5cfcc7e056e8bcd4b14a70e0bdac5f9c32dce472cae5",
    ("test",):
        "4109acbf7544672cb8d9733f16b91c235934766df736dda49c641a1b5b8b2b3b",
}


@pytest.mark.parametrize("command", sorted(PINNED_FIXTURE_SHA256))
def test_contaminated_fixture_output_is_pinned(command):
    data = FIXTURES / "contaminated_alt.csv"
    proc = run_cli(command[0], "--data", str(data), *DATA_FLAGS, *command[1:],
                   text=False)
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256(proc.stdout).hexdigest()
    assert digest == PINNED_FIXTURE_SHA256[command]


# The one-shot fits on the same fixture, whose reports carry no weights.
PINNED_UNWEIGHTED_FIT_SHA256 = {
    "pooled": "ac27bdfda8672e54f78deabb8ef818f920208d069b26f359c537a0589e36b4b5",
    "fe": "367d6deac0530519774d6c216cc2cf162fac8ea94b00fd7f12d4f623be8dc3fd",
    "re": "0a629ded875a814be51fa9cbb4598d97ce73d7eef9d9738d4225ca448bfeb1d0",
}


@pytest.mark.parametrize("method", sorted(PINNED_UNWEIGHTED_FIT_SHA256))
def test_unweighted_fit_output_is_pinned(method):
    data = FIXTURES / "contaminated_alt.csv"
    proc = run_cli("fit", "--data", str(data), *DATA_FLAGS, "--method", method,
                   text=False)
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256(proc.stdout).hexdigest()
    assert digest == PINNED_UNWEIGHTED_FIT_SHA256[method]


# The same pins at the size of the benchmark's CSV workload: a 2000 x 4
# panel is 8000 records, so the loader reads it in more than one block.
PINNED_LARGE_SHA256 = {
    ("fit", "--method", "wfe"):
        "5cf6d8ff6394bf924aadfec6104787e9a1310e1317feaadb842ae9b4a9299df2",
    ("test",):
        "9cb4919c4fc8adeccfb8e51ce4822ba18809ec0fd874d2a5d6dcfe366bd1cc9a",
}


@pytest.mark.parametrize("command", sorted(PINNED_LARGE_SHA256))
def test_large_panel_output_is_pinned(tmp_path, command):
    data = tmp_path / "large.csv"
    write_long_csv(data, make_panel(2000, 4, 2, seed=2000))
    proc = run_cli(command[0], "--data", str(data), *DATA_FLAGS, *command[1:],
                   text=False)
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256(proc.stdout).hexdigest()
    assert digest == PINNED_LARGE_SHA256[command]
