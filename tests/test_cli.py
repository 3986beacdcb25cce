"""End-to-end command-line checks, run through subprocesses except where a
test patches the program in-process."""

import importlib.resources as resources
import importlib.util
import json
import pathlib
import subprocess
import sys

import jsonschema
import pytest

from panelspec import cli
from panelspec.mcstudy import (
    RANDOM_VERTICAL,
    ContaminationConfig,
    DgpConfig,
    run_study,
    study_to_csv,
    study_to_json,
)
from panelspec.wle import WleConfig

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
    assert doc["min_weight"] > 0.5
    assert all(w > 0.5 for row in doc["weights"] for w in row)
    assert len(doc["weights"]) == 50
    assert len(doc["weights"][0]) == 4


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
])
def test_configuration_errors_exit_1(args):
    proc = run_cli(*args)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("panelspec: error:")
    assert proc.stderr.count("\n") == 1


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


def test_forced_theta_degenerates_both_tests():
    doc = _test_report("--force-theta", "1.0", "--raf", "identity",
                       data=FIXTURES / "fe_oracle.csv")
    assert doc["theta"] == 1.0
    for record in doc["tests"]:
        assert abs(record["statistic"]) < 1e-10
        assert record["p_value"] > 1.0 - 1e-12


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
