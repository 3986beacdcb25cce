"""Smoke test of the benchmark harness at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

TINY = run.Plan(sim_s=1, fit_units=40, test_units=40, fit_files=2,
                setup_starts=1, kde_sizes=(300,), xcheck_reps=3,
                xcheck_fit_units=40, xcheck_thread_units=10)
DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(name, trace, seed=3):
    s, record = run.run(run.WORKLOADS[name], seed, 0.05, trace, TINY,
                        say=lambda line: None)
    assert s.checks and s.correct, [c for c in s.checks if not c["ok"]]
    assert s.attempted > 0 and s.failed == 0
    return s, record


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_every_declared_metric_is_reported(name, trace):
    s, record = _run(name, trace)
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    line = run.result_line(s, record["metrics"], declared)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == [d["name"] for d in declared]
    unsized = {f"wle.kde_ms.n{n}" for n in run.Plan().kde_sizes} - {
        f"wle.kde_ms.n{n}" for n in TINY.kde_sizes}
    for name, metric in line["metrics"].items():
        if name not in unsized:
            assert isinstance(metric["value"], (int, float)), (name, metric)
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_traced_counts_repeat_exactly():
    first = _run("sim_contaminated", True)[1]["metrics"]
    second = _run("sim_contaminated", True)[1]["metrics"]
    for key in ("wle.iterations_total", "wle.cap_hits", "wle.kde_calls",
                "linalg.qr_calls_per_rep", "linalg.noniter_qr_calls_per_rep",
                "transforms.within.calls_per_rep"):
        assert first[key] == second[key], key


@pytest.mark.parametrize("workload", ["test_csv", "all"])
def test_main_prints_the_result_last(workload, monkeypatch, capsys):
    monkeypatch.setattr(run, "Plan", lambda: TINY)
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.05"])
    line = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 0 and line["correct"] and line["failed"] == 0
    per_workload = len(DECLARED["end_to_end"])
    assert len(line["metrics"]) == per_workload * (
        len(run.WORKLOADS) if workload == "all" else 1)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim_clean",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_simulate_layers_come_from_the_program_run():
    s, record = _run("sim_clean", True)
    metrics = record["metrics"]
    assert metrics["linalg.noniter_qr_calls_per_rep"] == 5
    assert metrics["transforms.within.calls_per_rep"] == 3
    assert metrics["mcstudy.replication_ms_p50"] > 0
    assert any(c["check"] == "replayed statistics equal simulate output"
               for c in s.checks)
