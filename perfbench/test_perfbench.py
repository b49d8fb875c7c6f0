"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checker  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from csreject import cli, harness  # noqa: E402


def golden(workload, name):
    grid = next(g for g in workloads.grids(workload, workloads.GOLDEN_SEED) if g.name == name)
    return grid, harness.read_csv(os.path.join(ROOT, grid.golden_path(workload)))


@pytest.mark.parametrize("workload", ["clean-csv", "weak-synth"])
def test_golden_rows_pass_the_checker(workload):
    for grid in workloads.grids(workload, workloads.GOLDEN_SEED):
        _, rows = golden(workload, grid.name)
        assert checker.check_grid(grid, rows, 0, rows) == (len(grid.cells()), [])


def _shift_one_reject(row, n_test):
    """A self-consistent row with one more distance reject than `row`."""
    rr = (row.n_reject_distance + row.n_reject_ambiguity + 1) / n_test
    return dataclasses.replace(
        row,
        n_reject_distance=row.n_reject_distance + 1,
        rejection_ratio=rr,
        risk01c=row.cost * rr + (1 - rr) * row.accepted_error,
    )


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda r, n: dataclasses.replace(r, risk01c=r.risk01c + 0.01),
        lambda r, n: dataclasses.replace(r, rejection_ratio=1.5),
        lambda r, n: dataclasses.replace(r, accepted_error=float("nan")),
        lambda r, n: dataclasses.replace(r, n_reject_distance=r.n_reject_distance + 3),
        _shift_one_reject,  # consistent, so only the golden comparison catches it
    ],
)
def test_checker_fails_closed_on_a_corrupted_row(corrupt):
    grid, rows = golden("clean-csv", "clean")
    bad = [corrupt(rows[0], grid.n_test)] + rows[1:]
    attempted, reasons = checker.check_grid(grid, bad, 0, rows)
    assert attempted == len(rows)
    assert len(reasons) == 1 and str(rows[0].key()) in reasons[0]


def test_a_consistent_row_passes_without_golden_rows():
    grid, rows = golden("clean-csv", "clean")
    bad = [_shift_one_reject(rows[0], grid.n_test)] + rows[1:]
    assert checker.check_grid(grid, bad, 0, None) == (len(rows), [])


def test_checker_counts_missing_duplicated_and_flagged_cells():
    grid, rows = golden("clean-csv", "clean")
    assert len(checker.check_grid(grid, rows[1:], 0, rows)[1]) == 1
    assert len(checker.check_grid(grid, rows + rows[:1], 0, rows)[1]) == 1
    assert len(checker.check_grid(grid, rows, 2, rows)[1]) == 2
    assert len(checker.check_grid(grid, [], 0, rows)[1]) == len(rows)


def test_flagged_count_reads_the_run_summary():
    assert checker.flagged_count("wrote 5 rows to x.csv (2 flagged)\n", 1) == 2
    assert checker.flagged_count("wrote 5 rows to x.csv (0 flagged)\n", 0) == 0
    assert checker.flagged_count("wrote 5 rows to x.csv (0 flagged)\n", 1) == 1
    assert checker.flagged_count("", 0) == 1


def test_checker_fails_closed_on_a_fail_line():
    audit = workloads.audits("audit", 0)[0]
    text = "\n".join(f"[PASS] line {i}" for i in range(7))
    assert checker.check_lines(audit, text, 0) == (7, [])
    assert checker.check_lines(audit, text.replace("[PASS] line 3", "[FAIL] line 3"), 1) == (7, ["[FAIL] line 3"])
    assert len(checker.check_lines(audit, "\n".join(text.splitlines()[:5]), 0)[1]) == 2
    assert len(checker.check_lines(audit, text, 1)[1]) == 1


def _program_attributes():
    """Every attribute of every csreject module and class, by identity."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith("csreject"):
            continue
        for key, value in vars(mod).items():
            found[(name, key)] = value
            if isinstance(value, type) and value.__module__.startswith("csreject"):
                for attr, member in vars(value).items():
                    found[(name, key, attr)] = member
    return found


def _same(a, b):
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


def test_tracer_restores_every_wrapper(tmp_path):
    before = _program_attributes()
    argv = ["run", "--dataset", "gauss3", "--methods", "cs-sigmoid,sce", "--setting", "noisy"]
    argv += ["--costs", "0.4", "--trials", "1", "--epochs", "1", "--out", str(tmp_path / "rows.csv")]
    with tracer.Tracer() as tr:
        assert not _same(_program_attributes(), before)
        assert cli.main(argv) == 0
    assert _same(_program_attributes(), before)

    metrics = tr.layer_metrics()
    assert set(metrics) | {"trace.overhead_s"} == set(tracer.PER_LAYER)
    assert metrics["harness.cells"] == 2
    assert metrics["baselines.tune_candidates"] == len(harness.baselines.default_candidates())
    assert metrics["models.steps"] > 0 and metrics["weaksup.pu_steps"] == 0
    assert 0 < metrics["harness.cell_self_s"] < metrics["harness.cell_s"]

    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            raise RuntimeError("boom")
    assert _same(_program_attributes(), before)


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(tracer.PER_LAYER.items())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_result_matches_benchmark_json(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    cmd = [*bench["command"], "--workload", "audit", "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = bench["per_layer"] if trace else bench["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "audit", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
