"""Tests of the benchmark itself, at tiny degree bounds.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Degree bounds that keep one iteration well under a second; each has its
# own entry in the golden files.
TINY = {"oracle-sweep": 1, "axioms-commutative": 1, "rank-oracle-dense": 1,
        "bracket-table": 4}


def test_benchmark_json_names_what_the_run_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        tracer.metric_units()


@pytest.mark.parametrize("name", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
def test_every_metric_is_reported_with_its_unit(name, trace):
    attempted, failed, metrics = run.report("", name, 1, 0, trace,
                                            degree=TINY[name])
    assert failed == 0 and attempted >= 2
    units = tracer.metric_units() if trace else run.END_TO_END
    assert {key: m["unit"] for key, m in metrics.items()} == units


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_corrupted_output_fails_the_golden_check(name, tmp_path,
                                                 monkeypatch):
    import qhoch.cli
    config = tmp_path / "config.json"
    config.write_text(json.dumps(workloads.run_config(name, 1, TINY[name])))

    def work():
        A, max_degree, _seeds = qhoch.cli.load_config(str(config))
        record = workloads.WORK[name](A, max_degree, str(config), 1)[0]
        return workloads.golden_failures(name, max_degree, record)

    assert work() == 0
    real_cli = workloads._cli

    def corrupted_cli(argv):
        code, out = real_cli(argv)
        return code, out.replace(b"1", b"2", 1)

    def corrupted_cup(A, f1, f2):
        return qhoch.cup(A, f1, f2) + qhoch.cup(A, f1, f2)

    def corrupted_suite(A, max_degree):
        return ["graded commutativity fails: d1#0,d1#0"]

    monkeypatch.setattr(workloads, "_cli", corrupted_cli)
    monkeypatch.setattr(qhoch, "cup_oracle", corrupted_cup)
    monkeypatch.setattr(qhoch, "axiom_suite", corrupted_suite)
    assert work() == 1


# Calls each workload must reach, whichever module namespace the caller
# looked the function up in (cli binds bracket by ``from ... import``).
REACHED = {
    "oracle-sweep": ["gerstenhaber.circ_oracle", "resolution.diagonal",
                     "scalars.Scalar.mul"],
    "axioms-commutative": ["gerstenhaber.bracket",
                           "cohomology.is_coboundary", "gerstenhaber.cup"],
    "rank-oracle-dense": ["cohomology.average",
                          "cohomology.invariant_rank_oracle",
                          "linalg.RowReducer.add"],
    "bracket-table": ["gerstenhaber.bracket", "gerstenhaber.circ",
                      "cli.render"],
}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_counts_repeat_exactly(name):
    first, second = (run.run_workload(name, 7, 0, True, TINY[name])[2]
                     for _ in range(2))
    timed = [key for key in first
             if key.endswith(".self_s") or key == "trace.overhead_share"]
    for key in timed:
        del first[key], second[key]
    assert first == second
    for span in REACHED[name]:
        assert first[f"{span}.calls"][0] > 0, span


def test_oracle_seeds_come_from_the_seed():
    drawn = workloads.oracle_seeds(5)
    assert drawn == workloads.oracle_seeds(5) != workloads.oracle_seeds(6)
    assert all(2 <= s <= 97 for s in drawn)


def test_excluded_oracle_seed_is_non_generic(tmp_path):
    """Seed 63 makes the seeded rank oracle report a dims mismatch that is
    not there; the benchmark never draws it (see workloads.py)."""
    import qhoch.cli
    for seed in workloads.NON_GENERIC_ORACLE_SEEDS:
        config = workloads.run_config("rank-oracle-dense", 1, degree=2)
        config["seeds"] = [seed]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert qhoch.cli.main(["dims", "--config", str(path), "--verify",
                               "--format", "json"]) == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bracket-table",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
