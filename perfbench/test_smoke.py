"""Smoke test of the benchmark itself, at tiny sizes.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_smoke.py

It checks that every metric named in BENCHMARK.json comes out with its unit,
that the correctness gate is live (a wrong expected value and a raising call
are both counted as failed operations), and that the command refuses to run
without the library source next to it.
"""

import json
import shutil
import subprocess
import sys

from bootstrap import ROOT, use_checkout_source

use_checkout_source()

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {
    "lp-certify": (("general", 8, 1.0), ("uniform", 9, 2.0)),
    "knapsack-exact": (("knapsack", 4),),
    "ration-mc": (("single-unit", 3), ("knapsack", 4)),
}


def tiny_pool(name, tmp_path, traced):
    gate = workloads.Gate(Tracer(traced))
    spec = workloads.WORKLOADS[name]
    pool = spec.build_pool(7, tmp_path / "instance.json", gate, size=4, schedule=TINY[name])
    return spec, pool, gate


def test_every_metric_is_reported_with_its_unit(tmp_path):
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    for traced, listed in ((False, SPEC["end_to_end"]), (True, SPEC["per_layer"])):
        expected = {m["name"]: m["unit"] for m in listed}
        for name in run.WORKLOAD_NAMES:
            spec, pool, gate = tiny_pool(name, tmp_path, traced)
            rows = run.run(spec, pool, gate, 0.05, traced, [0.1, 0.2, 0.3])
            assert {metric: unit for metric, _, unit, _ in rows} == expected, name
            assert gate.attempted > 0 and gate.failed == 0, gate.failures


def test_wrong_expected_value_is_a_failed_operation(tmp_path, monkeypatch):
    spec, pool, gate = tiny_pool("lp-certify", tmp_path, False)
    run.run(spec, pool, gate, 0.05, False, [0.1])
    assert gate.failed == 0
    monkeypatch.setattr(workloads, "expected_alpha", lambda rho: workloads.alpha_0(rho) + 1e-3)
    attempted = gate.attempted
    rows = run.run(spec, pool, gate, 0.05, True, [0.1])
    assert gate.failed > 0 and gate.attempted > attempted
    frac = {metric: value for metric, value, _, _ in rows}["ops_failed_frac"]
    assert frac == gate.failed / gate.attempted > 0


def test_raising_call_fails_it_and_its_dependents(tmp_path, monkeypatch):
    spec, pool, gate = tiny_pool("knapsack-exact", tmp_path, False)

    def broken(inst, plan):
        raise RuntimeError("injected")

    monkeypatch.setattr(workloads, "run_knapsack_exact", broken)
    gate.certify(spec.certify, pool[0])
    # the exact run, its rate error and the monitor that reads its result
    assert gate.failed == 3
    assert gate.failures[-3].startswith("knapsack.run_knapsack_exact: RuntimeError")


def test_command_prints_one_result_line():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lp-certify", "--seed", "3",
         "--seconds", "0.01", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_command_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lp-certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout == ""
    assert not (tmp_path / ".perfbench").exists()
