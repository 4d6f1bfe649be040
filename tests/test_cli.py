"""End-to-end CLI checks: headers, exit codes, seeds, output files."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import jsonschema
import pytest

import fbcrs
from fbcrs import cli, knapsack
from fbcrs.errors import InvariantViolationError, SolverError
from fbcrs.instances import (
    DemandLaw,
    KnapsackInstance,
    RationingInstance,
    SingleUnitInstance,
    SizeLaw,
    dump_instance,
)
from fbcrs.lp_si import DualFeasibilityReport, alpha_0, dual_certificate_uniform, solve_lp_si
from fbcrs.single_unit import closed_form_plan
from fbcrs.tolerances import RATE_TOL


def _report_schema():
    return json.loads(
        resources.files("fbcrs").joinpath("schemas/report.schema.json").read_text()
    )


def _write(tmp_path, name, inst):
    path = tmp_path / name
    dump_instance(inst, str(path))
    return str(path)


@pytest.fixture
def single_unit_path(tmp_path):
    return _write(tmp_path, "su.json", SingleUnitInstance((0.3, 0.5, 0.2)))


@pytest.fixture
def uniform_path(tmp_path):
    return _write(tmp_path, "uniform.json", SingleUnitInstance((0.2,) * 5))


@pytest.fixture
def knapsack_path(tmp_path):
    inst = KnapsackInstance(
        (SizeLaw(((0.5, 1.0),)), SizeLaw(((0.2, 0.5), (0.6, 0.3)), 0.2))
    )
    return _write(tmp_path, "kn.json", inst)


@pytest.fixture
def rationing_path(tmp_path):
    inst = RationingInstance(
        (DemandLaw(((1.0, 1.0),)), DemandLaw(((0.5, 0.5), (2.0, 0.5)))),
        ("TypeII", "TypeIII"),
    )
    return _write(tmp_path, "ra.json", inst)


@pytest.fixture
def type_i_path(tmp_path):
    inst = RationingInstance(
        (DemandLaw(((0.5, 1.0),)), DemandLaw(((0.5, 1.0),))), ("TypeI", "TypeI")
    )
    return _write(tmp_path, "ti.json", inst)


def _rows(out):
    return list(csv.reader(io.StringIO(out)))


# --- constants ---------------------------------------------------------------


def test_import_leaves_scipy_unloaded():
    # scipy is a test-only dependency: importing scipy.optimize adds about
    # 46 MB of resident memory and 0.6 s to every cold start.
    src = str(Path(fbcrs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = "import sys, fbcrs, fbcrs.cli; print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_constants_values_and_schema(capsys):
    assert cli.main(["constants"]) == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, _report_schema())
    assert payload["adversarial"] == 0.5
    assert payload["fb-crs"] == round(alpha_0(1.0), 12)
    assert payload["knapsack-fb"] == round(1.0 / 3.0, 12)
    assert payload["two-order-threshold"] == round((math.sqrt(5.0) - 1.0) / 2.0, 12)
    assert payload["knapsack-adversarial"] == round(1.0 / (3.0 + math.exp(-2.0)), 12)
    assert payload["knapsack-fb-upper"] == round(alpha_0(2.0), 12)
    assert payload["random-order"] == round(1.0 - math.exp(-1.0), 12)
    assert payload["knapsack-random-upper"] == round((1.0 - math.exp(-2.0)) / 2.0, 12)


# --- lp-solve ------------------------------------------------------------------


def test_lp_solve_json(single_unit_path, capsys):
    assert cli.main(["lp-solve", "--instance", single_unit_path]) == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, _report_schema())
    truth = solve_lp_si(SingleUnitInstance((0.3, 0.5, 0.2)))
    assert payload["lpopt"] == pytest.approx(truth.objective, abs=1e-12)
    assert payload["lpopt"] == pytest.approx(0.7, abs=1e-9)
    assert len(payload["c_f"]) == len(payload["c_b"]) == 3


def test_lp_solve_dual_uniform(uniform_path, capsys):
    assert cli.main(["lp-solve", "--instance", uniform_path, "--dual"]) == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, _report_schema())
    assert payload["dual_objective"] >= payload["lpopt"] - 1e-9
    assert payload["max_violation"] <= 1e-9
    # the paper's certificate, whose gap is at most (rho + 2)/n
    assert payload["dual_objective"] == dual_certificate_uniform(5, 1.0).objective
    assert payload["gap"] == payload["dual_objective"] - payload["lpopt"] <= 3.0 / 5.0


def test_lp_solve_dual_nonuniform(single_unit_path, capsys):
    # Any instance gets the LP's own certificate, checked and within LP_TOL.
    assert cli.main(["lp-solve", "--instance", single_unit_path, "--dual"]) == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, _report_schema())
    assert payload["lpopt"] == solve_lp_si(SingleUnitInstance((0.3, 0.5, 0.2))).objective
    assert payload["max_violation"] <= 1e-9
    assert payload["gap"] == payload["dual_objective"] - payload["lpopt"]
    assert 0.0 <= payload["gap"] <= 1e-9


def test_lp_solve_dual_rejects_a_failed_check(single_unit_path, capsys, monkeypatch):
    # A certificate the checker rejects exits 2, and the payload still shows it.
    monkeypatch.setattr(cli, "check_certificate", lambda cert, x: DualFeasibilityReport(1.0, 0.0, 0.0))
    assert cli.main(["lp-solve", "--instance", single_unit_path, "--dual"]) == 2
    assert json.loads(capsys.readouterr().out)["max_violation"] == 1.0


def test_lp_solve_missing_file(tmp_path, capsys):
    assert cli.main(["lp-solve", "--instance", str(tmp_path / "no.json")]) == 3


def test_lp_solve_wrong_kind(rationing_path, capsys):
    assert cli.main(["lp-solve", "--instance", rationing_path]) == 3


# --- simulate-single-unit ---------------------------------------------------


def test_simulate_single_unit_csv(single_unit_path, capsys):
    code = cli.main(
        ["simulate-single-unit", "--instance", single_unit_path,
         "--trials", "4000", "--seed", "1"]
    )
    assert code == 0
    rows = _rows(capsys.readouterr().out)
    assert rows[0] == ["element", "c_f", "c_b", "empirical_rate", "ci_low", "ci_high"]
    assert [r[0] for r in rows[1:]] == ["1", "2", "3"]
    for row in rows[1:]:
        pair = (float(row[1]) + float(row[2])) / 2.0
        assert float(row[4]) <= float(row[3]) <= float(row[5])
        assert abs(float(row[3]) - pair) < 0.1


def test_simulate_single_unit_needs_trials(single_unit_path, capsys):
    assert cli.main(["simulate-single-unit", "--instance", single_unit_path]) == 3


def test_simulate_single_unit_lp_plan(single_unit_path, capsys):
    code = cli.main(
        ["simulate-single-unit", "--instance", single_unit_path,
         "--plan", "lp", "--trials", "2000", "--seed", "2"]
    )
    assert code == 0
    rows = _rows(capsys.readouterr().out)
    truth = solve_lp_si(SingleUnitInstance((0.3, 0.5, 0.2)))
    assert float(rows[1][1]) == pytest.approx(truth.c_f[0], abs=1e-12)


def test_simulate_single_unit_closed_plan_narrow_window(tmp_path, capsys):
    # The middle element's window is far narrower than one ulp of its start.
    path = _write(tmp_path, "narrow.json", SingleUnitInstance((0.5, 1e-20, 0.2)))
    code = cli.main(
        ["simulate-single-unit", "--instance", path, "--plan", "closed", "--trials", "2000"]
    )
    assert code == 0
    rows = _rows(capsys.readouterr().out)
    for row in rows[1:]:
        pair = (float(row[1]) + float(row[2])) / 2.0
        assert pair == pytest.approx(alpha_0(0.7), abs=1e-12)


# --- simulate-knapsack ---------------------------------------------------------


def test_simulate_knapsack_exact(knapsack_path, capsys):
    assert cli.main(["simulate-knapsack", "--instance", knapsack_path]) == 0
    rows = _rows(capsys.readouterr().out)
    assert rows[0] == ["element", "c_f", "c_b", "rate_f", "rate_b", "rate_error"]
    for row in rows[1:]:
        assert float(row[5]) <= 1e-10
        assert float(row[3]) == pytest.approx(float(row[1]), abs=1e-10)


def test_simulate_knapsack_monitor(knapsack_path, capsys):
    code = cli.main(["simulate-knapsack", "--instance", knapsack_path, "--monitor"])
    assert code == 0
    summary = json.loads(capsys.readouterr().err)
    assert summary["ok"] is True
    assert summary["total_violations"] == 0


@pytest.mark.parametrize(
    "sizes, grid, rounded",
    [((0.5, 0.2, 0.6), 10, False), ((0.5123456789, 0.2, 0.6), 4096, True)],
    ids=["grid", "ten-digit-sizes"],
)
def test_simulate_knapsack_monitor_names_the_path(sizes, grid, rounded, tmp_path, capsys):
    inst = KnapsackInstance((SizeLaw(((sizes[0], 1.0),)), SizeLaw(((sizes[1], 0.5), (sizes[2], 0.3)), 0.2)))
    path = _write(tmp_path, "kn.json", inst)
    assert cli.main(["simulate-knapsack", "--instance", path, "--monitor"]) == 0
    summary = json.loads(capsys.readouterr().err)
    assert summary["ok"] is True
    assert summary["grid"] == grid
    assert summary["rounded"] is rounded


def test_simulate_knapsack_mc(knapsack_path, capsys):
    code = cli.main(
        ["simulate-knapsack", "--instance", knapsack_path, "--trials", "20000", "--seed", "3"]
    )
    assert code == 0
    rows = _rows(capsys.readouterr().out)
    assert rows[0] == ["element", "c_f", "c_b",
                       "rate_f", "ci_low_f", "ci_high_f",
                       "rate_b", "ci_low_b", "ci_high_b"]
    for row in rows[1:]:
        c_f, c_b, rate_f, low_f, high_f, rate_b, low_b, high_b = map(float, row[1:])
        for c, rate, low, high in ((c_f, rate_f, low_f, high_f), (c_b, rate_b, low_b, high_b)):
            assert low <= rate <= high
            assert abs(rate - c) <= 3.0 * (high - low) / 2.0


# The multi-atom instance of the CI smoke test, and the output of
# `simulate-knapsack --trials 20000 --seed 1 --monitor` on it
# before the exact run was shared between the replay and the monitor.
SMOKE_KNAPSACK = (
    '{"kind": "knapsack", "n": 4, "laws": [{"atoms": [[0.1, 0.5], [0.4, 0.3]], "inactive": 0.2}, '
    '{"atoms": [[0.2, 0.4], [0.5, 0.3], [1.0, 0.1]], "inactive": 0.2}, {"atoms": [[0.05, 0.6], [0.3, 0.4]]}, '
    '{"atoms": [[0.15, 0.3], [0.35, 0.3], [0.6, 0.2]], "inactive": 0.2}]}'
)
SMOKE_MC_CSV = (
    "element,c_f,c_b,rate_f,ci_low_f,ci_high_f,rate_b,ci_low_b,ci_high_b\r\n"
    "1,0.4255555555555555,0.25888888888888884,0.4318811382523294,0.413696583930437,0.4502511766619645,0.2619285535848114,0.24608825626196965,0.27841193180670687\r\n"
    "2,0.37,0.3144444444444444,0.37248028045574055,0.35486335912587613,0.3904424775970691,0.3147663551401869,0.2979664998538834,0.332065382299017\r\n"
    "3,0.31666666666666665,0.36777777777777776,0.32222110653680086,0.30701219387240825,0.3378161668491732,0.3697838860671248,0.35407964670337927,0.3857686562260542\r\n"
    "4,0.26999999999999996,0.4144444444444444,0.26925972396486825,0.2532314016988042,0.2859141355897846,0.4147219463753724,0.3967861936759182,0.43288662519502735\r\n"
)
SMOKE_MONITOR_JSON = '{"total_violations": 0, "max_expectation_error": 1.1102230246251565e-16, "ok": true, "grid": 20, "rounded": false}' + "\n"


def test_simulate_knapsack_mc_monitor_runs_the_exact_propagation_once(tmp_path, capsys, monkeypatch):
    calls = []

    def counted(run):
        def wrapper(*args):
            calls.append(args)
            return run(*args)

        return wrapper

    monkeypatch.setattr(knapsack, "run_knapsack_exact", counted(knapsack.run_knapsack_exact))
    monkeypatch.setattr(cli, "run_knapsack_exact", counted(cli.run_knapsack_exact))
    path = tmp_path / "knapsack.json"
    path.write_text(SMOKE_KNAPSACK, encoding="utf-8")
    argv = ["simulate-knapsack", "--instance", str(path), "--trials", "20000", "--seed", "1"]
    assert cli.main(argv + ["--monitor"]) == 0
    assert len(calls) == 1
    out = capsys.readouterr()
    assert out.out == SMOKE_MC_CSV
    assert out.err == SMOKE_MONITOR_JSON


def test_trials_alone_selects_sampling(knapsack_path, rationing_path, capsys, monkeypatch):
    assert cli.main(["simulate-knapsack", "--instance", knapsack_path, "--trials", "100"]) == 0
    assert _rows(capsys.readouterr().out)[0][3:6] == ["rate_f", "ci_low_f", "ci_high_f"]
    calls, run_rationing = [], cli.run_rationing

    def recorded(*args, **kwargs):
        calls.append((kwargs["mode"], kwargs["trials"]))
        return run_rationing(*args, **kwargs)

    monkeypatch.setattr(cli, "run_rationing", recorded)
    assert cli.main(["ration", "--instance", rationing_path]) == 0
    assert cli.main(["ration", "--instance", rationing_path, "--trials", "100"]) == 0
    assert calls == [("exact", 0), ("mc", 100)]


# The off-grid instance of the CI smoke test: its sizes lie on no 1/L grid.
SMOKE_KNAPSACK_OFFGRID = (
    '{"kind": "knapsack", "n": 3, "laws": [{"atoms": [[0.1234567891, 0.5], [0.4012345678, 0.3]], "inactive": 0.2}, '
    '{"atoms": [[0.2718281828, 0.6], [0.6180339887, 0.2]], "inactive": 0.2}, '
    '{"atoms": [[0.0577215665, 0.7], [0.3141592654, 0.3]]}]}'
)


@pytest.mark.parametrize("extra", [[], ["--trials", "20000", "--seed", "1"]], ids=["exact", "mc"])
def test_off_grid_smoke_instance_runs_rounded(extra, tmp_path, capsys):
    path = tmp_path / "knapsack_offgrid.json"
    path.write_text(SMOKE_KNAPSACK_OFFGRID, encoding="utf-8")
    assert cli.main(["simulate-knapsack", "--instance", str(path), "--monitor", *extra]) == 0
    summary = json.loads(capsys.readouterr().err)
    assert summary["ok"] is True and summary["total_violations"] == 0
    assert summary["max_expectation_error"] <= RATE_TOL
    assert (summary["grid"], summary["rounded"]) == (4096, True)


# --- ration ---------------------------------------------------------------------


def test_ration_auto_single_unit_route(rationing_path, capsys):
    assert cli.main(["ration", "--instance", rationing_path]) == 0
    rows = _rows(capsys.readouterr().out)
    assert rows[0] == ["agent", "beta", "q", "x", "c_f", "c_b", "tau_f", "tau_b",
                       "expected_service", "bound", "slack"]
    assert [r[0] for r in rows[1:]] == ["1", "2"]
    for row in rows[1:]:
        assert row[6] != "" and row[7] != ""  # taus are real on this route
        assert float(row[10]) >= -1e-9


# Type-II/III demands on no 1/L grid up to 4096: their sizes are rounded
# down onto 1/4096, which `ration` reports on stderr.
OFF_GRID_SU_INSTANCE = RationingInstance(
    (DemandLaw(((0.0001, 0.2), (0.3, 0.5), (1.7, 0.3))), DemandLaw(((0.1234, 0.6), (0.5, 0.4)))),
    ("TypeIII", "TypeII"),
)


@pytest.mark.parametrize("extra", [[], ["--trials", "20000", "--seed", "1"]], ids=["exact", "mc"])
def test_ration_reports_rounded_sizes(extra, rationing_path, tmp_path, capsys):
    # on the 1/2 grid nothing is rounded and stderr stays empty
    assert cli.main(["ration", "--instance", rationing_path, *extra]) == 0
    assert capsys.readouterr().err == ""
    assert cli.main(["ration", "--instance", _write(tmp_path, "offgrid_su.json", OFF_GRID_SU_INSTANCE), *extra]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.err) == {"grid": 4096, "rounded": True}
    if not extra:  # exact mode certifies every slack; mc's exit code 0 says it agrees
        assert all(float(row[10]) >= -1e-9 for row in _rows(captured.out)[1:])


def test_ration_knapsack_route_empty_taus(type_i_path, capsys):
    assert cli.main(["ration", "--instance", type_i_path]) == 0
    rows = _rows(capsys.readouterr().out)
    for row in rows[1:]:
        assert row[6] == "" and row[7] == ""
        assert float(row[10]) >= -1e-9


# At max_uniform_beta the supply shares of this instance sum to within 1e-9
# of 1.  The knapsack reduction holds their total mean size to MASS_TOL, so
# no level may overshoot by the larger SUPPLY_TOL: a bisection that allowed
# it lands at 1 + 9.5e-11 here, at beta 0.9504277473315597.
SUPPLY_LIMIT_INSTANCE = RationingInstance(
    (
        DemandLaw(((0.02, 0.514537382679684), (0.75, 0.48546261732031604))),
        DemandLaw(
            ((0.02, 0.45132688735098053), (0.4, 0.44452956877267186), (0.85, 0.10414354387634761))
        ),
        DemandLaw(((0.26, 0.5991123164339894), (0.69, 0.40088768356601057))),
    ),
    ("TypeII", "TypeI", "TypeII"),
)


def test_ration_auto_at_the_supply_limit_knapsack_route(tmp_path, capsys):
    path = _write(tmp_path, "limit.json", SUPPLY_LIMIT_INSTANCE)
    assert cli.main(["ration", "--instance", path]) == 0
    rows = _rows(capsys.readouterr().out)
    assert [r[0] for r in rows[1:]] == ["1", "2", "3"]
    assert math.fsum(float(r[3]) for r in rows[1:]) == pytest.approx(1.0, abs=1e-8)
    for row in rows[1:]:
        assert row[6] == "" and row[7] == ""  # knapsack route: no thresholds
        assert float(row[10]) >= -1e-9


def test_ration_auto_on_off_grid_type_i_demands(tmp_path, capsys):
    # the reduced sizes are rounded up onto 1/4096 and total past 1 at the
    # level auto picks; the run must still certify every agent
    inst = RationingInstance(
        (DemandLaw(((0.2500001, 1.0),)), DemandLaw(((0.2500001, 1.0),)), DemandLaw(((0.4999997, 0.5), (1.5, 0.5)))),
        ("TypeI", "TypeI", "TypeII"),
    )
    assert cli.main(["ration", "--instance", _write(tmp_path, "offgrid.json", inst)]) == 0
    rows = _rows(capsys.readouterr().out)
    assert [r[0] for r in rows[1:]] == ["1", "2", "3"]
    for row in rows[1:]:
        assert row[6] == "" and row[7] == ""  # knapsack route: no thresholds
        assert float(row[10]) >= -1e-9


# A Type-I agent past the unit supply puts the auto level at 0, so no agent
# buys supply: the run allocates nothing, on the single-unit route.
NO_SUPPLY_INSTANCE = RationingInstance(
    (DemandLaw(((0.5, 1.0),)), DemandLaw(((1.4, 0.5), (1.5, 0.5)))), ("TypeII", "TypeI")
)


@pytest.mark.parametrize("extra", [[], ["--trials", "20000", "--seed", "1"]], ids=["exact", "mc"])
def test_ration_auto_target_that_buys_no_supply(extra, tmp_path, capsys):
    assert cli.main(["ration", "--instance", _write(tmp_path, "no_supply.json", NO_SUPPLY_INSTANCE), *extra]) == 0
    rows = _rows(capsys.readouterr().out)
    assert [r[0] for r in rows[1:]] == ["1", "2"]
    for row in rows[1:]:
        assert float(row[1]) == 0.0 and float(row[3]) == 0.0  # beta and x
        assert row[6] != "" and row[7] != ""  # single-unit route: thresholds
        assert float(row[10]) == 0.0


def test_ration_beta_file_just_above_the_supply_limit(tmp_path, capsys):
    # a user level whose supply total lies in (1 + MASS_TOL, 1 + SUPPLY_TOL]
    # is refused by the ex-ante check, not by the knapsack reduction after it
    path = _write(tmp_path, "limit.json", SUPPLY_LIMIT_INSTANCE)
    beta_path = tmp_path / "beta.json"
    beta_path.write_text(json.dumps([0.9504277473315597] * 3), encoding="utf-8")
    assert cli.main(["ration", "--instance", path, "--beta", str(beta_path)]) == 3
    err = capsys.readouterr().err
    assert "need more than the unit supply" in err
    assert "total mean size" not in err


def test_ration_beta_file(rationing_path, tmp_path, capsys):
    beta_path = tmp_path / "beta.json"
    beta_path.write_text("[0.4, 0.4]\n", encoding="utf-8")
    assert cli.main(["ration", "--instance", rationing_path, "--beta", str(beta_path)]) == 0
    rows = _rows(capsys.readouterr().out)
    assert all(float(r[1]) == 0.4 for r in rows[1:])


def test_ration_infeasible_beta(rationing_path, tmp_path, capsys):
    beta_path = tmp_path / "beta.json"
    beta_path.write_text("[0.9, 0.9]\n", encoding="utf-8")
    code = cli.main(["ration", "--instance", rationing_path, "--beta", str(beta_path)])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_ration_mc_mode(rationing_path, capsys):
    code = cli.main(
        ["ration", "--instance", rationing_path, "--trials", "20000", "--seed", "4"]
    )
    assert code == 0
    rows = _rows(capsys.readouterr().out)
    assert len(rows) == 3


def test_ration_closed_plan_flag(rationing_path, capsys):
    assert cli.main(["ration", "--instance", rationing_path, "--plan", "closed"]) == 0
    rows = _rows(capsys.readouterr().out)
    assert float(rows[1][10]) >= -1e-9


def test_ration_closed_plan_flag_on_a_target_that_buys_no_supply(tmp_path, monkeypatch):
    # the single-unit route runs the closed form it was asked for, Type-I or not
    plans, run_rationing = [], cli.run_rationing

    def recorded(*args, **kwargs):
        plans.append(kwargs["plan"])
        return run_rationing(*args, **kwargs)

    monkeypatch.setattr(cli, "run_rationing", recorded)
    path = _write(tmp_path, "no_supply.json", NO_SUPPLY_INSTANCE)
    assert cli.main(["ration", "--instance", path, "--plan", "closed"]) == 0
    assert plans == [closed_form_plan(SingleUnitInstance((0.0, 0.0)))]


# --- dual-certificate -------------------------------------------------------------


def test_dual_certificate_json(capsys):
    assert cli.main(["dual-certificate", "--n", "11", "--rho", "1.0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, _report_schema())
    assert payload["ok"] is True
    assert payload["objective"] <= payload["bound"] + 1e-9
    assert payload["max_violation"] <= 1e-9


@pytest.mark.parametrize(
    "argv",
    [
        ["lp-solve", "--instance", "{uniform}", "--dual"],
        ["dual-certificate", "--n", "11", "--rho", "1.0"],
        ["sweep", "--kind", "dual-gap", "--n", "11", "--rho", "1.0"],
    ],
    ids=["lp-solve-dual", "dual-certificate", "sweep-dual-gap"],
)
def test_uniform_certificate_above_its_bound_exits_2(argv, uniform_path, capsys, monkeypatch):
    # Every command judges the certificate by one rule, whose upper side is
    # alpha_0(rho) + (rho + 2)/n: with alpha_0 read as 0 it fails all three.
    monkeypatch.setattr(cli, "alpha_0", lambda rho: 0.0)
    assert cli.main([arg.format(uniform=uniform_path) for arg in argv]) == 2


def test_dual_certificate_rejects_even_n(capsys):
    assert cli.main(["dual-certificate", "--n", "4", "--rho", "1.0"]) == 3


# --- sweep --------------------------------------------------------------------------


def test_sweep_lpopt(capsys):
    assert cli.main(["sweep", "--kind", "lpopt", "--n", "11,21", "--rho", "1.0"]) == 0
    rows = _rows(capsys.readouterr().out)
    assert rows[0] == ["n", "rho", "primal", "dual", "gap", "bound"]
    assert len(rows) == 3
    for row in rows[1:]:
        assert -1e-9 <= float(row[4]) <= float(row[5]) + 1e-9


def test_sweep_dual_gap(capsys):
    assert cli.main(["sweep", "--kind", "dual-gap", "--n", "11", "--rho", "0.5,1.0"]) == 0
    rows = _rows(capsys.readouterr().out)
    for row in rows[1:]:
        assert -1e-9 <= float(row[4]) <= float(row[5]) + 1e-9


def test_sweep_knapsack_min(capsys):
    assert cli.main(["sweep", "--kind", "knapsack-min", "--n", "10", "--rho", "0.5,1.0"]) == 0
    rows = _rows(capsys.readouterr().out)
    for row in rows[1:]:
        assert float(row[4]) <= float(row[5])


def test_sweep_knapsack_min_gap_above_bound_exits_2(capsys, monkeypatch):
    # A rate error of 5e-10 exceeds the printed bound RATE_TOL = 1e-10, so
    # the row fails even though it is within RATE_TOL + LP_TOL.
    off = SimpleNamespace(max_rate_error=lambda plan: 5e-10)
    monkeypatch.setattr(cli, "run_knapsack_exact", lambda inst, plan: off)
    assert cli.main(["sweep", "--kind", "knapsack-min", "--n", "10", "--rho", "1.0"]) == 2
    row = _rows(capsys.readouterr().out)[1]
    assert float(row[4]) == 5e-10 and float(row[5]) == 1e-10


def test_sweep_knapsack_min_rejects_rho_above_one(capsys):
    assert cli.main(["sweep", "--kind", "knapsack-min", "--n", "10", "--rho", "1.5"]) == 3


def test_sweep_empty_grid(capsys):
    assert cli.main(["sweep", "--kind", "lpopt", "--n", "", "--rho", "1.0"]) == 3


# --- seeds, output files, exit-code mapping -------------------------------------


def test_fbcrs_seed_env_fallback(single_unit_path, capsys, monkeypatch):
    monkeypatch.setenv("FBCRS_SEED", "123")
    args = ["simulate-single-unit", "--instance", single_unit_path, "--trials", "2000"]
    assert cli.main(args) == 0
    first = capsys.readouterr().out
    assert cli.main(args) == 0
    assert capsys.readouterr().out == first
    monkeypatch.delenv("FBCRS_SEED")
    assert cli.main(args + ["--seed", "123"]) == 0
    assert capsys.readouterr().out == first  # explicit seed equals the env route


@pytest.mark.parametrize("value", ["abc", "-1"])
def test_fbcrs_seed_env_rejects_non_seeds(rationing_path, capsys, monkeypatch, value):
    monkeypatch.setenv("FBCRS_SEED", value)
    assert cli.main(["ration", "--instance", rationing_path]) == 3
    assert "FBCRS_SEED must be a nonnegative integer" in capsys.readouterr().err


def test_out_writes_file(single_unit_path, tmp_path, capsys):
    out = tmp_path / "plan.json"
    assert cli.main(["lp-solve", "--instance", single_unit_path, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["lpopt"] == pytest.approx(0.7, abs=1e-9)


def test_out_writes_csv_file(knapsack_path, tmp_path, capsys):
    out = tmp_path / "rates.csv"
    assert cli.main(["simulate-knapsack", "--instance", knapsack_path, "--out", str(out)]) == 0
    rows = list(csv.reader(out.open(encoding="utf-8", newline="")))
    assert rows[0][0] == "element"


FULL_DEVICE = "/dev/full"  # opens, then every write fails with ENOSPC


@pytest.mark.parametrize(
    "target",
    [
        "missing-dir",
        "a-directory",
        pytest.param("full-device", marks=pytest.mark.skipif(not os.path.exists(FULL_DEVICE), reason="no /dev/full")),
    ],
)
@pytest.mark.parametrize("command", ["constants-json", "simulate-knapsack-csv"])
def test_unwritable_out_exits_3(command, target, knapsack_path, tmp_path, capsys):
    out = {"missing-dir": tmp_path / "missing" / "x.out", "a-directory": tmp_path, "full-device": FULL_DEVICE}[target]
    argv = ["constants"] if command == "constants-json" else ["simulate-knapsack", "--instance", knapsack_path]
    assert cli.main(argv + ["--out", str(out)]) == 3
    assert "cannot write output file" in capsys.readouterr().err


SU_JSON = '{"kind": "single_unit", "n": 2, "x": [0.3, 0.5]}'
KN_JSON = '{"kind": "knapsack", "n": 1, "laws": [{"atoms": [[0.5, 0.5]], "inactive": 0.5}]}'


@pytest.mark.parametrize(
    "argv, files",
    [
        # an instance missing "x"
        (["lp-solve", "--instance", "{bad}"], {"bad": '{"kind": "single_unit", "n": 2}'}),
        # a knapsack atom with three numbers
        (
            ["simulate-knapsack", "--instance", "{bad}"],
            {"bad": '{"kind": "knapsack", "n": 1, "laws": [{"atoms": [[0.5, 0.5, 0.1]], "inactive": 0.5}]}'},
        ),
        # --beta on a missing file
        (["ration", "--instance", "{ra}", "--beta", "{missing}"], {}),
        # --beta on a JSON object, not a list of levels
        (["ration", "--instance", "{ra}", "--beta", "{beta}"], {"beta": '{"a": 0.4, "b": 0.4}'}),
        (["sweep", "--kind", "lpopt", "--n", "0", "--rho", "1.0"], {}),
        # a non-finite total mass
        (["dual-certificate", "--n", "3", "--rho", "nan"], {}),
        (["dual-certificate", "--n", "3", "--rho", "inf"], {}),
        # a total mass above the element count: x_i = rho/n > 1
        (["dual-certificate", "--n", "1", "--rho", "2"], {}),
        (["dual-certificate", "--n", "3", "--rho", "4"], {}),
        # a seed that is not a nonnegative integer, even without --trials, when nothing is sampled
        (["ration", "--instance", "{ra}", "--seed", "-1"], {}),
        (["simulate-single-unit", "--instance", "{su}", "--trials", "100", "--seed", "1.5"], {"su": SU_JSON}),
        # no trials to sample
        (["simulate-single-unit", "--instance", "{su}", "--trials", "0"], {"su": SU_JSON}),
        (["simulate-knapsack", "--instance", "{kn}", "--trials", "0"], {"kn": KN_JSON}),
        (["ration", "--instance", "{ra}", "--trials", "0"], {}),
    ],
    ids=[
        "missing-x",
        "three-number-atom",
        "missing-beta-file",
        "beta-object",
        "sweep-n-0",
        "rho-nan",
        "rho-inf",
        "rho-above-n-1",
        "rho-above-n-3",
        "seed-negative",
        "seed-fraction",
        "single-unit-trials-0",
        "knapsack-trials-0",
        "ration-trials-0",
    ],
)
def test_malformed_outside_input_exits_3(rationing_path, tmp_path, capsys, argv, files):
    paths = {"ra": rationing_path, "missing": str(tmp_path / "missing.json")}
    for name, text in files.items():
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(text, encoding="utf-8")
    assert cli.main([arg.format(**paths) for arg in argv]) == 3
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate-single-unit", "--instance", "su.json", "--trials", "abc"],
        ["dual-certificate", "--n", "x", "--rho", "1"],
        ["dual-certificate", "--n", "3", "--rho", "y"],
        ["ration", "--instance", "ra.json", "--plan", "bogus"],
        # --mode is retired: sampling is asked for by --trials alone
        ["simulate-knapsack", "--instance", "kn.json", "--mode", "exact"],
        # --workers is retired: trials run on one thread per chunk, up to the CPUs
        ["simulate-single-unit", "--instance", "su.json", "--trials", "100000", "--workers", "2"],
        ["simulate-single-unit", "--instance", "su.json", "--trials", "1000", "--workers", "0"],
        ["simulate-single-unit", "--instance", "su.json", "--trials", "1000", "--workers", "-3"],
        [],
    ],
    ids=[
        "bad-int",
        "bad-int-n",
        "bad-float",
        "bad-choice",
        "retired-mode",
        "retired-workers",
        "retired-workers-0",
        "retired-workers-negative",
        "missing-command",
    ],
)
def test_usage_errors_exit_3(argv, capsys):
    # exit 2 would read as a failed guarantee or invariant check
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 3
    assert "usage: fbcrs" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["simulate-knapsack", "--help"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 0
    assert "usage: fbcrs" in capsys.readouterr().out


@pytest.mark.parametrize("exc", [InvariantViolationError, SolverError])
def test_invariant_errors_map_to_exit_2(monkeypatch, capsys, exc):
    def boom(args):
        raise exc("synthetic failure")

    monkeypatch.setattr(cli, "cmd_constants", boom)
    assert cli.main(["constants"]) == 2
    assert "synthetic failure" in capsys.readouterr().err
