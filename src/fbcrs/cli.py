"""Command-line interface: instance I/O, experiments, sweeps, report emission.

Exit codes: 0 success, 2 a guarantee or invariant check failed, 3 infeasible
or invalid input, usage errors included.  simulate-knapsack and ration run
exact unless --trials asks for Monte Carlo.  Every subcommand is
deterministic given its flags; --seed falls back to the FBCRS_SEED
environment variable, then to 0, and must be a nonnegative integer.

CSV headers (RFC 4180, UTF-8, '.' decimal separator):
  simulate-single-unit: element,c_f,c_b,empirical_rate,ci_low,ci_high
  simulate-knapsack (no --trials): element,c_f,c_b,rate_f,rate_b,rate_error
  simulate-knapsack (--trials): element,c_f,c_b,rate_f,ci_low_f,ci_high_f,rate_b,ci_low_b,ci_high_b
  ration: agent,beta,q,x,c_f,c_b,tau_f,tau_b,expected_service,bound,slack
  sweep: n,rho,primal,dual,gap,bound
Element and agent columns are 1-based.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from contextlib import contextmanager

from .errors import InfeasibleError, InvalidInstanceError, InvariantViolationError, SolverError
from .instances import (
    KnapsackInstance,
    RationingInstance,
    SingleUnitInstance,
    SizeLaw,
    load_instance,
    load_service_levels,
)
from .knapsack import closed_form_knapsack_plan, monitor_trace, replay_branches, run_knapsack_exact
from .lp_si import alpha_0, certify_lp_si, check_certificate, dual_certificate_uniform, dual_feasibility, solve_lp_si
from .rationing import exante_check, max_uniform_beta, run_rationing, takes_knapsack_route
from .single_unit import closed_form_plan, mc_selection_rates
from .tolerances import LP_TOL, RATE_TOL

MONITOR_GRID = tuple(round(0.05 * k, 10) for k in range(1, 11))


def _resolve_seed(value: str | None) -> int:
    """--seed, else $FBCRS_SEED, else 0, as a nonnegative integer."""
    source, text = ("--seed", value) if value is not None else ("FBCRS_SEED", os.environ.get("FBCRS_SEED", "0"))
    try:
        seed = int(text)
        if seed < 0:
            raise ValueError
    except ValueError:
        raise InvalidInstanceError(f"{source} must be a nonnegative integer, got {text!r}") from None
    return seed


def _load(path: str, kind):
    inst = load_instance(path)
    if not isinstance(inst, kind):
        raise InvalidInstanceError(
            f"{path} holds a {type(inst).__name__}, expected {kind.__name__}"
        )
    return inst


@contextmanager
def _open_out(path: str | None, newline: str | None = None):
    """The --out file open for writing, or sys.stdout without one; failing
    to open, write or close the file raises InvalidInstanceError."""
    if not path:
        yield sys.stdout
        return
    try:
        with open(path, "w", newline=newline, encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise InvalidInstanceError(f"cannot write output file {path}: {exc}") from None


def _emit_json(out: str | None, payload: dict) -> None:
    with _open_out(out) as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")


def _emit_csv(out: str | None, header: list[str], rows: list[list]) -> None:
    with _open_out(out, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([["" if v is None else v for v in row] for row in rows])


def _uniform_certificate(n: int, rho: float, lpopt: float = -math.inf):
    """(cert, feasibility report, bound, ok) for the paper's certificate on n
    elements of mass rho/n: ok when it is feasible and lpopt <= objective <=
    bound = alpha_0(rho) + (rho + 2)/n, each side within LP_TOL."""
    cert = dual_certificate_uniform(n, rho)
    report = dual_feasibility(cert, rho)
    bound = alpha_0(rho) + (rho + 2.0) / n
    ok = report.ok() and lpopt - LP_TOL <= cert.objective <= bound + LP_TOL
    return cert, report, bound, ok


def cmd_constants(args) -> int:
    """The headline guarantees, each computed from its closed form."""
    values = {
        "adversarial": 0.5,
        "two-order-threshold": (math.sqrt(5.0) - 1.0) / 2.0,
        "fb-crs": alpha_0(1.0),
        "random-order": 1.0 - math.exp(-1.0),
        "knapsack-adversarial": 1.0 / (3.0 + math.exp(-2.0)),
        "knapsack-fb": 1.0 / 3.0,
        "knapsack-fb-upper": alpha_0(2.0),
        "knapsack-random-upper": (1.0 - math.exp(-2.0)) / 2.0,
    }
    _emit_json(args.out, {k: round(v, 12) for k, v in values.items()})
    return 0


def cmd_lp_solve(args) -> int:
    """The LP plan; with --dual also a certificate, its worst violation and
    gap: the paper's on uniform odd instances, judged as by dual-certificate,
    else the LP's own, judged by check_certificate and a gap within LP_TOL."""
    inst = _load(args.instance, SingleUnitInstance)
    plan, cert = certify_lp_si(inst)
    payload = {
        "lpopt": plan.objective,
        "c_f": list(plan.c_f),
        "c_b": list(plan.c_b),
    }
    ok = True
    if args.dual:
        if len(set(inst.x)) == 1 and inst.n % 2 == 1:
            cert, report, _, ok = _uniform_certificate(inst.n, inst.rho, plan.objective)
        else:
            report = check_certificate(cert, inst.x)
            ok = report.ok() and cert.objective - plan.objective <= LP_TOL
        payload["dual_objective"] = cert.objective
        payload["max_violation"] = report.max_violation
        payload["gap"] = cert.objective - plan.objective
    _emit_json(args.out, payload)
    return 0 if ok else 2


def cmd_simulate_single_unit(args) -> int:
    inst = _load(args.instance, SingleUnitInstance)
    if args.trials is None:
        raise InvalidInstanceError("simulate-single-unit needs --trials")
    seed = _resolve_seed(args.seed)
    plan = closed_form_plan(inst) if args.plan == "closed" else solve_lp_si(inst)
    estimates = mc_selection_rates(inst, plan, args.trials, seed)
    rows = []
    for i in range(inst.n):
        est = estimates[("overall", i)]
        rows.append([i + 1, plan.c_f[i], plan.c_b[i], est.point, est.ci_low, est.ci_high])
    _emit_csv(args.out, ["element", "c_f", "c_b", "empirical_rate", "ci_low", "ci_high"], rows)
    return 0


def cmd_simulate_knapsack(args) -> int:
    inst = _load(args.instance, KnapsackInstance)
    seed = _resolve_seed(args.seed)
    plan = closed_form_knapsack_plan(inst)
    exact = run_knapsack_exact(inst, plan)  # the MC replay and the monitor both read it
    code = 0
    if args.trials is None:
        rows = [
            [i + 1, plan.c_f[i], plan.c_b[i], exact.rates_f[i], exact.rates_b[i], err]
            for i, err in enumerate(exact.rate_errors(plan))
        ]
        header = ["element", "c_f", "c_b", "rate_f", "rate_b", "rate_error"]
    else:
        estimates = replay_branches(inst, exact, args.trials, seed)
        rows = []
        for i in range(inst.n):
            ef, eb = estimates[("f", i)], estimates[("b", i)]
            rows.append(
                [i + 1, plan.c_f[i], plan.c_b[i],
                 ef.point, ef.ci_low, ef.ci_high, eb.point, eb.ci_low, eb.ci_high]
            )
        header = ["element", "c_f", "c_b",
                  "rate_f", "ci_low_f", "ci_high_f", "rate_b", "ci_low_b", "ci_high_b"]
    if args.monitor:
        report = monitor_trace(inst, plan, exact, MONITOR_GRID)
        summary = {
            "total_violations": report.total_violations,
            "max_expectation_error": report.max_expectation_error,
            "ok": report.ok(),
            "grid": exact.grid,
            "rounded": exact.rounded,
        }
        print(json.dumps(summary), file=sys.stderr)
        if not report.ok():
            code = 2
    _emit_csv(args.out, header, rows)
    return code


def cmd_ration(args) -> int:
    inst = _load(args.instance, RationingInstance)
    mode = "exact" if args.trials is None else "mc"
    seed = _resolve_seed(args.seed)
    if args.beta == "auto":
        betas = (max_uniform_beta(inst),) * inst.n
    else:
        betas = load_service_levels(args.beta)
    target = exante_check(inst, betas)
    if target is None:
        raise InfeasibleError("requested service levels need more than the unit supply")
    plan = None
    if args.plan == "closed" and not takes_knapsack_route(target):
        plan = closed_form_plan(target.single_unit())
    result = run_rationing(inst, target, plan=plan, mode=mode, trials=args.trials or 0, seed=seed)
    if result.rounded:
        print(json.dumps({"grid": result.grid, "rounded": True}), file=sys.stderr)
    rows = [
        [a.index + 1, a.beta, a.q, a.x, a.c_f, a.c_b, a.tau_f, a.tau_b,
         a.expected_service, a.bound, a.slack]
        for a in result.agents
    ]
    # exact mode raises on a missed guarantee
    code = 2 if mode == "mc" and not result.guarantee_ok() else 0
    header = ["agent", "beta", "q", "x", "c_f", "c_b", "tau_f", "tau_b", "expected_service", "bound", "slack"]
    _emit_csv(args.out, header, rows)
    return code


def cmd_dual_certificate(args) -> int:
    cert, report, bound, ok = _uniform_certificate(args.n, args.rho)
    payload = {"n": args.n, "rho": args.rho, "objective": cert.objective, "bound": bound,
               "max_violation": report.max_violation, "xi_sum_slack": report.xi_sum_slack,
               "min_entry": report.min_entry, "ok": ok}
    _emit_json(args.out, payload)
    return 0 if ok else 2


def cmd_sweep(args) -> int:
    try:
        ns = [int(v) for v in args.n.split(",") if v]
        rhos = [float(v) for v in args.rho.split(",") if v]
    except ValueError as exc:
        raise InvalidInstanceError(f"sweep grids must be comma-separated numbers: {exc}") from None
    if not ns or not rhos:
        raise InvalidInstanceError("sweep needs nonempty --n and --rho grids")
    if min(ns) < 1:
        raise InvalidInstanceError("sweep needs element counts n >= 1")
    rows = []
    code = 0
    for n in ns:
        for rho in rhos:
            if args.kind == "knapsack-min":
                if not 0.0 < rho <= 1.0:
                    raise InvalidInstanceError("knapsack-min needs total mass rho in (0, 1]")
                inst = KnapsackInstance((SizeLaw(((rho / n, 1.0),)),) * n)
                plan = closed_form_knapsack_plan(inst)
                result = run_knapsack_exact(inst, plan)
                primal = plan.objective
                dual = (4.0 - rho) / 9.0
                gap = max(abs(primal - dual), result.max_rate_error(plan))
                bound = RATE_TOL
                failed = gap > bound
            else:
                inst = SingleUnitInstance((rho / n,) * n)
                primal = solve_lp_si(inst).objective
                bound = (rho + 2.0) / n
                if args.kind == "lpopt":
                    dual = alpha_0(rho)
                    gap = primal - dual
                    failed = gap < -LP_TOL or gap > bound + LP_TOL
                else:  # dual-gap
                    cert, _, _, ok = _uniform_certificate(n, rho, primal)
                    dual = cert.objective
                    gap = dual - primal
                    failed = not ok
            if failed:
                code = 2
            rows.append([n, rho, primal, dual, gap, bound])
    _emit_csv(args.out, ["n", "rho", "primal", "dual", "gap", "bound"], rows)
    return code


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors (a bad number or choice, a missing command)
    exiting 3, the code of invalid input; subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fbcrs",
        description="Forward-backward contention resolution: LP, executors, rationing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--trials", type=int, default=None, help="run Monte Carlo with this many trials")
        p.add_argument("--seed", default=None, help="root seed (default: $FBCRS_SEED or 0)")
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    p = sub.add_parser("constants", help="headline guarantees from their closed forms")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_constants)

    p = sub.add_parser("lp-solve", help="instance-optimal selection plan")
    p.add_argument("--instance", required=True)
    p.add_argument("--dual", action="store_true",
                   help="also print a dual certificate's objective, worst violation and gap "
                   "(the paper's certificate on uniform odd instances, else the LP's own)")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_lp_solve)

    p = sub.add_parser("simulate-single-unit", help="Monte Carlo selection rates")
    p.add_argument("--instance", required=True)
    p.add_argument("--plan", choices=("lp", "closed"), default="closed")
    common(p)
    p.set_defaults(handler=cmd_simulate_single_unit)

    p = sub.add_parser("simulate-knapsack", help="knapsack executor rates: exact, or sampled with --trials")
    p.add_argument("--instance", required=True)
    p.add_argument("--monitor", action="store_true",
                   help="check induction invariants; JSON report to stderr, exit 2 on violations")
    common(p)
    p.set_defaults(handler=cmd_simulate_knapsack)

    p = sub.add_parser("ration", help="solve service targets and execute the allocation (sampled with --trials)")
    p.add_argument("--instance", required=True)
    p.add_argument("--beta", default="auto",
                   help='"auto" for the max uniform level, or a JSON file of per-agent levels')
    p.add_argument("--plan", choices=("lp", "closed"), default="lp",
                   help="single-unit route plan source (the knapsack route uses the closed form)")
    common(p)
    p.set_defaults(handler=cmd_ration)

    p = sub.add_parser("dual-certificate", help="uniform-instance dual certificate and bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_dual_certificate)

    p = sub.add_parser("sweep", help="grid report over (n, rho)")
    p.add_argument("--kind", choices=("lpopt", "dual-gap", "knapsack-min"), required=True)
    p.add_argument("--n", required=True, help="comma-separated element counts")
    p.add_argument("--rho", required=True, help="comma-separated total masses")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if getattr(args, "trials", None) is not None and args.trials < 1:
            raise InvalidInstanceError("--trials must be >= 1")
        return args.handler(args)
    except (InvalidInstanceError, InfeasibleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InvariantViolationError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
