"""Seeded workloads: instance generators and the certification pipelines.

Each workload builds a pool of instances from ``--seed`` (after a JSON
round-trip through the library's own dump/load), then certifies instances one
at a time.  Every library call is an operation of the ``Gate``: it fails when
the call raises or when its check rejects the result.  A failed operation is
counted, never retried, and later operations that depend on its result fail
in turn.

Instance sizes follow a fixed schedule that cycles through the pool; only the
values inside each instance depend on the seed.  That keeps the amount of
work per run nearly independent of the seed, so run-to-run spread measures
the program and the machine rather than the draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fbcrs import (
    DemandLaw,
    KnapsackExactResult,
    KnapsackInstance,
    RationingInstance,
    ServiceTarget,
    SingleUnitInstance,
    SizeLaw,
    alpha_0,
    check_knapsack_feasible,
    closed_form_knapsack_plan,
    closed_form_plan,
    dual_certificate_uniform,
    dual_feasibility,
    dump_instance,
    exact_selection_rates,
    exante_check,
    knapsack_reduction,
    load_instance,
    max_uniform_beta,
    mc_selection_rates,
    monitor_trace,
    run_knapsack_exact,
    run_knapsack_mc,
    run_rationing,
    solve_lp_si,
)
from fbcrs.cli import MONITOR_GRID
from fbcrs.lp_si import LP_TOL

RATE_TOL = 1e-10
# The CLI's Monte Carlo rule: an estimate agrees with the exact value when
# they differ by at most three interval half-widths.  The absolute slack is
# the library's calibration tolerance, for agents whose service never varies.
MC_HALF_WIDTHS = 3.0
MC_ABS_TOL = 1e-9
MC_TRIALS = 50_000
# Operating point below the largest uniform service level, as in the
# rationing demo.
SERVICE_SCALE = 0.95
POOL_SIZE = 240


def expected_alpha(rho: float) -> float:
    """The guarantee every single-unit plan is checked against."""
    return alpha_0(rho)


class Gate:
    """Counts operations and failures for the correctness gate."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, name: str, thunk, check=None):
        """Run one operation; ``check(result)`` returns None or a problem."""
        self.attempted += 1
        try:
            result = self.tracer.call(name, thunk)
        except Exception as exc:  # a raising call is a failed operation
            self._fail(name, f"{type(exc).__name__}: {exc}")
            return None
        if check is not None:
            try:
                problem = check(result)
            except Exception as exc:  # a check that cannot run rejects the result
                problem = f"check raised {type(exc).__name__}: {exc}"
            if problem:
                self._fail(name, problem)
        return result

    def certify(self, certify, item) -> None:
        """Run one instance's pipeline.  Glue code that raises outside an
        operation (only possible after an earlier failure) fails one more."""
        try:
            certify(item, self)
        except Exception as exc:
            self.attempted += 1
            self._fail("pipeline", f"{type(exc).__name__}: {exc}")

    def _fail(self, name: str, problem: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{name}: {problem}")


@dataclass(frozen=True)
class Item:
    """One pool entry: the instance as the library loaded it, its schedule
    kind and the seed its Monte Carlo calls use."""

    kind: str
    seed: int
    instance: object


# --- generators ---------------------------------------------------------------


def _probabilities(rng, k: int, low: float) -> list[float]:
    w = rng.uniform(low, 1.0, k)
    w = w / w.sum()
    head = [float(v) for v in w[:-1]]
    return head + [1.0 - math.fsum(head)]


def _single_unit_raw(rng, kind: str, n: int, rho: float):
    if kind == "uniform":
        return (rho / n,) * n
    while True:
        w = rng.uniform(0.05, 1.0, n)
        x = tuple(float(v) for v in rho * w / w.sum())
        if x != x[::-1]:
            return x


def _stratified(rng, k: int, top: int) -> list[int]:
    """k distinct grid points in 1..top, one from each of k equal strata."""
    edges = [round(j * top / k) for j in range(k + 1)]
    return [int(rng.integers(edges[j] + 1, edges[j + 1] + 1)) for j in range(k)]


def _knapsack_raw(rng, kind: str, n: int):
    """3 or 4 size atoms per element (alternating), one per stratum of a 1/1000
    grid on (0, 1]; total mean size 1."""
    laws = []
    for i in range(n):
        k = 3 + i % 2
        sizes = [s / 1000.0 for s in _stratified(rng, k, 1000)]
        w = _probabilities(rng, k, 0.5)
        active = 1.0 / (n * math.fsum(s * p for s, p in zip(sizes, w)))
        probs = [active * p for p in w]
        laws.append((tuple(zip(sizes, probs)), 1.0 - math.fsum(probs)))
    return laws


def _build_knapsack(raw) -> KnapsackInstance:
    return KnapsackInstance(tuple(SizeLaw(atoms, inactive) for atoms, inactive in raw))


def _rationing_raw(rng, kind: str, n: int):
    """2 or 3 demand atoms per agent (alternating), one per stratum of a 1/100
    grid up to about 3/n; Type-II and Type-III agents alternate, and on the
    knapsack route the middle agent is Type-I."""
    top = max(3, round(300 / n))
    demands, service = [], []
    for i in range(n):
        k = 2 + i % 2
        values = [d / 100.0 for d in _stratified(rng, k, top)]
        demands.append(tuple(zip(values, _probabilities(rng, k, 0.2))))
        service.append("TypeII" if i % 2 == 0 else "TypeIII")
    if kind == "knapsack":
        service[n // 2] = "TypeI"
    return demands, tuple(service)


def _build_rationing(raw) -> RationingInstance:
    demands, service = raw
    return RationingInstance(tuple(DemandLaw(atoms) for atoms in demands), service)


# --- pipelines ------------------------------------------------------------------


def _lp_problem(plan, inst: SingleUnitInstance, a0: float):
    if plan.objective < a0 - LP_TOL:
        return f"LP objective {plan.objective!r} below alpha_0 {a0!r}"
    if not plan.is_feasible(inst):
        return f"LP plan infeasible by {plan.max_violation(inst)!r}"
    return None


def _rate_problem(plan, rates_f, rates_b, tol: float):
    worst = max(abs(r - c) for r, c in zip(rates_f + rates_b, plan.c_f + plan.c_b))
    return None if worst <= tol else f"rates miss the plan by {worst!r}"


def _mc_rate_problem(estimates, plan, n: int):
    for tag, rates in (("f", plan.c_f), ("b", plan.c_b)):
        for i in range(n):
            est = estimates[(tag, i)]
            if abs(est.point - rates[i]) > MC_HALF_WIDTHS * est.half_width + MC_ABS_TOL:
                return f"MC rate {est.point!r} for ({tag}, {i}) disagrees with {rates[i]!r}"
    return None


def certify_single_unit(item: Item, gate: Gate) -> None:
    """lp-certify: LP optimum, closed-form plan and exact rates, plus the dual
    certificate on uniform odd instances."""
    inst = item.instance
    rho = inst.rho
    a0 = expected_alpha(rho)
    lp = gate.op("lp_si.solve_lp_si", lambda: solve_lp_si(inst), lambda p: _lp_problem(p, inst, a0))
    if gate.tracer.enabled:
        gate.tracer.annotate(n=inst.n, palindromic=inst.x == inst.x[::-1])

    def pair_problem(plan):
        worst = max(abs(m - a0) for m in plan.pair_means)
        return None if worst <= RATE_TOL else f"pair mean off alpha_0 by {worst!r}"

    plan = gate.op("single_unit.closed_form_plan", lambda: closed_form_plan(inst), pair_problem)
    gate.op(
        "single_unit.exact_selection_rates",
        lambda: exact_selection_rates(inst, plan),
        lambda rates: _rate_problem(plan, rates[0], rates[1], RATE_TOL),
    )
    if item.kind != "uniform":
        return

    def dual_problem(cert):
        upper = a0 + (rho + 2.0) / inst.n
        if not lp.objective - LP_TOL <= cert.objective <= upper + LP_TOL:
            return f"dual objective {cert.objective!r} outside [{lp.objective!r}, {upper!r}]"
        return None

    cert = gate.op(
        "lp_si.dual_certificate_uniform", lambda: dual_certificate_uniform(inst.n, rho), dual_problem
    )
    gate.op(
        "lp_si.dual_feasibility",
        lambda: dual_feasibility(cert, rho),
        lambda report: None if report.ok() else f"dual infeasible by {report.max_violation!r}",
    )


def _knapsack_plan_problem(plan, inst: KnapsackInstance):
    expected = (4.0 - inst.total_mu) / 9.0
    if abs(plan.objective - expected) > RATE_TOL:
        return f"plan guarantee {plan.objective!r} != {expected!r}"
    return None


def atom_visits(inst: KnapsackInstance, result: KnapsackExactResult) -> int:
    """Fill atoms times (size atoms + 1), summed over both orders and every
    arrival: the work of the exact fill propagation, computed from its result."""
    total = 0
    for traces in (result.traces_f, result.traces_b):
        order = range(inst.n) if traces is result.traces_f else range(inst.n - 1, -1, -1)
        for pos, i in enumerate(order):
            total += len(traces[pos].atoms) * (len(inst.laws[i].atoms) + 1)
    return total


def certify_knapsack(item: Item, gate: Gate) -> None:
    """knapsack-exact: closed-form plan, feasibility, exact fill propagation,
    rate error and the invariant monitor on the b-grid."""
    inst = item.instance
    plan = gate.op(
        "knapsack.closed_form_knapsack_plan",
        lambda: closed_form_knapsack_plan(inst),
        lambda p: _knapsack_plan_problem(p, inst),
    )
    gate.op(
        "knapsack.check_knapsack_feasible",
        lambda: check_knapsack_feasible(plan, inst),
        lambda report: None if report.ok() else f"plan infeasible by {report.max_violation!r}",
    )
    result = gate.op(
        "knapsack.run_knapsack_exact",
        lambda: run_knapsack_exact(inst, plan),
        lambda r: _rate_problem(plan, r.rates_f, r.rates_b, RATE_TOL),
    )
    if gate.tracer.enabled and result is not None:
        gate.tracer.annotate(atom_visits=atom_visits(inst, result))
    gate.op(
        "knapsack.max_rate_error",
        lambda: result.max_rate_error(plan),
        lambda err: None if err <= RATE_TOL else f"max rate error {err!r}",
    )
    gate.op(
        "knapsack.monitor_trace",
        lambda: monitor_trace(inst, plan, result, MONITOR_GRID),
        lambda report: None if report.ok() else f"{report.total_violations} monitor violations",
    )


def _mc_service_problem(mc, exact):
    for got, want in zip(mc.agents, exact.agents):
        reach = MC_HALF_WIDTHS * (got.service_high - got.service_low) / 2.0 + MC_ABS_TOL
        if abs(got.expected_service - want.expected_service) > reach:
            return (
                f"agent {got.index}: MC service {got.expected_service!r} disagrees with "
                f"exact {want.expected_service!r}"
            )
        if got.slack < -reach:
            return f"agent {got.index}: MC slack {got.slack!r} below the guarantee"
    return None


def certify_rationing(item: Item, gate: Gate) -> None:
    """ration-mc: service targets, the route's plan, exact and MC rationing,
    and one more MC cross-check of the plan on the route's own executor."""
    inst = item.instance
    n = inst.n
    beta = gate.op(
        "rationing.max_uniform_beta",
        lambda: max_uniform_beta(inst),
        lambda b: None if 0.0 < b <= 1.0 else f"uniform level {b!r} outside (0, 1]",
    )
    target = gate.op(
        "rationing.exante_check",
        lambda: exante_check(inst, (SERVICE_SCALE * beta,) * n),
        lambda t: "target needs more than the unit supply" if t is None else None,
    )
    if item.kind == "knapsack":
        reduced = gate.op(
            "rationing.knapsack_reduction",
            lambda: knapsack_reduction(inst, target).instance,
            lambda k: None
            if abs(k.total_mu - target.total_supply) <= 1e-9
            else f"reduced mean {k.total_mu!r} != supply {target.total_supply!r}",
        )
        plan = gate.op(
            "knapsack.closed_form_knapsack_plan",
            lambda: closed_form_knapsack_plan(reduced),
            lambda p: _knapsack_plan_problem(p, reduced),
        )
    else:
        twin = gate.op("rationing.single_unit", lambda: ServiceTarget.single_unit(target))
        plan = gate.op(
            "lp_si.solve_lp_si",
            lambda: solve_lp_si(twin),
            lambda p: _lp_problem(p, twin, expected_alpha(twin.rho)),
        )
        if gate.tracer.enabled and twin is not None:
            gate.tracer.annotate(n=twin.n, palindromic=twin.x == twin.x[::-1])

    def route_problem(result):
        if result.route != item.kind:
            return f"took the {result.route} route"
        return None if result.guarantee_ok() else f"guarantee missed, min slack {result.min_slack!r}"

    exact = gate.op(
        "rationing.run_rationing_exact",
        lambda: run_rationing(inst, target, plan=plan, mode="exact", seed=item.seed),
        route_problem,
    )
    gate.op(
        "rationing.run_rationing_mc",
        lambda: run_rationing(inst, target, plan=plan, mode="mc", trials=MC_TRIALS, seed=item.seed),
        lambda mc: _mc_service_problem(mc, exact),
    )
    gate.tracer.annotate(trials=MC_TRIALS)
    if item.kind == "knapsack":
        gate.op(
            "knapsack.run_knapsack_mc",
            lambda: run_knapsack_mc(reduced, plan, MC_TRIALS, item.seed),
            lambda est: _mc_rate_problem(est, plan, reduced.n),
        )
    else:
        gate.op(
            "single_unit.mc_selection_rates",
            lambda: mc_selection_rates(twin, plan, MC_TRIALS, item.seed),
            lambda est: _mc_rate_problem(est, plan, twin.n),
        )
    gate.tracer.annotate(trials=MC_TRIALS)


@dataclass(frozen=True)
class Workload:
    """A size schedule, an instance generator and a certification pipeline."""

    name: str
    schedule: tuple[tuple, ...]  # (kind, n, ...) entries cycled over the pool
    raw: object  # (rng, *entry) -> constructor input
    build: object  # constructor input -> library instance
    certify: object  # (Item, Gate) -> None

    def build_pool(self, seed: int, path, gate: Gate, size: int = POOL_SIZE, schedule=None) -> list[Item]:
        """Generate ``size`` instances and pass each through dump/load."""
        schedule = schedule or self.schedule
        rng = np.random.default_rng([seed, sum(self.name.encode())])
        tracer = gate.tracer
        pool = []
        with tracer.root(f"setup.{self.name}", "setup"):
            for index in range(size):
                entry = schedule[index % len(schedule)]
                raw = self.raw(rng, *entry)
                built = gate.op("instances.build", lambda: self.build(raw))
                gate.op("instances.dump_instance", lambda: dump_instance(built, str(path)))
                loaded = gate.op(
                    "instances.load_instance",
                    lambda: load_instance(str(path)),
                    lambda got: None if got == built else "JSON round-trip changed the instance",
                )
                pool.append(Item(entry[0], int(rng.integers(1 << 31)), loaded))
        return pool


def _interleave(a, b):
    return tuple(x for pair in zip(a, b) for x in pair)


# lp-certify alternates general and uniform instances; n and rho cycle with
# coprime periods (4 sizes, 3 masses) so every combination appears.
LP_CERTIFY = Workload(
    "lp-certify",
    _interleave(
        tuple(("general", n, rho) for n, rho in zip((64, 80, 96, 112) * 3, (0.5, 1.0, 2.0) * 4)),
        tuple(("uniform", n, rho) for n, rho in zip((151, 175, 201, 225) * 3, (0.5, 1.0, 2.0) * 4)),
    ),
    _single_unit_raw,
    SingleUnitInstance,
    certify_single_unit,
)

KNAPSACK_EXACT = Workload(
    "knapsack-exact",
    tuple(("knapsack", n) for n in (16, 20, 24, 28)),
    _knapsack_raw,
    _build_knapsack,
    certify_knapsack,
)

# ration-mc alternates the single-unit route (Type-II/III only) and the
# knapsack route (one Type-I agent).
RATION_MC = Workload(
    "ration-mc",
    _interleave(
        tuple(("single-unit", n) for n in (5, 6, 7, 8)),
        tuple(("knapsack", n) for n in (10, 14, 18, 22)),
    ),
    _rationing_raw,
    _build_rationing,
    certify_rationing,
)

WORKLOADS = {w.name: w for w in (LP_CERTIFY, KNAPSACK_EXACT, RATION_MC)}
