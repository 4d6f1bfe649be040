"""Acceptance gate: nine headline guarantees, each timed and reported.

Every criterion prints one PASS/FAIL line (visible under pytest -s, or by
running this file directly) and fails loudly if a tolerance or its runtime
budget is missed.
"""

import math
import sys
import time
import traceback
from itertools import product

import numpy as np

from fbcrs.errors import InvalidInstanceError
from fbcrs.instances import (
    BACKWARD,
    FORWARD,
    DemandLaw,
    KnapsackInstance,
    RationingInstance,
    SingleUnitInstance,
    SizeLaw,
    knapsack_hardness_instance,
)
from fbcrs.knapsack import (
    closed_form_knapsack_plan,
    monitor_trace,
    run_knapsack_exact,
)
from fbcrs.lp_si import alpha_0, dual_certificate_uniform, solve_lp_si
from fbcrs.rationing import exante_check, max_uniform_beta, run_rationing
from fbcrs.single_unit import closed_form_plan, exact_selection_rates, mc_selection_rates

from oracles import arrival_order, match_fill_atoms, replay_knapsack_paths, split_element

B_GRID = tuple(0.05 * k for k in range(1, 11))


def _report(k, failures, elapsed, budget):
    if elapsed >= budget:
        failures = failures + [f"runtime {elapsed:.2f}s over budget {budget:.0f}s"]
    status = "PASS" if not failures else "FAIL"
    detail = "" if not failures else " -- " + "; ".join(failures)
    print(f"criterion {k}: {status} [{elapsed:.2f}s]{detail}")
    assert not failures, f"criterion {k}:" + detail


def test_criterion_1_alpha0_identity():
    t0 = time.perf_counter()
    failures = []
    a1 = alpha_0(1.0)
    if abs(a1 - 1.0 / (1.0 + math.exp(-0.5))) > 5e-13:
        failures.append(f"alpha_0(1) = {a1!r} does not match its closed form")
    for rho in (0.1, 0.5, 1.0, 2.0, 5.0):
        a = alpha_0(rho)
        gap = abs((1.0 - a * rho) - a * math.exp(-rho / 2.0))
        if gap > 1e-12:
            failures.append(f"identity off by {gap:.2e} at rho={rho}")
    _report(1, failures, time.perf_counter() - t0, budget=1.0)


def test_criterion_2_lpopt_sandwich():
    t0 = time.perf_counter()
    failures = []
    a0 = alpha_0(1.0)
    for N in (11, 101, 1001):
        primal = solve_lp_si(SingleUnitInstance((1.0 / N,) * N)).objective
        cert = dual_certificate_uniform(N, 1.0)
        chain = (
            ("alpha_0 <= LPOPT", primal - a0),
            ("LPOPT <= dual", cert.objective - primal),
            ("dual <= alpha_0 + 3/N", a0 + 3.0 / N - cert.objective),
        )
        for name, slack in chain:
            if slack < -1e-9:
                failures.append(f"N={N}: {name} violated by {-slack:.2e}")
    _report(2, failures, time.perf_counter() - t0, budget=30.0)


def test_criterion_3_closed_form_equality():
    t0 = time.perf_counter()
    failures = []
    for rho, n in product((0.25, 1.0, 2.0), (1, 2, 10, 101)):
        if rho == 2.0 and n == 1:
            try:
                SingleUnitInstance((2.0,))
                failures.append("x = 2 was accepted as a valid instance")
            except InvalidInstanceError:
                pass
            continue
        inst = SingleUnitInstance((rho / n,) * n)
        plan = closed_form_plan(inst)
        target = alpha_0(rho)
        if abs(plan.objective - target) > 1e-10:
            failures.append(f"rho={rho}, n={n}: objective off by "
                            f"{abs(plan.objective - target):.2e}")
        if not plan.is_feasible(inst):
            failures.append(f"rho={rho}, n={n}: plan infeasible")
    _report(3, failures, time.perf_counter() - t0, budget=5.0)


def test_criterion_4_executor_exactness():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(2024)
    cases = [SingleUnitInstance((1.0 / n,) * n) for n in (1, 2, 3, 5, 8, 13, 20)]
    for n in (4, 9, 16, 20):
        raw = rng.random(n) + 0.05
        cases.append(SingleUnitInstance(tuple(raw / raw.sum() * 0.8)))
    for inst in cases:
        for plan in (closed_form_plan(inst), solve_lp_si(inst)):
            rates_f, rates_b = exact_selection_rates(inst, plan)
            err = max(
                max(abs(a - b) for a, b in zip(rates_f, plan.c_f)),
                max(abs(a - b) for a, b in zip(rates_b, plan.c_b)),
            )
            if err > 1e-12:
                failures.append(f"n={inst.n}: exact rates off by {err:.2e}")

    inst = SingleUnitInstance((1.0 / 8,) * 8)
    plan = closed_form_plan(inst)
    rates_f, rates_b = exact_selection_rates(inst, plan)
    est = mc_selection_rates(inst, plan, trials=10**6, seed=2024)
    for i in range(inst.n):
        for key, truth in (
            (("f", i), rates_f[i]),
            (("b", i), rates_b[i]),
            (("overall", i), (rates_f[i] + rates_b[i]) / 2.0),
        ):
            e = est[key]
            if abs(e.point - truth) > 3.0 * e.half_width:
                failures.append(
                    f"MC {key}: point {e.point:.5f} vs exact {truth:.5f} "
                    f"outside 3 half-widths"
                )
    _report(4, failures, time.perf_counter() - t0, budget=120.0)


def test_criterion_5_knapsack_third():
    t0 = time.perf_counter()
    failures = []
    n = 50
    for denom in (50, 64):  # unit-mass grid and a partial-mass grid
        inst = KnapsackInstance((SizeLaw(((1.0 / denom, 1.0),)),) * n)
        plan = closed_form_knapsack_plan(inst)
        result = run_knapsack_exact(inst, plan)
        err = result.max_rate_error(plan)
        if err > 1e-10:
            failures.append(f"1/{denom} grid: rate error {err:.2e}")
        if denom == n and abs(min(plan.pair_means) - 1.0 / 3.0) > 1e-10:
            failures.append("min pair mean misses 1/3")
        report = monitor_trace(inst, plan, result, B_GRID)
        if report.total_violations or not report.ok():
            failures.append(
                f"1/{denom} grid: {report.total_violations} monitor violations"
            )
    _report(5, failures, time.perf_counter() - t0, budget=60.0)


def test_criterion_6_knapsack_hardness():
    t0 = time.perf_counter()
    failures = []
    for n in (2, 10, 100):
        _, twin = knapsack_hardness_instance(n)
        rho = 2.0 * n / (n + 2)
        lpopt = solve_lp_si(twin).objective
        bound = alpha_0(rho) + (rho + 2.0) / (2 * n + 1)
        if lpopt > bound + 1e-9:
            failures.append(f"n={n}: LPOPT {lpopt:.6f} above bound {bound:.6f}")
        if n == 100 and abs(lpopt - 0.422323) > 0.02:
            failures.append(f"n=100: LPOPT {lpopt:.6f} not near 0.422323")
    _report(6, failures, time.perf_counter() - t0, budget=60.0)


def _mixed_instance(seed):
    rng = np.random.default_rng(seed)
    demands, service = [], []
    for i in range(5):
        k = int(rng.integers(1, 4))
        values = np.sort(rng.choice(np.arange(1, 11) * 0.2, size=k, replace=False))
        probs = rng.random(k) + 0.1
        probs = probs / probs.sum()
        atoms = tuple((float(v), float(p)) for v, p in zip(values[:-1], probs[:-1]))
        atoms += ((float(values[-1]), float(1.0 - math.fsum(probs[:-1]))),)
        demands.append(DemandLaw(atoms))
        service.append("TypeII" if (i + int(rng.integers(0, 2))) % 2 == 0 else "TypeIII")
    if "TypeII" not in service:
        service[0] = "TypeII"
    if "TypeIII" not in service:
        service[-1] = "TypeIII"
    return RationingInstance(tuple(demands), tuple(service))


def test_criterion_7_reduction_guarantee():
    t0 = time.perf_counter()
    failures = []

    unit = DemandLaw(((1.0, 1.0),))
    inst = RationingInstance((unit, unit), ("TypeII", "TypeII"))
    target = exante_check(inst, (0.5, 0.5))
    result = run_rationing(inst, target, mode="exact", seed=0)
    for agent in result.agents:
        if abs(agent.expected_alloc - 0.375) > 1e-9:
            failures.append(f"agent {agent.index}: E[Y] = {agent.expected_alloc!r}")
        if abs(agent.expected_service - 0.75 * agent.beta) > 1e-9:
            failures.append(f"agent {agent.index}: E[s] = {agent.expected_service!r}")

    for seed in range(10):
        mixed = _mixed_instance(seed)
        beta = 0.9 * max_uniform_beta(mixed)
        target = exante_check(mixed, (beta,) * 5)
        if target is None:
            failures.append(f"seed {seed}: scaled-back uniform level infeasible")
            continue
        mc = run_rationing(mixed, target, mode="mc", trials=10**6, seed=seed)
        for agent in mc.agents:
            half = (agent.service_high - agent.service_low) / 2.0
            if agent.expected_service < 0.622 * agent.beta - 3.0 * half:
                failures.append(
                    f"seed {seed}, agent {agent.index}: service "
                    f"{agent.expected_service:.5f} below 0.622*beta - 3hw"
                )
    _report(7, failures, time.perf_counter() - t0, budget=300.0)


def test_criterion_8_splitting_monotonicity():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(88)
    for trial in range(50):
        n = int(rng.integers(1, 9))
        x = tuple(rng.random(n) * min(1.0, 1.2 / n))
        inst = SingleUnitInstance(x)
        k = int(rng.integers(1, n + 1))
        before = solve_lp_si(inst).objective
        after = solve_lp_si(split_element(inst, k)).objective
        if after > before + 1e-9:
            failures.append(
                f"trial {trial}: split at {k} raised LPOPT by {after - before:.2e}"
            )
    _report(8, failures, time.perf_counter() - t0, budget=30.0)


ORACLE_LAWS = (
    SizeLaw(((0.3, 1.0),)),
    SizeLaw(((0.5, 0.6),), 0.4),
    SizeLaw(((0.2, 0.5), (0.7, 0.3)), 0.2),
    SizeLaw(((1.0, 0.25),), 0.75),
    SizeLaw(((0.05, 0.5), (0.45, 0.5)),),
    SizeLaw(((0.25, 0.4), (0.75, 0.1)), 0.5),
)


def test_criterion_9_brute_force_equivalence():
    t0 = time.perf_counter()
    failures = []
    count = 0
    for n in (1, 2, 3):
        for combo in product(range(len(ORACLE_LAWS)), repeat=n):
            laws = tuple(ORACLE_LAWS[k] for k in combo)
            if math.fsum(law.mean for law in laws) > 1.0:
                continue
            inst = KnapsackInstance(laws)
            plan = closed_form_knapsack_plan(inst)
            result = run_knapsack_exact(inst, plan)
            count += 1
            for tag in (FORWARD, BACKWARD):
                order = arrival_order(tag, inst.n)
                rates, states = replay_knapsack_paths(inst, result.branches(tag), order)
                err = max(abs(a - b) for a, b in zip(rates, result.rates(tag)))
                if err > 1e-12:
                    failures.append(f"{combo} {tag}: rate mismatch {err:.2e}")
                drift = match_fill_atoms(states, result.traces(tag)[-1].atoms)
                if drift > 1e-12:
                    failures.append(f"{combo} {tag}: fill-law mismatch {drift:.2e}")
    if count < 100:
        failures.append(f"only {count} instances enumerated")
    _report(9, failures, time.perf_counter() - t0, budget=60.0)


if __name__ == "__main__":
    bad = 0
    for k in range(1, 10):
        name = [n for n in sorted(globals()) if n.startswith(f"test_criterion_{k}_")][0]
        try:
            globals()[name]()
        except AssertionError:  # _report printed the FAIL line
            bad += 1
        except Exception as exc:  # a criterion that cannot run fails too
            traceback.print_exc()
            print(f"criterion {k}: FAIL -- raised {type(exc).__name__}: {exc}")
            bad += 1
    sys.exit(1 if bad else 0)
