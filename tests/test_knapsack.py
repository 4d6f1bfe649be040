"""Knapsack plans, exact fill propagation, monitors, and the MC executor."""

import math
from itertools import accumulate, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fbcrs.errors import InfeasibleError, InvalidInstanceError, InvariantViolationError
from fbcrs.instances import (
    BACKWARD,
    FORWARD,
    KnapsackInstance,
    SizeLaw,
    knapsack_hardness_instance,
)
from fbcrs.knapsack import (
    ATOM_TOL,
    FEAS_TOL,
    Admission,
    Branches,
    FiniteLaw,
    check_knapsack_feasible,
    closed_form_knapsack_plan,
    monitor_invariants,
    monitor_trace,
    _grid_step,
    phi_knapsack,
    replay_admissions,
    run_knapsack_exact,
    run_knapsack_mc,
)

from fbcrs.lp_si import SelectionPlan
from fbcrs.sim import CHUNK, stream, wilson_interval
from fbcrs.tolerances import MASS_TOL, MONOTONE_TOL

from oracles import (
    admit_reference,
    arrival_order,
    expectation_error_loop,
    fill_masses,
    knapsack_feasibility_loop,
    knapsack_mc_reference,
    knapsack_plan_loop,
    match_fill_atoms,
    propagate_fill_reference,
    replay_knapsack_paths,
)

B_GRID = tuple(0.05 * k for k in range(1, 11))


def test_phi_knapsack_is_the_stated_line():
    assert phi_knapsack(0.0) == pytest.approx(4.0 / 9.0, abs=1e-15)
    assert phi_knapsack(0.5) == pytest.approx(1.0 / 3.0, abs=1e-15)
    for z in np.linspace(0.0, 0.5, 11):
        assert phi_knapsack(float(z)) == pytest.approx(4.0 / 9.0 - 2.0 * z / 9.0, abs=1e-15)


def test_closed_form_plan_two_halves():
    inst = KnapsackInstance((SizeLaw(((0.5, 1.0),)),) * 2)
    plan = closed_form_knapsack_plan(inst)
    assert plan.c_f == pytest.approx((7.0 / 18.0, 5.0 / 18.0), abs=1e-15)
    assert plan.c_b == pytest.approx((5.0 / 18.0, 7.0 / 18.0), abs=1e-15)
    assert plan.pair_means == pytest.approx((1.0 / 3.0, 1.0 / 3.0), abs=1e-15)
    assert plan.objective == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_closed_form_plan_partial_mass():
    # total mean 0.5 leaves every pair mean at (4 - 0.5)/9
    inst = KnapsackInstance((SizeLaw(((0.25, 1.0),)),) * 2)
    plan = closed_form_knapsack_plan(inst)
    target = (4.0 - 0.5) / 9.0
    for pm in plan.pair_means:
        assert pm == pytest.approx(target, abs=1e-12)


def test_feasibility_checker_flags_monotone_break():
    inst = KnapsackInstance((SizeLaw(((0.5, 1.0),)),) * 2)
    good = closed_form_knapsack_plan(inst)
    assert check_knapsack_feasible(good, inst).ok()
    # increasing along the forward arrival order breaks the requirement
    bad = SelectionPlan((5.0 / 18.0, 7.0 / 18.0), good.c_b)
    report = check_knapsack_feasible(bad, inst)
    assert not report.ok()
    assert report.monotone_violations


def test_feasibility_checker_flags_zero_first():
    inst = KnapsackInstance((SizeLaw(((0.5, 1.0),)),) * 2)
    plan = SelectionPlan((0.0, 0.0), (0.0, 0.0))
    report = check_knapsack_feasible(plan, inst)
    assert report.zero_first_flagged


@st.composite
def knapsack_plan_cases(draw):
    """(instance, plan) for the array code of the plan, its checks and the
    monitor's bookkeeping.

    Instances have 1-8 elements with 1-3 size atoms on a 1/1000 grid, with
    or without inactive mass, and total mean size 1 or below it.  The plan
    is the closed-form plan, that plan with a zero first rate or a monotone
    break in the forward or the backward order, or uniform random rates.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(1, 9))
    total = draw(st.sampled_from((1.0, 0.6, 0.2)))
    laws = []
    for _ in range(n):
        sizes = (rng.choice(1000, int(rng.integers(1, 4)), replace=False) + 1) / 1000.0
        w = rng.uniform(0.2, 1.0, sizes.size)
        w = w / w.sum()
        active = min(1.0, total / (n * float(sizes @ w)))
        probs = (active * w).tolist()
        laws.append(SizeLaw(tuple(zip(sizes.tolist(), probs)), max(0.0, 1.0 - math.fsum(probs))))
    inst = KnapsackInstance(tuple(laws))
    rates = closed_form_knapsack_plan(inst).array.copy()
    arrived = rates[0] if draw(st.booleans()) else rates[1, ::-1]  # a view in arrival order
    variant = draw(st.sampled_from(("closed", "zero-first", "break", "random")))
    if variant == "zero-first":
        arrived[0] = 0.0
    elif variant == "break" and n > 1:
        pos = int(rng.integers(1, n))
        arrived[pos] = min(1.0, arrived[pos - 1] + float(rng.uniform(0.0, 0.1)))
    elif variant == "random":
        rates = rng.uniform(0.0, 1.0, (2, n))
    return inst, SelectionPlan(tuple(rates[0].tolist()), tuple(rates[1].tolist()))


# The off-grid instance of the CI smoke test: no 1/L grid up to GRID_CAP
# holds its sizes, so the exact run rounds them up onto 1/GRID_CAP.
OFFGRID = KnapsackInstance(
    (
        SizeLaw(((0.1234567891, 0.5), (0.4012345678, 0.3)), 0.2),
        SizeLaw(((0.2718281828, 0.6), (0.6180339887, 0.2)), 0.2),
        SizeLaw(((0.0577215665, 0.7), (0.3141592654, 0.3))),
    )
)


@settings(max_examples=120)
@given(case=knapsack_plan_cases())
@example(case=(OFFGRID, closed_form_knapsack_plan(OFFGRID)))
def test_array_checks_match_the_loops(case):
    # The plan, the feasibility report and the claimed E[T] sum and
    # multiply in the loops' order, so they agree bit for bit.  The survival
    # term goes through numpy's exp, which may differ from math.exp in the
    # last bit.  Each E[T] is a dot of L + 1 nonnegative terms and at most
    # 1, so the monitor's one sum and each trace view's dot both lie within
    # gamma = (L + 1)u / (1 - (L + 1)u) of it (u = 2^-53), and their worst
    # errors within 2 gamma of each other.
    inst, plan = case
    assert closed_form_knapsack_plan(inst) == SelectionPlan(*knapsack_plan_loop(inst.mu))
    report = check_knapsack_feasible(plan, inst)
    got = (report.max_violation, report.monotone_violations, report.zero_first_flagged)
    assert got == knapsack_feasibility_loop(plan.c_f, plan.c_b, inst.mu, MONOTONE_TOL, exp=np.exp)
    want = knapsack_feasibility_loop(plan.c_f, plan.c_b, inst.mu, MONOTONE_TOL)
    assert report.max_violation == pytest.approx(want[0], rel=0.0, abs=1e-15)
    if report.ok():
        result = run_knapsack_exact(inst, plan)
        monitor = monitor_trace(inst, plan, result, B_GRID)
        # the means of the sizes the run admitted: inst.mu unless rounded
        grid = result.grid
        mu = [math.fsum(k / grid * p for k, (_, p) in zip(ks, law.atoms)) for ks, law in zip(result.steps, inst.laws)]
        want = expectation_error_loop(plan.c_f, plan.c_b, mu, result.traces_f, result.traces_b)
        terms = (result.grid + 1) * 2.0**-53
        assert abs(monitor.max_expectation_error - want) <= 2.0 * terms / (1.0 - terms)


def _fill_step(dist, law, c, grid=10):
    """run_knapsack_exact's fill step (_grid_step) from the fill law dist,
    every value and size on the 1/grid grid: the new fill law and the
    element's Branches."""
    p = np.zeros(grid + 1)
    p[np.rint(dist.values * grid).astype(np.intp)] = dist.probs
    out = np.empty_like(p)
    ks = np.rint(np.array([s for s, _ in law.atoms]) * grid).astype(np.intp)
    branches = _grid_step(p, out, law, ks, c, "")
    nz = out.nonzero()[0]
    return FiniteLaw(nz / grid, out[nz]), branches


def test_propagate_fill_hand_example():
    # fill {0: 0.85, 0.4: 0.15}, deterministic size 0.5, c = 0.2:
    # P1 = 0.15 forces b1 = 1, then b2 = (0.2 - 0.15)/0.85 = 1/17
    dist = FiniteLaw([0.0, 0.4], [0.85, 0.15])
    law = SizeLaw(((0.5, 1.0),))
    out, branches = _fill_step(dist, law, 0.2)
    assert branches.b1 == pytest.approx((1.0,), abs=1e-15)
    assert branches.b2 == pytest.approx((1.0 / 17.0,), abs=1e-15)
    assert branches.rate == pytest.approx((0.2,), abs=1e-15)
    expected = ((0.0, 0.8), (0.5, 0.05), (0.9, 0.15))
    assert len(out.atoms) == len(expected)
    for got, want in zip(out.atoms, expected):
        assert got == pytest.approx(want, abs=1e-15)


def test_propagate_fill_caps_fill_at_one():
    # a fill of exactly 1 - s still fits s, and the shifted fill lands on 1
    # exactly rather than just above it
    dist = FiniteLaw([0.0, 0.7], [0.5, 0.5])
    out, branches = _fill_step(dist, SizeLaw(((0.3, 1.0),)), 0.25)
    assert branches.b1 == (0.5,) and branches.b2 == (0.0,)
    assert out.atoms == ((0.0, 0.5), (0.7, 0.25), (1.0, 0.25))


def test_propagate_fill_rejects_unreachable_acceptance():
    dist = FiniteLaw([0.6], [1.0])
    law = SizeLaw(((0.5, 1.0),))
    with pytest.raises(InfeasibleError, match=r"reachable probability 0\.0 \(size 0\.5\)$"):
        _fill_step(dist, law, 0.1)


def test_propagate_fill_rejects_bad_probability():
    with pytest.raises(InvalidInstanceError):
        _fill_step(FiniteLaw([0.0], [1.0]), SizeLaw(((0.5, 1.0),)), 1.2)


def test_fill_distribution_validation():
    # the fill law before each arrival is a FiniteLaw
    FiniteLaw([0.0, 0.4], [0.85, 0.15])
    with pytest.raises(InvariantViolationError):
        FiniteLaw([0.0], [0.5])  # mass 0.5
    with pytest.raises(InvariantViolationError):
        FiniteLaw([1.5], [1.0])  # fill above 1


def test_finite_law_validation():
    law = FiniteLaw([0.0, 1.0], [0.25, 0.75])
    assert law.atoms == ((0.0, 0.25), (1.0, 0.75))
    assert law.values @ law.probs == pytest.approx(0.75, abs=1e-15)
    assert law.support_size == 2
    with pytest.raises(ValueError):
        law.values[0] = 0.5  # the arrays are read-only
    for values, probs in (
        ([0.0], [0.5]),  # mass 0.5
        ([1.5], [1.0]),  # value above 1
        ([-0.1, 0.5], [0.5, 0.5]),  # value below 0
        ([0.5, 0.2], [0.5, 0.5]),  # unsorted
        ([0.2, 0.5], [1.0, 0.0]),  # zero probability
        ([], []),
    ):
        with pytest.raises(InvariantViolationError):
            FiniteLaw(values, probs)


def test_monitor_reads_cdf_points_at_atom_tol():
    # boundaries resolve at ATOM_TOL: an atom within it above 0, b or 1 - b
    # counts as on it, one 2 ATOM_TOL above does not
    def zero_slack(at):  # Pr[T = 0] - c_current
        return monitor_invariants(FiniteLaw([at, 0.5], [0.4, 0.6]), 0.3, (0.25,), c_current=0.3).zero_slack

    assert zero_slack(ATOM_TOL / 2) == pytest.approx(0.1, abs=1e-15)
    assert zero_slack(2 * ATOM_TOL) == -0.3

    def violations(at):  # Pr[0 < T <= b] = 0.2 at b = 0.25 when the atom at counts
        return monitor_invariants(FiniteLaw([0.0, at, 1.0], [0.1, 0.2, 0.7]), 0.1, (0.25,)).violations

    assert violations(0.25 + ATOM_TOL / 2) == ((0.25, pytest.approx(2.0, abs=1e-15), 1.0),)
    assert violations(0.25 + 2 * ATOM_TOL) == ()  # Pr[b < T <= 1 - b] = 0.2 instead

    def rhs(at):  # exp(-Pr[b < T <= 1 - b]/c1), Pr[0 < T <= b] = 0.2 at b = 0.25
        report = monitor_invariants(FiniteLaw([0.0, 0.1, at, 1.0], [0.1, 0.2, 0.3, 0.4]), 0.25, (0.25,))
        return [r for _, _, r in report.violations]

    assert rhs(0.75 + ATOM_TOL / 2) == [pytest.approx(math.exp(-1.2), abs=1e-15)]
    assert rhs(0.75 + 2 * ATOM_TOL) == []  # Pr[b < T <= 1 - b] = 0: rhs 1 clears lhs 0.8


def test_exact_run_fifty_uniform_elements():
    n = 50
    inst = KnapsackInstance((SizeLaw(((1.0 / n, 1.0),)),) * n)
    plan = closed_form_knapsack_plan(inst)
    assert min(plan.pair_means) == pytest.approx(1.0 / 3.0, abs=1e-12)
    result = run_knapsack_exact(inst, plan)
    assert result.max_rate_error(plan) <= 1e-10
    report = monitor_trace(inst, plan, result, B_GRID)
    assert report.ok()
    assert report.total_violations == 0
    assert report.max_expectation_error <= 1e-10


def test_monitor_catches_bad_distribution():
    # all mass at 0.3 with tiny first-element acceptance: the survival
    # inequality fails at b = 0.3
    dist = FiniteLaw([0.3], [1.0])
    report = monitor_invariants(dist, 0.1, (0.3,))
    assert not report.ok()
    assert report.violations


def test_monitor_zero_slack():
    dist = FiniteLaw([0.0, 0.5], [0.4, 0.6])
    report = monitor_invariants(dist, 0.3, (0.25,), c_current=0.5)
    assert report.zero_slack == pytest.approx(-0.1, abs=1e-15)
    assert not report.ok()


def test_monitor_rejects_bad_grid():
    with pytest.raises(ValueError):
        monitor_invariants(FiniteLaw([0.0], [1.0]), 0.3, (0.6,))


def test_hardness_instance_accepts_at_most_one():
    inst, _ = knapsack_hardness_instance(2)
    plan = closed_form_knapsack_plan(inst)
    result = run_knapsack_exact(inst, plan)
    # element size is 1, so the final fill only ever holds 0 or 1
    for dist in (result.traces(FORWARD)[-1], result.traces(BACKWARD)[-1]):
        assert set(v for v, _ in dist.atoms) <= {0.0, 1.0}


# --- path-enumeration oracle -------------------------------------------------

LAW_LIBRARY = (
    SizeLaw(((0.3, 1.0),)),
    SizeLaw(((0.5, 0.6),), 0.4),
    SizeLaw(((0.2, 0.5), (0.7, 0.3)), 0.2),
    SizeLaw(((1.0, 0.25),), 0.75),
    SizeLaw(((0.05, 0.5), (0.45, 0.5)),),
)


def _grid_instance(rng, n):
    """3 or 4 size atoms per element, one from each stratum of a 1/1000 grid
    on (0, 1]; total mean size 1.  Float sums of grid sizes collide up to
    the last bits, so fill propagation merges atoms at almost every step."""
    laws = []
    for i in range(n):
        k = 3 + i % 2
        edges = [round(j * 1000 / k) for j in range(k + 1)]
        sizes = [int(rng.integers(edges[j] + 1, edges[j + 1] + 1)) / 1000.0 for j in range(k)]
        w = rng.uniform(0.5, 1.0, k)
        w = w / w.sum()
        active = 1.0 / (n * float(np.dot(sizes, w)))
        probs = [active * float(p) for p in w]
        laws.append(SizeLaw(tuple(zip(sizes, probs)), 1.0 - math.fsum(probs)))
    return KnapsackInstance(tuple(laws))


def _oracle_family():
    for n in (1, 2, 3):
        for combo in product(range(len(LAW_LIBRARY)), repeat=n):
            laws = tuple(LAW_LIBRARY[k] for k in combo)
            if math.fsum(law.mean for law in laws) <= 1.0:
                yield KnapsackInstance(laws)
    rng = np.random.default_rng(2025)
    for n in (16, 20, 24, 28):
        yield _grid_instance(rng, n)


def test_exact_run_matches_path_enumeration():
    count = 0
    for inst in _oracle_family():
        plan = closed_form_knapsack_plan(inst)
        result = run_knapsack_exact(inst, plan)
        for tag in (FORWARD, BACKWARD):
            order = arrival_order(tag, inst.n)
            rates, states = replay_knapsack_paths(inst, result.branches(tag), order)
            assert rates == pytest.approx(result.rates(tag), abs=1e-12)
            assert rates == pytest.approx(plan.rates(tag), abs=1e-12)
            final = result.traces(tag)[-1]
            assert match_fill_atoms(states, final.atoms) <= 1e-12
        count += 1
    assert count > 50  # the grid really is a family, not a handful


def test_exact_expectation_identity():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        laws = tuple(LAW_LIBRARY[k] for k in rng.integers(0, len(LAW_LIBRARY), n))
        if math.fsum(law.mean for law in laws) > 1.0:
            continue
        inst = KnapsackInstance(laws)
        plan = closed_form_knapsack_plan(inst)
        result = run_knapsack_exact(inst, plan)
        for tag in (FORWARD, BACKWARD):
            expected = math.fsum(
                plan.rates(tag)[i] * inst.mu[i] for i in range(inst.n)
            )
            final = result.traces(tag)[-1]
            assert final.values @ final.probs == pytest.approx(expected, abs=1e-10)


# --- the grid fill step against the per-atom reference ---------------------

# The step sums the mass that stays in another order than the per-atom loop,
# so one step may differ by a few ulps of 1; over a whole run those
# differences feed into later steps' branch probabilities and drift further.
STEP_TOL = 1e-15
CHAIN_TOL = 1e-14


def _max_gap(got: FiniteLaw, want: FiniteLaw) -> float:
    assert got.support_size == want.support_size
    return max(np.abs(got.values - want.values).max(), np.abs(got.probs - want.probs).max())


def _branch_gap(got: Branches, want: Branches) -> float:
    return max(abs(x - y) for field, ref in zip(got, want) for x, y in zip(field, ref))


@st.composite
def fill_steps(draw):
    """(fill law, size law, c, regime) for one fill step on the 1/1000 grid.

    Fill laws have 1-1000 atoms, with or without an atom at 0, plus atoms
    exactly at each 1 - s.  Size laws have 1-4 atoms, possibly a size of
    1.0, with or without inactive mass.  The regime picks c: "b1" keeps c at
    or below every Pr[0 < T <= 1-s] (so b2 = 0), "b2" lifts it above the
    smallest one (so b2 > 0 when Pr[T = 0] > 0), "over" pushes it past the
    reachable probability of some size.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = set((rng.choice(1000, draw(st.integers(1, 4)), replace=False) + 1) / 1000.0)
    if draw(st.booleans()):
        sizes = set(sorted(sizes)[:-1]) | {1.0}
    sizes = sorted(sizes)
    inactive = draw(st.sampled_from((0.0, 0.3)))
    weights = rng.uniform(0.2, 1.0, len(sizes))
    weights = weights / weights.sum() * (1.0 - inactive)
    law = SizeLaw(tuple(zip(sizes, weights.tolist())), inactive)

    points = (rng.choice(1000, draw(st.integers(1, 1000)), replace=False) + 1).tolist()
    if draw(st.booleans()):
        points.append(0)
    if draw(st.booleans()):
        points += [1000 - round(s * 1000) for s in sizes]
    values = np.array(sorted(set(points))) / 1000.0
    probs = rng.uniform(0.05, 1.0, values.size)
    dist = FiniteLaw(values, probs / probs.sum())

    p0, p1s = fill_masses(dist, [1.0 - s for s in sizes])
    p1 = min(p1s)
    u = draw(st.floats(0.0, 1.0))
    regime = draw(st.sampled_from(("b1", "b2", "over")))
    c = {"b1": u * p1, "b2": p1 + u * p0, "over": p0 + p1 + 2.0 * FEAS_TOL + u * 0.1}[regime]
    return dist, law, min(c, 1.0), regime


@settings(max_examples=150)
@given(step=fill_steps())
# a subnormal c, where the moved mass underflows to 0 in one multiplication
# order but not in another
@example(
    step=(
        FiniteLaw([0.0, 0.001, 0.512], [0.12594352, 0.6408054, 0.23325108]),
        SizeLaw(((1.0, 0.7),), 0.3),
        5e-324,
        "b2",
    )
)
def test_propagate_fill_matches_per_atom_reference(step):
    dist, law, c, regime = step
    try:
        want, want_branches = propagate_fill_reference(dist, law, c)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            _fill_step(dist, law, c, 1000)
        return
    got, branches = _fill_step(dist, law, c, 1000)
    assert _max_gap(got, want) <= STEP_TOL
    assert _branch_gap(branches, want_branches) <= STEP_TOL
    p0, p1s = fill_masses(dist, [1.0 - s for s, _ in law.atoms])
    p1 = min(p1s)
    if regime == "b1":
        assert max(branches.b2) == 0.0
    elif regime == "b2" and p0 > 0.0 and c > p1:
        assert max(branches.b2) > 0.0


@pytest.mark.parametrize("n, seed", [(16, 61), (28, 62)])
def test_exact_run_matches_per_atom_reference(n, seed):
    inst = _grid_instance(np.random.default_rng(seed), n)
    plan = closed_form_knapsack_plan(inst)
    result = run_knapsack_exact(inst, plan)
    for tag in (FORWARD, BACKWARD):
        trace, branches, rates = result.traces(tag), result.branches(tag), plan.rates(tag)
        chain = trace[0]
        for pos, i in enumerate(arrival_order(tag, n)):
            # one step from the library's own law
            want, want_branches = propagate_fill_reference(trace[pos], inst.laws[i], rates[i])
            assert _max_gap(trace[pos + 1], want) <= STEP_TOL
            assert _branch_gap(branches[i], want_branches) <= STEP_TOL
            # the reference's own run, fed only its own laws
            chain, chain_branches = propagate_fill_reference(chain, inst.laws[i], rates[i])
            assert _max_gap(trace[pos + 1], chain) <= CHAIN_TOL
            assert _branch_gap(branches[i], chain_branches) <= CHAIN_TOL


@pytest.mark.parametrize("size", [10, 1000, 5000])
def test_law_mass_matches_fsum(size):
    rng = np.random.default_rng(size)
    for weights in (
        rng.uniform(0.0, 1.0, size) + 1e-3,
        rng.exponential(1.0, size) + 1e-12,
        rng.lognormal(0.0, 4.0, size),  # masses over many orders of magnitude
    ):
        probs = weights / weights.sum()
        law = FiniteLaw(np.linspace(0.0, 1.0, size), probs)
        assert abs(law.mass - math.fsum(probs.tolist())) <= 1e-15


def test_mass_checks_still_bite():
    # the constructor holds a law's mass to MASS_TOL
    FiniteLaw([0.0, 0.5], [0.5, 0.5 + 0.5 * MASS_TOL])
    for drift in (2 * MASS_TOL, 5e-11):
        with pytest.raises(InvariantViolationError, match="mass"):
            FiniteLaw([0.0, 0.5], [0.5, 0.5 + drift])
    # so does the fill step, on a dense row no FiniteLaw checked
    p = np.array([0.5, 0.0, 0.5 + 5e-11, 0.0, 0.0])
    with pytest.raises(InvariantViolationError, match="drifted"):
        _grid_step(p, np.empty_like(p), SizeLaw(((0.25, 1.0),)), np.array([1]), 0.2, "")


# --- Monte Carlo -------------------------------------------------------------


# Two size atoms on [0, 0.6), inactive mass above, on a 1/10 grid: slice 0
# is size 0.3 (3 steps) with (b1, b2) = (0.5, 0.25), slice 1 is size 0.6
# (6 steps) with (0.2, 0.9), slice 2 is inactive.  The kernel does not read
# the rates.
KERNEL_LAW = SizeLaw(((0.3, 0.4), (0.6, 0.2)), inactive_mass=0.4)
KERNEL_GRID = 10
KERNEL_STEPS = (3, 6)
KERNEL_B1, KERNEL_B2 = (0.5, 0.2), (0.25, 0.9)
KERNEL_BRANCHES = Branches(KERNEL_B1, KERNEL_B2, rate=(0.0, 0.0))


def _admit(rule, u, fill):
    fill = np.array(fill, dtype=np.int32)
    code = rule.admit(np.array(u, dtype=float), fill)
    return code >> 1, (code & 1).astype(bool), fill


def test_admission_kernel_picks_the_branch_by_fill():
    rule = Admission.of_law(KERNEL_LAW, KERNEL_STEPS, KERNEL_GRID, KERNEL_BRANCHES)
    # u at a fraction f of slice 0 ([0, 0.4)) is admitted when f < b
    u = [0.4 * 0.24, 0.4 * 0.26, 0.4 * 0.49, 0.4 * 0.51]
    k, admitted, fill = _admit(rule, u, [0] * 4)  # empty: zero branch b2 = 0.25
    assert k.tolist() == [0, 0, 0, 0]
    assert admitted.tolist() == [True, False, False, False]
    assert fill.tolist() == [3, 0, 0, 0]
    _, admitted, fill = _admit(rule, u, [1] * 4)  # fits: interval branch b1 = 0.5
    assert admitted.tolist() == [True, True, True, False]
    assert fill.tolist() == [4, 4, 4, 1]
    # slice 1 ([0.4, 0.6)) reads its own branches: b2 = 0.9, b1 = 0.2
    u = [0.4 + 0.2 * 0.15, 0.4 + 0.2 * 0.85]
    k, admitted, _ = _admit(rule, u, [0, 0])
    assert k.tolist() == [1, 1] and admitted.tolist() == [True, True]
    _, admitted, _ = _admit(rule, u, [2, 2])
    assert admitted.tolist() == [True, False]


def test_admission_kernel_fit_boundary_and_inactive_rows():
    rule = Admission.of_law(KERNEL_LAW, KERNEL_STEPS, KERNEL_GRID, Branches((1.0, 1.0), (1.0, 1.0), (0.0, 0.0)))
    room = KERNEL_GRID - 3  # slice 0 has size 3 steps
    assert rule.room.tolist() == [room, KERNEL_GRID - 6, KERNEL_GRID]
    _, admitted, fill = _admit(rule, [0.1] * 3, [room, room + 1, KERNEL_GRID])
    assert admitted.tolist() == [True, False, False]
    assert fill.tolist() == [KERNEL_GRID, room + 1, KERNEL_GRID]
    # inactive rows (u past the atoms, about [0.6, 1)) are never admitted,
    # whatever the fill
    u = np.linspace(rule.edges[-1], 1.0, 50, endpoint=False)
    for fill in (0, 2, 9):
        k, admitted, after = _admit(rule, u, [fill] * u.size)
        assert (k == 2).all() and not admitted.any()
        assert (after == fill).all()


@pytest.mark.parametrize("fill", [0.0, 0.1])
def test_single_uniform_threshold_gives_each_atom_its_branch(fill):
    # the atom and the acceptance come from one uniform; conditionally on the
    # atom, acceptance must still fire with that atom's branch probability
    rule = Admission.of_law(KERNEL_LAW, KERNEL_STEPS, KERNEL_GRID, KERNEL_BRANCHES)
    u = stream(11, 0).random(400_000)
    k, admitted, _ = _admit(rule, u, np.full(u.size, round(fill * KERNEL_GRID)))
    branch = KERNEL_B2 if fill == 0.0 else KERNEL_B1
    for atom, (_, p) in enumerate(KERNEL_LAW.atoms):
        rows = k == atom
        assert rows.mean() == pytest.approx(p, abs=0.005)
        low, high = wilson_interval(int(admitted[rows].sum()), int(rows.sum()), 0.999)
        assert low <= branch[atom] <= high
    assert not admitted[k == 2].any()


@st.composite
def admission_tables(draw):
    """(size law, its sizes in steps of a 1/1000 grid, Branches) for one
    admission table.

    1-4 size atoms on the grid, 0 and 1 included, with or without inactive
    mass (an inactive slice); branch probabilities are 0, 1 or random.  The
    kernel does not read the rates.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 4))
    steps = np.sort(rng.choice(1001, k, replace=False))
    inactive = draw(st.sampled_from((0.0, 0.3)))
    weights = rng.uniform(0.05, 1.0, k)
    probs = weights / weights.sum() * (1.0 - inactive)
    law = SizeLaw(tuple(zip((steps / 1000.0).tolist(), probs.tolist())), inactive)
    b1, b2 = rng.choice([0.0, 1.0, *rng.uniform(0.0, 1.0, 4).tolist()], (2, k)).tolist()
    return law, steps.tolist(), Branches(tuple(b1), tuple(b2), (0.0,) * k)


def _kernel_rows(rule, grid, rng, randoms: int = 10):
    """Every pairing of u and fill: u on every slice edge, just below it and
    on every threshold; fills at 0, at each slice's room L - k and one step
    above it; and random values of both (random fills are integers in
    [0, L])."""
    edges = np.array(rule.edges)
    u = np.concatenate(([0.0], edges, np.nextafter(edges, 0.0), rule.thresholds, rng.random(randoms)))
    fills = np.concatenate(([0], rule.room, rule.room + 1, rng.integers(0, grid + 1, randoms))).astype(np.int32)
    u, fills = np.meshgrid(u[u < 1.0], fills[fills <= grid])
    return u.ravel(), fills.ravel()


def _check_against_reference(rule, upper, steps, grid, b1, b2, rng):
    u, fill = _kernel_rows(rule, grid, rng)
    want_codes, want_fills = admit_reference(upper, steps, grid, b1, b2, u, fill)
    code = rule.admit(u, fill)
    assert code.tolist() == want_codes
    assert fill.tolist() == want_fills
    return code


@settings(max_examples=100)
@given(table=admission_tables(), seed=st.integers(0, 2**32 - 1))
def test_admission_kernel_matches_row_reference(table, seed):
    law, steps, branches = table
    rule = Admission.of_law(law, steps, 1000, branches)
    inactive = [0] if law.inactive_mass > 0.0 else []
    upper = list(accumulate(p for _, p in law.atoms)) + [1.0] * len(inactive)
    b1, b2 = [*branches.b1, *inactive], [*branches.b2, *inactive]
    code = _check_against_reference(rule, upper, steps + inactive, 1000, b1, b2, np.random.default_rng(seed))
    assert code.dtype == np.int8


@pytest.mark.parametrize("slices", [42, 43, 60, 130])
def test_admission_kernel_wide_tables(slices):
    # int8 holds the branch index 3 * slice + state while 3 * slices < 128;
    # larger tables run on intp and must give the same answers
    rng = np.random.default_rng(slices)
    upper = ((np.arange(slices) + 1) / slices).tolist()
    active = slices - 3  # the last three slices are inactive
    steps = rng.choice(1001, active).tolist() + [0] * 3
    b1 = rng.uniform(0.0, 1.0, active).tolist() + [0.0] * 3
    b2 = rng.uniform(0.0, 1.0, active).tolist() + [0.0] * 3
    rule = Admission.build(upper, steps, 1000, b1, b2)
    code = _check_against_reference(rule, upper, steps, 1000, b1, b2, rng)
    assert code.dtype == (np.int8 if 3 * slices < 128 else np.intp)


# multi-atom size laws with inactive mass (the CI smoke-test instance)
MC_INSTANCE = KnapsackInstance(
    (
        SizeLaw(((0.1, 0.5), (0.4, 0.3)), 0.2),
        SizeLaw(((0.2, 0.4), (0.5, 0.3), (1.0, 0.1)), 0.2),
        SizeLaw(((0.05, 0.6), (0.3, 0.4))),
        SizeLaw(((0.15, 0.3), (0.35, 0.3), (0.6, 0.2)), 0.2),
    )
)


@pytest.mark.parametrize("seed", [3, 8])
def test_mc_matches_wide_kernel_bit_for_bit(seed):
    # same Branches (the exact run's), same draws: the int8 kernel and
    # count_nonzero totals must reproduce the intp kernel and bincount
    # estimates exactly, over two chunks, the second ragged
    plan = closed_form_knapsack_plan(MC_INSTANCE)
    got = run_knapsack_mc(MC_INSTANCE, plan, CHUNK + 1234, seed)
    want = knapsack_mc_reference(MC_INSTANCE, run_knapsack_exact(MC_INSTANCE, plan), CHUNK + 1234, seed)
    assert got == want


def test_mc_deterministic_by_seed():
    inst = KnapsackInstance((SizeLaw(((0.2, 0.5), (0.7, 0.3)), 0.2),) * 2)
    plan = closed_form_knapsack_plan(inst)
    a = run_knapsack_mc(inst, plan, trials=5_000, seed=4)
    assert a == run_knapsack_mc(inst, plan, trials=5_000, seed=4)
    assert a != run_knapsack_mc(inst, plan, trials=5_000, seed=5)


def test_replay_raises_when_a_rule_overfills_the_knapsack():
    # size 7/10, always admitted: built by the rule the fit bound turns the
    # second arrival away, but a hand-built room of 20 steps lets it overfill
    built = Admission.build([1.0], [7], 10, [1.0], [1.0])
    overfilling = built._replace(room=np.array([20], dtype=np.int32))
    rules = {FORWARD: [built] * 2, BACKWARD: [built] * 2}
    codes = [code for *_, code in replay_admissions(rules, 10, stream(0, 0), 64, 2)]
    assert len(codes) == 4
    rules = {FORWARD: [overfilling] * 2, BACKWARD: [overfilling] * 2}
    with pytest.raises(InvariantViolationError, match="exceeded the knapsack"):
        for _ in replay_admissions(rules, 10, stream(0, 0), 64, 2):
            pass
    # 20 arrivals of 3277/4096, all admitted: the fill ends at 65540 steps,
    # which an int16 fill would wrap to 4, inside the knapsack
    grid, n = 4096, 20
    assert np.array([3277] * n, dtype=np.int16).sum(dtype=np.int16) == 4
    room = np.array([n * grid], dtype=np.int32)
    overfilling = Admission.build([1.0], [3277], grid, [1.0], [1.0])._replace(room=room)
    rules = {FORWARD: [overfilling] * n, BACKWARD: [overfilling] * n}
    with pytest.raises(InvariantViolationError, match="exceeded the knapsack"):
        for _ in replay_admissions(rules, grid, stream(0, 0), 64, n):
            pass


def test_mc_agrees_with_exact():
    inst = KnapsackInstance(
        (
            SizeLaw(((0.5, 1.0),)),
            SizeLaw(((0.2, 0.5), (0.7, 0.3)), 0.2),
        )
    )
    plan = closed_form_knapsack_plan(inst)
    exact = run_knapsack_exact(inst, plan)
    est = run_knapsack_mc(inst, plan, trials=200_000, seed=3)
    for i in range(inst.n):
        for tag, key in ((FORWARD, ("f", i)), (BACKWARD, ("b", i))):
            e = est[key]
            for truth in (exact.rates(tag)[i], plan.rates(tag)[i]):
                assert abs(e.point - truth) <= 3.0 * e.half_width, (key, e.point, truth)
