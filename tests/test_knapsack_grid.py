"""run_knapsack_exact's dense 1/L grid against chains of the reference fill step."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbcrs.instances import BACKWARD, FORWARD, KnapsackInstance, SizeLaw, knapsack_hardness_instance
from fbcrs import knapsack
from fbcrs.errors import InfeasibleError
from fbcrs.knapsack import (
    GRID_CAP,
    FiniteLaw,
    closed_form_knapsack_plan,
    monitor_invariants,
    monitor_trace,
    replay_branches,
    run_knapsack_exact,
)
from fbcrs.tolerances import RATE_TOL

from oracles import arrival_order, propagate_fill_reference

B_GRID = tuple(0.05 * k for k in range(1, 11))


def _chain(laws, plan):
    """Both orders through propagate_fill_reference steps: per order, the
    fill laws before each arrival and at the end, each element's Branches
    and its rate given active."""
    out = {}
    n = len(laws)
    for tag in (FORWARD, BACKWARD):
        dist = FiniteLaw([0.0], [1.0])
        fills, branches, rates = [dist], [None] * n, [0.0] * n
        for i in arrival_order(tag, n):
            law = laws[i]
            dist, branches[i] = propagate_fill_reference(dist, law, plan.rates(tag)[i])
            fills.append(dist)
            rates[i] = math.fsum(ps * r for (_, ps), r in zip(law.atoms, branches[i].rate)) / law.active_mass
        out[tag] = (fills, branches, rates)
    return out


def _assert_matches_chain(inst, plan, result, tol=RATE_TOL, laws=None):
    """Rates, Branches, trace laws and monitor reports of result against the
    reference chain on laws (by default the instance's own), within tol."""
    chain = _chain(laws or inst.laws, plan)
    report = monitor_trace(inst, plan, result, B_GRID)
    steps = {(tag, step): rep for tag, step, rep in report.step_reports}
    for tag in (FORWARD, BACKWARD):
        fills, branches, rates = chain[tag]
        assert result.rates(tag) == pytest.approx(rates, rel=0.0, abs=tol)
        for got, want in zip(result.branches(tag), branches):
            for field_got, field_want in zip(got, want):
                assert field_got == pytest.approx(field_want, rel=0.0, abs=tol)
        planned = [plan.rates(tag)[i] for i in arrival_order(tag, inst.n)]
        for step, (view, law) in enumerate(zip(result.traces(tag), fills)):
            assert view.support_size == law.support_size
            assert np.abs(view.values - law.values).max() <= 1e-12
            assert np.abs(view.probs - law.probs).max() <= tol
            want = monitor_invariants(law, planned[0], B_GRID, planned[step] if step < inst.n else None)
            got = steps[(tag, step)]
            assert [v[0] for v in got.violations] == [v[0] for v in want.violations]
            if want.zero_slack is None:
                assert got.zero_slack is None
            else:
                assert got.zero_slack == pytest.approx(want.zero_slack, rel=0.0, abs=tol)
    return report


@st.composite
def grid_instances(draw):
    """(instance, L): 1-8 elements with 1-4 size atoms k/L, L in {7, 100,
    1000, 4096}.  With inactive mass the total mean size is 0.8 times 1, 0.6
    or 0.2 (or less where an element's whole mass is active); without it
    every size is at most 1/n, so the means sum to at most 1."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = draw(st.sampled_from((7, 100, 1000, 4096)))
    n = int(rng.integers(1, 9))
    inactive = draw(st.booleans())
    total = draw(st.sampled_from((1.0, 0.6, 0.2)))
    if not inactive:
        n = min(n, grid)
    top = grid if inactive else grid // n
    laws = []
    for _ in range(n):
        sizes = (rng.choice(top, int(rng.integers(1, min(4, top) + 1)), replace=False) + 1) / grid
        w = rng.uniform(0.2, 1.0, sizes.size)
        w = w / w.sum()
        if inactive:
            probs = (0.8 * min(1.0, total / (n * float(sizes @ w))) * w).tolist()
            laws.append(SizeLaw(tuple(zip(sizes.tolist(), probs)), 1.0 - math.fsum(probs)))
        else:
            laws.append(SizeLaw(tuple(zip(sizes.tolist(), w.tolist()))))
    return KnapsackInstance(tuple(laws)), grid


@settings(max_examples=60)
@given(case=grid_instances())
def test_grid_run_matches_the_propagate_fill_chain(case):
    inst, grid = case
    plan = closed_form_knapsack_plan(inst)
    result = run_knapsack_exact(inst, plan)
    assert grid % result.grid == 0 and not result.rounded
    admitted = tuple(tuple(k / result.grid for k in ks) for ks in result.steps)
    assert admitted == tuple(tuple(s for s, _ in law.atoms) for law in inst.laws)
    report = _assert_matches_chain(inst, plan, result)
    assert report.ok()
    # the paper's guarantee: pair means reach (4 - total mu)/9, which is at
    # least 1/3 when the means sum to at most 1
    floor = (4.0 - inst.total_mu) / 9.0
    assert floor >= 1.0 / 3.0 - RATE_TOL
    for f, b in zip(result.rates_f, result.rates_b):
        assert (f + b) / 2.0 >= floor - RATE_TOL


def test_fill_that_fits_with_equality():
    # 0.3 then 0.7 fill the knapsack exactly: k + k_j = L on a 1/10 grid
    inst = KnapsackInstance((SizeLaw(((0.3, 0.6),), 0.4), SizeLaw(((0.7, 0.5),), 0.5)))
    plan = closed_form_knapsack_plan(inst)
    result = run_knapsack_exact(inst, plan)
    assert result.grid == 10
    _assert_matches_chain(inst, plan, result)
    for tag in (FORWARD, BACKWARD):
        final = result.traces(tag)[-1]
        assert final.values.tolist() == [0.0, 0.3, 0.7, 1.0]


def test_size_zero_and_size_one_atoms():
    inst = KnapsackInstance((SizeLaw(((0.0, 0.3), (1.0, 0.2)), 0.5), SizeLaw(((0.0, 0.5), (1.0, 0.25)), 0.25)))
    plan = closed_form_knapsack_plan(inst)
    result = run_knapsack_exact(inst, plan)
    assert result.grid == 1
    _assert_matches_chain(inst, plan, result)
    assert result.traces_f[-1].values.tolist() == [0.0, 1.0]


def test_grid_at_the_cap():
    inst = KnapsackInstance(
        (SizeLaw(((1 / GRID_CAP, 0.5), (0.5, 0.3)), 0.2), SizeLaw(((3 / GRID_CAP, 0.4), (4095 / GRID_CAP, 0.2)), 0.4))
    )
    plan = closed_form_knapsack_plan(inst)
    result = run_knapsack_exact(inst, plan)
    assert result.grid == GRID_CAP == 4096
    assert result.dense.shape == (2, inst.n + 1, GRID_CAP + 1)
    _assert_matches_chain(inst, plan, result)


@pytest.mark.parametrize(
    "inst",
    [
        # a denominator one past the cap
        KnapsackInstance((SizeLaw(((1 / (GRID_CAP + 1), 0.5), (0.5, 0.3)), 0.2), SizeLaw(((0.25, 1.0),)))),
        # a 10-digit decimal size
        KnapsackInstance((SizeLaw(((0.1234567891, 0.5), (0.5, 0.3)), 0.2), SizeLaw(((0.25, 1.0),)))),
        # 1/2 + 1/3 is not the double nearest 5/6
        knapsack_hardness_instance(3)[0],
    ],
    ids=["past-the-cap", "ten-digits", "hardness-3"],
)
def test_off_grid_sizes_round_up_onto_the_grid(inst):
    plan = closed_form_knapsack_plan(inst)
    result = run_knapsack_exact(inst, plan)
    assert result.grid == GRID_CAP and result.rounded
    # each atom at the least k/L at or above it, in exact arithmetic
    want = tuple(tuple(math.ceil(Fraction(s) * GRID_CAP) for s, _ in law.atoms) for law in inst.laws)
    assert result.steps == want
    # the run is the reference chain on the admitted sizes
    admitted = [
        SizeLaw(tuple((k / GRID_CAP, p) for k, (_, p) in zip(ks, law.atoms)), law.inactive_mass)
        for law, ks in zip(inst.laws, want)
    ]
    assert _assert_matches_chain(inst, plan, result, laws=admitted).ok()
    assert result.max_rate_error(plan) <= RATE_TOL


def test_grid_traces_are_cached_views():
    inst, _ = knapsack_hardness_instance(2)
    result = run_knapsack_exact(inst, closed_form_knapsack_plan(inst))
    assert result.grid == 1 and not result.rounded
    assert result.traces_f is result.traces_f
    assert result.traces(BACKWARD) is result.traces_b
    assert not result.dense.flags.writeable
    for row, traces in enumerate((result.traces_f, result.traces_b)):
        for step, view in zip(result.dense[row], traces):
            assert view.probs.tolist() == step[step > 0.0].tolist()


def _off_grid_instance(rng, n, total=0.999):
    """3 or 4 sorted uniform sizes in [0.05, 1) per element, on no grid up
    to GRID_CAP, with Dirichlet weights; the means sum to total."""
    laws = []
    for _ in range(n):
        sizes = np.sort(rng.uniform(0.05, 1.0, int(rng.integers(3, 5))))
        w = rng.dirichlet(np.ones(sizes.size))
        probs = (total / (n * float(sizes @ w)) * w).tolist()
        laws.append(SizeLaw(tuple(zip(sizes.tolist(), probs)), 1.0 - math.fsum(probs)))
    return KnapsackInstance(tuple(laws))


def test_off_grid_instance_past_the_old_atom_cap_runs_exact():
    # folded FiniteLaws grew by about half per element and stopped in the
    # low 30s of n; the rounded run is one dense grid at any n
    inst = _off_grid_instance(np.random.default_rng(40), 40)
    plan = closed_form_knapsack_plan(inst)
    result = run_knapsack_exact(inst, plan)
    assert (result.grid, result.rounded) == (GRID_CAP, True)
    assert result.max_rate_error(plan) <= RATE_TOL
    assert monitor_trace(inst, plan, result, B_GRID).ok()
    estimates = replay_branches(inst, result, 20_000, 7)
    for i in range(inst.n):
        for tag in (FORWARD, BACKWARD):
            est = estimates[(tag[0], i)]
            assert abs(est.point - plan.rates(tag)[i]) <= 3.0 * est.half_width


@pytest.mark.parametrize("size, n", [(0.0050001, 200), (0.0020001, 500)])
def test_many_tiny_off_grid_sizes_at_total_mean_one(size, n):
    # rounded up onto 1/4096 the admitted means total 1.025 and 1.099, past
    # the true 1, yet every planned rate stays reachable
    law = SizeLaw(((size, 1.0 / (n * size)),), 1.0 - 1.0 / (n * size))
    inst = KnapsackInstance((law,) * n)
    assert inst.total_mu == pytest.approx(1.0, abs=1e-12)
    plan = closed_form_knapsack_plan(inst)
    result = run_knapsack_exact(inst, plan)
    assert (result.grid, result.rounded) == (GRID_CAP, True)
    assert n * result.steps[0][0] / result.grid * law.atoms[0][1] > 1.02
    assert result.max_rate_error(plan) <= RATE_TOL
    assert monitor_trace(inst, plan, result, B_GRID).ok()


def test_replay_fills_with_the_admitted_sizes():
    # the three sizes fit together, but not once rounded up; the replay must
    # turn the third away where the exact run did, or its rate overshoots
    inst = KnapsackInstance(tuple(SizeLaw(((s, 1.0),)) for s in (0.2500001, 0.2500001, 0.4999997)))
    plan = closed_form_knapsack_plan(inst)
    result = run_knapsack_exact(inst, plan)
    assert result.rounded and sum(ks[0] for ks in result.steps) > result.grid
    estimates = replay_branches(inst, result, 20_000, 1)
    for i in range(inst.n):
        for tag in (FORWARD, BACKWARD):
            est = estimates[(tag[0], i)]
            assert abs(est.point - plan.rates(tag)[i]) <= 3.0 * est.half_width


def test_rounding_that_makes_a_rate_unreachable_says_so(monkeypatch):
    # seventeen sizes of about 1/100 admitted as 1/8: eight fill the
    # knapsack, and the planned rates of the late arrivals are out of reach
    inst = KnapsackInstance((SizeLaw(((0.0100001, 1.0),)),) * 17)
    plan = closed_form_knapsack_plan(inst)
    assert run_knapsack_exact(inst, plan).max_rate_error(plan) <= RATE_TOL
    monkeypatch.setattr(knapsack, "GRID_CAP", 8)
    with pytest.raises(InfeasibleError, match=r"size 0\.0100001 admitted as 1/8, .*, sizes rounded up onto 1/8"):
        run_knapsack_exact(inst, plan)
