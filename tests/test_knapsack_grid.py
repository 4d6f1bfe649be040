"""The dense grid path of run_knapsack_exact against chains of propagate_fill."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbcrs.instances import BACKWARD, FORWARD, KnapsackInstance, SizeLaw, knapsack_hardness_instance
from fbcrs.knapsack import (
    GRID_CAP,
    FiniteLaw,
    closed_form_knapsack_plan,
    monitor_invariants,
    monitor_trace,
    propagate_fill,
    run_knapsack_exact,
)
from fbcrs.tolerances import RATE_TOL

from oracles import arrival_order

B_GRID = tuple(0.05 * k for k in range(1, 11))


def _chain(inst, plan):
    """Both orders through public propagate_fill calls: per order, the fill
    laws before each arrival and at the end, each element's Branches and its
    rate given active."""
    out = {}
    for tag in (FORWARD, BACKWARD):
        dist = FiniteLaw([0.0], [1.0])
        laws, branches, rates = [dist], [None] * inst.n, [0.0] * inst.n
        for i in arrival_order(tag, inst.n):
            law = inst.laws[i]
            dist, branches[i] = propagate_fill(dist, law, plan.rates(tag)[i])
            laws.append(dist)
            rates[i] = math.fsum(ps * r for (_, ps), r in zip(law.atoms, branches[i].rate)) / law.active_mass
        out[tag] = (laws, branches, rates)
    return out


def _assert_matches_chain(inst, plan, result, tol=RATE_TOL):
    """Rates, Branches, trace laws and monitor reports of result against the
    propagate_fill chain, within tol."""
    chain = _chain(inst, plan)
    report = monitor_trace(inst, plan, result, B_GRID)
    steps = {(tag, step): rep for tag, step, rep in report.step_reports}
    for tag in (FORWARD, BACKWARD):
        laws, branches, rates = chain[tag]
        assert result.rates(tag) == pytest.approx(rates, rel=0.0, abs=tol)
        for got, want in zip(result.branches(tag), branches):
            for field_got, field_want in zip(got, want):
                assert field_got == pytest.approx(field_want, rel=0.0, abs=tol)
        planned = [plan.rates(tag)[i] for i in arrival_order(tag, inst.n)]
        for step, (view, law) in enumerate(zip(result.traces(tag), laws)):
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
    assert result.grid is not None and grid % result.grid == 0
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
def test_off_grid_sizes_fold_finite_laws(inst):
    plan = closed_form_knapsack_plan(inst)
    result = run_knapsack_exact(inst, plan)
    assert result.grid is None and result.dense is None
    # the FiniteLaw path is the chain itself, bit for bit
    _assert_matches_chain(inst, plan, result, tol=0.0)


def test_grid_traces_are_cached_views():
    inst, _ = knapsack_hardness_instance(2)
    result = run_knapsack_exact(inst, closed_form_knapsack_plan(inst))
    assert result.grid == 1
    assert result.traces_f is result.traces_f
    assert result.traces(BACKWARD) is result.traces_b
    assert not result.dense.flags.writeable
    for row, traces in enumerate((result.traces_f, result.traces_b)):
        for step, view in zip(result.dense[row], traces):
            assert view.probs.tolist() == step[step > 0.0].tolist()
