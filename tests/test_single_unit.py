"""The phi curve, closed-form plans, and the single-unit executor."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbcrs.errors import InfeasibleError, InvalidInstanceError
from fbcrs.instances import BACKWARD, FORWARD, SingleUnitInstance, order_row
from fbcrs.lp_si import SelectionPlan, alpha_0, solve_lp_si
from fbcrs.single_unit import (
    _bernoulli,
    _phi_average,
    closed_form_plan,
    exact_selection_rates,
    mc_selection_rates,
    phi,
)
from fbcrs.tolerances import LP_TOL, MASS_TOL, RATE_TOL

from oracles import (
    arrival_order,
    bernoulli_params_loop,
    closed_form_plan_loop,
    enumerated_selection_rates,
    phi_antiderivative,
    selection_rates_loop,
)

# Frozen from a high-precision evaluation of the phi closed form.
PHI_FROZEN = {
    (0.0, 1.0): 0.8673779936055637,
    (0.5, 1.0): 0.6224593312018546,  # phi(rho/2) = alpha_0(rho)
    (1.0, 1.0): 0.37754066879814544,
    (0.0, 2.0): 0.6892751930060728,
    (2.0, 2.0): 0.15536240349696361,
}


@pytest.mark.parametrize("z, rho", sorted(PHI_FROZEN))
def test_phi_frozen_values(z, rho):
    assert phi(z, rho) == pytest.approx(PHI_FROZEN[(z, rho)], abs=1e-13)


def test_phi_domain():
    with pytest.raises(ValueError):
        phi(-0.1, 1.0)
    with pytest.raises(ValueError):
        phi(1.2, 1.0)
    with pytest.raises(ValueError):
        phi(0.0, -1.0)


@pytest.mark.parametrize("rho", [0.1, 0.25, 1.0, 2.0, 5.0])
def test_phi_reflection_identity(rho):
    # phi(z) + phi(rho - z) = 2 alpha_0(rho): this is what makes every pair
    # mean of the closed-form plan equal alpha_0
    target = 2.0 * alpha_0(rho)
    for z in np.linspace(0.0, rho, 33):
        assert phi(float(z), rho) + phi(float(rho - z), rho) == pytest.approx(
            target, abs=1e-12
        )


@pytest.mark.parametrize("rho", [0.25, 1.0, 2.0, 5.0])
def test_phi_consumption_identity(rho):
    # phi(z) + int_0^z phi: strictly below 1 before rho/2, exactly 1 after;
    # this is the tightness pattern behind plan feasibility
    for z in np.linspace(0.0, rho, 41):
        total = phi(float(z), rho) + phi_antiderivative(float(z), rho)
        assert total <= 1.0 + 1e-12
        if z >= rho / 2.0:
            assert total == pytest.approx(1.0, abs=1e-12)


def test_phi_average_window():
    # the average over [0, rho] is the integral of phi over it
    assert float(_phi_average(0.0, 1.0, 1.0)) == pytest.approx(
        phi_antiderivative(1.0, 1.0), abs=1e-15
    )
    mid = float(_phi_average(0.4, 0.6 - 0.4, 1.0))
    assert phi(0.6, 1.0) < mid < phi(0.4, 1.0)  # phi is strictly decreasing


def test_phi_average_narrow_window():
    # A window one ulp wide: a difference of antiderivatives returns 1.0
    # here; the average must be phi at the window.
    assert float(_phi_average(0.5, (0.5 + 1e-16) - 0.5, 0.7)) == pytest.approx(phi(0.5, 0.7), abs=1e-15)
    assert phi(0.5, 0.7) == pytest.approx(0.6127, abs=1e-4)


def _grid_instances(rho, n, rng):
    yield SingleUnitInstance((rho / n,) * n)
    if n > 1:
        raw = rng.random(n) + 0.05
        x = raw / raw.sum() * rho
        if x.max() <= 1.0:
            yield SingleUnitInstance(tuple(x))


@pytest.mark.parametrize("rho", [0.25, 1.0, 2.0])
@pytest.mark.parametrize("n", [1, 2, 10, 101])
def test_closed_form_pair_means(rho, n):
    if rho == 2.0 and n == 1:
        with pytest.raises(InvalidInstanceError):
            SingleUnitInstance((2.0,))
        return
    rng = np.random.default_rng(n * 17 + int(rho * 4))
    for inst in _grid_instances(rho, n, rng):
        plan = closed_form_plan(inst)
        target = alpha_0(rho)
        assert plan.objective == pytest.approx(target, abs=1e-10)
        for pm in plan.pair_means:
            assert pm == pytest.approx(target, abs=1e-10)
        assert plan.is_feasible(inst)


def test_closed_form_zero_mass_elements():
    inst = SingleUnitInstance((0.5, 0.0, 0.5))
    plan = closed_form_plan(inst)
    assert plan.objective == pytest.approx(alpha_0(1.0), abs=1e-12)
    # the zero-mass element sits at prefix 0.5 = rho/2 in both orders
    assert plan.c_f[1] == pytest.approx(alpha_0(1.0), abs=1e-12)


@st.composite
def zero_mass_instances(draw):
    """x of 1-60 elements, about half of them of zero mass, scaled to a
    total mass rho of up to 5 (less where an element would pass 1)."""
    n = draw(st.integers(1, 60))
    weights = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=n, max_size=n))
    rho = draw(st.floats(0.0, 5.0))
    total = math.fsum(weights)
    x = np.array(weights) * (rho / total) if total > 0.0 else np.zeros(len(weights))
    return SingleUnitInstance(tuple((x / max(1.0, x.max())).tolist()))


@settings(max_examples=100)
@given(inst=zero_mass_instances())
def test_closed_form_pair_means_equal_alpha_0(inst):
    target = alpha_0(inst.rho)
    assert max(abs(pm - target) for pm in closed_form_plan(inst).pair_means) <= RATE_TOL


NARROW_WINDOW_INSTANCES = [
    (0.5, 1e-20, 0.2),
    (0.5, 1e-16, 0.2),
    (0.5, 3e-16, 0.2),
    (0.1, 0.2, 0.3, 1e-17),  # the last window starts at rho
    (1e-300,) * 5,
]


@pytest.mark.parametrize("x", NARROW_WINDOW_INSTANCES)
def test_closed_form_narrow_windows(x):
    inst = SingleUnitInstance(x)
    plan = closed_form_plan(inst)
    assert plan.is_feasible(inst)
    for pm in plan.pair_means:
        assert abs(pm - alpha_0(inst.rho)) <= 1e-12


def _oracle_instances():
    """Random x with n 1-225: general, with zero-mass elements, and uniform."""
    rng = np.random.default_rng(2024)
    for n in (1, 2, 3, 8, 31, 64, 112, 225):
        rho = float(rng.choice([0.5, 1.0, 2.0]))
        yield (rho / n,) * n
        if n > 1:
            raw = rng.random(n) + 0.01
            raw[rng.random(n) < 0.2] = 0.0
            if raw.sum() == 0.0:
                raw[0] = 1.0
            x = raw / raw.sum() * rho
            yield tuple((x / max(1.0, x.max())).tolist())


@pytest.mark.parametrize("x", list(_oracle_instances()), ids=lambda x: f"n{len(x)}-{x[0]:.3g}")
def test_array_code_matches_the_loops(x):
    inst = SingleUnitInstance(x)
    closed = closed_form_plan(inst)
    rates = np.array([closed.c_f, closed.c_b])
    # The float loop is off by up to about 1e-12 on narrow windows; the same
    # loop in 40-digit decimals is the reference for the rates themselves.
    assert np.abs(rates - closed_form_plan_loop(x)).max() <= 1e-12
    with localcontext() as ctx:
        ctx.prec = 40
        assert np.abs(rates - closed_form_plan_loop(x, Decimal)).max() <= 1e-14
    for plan in (closed, solve_lp_si(inst)):
        rates = exact_selection_rates(inst, plan)
        for tag, got in zip((FORWARD, BACKWARD), rates):
            params = tuple(_bernoulli(inst, plan)[order_row(tag)].tolist())
            assert params == bernoulli_params_loop(x, plan.rates(tag), tag, LP_TOL, MASS_TOL)
            assert np.abs(np.array(got) - selection_rates_loop(x, params, tag)).max() <= 1e-14


def test_bernoulli_params_names_the_first_offending_element():
    inst = SingleUnitInstance((0.5, 0.5, 0.5))
    # forward: element 1 asks 0.9 of the 0.5 left; element 2 is over as well
    plan = SelectionPlan((1.0, 0.9, 0.9), (0.2, 0.2, 0.2))
    with pytest.raises(InfeasibleError, match=r"c_forward\(1\) = 0\.9 exceeds remaining mass 0\.5$"):
        exact_selection_rates(inst, plan)
    # backward arrives 2, 1, 0: element 1 comes first after the full claim
    plan = SelectionPlan((0.2, 0.2, 0.2), (0.9, 0.8, 1.0))
    with pytest.raises(InfeasibleError, match=r"c_backward\(1\) = 0\.8 exceeds remaining mass 0\.5$"):
        _bernoulli(inst, plan)
    with pytest.raises(InfeasibleError, match=r"c_backward\(1\)"):
        exact_selection_rates(inst, plan)


@pytest.mark.parametrize("bad", [float("nan"), -0.1, 1.5, float("inf")])
def test_plan_rejects_rates_outside_the_unit_interval(bad):
    with pytest.raises(InvalidInstanceError, match="outside"):
        SelectionPlan((0.5, bad), (0.5, 0.5))
    with pytest.raises(InvalidInstanceError, match="outside"):
        SelectionPlan((0.5, 0.5), (bad, 0.5))


def test_bernoulli_params_flagged_zero_denominator():
    inst = SingleUnitInstance((1.0, 0.5))
    plan = SelectionPlan((1.0, 0.0), (0.5, 1.0))
    params = _bernoulli(inst, plan)
    assert params[order_row(FORWARD)].tolist() == [1.0, 0.0]  # element 0 consumed all the mass: 0/0 is 0
    assert params[order_row(BACKWARD)].tolist() == [1.0, 1.0]


def test_bernoulli_params_rejects_infeasible():
    inst = SingleUnitInstance((1.0, 0.5))
    plan = SelectionPlan((1.0, 0.1), (0.5, 1.0))
    with pytest.raises(InfeasibleError):
        _bernoulli(inst, plan)


def test_exact_rates_reproduce_plan():
    rng = np.random.default_rng(23)
    for n in (1, 2, 5, 12, 20):
        for source in ("closed", "lp"):
            raw = rng.random(n) + 0.01
            x = tuple(raw / raw.sum() * min(1.0, 0.3 * n))
            inst = SingleUnitInstance(x)
            plan = closed_form_plan(inst) if source == "closed" else solve_lp_si(inst)
            rates_f, rates_b = exact_selection_rates(inst, plan)
            assert rates_f == pytest.approx(plan.c_f, abs=1e-12)
            assert rates_b == pytest.approx(plan.c_b, abs=1e-12)


def test_exact_rates_match_enumeration_oracle():
    rng = np.random.default_rng(99)
    for n in (1, 3, 6, 10):
        raw = rng.random(n) + 0.05
        x = tuple(raw / raw.sum() * 0.9)
        inst = SingleUnitInstance(x)
        plan = closed_form_plan(inst)
        rates_f, rates_b = exact_selection_rates(inst, plan)
        for tag, rates in ((FORWARD, rates_f), (BACKWARD, rates_b)):
            params = _bernoulli(inst, plan)[order_row(tag)].tolist()
            oracle = enumerated_selection_rates(inst.x, params, arrival_order(tag, n))
            assert rates == pytest.approx(oracle, abs=1e-12)


def test_mc_rates_agree_with_exact():
    inst = SingleUnitInstance((0.3, 0.1, 0.4, 0.2))
    plan = closed_form_plan(inst)
    rates_f, rates_b = exact_selection_rates(inst, plan)
    est = mc_selection_rates(inst, plan, trials=200_000, seed=8)
    for i in range(inst.n):
        for key, truth in (
            (("f", i), rates_f[i]),
            (("b", i), rates_b[i]),
            (("overall", i), (rates_f[i] + rates_b[i]) / 2.0),
        ):
            e = est[key]
            assert abs(e.point - truth) <= 3.0 * e.half_width, (key, e.point, truth)
