"""The phi curve, closed-form plans, and the single-unit executor."""

import math

import numpy as np
import pytest

from fbcrs.errors import InfeasibleError, InvalidInstanceError
from fbcrs.instances import BACKWARD, FORWARD, Permutation, SingleUnitInstance
from fbcrs.lp_si import SelectionPlan, alpha_0, solve_lp_si
from fbcrs.single_unit import (
    PhiCurve,
    _phi_antiderivative,
    bernoulli_params,
    closed_form_plan,
    exact_selection_rates,
    mc_selection_rates,
    phi,
)

from oracles import enumerated_selection_rates

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
        total = phi(float(z), rho) + _phi_antiderivative(float(z), rho)
        assert total <= 1.0 + 1e-12
        if z >= rho / 2.0:
            assert total == pytest.approx(1.0, abs=1e-12)


def test_phi_curve_window_average():
    curve = PhiCurve(1.0)
    assert curve.integral(0.0, 1.0) == pytest.approx(
        _phi_antiderivative(1.0, 1.0), abs=1e-15
    )
    mid = curve.average(0.4, 0.6)
    assert phi(0.6, 1.0) < mid < phi(0.4, 1.0)  # phi is strictly decreasing
    with pytest.raises(ValueError):
        curve.average(0.5, 0.5)
    with pytest.raises(ValueError):
        curve.integral(0.5, 1.5)


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


def test_bernoulli_params_flagged_zero_denominator():
    inst = SingleUnitInstance((1.0, 0.5))
    plan = SelectionPlan((1.0, 0.0), (0.5, 1.0))
    params_f, flags_f = bernoulli_params(inst, plan, FORWARD)
    assert params_f == (1.0, 0.0)
    assert flags_f == (False, True)  # element 0 consumed all the mass
    params_b, flags_b = bernoulli_params(inst, plan, BACKWARD)
    assert params_b == (1.0, 1.0)
    assert flags_b == (False, False)


def test_bernoulli_params_rejects_infeasible():
    inst = SingleUnitInstance((1.0, 0.5))
    plan = SelectionPlan((1.0, 0.1), (0.5, 1.0))
    with pytest.raises(InfeasibleError):
        bernoulli_params(inst, plan, FORWARD)


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
            params, _ = bernoulli_params(inst, plan, tag)
            oracle = enumerated_selection_rates(
                inst.x, params, Permutation(tag, n).order()
            )
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
