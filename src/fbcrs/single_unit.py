"""Closed-form phi selection plans and the online single-unit executor.

The curve phi decreases from phi(0) to phi(rho) = 1 - alpha_0(rho)*rho over
[0, rho]; averaging it over each element's mass window yields a feasible plan
whose every pair mean equals alpha_0 exactly.  The executor accepts the first
active element whose Bernoulli bit fires, with parameters chosen so the
conditional acceptance probability reproduces the plan.

The plan, the Bernoulli parameters and the exact rates are array code: a
few numpy calls per order, no loop over the elements.  The window averages
come from one formula, _phi_average, which keeps full relative precision on
windows of any width, down to zero.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InfeasibleError
from .instances import BACKWARD, FORWARD, SingleUnitInstance, before, order_row
from .lp_si import SelectionPlan
from .sim import run_trials, two_orders
from .tolerances import CURVE_TOL, LP_TOL, MASS_TOL


def _phi_average(a, w, rho: float):
    """Average of phi over the windows [a, a + w], elementwise; phi(a) where
    w = 0.  Needs 0 <= a, w >= 0 and a + w <= rho; a and w may be arrays.

    With h = rho/2, d1 the part of the window below h and d2 = w - d1, the
    integral is (2 d1 - e^{a-h} expm1(d1) - e^{h-max(a,h)} expm1(-d2)) /
    (e^{-h} + rho), written below with no positive exponent so that no rho
    overflows.  Each term is of the order of the width, so a narrow window
    keeps full relative precision where a difference of antiderivatives
    would cancel.
    """
    h = rho / 2.0
    d1 = np.minimum(np.maximum(h - a, 0.0), w)
    area = (
        2.0 * d1
        + np.exp(np.minimum(a, h) + d1 - h) * np.expm1(-d1)
        - np.exp(h - np.maximum(a, h)) * np.expm1(d1 - w)
    )
    tail = np.exp(-np.abs(a - h))
    point = np.where(a <= h, 2.0 - tail, tail)
    return np.divide(area, w, out=point, where=w > 0.0) / (math.exp(-h) + rho)


def phi(z: float, rho: float) -> float:
    """The selection curve: (2e^{rho/2}-e^z)/(1+e^{rho/2}rho) for z <= rho/2,
    e^{rho-z}/(1+e^{rho/2}rho) above; evaluated in overflow-safe form."""
    if rho < 0:
        raise ValueError(f"rho={rho} must be nonnegative")
    if not -CURVE_TOL <= z <= rho + CURVE_TOL:
        raise ValueError(f"z={z} outside [0, {rho}]")
    return float(_phi_average(min(max(z, 0.0), rho), 0.0, rho))


def closed_form_plan(inst: SingleUnitInstance) -> SelectionPlan:
    """Average phi over each element's mass window in both orders.

    Every pair mean equals alpha_0(rho) by the reflection identity
    phi(z) + phi(rho - z) = 2*alpha_0(rho).  The windows of both orders are
    one (2, n) array: starts are prefix sums clipped at rho, and widths
    min(x_i, rho - start) come from x itself, not from a difference of
    starts, so narrow windows stay exact.  A zero-width window (a zero-mass
    element, or one that starts at rho) gets the limit phi at its start, so indices
    never have holes.
    """
    x = inst.x_array
    starts = np.minimum(before(np.array((x, x))), inst.rho)
    rates = _phi_average(starts, np.minimum(x, inst.rho - starts), inst.rho)
    return SelectionPlan(rates[0], rates[1])


def _bernoulli(inst: SingleUnitInstance, plan: SelectionPlan) -> np.ndarray:
    """Acceptance-bit parameters c_sigma(i)/(1 - mass already claimed), a
    (2, n) array with the rows forward and backward, in element order; 0
    where that mass is used up (0/0, remaining mass at most MASS_TOL).

    Raises InfeasibleError, naming the first offending element in arrival
    order, forward before backward, when the plan asks for more than the
    remaining mass plus LP_TOL.
    """
    remaining = 1.0 - before(inst.x_array * plan.array)  # mass left at each arrival
    over = plan.array > remaining + LP_TOL
    for tag in (FORWARD, BACKWARD):
        row = order_row(tag)
        hits = np.flatnonzero(over[row])
        if hits.size:
            i = int(hits[0] if row == 0 else hits[-1])
            raise InfeasibleError(
                f"plan infeasible: c_{tag}({i}) = {float(plan.array[row, i])} "
                f"exceeds remaining mass {float(remaining[row, i])}"
            )
    # The floor changes no remaining > MASS_TOL; the rest are 0/0 and get 0.
    params = np.minimum(plan.array / np.maximum(remaining, MASS_TOL), 1.0)
    params[remaining <= MASS_TOL] = 0.0
    return params


def exact_selection_rates(
    inst: SingleUnitInstance, plan: SelectionPlan
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Conditional acceptance rates by direct recursion, no simulation.

    Pr[accept i | active, order] = param_i * (1 - Pr[someone earlier
    accepted]), and nobody earlier accepted with probability
    prod_j (1 - param_j x_j) over the earlier elements j.  Equals the plan
    exactly whenever the plan is feasible.
    """
    params = _bernoulli(inst, plan)
    rates = params * before(1.0 - params * inst.x_array, np.multiply)
    return tuple(rates[0].tolist()), tuple(rates[1].tolist())


def mc_selection_rates(inst: SingleUnitInstance, plan: SelectionPlan, trials: int, seed: int):
    """Monte Carlo conditional acceptance rates.

    Returns RateEstimates keyed by ("f", i) and ("b", i) for per-order rates
    (conditioned on the element being active and that order being drawn) and
    ("overall", i) pooling both orders.
    """
    x = inst.x_array
    n = inst.n
    # One uniform per element: active when u < x_i; given that, u / x_i is a
    # fresh uniform, so the acceptance bit fires when u < x_i * param_i.
    params = _bernoulli(inst, plan)
    bits = {FORWARD: x * params[0], BACKWARD: x * params[1]}

    def experiment(rng, m: int):
        taken = np.zeros(m, dtype=bool)
        out = {}
        for tag, rows, i, u in two_orders(rng, m, n):
            accepted = (u < bits[tag][i]) > taken[rows]
            taken[rows] |= accepted
            out[(tag[0], i)] = (float(np.count_nonzero(accepted)), int(np.count_nonzero(u < x[i])))
        for i in range(n):
            sf, cf = out[("f", i)]
            sb, cb = out[("b", i)]
            out[("overall", i)] = (sf + sb, cf + cb)
        return out

    return run_trials(experiment, trials, seed)
