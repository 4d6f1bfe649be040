"""Closed-form phi selection plans and the online single-unit executor.

The curve phi decreases from phi(0) to phi(rho) = 1 - alpha_0(rho)*rho over
[0, rho]; averaging it over each element's mass window yields a feasible plan
whose every pair mean equals alpha_0 exactly.  The executor accepts the first
active element whose Bernoulli bit fires, with parameters chosen so the
conditional acceptance probability reproduces the plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError
from .instances import BACKWARD, FORWARD, Permutation, SingleUnitInstance
from .lp_si import SelectionPlan
from .sim import run_trials, two_orders
from .tolerances import CURVE_TOL, LP_TOL, MASS_TOL, WINDOW_TOL


def phi(z: float, rho: float) -> float:
    """The selection curve: (2e^{rho/2}-e^z)/(1+e^{rho/2}rho) for z <= rho/2,
    e^{rho-z}/(1+e^{rho/2}rho) above; evaluated in overflow-safe form."""
    if rho < 0:
        raise ValueError(f"rho={rho} must be nonnegative")
    if not -CURVE_TOL <= z <= rho + CURVE_TOL:
        raise ValueError(f"z={z} outside [0, {rho}]")
    z = min(max(z, 0.0), rho)
    denom = math.exp(-rho / 2.0) + rho
    if z <= rho / 2.0:
        return (2.0 - math.exp(z - rho / 2.0)) / denom
    return math.exp(rho / 2.0 - z) / denom


def _phi_antiderivative(z: float, rho: float) -> float:
    """Closed-form integral of phi from 0 to z (no quadrature)."""
    denom = math.exp(-rho / 2.0) + rho
    if z <= rho / 2.0:
        return (2.0 * z - math.exp(z - rho / 2.0) + math.exp(-rho / 2.0)) / denom
    return (rho + math.exp(-rho / 2.0) - math.exp(rho / 2.0 - z)) / denom


@dataclass(frozen=True)
class PhiCurve:
    """phi specialised to one rho, with exact window averages."""

    rho: float

    def value(self, z: float) -> float:
        return phi(z, self.rho)

    def integral(self, a: float, b: float) -> float:
        if not -CURVE_TOL <= a <= b <= self.rho + WINDOW_TOL:
            raise ValueError(f"window [{a}, {b}] outside [0, {self.rho}]")
        a = min(max(a, 0.0), self.rho)
        b = min(max(b, 0.0), self.rho)
        return _phi_antiderivative(b, self.rho) - _phi_antiderivative(a, self.rho)

    def average(self, a: float, b: float) -> float:
        if b <= a:
            raise ValueError("window must have positive width")
        return self.integral(a, b) / (b - a)


def closed_form_plan(inst: SingleUnitInstance) -> SelectionPlan:
    """Average phi over each element's mass window in both orders.

    Every pair mean equals alpha_0(rho) by the reflection identity
    phi(z) + phi(rho - z) = 2*alpha_0(rho); zero-mass elements get the
    limiting value phi at their window start so indices never have holes.
    """
    curve = PhiCurve(inst.rho)
    rates: dict[str, list[float]] = {}
    for tag in (FORWARD, BACKWARD):
        out = [0.0] * inst.n
        prefix = 0.0
        for i in Permutation(tag, inst.n).order():
            if inst.x[i] == 0.0:
                out[i] = curve.value(prefix)
            else:
                upper = min(prefix + inst.x[i], inst.rho)
                out[i] = curve.average(prefix, upper)
                prefix = upper
        rates[tag] = out
    return SelectionPlan(tuple(rates[FORWARD]), tuple(rates[BACKWARD]))


def bernoulli_params(
    inst: SingleUnitInstance, plan: SelectionPlan, tag: str
) -> tuple[tuple[float, ...], tuple[bool, ...]]:
    """Acceptance-bit parameters c_sigma(i)/(1 - mass already claimed).

    A parameter is flagged when its denominator has been fully consumed
    (0/0); the convention is parameter 0 there.  Raises InfeasibleError when
    the plan asks for more than the remaining mass plus LP_TOL.
    """
    rates = plan.rates(tag)
    params = [0.0] * inst.n
    flagged = [False] * inst.n
    consumed = 0.0
    for i in Permutation(tag, inst.n).order():
        remaining = 1.0 - consumed
        c = rates[i]
        if c > remaining + LP_TOL:
            raise InfeasibleError(
                f"plan infeasible: c_{tag}({i}) = {c} exceeds remaining mass {remaining}"
            )
        if remaining <= MASS_TOL:
            params[i] = 0.0
            flagged[i] = True
        else:
            params[i] = min(max(c / remaining, 0.0), 1.0)
        consumed += inst.x[i] * c
    return tuple(params), tuple(flagged)


def exact_selection_rates(
    inst: SingleUnitInstance, plan: SelectionPlan
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Conditional acceptance rates by direct recursion, no simulation.

    Pr[accept i | active, order] = param_i * (1 - Pr[someone earlier
    accepted]), and the prior-acceptance probability accumulates as
    rate_j * x_j over earlier elements.  Equals the plan exactly whenever the
    plan is feasible.
    """
    out = {}
    for tag in (FORWARD, BACKWARD):
        params, _ = bernoulli_params(inst, plan, tag)
        rates = [0.0] * inst.n
        prior = 0.0
        for i in Permutation(tag, inst.n).order():
            rates[i] = params[i] * (1.0 - prior)
            prior += rates[i] * inst.x[i]
        out[tag] = tuple(rates)
    return out[FORWARD], out[BACKWARD]


def mc_selection_rates(
    inst: SingleUnitInstance,
    plan: SelectionPlan,
    trials: int,
    seed: int,
    workers: int = 1,
):
    """Monte Carlo conditional acceptance rates.

    Returns RateEstimates keyed by ("f", i) and ("b", i) for per-order rates
    (conditioned on the element being active and that order being drawn) and
    ("overall", i) pooling both orders.
    """
    x = np.asarray(inst.x)
    n = inst.n
    # One uniform per element: active when u < x_i; given that, u / x_i is a
    # fresh uniform, so the acceptance bit fires when u < x_i * param_i.
    bits = {
        tag: x * np.asarray(bernoulli_params(inst, plan, tag)[0]) for tag in (FORWARD, BACKWARD)
    }

    def experiment(rng, m: int):
        taken = np.zeros(m, dtype=bool)
        out = {}
        for u, halves in two_orders(rng, m, n):
            for tag, rows, i in halves:
                accepted = (u[rows] < bits[tag][i]) > taken[rows]
                taken[rows] |= accepted
                out[(tag[0], i)] = (float(np.count_nonzero(accepted)), int(np.count_nonzero(u[rows] < x[i])))
        for i in range(n):
            sf, cf = out[("f", i)]
            sb, cb = out[("b", i)]
            out[("overall", i)] = (sf + sb, cf + cb)
        return out

    return run_trials(experiment, trials, seed, workers=workers)
