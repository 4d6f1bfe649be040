"""Fair rationing: ex-ante service targets and the online allocation executor.

Each agent has a random demand and a service notion (Type-I: all or nothing
at the demanded amount, Type-II: fill fraction of the mean demand, Type-III:
fill fraction of the realized demand).  A service target gives every agent a
guarantee beta_i, an activation quantile q_i, and the supply share
x_i = integral of min(F^-1, 1) over [0, q_i] that the quantile buys.  A
target belongs to its instance: it cuts each agent's table once, derives x_i
from it, and the routes read those tables and cut nothing.

Every layer reads one table per agent (_Slices), whose slices carry a size
and the service rule (base, scale): allocation y serves base + y / scale.
_rule gives Type-II (0, mean), Type-I and Type-III at d = 0 (1, inf), Type-I
at d > 1 (0, inf) and every other case (0, d).  That is exact on every
allocation the routes make: each y is at most its slice's size, which is at
most min(d, 1), so min(y, d) = y, and a Type-I agent gets 0 or min(d, 1): on
the knapsack route, or 0 on a target that buys no supply, which runs on the
single-unit route.  Type-II service exceeds 1 when the demand does the mean;
clamping it would break the identity between expected service and the
calibrated target.

The executor visits agents in a uniformly random forward or backward order.
An agent participates when its demand quantile falls below q_i and then
receives its size capped by the remaining supply and by a per-order
threshold tau_i, calibrated so the expected allocation equals the planned
selection rate times x_i.  Every agent then collects expected service of at
least the pair-mean rate times beta_i.  Sizes lie on the 1/L grid of
RationingInstance.grid, or are rounded down onto 1/GRID_CAP (_rounding), and
tau_i runs as one of its two neighbouring grid points with the probability
that keeps its mean, so the remaining supply stays on the grid and exact
mode is exact.  Instances containing a Type-I agent run through the knapsack
scheme instead, with element sizes min(D_i, 1), unless their target buys no
supply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .errors import InfeasibleError, InvalidInstanceError, InvariantViolationError
from .instances import (
    BACKWARD,
    FORWARD,
    DemandLaw,
    KnapsackInstance,
    RationingInstance,
    ServiceType,
    SingleUnitInstance,
    SizeLaw,
    arrival,
    before,
)
from .knapsack import (
    GRID_CAP,
    Admission,
    KnapsackExactResult,
    closed_form_knapsack_plan,
    replay_admissions,
    run_knapsack_exact,
)
from .lp_si import SelectionPlan, solve_lp_si
from .sim import MeanEstimate, run_trials, slice_index, two_orders
from .tolerances import (
    CALIBRATION_TOL,
    CROSSING_TOL,
    MASS_TOL,
    MC_HALF_WIDTHS,
    RATE_TOL,
    SUPPLY_TOL,
)

ROUTE_SINGLE_UNIT = "single-unit"
ROUTE_KNAPSACK = "knapsack"


def _rule(stype: ServiceType, d: float, mean: float) -> tuple[float, float]:
    """(base, scale) of the service base + y / scale that y <= min(d, 1)
    delivers against demand d, mean the agent's mean (module docstring)."""
    if stype is ServiceType.TYPE_II:
        return 0.0, mean
    if d == 0.0:
        return 1.0, math.inf
    if d > 1.0 and stype is ServiceType.TYPE_I:
        return 0.0, math.inf
    return 0.0, d


class _Slices(NamedTuple):
    """An agent's quantile range [0, 1) cut at every demand atom's CDF value and at q.

    One row per nonempty slice, in quantile order: its upper end, its demand
    value, its width, whether it lies below q (the agent is active there),
    its size (min(d, 1), or rounded down onto a grid, where active, else 0)
    and its service rule (base, scale) from _rule.  The active slices come
    first.  The last slice
    runs on to 1, which absorbs float shortfall in the last CDF value.
    """

    upper: tuple[float, ...]
    demand: tuple[float, ...]
    width: tuple[float, ...]
    active: tuple[bool, ...]
    size: tuple[float, ...]
    base: tuple[float, ...]
    scale: tuple[float, ...]


def _slices(law: DemandLaw, stype: ServiceType, q: float, grid: int | None) -> _Slices:
    """The table of an agent active below q; q = inf cuts only at the atoms.
    grid None keeps each size min(d, 1); else it is rounded down onto the
    1/grid grid (see _rounding)."""
    rows, prev, mean = [], 0.0, law.mean
    for (d, _), cum in zip(law.atoms, law.cum):
        below = min(cum, q) - min(prev, q)
        above = cum - max(prev, q)
        base, scale = _rule(stype, d, mean)
        size = min(d, 1.0) if grid is None else math.floor(min(d, 1.0) * grid) / grid
        if below > 0.0:
            rows.append((min(cum, q), d, below, True, size, base, scale))
        if above > 0.0:
            rows.append((cum, d, above, False, 0.0, base, scale))
        prev = cum
    return _Slices(*zip(*rows))


def _sizes(sl: _Slices, q: float = math.inf) -> dict[float, float]:
    """Quantile length of each size the active slices buy below q, sizes
    ascending; q = inf takes every active slice whole.

    The one source of the supply share (ServiceTarget.x, and each Newton
    step's in max_uniform_beta, cut from the uncut table) and of the
    knapsack reduction's size law, so they agree to the last bit: a slice
    cut at q keeps the length _slices gives it at q.
    """
    sizes: dict[float, float] = {}
    lower = 0.0
    for s, upper, width in zip(sl.size[: sl.active.count(True)], sl.upper, sl.width):
        if lower >= q:
            break
        sizes[s] = sizes.get(s, 0.0) + (width if upper <= q else q - lower)
        lower = upper
    return sizes


def _share(sizes: dict[float, float]) -> float:
    return math.fsum(s * length for s, length in sizes.items())


def _rounding(inst: RationingInstance) -> int | None:
    """GRID_CAP, the grid every size is rounded down onto (floor(s L)/L),
    when no agent is Type-I and inst.grid is None, else None: sizes kept.
    The service rule stays on the true demand, exact as every allocation
    stays at most min(d, 1).  A Type-I agent's knapsack route rounds up."""
    return None if inst.has_type_i or inst.grid is not None else GRID_CAP


def _climb(top: _Slices, beta: float) -> tuple[float, float, float]:
    """Walk the service level up an agent's uncut table (q = inf) to beta.

    Returns the smallest quantile that reaches beta, the rate size/service of
    the demand atom reached (how fast the supply share grows with the level
    there; 0 when beta is reached at q = 0 or is past the top) and the level
    reached: beta, or the agent's top level when beta is past it.  The level
    grows piecewise linearly in q (demand laws are stored sorted, so the
    slope changes only at atom boundaries) and the walk solves the crossing
    segment exactly.
    """
    if beta <= CROSSING_TOL:  # the empty range already reaches beta
        return 0.0, 0.0, beta
    acc, prev = 0.0, 0.0
    for upper, size, width, base, scale in zip(top.upper, top.size, top.width, top.base, top.scale):
        v = base + size / scale
        if v > 0.0 and acc + v * width >= beta - CROSSING_TOL:
            return min(prev + (beta - acc) / v, 1.0), size / v, beta
        acc += v * width
        prev = upper
    return min(prev, 1.0), 0.0, acc


def solve_q_for_beta(inst: RationingInstance, i: int, beta: float) -> float:
    """Smallest activation quantile at which agent i of inst achieves
    service level beta.

    Raises InfeasibleError when even q = 1 falls short.
    """
    if not 0.0 <= beta <= 1.0:
        raise InvalidInstanceError(f"beta {beta} outside [0, 1]")
    q, _, level = _climb(_slices(inst.demands[i], inst.service[i], math.inf, _rounding(inst)), beta)
    if level < beta - SUPPLY_TOL:
        raise InfeasibleError(f"service level {beta} is unachievable (agent tops out at {level:.12g})")
    return q


@dataclass(frozen=True)
class ServiceTarget:
    """Per-agent service level beta and activation quantile q on instance.

    Cuts each agent's table at q once (tables, which every route reads) and
    derives the supply share x that q buys from it.  Checks beta and q only:
    a total share above the unit supply is rejected where the target is used.
    """

    instance: RationingInstance = field(repr=False)
    beta: tuple[float, ...]
    q: tuple[float, ...]
    x: tuple[float, ...] = field(init=False)
    tables: tuple[_Slices, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "beta", tuple(float(v) for v in self.beta))
        object.__setattr__(self, "q", tuple(float(v) for v in self.q))
        inst = self.instance
        if not len(self.beta) == len(self.q) == inst.n:
            raise InvalidInstanceError("beta and q need one entry per agent")
        for name, values in (("beta", self.beta), ("q", self.q)):
            if any(not 0.0 <= v <= 1.0 + SUPPLY_TOL for v in values):
                raise InvalidInstanceError(f"{name} entries must lie in [0, 1]")
        grid = _rounding(inst)
        tables = tuple(_slices(law, stype, q, grid) for law, stype, q in zip(inst.demands, inst.service, self.q))
        object.__setattr__(self, "tables", tables)
        object.__setattr__(self, "x", tuple(_share(_sizes(sl)) for sl in tables))

    @property
    def n(self) -> int:
        return len(self.beta)

    @cached_property
    def total_supply(self) -> float:
        return math.fsum(self.x)

    def single_unit(self) -> SingleUnitInstance:
        """Twin single-unit instance whose activity probabilities are x."""
        return SingleUnitInstance(self.x)


def _check(inst: RationingInstance, target: ServiceTarget) -> None:
    """Raises InvalidInstanceError unless target was solved for inst and its
    supply shares fit the unit supply within MASS_TOL."""
    if target.instance != inst:
        raise InvalidInstanceError("target was solved for another instance")
    if target.total_supply > 1.0 + MASS_TOL:
        raise InvalidInstanceError("supply shares exceed the unit supply")


def exante_check(inst: RationingInstance, beta) -> ServiceTarget | None:
    """Solve the per-agent quantiles for the requested service levels.

    Raises InfeasibleError when some agent cannot reach its own beta with the
    whole quantile range; returns None when every agent can individually but
    the supply shares add up to more than the unit supply.  The total is held
    to MASS_TOL, the tolerance every use of the target applies, so every
    target returned here passes knapsack_reduction and run_rationing's check.
    """
    betas = tuple(float(b) for b in beta)
    if len(betas) != inst.n:
        raise InvalidInstanceError("one service level per agent is required")
    target = ServiceTarget(inst, betas, tuple(solve_q_for_beta(inst, i, b) for i, b in enumerate(betas)))
    return None if target.total_supply > 1.0 + MASS_TOL else target


def max_uniform_beta(inst: RationingInstance) -> float:
    """Largest common service level all agents can be promised at once.

    Capped at 1 and at the lowest agent top level (the walk to level inf),
    then solved exactly on the unit-supply constraint by Newton steps down
    along the left slope of the total supply share.  The loop tests total
    x <= 1 with no tolerance, so the level it returns passes every later
    supply check, which allow MASS_TOL.

    The steps are exact.  Below the lowest top level, an agent's share grows
    with the level at rate size/service on its current atom, its rule's
    scale: the demand mean for Type-II, the demand d for Type-I and Type-III.  Atoms are sorted by
    demand, so every rate is nondecreasing and the total share is convex and
    piecewise linear in the level.  Atoms with zero service add no size below
    the top: Type-II with d = 0, sizes rounded down to 0, and Type-I with
    d > 1, which lies at the top itself.  So a step along the left slope
    never passes the answer, and a step from the answer's piece lands on it.
    Each step moves down at least one ulp, and level 0 buys no supply, so
    the loop ends.
    """
    grid = _rounding(inst)
    tops = [_slices(law, stype, math.inf, grid) for law, stype in zip(inst.demands, inst.service)]
    beta = min(1.0, *(_climb(top, math.inf)[2] for top in tops))
    while True:
        climbs = [_climb(top, beta) for top in tops]
        total = math.fsum(_share(_sizes(top, q)) for top, (q, _, _) in zip(tops, climbs))
        if total <= 1.0:
            return beta
        slope = math.fsum(rate for _, rate, _ in climbs)
        beta = max(0.0, min(beta - (total - 1.0) / slope, math.nextafter(beta, 0.0)))


def _min_means(rem: np.ndarray) -> np.ndarray:
    """E[min(R, c/L)] for c = 0..L, where rem[k] = Pr[R = k/L]: the running
    sum of Pr[R >= v/L] / L over v = 1..c."""
    at_least = np.cumsum(rem[::-1])[::-1]
    means = np.zeros(rem.size)
    np.cumsum(at_least[1:], out=means[1:])
    return means / (rem.size - 1)


def calibrate_tau(means: np.ndarray, steps: np.ndarray, widths: np.ndarray, target: float) -> float:
    """Threshold t, in steps of the 1/L grid, with E[min(S, R, t/L); Q < q] =
    target, exactly: means is _min_means of R, and the active slices have
    sizes steps/L and widths `widths`.  The expectation is concave piecewise
    linear in t, and from t = c to c + 1 it grows by the width of sizes
    above c/L times means[c + 1] - means[c]: one cumsum gives it at every c.
    Raises InvariantViolationError when the target exceeds the reachable
    maximum; a target within CROSSING_TOL of 0 calibrates to 0."""
    grid = means.size - 1
    wide = np.cumsum(np.bincount(steps, widths, minlength=grid + 1)[::-1])[::-1]  # width of sizes >= c/L
    curve = np.zeros(grid + 1)
    np.cumsum(wide[1:] * np.diff(means), out=curve[1:])
    if target > curve[-1] + CALIBRATION_TOL:
        raise InvariantViolationError(
            f"calibration target {target:.12g} exceeds the reachable allocation {curve[-1]:.12g}"
        )
    if target <= CROSSING_TOL:
        return 0.0
    c = int(np.searchsorted(curve, target - CROSSING_TOL))  # curve[c - 1] < target - CROSSING_TOL <= curve[c]
    if c > grid:
        return float(grid)
    return c - 1 + min((target - curve[c - 1]) / (curve[c] - curve[c - 1]), 1.0)


def _supply_step(rem: np.ndarray, weight: np.ndarray, ctx: str) -> np.ndarray:
    """Law of R - min(R, C/L) from rem[k] = Pr[R = k/L] and an independent
    cap C with Pr[C = c] = weight[c]: per cap value, the mass at or below c
    lands on 0 and the rest moves down c steps in one slice add.  Raises
    InvariantViolationError unless the mass stays 1 within MASS_TOL."""
    below = np.cumsum(rem)
    out = np.zeros(rem.size)
    for c in np.flatnonzero(weight).tolist():
        out[0] += weight[c] * below[c]
        out[1 : rem.size - c] += weight[c] * rem[c + 1 :]
    mass = float(out.sum())  # pairwise: within about 1e-15 of 1, far inside MASS_TOL
    if abs(mass - 1.0) > MASS_TOL:
        raise InvariantViolationError(f"remaining-supply mass drifted to {mass} {ctx}")
    return out


@dataclass(frozen=True)
class _OrderTables:
    """Exact per-order calibration output for the single-unit route."""

    thresholds: tuple[float, ...]  # t_i in grid steps: tau_i = t_i / L
    alloc: tuple[float, ...]  # E[Y_i | order]
    service: tuple[float, ...]  # E[s_i | order]
    rem_slack: float  # worst margin of the supply invariant across arrivals


def _exact_order(
    target: ServiceTarget,
    steps: tuple[np.ndarray, ...],
    grid: int,
    rates: tuple[float, ...],
    consumed: list[float],
    order: list[int],
    tag: str,
) -> _OrderTables:
    """Propagate the remaining supply R through one arrival order, the
    agents `order` lists, tagged `tag` in messages.

    R is one dense vector rem[k] = Pr[R = k/grid], and steps[i] holds agent
    i's active sizes in grid steps.  Agent i's threshold t runs as
    a = floor(t) steps, or a + 1 with probability p = t - a.  For an integer
    cap c, min(c, .) is linear between a and a + 1, so the mix allocates as
    much as t itself on every slice and every R, and R stays on the grid.
    Checks three invariants at every arrival: the worst-case supply floor
    (1 - consumed) * x_i stays reachable, where consumed[i] sums rate * x
    over the agents arriving before i, the calibrated allocation hits
    rate * x_i, and the conditional service clears rate * beta_i.
    """
    n = target.n
    thresholds, alloc, service = [0.0] * n, [0.0] * n, [0.0] * n
    rem = np.zeros(grid + 1)
    rem[grid] = 1.0
    slack = math.inf
    for i in order:
        sl, m = target.tables[i], steps[i]
        k = m.size
        q, x, b = target.q[i], target.x[i], target.beta[i]
        widths = np.array(sl.width[:k])
        means = _min_means(rem)
        reachable = float((widths * means[m]).sum())
        floor = (1.0 - consumed[i]) * x
        slack = min(slack, reachable - floor)
        if reachable < floor - CALIBRATION_TOL:
            raise InvariantViolationError(
                f"supply invariant broken before agent {i} ({tag}): "
                f"reachable {reachable:.12g} < floor {floor:.12g}"
            )
        t = calibrate_tau(means, m, widths, rates[i] * x)
        thresholds[i] = t
        a = int(t)
        p = t - a
        lo, hi = np.minimum(m, a), np.minimum(m, a + 1)
        y = (1.0 - p) * means[lo] + p * means[hi]  # E[Y_i | slice]
        alloc[i] = float((widths * y).sum())
        if abs(alloc[i] - rates[i] * x) > CALIBRATION_TOL:
            raise InvariantViolationError(
                f"calibrated allocation {alloc[i]:.12g} misses {rates[i] * x:.12g} for agent {i}"
            )
        unserved = math.fsum(width * base for width, base in zip(sl.width[k:], sl.base[k:]))
        base, scale = (np.array(column[:k]) for column in (sl.base, sl.scale))
        service[i] = float((widths * (base + y / scale)).sum()) + unserved
        if service[i] < rates[i] * b - CALIBRATION_TOL:
            raise InvariantViolationError(
                f"conditional service {service[i]:.12g} below rate * beta for agent {i}"
            )
        caps = np.concatenate((lo, hi, [0]))  # an inactive agent takes nothing: cap 0
        weight = np.bincount(caps, np.concatenate((widths * (1.0 - p), widths * p, [1.0 - q])), minlength=grid + 1)
        rem = _supply_step(rem, weight, f"after agent {i} ({tag})")
    return _OrderTables(tuple(thresholds), tuple(alloc), tuple(service), slack)


@dataclass(frozen=True)
class KnapsackReduction:
    """Knapsack view of a rationing instance: one element per supplied agent.

    Agents with x = 0 buy nothing and stay out of the contention; their
    service comes from the zero allocation alone.
    """

    instance: KnapsackInstance
    element_of_agent: tuple[int | None, ...]


def knapsack_reduction(inst: RationingInstance, target: ServiceTarget) -> KnapsackReduction:
    """Build the knapsack instance with element sizes min(D, 1) on Q < q from
    the target's tables; raises InvalidInstanceError unless target was solved
    for inst and fits the unit supply."""
    _check(inst, target)
    return _reduction(target)


def _reduction(target: ServiceTarget) -> KnapsackReduction:
    """knapsack_reduction on a checked target."""
    laws: list[SizeLaw] = []
    element_of_agent: list[int | None] = []
    for sl, x in zip(target.tables, target.x):
        if x <= 0.0:
            element_of_agent.append(None)
            continue
        element_of_agent.append(len(laws))
        sizes = _sizes(sl)
        laws.append(SizeLaw(tuple(sizes.items()), inactive_mass=1.0 - math.fsum(sizes.values())))
    if not laws:
        raise InfeasibleError("no agent buys any supply; nothing to allocate")
    return KnapsackReduction(KnapsackInstance(tuple(laws)), tuple(element_of_agent))


@dataclass(frozen=True)
class AgentReport:
    """Per-agent summary: target, plan rates, thresholds, realized service."""

    index: int
    beta: float
    q: float
    x: float
    c_f: float | None
    c_b: float | None
    tau_f: float | None
    tau_b: float | None
    expected_service: float
    service_low: float | None
    service_high: float | None
    expected_alloc: float
    bound: float
    slack: float


@dataclass(frozen=True)
class RationingResult:
    """Output of run_rationing: route taken, plan and per-agent reports."""

    route: str
    mode: str
    target: ServiceTarget
    plan: SelectionPlan
    agents: tuple[AgentReport, ...]
    rem_slack: float | None  # single-unit route only
    estimates: dict | None  # raw MC estimates, mc mode only
    # The L of the route's 1/L grid (remaining supply or knapsack fill), and
    # whether sizes were rounded onto it: down on the single-unit route (the
    # sizes every layer reads), up for admission on the knapsack route.
    grid: int
    rounded: bool

    @property
    def min_slack(self) -> float:
        return min(a.slack for a in self.agents)

    def guarantee_ok(self) -> bool:
        """Whether every agent's service certifiably clears its bound.

        Exact mode: every slack is at least -CALIBRATION_TOL.  Mc mode:
        every slack is at least -(MC_HALF_WIDTHS half-widths of the agent's
        service interval + CALIBRATION_TOL).
        """
        if self.mode == "exact":
            return self.min_slack >= -CALIBRATION_TOL
        return all(
            a.slack >= -(MC_HALF_WIDTHS * (a.service_high - a.service_low) / 2.0 + CALIBRATION_TOL)
            for a in self.agents
        )


def _single_unit_runner(slices: tuple[_Slices, ...], steps: tuple[np.ndarray, ...], grid: int, thresholds: dict):
    """Threshold allocation y = min(S, R, t) on both orders at once, in int32
    steps of the 1/grid grid: sizes steps[i], thresholds[tag][i] = t.

    t runs as _exact_order runs it.  A row in active slice j takes floor(t) + 1
    steps when its uniform lies in the first fraction p = t - floor(t) of the
    slice (rescaled within its slice the uniform is again uniform and
    independent of the slice), else floor(t).  Returns run(rng, m), an
    experiment for run_trials.
    """
    edges, base, scale = [], [], []
    caps, cuts = {FORWARD: [], BACKWARD: []}, {FORWARD: [], BACKWARD: []}
    for i, sl in enumerate(slices):
        edges.append(sl.upper[:-1])
        base.append(np.array(sl.base))
        scale.append(np.array(sl.scale) * grid)  # y steps serve y / (scale * grid)
        size = np.zeros(len(sl.upper), dtype=np.int32)  # inactive slices take nothing
        size[: steps[i].size] = steps[i]
        lower = np.array((0.0, *sl.upper[:-1]))
        for tag in caps:
            t = thresholds[tag][i]
            a = int(t)
            caps[tag].append(np.minimum(size, a))
            # rows below the cut take one step more; none in a slice no larger than a
            cuts[tag].append(np.where(size > a, lower + (t - a) * np.array(sl.width), lower))

    def run(rng, m: int):
        rems = np.full(m, grid, dtype=np.int32)
        out = {}
        for tag, r, i, u in two_orders(rng, m, len(slices)):
            k = slice_index(u, edges[i])
            y = caps[tag][i].take(k)
            y += (u < cuts[tag][i].take(k)).view(np.int8)
            np.minimum(y, rems[r], out=y)
            rems[r] -= y
            s = base[i].take(k) + y / scale[i].take(k)
            y = y.astype(float)  # integers: their sums are exact
            # einsum, not a BLAS dot: OpenBLAS threads ddot on long
            # vectors, and a stalled thread shows up as latency spikes.
            out[("service", tag[0], i)] = (float(s.sum()), float(np.einsum("i,i->", s, s)), y.size)
            out[("alloc", tag[0], i)] = (float(y.sum()) / grid, float(np.einsum("i,i->", y, y)) / grid**2, y.size)
        if m and int(rems.min()) < 0:
            raise InvariantViolationError("negative remaining supply in simulation")
        return out

    return run


def _knapsack_runner(slices: tuple[_Slices, ...], red: KnapsackReduction, exact: KnapsackExactResult):
    """The knapsack admission rule on both orders at once, sizes min(D, 1).

    exact is the reduced instance's exact run; exact.branches(tag)[e] is
    element e's Branches and exact.steps[e] the sizes it admitted, in steps
    of its grid, which the fill takes on.  An arrival's outcome is its slice
    and whether it was admitted, so the sums come from per-outcome allocation
    and service tables, on the true allocation min(d, 1).  An agent with no
    element is never admitted.  Returns run(rng, m) as _single_unit_runner.
    """
    rules, alloc, service = {FORWARD: [], BACKWARD: []}, [], []
    for sl, e in zip(slices, red.element_of_agent):
        # each active slice buys the size atom of its size
        atom_of_size = {} if e is None else {s: j for j, (s, _) in enumerate(red.instance.laws[e].atoms)}
        size_atom = [atom_of_size[s] if on and e is not None else None for s, on in zip(sl.size, sl.active)]
        steps = [0 if a is None else exact.steps[e][a] for a in size_atom]  # as the exact run admitted them
        for tag in rules:
            branches = ((), ()) if e is None else exact.branches(tag)[e][:2]
            b1, b2 = ([0.0 if a is None else b[a] for a in size_atom] for b in branches)
            rules[tag].append(Admission.build(sl.upper, steps, exact.grid, b1, b2))
        alloc.append(np.array([g for size in sl.size for g in (0.0, size)]))  # per outcome code 2k + admitted
        service.append(np.repeat(sl.base, 2) + alloc[-1] / np.repeat(sl.scale, 2))

    def run(rng, m: int):
        out = {}
        for tag, _, i, _, code in replay_admissions(rules, exact.grid, rng, m, len(slices)):
            y, s = alloc[i], service[i]
            counts = np.bincount(code, minlength=y.size)
            out[("service", tag[0], i)] = (float(counts @ s), float(counts @ (s * s)), code.size)
            out[("alloc", tag[0], i)] = (float(counts @ y), float(counts @ (y * y)), code.size)
        return out

    return run


@dataclass(frozen=True)
class _Route:
    """One route of run_rationing, built and checked, ready to run.

    run(rng, m) is the route's executor; exact() returns
    {order tag: (alloc, service)}, the exact per-order E[Y_i] and E[s_i].
    Per agent: rates (c_f, c_b), taus (tau_f, tau_b) and the guarantee bound.
    """

    name: str
    plan: SelectionPlan
    run: Callable
    exact: Callable[[], dict]
    rates: tuple[tuple[float | None, float | None], ...]
    taus: tuple[tuple[float | None, float | None], ...]
    bounds: tuple[float, ...]
    rem_slack: float | None
    grid: int
    rounded: bool


def _single_unit_route(target: ServiceTarget, plan: SelectionPlan | None) -> _Route:
    inst, su = target.instance, target.single_unit()
    if plan is None:
        plan = solve_lp_si(su)
    if plan.n != inst.n:
        raise InvalidInstanceError("the single-unit route needs one plan entry per agent")
    if not plan.is_feasible(su):
        raise InfeasibleError("the selection plan is infeasible for these supply shares")
    consumed = before(plan.array * np.array(target.x)).tolist()
    orders = arrival((range(inst.n), range(inst.n))).tolist()
    # A Type-I agent reaches this route only on a target that buys no
    # supply, with every active size 0, which lies on any grid.
    grid = inst.grid or GRID_CAP
    steps = tuple(np.rint(np.array(sl.size[: sl.active.count(True)]) * grid).astype(np.intp) for sl in target.tables)
    tables = {
        tag: _exact_order(target, steps, grid, rates, used, order, tag)
        for tag, rates, used, order in zip((FORWARD, BACKWARD), (plan.c_f, plan.c_b), consumed, orders)
    }
    thresholds = {tag: tables[tag].thresholds for tag in tables}
    return _Route(
        ROUTE_SINGLE_UNIT,
        plan,
        _single_unit_runner(target.tables, steps, grid, thresholds),
        lambda: {tag: (t.alloc, t.service) for tag, t in tables.items()},
        tuple(zip(plan.c_f, plan.c_b)),
        tuple((f / grid, b / grid) for f, b in zip(thresholds[FORWARD], thresholds[BACKWARD])),
        tuple(p * b for p, b in zip(plan.pair_means, target.beta)),
        min(t.rem_slack for t in tables.values()),
        grid,
        _rounding(inst) is not None,
    )


def _knapsack_tables(
    slices: tuple[_Slices, ...], red: KnapsackReduction, rates: tuple[float, ...]
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Exact per-agent (E[Y_i | order], E[s_i | order]) on the knapsack route.

    Valid because the verified executor accepts at the planned rate for every
    size, so acceptance is independent of the size atom drawn.  Closed form,
    independent of the executor's outcome tables, so exact mode cross-checks MC.
    """
    alloc, service = [], []
    for sl, e in zip(slices, red.element_of_agent):
        c = 0.0 if e is None else rates[e]
        k = sl.active.count(True)
        alloc.append(math.fsum(width * c * y for y, width in zip(sl.size, sl.width)))
        # an active slice is admitted with probability c and gets its size; y = 0 serves the base
        admitted = zip(sl.size[:k], sl.width, sl.base, sl.scale)
        terms = [width * (c * (base + y / scale) + (1.0 - c) * base) for y, width, base, scale in admitted]
        service.append(math.fsum(terms + [width * base for width, base in zip(sl.width[k:], sl.base[k:])]))
    return tuple(alloc), tuple(service)


def _knapsack_route(target: ServiceTarget, plan: SelectionPlan | None) -> _Route:
    slices, red = target.tables, _reduction(target)
    if plan is None:
        plan = closed_form_knapsack_plan(red.instance)
    if plan.n != red.instance.n:
        raise InvalidInstanceError("the knapsack route needs one plan entry per reduced element")
    result = run_knapsack_exact(red.instance, plan)  # checks the plan's feasibility
    err = result.max_rate_error(plan)
    if err > RATE_TOL:
        raise InvariantViolationError(f"size-dependent acceptance (max rate drift {err:.3g})")
    elements = red.element_of_agent
    pair = plan.pair_means
    return _Route(
        ROUTE_KNAPSACK,
        plan,
        _knapsack_runner(slices, red, result),
        lambda: {tag: _knapsack_tables(slices, red, plan.rates(tag)) for tag in (FORWARD, BACKWARD)},
        tuple((None, None) if e is None else (plan.c_f[e], plan.c_b[e]) for e in elements),
        ((None, None),) * target.n,
        # Skipped agents have no pair mean of their own; the scheme guarantee
        # still covers them at the plan objective.
        tuple((plan.objective if e is None else pair[e]) * b for e, b in zip(elements, target.beta)),
        rem_slack=None,
        grid=result.grid,
        rounded=result.rounded,
    )


def takes_knapsack_route(target: ServiceTarget) -> bool:
    """Whether run_rationing takes the knapsack route: a Type-I agent, on a
    target that buys supply."""
    return target.instance.has_type_i and target.total_supply > 0.0


def run_rationing(
    inst: RationingInstance,
    target: ServiceTarget,
    plan: SelectionPlan | None = None,
    mode: str = "exact",
    trials: int = 0,
    seed: int = 0,
) -> RationingResult:
    """Execute the rationing scheme for a solved service target.

    Instances with a Type-I agent run through the knapsack scheme (sizes
    min(D, 1)); all others use the single-unit scheme with per-order
    calibrated thresholds, and so does a target that buys no supply
    (total_supply 0) whatever the service types: it allocates nothing, which
    the service rule scores exactly for a Type-I agent too.  Both routes
    promise every agent expected service of at least the pair-mean rate
    times beta.  Mode "exact" propagates the remaining-supply or fill law in
    closed form and raises when an agent misses the guarantee; "mc"
    simulates trials runs on top of the same calibration; seed feeds mc mode
    only, as exact mode draws no randomness.  plan covers the agents
    (single-unit route) or the reduced elements (knapsack route); it
    defaults to the LP optimum or the closed form, and an infeasible plan
    raises InfeasibleError in both modes.  result.grid and result.rounded
    say on which grid the route ran and whether sizes were rounded onto it.
    A target solved for another instance, or whose shares exceed the unit
    supply, raises InvalidInstanceError; the routes read its tables.
    """
    if mode not in ("exact", "mc"):
        raise InvalidInstanceError(f"unknown mode {mode!r}")
    if mode == "mc" and trials < 1:
        raise InvalidInstanceError("mc mode needs trials >= 1")
    _check(inst, target)
    route = (_knapsack_route if takes_knapsack_route(target) else _single_unit_route)(target, plan)
    if mode == "exact":
        estimates = None
        per = route.exact()
        alloc, service = (
            [(f + b) / 2 for f, b in zip(per[FORWARD][k], per[BACKWARD][k])] for k in (0, 1)
        )
        bands = [(None, None)] * inst.n
    else:
        estimates = run_trials(route.run, trials, seed)

        def pooled(kind: str, i: int) -> MeanEstimate:
            f, b = estimates[(kind, FORWARD[0], i)], estimates[(kind, BACKWARD[0], i)]
            return MeanEstimate(f.total + b.total, f.total_sq + b.total_sq, f.count + b.count)

        alloc = [pooled("alloc", i).point for i in range(inst.n)]
        pooled_service = [pooled("service", i) for i in range(inst.n)]
        service = [e.point for e in pooled_service]
        bands = [(e.ci_low, e.ci_high) for e in pooled_service]
    agents = tuple(
        AgentReport(
            index=i,
            beta=target.beta[i],
            q=target.q[i],
            x=target.x[i],
            c_f=route.rates[i][0],
            c_b=route.rates[i][1],
            tau_f=route.taus[i][0],
            tau_b=route.taus[i][1],
            expected_service=service[i],
            service_low=bands[i][0],
            service_high=bands[i][1],
            expected_alloc=alloc[i],
            bound=route.bounds[i],
            slack=service[i] - route.bounds[i],
        )
        for i in range(inst.n)
    )
    if mode == "exact":
        for a in agents:
            if a.slack < -CALIBRATION_TOL:
                raise InvariantViolationError(f"service guarantee missed for agent {a.index}")
    return RationingResult(
        route.name, mode, target, route.plan, agents, route.rem_slack, estimates, route.grid, route.rounded
    )
