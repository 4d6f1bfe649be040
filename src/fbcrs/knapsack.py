"""The closed-form knapsack plan and the online knapsack executor.

Plans are SelectionPlans, the one plan type of both schemes.  Acceptance
works off the law of the fill T = total size accepted so far: an element of
size s arriving with fill t is admitted via one of two Bernoulli branches,
b1 for 0 < t <= 1-s and b2 for t = 0, with parameters chosen so the
conditional acceptance probability is the planned c regardless of size.
Each element's parameters are one Branches table, by size atom.  The fill
law is propagated exactly, all atoms at once, which makes the executor its
own test oracle.  run_knapsack_exact keeps each fill law as one dense
vector of Pr[T = k/L], k = 0..L, and a step (_grid_step) is a cumsum and one
slice add per size atom.  L is the smallest grid up to GRID_CAP that holds
every size; sizes on no such grid are admitted rounded up onto 1/GRID_CAP,
which only leaves capacity unused.  The Monte Carlo executor replays the
exact run's Branches, at the sizes it admitted, through one admission kernel
(Admission) in one replay loop (replay_admissions, which the rationing
knapsack route shares), so it cross-checks the exact fill law itself.  Its
fills are integer grid steps too, so it decides every fit as the run does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import InfeasibleError, InvalidInstanceError, InvariantViolationError
from .instances import BACKWARD, FORWARD, KnapsackInstance, SizeLaw, arrival, before, order_row
from .lp_si import SelectionPlan
from .sim import run_trials, slice_index, two_orders
from .tolerances import (
    ATOM_TOL,
    CURVE_TOL,
    FEAS_TOL,
    MASS_TOL,
    MONOTONE_TOL,
    RATE_TOL,
)


def phi_knapsack(z):
    """The knapsack selection curve 4/9 - 2z/9 on [0, 1]; z may be an array."""
    z = np.asarray(z, dtype=float)
    outside = ~((z >= -CURVE_TOL) & (z <= 1.0 + CURVE_TOL))  # NaN is outside
    if outside.any():
        raise ValueError(f"z={z[outside][0]} outside [0, 1]")
    return 4.0 / 9.0 - 2.0 * np.clip(z, 0.0, 1.0) / 9.0


def closed_form_knapsack_plan(inst: KnapsackInstance) -> SelectionPlan:
    """Average the linear curve over each element's mean-size window.

    The average over [a, a + mu] of a linear function is its midpoint value.
    Pair means equal 4/9 - (total mu)/9, which is exactly 1/3 when the means
    sum to 1; smaller totals only loosen the constraints (the plan maps onto
    [0, total mu] without rescaling, deliberately conservative).
    """
    mu = np.array(inst.mu)
    rates = phi_knapsack(np.minimum(before(np.array((mu, mu))) + mu / 2.0, 1.0))
    return SelectionPlan(rates[0], rates[1])


@dataclass(frozen=True)
class KnapsackFeasibilityReport:
    """Constraint evaluation for a plan on an instance.

    max_violation covers both constraint families in both orders;
    monotone_violations lists (order tag, element index) pairs where the
    required ordering (first arrival weakly largest) breaks.
    """

    max_violation: float
    monotone_violations: tuple[tuple[str, int], ...]
    zero_first_flagged: bool

    def ok(self) -> bool:
        return self.max_violation <= FEAS_TOL and not self.monotone_violations

    def require(self) -> None:
        """Raise InfeasibleError unless ok()."""
        if not self.ok():
            raise InfeasibleError(
                f"plan violates the feasibility constraints by {self.max_violation}"
                + (f"; monotonicity broken at {self.monotone_violations}" if self.monotone_violations else "")
            )


def check_knapsack_feasible(plan: SelectionPlan, inst: KnapsackInstance) -> KnapsackFeasibilityReport:
    """Evaluate both constraint families of the feasible-plan definition,
    both orders at once."""
    if plan.n != inst.n:
        raise InvalidInstanceError("plan and instance sizes differ")
    rates = plan.array
    arrived = arrival(rates)
    first = arrived[:, :1]  # c_first of each order
    consumed = before(rates * np.array(inst.mu))  # c_sigma(j) * mu_j over earlier arrivals
    # c1*exp(-2u/c1) is 0 in the limit c1 -> 0, so a zero c1 divides by 1 instead.
    survival = first * np.exp(-2.0 * consumed / np.where(first > 0.0, first, 1.0))
    excess = np.concatenate((rates - (1.0 - first - consumed), rates - (1.0 - 2.0 * consumed - survival)))
    worst = max(0.0, float(excess.max()))
    rows, pos = np.nonzero(arrived[:, 1:] > arrived[:, :-1] + MONOTONE_TOL)
    index = arrival(np.array((range(inst.n), range(inst.n))))[rows, pos + 1]  # element arriving there
    monotone = tuple(zip(((FORWARD, BACKWARD)[r] for r in rows.tolist()), index.tolist()))
    return KnapsackFeasibilityReport(worst, monotone, bool((first == 0.0).any()))


@dataclass(frozen=True, eq=False)
class FiniteLaw:
    """Exact finite law of a quantity in [0, 1]: sorted values, positive masses.

    A grid run's trace views hold its dense fill rows as one, and
    monitor_invariants checks one.  The arrays are read-only copies; `atoms`
    views the same law as (value, probability) pairs.  The mass is checked to
    MASS_TOL.
    """

    values: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        for name in ("values", "probs"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        values, probs = self.values, self.probs
        if values.ndim != 1 or values.shape != probs.shape or not values.size:
            raise InvariantViolationError("a law needs equally long, nonempty values and probabilities")
        if not (values[1:] >= values[:-1]).all():
            raise InvariantViolationError("law values must be sorted")
        if not (values[0] >= -ATOM_TOL and values[-1] <= 1.0 + ATOM_TOL):
            raise InvariantViolationError(f"law values [{values[0]}, {values[-1]}] outside [0, 1]")
        if not (probs > 0.0).all():
            raise InvariantViolationError("law probabilities must be positive")
        if abs(self.mass - 1.0) > MASS_TOL:
            raise InvariantViolationError(f"law mass {self.mass} != 1")

    @cached_property
    def atoms(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.values.tolist(), self.probs.tolist()))

    @property
    def support_size(self) -> int:
        return self.values.size

    @cached_property
    def mass(self) -> float:
        return float(self.probs.sum())


class Branches(NamedTuple):
    """One element's branch parameters, one entry per atom of its size law.

    b1 admits from fills in (0, 1-s], b2 from the empty knapsack (used only
    when c exceeds what b1 alone reaches); rate is the acceptance they give
    against the fill law they were computed from.
    """

    b1: tuple[float, ...]
    b2: tuple[float, ...]
    rate: tuple[float, ...]


def branch_probs(c: float, p0: float, p1s) -> Branches:
    """The branch rule: p0 = Pr[T = 0] and, per size atom, p1 = Pr[0 < T <= 1-s].

    Accept from fills in (0, 1-s] with probability min(1, c/p1); if c > p1,
    additionally accept from fill 0 with probability min(1, (c - p1)/p0).
    A handful of atoms per element: plain floats beat array operations here.
    """
    b1, b2, rate = [], [], []
    for p1 in p1s:
        q1 = min(1.0, c / p1) if p1 > 0.0 else 0.0
        q2 = min(1.0, (c - p1) / p0) if c > p1 and p0 > 0.0 else 0.0
        b1.append(q1)
        b2.append(q2)
        rate.append(q1 * p1 + q2 * p0)
    return Branches(tuple(b1), tuple(b2), tuple(rate))


# The largest grid run_knapsack_exact runs on, and the grid it rounds sizes
# on no such grid up onto.  A run keeps every fill law of both orders,
# 16 * (n + 1) * (L + 1) bytes: 1.9 MB at n = 28 and L = 4096, 13 MB at
# n = 200.
GRID_CAP = 4096


def _grid_size(sizes) -> int | None:
    """The smallest L <= GRID_CAP such that every size in the flat list
    `sizes` is the double k/L for an integer k, or None.

    Each pass checks every size at L and, for the first one off it, takes
    the denominator q of the closest fraction with denominator at most
    GRID_CAP; L becomes lcm(L, q).  A size no such fraction reproduces
    exactly, or an L past the cap, means no grid.
    """
    sizes = np.array(sizes, dtype=float)
    grid = 1
    while True:
        off = np.rint(sizes * grid) / grid != sizes
        if not off.any():
            return grid
        s = float(sizes[off.argmax()])
        q = Fraction(s).limit_denominator(GRID_CAP)
        grid = math.lcm(grid, q.denominator)
        if float(q) != s or grid > GRID_CAP:
            return None


def _grid_step(p: np.ndarray, out: np.ndarray, law: SizeLaw, ks: np.ndarray, c: float, ctx: str) -> Branches:
    """Fold one element into the fill law on a 1/L grid: p[k] = Pr[T = k/L]
    before the element, out[k] after it; size atom j is admitted as ks[j]/L.
    Returns the element's Branches.  Raises InfeasibleError when c exceeds
    Pr[T = 0] + Pr[0 < T <= 1-s] for some size s.

    Size atom j fits fills k <= L - ks[j] exactly, so no boundary needs
    ATOM_TOL and no atoms merge.  Sizes ascend (SizeLaw sorts them), so the
    fit ends descend and the fills past 0 fall into pieces on which the j
    smallest sizes fit, j = k, ..., 0.  On a piece the mass that stays is the
    inactive mass plus, per size atom, its mass times the chance the element
    is turned away: 1 - b2 at fill 0, 1 - b1 where it fits, 1 else.  Each
    size atom then adds one slice, shifted by ks[j], with b2 at fill 0 and b1
    above it.
    """
    if not 0.0 <= c <= 1.0:
        raise InvalidInstanceError(f"acceptance probability {c} outside [0, 1] {ctx}")
    cum = np.empty(p.size + 1)  # cum[r] is the mass of the r lowest fills
    cum[0] = 0.0
    np.cumsum(p, out=cum[1:])
    fits = (p.size - ks).tolist()
    p0 = float(cum[1])
    p1s = [cf - p0 for cf in cum[fits].tolist()]
    branches = branch_probs(c, p0, p1s)
    for (s, _), k, p1 in zip(law.atoms, ks.tolist(), p1s):
        if c > p0 + p1 + FEAS_TOL:
            size = f"size {s}" if k / (p.size - 1) == s else f"size {s} admitted as {k}/{p.size - 1}"
            raise InfeasibleError(
                f"acceptance {c} exceeds reachable probability {p0 + p1} ({size}{', ' + ctx if ctx else ''})"
            )
    size_probs = [ps for _, ps in law.atoms]
    turned_zero = [ps * (1.0 - b2) for ps, b2 in zip(size_probs, branches.b2)]
    turned_fit = [ps * (1.0 - b1) for ps, b1 in zip(size_probs, branches.b1)]
    stay = [math.fsum([law.inactive_mass, *turned_zero])]
    stay += [
        math.fsum([law.inactive_mass, *turned_fit[:j], *size_probs[j:]]) for j in range(len(size_probs), -1, -1)
    ]
    cuts = [0, 1, *fits[::-1], p.size]
    np.multiply(p, np.array(stay).repeat([hi - lo for lo, hi in zip(cuts, cuts[1:])]), out=out)
    for k, fit, ps, b1, b2 in zip(ks.tolist(), fits, size_probs, branches.b1, branches.b2):
        moved = p[:fit] * ps  # (p * ps) * b: the order decides what underflows
        moved[0] *= b2
        moved[1:] *= b1
        out[k : k + fit] += moved
    mass = float(out.sum())  # pairwise: within about 1e-15 of 1, far inside MASS_TOL
    if abs(mass - 1.0) > MASS_TOL:
        raise InvariantViolationError(f"fill mass drifted to {mass} {ctx}")
    return branches


@dataclass(frozen=True, eq=False)
class KnapsackExactResult:
    """Exact conditional rates and the full fill-law traces for both orders.

    branches_* hold every element's Branches, so the executor's bit
    parameters can be replayed without re-propagating.  grid is the L of the
    run's 1/L grid; rounded says the sizes lay on no grid up to GRID_CAP and
    were admitted rounded up onto 1/GRID_CAP.  steps[i][j] is the size the
    run admitted for atom j of element i in grid steps, the size
    steps[i][j]/grid (the true size unless rounded; two atoms may share
    one).  dense[row, step, k] is Pr[T = k/L] (row 0
    forward, 1 backward); traces_f and traces_b hold n+1 FiniteLaw views of
    its rows each, before each arrival and final, built on first access.
    """

    rates_f: tuple[float, ...]
    rates_b: tuple[float, ...]
    branches_f: tuple[Branches, ...]
    branches_b: tuple[Branches, ...]
    grid: int
    rounded: bool
    steps: tuple[tuple[int, ...], ...]
    dense: np.ndarray = field(repr=False)  # (2, n + 1, L + 1), read-only

    @cached_property
    def traces_f(self) -> tuple[FiniteLaw, ...]:
        return self._trace(0)

    @cached_property
    def traces_b(self) -> tuple[FiniteLaw, ...]:
        return self._trace(1)

    def _trace(self, row: int) -> tuple[FiniteLaw, ...]:
        values = np.arange(self.grid + 1) / self.grid
        return tuple(FiniteLaw(values[nz], step[nz]) for step in self.dense[row] for nz in step.nonzero())

    def rates(self, tag: str) -> tuple[float, ...]:
        return (self.rates_f, self.rates_b)[order_row(tag)]

    def branches(self, tag: str) -> tuple[Branches, ...]:
        return (self.branches_f, self.branches_b)[order_row(tag)]

    def traces(self, tag: str) -> tuple[FiniteLaw, ...]:
        return (self.traces_f, self.traces_b)[order_row(tag)]

    def rate_errors(self, plan: SelectionPlan) -> tuple[float, ...]:
        """Per element, the worst |rate(s) - planned c| over sizes and orders."""
        return tuple(
            max((abs(r - c) for br, c in ((f, cf), (b, cb)) for r in br.rate), default=0.0)
            for f, b, cf, cb in zip(self.branches_f, self.branches_b, plan.c_f, plan.c_b)
        )

    def max_rate_error(self, plan: SelectionPlan) -> float:
        """Worst |rate(s) - planned c| over elements, sizes, and orders."""
        return max(self.rate_errors(plan))


def run_knapsack_exact(inst: KnapsackInstance, plan: SelectionPlan) -> KnapsackExactResult:
    """Propagate the fill law through both orders and read off exact rates.

    Every step runs _grid_step on one dense (2, n + 1, L + 1) block.  Sizes
    on a 1/L grid with L <= GRID_CAP run as they are.  Any other size s is
    admitted as ceil(s L)/L with L = GRID_CAP, the smallest grid point at or
    above it: a rounded size only leaves capacity unused, so the scheme stays
    feasible for the true sizes, and the rates are exact for the policy that
    runs (the executors replay result.steps).  Rounding can make a planned
    rate unreachable; the InfeasibleError then says the sizes were rounded.
    """
    check_knapsack_feasible(plan, inst).require()
    grid = _grid_size([s for law in inst.laws for s, _ in law.atoms])
    rounded = grid is None
    if rounded:
        grid = GRID_CAP
    ks = []
    for law in inst.laws:
        sizes = np.array([s for s, _ in law.atoms])
        k = np.rint(sizes * grid).astype(np.intp)
        k += k / grid < sizes  # where rint rounded down, the next point up (never on a grid)
        ks.append(k)
    dense = np.zeros((2, inst.n + 1, grid + 1))
    dense[:, 0, 0] = 1.0
    note = f", sizes rounded up onto 1/{grid}" if rounded else ""
    per_order = []  # (rates, branches) of each order
    orders = arrival((range(inst.n), range(inst.n))).tolist()
    for row, (tag, order, planned) in enumerate(zip((FORWARD, BACKWARD), orders, (plan.c_f, plan.c_b))):
        rates = [0.0] * inst.n
        branches: list = [None] * inst.n
        for pos, i in enumerate(order):
            law = inst.laws[i]
            ctx = f"order {tag}, element {i}, position {pos + 1}{note}"
            branches[i] = _grid_step(dense[row, pos], dense[row, pos + 1], law, ks[i], planned[i], ctx)
            rates[i] = math.fsum(ps * r for (_, ps), r in zip(law.atoms, branches[i].rate)) / law.active_mass
        per_order.append((tuple(rates), tuple(branches)))
    dense.flags.writeable = False
    (rates_f, branches_f), (rates_b, branches_b) = per_order
    steps = tuple(tuple(k.tolist()) for k in ks)
    return KnapsackExactResult(rates_f, rates_b, branches_f, branches_b, grid, rounded, steps, dense)


@dataclass(frozen=True)
class InvariantReport:
    """Result of checking the induction inequalities on one fill law.

    Each violation is (b, lhs, rhs) for the survival inequality
    Pr[0 < T <= b]/c1 <= exp(-Pr[b < T <= 1-b]/c1); zero_slack is
    Pr[T = 0] - c_current when a current acceptance value was supplied.
    """

    violations: tuple[tuple[float, float, float], ...]
    zero_slack: float | None

    def ok(self) -> bool:
        if self.zero_slack is not None and self.zero_slack < -FEAS_TOL:
            return False
        return not self.violations


def _monitor_points(b_grid) -> tuple[np.ndarray, np.ndarray]:
    """The b-grid as an array, and the fills 0, b..., 1-b... at which the
    checks read the CDF (resolved at ATOM_TOL)."""
    b = np.asarray(b_grid, dtype=float)
    outside = ~((b > 0.0) & (b <= 0.5))
    if outside.any():
        raise ValueError(f"b={b[outside][0]} outside (0, 1/2]")
    return b, np.concatenate(([0.0], b, 1.0 - b))


def _check_invariants(cdf: np.ndarray, c_first: float, b: np.ndarray, current: list) -> list[InvariantReport]:
    """The induction checks on m fill laws at once.

    Row r of cdf holds law r's Pr[T <= x] at _monitor_points; current[r] is
    the acceptance of the element arriving at law r, or None (no zero slack).
    """
    zero, below_b, below_top = cdf[:, :1], cdf[:, 1 : 1 + b.size], cdf[:, 1 + b.size :]
    low = below_b - zero
    mid = below_top - below_b
    if c_first > 0.0:
        lhs = low / c_first
        rhs = np.exp(-mid / c_first)
    else:
        # nothing is ever accepted when the first element gets 0
        lhs = low
        rhs = np.zeros_like(low)
    bad = lhs > rhs + FEAS_TOL
    flagged = bad.any(axis=1).tolist()
    slacks = [None if c is None else z - c for z, c in zip(zero[:, 0].tolist(), current)]
    reports = []
    for r, (hit, slack) in enumerate(zip(flagged, slacks)):
        violations = ()
        if hit:
            cols = bad[r]
            violations = tuple(zip(b[cols].tolist(), lhs[r, cols].tolist(), rhs[r, cols].tolist()))
        reports.append(InvariantReport(violations, slack))
    return reports


def monitor_invariants(
    dist: FiniteLaw,
    c_first: float,
    b_grid,
    c_current: float | None = None,
) -> InvariantReport:
    """Check the induction inequalities at every b in the grid."""
    b, points = _monitor_points(b_grid)
    cum = np.concatenate(([0.0], np.cumsum(dist.probs)))  # cum[r]: mass of the r lowest atoms
    cdf = cum[dist.values.searchsorted(points + ATOM_TOL, side="right")]
    return _check_invariants(cdf[None, :], c_first, b, [c_current])[0]


@dataclass(frozen=True)
class MonitorTraceReport:
    """Aggregated monitor over every propagation step of both orders."""

    step_reports: tuple[tuple[str, int, InvariantReport], ...]
    max_expectation_error: float

    def ok(self) -> bool:
        return self.max_expectation_error <= RATE_TOL and all(rep.ok() for _, _, rep in self.step_reports)

    @property
    def total_violations(self) -> int:
        return sum(len(rep.violations) for _, _, rep in self.step_reports)


def monitor_trace(
    inst: KnapsackInstance,
    plan: SelectionPlan,
    result: KnapsackExactResult,
    b_grid,
) -> MonitorTraceReport:
    """Run the monitor_invariants checks at every step; also check E[T]
    bookkeeping, both read off the dense block.

    Per order, one cumsum gives the (n + 1) x points matrix of CDF values
    that feeds the checks of every step; one einsum against the grid's
    fills gives E[T] before every arrival of both orders and at the end.
    The expectation identity E[T before element at position k] = sum of
    c_sigma(j) * mu_j over the k-1 earlier elements must hold to RATE_TOL at
    every step, with mu_j the mean of the sizes the run admitted.
    """
    b, points = _monitor_points(b_grid)
    reports = []
    grid = result.grid
    values = np.arange(grid + 1) / grid  # the fills k/L
    cols = values.searchsorted(points + ATOM_TOL, side="right") - 1
    for row, (tag, planned) in enumerate(zip((FORWARD, BACKWARD), arrival(plan.array))):
        cdf = np.cumsum(result.dense[row], axis=1)[:, cols]
        checks = _check_invariants(cdf, float(planned[0]), b, [*planned.tolist(), None])
        reports += [(tag, step, rep) for step, rep in enumerate(checks)]
    # SizeLaw.mean's sum, on the admitted sizes: inst.mu itself on a grid run
    mu = [math.fsum(k / grid * p for k, (_, p) in zip(ks, law.atoms)) for ks, law in zip(result.steps, inst.laws)]
    claimed = plan.array * np.array(mu)
    expected = np.zeros((2, inst.n + 1))
    expected[:, 1:] = arrival(before(claimed) + claimed)
    actual = np.einsum("rsk,k->rs", result.dense, values)  # not a BLAS dot, which may start threads
    return MonitorTraceReport(tuple(reports), float(np.abs(actual - expected).max()))


class Admission(NamedTuple):
    """The knapsack admission rule for one element, as per-slice tables.

    One uniform u per arrival does all the drawing.  [0, 1) is cut into
    slices, one per size atom plus any inactive stretch, and slice
    k = slice_index(u, edges) names the atom.  Rescaled within its slice, u is
    again uniform and independent of the atom, so it also decides acceptance.
    The fill picks the branch: state 0 for an empty knapsack (zero branch
    b2), 1 when the size fits (interval branch b1), 2 when it does not (never
    admitted); the row is admitted when u < lo_k + width_k * b.  Sizes and
    fills are integer steps of the exact run's 1/L grid, as there.
    """

    edges: tuple[float, ...]  # slice k covers [edges[k-1], edges[k])
    room: np.ndarray  # per slice, L - k: larger fills do not fit
    thresholds: np.ndarray  # per slice and state, row-major: lo + width * (b2, b1, 0)
    gains: np.ndarray  # per outcome code 2k + admitted: the steps added to the fill

    @classmethod
    def build(cls, upper, steps, grid: int, b1, b2) -> Admission:
        """Slices end at `upper` (the last runs on to 1) and admit `steps` of
        a 1/grid grid; inactive slices have 0 steps and b1 = b2 = 0.  Tables
        are a handful of entries: plain lists build them faster than arrays."""
        upper = [float(v) for v in upper]
        lo = [0.0] + upper[:-1]
        thresholds = [t for a, z, p, q in zip(lo, upper, b2, b1) for t in (a + (z - a) * p, a + (z - a) * q, a)]
        gains = np.array([g for k in steps for g in (0, k)], dtype=np.int32)
        return cls(tuple(upper[:-1]), grid - gains[1::2], np.array(thresholds), gains)

    @classmethod
    def of_law(cls, law: SizeLaw, steps, grid: int, branches: Branches) -> Admission:
        """Slices of a size law: its atoms in order, admitted at `steps` (one
        per atom, as KnapsackExactResult.steps gives them), then the inactive
        mass."""
        inactive = [0] if law.inactive_mass > 0.0 else []  # steps and branches of that slice
        upper = np.cumsum([p for _, p in law.atoms]).tolist() + [1.0] * len(inactive)
        return cls.build(upper, [*steps, *inactive], grid, [*branches.b1, *inactive], [*branches.b2, *inactive])

    def admit(self, u: np.ndarray, fill: np.ndarray) -> np.ndarray:
        """Admit rows with uniforms u against int32 fills, adding admitted
        steps to fill in place.  Returns the outcome code 2 * slice +
        admitted, int8 while 3 * slices < 128 and intp beyond."""
        k = slice_index(u, self.edges)
        if 3 * self.room.size >= 128:
            k = k.astype(np.intp)
        # In place and in k's dtype from here on: a bool added into a wider
        # integer array costs several times the comparison that made it.
        branch = 3 * k
        branch += (fill > 0).view(np.int8)
        branch += (fill > self.room.take(k)).view(np.int8)
        code = k + k
        code += (u < self.thresholds.take(branch)).view(np.int8)
        fill += self.gains.take(code)
        return code


def replay_admissions(rules: dict, grid: int, rng: np.random.Generator, m: int, n: int):
    """Run the knapsack admission rule on m rows, both orders at once.

    rules[tag][i] is element i's Admission in order tag, on a 1/grid grid.
    Yields (tag, rows, element, uniforms, outcome codes) per arrival half,
    as two_orders and Admission.admit give them, and after the last arrival
    raises InvariantViolationError if a row's fill exceeds grid steps.  The
    int32 fills cannot wrap past that check while n * grid < 2^31.
    """
    fills = np.zeros(m, dtype=np.int32)
    for tag, rows, i, u in two_orders(rng, m, n):
        yield tag, rows, i, u, rules[tag][i].admit(u, fills[rows])
    if m and fills.max() > grid:
        raise InvariantViolationError("accepted sizes exceeded the knapsack")


def run_knapsack_mc(inst: KnapsackInstance, plan: SelectionPlan, trials: int, seed: int):
    """Monte Carlo executor on the exact run's branch parameters.

    Returns RateEstimates keyed by ("f", i) / ("b", i): conditional acceptance
    given active, per order.  The branches come from run_knapsack_exact, so
    each estimate tests the exact fill law: it should cover the planned c.
    """
    return replay_branches(inst, run_knapsack_exact(inst, plan), trials, seed)


def replay_branches(inst: KnapsackInstance, exact: KnapsackExactResult, trials: int, seed: int):
    """run_knapsack_mc on the Branches of exact, a run_knapsack_exact result
    for inst, so a caller that also reads the exact run propagates once."""
    grid = exact.grid
    rules = {
        tag: [Admission.of_law(law, ks, grid, br) for law, ks, br in zip(inst.laws, exact.steps, exact.branches(tag))]
        for tag in (FORWARD, BACKWARD)
    }

    def experiment(rng, m: int):
        out = {}
        for tag, _, i, _, code in replay_admissions(rules, grid, rng, m, inst.n):
            active = 2 * len(inst.laws[i].atoms)  # codes of the atoms' slices
            out[(tag[0], i)] = (float(np.count_nonzero(code & 1)), np.count_nonzero(code < active))
        return out

    return run_trials(experiment, trials, seed)
