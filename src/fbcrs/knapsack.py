"""Knapsack selection plans and the online knapsack executor.

Acceptance works off the law of the fill T = total size accepted so far:
an element of size s arriving with fill t is admitted via one of two
Bernoulli branches, one for 0 < t <= 1-s and one for t = 0, with parameters
chosen so the conditional acceptance probability is the planned c regardless
of size.  The fill law is propagated exactly, all atoms at once, which makes
the executor its own test oracle; a sampled-history mode estimates the branch
probabilities from replica pools instead, as one would on instances too rich
to enumerate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import InfeasibleError, InvalidInstanceError, InvariantViolationError
from .instances import BACKWARD, FORWARD, KnapsackInstance, Permutation, SizeLaw
from .sim import NS_POOL, run_trials, stream

# Law values closer than this merge onto the earlier value.  Sizes on a common
# grid still trigger merges: float sums of the same grid points taken in
# different orders differ in the last bits.
ATOM_TOL = 1e-12
RATE_TOL = 1e-10
FEAS_TOL = 1e-9

DEFAULT_POOL_SIZE = 10_000


def phi_knapsack(z: float) -> float:
    """The knapsack selection curve 4/9 - 2z/9 on [0, 1]."""
    if not -1e-12 <= z <= 1.0 + 1e-12:
        raise ValueError(f"z={z} outside [0, 1]")
    z = min(max(z, 0.0), 1.0)
    return 4.0 / 9.0 - 2.0 * z / 9.0


@dataclass(frozen=True)
class KnapsackPlan:
    """Acceptance probabilities for both orders, with provenance."""

    c_f: tuple[float, ...]
    c_b: tuple[float, ...]
    source: str = "user"

    def __post_init__(self):
        object.__setattr__(self, "c_f", tuple(float(v) for v in self.c_f))
        object.__setattr__(self, "c_b", tuple(float(v) for v in self.c_b))
        if len(self.c_f) != len(self.c_b) or not self.c_f:
            raise InvalidInstanceError("plan orders must have equal positive length")
        for v in self.c_f + self.c_b:
            if not 0.0 <= v <= 1.0:
                raise InvalidInstanceError(f"acceptance probability {v} outside [0, 1]")
        if self.source not in ("closed_form", "user"):
            raise InvalidInstanceError(f"unknown plan source {self.source!r}")

    @property
    def n(self) -> int:
        return len(self.c_f)

    def rates(self, tag: str) -> tuple[float, ...]:
        return self.c_f if tag == FORWARD else self.c_b

    @cached_property
    def pair_means(self) -> tuple[float, ...]:
        return tuple((f + b) / 2.0 for f, b in zip(self.c_f, self.c_b))

    @cached_property
    def objective(self) -> float:
        return min(self.pair_means)


def closed_form_knapsack_plan(inst: KnapsackInstance) -> KnapsackPlan:
    """Average the linear curve over each element's mean-size window.

    The average over [a, a + mu] of a linear function is its midpoint value.
    Pair means equal 4/9 - (total mu)/9, which is exactly 1/3 when the means
    sum to 1; smaller totals only loosen the constraints (the plan maps onto
    [0, total mu] without rescaling, deliberately conservative).
    """
    rates: dict[str, list[float]] = {}
    for tag in (FORWARD, BACKWARD):
        out = [0.0] * inst.n
        prefix = 0.0
        for i in Permutation(tag, inst.n).order():
            out[i] = phi_knapsack(min(prefix + inst.mu[i] / 2.0, 1.0))
            prefix += inst.mu[i]
        rates[tag] = out
    return KnapsackPlan(tuple(rates[FORWARD]), tuple(rates[BACKWARD]), source="closed_form")


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

    def ok(self, tol: float = FEAS_TOL) -> bool:
        return self.max_violation <= tol and not self.monotone_violations


def check_knapsack_feasible(plan: KnapsackPlan, inst: KnapsackInstance) -> KnapsackFeasibilityReport:
    """Evaluate both constraint families of the feasible-plan definition."""
    if plan.n != inst.n:
        raise InvalidInstanceError("plan and instance sizes differ")
    worst = 0.0
    monotone = []
    zero_first = False
    for tag in (FORWARD, BACKWARD):
        rates = plan.rates(tag)
        order = Permutation(tag, inst.n).order()
        c_first = rates[order[0]]
        if c_first == 0.0:
            zero_first = True
        prev = math.inf
        consumed = 0.0  # sum of c_sigma(j) * mu_j over arrived elements
        for i in order:
            c = rates[i]
            if c > prev + 1e-12:
                monotone.append((tag, i))
            prev = c
            worst = max(worst, c - (1.0 - c_first - consumed))
            if c_first > 0.0:
                survival = c_first * math.exp(-2.0 * consumed / c_first)
            else:
                # limit of c1*exp(-2u/c1) as c1 -> 0 is 0 for u > 0; at u = 0
                # the term is c1 itself, still 0.
                survival = 0.0
            worst = max(worst, c - (1.0 - 2.0 * consumed - survival))
            consumed += c * inst.mu[i]
    return KnapsackFeasibilityReport(worst, tuple(monotone), zero_first)


@dataclass(frozen=True, eq=False)
class FiniteLaw:
    """Exact finite law of a quantity in [0, 1]: sorted values, positive masses.

    The knapsack executor propagates the fill before each arrival (`element`
    counts the elements folded in, 0 before the first arrival); the rationing
    executor propagates the remaining supply.  `tag` records the order the law
    is conditioned on.  The arrays are read-only copies; `atoms` views the same
    law as (value, probability) pairs.  Queries resolve boundaries at ATOM_TOL.
    """

    values: np.ndarray
    probs: np.ndarray
    element: int = 0
    tag: str = FORWARD

    def __post_init__(self):
        for name in ("values", "probs"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        values, probs = self.values, self.probs
        if self.tag not in (FORWARD, BACKWARD):
            raise InvalidInstanceError(f"unknown order tag {self.tag!r}")
        if values.ndim != 1 or values.shape != probs.shape or not values.size:
            raise InvariantViolationError("a law needs equally long, nonempty values and probabilities")
        if not np.all(np.diff(values) >= 0.0):
            raise InvariantViolationError("law values must be sorted")
        if not (values[0] >= -ATOM_TOL and values[-1] <= 1.0 + ATOM_TOL):
            raise InvariantViolationError(f"law values [{values[0]}, {values[-1]}] outside [0, 1]")
        if not np.all(probs > 0.0):
            raise InvariantViolationError("law probabilities must be positive")
        if abs(self.mass - 1.0) > 1e-10:
            raise InvariantViolationError(f"law mass {self.mass} != 1")

    @classmethod
    def merged(cls, values, probs, element: int = 0, tag: str = FORWARD) -> FiniteLaw:
        """Sort, drop nonpositive masses and merge values within ATOM_TOL.

        Walking up the sorted values, a value joins the current atom (keeping
        the atom's earlier value) unless it lies more than ATOM_TOL above that
        value.  Gaps wider than ATOM_TOL always start an atom; a run of closer
        values that spans more than ATOM_TOL is split by that walk.
        """
        order = np.argsort(values, kind="stable")
        values, probs = np.asarray(values)[order], np.asarray(probs)[order]
        keep = probs > 0.0
        values, probs = values[keep], probs[keep]
        if not values.size:
            raise InvariantViolationError("law lost all probability mass")
        heads = np.flatnonzero(np.diff(values, prepend=-math.inf) > ATOM_TOL)
        ends = np.append(heads[1:], values.size)
        wide = values[ends - 1] - values[heads] > ATOM_TOL
        if wide.any():
            extra = []
            for start, stop in zip(heads[wide], ends[wide]):
                head = values[start]
                for k in range(start + 1, stop):
                    if values[k] - head > ATOM_TOL:
                        head = values[k]
                        extra.append(k)
            heads = np.union1d(heads, extra)
        return cls(values[heads], np.add.reduceat(probs, heads), element, tag)

    @cached_property
    def atoms(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.values.tolist(), self.probs.tolist()))

    @property
    def support_size(self) -> int:
        return self.values.size

    @cached_property
    def mass(self) -> float:
        return math.fsum(self.probs.tolist())

    @cached_property
    def _cum(self) -> np.ndarray:
        return np.concatenate(([0.0], np.cumsum(self.probs)))

    def rank(self, x):
        """Number of atoms at or below x (scalar or array), resolved at ATOM_TOL."""
        return np.searchsorted(self.values, np.add(x, ATOM_TOL), side="right")

    @cached_property
    def p_zero(self) -> float:
        return float(self._cum[self.rank(0.0)])

    def p_interval(self, lo, hi):
        """Pr[lo < T <= hi], boundaries resolved at ATOM_TOL; bounds may be arrays."""
        return self._cum[self.rank(hi)] - self._cum[self.rank(lo)]

    @cached_property
    def expectation(self) -> float:
        return float(self.values @ self.probs)


def initial_fill(tag: str = FORWARD) -> FiniteLaw:
    return FiniteLaw([0.0], [1.0], element=0, tag=tag)


class AcceptanceBranch(NamedTuple):
    """Bernoulli parameters and resulting acceptance rate for one size atom."""

    p_interval: float  # branch for 0 < T <= 1-s
    p_zero: float  # branch for T = 0, used only when c exceeds the first
    rate: float


def propagate_fill(
    dist: FiniteLaw, law: SizeLaw, c: float, ctx: str = ""
) -> tuple[FiniteLaw, dict[float, AcceptanceBranch]]:
    """Fold one element into the fill law; return the per-size bit schedule.

    For each size s: accept from fills in (0, 1-s] with probability
    min(1, c/P1(s)); if c > P1(s), additionally accept from fill 0 with
    probability (c - P1(s))/P0.  Total mass is preserved to 1e-12.
    """
    if not 0.0 <= c <= 1.0:
        raise InvalidInstanceError(f"acceptance probability {c} outside [0, 1] {ctx}")
    values, probs = dist.values, dist.probs
    room = 1.0 - np.array([s for s, _ in law.atoms])
    p0 = dist.p_zero
    p1s = dist.p_interval(0.0, room).tolist()
    # The sorted fills split into the zero branch [0, zero_end), the interval
    # branch [zero_end, fit_end) and the fills the size does not fit.
    zero_end = int(dist.rank(0.0))
    fit_ends = dist.rank(room).tolist()
    schedule: dict[float, AcceptanceBranch] = {}
    stay = probs * law.inactive_mass
    shifted, moved = [], []
    for (s, ps), p1, fit_end in zip(law.atoms, p1s, fit_ends):
        if c > p0 + p1 + FEAS_TOL:
            raise InfeasibleError(
                f"acceptance {c} exceeds reachable probability {p0 + p1} "
                f"(size {s}{', ' + ctx if ctx else ''})"
            )
        b1 = min(1.0, c / p1) if p1 > 0.0 else 0.0
        if c > p1 and p0 > 0.0:
            b2 = min(1.0, (c - p1) / p0)
        else:
            b2 = 0.0
        schedule[s] = AcceptanceBranch(b1, b2, b1 * p1 + b2 * p0)

        accept = np.zeros(values.size)
        accept[:zero_end] = b2
        accept[zero_end:fit_end] = b1
        mass = probs * ps
        stay = stay + mass * (1.0 - accept)
        shifted.append(np.minimum(values[:fit_end] + s, 1.0))
        moved.append(mass[:fit_end] * accept[:fit_end])

    new = FiniteLaw.merged(
        np.concatenate([values] + shifted),
        np.concatenate([stay] + moved),
        element=dist.element + 1,
        tag=dist.tag,
    )
    if abs(new.mass - 1.0) > 1e-12:
        raise InvariantViolationError(f"fill mass drifted to {new.mass} {ctx}")
    return new, schedule


@dataclass(frozen=True)
class KnapsackExactResult:
    """Exact conditional rates and the full fill-law traces for both orders.

    schedules_* hold the per-size AcceptanceBranch of every element, so the
    executor's bit parameters can be replayed without re-propagating.
    """

    rates_f: tuple[float, ...]
    rates_b: tuple[float, ...]
    schedules_f: tuple[dict, ...]
    schedules_b: tuple[dict, ...]
    traces_f: tuple[FiniteLaw, ...]  # n+1 laws, before each arrival and final
    traces_b: tuple[FiniteLaw, ...]

    def rates(self, tag: str) -> tuple[float, ...]:
        return self.rates_f if tag == FORWARD else self.rates_b

    def schedules(self, tag: str) -> tuple[dict, ...]:
        return self.schedules_f if tag == FORWARD else self.schedules_b

    def traces(self, tag: str) -> tuple[FiniteLaw, ...]:
        return self.traces_f if tag == FORWARD else self.traces_b

    @cached_property
    def rates_by_size_f(self) -> tuple[dict, ...]:
        return tuple({s: br.rate for s, br in sched.items()} for sched in self.schedules_f)

    @cached_property
    def rates_by_size_b(self) -> tuple[dict, ...]:
        return tuple({s: br.rate for s, br in sched.items()} for sched in self.schedules_b)

    @property
    def final_fill_f(self) -> FiniteLaw:
        return self.traces_f[-1]

    @property
    def final_fill_b(self) -> FiniteLaw:
        return self.traces_b[-1]

    def max_rate_error(self, plan: KnapsackPlan) -> float:
        """Worst |rate(s) - planned c| over elements, sizes, and orders."""
        worst = 0.0
        for tag, by_size in ((FORWARD, self.rates_by_size_f), (BACKWARD, self.rates_by_size_b)):
            planned = plan.rates(tag)
            for i, sched in enumerate(by_size):
                for rate in sched.values():
                    worst = max(worst, abs(rate - planned[i]))
        return worst


def run_knapsack_exact(inst: KnapsackInstance, plan: KnapsackPlan) -> KnapsackExactResult:
    """Propagate the fill law through both orders and read off exact rates."""
    report = check_knapsack_feasible(plan, inst)
    if not report.ok():
        raise InfeasibleError(
            f"plan violates the feasibility constraints by {report.max_violation}"
            + (f"; monotonicity broken at {report.monotone_violations}" if report.monotone_violations else "")
        )
    rates: dict[str, list[float]] = {}
    scheds: dict[str, list[dict]] = {}
    traces: dict[str, list[FiniteLaw]] = {}
    for tag in (FORWARD, BACKWARD):
        dist = initial_fill(tag)
        trace = [dist]
        out = [0.0] * inst.n
        sizes = [dict() for _ in range(inst.n)]
        planned = plan.rates(tag)
        for pos, i in enumerate(Permutation(tag, inst.n).order()):
            dist, schedule = propagate_fill(
                dist, inst.laws[i], planned[i], ctx=f"order {tag}, element {i}, position {pos + 1}"
            )
            trace.append(dist)
            sizes[i] = schedule
            law = inst.laws[i]
            out[i] = math.fsum(ps * sizes[i][s].rate for s, ps in law.atoms) / law.active_mass
        rates[tag] = out
        scheds[tag] = sizes
        traces[tag] = trace
    return KnapsackExactResult(
        tuple(rates[FORWARD]),
        tuple(rates[BACKWARD]),
        tuple(scheds[FORWARD]),
        tuple(scheds[BACKWARD]),
        tuple(traces[FORWARD]),
        tuple(traces[BACKWARD]),
    )


@dataclass(frozen=True)
class InvariantReport:
    """Result of checking the induction inequalities on one fill law.

    Each violation is (b, lhs, rhs) for the survival inequality
    Pr[0 < T <= b]/c1 <= exp(-Pr[b < T <= 1-b]/c1); zero_slack is
    Pr[T = 0] - c_current when a current acceptance value was supplied.
    """

    violations: tuple[tuple[float, float, float], ...]
    zero_slack: float | None
    zero_first_flagged: bool

    def ok(self, tol: float = FEAS_TOL) -> bool:
        if self.zero_slack is not None and self.zero_slack < -tol:
            return False
        return not self.violations


def monitor_invariants(
    dist: FiniteLaw,
    c_first: float,
    b_grid,
    c_current: float | None = None,
) -> InvariantReport:
    """Check the induction inequalities at every b in the grid."""
    b = np.asarray(b_grid, dtype=float)
    outside = ~((b > 0.0) & (b <= 0.5))
    if outside.any():
        raise ValueError(f"b={b[outside][0]} outside (0, 1/2]")
    low = dist.p_interval(0.0, b)
    mid = dist.p_interval(b, 1.0 - b)
    if c_first > 0.0:
        lhs = low / c_first
        rhs = np.exp(-mid / c_first)
    else:
        # nothing is ever accepted when the first element gets 0
        lhs = low
        rhs = np.zeros_like(low)
    bad = np.flatnonzero(lhs > rhs + FEAS_TOL)
    violations = tuple(zip(b[bad].tolist(), lhs[bad].tolist(), rhs[bad].tolist()))
    zero_slack = None if c_current is None else dist.p_zero - c_current
    return InvariantReport(violations, zero_slack, c_first <= 0.0)


@dataclass(frozen=True)
class MonitorTraceReport:
    """Aggregated monitor over every propagation step of both orders."""

    step_reports: tuple[tuple[str, int, InvariantReport], ...]
    max_expectation_error: float

    def ok(self, tol: float = FEAS_TOL) -> bool:
        return self.max_expectation_error <= RATE_TOL and all(
            rep.ok(tol) for _, _, rep in self.step_reports
        )

    @property
    def total_violations(self) -> int:
        return sum(len(rep.violations) for _, _, rep in self.step_reports)


def monitor_trace(
    inst: KnapsackInstance,
    plan: KnapsackPlan,
    result: KnapsackExactResult,
    b_grid,
) -> MonitorTraceReport:
    """Run monitor_invariants at every step; also check E[T] bookkeeping.

    The expectation identity E[T before element at position k] =
    sum of c_sigma(j) * mu_j over the k-1 earlier elements must hold to
    1e-10 at every step.
    """
    reports = []
    worst_exp = 0.0
    for tag in (FORWARD, BACKWARD):
        order = Permutation(tag, inst.n).order()
        planned = plan.rates(tag)
        c_first = planned[order[0]]
        trace = result.traces(tag)
        expected = 0.0
        for step, dist in enumerate(trace):
            current = planned[order[step]] if step < inst.n else None
            reports.append((tag, step, monitor_invariants(dist, c_first, b_grid, current)))
            worst_exp = max(worst_exp, abs(dist.expectation - expected))
            if step < inst.n:
                expected += planned[order[step]] * inst.mu[order[step]]
    return MonitorTraceReport(tuple(reports), worst_exp)


def _atom_arrays(law: SizeLaw):
    """Sizes, cumulative probabilities (active atoms first, inactive last)."""
    sizes = np.array([s for s, _ in law.atoms])
    probs = np.array([p for _, p in law.atoms])
    return sizes, np.cumsum(probs)


def build_branch_tables(
    inst: KnapsackInstance,
    plan: KnapsackPlan,
    seed: int,
    pool_size: int = DEFAULT_POOL_SIZE,
):
    """Sampled-history branch parameters, one pool of replica fills per order.

    Replicas advance element by element using parameters estimated from their
    own current fills, mirroring how the executor would estimate its history
    online.  Returns {tag: [per-element (sizes, b1 array, b2 array)]}.
    """
    if pool_size < 1:
        raise InvalidInstanceError("pool_size must be positive")
    tables: dict[str, list] = {}
    for tag_idx, tag in enumerate((FORWARD, BACKWARD)):
        rng = stream(seed, NS_POOL, tag_idx)
        fills = np.zeros(pool_size)
        planned = plan.rates(tag)
        per_element: list = [None] * inst.n
        for i in Permutation(tag, inst.n).order():
            law = inst.laws[i]
            c = planned[i]
            sizes, cum = _atom_arrays(law)
            p0 = float(np.mean(fills == 0.0))
            p1 = np.array([float(np.mean((fills > 0.0) & (fills <= 1.0 - s + ATOM_TOL))) for s in sizes])
            b1 = np.where(p1 > 0.0, np.minimum(1.0, c / np.where(p1 > 0.0, p1, 1.0)), 0.0)
            b2 = np.where(
                (c > p1) & (p0 > 0.0),
                np.minimum(1.0, (c - p1) / (p0 if p0 > 0.0 else 1.0)),
                0.0,
            )
            per_element[i] = (sizes, b1, b2)

            draw = rng.random(pool_size)
            idx = np.searchsorted(cum, draw, side="right")
            active = idx < len(sizes)
            s_row = np.where(active, sizes[np.minimum(idx, len(sizes) - 1)], 0.0)
            u = rng.random(pool_size)
            zero = fills == 0.0
            fits = fills <= 1.0 - s_row + ATOM_TOL
            take1 = active & ~zero & fits & (u < b1[np.minimum(idx, len(sizes) - 1)])
            take2 = active & zero & (u < b2[np.minimum(idx, len(sizes) - 1)])
            fills = fills + np.where(take1 | take2, s_row, 0.0)
        tables[tag] = per_element
    return tables


def run_knapsack_mc(
    inst: KnapsackInstance,
    plan: KnapsackPlan,
    trials: int,
    seed: int,
    workers: int = 1,
    confidence: float = 0.999,
    pool_size: int = DEFAULT_POOL_SIZE,
):
    """Monte Carlo executor with sampled-history branch parameters.

    Returns RateEstimates keyed by ("f", i) / ("b", i): conditional acceptance
    given active, per order.  Pool noise enters the branch parameters at
    O(1/sqrt(pool_size)); raise pool_size when comparing against exact rates
    at tight tolerances.
    """
    report = check_knapsack_feasible(plan, inst)
    if not report.ok():
        raise InfeasibleError(f"plan violates the feasibility constraints by {report.max_violation}")
    tables = build_branch_tables(inst, plan, seed, pool_size)
    n = inst.n
    law_arrays = {i: _atom_arrays(inst.laws[i]) for i in range(n)}
    orders = {tag: Permutation(tag, n).order() for tag in (FORWARD, BACKWARD)}

    def experiment(rng, m: int):
        forward_rows = rng.random(m) < 0.5
        out = {}
        for tag in (FORWARD, BACKWARD):
            rows = int(forward_rows.sum()) if tag == FORWARD else int(m - forward_rows.sum())
            fills = np.zeros(rows)
            succ = np.zeros(n)
            cnt = np.zeros(n, dtype=np.int64)
            for i in orders[tag]:
                sizes, cum = law_arrays[i]
                _, b1, b2 = tables[tag][i]
                draw = rng.random(rows)
                idx = np.searchsorted(cum, draw, side="right")
                active = idx < len(sizes)
                safe_idx = np.minimum(idx, len(sizes) - 1)
                s_row = np.where(active, sizes[safe_idx], 0.0)
                u = rng.random(rows)
                zero = fills == 0.0
                fits = fills <= 1.0 - s_row + ATOM_TOL
                take = active & (
                    (~zero & fits & (u < b1[safe_idx])) | (zero & (u < b2[safe_idx]))
                )
                fills = fills + np.where(take, s_row, 0.0)
                succ[i] = float(take.sum())
                cnt[i] = int(active.sum())
            if fills.size and fills.max() > 1.0 + FEAS_TOL:
                raise InvariantViolationError("accepted sizes exceeded the knapsack")
            for i in range(n):
                out[(tag[0], i)] = (succ[i], int(cnt[i]))
        return out

    return run_trials(experiment, trials, seed, workers=workers, confidence=confidence)
