"""Independent reference routes used to cross-check library results.

Each helper recomputes a quantity the library produces, by a deliberately
different method: scipy's normal quantile instead of statistics.NormalDist,
HiGHS instead of the library's simplex, explicit enumeration over activation
patterns instead of the linear recursion, exhaustive outcome-path replay
instead of distribution propagation, the fill step as first written (one
accept vector per size atom, on FiniteLaws) instead of the grid step, and knapsack
admission row by row, or vectorised on intp indices with bincount counts,
instead of the int8 kernel, and the single-unit chain and the knapsack
plan, feasibility check and E[T] bookkeeping as first written (one element
at a time: phi windows through the antiderivative, the claimed mass and the
acceptance probability summed up sequentially) instead of the array code,
and the rationing quantile walk, size table and common-level bisection as
first written instead of the one level walk and its Newton steps, on sizes
rounded down in exact rationals onto the grid that trying every L finds
(size_grid) instead of the library's lcm walk.
The enumerations are exponential in n; keep n small there.

Also here are the checked twins of rules the library runs in another
form, which only tests call: `demand_cdf` and `inverse_cdf` (the executors
map a uniform to a demand through `rationing._slices`), `split_element`
(for the LP's monotonicity under splitting), `service_value` (the three
service definitions as stated, with min(y, d) kept, against the library's
per-slice rule base + y / scale), and `fill_masses` (the masses at or below
each fill boundary, summed atom by atom).
"""

import math
from bisect import bisect_left
from fractions import Fraction
from itertools import product

import numpy as np
from scipy import optimize, stats

# The float boundary of the oracles that walk fill and supply values (same
# constant value as the library's ATOM_TOL, restated here on purpose).
BOUNDARY_TOL = 1e-12

# The largest grid of a rationing run's sizes (the library's GRID_CAP).
GRID_LIMIT = 4096


def wilson_reference(successes: float, count: int, confidence: float = 0.999):
    """Wilson score interval computed with scipy's normal quantile."""
    if count == 0:
        return 0.0, 1.0
    z = float(stats.norm.ppf(0.5 + confidence / 2.0))
    p = successes / count
    denom = 1.0 + z * z / count
    center = (p + z * z / (2.0 * count)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / count + z * z / (4.0 * count * count))
    return center - half, center + half


def demand_cdf(law, d: float) -> float:
    """Pr[D <= d] of a DemandLaw."""
    total = 0.0
    for atom_d, p in law.atoms:
        if atom_d <= d:
            total += p
    return total


def inverse_cdf(law, q: float) -> float:
    """Smallest demand atom whose cumulative probability reaches q."""
    from fbcrs.errors import InvalidInstanceError

    if not 0.0 <= q <= 1.0:
        raise InvalidInstanceError(f"quantile {q} outside [0, 1]")
    idx = bisect_left(law.cum, q)
    if idx >= len(law.atoms):  # float shortfall in the last cumulative
        idx = len(law.atoms) - 1
    return law.atoms[idx][0]


def split_element(inst, k: int):
    """Replace element k (1-based) of a SingleUnitInstance by two elements
    of half its mass.

    Halving is exact in binary floating point except below the smallest
    normal double, so the second half is x - x/2: the total mass is preserved
    exactly either way.
    """
    from fbcrs.errors import InvalidInstanceError
    from fbcrs.instances import SingleUnitInstance

    if not 1 <= k <= inst.n:
        raise InvalidInstanceError(f"split index {k} outside 1..{inst.n}")
    i = k - 1
    half = inst.x[i] / 2.0
    return SingleUnitInstance(inst.x[:i] + (half, inst.x[i] - half) + inst.x[i + 1 :])


def service_value(stype, y: float, d: float, mean: float | None = None) -> float:
    """Service delivered by allocation y >= 0 against demand d >= 0, for any y:
    Type-I 1 when y covers d and 0 otherwise, Type-II min(y, d) / mean
    (above 1 when d exceeds the mean), Type-III min(y, d) / d with zero
    demand fully served."""
    from fbcrs.errors import InvalidInstanceError
    from fbcrs.instances import ServiceType

    tag = ServiceType.parse(stype).value
    if y < 0.0 or d < 0.0:
        raise InvalidInstanceError("allocation and demand must be nonnegative")
    if tag == "TypeI":
        return 1.0 if y >= d else 0.0
    if tag == "TypeII":
        if mean is None or mean <= 0.0:
            raise InvalidInstanceError("Type-II service needs the positive demand mean")
        return min(y, d) / mean
    return 1.0 if d == 0.0 else min(y, d) / d


def fill_masses(dist, rooms):
    """(p0, p1s) of a FiniteLaw fill: Pr[T = 0] and, per room r, Pr[0 < T <= r],
    boundaries resolved at BOUNDARY_TOL.

    Each bound's mass is summed up the sorted atoms one at a time, in the
    order np.cumsum adds them, so the values match the library's bit for bit.
    """

    def at_most(bound):
        total = 0.0
        for v, p in dist.atoms:
            if v > bound + BOUNDARY_TOL:
                break
            total += p
        return total

    p0 = at_most(0.0)
    return p0, [at_most(r) - p0 for r in rooms]


def highs_lp_optimum(x) -> float:
    """Optimum of the full selection LP over (c_f, c_b, beta), solved by HiGHS.

    Built from the constraints as stated, one row at a time: in each order an
    element's acceptance probability is at most one minus the mass x_j c(j)
    its predecessors claimed, and beta is at most every pair mean.  Always
    the general LP, also for palindromic x.
    """
    n = len(x)
    rows, rhs = [], []
    for order, offset in ((range(n), 0), (range(n - 1, -1, -1), n)):
        earlier: list[int] = []
        for i in order:
            row = np.zeros(2 * n + 1)
            row[offset + i] = 1.0
            for j in earlier:
                row[offset + j] = x[j]
            rows.append(row)
            rhs.append(1.0)
            earlier.append(i)
    for i in range(n):
        row = np.zeros(2 * n + 1)
        row[i] = row[n + i] = -0.5
        row[2 * n] = 1.0
        rows.append(row)
        rhs.append(0.0)
    cost = np.zeros(2 * n + 1)
    cost[2 * n] = -1.0
    result = optimize.linprog(cost, A_ub=np.array(rows), b_ub=rhs, bounds=(0.0, None), method="highs")
    if result.status != 0:
        raise RuntimeError(f"HiGHS failed: {result.message}")
    return -float(result.fun)


def enumerated_selection_rates(x, params, order):
    """Pr[accept | active] per element by summing over activation patterns.

    The unit survives to an element iff every earlier active element declined
    its bit, so the survival probability is the sum over all activation
    patterns of the earlier elements of prob(pattern) * prod(1 - param) over
    the active ones.  No recursion, no claimed-mass bookkeeping.
    """
    rates = [0.0] * len(x)
    for pos, i in enumerate(order):
        earlier = order[:pos]
        survive = 0.0
        for bits in product((0, 1), repeat=len(earlier)):
            weight = 1.0
            for j, bit in zip(earlier, bits):
                weight *= x[j] * (1.0 - params[j]) if bit else 1.0 - x[j]
            survive += weight
        rates[i] = params[i] * survive
    return tuple(rates)


def phi_antiderivative(z, rho, exp=math.exp):
    """Closed-form integral of phi from 0 to z (no quadrature), in floats or,
    with exp=Decimal.exp, in Decimals."""
    half = rho / 2
    denom = exp(-half) + rho
    if z <= half:
        return (2 * z - exp(z - half) + exp(-half)) / denom
    return (rho + exp(-half) - exp(half - z)) / denom


def _phi_point(z, rho, exp):
    half = rho / 2
    denom = exp(-half) + rho
    if z <= half:
        return (2 - exp(z - half)) / denom
    return exp(half - z) / denom


def arrival_order(tag: str, n: int):
    """Element indices in arrival order, written out independently of the library."""
    return range(n) if tag == "forward" else range(n - 1, -1, -1)


def closed_form_plan_loop(x, number=float):
    """(c_f, c_b) of the closed-form plan, one element at a time: phi
    averaged over each mass window as a difference of antiderivatives, phi
    at the window start for zero-mass elements.  In floats (number=float)
    this loses precision on windows much narrower than their start (the
    difference cancels) and cannot average a positive-mass window that
    starts at rho; with number=Decimal under a high-precision context it is
    a reference for the rates themselves."""
    exp = math.exp if number is float else number.exp
    rho = number(math.fsum(x))
    x = [number(v) for v in x]
    rates = []
    for tag in ("forward", "backward"):
        out = [0.0] * len(x)
        prefix = number(0)
        for i in arrival_order(tag, len(x)):
            if x[i] == 0:
                out[i] = float(_phi_point(prefix, rho, exp))
            else:
                upper = min(prefix + x[i], rho)
                area = phi_antiderivative(upper, rho, exp) - phi_antiderivative(prefix, rho, exp)
                out[i] = float(area / (upper - prefix))
                prefix = upper
        rates.append(tuple(out))
    return tuple(rates)


def bernoulli_params_loop(x, rates, tag, lp_tol, mass_tol):
    """Acceptance-bit parameters, one element at a time, 0 where the
    remaining mass is at most mass_tol (0/0); None when some rate exceeds
    the remaining mass by more than lp_tol."""
    params = [0.0] * len(x)
    consumed = 0.0
    for i in arrival_order(tag, len(x)):
        remaining = 1.0 - consumed
        if rates[i] > remaining + lp_tol:
            return None
        if remaining > mass_tol:
            params[i] = min(max(rates[i] / remaining, 0.0), 1.0)
        consumed += x[i] * rates[i]
    return tuple(params)


def selection_rates_loop(x, params, tag):
    """Conditional acceptance rates by the sequential recursion: each rate is
    param * (1 - prior), and prior grows by rate * x."""
    rates = [0.0] * len(x)
    prior = 0.0
    for i in arrival_order(tag, len(x)):
        rates[i] = params[i] * (1.0 - prior)
        prior += rates[i] * x[i]
    return tuple(rates)


def knapsack_plan_loop(mu):
    """(c_f, c_b) of the closed-form knapsack plan, one element at a time:
    the line 4/9 - 2z/9 at the middle of each mean-size window, z capped
    at 1."""
    rates = []
    for tag in ("forward", "backward"):
        out = [0.0] * len(mu)
        prefix = 0.0
        for i in arrival_order(tag, len(mu)):
            out[i] = 4.0 / 9.0 - 2.0 * min(prefix + mu[i] / 2.0, 1.0) / 9.0
            prefix += mu[i]
        rates.append(tuple(out))
    return tuple(rates)


def knapsack_feasibility_loop(rates_f, rates_b, mu, monotone_tol, exp=math.exp):
    """(max_violation, monotone_violations, zero_first_flagged) of a
    knapsack plan, one element at a time with the consumed mass summed up
    sequentially.  exp evaluates the survival term c1*exp(-2u/c1); math.exp
    and np.exp can differ in the last bit."""
    worst = 0.0
    monotone = []
    zero_first = False
    for tag, rates in (("forward", rates_f), ("backward", rates_b)):
        order = list(arrival_order(tag, len(mu)))
        c_first = rates[order[0]]
        zero_first = zero_first or c_first == 0.0
        prev = math.inf
        consumed = 0.0
        for i in order:
            c = rates[i]
            if c > prev + monotone_tol:
                monotone.append((tag, i))
            prev = c
            worst = max(worst, c - (1.0 - c_first - consumed))
            survival = c_first * exp(-2.0 * consumed / c_first) if c_first > 0.0 else 0.0
            worst = max(worst, c - (1.0 - 2.0 * consumed - survival))
            consumed += c * mu[i]
    return worst, tuple(monotone), zero_first


def expectation_error_loop(rates_f, rates_b, mu, traces_f, traces_b):
    """Largest |E[T] - claimed mean size| over the fill laws before each
    arrival and at the end, the claimed mass summed up sequentially."""
    worst = 0.0
    for tag, rates, trace in (("forward", rates_f, traces_f), ("backward", rates_b, traces_b)):
        expected = 0.0
        order = list(arrival_order(tag, len(mu)))
        for step, dist in enumerate(trace):
            worst = max(worst, abs(float(dist.values @ dist.probs) - expected))
            if step < len(mu):
                expected += rates[order[step]] * mu[order[step]]
    return worst


def replay_knapsack_paths(inst, branches, order):
    """Replay per-element Branches over every size and bit outcome path.

    Tracks the fill distribution as exact float values without any atom
    merging.  Returns (per-element Pr[accept | active], final states dict).
    Branch choice on float fills: fill <= tol takes the zero branch,
    fill <= 1 - s + tol the interval branch, anything larger rejects.
    """
    states = {0.0: 1.0}
    rates = [0.0] * len(order)
    for i in order:
        law = inst.laws[i]
        b1, b2 = branches[i].b1, branches[i].b2
        nxt: dict[float, float] = {}

        def add(t, p):
            if p > 0.0:
                nxt[t] = nxt.get(t, 0.0) + p

        taken = 0.0
        for t, pt in states.items():
            if law.inactive_mass > 0.0:
                add(t, pt * law.inactive_mass)
            for k, (s, ps) in enumerate(law.atoms):
                if t <= BOUNDARY_TOL:
                    accept = b2[k]
                elif t <= 1.0 - s + BOUNDARY_TOL:
                    accept = b1[k]
                else:
                    accept = 0.0
                mass = pt * ps
                add(min(t + s, 1.0), mass * accept)
                add(t, mass * (1.0 - accept))
                taken += mass * accept
        rates[i] = taken / law.active_mass
        states = nxt
    return tuple(rates), states


def size_grid(inst):
    """(L, rounded) of a rationing instance's single-unit route, by trying
    every L = 1..GRID_LIMIT in turn: the first L on which every Type-II/III
    size min(d, 1) is the double k/L.  With no such L, the sizes are rounded
    down onto 1/GRID_LIMIT unless some agent is Type-I."""
    sizes = [min(d, 1.0) for law, stype in zip(inst.demands, inst.service) if stype != "TypeI" for d, _ in law.atoms]
    for grid in range(1, GRID_LIMIT + 1):
        if all(round(s * grid) / grid == s for s in sizes):
            return grid, False
    return GRID_LIMIT, "TypeI" not in inst.service


def rounded_size(d, grid):
    """min(d, 1), rounded down onto the 1/grid grid unless grid is None, in
    exact rational arithmetic."""
    s = min(d, 1.0)
    return s if grid is None else math.floor(Fraction(s) * grid) / grid


def rounding_grid(inst):
    """The grid size_grid rounds inst's sizes down onto, or None."""
    grid, rounded = size_grid(inst)
    return grid if rounded else None


def single_unit_paths(inst, q, taus):
    """Exact per-order (E[Y_i], E[s_i]) of the single-unit rationing route by
    enumerating every combination of the agents' quantile slices and
    threshold draws.

    Agent i's quantile range [0, 1) is cut at its demand CDF values and at
    q[i]; its size is min(d, 1), rounded down as size_grid says.  With L the
    grid and taus[i] = (tau_f, tau_b), an active agent's threshold is
    floor(tau L)/L with probability 1 - p and the next grid point with
    probability p = tau L - floor(tau L).  A combination has the product of
    its slices' widths and threshold probabilities as its probability.  Each
    order walks its agents with supply R = 1 in plain floats: an agent whose
    slice lies below q[i] gets y = min(size, R, threshold), any other gets 0,
    and R drops by y; service is service_value on the true demand.
    Returns {"forward": (alloc, service), "backward": (alloc, service)}.
    Exponential in n: keep n at 4 or less.
    """
    n = len(inst.demands)
    grid, rounded = size_grid(inst)
    means, per_agent = [], []
    for law, qi in zip(inst.demands, q):
        means.append(math.fsum(d * p for d, p in law.atoms))
        rows, lo = [], 0.0
        for k, (d, p) in enumerate(law.atoms):
            hi = 1.0 if k == len(law.atoms) - 1 else lo + p
            for a, b, active in ((lo, min(hi, qi), True), (max(lo, qi), hi, False)):
                if b > a:
                    rows.append((d, rounded_size(d, grid if rounded else None), b - a, active))
            lo = hi
        per_agent.append(rows)
    out = {}
    for col, tag in enumerate(("forward", "backward")):
        branches = []  # per agent: (d, size, probability, threshold, active)
        for rows, tau in zip(per_agent, (t[col] for t in taus)):
            low = math.floor(tau * grid)
            p = tau * grid - low
            agent = []
            for d, size, width, active in rows:
                if not active:
                    agent.append((d, size, width, 0.0, False))
                    continue
                for chance, steps in ((1.0 - p, low), (p, low + 1)):
                    if chance > 0.0:
                        agent.append((d, size, width * chance, steps / grid, True))
            branches.append(agent)
        alloc, service = [0.0] * n, [0.0] * n
        for combo in product(*branches):
            weight = math.prod(chance for _, _, chance, _, _ in combo)
            rem = 1.0
            for i in arrival_order(tag, n):
                d, size, _, threshold, active = combo[i]
                y = min(size, rem, threshold) if active else 0.0
                rem -= y
                alloc[i] += weight * y
                service[i] += weight * service_value(inst.service[i], y, d, means[i])
        out[tag] = (tuple(alloc), tuple(service))
    return out


def match_fill_atoms(states: dict, atoms, tol: float = 1e-9):
    """Largest mass mismatch between raw path states and merged atoms.

    Assigns every raw state to the nearest atom value within tol (raw states
    the merge folded together land on the same atom) and compares masses.
    """
    remaining = {v: p for v, p in atoms}
    unmatched = 0.0
    grouped: dict[float, float] = {}
    for t, p in states.items():
        candidates = [v for v in remaining if abs(v - t) <= tol]
        if not candidates:
            unmatched += p
            continue
        v = min(candidates, key=lambda w: abs(w - t))
        grouped[v] = grouped.get(v, 0.0) + p
    worst = unmatched
    for v, p in remaining.items():
        worst = max(worst, abs(grouped.get(v, 0.0) - p))
    return worst


def propagate_fill_reference(dist, law, c):
    """The fill step as first written: one accept vector per size atom.

    Returns (FiniteLaw, Branches), the fill law after one element of
    fbcrs.knapsack.run_knapsack_exact and its Branches, and raises
    InfeasibleError on the same inputs.  Each size atom reads its own
    CDF points and adds its stay mass to a running sum; the shifted
    copies are concatenated and merged at the end.
    """
    from fbcrs.errors import InfeasibleError, InvalidInstanceError, InvariantViolationError
    from fbcrs.knapsack import FEAS_TOL, FiniteLaw, branch_probs

    if not 0.0 <= c <= 1.0:
        raise InvalidInstanceError(f"acceptance probability {c} outside [0, 1]")
    values, probs = dist.values, dist.probs
    room = 1.0 - np.array([s for s, _ in law.atoms])
    p0, p1s = fill_masses(dist, room.tolist())
    branches = branch_probs(c, p0, p1s)
    # atoms at or below 0 and at or below each room, resolved at BOUNDARY_TOL
    zero_end, *fit_ends = values.searchsorted(np.append(0.0, room) + BOUNDARY_TOL, side="right").tolist()
    stay = probs * law.inactive_mass
    shifted, moved = [], []
    for (s, ps), p1, fit_end, b1, b2 in zip(law.atoms, p1s, fit_ends, branches.b1, branches.b2):
        if c > p0 + p1 + FEAS_TOL:
            raise InfeasibleError(f"acceptance {c} exceeds reachable probability {p0 + p1} (size {s})")
        accept = np.zeros(values.size)
        accept[:zero_end] = b2
        accept[zero_end:fit_end] = b1
        mass = probs * ps
        stay = stay + mass * (1.0 - accept)
        shifted.append(np.minimum(values[:fit_end] + s, 1.0))
        moved.append(mass[:fit_end] * accept[:fit_end])
    new_values, new_probs = np.concatenate([values] + shifted), np.concatenate([stay] + moved)
    order = np.argsort(new_values, kind="stable")
    new_values, new_probs = new_values[order], new_probs[order]
    keep = new_probs > 0.0
    new_values, new_probs = new_values[keep], new_probs[keep]
    # run heads lie more than BOUNDARY_TOL above their predecessor
    heads = np.flatnonzero(np.diff(new_values, prepend=-math.inf) > BOUNDARY_TOL)
    new = FiniteLaw(new_values[heads], np.add.reduceat(new_probs, heads))
    mass = math.fsum(new.probs.tolist())
    if abs(mass - 1.0) > 1e-12:
        raise InvariantViolationError(f"fill mass drifted to {mass}")
    return new, branches


def admit_reference(upper, steps, grid, b1, b2, u, fill):
    """Admission.admit for the table Admission.build(upper, steps, grid, b1,
    b2), one row at a time in plain Python.

    A row's slice is the first j with u < upper[j] (the last slice runs on to
    1).  Fills and sizes are integer steps of a 1/grid grid: fill 0 takes b2,
    a fill t with t + steps[j] <= grid takes b1, a larger one is turned away;
    the row is admitted when u lies below lo + width * b within its slice.
    Returns (codes 2j + admitted, fills after admission) as lists.
    """
    codes, fills = [], []
    for x, t in zip(np.asarray(u).tolist(), np.asarray(fill).tolist()):
        j = 0
        while j < len(upper) - 1 and x >= upper[j]:
            j += 1
        lo = upper[j - 1] if j else 0.0
        if t == 0:
            b = b2[j]
        elif t + steps[j] <= grid:
            b = b1[j]
        else:
            b = 0.0
        admitted = x < lo + (upper[j] - lo) * b
        codes.append(2 * j + admitted)
        fills.append(t + steps[j] if admitted else t)
    return codes, fills


def admit_wide(rule, u, fill):
    """Admission.admit as first vectorised: intp slice indices from
    np.searchsorted, comparison results added in as bools."""
    k = np.searchsorted(np.asarray(rule.edges, dtype=float), u, side="right")
    branch = 3 * k
    branch += fill > 0
    branch += fill > rule.room.take(k)
    code = k + k
    code += u < rule.thresholds.take(branch)
    fill += rule.gains.take(code)
    return code


def knapsack_mc_reference(inst, exact, trials, seed):
    """run_knapsack_mc's estimates from the Branches of `exact` (a
    KnapsackExactResult), through admit_wide and bincount outcome counts."""
    from fbcrs.instances import BACKWARD, FORWARD
    from fbcrs.knapsack import Admission
    from fbcrs.sim import run_trials, two_orders

    grid = exact.grid
    rules = {
        tag: [Admission.of_law(law, ks, grid, br) for law, ks, br in zip(inst.laws, exact.steps, exact.branches(tag))]
        for tag in (FORWARD, BACKWARD)
    }

    def experiment(rng, m):
        fills = np.zeros(m, dtype=np.int64)
        out = {}
        for tag, rows, i, u in two_orders(rng, m, inst.n):
            code = admit_wide(rules[tag][i], u, fills[rows])
            active = 2 * len(inst.laws[i].atoms)
            counts = np.bincount(code, minlength=active)
            out[(tag[0], i)] = (float(counts[1::2].sum()), int(counts[:active].sum()))
        return out

    return run_trials(experiment, trials, seed)


def quantile_sizes_loop(law, q, grid):
    """rationing._sizes as first written: each atom's quantile length below
    q, walked atom by atom, added up per size rounded_size(d, grid), sizes
    ascending."""
    sizes = {}
    prev = 0.0
    for (d, _), cum in zip(law.atoms, law.cum):
        if prev >= q:
            break
        length = min(cum, q) - prev
        if length > 0.0:
            s = rounded_size(d, grid)
            sizes[s] = sizes.get(s, 0.0) + length
        prev = cum
    return sizes


def solve_q_walk(law, stype, beta, crossing_tol, supply_tol, grid):
    """solve_q_for_beta as first written, for beta in [0, 1]: the level
    walked up the atoms with the crossing test inside the loop, each atom
    serving service_value of its size rounded_size(d, grid)."""
    from fbcrs.errors import InfeasibleError

    if beta == 0.0:
        return 0.0
    acc, prev = 0.0, 0.0
    for (d, _), cum in zip(law.atoms, law.cum):
        if acc >= beta - crossing_tol:
            return prev
        v = service_value(stype, rounded_size(d, grid), d, law.mean)
        seg = cum - prev
        if v > 0.0 and acc + v * seg >= beta - crossing_tol:
            return min(prev + (beta - acc) / v, 1.0)
        acc += v * seg
        prev = cum
    if acc >= beta - supply_tol:
        return min(prev, 1.0)
    raise InfeasibleError(f"service level {beta} is unachievable (agent tops out at {acc:.12g})")


def max_uniform_beta_bisection(inst, crossing_tol, supply_tol):
    """max_uniform_beta as first written: each agent's top level by a walk
    over all its atoms, then bisection on total supply share <= 1 (exactly)
    down to a bracket 1e-9 wide, on sizes rounded as size_grid says.
    Returns the final bracket (lo, hi): lo fits and hi does not, or
    lo == hi when the lowest top level fits."""
    width = 1e-9
    grid = rounding_grid(inst)
    agents = list(zip(inst.demands, inst.service))
    caps = []
    for law, stype in agents:
        acc, prev = 0.0, 0.0
        for (d, _), cum in zip(law.atoms, law.cum):
            acc += service_value(stype, rounded_size(d, grid), d, law.mean) * (cum - prev)
            prev = cum
        caps.append(min(1.0, acc))
    upper = min(caps)
    if upper <= 0.0:
        return 0.0, 0.0

    def fits(b):
        shares = []
        for law, stype in agents:
            q = solve_q_walk(law, stype, b, crossing_tol, supply_tol, grid)
            shares.append(math.fsum(s * length for s, length in quantile_sizes_loop(law, q, grid).items()))
        return math.fsum(shares) <= 1.0

    if fits(upper):
        return upper, upper
    lo, hi = 0.0, upper
    while hi - lo > width:
        mid = (lo + hi) / 2
        if fits(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi
