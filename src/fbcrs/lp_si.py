"""Instance-optimal selection LP and explicit dual certificates.

The LP maximizes the worst pair-mean guarantee beta over conditional
acceptance probabilities (c_f, c_b) subject to the order constraints
c_sigma(i) <= 1 - sum of x_j c_sigma(j) over elements j arriving earlier.
Uniform odd-length instances also get the paper's closed-form dual
certificate, whose objective upper-bounds the optimum by weak duality;
check_certificate verifies any dual on any instance.

Most instances are solved at a split basis in O(n).  At split k every
element before k is tight in the backward order, every element after k in
the forward order, k in both, and every pair row is tight; this is the
shape of the paper's uniform certificate (zero before the middle element,
a spike at it, a curve after it).  With q = 1 - x, tight runs make the
rates prefix products of q, so each split is a 3 x 3 system solved for all
k at once from prefix sums and products.  Its complementary dual has the
same closed form, objective beta_k, and is feasible exactly when its two
spikes at k are nonnegative.  The smallest beta_k over dual-feasible splits
is an upper bound; the plan at that split is returned only when its primal
is feasible, its dual passes check_certificate, and the gap is at most
LP_TOL.

Otherwise a simplex method on a condensed tableau solves the LP, with
Dantzig's rule and Bland's rule only while the objective stalls.  The pair
rows beta <= (c_f(i) + c_b(i))/2 are substituted out.  Some optimum has
every pair row tight: lowering a rate only loosens the order constraints,
so any optimum can lower c_f(i) or c_b(i) until c_f(i) + c_b(i) = 2 beta.
The solver therefore keeps c_f and beta as variables, writes
c_b = 2 beta - c_f, and adds the bound rows c_f(i) - 2 beta <= 0 that keep
c_b >= 0.  Those rows have a zero right-hand side but a negative beta
coefficient, so from the all-slack basis the first pivot, beta entering,
already raises the objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidInstanceError, SolverError
from .instances import SingleUnitInstance, before, order_row, read_only_array
from .tolerances import CURVE_TOL, LP_TOL

# Consecutive degenerate pivots tolerated under Dantzig's rule before
# switching to Bland's rule, which then holds until the next nondegenerate
# pivot.
_STALL_LIMIT = 12


def alpha_0(rho: float) -> float:
    """Tight selection guarantee e^{rho/2}/(1 + e^{rho/2} rho).

    Evaluated as 1/(e^{-rho/2} + rho), which never overflows and keeps the
    identity 1 - alpha*rho = alpha*e^{-rho/2} to machine precision.
    """
    if not rho >= 0:  # NaN fails it
        raise ValueError(f"rho={rho} must be nonnegative")
    return 1.0 / (math.exp(-rho / 2.0) + rho)


@dataclass(frozen=True)
class SelectionPlan:
    """Conditional acceptance probabilities for both arrival orders.

    The one plan type of both schemes: the single-unit LP and closed form,
    and the knapsack closed form, all return it.  Besides the tuples it
    holds `array`, the read-only (2, n) array of the rows c_f and c_b, which
    the array code reads without converting the tuples again.
    """

    c_f: tuple[float, ...]
    c_b: tuple[float, ...]
    array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.c_f) != len(self.c_b) or not len(self.c_f):
            raise InvalidInstanceError("plan orders must have equal positive length")
        array = read_only_array(np.array([self.c_f, self.c_b], dtype=float))
        if not (array.min() >= 0.0 and array.max() <= 1.0):  # NaN fails both
            outside = array[~((array >= 0.0) & (array <= 1.0))]
            raise InvalidInstanceError(f"acceptance probability {float(outside[0])} outside [0, 1]")
        object.__setattr__(self, "c_f", tuple(array[0].tolist()))
        object.__setattr__(self, "c_b", tuple(array[1].tolist()))
        object.__setattr__(self, "array", array)

    @property
    def n(self) -> int:
        return len(self.c_f)

    def rates(self, tag: str) -> tuple[float, ...]:
        return (self.c_f, self.c_b)[order_row(tag)]

    @cached_property
    def pair_means(self) -> tuple[float, ...]:
        return tuple(((self.array[0] + self.array[1]) / 2.0).tolist())

    @cached_property
    def objective(self) -> float:
        """The guarantee this plan certifies: min_i (c_f(i) + c_b(i))/2."""
        return min(self.pair_means)

    def max_violation(self, inst: SingleUnitInstance) -> float:
        """Largest violation of the order constraints on inst (<= 0 if feasible)."""
        return _max_violation(self.array, inst.x_array)

    def is_feasible(self, inst: SingleUnitInstance) -> bool:
        return self.max_violation(inst) <= LP_TOL


def _max_violation(rates: np.ndarray, x: np.ndarray) -> float:
    """Largest excess of a rate over the mass its order leaves, both orders
    at once (0 when there is none); rates has the rows c_f and c_b."""
    return max(0.0, float((rates - (1.0 - before(x * rates))).max()))


def _simplex(obj, A, b, *, max_iter: int | None = None):
    """Maximize obj @ v subject to A @ v <= b, v >= 0, with b >= 0.

    Condensed (Tucker) tableau: one column per nonbasic variable and one row
    per basic variable, so the slack identity block is never stored.  A pivot
    exchanges basis[row] with nonbasic[col]; labels 0..k-1 name the columns
    of A and k..k+m-1 the slacks.  The entering column is Dantzig's (most
    negative reduced cost) except while the objective stalls: after
    _STALL_LIMIT consecutive degenerate pivots it is Bland's (smallest label
    with a negative reduced cost), until the next nondegenerate pivot.  Ratio
    ties go to the smallest basic label.

    This terminates from the all-slack basis: every nondegenerate pivot
    strictly raises the objective, so no basis repeats across them, and
    within one run of degenerate pivots Bland's rule cannot cycle.  Returns
    (v, value, pivots); raises SolverError when the optimum needs more than
    max_iter pivots.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    obj = np.asarray(obj, dtype=float)
    m, k = A.shape
    if max_iter is None:
        max_iter = 200 * (m + k) + 1000

    T = np.zeros((m + 1, k + 1))
    T[:m, :k] = A
    T[:m, -1] = b
    T[m, :k] = -obj
    basis = np.arange(k, k + m)
    nonbasic = np.arange(k)

    stall = 0
    for pivots in range(max_iter + 1):
        z = T[m, :-1]
        if stall >= _STALL_LIMIT:
            negative = np.nonzero(z < -LP_TOL)[0]
            if negative.size == 0:
                break
            col = int(negative[np.argmin(nonbasic[negative])])
        else:
            col = int(np.argmin(z))
            if z[col] >= -LP_TOL:
                break
        if pivots == max_iter:
            raise SolverError(f"simplex did not converge within {max_iter} pivots")
        column = T[:m, col]
        positive = column > LP_TOL
        if not positive.any():
            raise SolverError("LP unbounded above; formulation error")
        ratios = np.full(m, np.inf)
        np.divide(T[:m, -1], column, out=ratios, where=positive)
        best = float(ratios.min())
        ties = np.nonzero(ratios <= best + LP_TOL * max(1.0, best))[0]
        row = int(ties[np.argmin(basis[ties])])  # smallest label: anti-cycling
        stall = stall + 1 if best <= LP_TOL else 0

        # Exchange: the pivot row is divided by the pivot p, the other rows
        # take the rank-1 update, and the leaving variable's column becomes
        # -column/p with 1/p at the pivot.
        column = T[:, col].copy()
        pivot = float(column[row])
        T[row] /= pivot
        column[row] = 0.0
        T -= np.outer(column, T[row])
        np.multiply(column, -1.0 / pivot, out=T[:, col])
        T[row, col] = 1.0 / pivot
        basis[row], nonbasic[col] = nonbasic[col], basis[row]

    v = np.zeros(k + m)
    v[basis] = T[:m, -1]
    return v[:k], float(T[m, -1]), pivots


def _within_unit(arr) -> bool:
    return arr.min(initial=0.0) >= -LP_TOL and arr.max(initial=0.0) <= 1.0 + LP_TOL


def _clip_unit(arr):
    if not _within_unit(arr):
        raise SolverError(f"solver produced probability outside [0,1] by more than {LP_TOL}")
    return np.clip(arr, 0.0, 1.0)


def _solve_general(inst: SingleUnitInstance) -> SelectionPlan:
    """Variables (c_f, beta) with c_b = 2 beta - c_f; 3n constraints.

    The backward rows B c_b <= 1 become -B c_f + 2 beta B 1 <= 1, and the
    bound rows c_f(i) - 2 beta <= 0 keep c_b >= 0.
    """
    n = inst.n
    x = inst.x_array

    backward = np.triu(np.broadcast_to(x, (n, n)), 1) + np.eye(n)
    A = np.zeros((3 * n, n + 1))
    A[:n, :n] = np.tril(np.broadcast_to(x, (n, n)), -1) + np.eye(n)
    A[n : 2 * n, :n] = -backward
    A[n : 2 * n, n] = 2.0 * backward.sum(axis=1)
    A[2 * n :, :n] = np.eye(n)
    A[2 * n :, n] = -2.0
    b = np.concatenate([np.ones(2 * n), np.zeros(n)])
    obj = np.zeros(n + 1)
    obj[n] = 1.0

    v, _, _ = _simplex(obj, A, b)
    return SelectionPlan(_clip_unit(v[:n]), _clip_unit(2.0 * v[n] - v[:n]))


def gamma(z: float, rho: float) -> float:
    """Dual weight rho*e^{z-rho/2}/(2(1+e^{rho/2}rho)) on [rho/2, rho].

    Evaluated in the equivalent overflow-safe form
    rho*e^{z-rho}/(2(e^{-rho/2}+rho)).
    """
    if rho < 0:
        raise ValueError(f"rho={rho} must be nonnegative")
    if not rho / 2.0 - CURVE_TOL <= z <= rho + CURVE_TOL:
        raise ValueError(f"z={z} outside [{rho / 2.0}, {rho}]")
    return float(_gamma_curve(min(max(z, rho / 2.0), rho), rho))


def _gamma_curve(z, rho: float):
    """gamma at z in [rho/2, rho], unchecked; z may be an array."""
    return rho * np.exp(z - rho) / (2.0 * (math.exp(-rho / 2.0) + rho))


@dataclass(frozen=True)
class DualCertificate:
    """Explicit dual solution (xi, y_f, y_b) of an N-element selection LP,
    scaled by N: xi sums to N and the objective is (sum y_f + sum y_b)/N.
    `array` is the read-only (3, N) array of the rows xi, y_f and y_b."""

    xi: tuple[float, ...]
    y_f: tuple[float, ...]
    y_b: tuple[float, ...]
    array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not len(self.xi) == len(self.y_f) == len(self.y_b) or not len(self.xi):
            raise InvalidInstanceError("certificate vectors must share a positive length")
        array = read_only_array(np.array([self.xi, self.y_f, self.y_b], dtype=float))
        for name, row in zip(("xi", "y_f", "y_b"), array):
            object.__setattr__(self, name, tuple(row.tolist()))
        object.__setattr__(self, "array", array)

    @property
    def N(self) -> int:
        return len(self.xi)

    @cached_property
    def objective(self) -> float:
        return (math.fsum(self.y_f) + math.fsum(self.y_b)) / self.N


def dual_certificate_uniform(N: int, rho: float) -> DualCertificate:
    """The explicit certificate for the uniform instance x_i = rho/N, N odd.

    All mass of xi sits at the flat level rho*alpha_0 except for a spike at
    the middle element; y is zero before the middle, a spike at it, and the
    gamma curve after.  Its objective is at most alpha_0 + (rho + 2)/N.
    """
    if N < 1 or N % 2 == 0:
        raise InvalidInstanceError(f"certificate is defined for odd N only, got {N}")
    if not 0 <= rho / N <= 1:  # each x_i = rho/N is a probability; NaN fails it
        raise InvalidInstanceError(f"rho={rho} must lie in [0, N={N}]")
    mid = (N - 1) // 2
    a0 = alpha_0(rho)

    xi = np.full(N, rho * a0)
    xi[mid] = (1.0 - rho * a0 * (N - 1) / N) * N

    y_f = np.zeros(N)
    y_f[mid] = xi[mid] / 2.0 + 0.5
    # gamma(rho (i + 1)/N) for every i after the middle.
    y_f[mid + 1 :] = _gamma_curve(rho * np.arange(mid + 2, N + 1) / N, rho)

    return DualCertificate(xi, y_f, y_f[::-1])


@dataclass(frozen=True)
class DualFeasibilityReport:
    """Worst constraint violation of a certificate; all within LP_TOL means
    the certificate objective upper-bounds the LP optimum."""

    max_violation: float
    xi_sum_slack: float  # sum(xi)/N - 1; ok() needs it >= -LP_TOL
    min_entry: float

    def ok(self) -> bool:
        return (
            self.max_violation <= LP_TOL and self.xi_sum_slack >= -LP_TOL and self.min_entry >= -LP_TOL
        )


def check_certificate(cert: DualCertificate, x) -> DualFeasibilityReport:
    """Evaluate every dual constraint of the selection LP on instance x.

    The certificate is scaled by N = len(x): the pair-row duals are xi/N and
    the order-row duals y/N.  The c_f(i) column needs
    y_f(i) + x_i * (sum of y_f after i in the forward order) >= xi_i/2, the
    c_b(i) column the same in the backward order, and the beta column
    sum(xi)/N >= 1.
    """
    N = cert.N
    x = np.asarray(x, dtype=float)
    if x.shape != (N,):
        raise InvalidInstanceError(f"certificate has {N} entries, instance {x.size}")
    xi, y_f, y_b = cert.array

    # What follows i in one order arrives before it in the other.
    after_b, after_f = before(np.array((y_b, y_f)))
    viol_f = xi / 2.0 - y_f - x * after_f
    viol_b = xi / 2.0 - y_b - x * after_b
    max_violation = float(max(0.0, viol_f.max(), viol_b.max()))

    xi_sum_slack = math.fsum(cert.xi) / N - 1.0
    min_entry = float(cert.array.min())
    return DualFeasibilityReport(max_violation, xi_sum_slack, min_entry)


def dual_feasibility(cert: DualCertificate, rho: float) -> DualFeasibilityReport:
    """Evaluate every dual constraint of the uniform instance x_i = rho/N."""
    return check_certificate(cert, np.full(cert.N, rho / cert.N))


# --- the split basis ------------------------------------------------------------


def _certified_split(inst: SingleUnitInstance) -> tuple[SelectionPlan, DualCertificate] | None:
    """The optimal plan at a split basis and the dual that certifies it.

    At split k every element before k is tight in the backward order, every
    element after k in the forward order, and k in both; every pair row is
    tight.  Tight runs make the rates prefix products of q = 1 - x, so each
    split reduces to a 3 x 3 system in (c_f(k), c_b(k), beta), solved for
    every k at once from prefix sums and products.  Its complementary dual
    puts xi on the x mass, y on the tight runs and a spike on k; its
    objective equals beta_k, and it is feasible exactly when both spikes are
    nonnegative.  The smallest beta_k among dual-feasible splits bounds the
    optimum from above, so that split is optimal if its primal is feasible.

    Returns None unless the plan is feasible, the dual passes
    check_certificate, and the duality gap is at most LP_TOL.  The primal
    is checked on arrays; the plan and its certificate are built only for a
    split that passes.
    """
    x = inst.x_array
    n = x.size
    q = 1.0 - x
    # Mass X and products P of q strictly before (lt) and after (gt) each k:
    # what arrives before k in the forward and in the backward order.
    X_lt, X_gt = before(np.array((x, x)))
    P_lt, P_gt = before(np.array((q, q)), np.multiply)
    a = q * (1.0 - P_lt)
    c = q * (1.0 - P_gt)
    beta = (2.0 + a + c) / (2.0 * (1.0 + X_lt + X_gt + c * X_lt + a * X_gt - a * c))
    r = (1.0 + a) / (1.0 + c)
    Y_f = 0.5 / (1.0 + X_lt - c * r + X_gt * r)
    Y_b = r * Y_f
    spike_f = Y_f - Y_b * (1.0 - P_gt)
    spike_b = Y_b - Y_f * (1.0 - P_lt)

    feasible = np.flatnonzero((spike_f >= 0.0) & (spike_b >= 0.0))
    if feasible.size == 0:
        return None
    feasible = feasible[np.argsort(beta[feasible], kind="stable")]
    for k in feasible[beta[feasible] <= beta[feasible[0]] + LP_TOL]:
        b2 = 2.0 * beta[k]
        u = (1.0 + b2 * (a[k] - X_lt[k])) / (1.0 + a[k])
        v = b2 - u
        rates = np.empty((2, n))
        c_f, c_b = rates
        c_f[k], c_b[k] = u, v
        c_f[k + 1 :] = u * np.cumprod(q[k:-1])
        c_b[:k] = v * np.cumprod(q[k:0:-1])[::-1]
        c_f[:k] = b2 - c_b[:k]
        c_b[k + 1 :] = b2 - c_f[k + 1 :]
        if not _within_unit(rates):
            continue
        np.clip(rates, 0.0, 1.0, out=rates)
        if _max_violation(rates, x) > LP_TOL:
            continue

        xi = np.empty(n)
        y_f = np.zeros(n)
        y_b = np.zeros(n)
        xi[:k] = 2.0 * Y_f[k] * x[:k]
        xi[k + 1 :] = 2.0 * Y_b[k] * x[k + 1 :]
        xi[k] = 2.0 * (Y_f[k] - c[k] * Y_b[k])
        y_b[:k] = Y_f[k] * x[:k] * P_lt[:k]
        y_f[k + 1 :] = Y_b[k] * x[k + 1 :] * P_gt[k + 1 :]
        y_f[k], y_b[k] = spike_f[k], spike_b[k]
        cert = DualCertificate(n * xi, n * y_f, n * y_b)
        if not check_certificate(cert, x).ok():
            continue
        plan = SelectionPlan(c_f, c_b)
        if cert.objective - plan.objective <= LP_TOL:
            return plan, cert
    return None


def solve_lp_si(inst: SingleUnitInstance) -> SelectionPlan:
    """Optimal selection plan; .objective equals the LP optimum.

    The certified split basis first; the simplex when no split certifies.
    """
    found = _certified_split(inst)
    return _solve_general(inst) if found is None else found[0]
