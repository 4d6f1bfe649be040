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
is an upper bound.

Otherwise a window basis around that best split k solves the LP.  Some
optimum has every pair row tight (lowering a rate only loosens the order
constraints), so c_b = 2 beta - c_f throughout.  In window [l, r] the
elements before l are backward-tight and those after r forward-tight, so
their rates are prefix products of q from two boundary masses, G and F,
and every rate is linear in (c_f on the window, beta, F, G).  A simplex
method on a condensed tableau, under Bland's rule, solves that narrow LP;
its final objective row holds the row duals, which, spread over the tight
runs, are the certificate.  The windows [k - h, k + h] for h = 1, 2, 4,
... are tried until one certifies; the full width is the whole LP.  Either
path returns a plan feasible within LP_TOL with a dual that passes
check_certificate within LP_TOL of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidInstanceError, SolverError
from .instances import SingleUnitInstance, before, order_row, read_only_array
from .tolerances import CURVE_TOL, LP_TOL

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
    of A and k..k+m-1 the slacks.  Bland's rule picks both: the entering
    column is the smallest label with a negative reduced cost, and ratio
    ties leave by the smallest basic label.

    This terminates from the all-slack basis, because Bland's rule never
    cycles.  Returns (v, value, pivots, duals): duals holds each row's dual,
    the final objective-row entry of its slack where that slack is nonbasic
    and 0 where it is basic.  Raises SolverError when the optimum needs more
    than max_iter pivots.
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

    for pivots in range(max_iter + 1):
        negative = np.nonzero(T[m, :-1] < -LP_TOL)[0]
        if negative.size == 0:
            break
        col = int(negative[np.argmin(nonbasic[negative])])
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
        row = int(ties[np.argmin(basis[ties])])

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
    duals = np.zeros(k + m)
    duals[nonbasic] = T[m, :-1]
    return v[:k], float(T[m, -1]), pivots, duals[k:]


def _within_unit(arr) -> bool:
    return arr.min(initial=0.0) >= -LP_TOL and arr.max(initial=0.0) <= 1.0 + LP_TOL


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


# --- certified bases ------------------------------------------------------------


def _certify(x: np.ndarray, rates: np.ndarray, y: np.ndarray) -> tuple[SelectionPlan, DualCertificate] | None:
    """The plan with rows rates = (c_f, c_b) and the certificate with the
    order-row duals y = (y_f, y_b), on instance x.

    The pair-row duals are read off y: xi_i/2 is the smaller left-hand side
    of the c_f(i) and c_b(i) dual constraints, the largest xi they allow, so
    the check rests on y alone.  Returns None unless the rates lie in [0, 1]
    and are feasible within LP_TOL, the certificate passes
    check_certificate, and the duality gap is at most LP_TOL.  The primal is
    checked on arrays; the plan is built only once the certificate passes.
    """
    if not _within_unit(rates):
        return None
    np.clip(rates, 0.0, 1.0, out=rates)
    if _max_violation(rates, x) > LP_TOL:
        return None
    n = x.size
    after_b, after_f = before(y[::-1])
    xi = 2.0 * np.minimum(y[0] + x * after_f, y[1] + x * after_b)
    cert = DualCertificate(n * xi, n * y[0], n * y[1])
    if not check_certificate(cert, x).ok():
        return None
    plan = SelectionPlan(rates[0], rates[1])
    return (plan, cert) if cert.objective - plan.objective <= LP_TOL else None


def _certified_split(inst: SingleUnitInstance) -> tuple[int, tuple[SelectionPlan, DualCertificate] | None]:
    """The best split k, and the optimal plan at a split basis with the dual
    that certifies it (None when no split certifies).

    At split k every element before k is tight in the backward order, every
    element after k in the forward order, and k in both; every pair row is
    tight.  Tight runs make the rates prefix products of q = 1 - x, so each
    split reduces to a 3 x 3 system in (c_f(k), c_b(k), beta), solved for
    every k at once from prefix sums and products.  Its complementary dual
    puts y on the tight runs and a spike on k; its objective equals beta_k,
    and it is feasible exactly when both spikes are nonnegative.  The best
    split has the smallest beta_k among dual-feasible splits (among all
    when none is), which bounds the optimum from above; the splits tied
    with it are tried in turn, each accepted only as _certify allows.
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
    feasible = feasible[np.argsort(beta[feasible], kind="stable")]
    best = int(feasible[0]) if feasible.size else int(np.argmin(beta))
    for k in feasible[beta[feasible] <= beta[best] + LP_TOL]:
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

        y = np.zeros((2, n))
        y_f, y_b = y
        y_b[:k] = Y_f[k] * x[:k] * P_lt[:k]
        y_f[k + 1 :] = Y_b[k] * x[k + 1 :] * P_gt[k + 1 :]
        y_f[k], y_b[k] = spike_f[k], spike_b[k]
        found = _certify(x, rates, y)
        if found is not None:
            return best, found
    return best, None


def _spread(d: list[float], x: list[float]) -> list[float]:
    """The duals y of a tight run, in its arrival order, with
    y_i + x_i * (sum of y over the run before i) = d_i: every element of the
    run then meets its two dual constraints at the same value d_i."""
    y, total = [], 0.0
    for d_i, x_i in zip(d, x):
        y.append(d_i - x_i * total)
        total += y[-1]
    return y


def _window(x: np.ndarray, l: int, r: int) -> tuple[SelectionPlan, DualCertificate] | None:
    """The optimal plan at a window basis [l, r] and its certificate, or
    None when that window does not certify.

    Columns are c_f(l..r), beta, then F when r < n - 1 and G when l > 0.
    Element i > r gets c_f(i) = F * prod(q over r < j < i), element i < l
    gets c_b(i) = G * prod(q over i < j < l), and c_b = 2 beta - c_f, so
    C = (c_f, c_b) is linear in the columns.  Kept rows: the forward rows up
    to r + 1 (that of r + 1 bounds F, and stands for every tight forward
    row after it), the backward rows from l - 1 (likewise for G), and
    c_f >= 0 before l and c_b >= 0 from l, on l - 1..r + 1 (further out they
    follow from F, G >= 0 and q <= 1).  At l = 0, r = n - 1 this is the
    whole LP: 3n rows and n + 1 columns.

    The row duals y_f up to r + 1 and y_b from l - 1 are read off the
    tableau.  The F row's dual is spread over the forward-tight run after r
    (and the G row's over the backward-tight run before l) so that each of
    its elements meets both dual constraints at the same value; _certify
    decides.
    """
    n = x.size
    q = 1.0 - x
    w = r - l + 1
    lo, hi = max(l - 1, 0), min(r + 1, n - 1)
    cols = w + 1 + (r < n - 1) + (l > 0)
    beta, F, G = w, w + 1, cols - 1  # column indices; F and G only when present

    C = np.zeros((2, n, cols))
    window = np.arange(w)
    C[0, l + window, window] = 1.0
    C[1, l + window, window] = -1.0
    C[0, :l, beta] = 2.0
    C[1, l:, beta] = 2.0
    if l > 0:
        P = np.ones(l)
        P[:-1] = np.cumprod(q[l - 1 : 0 : -1])[::-1]
        C[0, :l, G] = -P
        C[1, :l, G] = P
    if r < n - 1:
        Q = np.ones(n - 1 - r)
        Q[1:] = np.cumprod(q[r + 1 : -1])
        C[0, r + 1 :, F] = Q
        C[1, r + 1 :, F] = -Q
    orders = C + before(x[:, None] * C)
    near = np.arange(lo, hi + 1)
    bounds = -C[(near >= l).astype(int), near]  # -c_f <= 0 before l, -c_b <= 0 from l
    A = np.concatenate([orders[0, : hi + 1], orders[1, lo:], bounds])
    b = np.concatenate([np.ones(hi + 1 + n - lo), np.zeros(hi + 1 - lo)])
    obj = np.zeros(cols)
    obj[beta] = 1.0
    v, _, _, duals = _simplex(obj, A, b)
    rates = (C * v).sum(axis=2)

    y = np.zeros((2, n))
    y[0, : hi + 1] = duals[: hi + 1]
    y[1, lo:] = duals[hi + 1 : hi + 1 + n - lo]
    bound_duals = np.zeros(n)
    bound_duals[lo : hi + 1] = duals[hi + 1 + n - lo :]
    after_b, after_f = before(y[::-1])
    # Left-hand sides of the c_f and c_b dual constraints, less the duals
    # of the bound rows (c_f >= 0 before l, c_b >= 0 from l).
    d_f = (y[0] + x * after_f - bound_duals).tolist()
    d_b = (y[1] + x * after_b - bound_duals).tolist()
    xs = x.tolist()
    y[1, :l] = _spread(d_f[:l], xs[:l])
    y[0, r + 1 :] = _spread(d_b[: r : -1], xs[: r : -1])[::-1]
    return _certify(x, rates, y)


def certify_lp_si(inst: SingleUnitInstance) -> tuple[SelectionPlan, DualCertificate]:
    """Optimal selection plan and the dual certificate that proves it: the
    certificate passes check_certificate and its objective is within LP_TOL
    of plan.objective.

    The certified split basis first; otherwise the window bases
    [k - h, k + h] around the best split k for h = 1, 2, 4, ..., up to the
    whole LP.  Raises SolverError if even the whole LP does not certify.
    """
    n = inst.n
    k, found = _certified_split(inst)
    h = 1
    while found is None:
        l, r = max(k - h, 0), min(k + h, n - 1)
        found = _window(inst.x_array, l, r)
        if found is None and r - l + 1 == n:
            raise SolverError("no window basis certifies the selection LP")
        h *= 2
    return found


def solve_lp_si(inst: SingleUnitInstance) -> SelectionPlan:
    """Optimal selection plan; .objective equals the LP optimum (see
    certify_lp_si, which also returns its certificate)."""
    return certify_lp_si(inst)[0]
