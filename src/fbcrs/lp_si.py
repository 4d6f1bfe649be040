"""Instance-optimal selection LP and explicit dual certificates.

The LP maximizes the worst pair-mean guarantee beta over conditional
acceptance probabilities (c_f, c_b) subject to the order constraints
c_sigma(i) <= 1 - sum of x_j c_sigma(j) over elements j arriving earlier.
A simplex method on a condensed tableau solves it, with Dantzig's rule
and Bland's rule only while the objective stalls; uniform odd-length
instances also get a closed-form dual certificate whose objective
upper-bounds the optimum by weak duality.

The pair rows beta <= (c_f(i) + c_b(i))/2 are substituted out.  Some optimum
has every pair row tight: lowering a rate only loosens the order
constraints, so any optimum can lower c_f(i) or c_b(i) until
c_f(i) + c_b(i) = 2 beta.  The solver therefore keeps c_f and beta as
variables, writes c_b = 2 beta - c_f, and adds the bound rows
c_f(i) - 2 beta <= 0 that keep c_b >= 0.  Those rows have a zero
right-hand side but a negative beta coefficient, so from the all-slack
basis the first pivot, beta entering, already raises the objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInstanceError, SolverError
from .instances import FORWARD, SingleUnitInstance
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
    if rho < 0:
        raise ValueError(f"rho={rho} must be nonnegative")
    return 1.0 / (math.exp(-rho / 2.0) + rho)


@dataclass(frozen=True)
class SelectionPlan:
    """Conditional acceptance probabilities for both arrival orders.

    The one plan type of both schemes: the single-unit LP and closed form,
    and the knapsack closed form, all return it.
    """

    c_f: tuple[float, ...]
    c_b: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "c_f", tuple(float(v) for v in self.c_f))
        object.__setattr__(self, "c_b", tuple(float(v) for v in self.c_b))
        if len(self.c_f) != len(self.c_b) or not self.c_f:
            raise InvalidInstanceError("plan orders must have equal positive length")
        for v in self.c_f + self.c_b:
            if not 0.0 <= v <= 1.0:
                raise InvalidInstanceError(f"acceptance probability {v} outside [0, 1]")

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
        """The guarantee this plan certifies: min_i (c_f(i) + c_b(i))/2."""
        return min(self.pair_means)

    def max_violation(self, inst: SingleUnitInstance) -> float:
        """Largest violation of the order constraints on inst (<= 0 if feasible)."""
        worst = 0.0
        for rates, order in ((self.c_f, range(inst.n)), (self.c_b, range(inst.n - 1, -1, -1))):
            consumed = 0.0
            for i in order:
                worst = max(worst, rates[i] - (1.0 - consumed))
                consumed += inst.x[i] * rates[i]
        return worst

    def is_feasible(self, inst: SingleUnitInstance) -> bool:
        return self.max_violation(inst) <= LP_TOL


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


def _clip_unit(values):
    arr = np.asarray(values, dtype=float)
    if arr.min(initial=0.0) < -LP_TOL or arr.max(initial=0.0) > 1.0 + LP_TOL:
        raise SolverError(f"solver produced probability outside [0,1] by more than {LP_TOL}")
    return tuple(np.clip(arr, 0.0, 1.0))


def _solve_general(inst: SingleUnitInstance) -> SelectionPlan:
    """Variables (c_f, beta) with c_b = 2 beta - c_f; 3n constraints.

    The backward rows B c_b <= 1 become -B c_f + 2 beta B 1 <= 1, and the
    bound rows c_f(i) - 2 beta <= 0 keep c_b >= 0.
    """
    n = inst.n
    x = np.asarray(inst.x)

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


def _solve_palindromic(inst: SingleUnitInstance) -> SelectionPlan:
    """Reduced LP for instances with x equal to its own reversal.

    Reversal symmetry gives an optimal plan with c_b = reversed(c_f): the
    mirror of any optimum is again optimal, the average of the two is
    feasible, and the worst pair mean only improves under averaging.  With
    the pair rows tight, c_f(n-1-r) = 2 beta - c_f(r), and the middle rate
    of odd n is beta.  So we solve over the first half u = c_f[:n//2] and
    beta: the n forward rows, and n//2 bound rows u_r - 2 beta <= 0.
    """
    n = inst.n
    x = np.asarray(inst.x)
    half = n // 2

    # Column j of the forward-row matrix holds c_f(j)'s coefficients, so
    # each reduced column is a signed sum of its columns.
    forward = np.tril(np.broadcast_to(x, (n, n)), -1) + np.eye(n)
    A = np.zeros((n + half, half + 1))
    A[:n, :half] = forward[:, :half] - forward[:, ::-1][:, :half]
    A[:n, half] = 2.0 * forward[:, n - half :].sum(axis=1)
    if n % 2:
        A[:n, half] += forward[:, half]
    A[n:, :half] = np.eye(half)
    A[n:, half] = -2.0
    b = np.concatenate([np.ones(n), np.zeros(half)])
    obj = np.zeros(half + 1)
    obj[half] = 1.0

    v, _, _ = _simplex(obj, A, b)
    u, beta = v[:half], v[half]
    c_f = _clip_unit(np.concatenate([u, [beta] * (n % 2), 2.0 * beta - u[::-1]]))
    return SelectionPlan(c_f, tuple(reversed(c_f)))


def solve_lp_si(inst: SingleUnitInstance) -> SelectionPlan:
    """Optimal selection plan; .objective equals the LP optimum."""
    if inst.x == tuple(reversed(inst.x)):
        return _solve_palindromic(inst)
    return _solve_general(inst)


def gamma(z: float, rho: float) -> float:
    """Dual weight rho*e^{z-rho/2}/(2(1+e^{rho/2}rho)) on [rho/2, rho].

    Evaluated in the equivalent overflow-safe form
    rho*e^{z-rho}/(2(e^{-rho/2}+rho)).
    """
    if rho < 0:
        raise ValueError(f"rho={rho} must be nonnegative")
    if not rho / 2.0 - CURVE_TOL <= z <= rho + CURVE_TOL:
        raise ValueError(f"z={z} outside [{rho / 2.0}, {rho}]")
    z = min(max(z, rho / 2.0), rho)
    return rho * math.exp(z - rho) / (2.0 * (math.exp(-rho / 2.0) + rho))


@dataclass(frozen=True)
class DualCertificate:
    """Explicit dual solution (xi, y_f, y_b) for a uniform instance."""

    xi: tuple[float, ...]
    y_f: tuple[float, ...]
    y_b: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "xi", tuple(float(v) for v in self.xi))
        object.__setattr__(self, "y_f", tuple(float(v) for v in self.y_f))
        object.__setattr__(self, "y_b", tuple(float(v) for v in self.y_b))
        if not len(self.xi) == len(self.y_f) == len(self.y_b) or not self.xi:
            raise InvalidInstanceError("certificate vectors must share a positive length")

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
    if rho < 0:
        raise InvalidInstanceError(f"rho={rho} must be nonnegative")
    mid = (N - 1) // 2
    a0 = alpha_0(rho)

    xi = [rho * a0] * N
    xi[mid] = (1.0 - rho * a0 * (N - 1) / N) * N

    y_f = [0.0] * N
    y_f[mid] = xi[mid] / 2.0 + 0.5
    for i in range(mid + 1, N):
        y_f[i] = gamma(rho * (i + 1) / N, rho)

    return DualCertificate(tuple(xi), tuple(y_f), tuple(y_f[::-1]))


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


def dual_feasibility(cert: DualCertificate, rho: float) -> DualFeasibilityReport:
    """Evaluate every dual constraint of the uniform instance x_i = rho/N."""
    N = cert.N
    xi = np.asarray(cert.xi)
    y_f = np.asarray(cert.y_f)
    y_b = np.asarray(cert.y_b)

    # Forward: elements after i are the larger indices; backward: the smaller.
    after_f = np.concatenate([np.cumsum(y_f[::-1])[::-1][1:], [0.0]])
    after_b = np.concatenate([[0.0], np.cumsum(y_b)[:-1]])
    viol_f = xi / 2.0 - y_f - rho * after_f / N
    viol_b = xi / 2.0 - y_b - rho * after_b / N
    max_violation = float(max(0.0, viol_f.max(), viol_b.max()))

    xi_sum_slack = math.fsum(cert.xi) / N - 1.0
    min_entry = float(min(xi.min(), y_f.min(), y_b.min()))
    return DualFeasibilityReport(max_violation, xi_sum_slack, min_entry)
