"""LP bounds: alpha_0, the simplex solver, and the dual certificate."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbcrs.errors import InvalidInstanceError, SolverError
from fbcrs.instances import SingleUnitInstance
from fbcrs.lp_si import (
    DualFeasibilityReport,
    SelectionPlan,
    _certified_split,
    _simplex,
    _window,
    alpha_0,
    certify_lp_si,
    check_certificate,
    dual_certificate_uniform,
    dual_feasibility,
    gamma,
    solve_lp_si,
)
from fbcrs.tolerances import LP_TOL
from oracles import highs_lp_optimum, split_element

# Frozen from a high-precision evaluation of e^{rho/2}/(1 + e^{rho/2} rho).
ALPHA_FROZEN = {
    0.1: 0.9512671322674918,
    0.5: 0.7819826303188639,
    1.0: 0.6224593312018546,
    2.0: 0.4223187982515182,
    5.0: 0.1967696329893685,
}

# Frozen dual certificate for N = 3, rho = 1.
XI_MID_FROZEN = 1.7550813375962909
Y_MID_FROZEN = 1.3775406687981454
Y_LAST_FROZEN = 0.3112296656009273
DUAL_OBJ_FROZEN = 1.1258468895993818

GAMMA_HALF_FROZEN = 0.18877033439907272  # gamma(0.5; 1)
GAMMA_ONE_FROZEN = 0.3112296656009273  # gamma(1; 1)


@pytest.mark.parametrize("rho, expected", sorted(ALPHA_FROZEN.items()))
def test_alpha_0_frozen_values(rho, expected):
    assert alpha_0(rho) == pytest.approx(expected, abs=1e-13)


def test_alpha_0_closed_form_equivalence():
    assert alpha_0(1.0) == pytest.approx(1.0 / (1.0 + math.exp(-0.5)), abs=1e-13)
    assert alpha_0(0.0) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("rho", [0.1, 0.5, 1.0, 2.0, 5.0])
def test_alpha_0_identity(rho):
    a = alpha_0(rho)
    assert abs((1.0 - a * rho) - a * math.exp(-rho / 2.0)) <= 1e-12


def test_alpha_0_rejects_negative():
    for rho in (-0.5, math.nan):
        with pytest.raises(ValueError):
            alpha_0(rho)


def test_selection_plan_validation():
    with pytest.raises(InvalidInstanceError):
        SelectionPlan((0.5,), (0.5, 0.5))
    with pytest.raises(InvalidInstanceError):
        SelectionPlan((1.5,), (0.5,))
    plan = SelectionPlan((1.0, 0.5), (0.5, 1.0))
    assert plan.pair_means == (0.75, 0.75)
    assert plan.objective == 0.75


def test_plan_feasibility_bookkeeping():
    inst = SingleUnitInstance((0.5, 0.5))
    good = SelectionPlan((1.0, 0.5), (0.5, 1.0))
    assert good.max_violation(inst) == pytest.approx(0.0, abs=1e-15)
    assert good.is_feasible(inst)
    # forward order: after c_f(0) = 1 consumes mass 0.5, only 0.5 remains
    bad = SelectionPlan((1.0, 0.6), (0.5, 1.0))
    assert bad.max_violation(inst) == pytest.approx(0.1, abs=1e-12)
    assert not bad.is_feasible(inst)


def _max_violation_loop(plan, inst):
    worst = 0.0
    for rates, order in ((plan.c_f, range(inst.n)), (plan.c_b, range(inst.n - 1, -1, -1))):
        consumed = 0.0
        for i in order:
            worst = max(worst, rates[i] - (1.0 - consumed))
            consumed += inst.x[i] * rates[i]
    return worst


def test_max_violation_matches_the_loop():
    # The cumulative sums add in the loop's order, so the results are equal.
    rng = np.random.default_rng(17)
    for n in (1, 2, 5, 40, 225):
        inst = SingleUnitInstance(tuple(rng.random(n) * min(1.0, 2.0 / n)))
        for plan in (SelectionPlan(rng.random(n), rng.random(n)), solve_lp_si(inst)):
            assert plan.max_violation(inst) == _max_violation_loop(plan, inst)


def test_simplex_solves_tiny_lp():
    # max x + y st x <= 1, y <= 2; each row has dual 1
    sol, value, pivots, duals = _simplex([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], [1.0, 2.0])
    assert value == pytest.approx(3.0, abs=1e-12)
    assert sol == pytest.approx([1.0, 2.0], abs=1e-12)
    assert pivots == 2
    assert duals.tolist() == [1.0, 1.0]


def test_simplex_unbounded_raises():
    with pytest.raises(SolverError):
        _simplex([1.0], [[-1.0]], [1.0])


# Beale's LP: max 3/4 x1 - 20 x2 + 1/2 x3 - 6 x4, optimum 5/4 at (1, 0, 1, 0).
# Its first pivots are degenerate; the most negative reduced cost cycles on
# them, and Bland's rule does not.
BEALE_OBJ = [0.75, -20.0, 0.5, -6.0]
BEALE_A = [[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]]
BEALE_B = [0.0, 0.0, 1.0]


def test_simplex_does_not_cycle_on_beale():
    sol, value, _, duals = _simplex(BEALE_OBJ, BEALE_A, BEALE_B)
    assert value == pytest.approx(1.25, abs=1e-12)
    assert sol == pytest.approx([1.0, 0.0, 1.0, 0.0], abs=1e-12)
    # The row duals read off the final tableau are dual feasible and meet
    # the primal value.
    assert duals.min() >= 0.0
    assert (np.array(BEALE_A).T @ duals >= np.array(BEALE_OBJ) - 1e-12).all()
    assert duals @ BEALE_B == pytest.approx(value, abs=1e-12)


def test_simplex_enters_the_smallest_label():
    # max x + 2y st x + 2y <= 2 has the optimal vertices (2, 0) and (0, 1).
    # Bland's rule enters x, the first column with a negative reduced cost,
    # and stops at (2, 0); the most negative reduced cost would enter y.
    sol, value, pivots, duals = _simplex([1.0, 2.0], [[1.0, 2.0]], [2.0])
    assert sol.tolist() == [2.0, 0.0]
    assert value == 2.0 and pivots == 1 and duals.tolist() == [1.0]


def test_simplex_leaves_by_the_smallest_label():
    # Degenerate at the origin: every ratio is 0.  Labels: x 0, y 1, and the
    # slacks of rows 1-3 are 2-4.  x enters, rows 2 and 3 tie, and row 2
    # (slack 3) leaves.  y enters, row 1 (slack 2) ties with row 2 (now x),
    # and x, the smaller label, leaves: the duals are (0, 1, 0).  Leaving by
    # the first tied row instead gives the duals (2/3, 1/3, 0), and by the
    # last takes 3 pivots.
    sol, value, pivots, duals = _simplex([1.0, 1.0], [[0.0, 1.0], [3.0, 1.0], [1.0, 0.0]], [0.0, 0.0, 0.0])
    assert sol.tolist() == [0.0, 0.0] and value == 0.0
    assert pivots == 2
    assert duals == pytest.approx([0.0, 1.0, 0.0], abs=1e-12)


def test_simplex_pivot_budget():
    # max x + y st x <= 1, y <= 2 takes two pivots
    obj, A, b = [1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], [1.0, 2.0]
    with pytest.raises(SolverError, match="did not converge"):
        _simplex(obj, A, b, max_iter=1)
    # a budget of exactly the pivots needed is enough
    v, value, pivots, _ = _simplex(obj, A, b, max_iter=2)
    assert v.tolist() == [1.0, 2.0] and value == 3.0 and pivots == 2
    assert _simplex(obj, A, b, max_iter=3)[1] == pytest.approx(3.0, abs=1e-12)


def _solve_pivots(monkeypatch, inst, solve=solve_lp_si):
    """Solve inst; return its plan and (matrix shape, pivots) of each simplex call."""
    calls = []

    def counting(obj, A, b, **kwargs):
        result = _simplex(obj, A, b, **kwargs)
        calls.append((np.shape(A), result[2]))
        return result

    monkeypatch.setattr("fbcrs.lp_si._simplex", counting)
    return solve(inst), calls


@pytest.mark.parametrize("n", [64, 112])
@pytest.mark.parametrize("rho", [0.5, 2.0])
def test_general_lp_pivot_count(monkeypatch, n, rho):
    # The full width is the whole LP: with c_b substituted out it has 3n
    # rows and n + 1 columns, and no zero right-hand side blocks beta from
    # entering.  The window of 3 around the best split has n + 10 rows (the
    # order rows up to r + 1 and from l - 1, and 5 bound rows) and 6 columns
    # (its 3 rates, beta, F and G), and certifies the same optimum.
    w = np.random.default_rng(n).uniform(0.05, 1.0, n)
    inst = SingleUnitInstance(tuple(float(v) for v in rho * w / w.sum()))
    assert inst.x != tuple(reversed(inst.x))
    x = inst.x_array
    (plan, cert), calls = _solve_pivots(monkeypatch, inst, lambda inst: _window(x, 0, n - 1))
    assert len(calls) == 1
    shape, pivots = calls[0]
    assert shape == (3 * n, n + 1) and pivots <= 2 * n
    assert plan.objective >= alpha_0(rho) - 1e-9

    k, _ = _certified_split(inst)
    assert 0 < k < n - 1
    (window_plan, _), calls = _solve_pivots(monkeypatch, inst, lambda inst: _window(x, k - 1, k + 1))
    assert [shape for shape, _ in calls] == [(n + 10, 6)]
    assert window_plan.objective == pytest.approx(plan.objective, abs=1e-12)


def test_lp_two_elements_exact():
    # x = (0.5, 0.5): optimum 3/4 with c = (1, 1/2) forward and mirrored
    plan = solve_lp_si(SingleUnitInstance((0.5, 0.5)))
    assert plan.objective == pytest.approx(0.75, abs=1e-9)
    assert plan.pair_means == pytest.approx((0.75, 0.75), abs=1e-9)


def test_lp_single_element():
    plan = solve_lp_si(SingleUnitInstance((0.7,)))
    assert plan.objective == pytest.approx(1.0, abs=1e-12)


def test_lp_beats_alpha0_on_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        x = rng.random(n) * min(1.0, 1.5 / n)
        inst = SingleUnitInstance(tuple(x))
        plan = solve_lp_si(inst)
        assert plan.is_feasible(inst)
        assert plan.objective >= alpha_0(inst.rho) - 1e-9
        assert plan.objective <= 1.0 + 1e-12


@st.composite
def lp_instances(draw):
    """Selection-LP inputs with 1-39 elements, one family per draw: random
    weights scaled to a total mass in [0.05, 3] (each x capped at 1), mixes
    of {0, 1e-12, 0.5, 1}, and uniform x in [0, 1]."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(1, 40))
    family = draw(st.sampled_from(("scaled", "mix", "uniform")))
    if family == "scaled":
        w = rng.uniform(0.0, 1.0, n)
        x = np.minimum(w / w.sum() * rng.uniform(0.05, 3.0), 1.0)
    elif family == "mix":
        x = rng.choice([0.0, 1e-12, 0.5, 1.0], n)
    else:
        x = np.full(n, rng.uniform(0.0, 1.0))
    return SingleUnitInstance(tuple(x.tolist()))


@settings(max_examples=150)
@given(inst=lp_instances())
def test_lp_plans_and_split_certificates(inst):
    # Every answer is judged by its own guarantees, not by another solver:
    # a feasible plan at or above alpha_0, and a dual that passes the
    # checker within LP_TOL of the plan, on either path.  The split
    # certifies every uniform instance.
    plan, cert = certify_lp_si(inst)
    assert plan == solve_lp_si(inst)
    assert plan.max_violation(inst) <= LP_TOL
    assert plan.objective >= alpha_0(inst.rho) - LP_TOL
    assert check_certificate(cert, inst.x).ok()
    assert cert.objective - plan.objective <= LP_TOL
    _, split = _certified_split(inst)
    assert split is not None or len(set(inst.x)) > 1
    if split is not None:
        assert split == (plan, cert)


@st.composite
def general_instances(draw):
    """Selection-LP inputs with 1-40 elements of random weights, scaled to a
    total mass rho in (0, 2] (each x capped at 1)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 40))
    rho = draw(st.floats(1e-3, 2.0))
    w = rng.uniform(0.0, 1.0, n)
    return SingleUnitInstance(tuple(np.minimum(rho * w / w.sum(), 1.0).tolist()))


@settings(max_examples=100, deadline=None)
@given(inst=general_instances())
def test_certified_plans_match_highs(inst):
    # Every plan is feasible and certified within LP_TOL, whichever basis
    # certifies it, and its value is HiGHS's optimum.
    plan, cert = certify_lp_si(inst)
    assert plan.is_feasible(inst)
    assert check_certificate(cert, inst.x).ok()
    assert cert.objective - plan.objective <= LP_TOL
    assert plan.objective == pytest.approx(highs_lp_optimum(inst.x), abs=1e-9)


def test_lp_reversal_invariance():
    rng = np.random.default_rng(7)
    for _ in range(10):
        x = tuple(rng.random(5) * 0.3)
        fwd = solve_lp_si(SingleUnitInstance(x))
        rev = solve_lp_si(SingleUnitInstance(tuple(reversed(x))))
        assert fwd.objective == pytest.approx(rev.objective, abs=1e-9)


def test_lp_matches_highs_general():
    rng = np.random.default_rng(2718)
    for n, rho in (
        (3, 0.5), (4, 1.0), (7, 1.0), (12, 0.5), (20, 2.0), (33, 1.0), (48, 2.0), (64, 0.5),
        (112, 0.5), (112, 2.0),
    ):
        w = rng.uniform(0.05, 1.0, n)
        inst = SingleUnitInstance(tuple(float(v) for v in rho * w / w.sum()))
        assert inst.x != tuple(reversed(inst.x))
        plan = solve_lp_si(inst)
        assert plan.is_feasible(inst)
        assert plan.objective == pytest.approx(highs_lp_optimum(inst.x), abs=1e-9)


def test_lp_matches_highs_palindromic():
    # Palindromic x that no split certifies are certified by a window basis.
    rng = np.random.default_rng(3141)
    for n in (3, 8, 15, 40):
        half = rng.uniform(0.05, 1.0, (n + 1) // 2)
        w = np.concatenate([half, half[: n // 2][::-1]])
        inst = SingleUnitInstance(tuple(float(v) for v in w / w.sum()))
        assert inst.x == tuple(reversed(inst.x))
        plan = solve_lp_si(inst)
        assert plan.is_feasible(inst)
        assert plan.objective == pytest.approx(highs_lp_optimum(inst.x), abs=1e-9)
    for N in (5, 21, 51, 225):
        inst = SingleUnitInstance((1.0 / N,) * N)
        plan = solve_lp_si(inst)
        assert plan.is_feasible(inst)
        assert plan.objective == pytest.approx(highs_lp_optimum(inst.x), abs=1e-9)


@pytest.mark.parametrize(
    "x",
    [
        (0.7,),
        (0.3, 0.6),
        (0.5, 0.5),
        (0.0, 0.5, 0.0, 0.5),
        (2e-7, 5e-7, 3e-7),  # rho = 1e-6
        (1e-6 / 3,) * 3,
    ],
)
def test_lp_matches_highs_edge_cases(x):
    inst = SingleUnitInstance(x)
    plan = solve_lp_si(inst)
    assert plan.is_feasible(inst)
    assert plan.objective == pytest.approx(highs_lp_optimum(x), abs=1e-9)


@pytest.mark.parametrize(
    "x", [(0.0,), (1.0,), (1.0, 0.5), (0.0, 0.3, 0.0, 0.2), (1.0,) * 5, (0.0,) * 3]
)
def test_lp_substituted_rates_at_their_bounds(x):
    # c_b = 2 beta - c_f meets its bounds 0 and 1 on these instances; the
    # dispatching solve, the whole LP and the split must reach the optimum.
    inst = SingleUnitInstance(x)
    _, split = _certified_split(inst)
    found = [certify_lp_si(inst), _window(inst.x_array, 0, inst.n - 1)] + ([split] if split else [])
    for plan, cert in found:
        assert plan.is_feasible(inst)
        assert check_certificate(cert, x).ok()
        assert plan.objective == pytest.approx(highs_lp_optimum(x), abs=1e-9)


# --- the split basis ------------------------------------------------------------


def _assert_split_certified(monkeypatch, inst):
    plan, calls = _solve_pivots(monkeypatch, inst)
    assert calls == []
    assert plan.is_feasible(inst)
    _, (split_plan, cert) = _certified_split(inst)
    assert split_plan == plan
    assert check_certificate(cert, inst.x).ok()
    assert cert.objective - plan.objective <= LP_TOL
    assert plan.objective == pytest.approx(highs_lp_optimum(inst.x), abs=1e-9)


# Seeded general instances (weights from default_rng(n)) whose optimum sits
# at a split basis.
@pytest.mark.parametrize(
    "n, rho",
    [(3, 0.5), (3, 1.0), (4, 2.0), (7, 1.0), (12, 0.5), (20, 2.0), (33, 1.0), (48, 2.0),
     (64, 0.5), (80, 1.0), (96, 2.0), (112, 0.5), (112, 1.0), (112, 2.0)],
)
def test_split_path_general(monkeypatch, n, rho):
    w = np.random.default_rng(n).uniform(0.05, 1.0, n)
    inst = SingleUnitInstance(tuple(float(v) for v in rho * w / w.sum()))
    assert inst.x != tuple(reversed(inst.x))
    _assert_split_certified(monkeypatch, inst)


@pytest.mark.parametrize("N", [5, 6, 21, 50, 151, 224, 225])
@pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
def test_split_path_uniform(monkeypatch, N, rho):
    _assert_split_certified(monkeypatch, SingleUnitInstance((rho / N,) * N))


def test_split_falls_back_to_the_simplex(monkeypatch):
    # No split basis is optimal here, palindromic x included; the window
    # [0, 1] around the best split 0 certifies each in one simplex call:
    # 9 rows (3 forward, 3 backward, 3 bound) and 4 columns (c_f(0..1),
    # beta, F).
    for x, optimum in (((0.07, 0.45, 0.15), 27.0 / 35.0), ((0.05, 0.1, 0.05), 13.0 / 14.0)):
        inst = SingleUnitInstance(x)
        assert _certified_split(inst) == (0, None)
        (plan, cert), calls = _solve_pivots(monkeypatch, inst, certify_lp_si)
        assert plan.objective == pytest.approx(optimum, abs=1e-12)
        assert [shape for shape, _ in calls] == [(9, 4)]
        assert check_certificate(cert, x).ok() and cert.objective - plan.objective <= LP_TOL


def test_split_needs_a_passing_dual_check(monkeypatch):
    # A plan whose dual the checker rejects is never returned: with the
    # split's rejected the first window certifies, and with every dual
    # rejected the solve raises.
    inst = SingleUnitInstance((0.1, 0.2, 0.3, 0.15))
    assert _certified_split(inst)[1] is not None
    rejected = []

    def reject_first(cert, x):
        if not rejected:
            rejected.append(cert)
            return DualFeasibilityReport(1.0, 0.0, 0.0)
        return check_certificate(cert, x)

    monkeypatch.setattr("fbcrs.lp_si.check_certificate", reject_first)
    plan, calls = _solve_pivots(monkeypatch, inst)
    assert len(rejected) == 1 and len(calls) == 1
    assert plan.objective == pytest.approx(highs_lp_optimum(inst.x), abs=1e-9)

    monkeypatch.setattr(
        "fbcrs.lp_si.check_certificate", lambda cert, x: DualFeasibilityReport(1.0, 0.0, 0.0)
    )
    assert _certified_split(inst)[1] is None
    with pytest.raises(SolverError, match="no window basis certifies"):
        solve_lp_si(inst)


def test_window_certifies_every_fallback(monkeypatch):
    # Instances drawn as the lp-certify benchmark draws its general ones:
    # uniform(0.05, 1) weights normalised to rho, n 64-112.  Every instance
    # no split certifies is certified by a window narrower than the whole
    # LP (fewer than n + 1 columns in every simplex call), at HiGHS's value.
    rng = np.random.default_rng(1)
    fallbacks = 0
    for _ in range(240):
        n = int(rng.integers(64, 113))
        rho = float(rng.choice((0.5, 1.0, 2.0)))
        w = rng.uniform(0.05, 1.0, n)
        inst = SingleUnitInstance(tuple(float(v) for v in rho * w / w.sum()))
        if _certified_split(inst)[1] is not None:
            continue
        fallbacks += 1
        (plan, cert), calls = _solve_pivots(monkeypatch, inst, certify_lp_si)
        assert calls and all(shape[1] < n + 1 for shape, _ in calls)
        assert plan.is_feasible(inst)
        assert check_certificate(cert, inst.x).ok()
        assert cert.objective - plan.objective <= LP_TOL
        assert plan.objective == pytest.approx(highs_lp_optimum(inst.x), abs=1e-9)
    assert fallbacks >= 10


@pytest.mark.parametrize("N", [11, 101, 225])
@pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
def test_split_dual_between_alpha0_and_the_uniform_certificate(N, rho):
    # The split dual is the LP optimum, so it lies between the paper's lower
    # bound alpha_0 and the closed-form certificate's upper bound.
    inst = SingleUnitInstance((rho / N,) * N)
    _, (_, split) = _certified_split(inst)
    uniform = dual_certificate_uniform(N, rho)
    assert alpha_0(rho) - LP_TOL <= split.objective <= uniform.objective + LP_TOL
    assert check_certificate(split, inst.x).ok()
    assert check_certificate(uniform, inst.x).ok()


def test_lp_handles_zero_mass_elements():
    inst = SingleUnitInstance((0.0, 0.5, 0.0, 0.5))
    plan = solve_lp_si(inst)
    assert plan.is_feasible(inst)
    assert plan.objective >= alpha_0(1.0) - 1e-9


def test_lp_splitting_monotone_samples():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        x = tuple(rng.random(n) * 0.25)
        inst = SingleUnitInstance(x)
        k = int(rng.integers(1, n + 1))
        before = solve_lp_si(inst).objective
        after = solve_lp_si(split_element(inst, k)).objective
        assert after <= before + 1e-9


# --- gamma and the dual certificate -----------------------------------------


def test_gamma_frozen_values():
    assert gamma(0.5, 1.0) == pytest.approx(GAMMA_HALF_FROZEN, abs=1e-13)
    assert gamma(1.0, 1.0) == pytest.approx(GAMMA_ONE_FROZEN, abs=1e-13)


def test_gamma_domain():
    with pytest.raises(ValueError):
        gamma(0.4, 1.0)
    with pytest.raises(ValueError):
        gamma(1.1, 1.0)
    with pytest.raises(ValueError):
        gamma(0.5, -1.0)


def test_gamma_endpoint_identity():
    # at z = rho the weight equals rho * alpha_0 / 2
    for rho in (0.5, 1.0, 2.0):
        assert gamma(rho, rho) == pytest.approx(rho * alpha_0(rho) / 2.0, abs=1e-13)


def test_dual_certificate_frozen_n3():
    cert = dual_certificate_uniform(3, 1.0)
    a0 = alpha_0(1.0)
    assert cert.xi[0] == pytest.approx(a0, abs=1e-13)
    assert cert.xi[1] == pytest.approx(XI_MID_FROZEN, abs=1e-13)
    assert cert.y_f == pytest.approx((0.0, Y_MID_FROZEN, Y_LAST_FROZEN), abs=1e-13)
    assert cert.y_b == tuple(reversed(cert.y_f))
    assert cert.objective == pytest.approx(DUAL_OBJ_FROZEN, abs=1e-13)
    assert cert.objective <= a0 + (1.0 + 2.0) / 3.0 + 1e-12


def test_dual_certificate_rejects_even_or_negative():
    with pytest.raises(InvalidInstanceError):
        dual_certificate_uniform(4, 1.0)
    with pytest.raises(InvalidInstanceError):
        dual_certificate_uniform(0, 1.0)
    for rho in (-1.0, math.nan, math.inf):
        with pytest.raises(InvalidInstanceError):
            dual_certificate_uniform(3, rho)
    with pytest.raises(InvalidInstanceError):
        check_certificate(dual_certificate_uniform(3, 1.0), (0.25,) * 4)


@pytest.mark.parametrize("N, rho", [(1, 2.0), (3, 4.0), (3, math.nextafter(3.0, math.inf))])
def test_dual_certificate_rejects_rho_above_n(N, rho):
    # x_i = rho/N would exceed 1, which SingleUnitInstance rejects too
    with pytest.raises(InvalidInstanceError, match="rho"):
        dual_certificate_uniform(N, rho)
    with pytest.raises(InvalidInstanceError):
        SingleUnitInstance((rho / N,) * N)
    # rho = N, every x_i = 1, is an instance and has a certificate
    assert dual_certificate_uniform(N, float(N)).N == N
    SingleUnitInstance((1.0,) * N)


@pytest.mark.parametrize("N", [3, 11, 21, 101])
@pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
def test_dual_certificate_feasible_and_bounded(N, rho):
    cert = dual_certificate_uniform(N, rho)
    report = dual_feasibility(cert, rho)
    assert report.ok(), (N, rho, report)
    assert cert.objective <= alpha_0(rho) + (rho + 2.0) / N + 1e-12


@pytest.mark.parametrize("N", [3, 11, 21])
def test_weak_duality_uniform(N):
    rho = 1.0
    inst = SingleUnitInstance((rho / N,) * N)
    primal = solve_lp_si(inst).objective
    cert = dual_certificate_uniform(N, rho)
    assert primal <= cert.objective + 1e-9
    assert primal >= alpha_0(rho) - 1e-9


@pytest.mark.parametrize("N", [301, 501, 1001])
@pytest.mark.parametrize("rho", [0.05, 1.0, 16.0])
def test_split_certifies_large_uniform(monkeypatch, N, rho):
    # The split certifies uniform x at every size, so they never reach the
    # simplex.  No HiGHS here: it takes seconds per instance at N = 1001 and
    # lands 2.9e-8 above the certified optimum at rho = 0.05.
    inst = SingleUnitInstance((rho / N,) * N)
    plan, calls = _solve_pivots(monkeypatch, inst)
    assert calls == []
    _, (split_plan, cert) = _certified_split(inst)
    assert split_plan == plan
    assert check_certificate(cert, inst.x).ok()
    assert cert.objective - plan.objective <= LP_TOL
    assert plan.objective >= alpha_0(rho) - LP_TOL
