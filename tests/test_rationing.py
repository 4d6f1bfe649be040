"""Service targets, threshold calibration, and both rationing routes."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fbcrs.errors import InfeasibleError, InvalidInstanceError, InvariantViolationError
from fbcrs.instances import (
    BACKWARD,
    FORWARD,
    DemandLaw,
    RationingInstance,
    ServiceType,
    SingleUnitInstance,
    instance_from_dict,
    instance_to_dict,
    order_row,
)
from fbcrs.knapsack import closed_form_knapsack_plan, run_knapsack_exact
from fbcrs.lp_si import SelectionPlan, alpha_0
from fbcrs.rationing import (
    ServiceTarget,
    _climb,
    _knapsack_route,
    _min_means,
    _rounding,
    _share,
    _single_unit_route,
    _sizes,
    _slices,
    _supply_step,
    calibrate_tau,
    exante_check,
    knapsack_reduction,
    max_uniform_beta,
    run_rationing,
    solve_q_for_beta,
)
from fbcrs.sim import slice_index, two_orders
from fbcrs.tolerances import CALIBRATION_TOL, CROSSING_TOL, SUPPLY_TOL

from oracles import (
    inverse_cdf,
    max_uniform_beta_bisection,
    quantile_sizes_loop,
    rounded_size,
    rounding_grid,
    service_value,
    single_unit_paths,
    size_grid,
    solve_q_walk,
)

UNIT = DemandLaw(((1.0, 1.0),))
MIXED = DemandLaw(((0.5, 0.5), (2.0, 0.5)))
# demands 1.2 and 1.7 both buy size 1: past q = 0.5 two active slices share
# one size atom of the knapsack reduction
SHARED = DemandLaw(((0.3, 0.3), (1.2, 0.2), (1.7, 0.5)))


def _alone(law, stype="TypeII"):
    """A one-agent instance."""
    return RationingInstance((law,), (stype,))


def supply_x(inst, i, q):
    """The supply share q buys agent i of inst, read off a target."""
    qs = [0.0] * inst.n
    qs[i] = q
    return ServiceTarget(inst, (0.0,) * inst.n, qs).x[i]


# --- service conventions ------------------------------------------------------


def test_service_type_i_indicator():
    assert service_value("TypeI", 0.5, 0.5) == 1.0
    assert service_value("TypeI", 0.49, 0.5) == 0.0
    assert service_value("TypeI", 0.0, 0.0) == 1.0


def test_service_type_ii_unclamped():
    # normalization is by the mean, so high-demand draws can exceed 1
    assert service_value("TypeII", 0.9, 1.0, mean=0.5) == pytest.approx(1.8)
    assert service_value("TypeII", 0.2, 0.1, mean=0.5) == pytest.approx(0.2)
    with pytest.raises(InvalidInstanceError):
        service_value("TypeII", 0.5, 0.5)  # mean required


def test_service_type_iii_conventions():
    assert service_value("TypeIII", 0.25, 0.5) == pytest.approx(0.5)
    assert service_value("TypeIII", 0.8, 0.5) == pytest.approx(1.0)
    assert service_value("TypeIII", 0.0, 0.0) == 1.0  # zero demand counts as served


def test_service_rejects_negative():
    with pytest.raises(InvalidInstanceError):
        service_value("TypeI", -0.1, 0.5)
    with pytest.raises(InvalidInstanceError):
        service_value("TypeIII", 0.1, -0.5)



# demands 0, at most 1 and above 1
SPREAD = DemandLaw(((0.0, 0.2), (0.4, 0.3), (1.0, 0.2), (1.7, 0.3)))


@pytest.mark.parametrize("stype", list(ServiceType))
def test_table_rule_matches_the_service_definitions(stype):
    # Every allocation a route makes: an active slice gets 0 or its size on
    # the knapsack route (every Type-I agent's) and anything up to its size
    # on the single-unit route; an inactive slice gets 0.
    table = _slices(SPREAD, stype, 0.9, None)
    assert table.demand == (0.0, 0.4, 1.0, 1.7, 1.7)
    assert table.active == (True, True, True, True, False)
    for d, size, on, base, scale in zip(table.demand, table.size, table.active, table.base, table.scale):
        assert size == (min(d, 1.0) if on else 0.0)
        allocations = {0.0, size} if stype is ServiceType.TYPE_I else {0.0, 0.37 * size, size}
        for y in allocations:
            assert base + y / scale == service_value(stype, y, d, SPREAD.mean), (d, y)


# --- quantile solving and supply ----------------------------------------------


def test_supply_x_clamps_at_one():
    assert supply_x(_alone(MIXED), 0, 0.5) == pytest.approx(0.25)
    assert supply_x(_alone(MIXED), 0, 1.0) == pytest.approx(0.75)  # min(2, 1) on the top atom
    assert supply_x(_alone(UNIT), 0, 0.5) == pytest.approx(0.5)


def test_solve_q_unit_type_ii():
    assert solve_q_for_beta(_alone(UNIT), 0, 0.5) == pytest.approx(0.5, abs=1e-12)
    assert solve_q_for_beta(_alone(UNIT), 0, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_solve_q_type_iii_mixed():
    # densities: 1 on the d = 0.5 segment, 1/2 on the d = 2 segment
    inst = _alone(MIXED, "TypeIII")
    q = solve_q_for_beta(inst, 0, 0.6)
    assert q == pytest.approx(0.7, abs=1e-12)
    assert supply_x(inst, 0, q) == pytest.approx(0.45, abs=1e-12)


def test_solve_q_infeasible_beta():
    big = DemandLaw(((2.0, 1.0),))
    # Type-I service can never be delivered when every demand exceeds supply
    with pytest.raises(InfeasibleError):
        solve_q_for_beta(_alone(big, "TypeI"), 0, 0.5)


# Off-grid sizes: 0.3 and 0.1234 are k/L for no L <= 4096, so with no
# Type-I agent each size rounds down onto 1/4096: 0.3 to 1228/4096 and
# 0.0001 (below 1/4096) to 0, which serves a Type-III agent nothing.
OFF_GRID_SU = RationingInstance(
    (DemandLaw(((0.0001, 0.2), (0.3, 0.5), (1.7, 0.3))), DemandLaw(((0.1234, 0.6), (0.5, 0.4)))),
    ("TypeIII", "TypeII"),
)


def test_off_grid_type_ii_iii_sizes_round_down():
    assert OFF_GRID_SU.grid is None and _rounding(OFF_GRID_SU) == 4096
    table = _slices(OFF_GRID_SU.demands[0], ServiceType.TYPE_III, 1.0, 4096)
    assert table.size == (0.0, 1228 / 4096, 1.0)
    assert table.scale == (0.0001, 0.3, 1.7)  # the rule stays on the true demand
    # the agent's top level: 0.5 * 1228/4096 / 0.3 + 0.3 * 1 / 1.7 of service
    top = 0.5 * (1228 / 4096) / 0.3 + 0.3 / 1.7
    with pytest.raises(InfeasibleError):
        solve_q_for_beta(OFF_GRID_SU, 0, top + 1e-9)
    assert supply_x(OFF_GRID_SU, 0, 0.7) == pytest.approx(0.5 * 1228 / 4096, abs=1e-15)
    # a Type-I agent keeps every size: its knapsack route rounds up itself
    with_type_i = RationingInstance(OFF_GRID_SU.demands, ("TypeIII", "TypeI"))
    assert _rounding(with_type_i) is None
    assert supply_x(with_type_i, 0, 0.7) == pytest.approx(0.2 * 0.0001 + 0.5 * 0.3, abs=1e-15)


def test_service_target_validation():
    inst = RationingInstance((UNIT, UNIT), ("TypeII", "TypeII"))
    for beta, q in (((0.5,), (0.5,)), ((0.5, 0.5), (0.5,)), ((0.5, 1.5), (0.5, 0.5)), ((0.5, 0.5), (-0.1, 0.5))):
        with pytest.raises(InvalidInstanceError):
            ServiceTarget(inst, beta, q)
    # a target above the unit supply builds, and every use rejects it
    over = ServiceTarget(inst, (0.9, 0.9), (0.9, 0.9))
    assert over.total_supply == pytest.approx(1.8)
    for use in (run_rationing, knapsack_reduction):
        with pytest.raises(InvalidInstanceError, match="supply shares exceed the unit supply"):
            use(inst, over)
    target = ServiceTarget(inst, (0.5, 0.5), (0.5, 0.5))
    assert target.n == 2
    assert target.x == (0.5, 0.5)
    assert target.total_supply == pytest.approx(1.0)
    assert target.single_unit() == SingleUnitInstance((0.5, 0.5))
    assert repr(target) == "ServiceTarget(beta=(0.5, 0.5), q=(0.5, 0.5), x=(0.5, 0.5))"


def test_exante_check_paths():
    inst = RationingInstance((UNIT, UNIT), ("TypeII", "TypeII"))
    target = exante_check(inst, (0.5, 0.5))
    assert target is not None
    assert target.x == pytest.approx((0.5, 0.5))
    # total supply above 1 comes back as None (not an error)
    assert exante_check(inst, (0.8, 0.8)) is None
    # per-agent infeasibility raises
    bad = RationingInstance((DemandLaw(((2.0, 1.0),)),), ("TypeI",))
    with pytest.raises(InfeasibleError):
        exante_check(bad, (0.5,))


def test_max_uniform_beta():
    inst = RationingInstance((UNIT, UNIT), ("TypeII", "TypeII"))
    assert max_uniform_beta(inst) == pytest.approx(0.5, abs=1e-9)
    solo = RationingInstance((UNIT,), ("TypeII",))
    assert max_uniform_beta(solo) == pytest.approx(1.0, abs=1e-9)
    # a top level one ulp below 1, which a walk to level 1 would round up
    # (sizes on the 1/100 grid, which no rounding moves)
    short = DemandLaw(
        ((0.0, 0.33909222305312164), (0.45, 0.3574131132086802), (0.8, 0.2129556774171016),
         (0.98, 0.09053898632109658))
    )
    assert max_uniform_beta(RationingInstance((short,), ("TypeII",))) == math.nextafter(1.0, 0.0)


def test_rem_distribution_validation():
    # the remaining supply is a dense vector on the 1/4 grid: a cap of 1/4
    # with probability 0.5 moves half of each atom one step down
    rem = np.array([0.1, 0.0, 0.3, 0.0, 0.6])
    after = _supply_step(rem, np.array([0.5, 0.5, 0.0, 0.0, 0.0]), "")
    assert after.tolist() == pytest.approx([0.1, 0.15, 0.15, 0.3, 0.3], abs=1e-15)
    assert after @ np.arange(5) / 4 == pytest.approx(rem @ np.arange(5) / 4 - 0.5 * 0.9 / 4, abs=1e-15)
    # its mass is held to MASS_TOL after every arrival
    with pytest.raises(InvariantViolationError, match="remaining-supply mass drifted"):
        _supply_step(np.array([0.5, 0.0, 0.5 + 5e-11]), np.array([1.0, 0.0, 0.0]), "")


@st.composite
def _grid_rationing_instance(draw, route):
    """2-5 agents, 1-3 demand atoms each on a 1/100 grid up to about 3/n;
    on the knapsack route one agent is Type-I."""
    n = draw(st.integers(2, 5))
    top = max(3, round(300 / n))
    demands = []
    for _ in range(n):
        k = draw(st.integers(1, 3))
        grid = draw(st.lists(st.integers(1, top), min_size=k, max_size=k, unique=True))
        weights = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
        probs = [w / sum(weights) for w in weights[:-1]]
        probs.append(1.0 - math.fsum(probs))
        demands.append(DemandLaw(tuple(zip((g / 100.0 for g in grid), probs))))
    service = draw(st.lists(st.sampled_from(("TypeII", "TypeIII")), min_size=n, max_size=n))
    if route == "knapsack":
        service[draw(st.integers(0, n - 1))] = "TypeI"
    return RationingInstance(tuple(demands), tuple(service))


@settings(max_examples=60)
@given(data=st.data(), route=st.sampled_from(("single-unit", "knapsack")))
def test_max_uniform_beta_is_certifiable_on_both_routes(data, route):
    # the level `ration --beta auto` promises must pass every later check
    inst = data.draw(_grid_rationing_instance(route))
    beta = max_uniform_beta(inst)
    assume(beta > 0.0)
    target = exante_check(inst, (beta,) * inst.n)
    assert target is not None
    assert target.total_supply <= 1.0
    if route == "knapsack":
        assert knapsack_reduction(inst, target).instance.total_mu <= 1.0 + 1e-12
    result = run_rationing(inst, target, mode="exact", seed=0)
    assert result.route == route
    assert result.guarantee_ok(), result.min_slack


@st.composite
def _any_rationing_instance(draw, max_n=6, types=("TypeI", "TypeII", "TypeIII")):
    """2-max_n agents of the given types (by default all three), 1-4 demand
    atoms each: zero demands, points of a 1/100 grid up to 2 (past 1) and
    off-grid values."""
    n = draw(st.integers(2, max_n))
    value = st.one_of(st.just(0.0), st.integers(1, 200).map(lambda g: g / 100.0), st.floats(0.001, 2.0))
    demands = []
    for _ in range(n):
        values = draw(st.lists(value, min_size=1, max_size=4, unique=True).filter(lambda v: max(v) > 0.0))
        weights = draw(st.lists(st.integers(1, 9), min_size=len(values), max_size=len(values)))
        probs = [w / sum(weights) for w in weights[:-1]]
        probs.append(1.0 - math.fsum(probs))
        demands.append(DemandLaw(tuple(zip(values, probs))))
    service = draw(st.lists(st.sampled_from(types), min_size=n, max_size=n))
    return RationingInstance(tuple(demands), tuple(service))


def _outcome(call, *args):
    try:
        return call(*args).hex()
    except InfeasibleError as exc:
        return str(exc)


@settings(max_examples=100)
@given(data=st.data())
def test_level_walk_and_newton_steps_match_the_bisection(data):
    # the walk reproduces the first-written one bit for bit, the uncut
    # table's share below its q is that of the table cut at q (a target's x)
    # bit for bit, and the common level lies in the bisection's final bracket
    inst = data.draw(_any_rationing_instance())
    betas = data.draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=4)) + [0.0, 1.0]
    grid = rounding_grid(inst)
    assert _rounding(inst) == grid
    for i, (law, stype) in enumerate(zip(inst.demands, inst.service)):
        top = _slices(law, stype, math.inf, grid)
        for b in betas + [math.inf]:
            q = _climb(top, b)[0]
            assert _share(_sizes(top, q)) == _share(_sizes(_slices(law, stype, q, grid)))
            if b == math.inf:
                continue
            walk = _outcome(solve_q_walk, law, stype, b, CROSSING_TOL, SUPPLY_TOL, grid)
            assert _outcome(solve_q_for_beta, inst, i, b) == walk
            if not walk.startswith("service level"):
                q = float.fromhex(walk)
                assert list(_sizes(_slices(law, stype, q, grid)).items()) == list(quantile_sizes_loop(law, q, grid).items())
    beta = max_uniform_beta(inst)
    lo, hi = max_uniform_beta_bisection(inst, CROSSING_TOL, SUPPLY_TOL)
    assert lo <= beta <= hi
    assert exante_check(inst, (beta,) * inst.n).total_supply <= 1.0


def test_supply_x_is_the_reduction_mean_to_the_bit():
    # demands 1.2 and 1.7 both buy size 1; both sides read one size table,
    # which adds their quantile lengths before weighting (summing them apart
    # gives 0.79 here, one ulp above the reduction's mean)
    inst = _alone(SHARED, "TypeI")
    target = ServiceTarget(inst, (0.3,), (1.0,))
    reduced = knapsack_reduction(inst, target).instance
    assert reduced.laws[0].mean == target.x[0] == 0.7899999999999999



@pytest.mark.parametrize("service", [("TypeII", "TypeIII"), ("TypeI", "TypeII")], ids=["single-unit", "knapsack"])
def test_target_of_another_instance_is_invalid_input(service):
    # A's target asks B's agent 0 for share 0.5, which q = 0.5 buys only 0.25 of
    target = exante_check(RationingInstance((UNIT, UNIT), service), (0.5, 0.5))
    other = RationingInstance((MIXED, UNIT), service)
    with pytest.raises(InvalidInstanceError, match="target was solved for another instance"):
        run_rationing(other, target)
    if "TypeI" in service:
        with pytest.raises(InvalidInstanceError, match="target was solved for another instance"):
            knapsack_reduction(other, target)


def test_foreign_target_with_matching_shares_is_invalid_input():
    # The Type-III target's quantiles buy the Type-II twin the same shares,
    # but serve its agent 0 too little: the target belongs to its instance.
    target = exante_check(RationingInstance((MIXED, UNIT), ("TypeIII", "TypeIII")), (0.5, 0.5))
    twin = RationingInstance((MIXED, UNIT), ("TypeII", "TypeII"))
    assert ServiceTarget(twin, target.beta, target.q).x == target.x
    for use in (run_rationing, knapsack_reduction):
        with pytest.raises(InvalidInstanceError, match="target was solved for another instance"):
            use(twin, target)


@pytest.mark.parametrize("service", [("TypeII", "TypeIII"), ("TypeI", "TypeII")], ids=["single-unit", "knapsack"])
def test_target_of_a_reloaded_instance_is_accepted(service):
    inst = RationingInstance((MIXED, UNIT), service)
    target = exante_check(inst, (0.4, 0.4))
    reloaded = instance_from_dict(instance_to_dict(inst))
    assert reloaded is not inst
    assert run_rationing(reloaded, target) == run_rationing(inst, target)
    if "TypeI" in service:
        assert knapsack_reduction(reloaded, target) == knapsack_reduction(inst, target)


def _accepted(inst, beta):
    try:
        return exante_check(inst, (beta,) * inst.n)
    except InfeasibleError:  # above some agent's own reach
        return None


@settings(max_examples=60)
@given(data=st.data())
def test_every_accepted_target_passes_the_knapsack_reduction(data):
    # push the common level to the largest one exante_check still accepts,
    # whose supply total may sit just above 1: the reduction must take it
    inst = data.draw(_grid_rationing_instance("knapsack"))
    lo = max_uniform_beta(inst)
    assume(lo > 0.0)
    hi = min(lo + 1e-8, 1.0)
    for _ in range(60):
        mid = (lo + hi) / 2
        if _accepted(inst, mid) is None:
            hi = mid
        else:
            lo = mid
    target = _accepted(inst, lo)
    assert target is not None
    red = knapsack_reduction(inst, target)
    assert red.instance.total_mu == target.total_supply
    for i, e in enumerate(red.element_of_agent):
        if e is not None:
            assert red.instance.laws[e].mean == target.x[i]


# --- threshold calibration ------------------------------------------------------


def _mixed_tau(rem, target, grid=4):
    """calibrate_tau's tau (t / L) for MIXED at q = 0.7 (sizes 0.5 and 1 on
    widths 0.5 and 0.2) against rem[k] = Pr[R = k/L]."""
    table = _slices(MIXED, ServiceType.TYPE_II, 0.7, None)
    steps = np.rint(np.array(table.size[:2]) * grid).astype(np.intp)
    return calibrate_tau(_min_means(np.array(rem)), steps, np.array(table.width[:2]), target) / grid


def test_calibrate_tau_examples():
    full = [0.0, 0.0, 0.0, 0.0, 1.0]
    # full supply and tau = 1 reproduce the ex-ante x
    assert _mixed_tau(full, 0.45) == pytest.approx(1.0)
    # kink: 0.7 tau below 0.5, then 0.25 + 0.2 tau; between grid points too
    assert _mixed_tau(full, 0.35) == pytest.approx(0.5, abs=1e-12)
    assert _mixed_tau(full, 0.07) == pytest.approx(0.1, abs=1e-12)
    assert _mixed_tau(full, 0.0) == 0.0
    assert _mixed_tau([0.0, 0.0, 1.0], 0.07, grid=2) == pytest.approx(0.1, abs=1e-12)


def test_calibrate_tau_unreachable_target():
    # caps: min(0.5, 0.25) * 0.5 + min(2, 0.25) * 0.2 = 0.175 max
    with pytest.raises(InvariantViolationError):
        _mixed_tau([0.0, 1.0, 0.0, 0.0, 0.0], 0.2)


def test_calibrate_tau_mixed_rem():
    # only the rem = 1 branch contributes: weights halve
    assert _mixed_tau([0.5, 0.0, 0.0, 0.0, 0.5], 0.225) == pytest.approx(1.0)
    # rem = 1/4 with probability 1/2: E[min(D, R, tau)] is 0.7 tau up to
    # 1/4, then 0.0875 + 0.35 tau
    assert _mixed_tau([0.0, 0.5, 0.0, 0.0, 0.5], 0.0875 + 0.35 * 0.4) == pytest.approx(0.4, abs=1e-12)


# --- single-unit route ----------------------------------------------------------


def two_agent_unit_instance():
    return RationingInstance((UNIT, UNIT), ("TypeII", "TypeII"))


def test_two_agent_worked_example_exact():
    inst = two_agent_unit_instance()
    target = exante_check(inst, (0.5, 0.5))
    result = run_rationing(inst, target, mode="exact", seed=1)
    assert result.route == "single-unit"
    assert result.plan.objective == pytest.approx(0.75, abs=1e-9)
    for agent in result.agents:
        assert agent.expected_alloc == pytest.approx(0.375, abs=1e-9)
        assert agent.expected_service == pytest.approx(0.75 * 0.5, abs=1e-9)
        assert agent.tau_f == pytest.approx(1.0, abs=1e-9)
        assert agent.tau_b == pytest.approx(1.0, abs=1e-9)
        assert agent.slack >= -1e-9
    assert result.rem_slack is not None and result.rem_slack >= -1e-9
    assert result.guarantee_ok()


def test_two_agent_explicit_plan_matches_default():
    inst = two_agent_unit_instance()
    target = exante_check(inst, (0.5, 0.5))
    plan = SelectionPlan((1.0, 0.5), (0.5, 1.0))
    result = run_rationing(inst, target, plan=plan, mode="exact", seed=1)
    assert result.agents[0].expected_alloc == pytest.approx(0.375, abs=1e-12)


def test_exact_mode_mixed_types():
    inst = RationingInstance((MIXED, UNIT, MIXED), ("TypeIII", "TypeII", "TypeII"))
    beta = 0.95 * max_uniform_beta(inst)
    target = exante_check(inst, (beta,) * 3)
    assert target is not None
    result = run_rationing(inst, target, mode="exact", seed=7)
    assert result.guarantee_ok()
    bound = result.plan.objective
    for agent in result.agents:
        assert agent.expected_service >= bound * agent.beta - 1e-9
        assert agent.bound == pytest.approx(
            agent.beta * (agent.c_f + agent.c_b) / 2.0, abs=1e-12
        )


def test_mc_agrees_with_exact_single_unit():
    inst = RationingInstance((MIXED, UNIT, MIXED), ("TypeIII", "TypeII", "TypeII"))
    beta = 0.9 * max_uniform_beta(inst)
    target = exante_check(inst, (beta,) * 3)
    exact = run_rationing(inst, target, mode="exact", seed=5)
    mc = run_rationing(inst, target, mode="mc", trials=100_000, seed=5)
    assert mc.estimates is not None
    for ex, sampled in zip(exact.agents, mc.agents):
        hw = (sampled.service_high - sampled.service_low) / 2.0
        assert abs(sampled.expected_service - ex.expected_service) <= 3.0 * hw
        assert abs(sampled.expected_alloc - ex.expected_alloc) <= 0.01


def test_executor_quantile_map_puts_each_cdf_value_in_the_upper_slice():
    # Both executors turn a uniform u into a demand by slice_index on the
    # CDF values, so u equal to a CDF value falls in the slice above it,
    # where inverse_cdf (the smallest atom whose CDF reaches u) takes the
    # lower atom.  Either is a quantile map: the two differ on a null set.
    law = DemandLaw(((0.5, 0.25), (1.0, 0.5), (3.0, 0.25)))
    sl = _slices(law, ServiceType.TYPE_II, 1.0, None)

    def executor(u):
        return np.array(sl.demand).take(slice_index(np.asarray(u, dtype=float), sl.upper[:-1])).tolist()

    grid = np.linspace(0.0, 1.0, 4001)[:-1]
    off = grid[~np.isin(grid, law.cum)]
    assert executor(off) == [inverse_cdf(law, u) for u in off.tolist()]
    assert executor(law.cum[:-1]) == [1.0, 3.0]
    assert [inverse_cdf(law, u) for u in law.cum[:-1]] == [0.5, 1.0]


@pytest.mark.parametrize("route", ["single-unit", "knapsack"])
def test_executor_rows_follow_the_allocation_rule(route):
    # One-row runs of the route's own executor: replaying two_orders on the
    # same seed recovers each arrival's uniform, and the one row's
    # ("alloc", tag, i) and ("service", tag, i) sums are its y and s.
    # The knapsack route admits an active agent whole, at min(d, 1), or not at all.
    # The single-unit route gives min(size, R, threshold), the threshold the
    # grid point above tau in the first fraction p of the row's slice, else
    # the one below; OFF_GRID_SU's sizes are rounded down onto 1/4096.
    if route == "single-unit":
        cases = [((MIXED, UNIT), ("TypeIII", "TypeII")), (OFF_GRID_SU.demands, OFF_GRID_SU.service)]
    else:
        # SHARED at Type-II and 0.4 has q near 0.68, past both size-1 slices' start
        # OFF_GRID fills with its sizes rounded up but allocates min(d, 1)
        cases = [
            ((MIXED, UNIT), ("TypeIII", "TypeI")),
            ((SHARED, UNIT), ("TypeII", "TypeI")),
            (OFF_GRID.demands, OFF_GRID.service),
        ]
    for demands, service in cases:
        inst = RationingInstance(demands, service)
        target = exante_check(inst, (0.4,) * inst.n)
        grid, rounding = size_grid(inst)[0], rounding_grid(inst)
        slices = target.tables
        built = (_knapsack_route if inst.has_type_i else _single_unit_route)(target, None)
        assert built.name == route
        seen = set()
        for seed in range(64):
            out = built.run(np.random.default_rng(seed), 1)
            rem = 1.0
            for tag, _, i, u in two_orders(np.random.default_rng(seed), 1, inst.n):
                if not u.size:  # the other order's half
                    continue
                law, u = inst.demands[i], float(u[0])
                (y, _, count), (s, _, _) = out[("alloc", tag[0], i)], out[("service", tag[0], i)]
                assert count == 1
                d = inverse_cdf(law, u)
                assert s == service_value(inst.service[i], y, d, law.mean)
                active = u < target.q[i]
                if not active:
                    assert y == 0.0
                elif route == "knapsack":
                    assert y in (0.0, min(d, 1.0))
                else:
                    table = slices[i]
                    j = int(slice_index(np.array([u]), table.upper[:-1])[0])
                    lower = table.upper[j - 1] if j else 0.0
                    low = math.floor(built.taus[i][order_row(tag)] * grid)
                    above = u - lower < (built.taus[i][order_row(tag)] * grid - low) * table.width[j]
                    assert y == min(rounded_size(d, rounding), rem, (low + above) / grid)
                seen.add((tag, active))
                rem -= y
            assert rem >= 0.0
        assert seen == {(tag, active) for tag in (FORWARD, BACKWARD) for active in (True, False)}


# Per-agent E[Y_i] and E[s_i] of the exact tables against the path
# enumeration: the walks differ from the propagation only in float rounding.
PATHS_TOL = 1e-12


def _assert_exact_tables_match_paths(inst, level):
    target = exante_check(inst, (level * max_uniform_beta(inst),) * inst.n)
    route = _single_unit_route(target, None)
    want = single_unit_paths(inst, target.q, route.taus)
    for tag, (alloc, service) in route.exact().items():
        assert alloc == pytest.approx(want[tag][0], rel=0.0, abs=PATHS_TOL)
        assert service == pytest.approx(want[tag][1], rel=0.0, abs=PATHS_TOL)


ZERO_DEMAND = DemandLaw(((0.0, 0.3), (0.8, 0.7)))  # Type-III: zero demand counts as served


@pytest.mark.parametrize(
    "demands, service",
    [
        ((UNIT, UNIT), ("TypeII", "TypeII")),
        ((MIXED, UNIT, MIXED), ("TypeIII", "TypeII", "TypeII")),
        ((SHARED, MIXED, UNIT), ("TypeII", "TypeIII", "TypeIII")),
        ((ZERO_DEMAND, SHARED, MIXED, UNIT), ("TypeIII", "TypeIII", "TypeII", "TypeII")),
        ((*OFF_GRID_SU.demands, MIXED), ("TypeIII", "TypeII", "TypeIII")),
    ],
    ids=["unit", "mixed", "shared", "zero-demand", "off-grid"],
)
@pytest.mark.parametrize("level", [0.6, 0.95, 1.0])
def test_single_unit_exact_tables_match_path_enumeration(demands, service, level):
    _assert_exact_tables_match_paths(RationingInstance(demands, service), level)


@settings(max_examples=60)
@given(inst=_any_rationing_instance(4, ("TypeII", "TypeIII")), level=st.sampled_from((0.5, 0.9, 1.0)))
def test_single_unit_exact_tables_match_path_enumeration_on_random_demands(inst, level):
    assume(max_uniform_beta(inst) > 0.0)
    _assert_exact_tables_match_paths(inst, level)


@pytest.mark.parametrize("service", [("TypeIII", "TypeII"), ("TypeIII", "TypeI")], ids=["single-unit", "knapsack"])
def test_exact_mode_ignores_the_seed(service):
    inst = RationingInstance((MIXED, UNIT), service)
    target = exante_check(inst, (0.4, 0.4))
    assert run_rationing(inst, target, seed=0) == run_rationing(inst, target, seed=7)


# --- knapsack route --------------------------------------------------------------


def half_demand_type_i(n=2):
    return RationingInstance((DemandLaw(((0.5, 1.0),)),) * n, ("TypeI",) * n)


def test_knapsack_route_half_demands():
    inst = half_demand_type_i()
    beta = 0.7
    target = exante_check(inst, (beta, beta))
    assert target is not None
    assert target.x == pytest.approx((0.35, 0.35))
    result = run_rationing(inst, target, mode="exact", seed=2)
    assert result.route == "knapsack"
    pair = (4.0 - 0.7) / 9.0
    for agent in result.agents:
        assert (agent.c_f + agent.c_b) / 2.0 == pytest.approx(pair, abs=1e-12)
        assert agent.expected_service == pytest.approx(pair * beta, abs=1e-12)
        assert agent.slack == pytest.approx(0.0, abs=1e-12)
        assert agent.tau_f is None and agent.tau_b is None
    assert result.guarantee_ok()


def test_knapsack_reduction_structure():
    inst = RationingInstance(
        (DemandLaw(((0.5, 1.0),)), MIXED), ("TypeI", "TypeIII")
    )
    target = exante_check(inst, (0.5, 0.5))
    red = knapsack_reduction(inst, target)
    assert red.instance.n == 2
    # sizes are min(d, 1) restricted to the below-q region
    law = red.instance.laws[1]
    assert all(0.0 < s <= 1.0 for s, _ in law.atoms)
    assert law.mean == pytest.approx(target.x[1], abs=1e-9)


def test_knapsack_route_skips_zero_supply_agents():
    zero_heavy = DemandLaw(((0.0, 0.6), (2.0, 0.4)))
    inst = RationingInstance(
        (DemandLaw(((0.5, 1.0),)), zero_heavy), ("TypeI", "TypeIII")
    )
    # q for agent 2 stays inside the zero-demand mass: x = 0, element skipped
    target = exante_check(inst, (0.5, 0.5))
    assert target.x[1] == 0.0
    result = run_rationing(inst, target, mode="exact", seed=9)
    skipped = result.agents[1]
    assert skipped.c_f is None and skipped.c_b is None
    # skipped agents are still held to the plan-level guarantee
    assert skipped.bound == pytest.approx(0.5 * result.plan.objective, abs=1e-12)
    # service accrues from the zero-demand mass below q plus the served tail
    assert skipped.expected_service == pytest.approx(0.6, abs=1e-12)
    assert result.guarantee_ok()


# Targets that buy no supply.  A Type-I agent whose demand exceeds the unit
# supply can never be served, so max_uniform_beta is 0 with one beside any
# other agent; a lone Type-I agent whose zero-demand atom covers its level
# is served there without any supply.
NO_SUPPLY = {
    "type-i-past-the-supply": RationingInstance(
        (DemandLaw(((0.5, 1.0),)), DemandLaw(((1.4, 0.5), (1.5, 0.5)))), ("TypeII", "TypeI")
    ),
    "type-i-zero-demand-level": RationingInstance((DemandLaw(((0.0, 0.39), (1.7, 0.17), (1.9, 0.44))),), ("TypeI",)),
}


@pytest.mark.parametrize("mode", ["exact", "mc"])
@pytest.mark.parametrize("name", list(NO_SUPPLY))
def test_target_that_buys_no_supply_runs_the_single_unit_route(name, mode):
    # every allocation is 0, so the single-unit route's service rule is
    # exact for a Type-I agent too: it is served only where its demand is 0
    inst = NO_SUPPLY[name]
    target = exante_check(inst, (max_uniform_beta(inst),) * inst.n)
    assert target.total_supply == 0.0
    result = run_rationing(inst, target, mode=mode, trials=20_000 if mode == "mc" else 0, seed=1)
    assert result.route == "single-unit"
    assert result.guarantee_ok(), result.min_slack
    for agent, law in zip(result.agents, inst.demands):
        assert agent.expected_alloc == 0.0
        if mode == "exact":
            zero = math.fsum(p for d, p in law.atoms if d == 0.0)
            assert agent.expected_service == pytest.approx(zero, abs=1e-12)
            assert agent.slack >= 0.0


def test_mc_agrees_with_exact_knapsack():
    # at SHARED's q near 0.77 two active slices buy the same size atom 1
    for law in (DemandLaw(((0.4, 0.5), (1.5, 0.5))), SHARED):
        inst = RationingInstance((DemandLaw(((0.5, 1.0),)), law), ("TypeI", "TypeII"))
        beta = 0.8 * max_uniform_beta(inst)
        target = exante_check(inst, (beta, beta))
        exact = run_rationing(inst, target, mode="exact", seed=4)
        mc = run_rationing(inst, target, mode="mc", trials=100_000, seed=4)
        for ex, sampled in zip(exact.agents, mc.agents):
            hw = (sampled.service_high - sampled.service_low) / 2.0
            assert abs(sampled.expected_service - ex.expected_service) <= 3.0 * hw


# Off-grid demands whose sizes just fit together; rounded up onto 1/4096
# the three no longer do, while either smaller one still fits beside the
# largest, so the admitted policy differs from the true one.
OFF_GRID = RationingInstance(
    (DemandLaw(((0.2500001, 1.0),)), DemandLaw(((0.2500001, 1.0),)), DemandLaw(((0.4999997, 0.5), (1.5, 0.5)))),
    ("TypeI", "TypeI", "TypeII"),
)


def test_mc_agrees_with_exact_on_off_grid_demands():
    beta = 0.8 * max_uniform_beta(OFF_GRID)
    target = exante_check(OFF_GRID, (beta,) * OFF_GRID.n)
    reduced = knapsack_reduction(OFF_GRID, target).instance
    run = run_knapsack_exact(reduced, closed_form_knapsack_plan(reduced))
    assert run.rounded and sum(ks[0] for ks in run.steps) > run.grid
    assert sum(law.atoms[0][0] for law in reduced.laws) < 1.0
    exact = run_rationing(OFF_GRID, target, mode="exact")
    mc = run_rationing(OFF_GRID, target, mode="mc", trials=100_000, seed=4)
    assert exact.guarantee_ok() and mc.guarantee_ok()
    for ex, sampled in zip(exact.agents, mc.agents):
        hw = (sampled.service_high - sampled.service_low) / 2.0
        assert abs(sampled.expected_service - ex.expected_service) <= 3.0 * hw


def _off_grid_rationing_instance(seed, n):
    """n agents, 1-3 demand atoms each uniform in (0.001, 3/n), so on no
    grid; agent 0 is Type-I, the rest of any type."""
    rng = np.random.default_rng(seed)
    demands = []
    for _ in range(n):
        values = sorted(set(rng.uniform(0.001, 3.0 / n, int(rng.integers(1, 4))).tolist()))
        probs = rng.dirichlet(np.ones(len(values)))[:-1].tolist()
        probs.append(1.0 - math.fsum(probs))
        demands.append(DemandLaw(tuple(zip(values, probs))))
    service = ["TypeI", *rng.choice(["TypeI", "TypeII", "TypeIII"], n - 1).tolist()]
    return RationingInstance(tuple(demands), tuple(service))


@pytest.mark.parametrize(
    "inst",
    [OFF_GRID, _off_grid_rationing_instance(0, 25), _off_grid_rationing_instance(5, 25)],
    ids=["three-agents", "seed-0-n-25", "seed-5-n-25"],
)
def test_max_uniform_beta_is_certifiable_on_off_grid_demands(inst):
    # at the level `ration --beta auto` picks the reduced total mean is 1, so
    # the sizes rounded up onto 1/4096 total past 1; every check must hold
    beta = max_uniform_beta(inst)
    target = exante_check(inst, (beta,) * inst.n)
    reduced = knapsack_reduction(inst, target).instance
    assert reduced.total_mu == pytest.approx(1.0, abs=1e-12)
    run = run_knapsack_exact(reduced, closed_form_knapsack_plan(reduced))
    grid = run.grid
    admitted = (math.fsum(k / grid * p for k, (_, p) in zip(ks, law.atoms)) for ks, law in zip(run.steps, reduced.laws))
    assert run.rounded and math.fsum(admitted) > 1.0
    result = run_rationing(inst, target, mode="exact", seed=0)
    assert result.route == "knapsack"
    assert result.guarantee_ok(), result.min_slack


def test_knapsack_route_explicit_plan():
    inst = half_demand_type_i()
    target = exante_check(inst, (0.7, 0.7))
    red = knapsack_reduction(inst, target)
    plan = closed_form_knapsack_plan(red.instance)
    result = run_rationing(inst, target, plan=plan, mode="exact", seed=2)
    assert result.agents[0].expected_service == pytest.approx(
        (4.0 - 0.7) / 9.0 * 0.7, abs=1e-12
    )


def test_rationing_reads_the_target_tables(monkeypatch):
    # the target cuts every agent's table once: run_rationing on both routes
    # and in both modes, and knapsack_reduction, cut none again
    targets = [(inst, exante_check(inst, (0.8 * max_uniform_beta(inst),) * inst.n)) for inst in (OFF_GRID, OFF_GRID_SU)]

    def runs():
        out = [run_rationing(inst, target, mode=mode, trials=2_000, seed=3)
               for inst, target in targets for mode in ("exact", "mc")]
        return out + [knapsack_reduction(*targets[0])]

    want = runs()
    calls = []
    cut = _slices
    monkeypatch.setattr("fbcrs.rationing._slices", lambda *args: calls.append(args) or cut(*args))
    got = runs()
    assert [r.route for r in got[:-1]] == ["knapsack", "knapsack", "single-unit", "single-unit"]
    assert calls == []
    assert got == want


# --- argument validation ----------------------------------------------------------


def test_run_rationing_validation():
    inst = two_agent_unit_instance()
    target = exante_check(inst, (0.5, 0.5))
    with pytest.raises(InvalidInstanceError):
        run_rationing(inst, target, mode="approximate")
    with pytest.raises(InvalidInstanceError):
        run_rationing(inst, target, mode="mc", trials=0)
    other = exante_check(RationingInstance((UNIT,), ("TypeII",)), (0.5,))
    with pytest.raises(InvalidInstanceError):
        run_rationing(inst, other)


def half_demand_type_i_ii():
    return RationingInstance((DemandLaw(((0.5, 1.0),)),) * 2, ("TypeI", "TypeII"))


@pytest.mark.parametrize("mode", ["exact", "mc"])
def test_run_rationing_rejects_wrong_plan_length(mode):
    # two agents on each route; the plan covers one
    plan = SelectionPlan((0.3,), (0.3,))
    for inst in (two_agent_unit_instance(), half_demand_type_i_ii()):
        target = exante_check(inst, (0.5, 0.5))
        with pytest.raises(InvalidInstanceError):
            run_rationing(inst, target, plan=plan, mode=mode, trials=1000)


def test_run_rationing_rejects_infeasible_plan():
    inst = two_agent_unit_instance()
    target = exante_check(inst, (0.5, 0.5))
    # both orders demand more than the whole unit up front
    with pytest.raises(InfeasibleError):
        run_rationing(inst, target, plan=SelectionPlan((1.0, 1.0), (1.0, 1.0)))


@pytest.mark.parametrize("mode", ["exact", "mc"])
def test_knapsack_route_rejects_infeasible_plan(mode):
    inst = half_demand_type_i_ii()
    target = exante_check(inst, (0.9, 0.9))
    # with c = 1 everywhere the second arrival needs c <= 1 - c_first - 0.45:
    # the plan violates the knapsack constraints by 1.45
    plan = SelectionPlan((1.0, 1.0), (1.0, 1.0))
    with pytest.raises(InfeasibleError):
        run_rationing(inst, target, plan=plan, mode=mode, trials=1000)


# --- randomized cross-checks -------------------------------------------------------


def _random_instance(rng, n=4):
    demands, service = [], []
    for _ in range(n):
        k = int(rng.integers(1, 4))
        values = np.sort(rng.choice(np.arange(1, 11) * 0.2, size=k, replace=False))
        probs = rng.random(k) + 0.1
        probs = probs / probs.sum()
        atoms = tuple(
            (float(v), float(p)) for v, p in zip(values[:-1], probs[:-1])
        ) + ((float(values[-1]), float(1.0 - math.fsum(probs[:-1]))),)
        demands.append(DemandLaw(atoms))
        service.append("TypeII" if rng.random() < 0.5 else "TypeIII")
    return RationingInstance(tuple(demands), tuple(service))


def _ration_mc_single_unit_instance(n, seed=5):
    """The benchmark's ration-mc single-unit recipe: 2 or 3 demand atoms per
    agent (alternating), one per stratum of a 1/100 grid up to about 3/n,
    weights uniform on [0.2, 1]; Type-II and Type-III agents alternate."""
    rng = np.random.default_rng(seed)
    top = max(3, round(300 / n))
    demands = []
    for i in range(n):
        k = 2 + i % 2
        edges = [round(j * top / k) for j in range(k + 1)]
        values = [int(rng.integers(edges[j] + 1, edges[j + 1] + 1)) / 100.0 for j in range(k)]
        w = rng.uniform(0.2, 1.0, k)
        probs = [float(v) for v in (w / w.sum())[:-1]]
        probs.append(1.0 - math.fsum(probs))
        demands.append(DemandLaw(tuple(zip(values, probs))))
    service = tuple("TypeII" if i % 2 == 0 else "TypeIII" for i in range(n))
    return RationingInstance(tuple(demands), service)


@pytest.mark.parametrize("n", [12, 14, 20, 40])
def test_ration_mc_recipe_certifies_in_exact_mode(n):
    # The remaining supply stays on the demands' 1/100 grid, one vector of
    # 101 entries, however many agents arrive, and exact mode certifies.
    inst = _ration_mc_single_unit_instance(n)
    target = exante_check(inst, (0.95 * max_uniform_beta(inst),) * n)
    result = run_rationing(inst, target, mode="exact", seed=0)
    assert result.route == "single-unit" and result.mode == "exact"
    assert (result.grid, result.rounded) == (100, False)
    assert result.guarantee_ok(), result.min_slack
    assert result.rem_slack >= -CALIBRATION_TOL


def _deterministic_first_arrival(sl, tau):
    """(E[Y], E[s]) of an agent that meets the whole unit supply with the
    threshold tau itself: y = min(size, tau) on every active slice."""
    k = sl.active.count(True)
    y = [min(size, tau) for size in sl.size[:k]]
    alloc = math.fsum(w * v for w, v in zip(sl.width, y))
    served = [w * (base + v / scale) for w, v, base, scale in zip(sl.width, y, sl.base, sl.scale)]
    return alloc, math.fsum(served + [w * base for w, base in zip(sl.width[k:], sl.base[k:])])


@pytest.mark.parametrize(
    "inst",
    [_ration_mc_single_unit_instance(14), RationingInstance((MIXED, UNIT, MIXED), ("TypeIII", "TypeII", "TypeII")),
     OFF_GRID_SU],
    ids=["recipe-14", "mixed", "off-grid"],
)
def test_first_arrival_matches_the_deterministic_threshold(inst):
    # At R = 1 every cap is a size, on the grid, so min(cap, .) is linear
    # between tau's two grid points and the mix changes nothing.
    target = exante_check(inst, (0.9 * max_uniform_beta(inst),) * inst.n)
    slices = target.tables
    route = _single_unit_route(target, None)
    tables = route.exact()
    for tag, first in ((FORWARD, 0), (BACKWARD, inst.n - 1)):
        alloc, service = _deterministic_first_arrival(slices[first], route.taus[first][order_row(tag)])
        assert tables[tag][0][first] == pytest.approx(alloc, rel=0.0, abs=1e-15)
        assert tables[tag][1][first] == pytest.approx(service, rel=0.0, abs=1e-15)


@settings(max_examples=40)
@given(inst=_any_rationing_instance(6, ("TypeII", "TypeIII")))
def test_exact_mode_certifies_max_uniform_beta_on_and_off_the_grid(inst):
    beta = max_uniform_beta(inst)
    assume(beta > 0.0)
    target = exante_check(inst, (beta,) * inst.n)
    result = run_rationing(inst, target, mode="exact")
    assert result.guarantee_ok(), result.min_slack
    grid = result.grid
    assert (grid, result.rounded) == size_grid(inst)
    for table in target.tables:
        for d, size, active in zip(table.demand, table.size, table.active):
            if active:
                assert round(size * grid) / grid == size <= min(d, 1.0)


def _off_grid_single_unit_instance(seed, n):
    """_off_grid_rationing_instance with every Type-I agent made Type-II."""
    inst = _off_grid_rationing_instance(seed, n)
    return RationingInstance(inst.demands, tuple("TypeII" if s == "TypeI" else s for s in inst.service))


def test_mc_agrees_with_exact_on_off_grid_single_unit_demands():
    inst = _off_grid_single_unit_instance(6, 8)
    target = exante_check(inst, (max_uniform_beta(inst),) * inst.n)
    exact = run_rationing(inst, target, mode="exact")
    mc = run_rationing(inst, target, mode="mc", trials=100_000, seed=2)
    assert exact.rounded and mc.rounded and exact.grid == mc.grid == 4096
    assert exact.guarantee_ok() and mc.guarantee_ok()
    for ex, sampled in zip(exact.agents, mc.agents):
        hw = (sampled.service_high - sampled.service_low) / 2.0
        assert abs(sampled.expected_service - ex.expected_service) <= 3.0 * hw


def test_mc_guarantee_at_the_max_uniform_level():
    # At max_uniform_beta the bound is tight for some agent, so its MC point
    # estimate falls below it on about half the seeds; guarantee_ok() allows
    # MC_HALF_WIDTHS interval half-widths of sampling error.
    inst = RationingInstance((UNIT, MIXED), ("TypeII", "TypeIII"))
    target = exante_check(inst, (max_uniform_beta(inst),) * 2)
    for seed in range(20):
        result = run_rationing(inst, target, mode="mc", trials=20_000, seed=seed)
        assert result.guarantee_ok(), (seed, result.min_slack)


def test_random_instances_exact_guarantee():
    rng = np.random.default_rng(31)
    for _ in range(6):
        inst = _random_instance(rng)
        beta = 0.9 * max_uniform_beta(inst)
        if beta <= 0.0:
            continue
        target = exante_check(inst, (beta,) * inst.n)
        if target is None:
            continue
        result = run_rationing(inst, target, mode="exact", seed=17)
        assert result.guarantee_ok(), result.min_slack
        assert result.plan.objective >= alpha_0(target.single_unit().rho) - 1e-9
