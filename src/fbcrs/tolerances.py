"""Every tolerance the library applies, in one table.

The paper's guarantees are certified by chains of checks: the LP plan feeds
the rationing calibration, the knapsack plan feeds fill propagation and then
the rate check, and Monte Carlo cross-checks the exact runs.  Each entry
below names the layer that produces the values it is applied to and the
checks that receive it.  Where a value crosses layers, the receiving check
applies the producing layer's entry or a looser one, so a value one layer
accepts is not rejected by the next.  Modules import their tolerances from
here and nowhere else.
"""

# --- inputs -------------------------------------------------------------------

# Probability sums and total masses.  Produced by instance files, the
# rationing service targets and the exact propagations; received by the
# SizeLaw, DemandLaw and KnapsackInstance constructors (mass sums, total mean
# size <= 1), by exante_check and the use-site check of knapsack_reduction
# and run_rationing (total supply share <= 1), by
# run_knapsack_exact's fill step and the rationing remaining-supply step
# (mass drift after each step), by the FiniteLaw constructor (the mass of a
# trace view), and by single_unit._bernoulli (a remaining mass at most this
# is 0/0, parameter 0).  exante_check and the use-site check apply the same
# entry to the same total, and each supply share and its element's mean size
# are computed from one size table (rationing._sizes), so they are equal bit
# for bit and a target the one accepts the other accepts.
MASS_TOL = 1e-12

# Per-agent service levels and quantiles in [0, 1].  Produced by the
# requested levels and solve_q_for_beta; received by ServiceTarget's range
# check and by solve_q_for_beta's top-of-range test.
SUPPLY_TOL = 1e-10

# Arguments of the selection curves.  Produced by callers of phi,
# phi_knapsack and gamma, closed_form_knapsack_plan's (2, n) array of window
# midpoints among them; received by the domain checks of phi (single_unit),
# phi_knapsack (knapsack) and gamma (lp_si).  closed_form_plan and
# dual_certificate_uniform evaluate their curves on arrays they build inside
# [0, rho] (closed_form_plan's window averages, single_unit._phi_average, on
# windows it clips at rho), so they apply no check.
CURVE_TOL = 1e-12

# --- plans ----------------------------------------------------------------------

# Selection LP.  Produced by both solver paths (lp_si); received by the
# simplex's pivot and ratio tests, by the window of splits tied with the
# best beta, by both paths' primal feasibility check, [0, 1] range check,
# certificate check and duality gap (lp_si._certify), by
# SelectionPlan.is_feasible, by DualFeasibilityReport.ok, by the CLI's
# primal-dual comparisons and by single_unit._bernoulli (a plan rate may
# exceed the remaining mass by this much).
LP_TOL = 1e-9

# Ordering of a knapsack plan's rates (the first arrival weakly largest).
# Produced by closed_form_knapsack_plan; received by check_knapsack_feasible.
MONOTONE_TOL = 1e-12

# --- exact propagation ----------------------------------------------------------

# Law boundaries resolve at this.  Nothing merges: both exact propagations
# and their Monte Carlo replays keep fills and remaining supply as integer
# grid steps k (the value k/L).  Produced by the b-grid and the law values a
# caller hands in; received by FiniteLaw's [0, 1] range check and by the CDF
# points of monitor_invariants and monitor_trace (b and 1 - b).
ATOM_TOL = 1e-12

# Feasibility.  Produced by plans and fill laws; received by
# KnapsackFeasibilityReport.ok, InvariantReport.ok, monitor_invariants and
# monitor_trace, and the reachability check of the fill step.
FEAS_TOL = 1e-9

# Planned against realized acceptance rates.  Produced by run_knapsack_exact;
# received by MonitorTraceReport.ok (the E[T] bookkeeping), the rationing
# knapsack route and the CLI's knapsack-min sweep bound.
RATE_TOL = 1e-10

# --- rationing calibration ------------------------------------------------------

# Crossing tests of the piecewise-linear walks: the service level reached
# by an activation quantile (rationing._climb, the walk of solve_q_for_beta
# and max_uniform_beta) and the allocation reached by a threshold on the
# remaining supply's grid (calibrate_tau's cumsum over the grid steps).
# Produced by float sums of segment lengths; received by those walks only.
CROSSING_TOL = 1e-15

# Rationing calibration.  Produced by the grid calibration (calibrate_tau)
# and the exact remaining-supply propagation; received by calibrate_tau's
# reachability check, the supply floor, allocation and service invariants of
# _exact_order, exact mode's guarantee check and
# RationingResult.guarantee_ok in both modes.
CALIBRATION_TOL = 1e-9

# --- Monte Carlo ------------------------------------------------------------------

# Confidence of every Monte Carlo interval (Wilson for rates, normal theory
# for means).  Produced by run_trials; received by the estimates' ci_low,
# ci_high and half_width.
MC_CONFIDENCE = 0.999

# A Monte Carlo estimate agrees with a bound when it misses it by at most
# MC_HALF_WIDTHS interval half-widths plus CALIBRATION_TOL, the absolute
# slack for agents whose service never varies.  Produced by run_rationing in
# mc mode; received by RationingResult.guarantee_ok and so by the exit code
# of `fbcrs ration --trials N`.
MC_HALF_WIDTHS = 3.0
