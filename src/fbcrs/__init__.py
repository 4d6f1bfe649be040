"""Forward-backward contention resolution schemes and fair rationing.

An element set arrives in one of two opposite orders, chosen by a fair coin.
A selection plan assigns each element an acceptance probability per order;
the guarantee is the worst pair mean over elements.  The package covers the
single-unit scheme (closed form and instance-optimal LP with dual
certificates), the knapsack scheme with exact fill-law propagation, and the
reduction from fair rationing with Type-I/II/III service to both.
"""

from .errors import (
    FbcrsError,
    InfeasibleError,
    InvalidInstanceError,
    InvariantViolationError,
    SolverError,
)
from .instances import (
    BACKWARD,
    FORWARD,
    DemandLaw,
    KnapsackInstance,
    RationingInstance,
    ServiceType,
    SingleUnitInstance,
    SizeLaw,
    dump_instance,
    instance_from_dict,
    instance_to_dict,
    knapsack_hardness_instance,
    load_instance,
)
from .knapsack import (
    Branches,
    FiniteLaw,
    InvariantReport,
    KnapsackExactResult,
    KnapsackFeasibilityReport,
    MonitorTraceReport,
    check_knapsack_feasible,
    closed_form_knapsack_plan,
    monitor_invariants,
    monitor_trace,
    phi_knapsack,
    run_knapsack_exact,
    run_knapsack_mc,
)
from .lp_si import (
    DualCertificate,
    DualFeasibilityReport,
    SelectionPlan,
    alpha_0,
    certify_lp_si,
    check_certificate,
    dual_certificate_uniform,
    dual_feasibility,
    gamma,
    solve_lp_si,
)
from .rationing import (
    AgentReport,
    KnapsackReduction,
    RationingResult,
    ServiceTarget,
    calibrate_tau,
    exante_check,
    knapsack_reduction,
    max_uniform_beta,
    run_rationing,
    solve_q_for_beta,
)
from .sim import MeanEstimate, RateEstimate, run_trials, stream, wilson_interval
from .single_unit import (
    closed_form_plan,
    exact_selection_rates,
    mc_selection_rates,
    phi,
)

__version__ = "0.1.0"

__all__ = [
    "AgentReport",
    "BACKWARD",
    "Branches",
    "DemandLaw",
    "DualCertificate",
    "DualFeasibilityReport",
    "FbcrsError",
    "FiniteLaw",
    "FORWARD",
    "InfeasibleError",
    "InvalidInstanceError",
    "InvariantReport",
    "InvariantViolationError",
    "KnapsackExactResult",
    "KnapsackFeasibilityReport",
    "KnapsackInstance",
    "KnapsackReduction",
    "MeanEstimate",
    "MonitorTraceReport",
    "RateEstimate",
    "RationingInstance",
    "RationingResult",
    "SelectionPlan",
    "ServiceTarget",
    "ServiceType",
    "SingleUnitInstance",
    "SizeLaw",
    "SolverError",
    "alpha_0",
    "calibrate_tau",
    "certify_lp_si",
    "check_certificate",
    "check_knapsack_feasible",
    "closed_form_knapsack_plan",
    "closed_form_plan",
    "dual_certificate_uniform",
    "dual_feasibility",
    "dump_instance",
    "exact_selection_rates",
    "exante_check",
    "gamma",
    "instance_from_dict",
    "instance_to_dict",
    "knapsack_hardness_instance",
    "knapsack_reduction",
    "load_instance",
    "max_uniform_beta",
    "mc_selection_rates",
    "monitor_invariants",
    "monitor_trace",
    "phi",
    "phi_knapsack",
    "run_knapsack_exact",
    "run_knapsack_mc",
    "run_rationing",
    "run_trials",
    "solve_lp_si",
    "solve_q_for_beta",
    "stream",
    "wilson_interval",
]
