"""Exception hierarchy shared by all fbcrs modules.

The CLI maps these onto exit codes: invalid or infeasible inputs exit 3,
detected guarantee violations (and solver failures, which mean we cannot
certify anything) exit 2.
"""


class FbcrsError(Exception):
    """Base class for all fbcrs errors."""


class InvalidInstanceError(FbcrsError):
    """Malformed or inconsistent problem input (bad masses, indices, files)."""


class InfeasibleError(FbcrsError):
    """Structurally valid input that no plan/target can satisfy."""


class InvariantViolationError(FbcrsError):
    """A guarantee that should hold by construction failed a runtime check."""


class SolverError(FbcrsError):
    """The LP solver failed: no convergence within its iteration cap, or an
    unbounded or out-of-range solution."""
