"""Newton-flow solvers for ``L v + g(v) = 0`` on finite-dimensional spaces.

The flow ``du/dt = -[I + (L+eps)^{-1} g'(u)]^{-1} (u + (L+eps)^{-1} g(u))``
drives the preconditioned residual down exactly like ``exp(-t)``; that law
doubles as a built-in integrator self-check.  For well-posed problems the
flow converges inside a certified trust ball; for rank-deficient monotone
problems a shift continuation recovers the minimal-norm solution.

Quick start::

    from dsmflow import problems, continuation

    bundle = problems.wellposed_cubic(dim=10)
    sol = continuation.solve_newton_flow(bundle.problem)
    print(sol.v, sol.flow.decay_deviation)
"""

from .errors import (CertificateMismatch, DimensionMismatch, DsmError,
                     FlowFailed, InconsistentSystem, InnerSolveFailed,
                     MaxIterations, MonotonicityFailed, NonPsdOperator,
                     NotApplicable, NotSymmetric, ParseError,
                     SingularLinearization, SingularOperator, TMaxReachedError)
from .hilbert import DenseOperator, VectorH, as_vector, inner, norm
from .model import (Certificate, CertificateKind, DsmProblem, NonlinearMap,
                    ball_samples, certify_newton_bound, check_resolvent_bound,
                    check_sector, check_trust_condition, estimate_newton_bound,
                    fd_jacobian_check, full_residual, linearized_operator,
                    monotonicity_certificate, preconditioned_residual)
from .flow import (FlowConfig, FlowResult, FlowStatus, TrajectoryPoint,
                   decay_report, error_bound_check, integrate)
from .continuation import (EpsSchedule, ContinuationResult, NewtonFlowSolution,
                           discrepancy_stop, minimal_norm_diagnostics,
                           solve_minimal_norm, solve_newton_flow)
from .oracles import (membership_probe, newton_oracle, pseudoinverse_min_norm,
                      convexity_closedness_suite)
from .problems import (BUILTINS, ProblemBundle, ProblemSpec, load_problem,
                       save_problem)

__version__ = "0.1.0"

__all__ = [
    "DsmError", "DimensionMismatch", "SingularOperator", "NotSymmetric",
    "SingularLinearization", "NotApplicable", "NonPsdOperator",
    "MonotonicityFailed", "FlowFailed", "InnerSolveFailed", "MaxIterations",
    "InconsistentSystem", "TMaxReachedError", "ParseError", "CertificateMismatch",
    "VectorH", "DenseOperator", "as_vector", "inner", "norm",
    "NonlinearMap", "DsmProblem", "Certificate", "CertificateKind",
    "full_residual", "preconditioned_residual", "linearized_operator",
    "ball_samples", "estimate_newton_bound", "certify_newton_bound",
    "check_trust_condition",
    "check_resolvent_bound", "check_sector", "fd_jacobian_check",
    "monotonicity_certificate",
    "FlowConfig", "FlowStatus", "FlowResult", "TrajectoryPoint",
    "integrate", "decay_report", "error_bound_check",
    "EpsSchedule", "NewtonFlowSolution", "ContinuationResult",
    "solve_newton_flow", "solve_minimal_norm", "minimal_norm_diagnostics",
    "discrepancy_stop",
    "newton_oracle", "pseudoinverse_min_norm", "membership_probe",
    "convexity_closedness_suite",
    "ProblemSpec", "ProblemBundle", "BUILTINS", "load_problem", "save_problem",
    "__version__",
]
