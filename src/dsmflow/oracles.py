"""Cross-checks for solver output.

Each check recomputes its answer along its own route: a damped Newton
iteration with line search, and a minimal-norm solve through a symmetric
eigendecomposition.  Tests compare these against the flow; agreement
within tolerance is the acceptance evidence.  The damped-Newton oracle is
not independent of the solver: it iterates on the solver's preconditioned
residual through :func:`~dsmflow.model.preconditioned_residual`,
:func:`~dsmflow.model.linearized_operator` and
:func:`~dsmflow.model.solve_linearized`.  The first forms ``f`` by the
stage's own gated rule, one product with ``A``'s cached inverse where
``kappa(A) <= 32`` and ``dgetrs`` elsewhere, and the last two are also the
small-pivot fallback of the flow's stage,
:func:`~dsmflow.model.newton_velocity`.  It shares neither the RK stepping
nor the stage's factorization of ``A + g'(u)`` or its Neumann sweeps.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InconsistentSystem, MaxIterations, NotSymmetric
from .hilbert import as_vector
from .model import linearized_operator, preconditioned_residual, solve_linearized

__all__ = [
    "OracleReport",
    "newton_oracle",
    "pseudoinverse_min_norm",
]

# damped-Newton line search: sufficient-decrease factor, step shrink, step floor
_ARMIJO = 1e-4
_BACKTRACK = 0.5
_MIN_STEP = 1e-12
# damped-Newton iteration budget
_MAX_ITER = 200
# pseudoinverse: eigenvalues at most this times the largest count as null
_RANK_RTOL = 1e-10
# pseudoinverse: nullspace mass of the right-hand side allowed, relative to |b|
_RESIDUAL_RTOL = 1e-8


@dataclass(frozen=True)
class OracleReport:
    solution: np.ndarray
    residual: float
    iterations: int


def newton_oracle(problem, tol=1e-10):
    """Solve the preconditioned equation by damped Newton with backtracking.

    Starts at ``problem.u0`` (pass ``replace(problem, u0=...)`` to start
    elsewhere) and iterates on ``f(u) = u + (L+eps*I)^{-1} g(u)``,
    accepting a step of length ``lam`` when
    ``|f(u + lam*d)| <= (1 - 1e-4*lam) |f(u)|``.
    The Newton direction solves with ``T = I + (L+eps*I)^{-1} g'(u)``, not
    with the flow's one-factorization stage (:func:`dsmflow.model.newton_velocity`).
    Stops when ``|f|`` falls below ``tol`` times its starting value
    (floored at 1e-14), and refuses a ``tol`` outside ``(0, 1)`` with
    ``ValueError``.  Raises :class:`MaxIterations` when the iteration
    budget (200) or the line search runs out.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    u = problem.u0.copy()
    f = preconditioned_residual(problem, u)
    pnorm = float(np.linalg.norm(f))
    stop_at = max(tol * pnorm, 1e-14)
    for it in range(_MAX_ITER):
        if pnorm <= stop_at:
            return OracleReport(solution=u, residual=pnorm, iterations=it)
        T = linearized_operator(problem, u)
        d = -solve_linearized(T, f)
        lam = 1.0
        while True:
            u_try = u + lam * d
            f_try = preconditioned_residual(problem, u_try)
            p_try = float(np.linalg.norm(f_try))
            if p_try <= (1.0 - _ARMIJO * lam) * pnorm:
                break
            lam *= _BACKTRACK
            if lam < _MIN_STEP:
                raise MaxIterations(
                    f"line search stalled at iteration {it} "
                    f"(residual {pnorm:.3e}, step {lam:.3e})")
        u, f, pnorm = u_try, f_try, p_try
    if pnorm <= stop_at:
        return OracleReport(solution=u, residual=pnorm, iterations=_MAX_ITER)
    raise MaxIterations(
        f"damped Newton did not reach residual {stop_at:.3e} "
        f"in {_MAX_ITER} iterations (got {pnorm:.3e})")


def _symmetric_eigh(L):
    """``(w, Q)`` with ``L = Q diag(w) Q^T``, ``w`` ascending, from ``np.linalg.eigh``.

    The oracles' own decomposition, which shares nothing with the solver's
    cached eigenvalues.  Raises :class:`NotSymmetric` unless ``L`` carries
    the ``self_adjoint`` flag, whose stored entries are exactly symmetric.
    """
    if not L.self_adjoint:
        raise NotSymmetric("the eigendecomposition oracles require the self_adjoint flag")
    return np.linalg.eigh(L.entries)


def pseudoinverse_min_norm(L, b):
    """Minimal-norm solution of ``L x = b`` for self-adjoint ``L``.

    Uses the symmetric eigendecomposition: components of ``b`` along
    eigenvectors with ``|lambda| <= 1e-10 * max|lambda|`` are treated as
    null directions.  Raises :class:`InconsistentSystem` when ``b`` has
    mass in the nullspace beyond ``1e-8 * |b|``, and :class:`NotSymmetric`
    for an ``L`` without the ``self_adjoint`` flag.
    """
    b = as_vector(b, dim=L.dim, name="right-hand side")
    w, Q = _symmetric_eigh(L)
    beta = Q.T @ b
    wmax = float(np.max(np.abs(w))) if w.size else 0.0
    cutoff = _RANK_RTOL * wmax
    keep = np.abs(w) > cutoff
    x = Q @ np.where(keep, beta / np.where(keep, w, 1.0), 0.0)
    residual = float(np.linalg.norm(L.apply(x) - b))
    bnorm = float(np.linalg.norm(b))
    if residual > _RESIDUAL_RTOL * max(bnorm, 1e-30) + 1e-14:
        raise InconsistentSystem(
            f"right-hand side is not in the range: residual {residual:.3e} "
            f"against |b| = {bnorm:.3e}")
    return x
