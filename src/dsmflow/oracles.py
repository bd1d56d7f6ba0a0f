"""Independent cross-checks for solver output.

Everything in this module recomputes its answer along a route that shares
no algorithmic machinery with the flow integrator: a damped Newton
iteration with line search, a minimal-norm solve through a symmetric
eigendecomposition, and Monte Carlo probes of the solution set's geometry.
Tests compare these against the flow; agreement within tolerance is the
acceptance evidence.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .errors import InconsistentSystem, MaxIterations
from .hilbert import as_vector, norm
from .model import full_residual, linearized_operator, preconditioned_residual, solve_linearized

__all__ = [
    "OracleMethod",
    "OracleReport",
    "MembershipReport",
    "SolutionSetReport",
    "newton_oracle",
    "pseudoinverse_min_norm",
    "membership_probe",
    "convexity_closedness_suite",
]

# damped-Newton line search: sufficient-decrease factor, step shrink, step floor
_ARMIJO = 1e-4
_BACKTRACK = 0.5
_MIN_STEP = 1e-12
# pseudoinverse: eigenvalues at most this times the largest count as null
_RANK_RTOL = 1e-10
# pseudoinverse: nullspace mass of the right-hand side allowed, relative to |b|
_RESIDUAL_RTOL = 1e-8


class OracleMethod(enum.Enum):
    DAMPED_NEWTON = "damped_newton"
    PSEUDOINVERSE = "pseudoinverse"
    MEMBERSHIP_PROBE = "membership_probe"


@dataclass(frozen=True)
class OracleReport:
    solution: np.ndarray
    residual: float
    iterations: int
    method: OracleMethod


def newton_oracle(problem, u0=None, tol=1e-10, max_iter=200):
    """Solve the preconditioned equation by damped Newton with backtracking.

    Iterates on ``f(u) = u + (L+eps*I)^{-1} g(u)``, accepting a step of
    length ``lam`` when ``|f(u + lam*d)| <= (1 - 1e-4*lam) |f(u)|``.
    The Newton direction solves with ``T = I + (L+eps*I)^{-1} g'(u)``, not
    with the flow's one-LU stage route (:func:`dsmflow.model.newton_velocity`).
    Stops when ``|f|`` falls below ``tol`` times its starting value
    (floored at 1e-14).  Raises :class:`MaxIterations` when the iteration
    or line-search budget runs out.
    """
    u = as_vector(problem.u0 if u0 is None else u0, dim=problem.dim).copy()
    f = preconditioned_residual(problem, u)
    pnorm = float(np.linalg.norm(f))
    stop_at = max(tol * pnorm, 1e-14)
    for it in range(max_iter):
        if pnorm <= stop_at:
            return OracleReport(solution=u, residual=pnorm, iterations=it,
                                method=OracleMethod.DAMPED_NEWTON)
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
        return OracleReport(solution=u, residual=pnorm, iterations=max_iter,
                            method=OracleMethod.DAMPED_NEWTON)
    raise MaxIterations(
        f"damped Newton did not reach residual {stop_at:.3e} "
        f"in {max_iter} iterations (got {pnorm:.3e})")


def pseudoinverse_min_norm(L, b):
    """Minimal-norm solution of ``L x = b`` for self-adjoint ``L``.

    Uses the symmetric eigendecomposition: components of ``b`` along
    eigenvectors with ``|lambda| <= 1e-10 * max|lambda|`` are treated as
    null directions.  Raises :class:`InconsistentSystem` when ``b`` has
    mass in the nullspace beyond ``1e-8 * |b|``.
    """
    b = as_vector(b, dim=L.dim, name="right-hand side")
    w, Q = L.symmetric_eigen()
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


@dataclass(frozen=True)
class MembershipReport:
    member: bool
    margin: float
    n_samples: int
    radii: tuple
    seed: int


def membership_probe(problem, w, z_samples=None, n_samples=200, seed=0, tol=1e-9):
    """Monte Carlo test of ``w`` belonging to the solution set of a monotone equation.

    For monotone ``F`` every solution ``w`` satisfies ``(F(z), z - w) >= 0``
    for all ``z``; a single violating ``z`` disproves membership.  Probes
    Gaussian clouds at small, unit and large radius around ``w`` (or the
    supplied ``z_samples``).  ``member`` is the verdict, ``margin`` the
    most negative raw inner product observed.

    The probe addresses the unshifted equation, so it requires
    ``problem.epsilon == 0``.
    """
    if problem.epsilon != 0.0:
        raise ValueError("membership probe addresses the unshifted equation; "
                         "call it on a problem with epsilon == 0")
    w = as_vector(w, dim=problem.dim, name="candidate")
    rng = np.random.default_rng(seed)
    scale = 1.0 + norm(w)
    radii = (1e-3 * scale, 0.3 * scale, 3.0 * scale)
    if z_samples is None:
        z_samples = []
        per = max(1, n_samples // len(radii))
        for r in radii:
            for _ in range(per):
                z_samples.append(w + r * rng.standard_normal(problem.dim)
                                 / np.sqrt(problem.dim))
    margin = float("inf")
    member = True
    for z in z_samples:
        z = as_vector(z, dim=problem.dim, name="probe point")
        Fz = full_residual(problem, z)
        raw = float(np.dot(Fz, z - w))
        margin = min(margin, raw)
        if raw < -tol * (1.0 + norm(z)) * (1.0 + float(np.linalg.norm(Fz))):
            member = False
    return MembershipReport(member=member, margin=margin,
                            n_samples=len(z_samples), radii=radii, seed=seed)


@dataclass(frozen=True)
class SolutionSetReport:
    trials: int
    all_passed: bool
    max_residual: float
    detail: str = ""


def convexity_closedness_suite(L, b, trials=100, seed=0, tol=1e-9):
    """Probe convexity and closedness of the affine solution set of ``L x = b``.

    The solution set of a linear equation is an affine subspace; this
    suite verifies the two properties the solver relies on, numerically:
    convex combinations of solutions solve the equation, and limits of
    solution sequences solve it too.  Each trial draws two random
    solutions (minimal-norm plus nullspace components), checks the
    residual at interior combination points, then follows a convergent
    sequence of solutions and checks its limit.
    """
    b = as_vector(b, dim=L.dim, name="right-hand side")
    x_star = pseudoinverse_min_norm(L, b)
    w, Q = L.symmetric_eigen()
    wmax = float(np.max(np.abs(w))) if w.size else 0.0
    null_mask = np.abs(w) <= _RANK_RTOL * max(wmax, 1e-30)
    N = Q[:, null_mask]
    rng = np.random.default_rng(seed)
    bnorm = max(float(np.linalg.norm(b)), 1.0)
    max_residual = 0.0
    all_passed = True
    for _ in range(trials):
        if N.shape[1] > 0:
            xa = x_star + N @ rng.standard_normal(N.shape[1])
            xb = x_star + N @ rng.standard_normal(N.shape[1])
        else:
            xa = x_star.copy()
            xb = x_star.copy()
        # convexity: interior points of the segment are solutions
        for s in (0.25, 0.5, 0.75):
            xc = (1.0 - s) * xa + s * xb
            r = float(np.linalg.norm(L.apply(xc) - b)) / bnorm
            max_residual = max(max_residual, r)
            if r > tol:
                all_passed = False
        # closedness: a Cauchy sequence of solutions has a solution limit
        target = xb - xa
        limit = xa + target
        for j in (1, 2, 4, 8):
            xj = xa + (1.0 - 2.0 ** -j) * target
            r = float(np.linalg.norm(L.apply(xj) - b)) / bnorm
            max_residual = max(max_residual, r)
            if r > tol:
                all_passed = False
        r_lim = float(np.linalg.norm(L.apply(limit) - b)) / bnorm
        max_residual = max(max_residual, r_lim)
        if r_lim > tol:
            all_passed = False
    return SolutionSetReport(trials=trials, all_passed=all_passed,
                             max_residual=max_residual,
                             detail=f"nullspace dimension {N.shape[1]}")
