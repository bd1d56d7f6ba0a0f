"""Acceptance evidence that only the tests call, and a test-only constructor.

The solution-set probes (:func:`membership_probe`,
:func:`convexity_closedness_suite`), the finite-difference Jacobian check
(:func:`fd_jacobian_check`), the sampled monotonicity witness
(:func:`monotonicity_witness`) and the post-hoc distance-bound check
(:func:`error_bound_check`) judge solver output and builtin maps; nothing
in the library or the benchmark calls them.  :func:`diagonal_operator`
builds the diagonal operators many tests start from.
"""

from dataclasses import dataclass

import numpy as np

from dsmflow.flow import FlowStatus
from dsmflow.hilbert import DenseOperator, as_vector, norm
from dsmflow.model import full_residual
from dsmflow.oracles import _RANK_RTOL, _symmetric_eigh, pseudoinverse_min_norm

# membership probe: probe points, and the relative tolerance on (F(z), z - w)
_PROBE_SAMPLES = 200
_PROBE_TOL = 1e-9
# solution-set suite: residual allowed at a solution, relative to max(|b|, 1)
_SUITE_TOL = 1e-9
_FD_STEP = 1e-5            # central-difference step of fd_jacobian_check


def diagonal_operator(values):
    """The self-adjoint operator ``diag(values)``, flagged psd when no value is negative."""
    d = np.asarray(values, dtype=float)
    return DenseOperator(np.diag(d), self_adjoint=True, psd_claimed=bool(np.all(d >= 0.0)))


@dataclass(frozen=True)
class MembershipReport:
    member: bool
    margin: float
    n_samples: int
    radii: tuple
    seed: int


def membership_probe(problem, w, z_samples=None, seed=0):
    """Monte Carlo test of ``w`` belonging to the solution set of a monotone equation.

    For monotone ``F`` every solution ``w`` satisfies ``(F(z), z - w) >= 0``
    for all ``z``; a single violating ``z`` disproves membership.  Probes
    Gaussian clouds of 66 points each at small, unit and large radius
    around ``w`` (or the supplied ``z_samples``), and counts ``z`` as
    violating when ``(F(z), z - w) < -1e-9 (1 + |z|)(1 + |F(z)|)``.
    ``member`` is the verdict, ``margin`` the most negative raw inner
    product observed.  An empty ``z_samples`` raises ``ValueError``: with
    no probe, ``member`` would hold for any ``w``.

    The probe addresses the unshifted equation, so it requires
    ``problem.epsilon == 0``.
    """
    if problem.epsilon != 0.0:
        raise ValueError("membership probe addresses the unshifted equation; "
                         "call it on a problem with epsilon == 0")
    if z_samples is not None and len(z_samples) == 0:
        raise ValueError("need at least one probe point")
    w = as_vector(w, dim=problem.dim, name="candidate")
    rng = np.random.default_rng(seed)
    scale = 1.0 + norm(w)
    radii = (1e-3 * scale, 0.3 * scale, 3.0 * scale)
    if z_samples is None:
        z_samples = []
        per = _PROBE_SAMPLES // len(radii)
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
        if raw < -_PROBE_TOL * (1.0 + norm(z)) * (1.0 + float(np.linalg.norm(Fz))):
            member = False
    return MembershipReport(member=member, margin=margin,
                            n_samples=len(z_samples), radii=radii, seed=seed)


@dataclass(frozen=True)
class SolutionSetReport:
    trials: int
    all_passed: bool
    max_residual: float
    detail: str = ""


def convexity_closedness_suite(L, b, trials=100, seed=0):
    """Probe convexity and closedness of the affine solution set of ``L x = b``.

    The solution set of a linear equation is an affine subspace; this
    suite verifies the two properties the solver relies on, numerically:
    convex combinations of solutions solve the equation, and limits of
    solution sequences solve it too.  Each trial draws two random
    solutions (minimal-norm plus nullspace components), checks the
    residual at interior combination points, then follows a convergent
    sequence of solutions and checks its limit; a residual above
    ``1e-9 max(|b|, 1)`` fails the trial.  ``L`` must carry the
    ``self_adjoint`` flag, else :class:`NotSymmetric` is raised.
    """
    b = as_vector(b, dim=L.dim, name="right-hand side")
    x_star = pseudoinverse_min_norm(L, b)
    w, Q = _symmetric_eigh(L)
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
            if r > _SUITE_TOL:
                all_passed = False
        # closedness: a Cauchy sequence of solutions has a solution limit
        target = xb - xa
        limit = xa + target
        for j in (1, 2, 4, 8):
            xj = xa + (1.0 - 2.0 ** -j) * target
            r = float(np.linalg.norm(L.apply(xj) - b)) / bnorm
            max_residual = max(max_residual, r)
            if r > _SUITE_TOL:
                all_passed = False
        r_lim = float(np.linalg.norm(L.apply(limit) - b)) / bnorm
        max_residual = max(max_residual, r_lim)
        if r_lim > _SUITE_TOL:
            all_passed = False
    return SolutionSetReport(trials=trials, all_passed=all_passed,
                             max_residual=max_residual,
                             detail=f"nullspace dimension {N.shape[1]}")


def fd_jacobian_check(g, u):
    """Max relative column defect between ``g.jacobian`` and central differences."""
    u = as_vector(u)
    h = _FD_STEP
    J = g.jacobian(u)
    n = u.size
    worst = 0.0
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        col_fd = (g(u + e) - g(u - e)) / (2.0 * h)
        col = J[:, j]
        denom = max(float(np.linalg.norm(col)), float(np.linalg.norm(col_fd)), 1e-30)
        worst = max(worst, float(np.linalg.norm(col - col_fd)) / denom)
    return worst


def monotonicity_witness(g, samples):
    """Sampled evidence of ``g``'s monotonicity: ``(eigenvalues, secants)``, two arrays.

    ``eigenvalues[i]`` is the smallest eigenvalue of ``(J + J^T)/2`` for
    ``J = g'(u_i)``.  It is ``eigvalsh``'s for a matrix ``J``, and for the
    dense :meth:`~dsmflow.model.NonlinearMap.jacobian` of a map that
    declares a ``jac_basis``, whose ``d`` is not ``J``'s diagonal; for the
    diagonal that ``jac_fn`` hands over for a componentwise map it is the
    diagonal's minimum, and 0 for ``jac_fn=None``.  That minimum is what
    ``eigvalsh`` returns bitwise, since LAPACK splits a diagonal matrix into
    1 x 1 blocks, unless ``eigvalsh`` rescales the matrix (largest entry
    nonzero and outside about ``[1e-146, 1e146]``).  ``secants[i]`` is
    ``(g(u_{i+1}) - g(u_i), u_{i+1} - u_i)`` over consecutive samples.  ``g``
    and ``g'`` are evaluated once per sample.

    A declared ``jac_floor`` must lie at or below every eigenvalue, and a
    monotone ``g`` leaves every secant product nonnegative up to rounding.
    """
    eigenvalues, secants = [], []
    prev = g_prev = None
    for u in samples:
        u = as_vector(u, name="sample")
        # a declared basis's d is not g'(u)'s diagonal: take the dense matrix
        J = g._jacobian(u) if g.jac_basis is None else g.jacobian(u)
        if J is None:
            eigenvalues.append(0.0)
        elif J.ndim == 1:
            eigenvalues.append(float(J.min()))
        else:
            eigenvalues.append(float(np.linalg.eigvalsh(0.5 * (J + J.T))[0]))
        gu = g._value(u)
        if prev is not None:
            secants.append(float(np.dot(gu - g_prev, u - prev)))
        prev, g_prev = u, gu
    return np.array(eigenvalues), np.array(secants)


def error_bound_check(result, newton_bound):
    """Check the distance bounds implied by exponential decay, post hoc.

    For a converged run with inverse-linearization bound ``m``, every
    recorded point must satisfy ``|u(t) - u_final| <= m * p0 * exp(-t)``
    and ``|u(t) - u(0)| <= m * p0`` (both up to ``1e-7 * p0`` slack for
    the residual left at the stopping time).  Returns ``(ok, max_ratio)``
    where ``max_ratio`` is the worst observed ratio of distance to bound.
    """
    if result.status is not FlowStatus.RESIDUAL_CONVERGED:
        raise ValueError("error bound check requires a converged flow result")
    m = float(newton_bound)
    if m <= 0.0:
        raise ValueError(f"newton bound must be positive, got {m}")
    u_final = result.u_final
    u_start = result.trajectory[0].u
    slack = 1e-7 * result.p0
    ok = True
    max_ratio = 0.0
    for pt in result.trajectory:
        bound_final = m * result.p0 * np.exp(-pt.t) + slack
        bound_start = m * result.p0 + slack
        d_final = norm(pt.u - u_final)
        d_start = norm(pt.u - u_start)
        max_ratio = max(max_ratio,
                        d_final / bound_final if bound_final > 0 else 0.0,
                        d_start / bound_start if bound_start > 0 else 0.0)
        if d_final > bound_final or d_start > bound_start:
            ok = False
    return ok, max_ratio
