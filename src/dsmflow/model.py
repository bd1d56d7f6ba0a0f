"""Problem model: nonlinear maps, problem instances, certificates.

The equation solved throughout is ``L v + g(v) = 0`` with ``L`` a dense
linear operator and ``g`` a smooth nonlinearity.  A :class:`DsmProblem`
additionally carries a start point, a trust radius around it, and an
optional shift ``epsilon`` that replaces ``L`` by ``L + epsilon*I`` in
every preconditioned quantity.

Certificates returned by the ``check_*`` functions record the numbers
behind a pass/fail verdict so callers can log or serialize them.
"""

import enum
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, NotApplicable, SingularLinearization
from .hilbert import DenseOperator, VectorH, as_vector, norm

__all__ = [
    "Bounds",
    "NonlinearMap",
    "DsmProblem",
    "CertificateKind",
    "Certificate",
    "full_residual",
    "preconditioned_residual",
    "linearized_operator",
    "solve_linearized",
    "newton_velocity",
    "ball_samples",
    "estimate_newton_bound",
    "check_trust_condition",
    "check_resolvent_bound",
    "check_sector",
    "fd_jacobian_check",
    "monotonicity_certificate",
]


@dataclass(frozen=True)
class Bounds:
    """Analytic sup bounds for a map and its first two derivatives on a ball."""
    value: float
    jacobian: float
    hessian: float


@dataclass
class NonlinearMap:
    """Smooth map ``g: R^n -> R^n`` with an explicit Jacobian.

    ``fn`` and ``jac_fn`` receive a validated 1-D float array.  ``bounds``,
    when present, are sup bounds valid on the trust ball of whatever problem
    the map is attached to.  ``monotone_claimed`` is an unchecked hint;
    verification happens via :func:`monotonicity_certificate`.
    """
    fn: callable
    jac_fn: callable
    name: str = "custom"
    params: dict = field(default_factory=dict)
    bounds: Bounds = None
    monotone_claimed: bool = False

    def __call__(self, u):
        u = as_vector(u)
        out = np.asarray(self.fn(u), dtype=float)
        if out.shape != u.shape:
            raise DimensionMismatch(
                f"map {self.name!r} returned shape {out.shape} for input shape {u.shape}")
        if not np.all(np.isfinite(out)):
            raise ValueError(f"map {self.name!r} returned non-finite values")
        return out

    def jacobian(self, u):
        u = as_vector(u)
        J = np.asarray(self.jac_fn(u), dtype=float)
        if J.shape != (u.size, u.size):
            raise DimensionMismatch(
                f"map {self.name!r} Jacobian has shape {J.shape}, expected {(u.size, u.size)}")
        if not np.all(np.isfinite(J)):
            raise ValueError(f"map {self.name!r} Jacobian has non-finite entries")
        return J


@dataclass(eq=False)
class DsmProblem:
    """One instance of ``L v + g(v) = 0`` with a start point and trust ball.

    ``epsilon`` shifts the linear part: all preconditioned quantities use
    ``L + epsilon*I``.  A singular ``L`` with ``epsilon == 0`` is accepted
    at construction (residual evaluation and set-membership queries remain
    meaningful); the singularity surfaces as :class:`SingularOperator` at
    the first preconditioned solve.
    """
    L: DenseOperator
    g: NonlinearMap
    u0: VectorH
    radius: float
    epsilon: float = 0.0
    shifted: DenseOperator = field(init=False, repr=False)

    def __post_init__(self):
        self.u0 = as_vector(self.u0, dim=self.L.dim, name="start point")
        self.radius = float(self.radius)
        if not np.isfinite(self.radius) or self.radius <= 0.0:
            raise ValueError(f"trust radius must be positive, got {self.radius}")
        self.epsilon = float(self.epsilon)
        if not np.isfinite(self.epsilon) or self.epsilon < 0.0:
            raise ValueError(f"epsilon must be nonnegative, got {self.epsilon}")
        # probe the nonlinearity once so shape errors surface here, not mid-flow
        self.g(self.u0)
        self.g.jacobian(self.u0)
        self.shifted = self.L if self.epsilon == 0.0 else self.L.shifted(self.epsilon)

    @property
    def dim(self):
        return self.L.dim

    def with_epsilon(self, eps):
        return replace(self, epsilon=float(eps))

    def with_start(self, u0, radius=None):
        return replace(self, u0=as_vector(u0, dim=self.dim, name="start point"),
                       radius=self.radius if radius is None else float(radius))


class CertificateKind(enum.Enum):
    TRUST_CONDITION = "trust_condition"
    RESOLVENT_BOUND = "resolvent_bound"
    SECTOR = "sector"
    MONOTONE = "monotone"
    INVERTIBLE = "invertible"


@dataclass(frozen=True)
class Certificate:
    """Outcome of a quantitative check, with the numbers that decided it."""
    kind: CertificateKind
    passed: bool
    quantities: dict
    detail: str = ""


# -- residuals and linearization ---------------------------------------------------

def full_residual(problem, u):
    """``(L + eps*I) u + g(u)``: the residual of the shifted equation."""
    u = as_vector(u, dim=problem.dim)
    return problem.shifted.apply(u) + problem.g(u)


def preconditioned_residual(problem, u):
    """``u + (L + eps*I)^{-1} g(u)``: the quantity whose norm decays along the flow."""
    u = as_vector(u, dim=problem.dim)
    return u + problem.shifted.solve(problem.g(u))


def linearized_operator(problem, u):
    """Derivative ``I + (L + eps*I)^{-1} g'(u)`` of the preconditioned residual."""
    u = as_vector(u, dim=problem.dim)
    J = problem.g.jacobian(u)
    T = np.eye(problem.dim) + problem.shifted.solve(J)
    return DenseOperator(T, _verified=True)


def solve_linearized(T, rhs):
    """Solve ``T x = rhs`` for a linearization ``T``, refusing near-singular systems.

    Used by the damped-Newton oracle only; the flow's stages go through
    :func:`newton_velocity`.  A small LU pivot triggers an SVD recheck; the
    solve is refused only when the smallest singular value is at the noise
    floor.
    """
    rhs = as_vector(rhs, dim=T.dim, name="linearized right-hand side")
    lu, piv, minpiv = T._factorize()
    scale = max(1.0, float(np.max(np.abs(T.entries))))
    if minpiv < 1e-9 * scale:
        smin = T.smallest_singular_value()
        if smin < 1e-12:
            raise SingularLinearization(
                f"linearized operator is numerically singular "
                f"(smallest singular value {smin:.3e})")
    return scipy.linalg.lu_solve((lu, piv), rhs)


def newton_velocity(problem, u):
    """Flow velocity ``-[F'(u)]^{-1} F(u)`` at ``u`` and the residual norm ``|f(u)|``.

    With ``A = L + eps*I``: ``f = u + A^{-1} g(u)`` comes from ``A``'s cached
    LU, and the velocity is ``v = -(A + g'(u))^{-1} (A f)``, one LU of
    ``M = A + g'(u)`` per call.  This equals ``-[I + A^{-1} g'(u)]^{-1} f``
    without forming ``A^{-1} g'(u)``.  The right-hand side is ``A f`` rather
    than ``A u + g(u)``: both are ``F(u)``, but the latter cancels to an
    absolute error near machine epsilon, which ``M^{-1}`` magnifies by up to
    ``1/eps`` at deep shifts.

    When ``M`` has an LU pivot below ``1e-9 * max(1, max|M|)`` the velocity
    is taken from ``T = I + A^{-1} g'(u)`` through :func:`solve_linearized`
    instead, which raises :class:`SingularLinearization` when ``T`` is
    numerically singular.  A tiny pivot that comes from ``A`` alone is
    therefore not a refusal.  Returns ``(v, p)``.
    """
    A = problem.shifted
    f = u + A.solve(problem.g(u))
    M = A.entries + problem.g.jacobian(u)
    with warnings.catch_warnings():
        # exactly singular M is handled by the pivot check below
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(M)
    if np.min(np.abs(np.diag(lu))) < 1e-9 * max(1.0, float(np.max(np.abs(M)))):
        v = -solve_linearized(linearized_operator(problem, u), f)
    else:
        v = -scipy.linalg.lu_solve((lu, piv), A.entries @ f)
    return v, float(np.linalg.norm(f))


# -- sampling -----------------------------------------------------------------------

def ball_samples(center, radius, count, *, seed=0, boundary_fraction=0.5,
                 include_center=True):
    """Deterministic sample cloud in the closed ball around ``center``.

    Half the points (by default) sit on the boundary sphere, the rest are
    uniform in the ball; the center itself is prepended when requested.
    """
    center = as_vector(center, name="ball center")
    radius = float(radius)
    if radius <= 0.0:
        raise ValueError(f"ball radius must be positive, got {radius}")
    if count < 1:
        raise ValueError(f"sample count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    n = center.size
    pts = []
    if include_center:
        pts.append(center.copy())
    n_boundary = int(round(boundary_fraction * count))
    for i in range(count):
        d = rng.standard_normal(n)
        d_norm = float(np.linalg.norm(d))
        if d_norm == 0.0:
            d = np.ones(n)
            d_norm = float(np.linalg.norm(d))
        d /= d_norm
        if i < n_boundary:
            r = radius
        else:
            r = radius * float(rng.uniform()) ** (1.0 / n)
        pts.append(center + r * d)
    return pts


# -- certificates -------------------------------------------------------------------

def estimate_newton_bound(problem, samples, design="user-supplied"):
    """Sampled sup bound for the inverse of the linearization over the trust ball.

    Returns an INVERTIBLE certificate whose ``bound`` quantity is
    ``max 1/sigma_min`` over the sample's linearizations.  The estimate can
    only grow as samples are added.  Raises :class:`SingularLinearization`
    when any sample point yields a numerically singular linearization.
    """
    if not samples:
        raise ValueError("need at least one sample point")
    worst_sigma = float("inf")
    for u in samples:
        u = as_vector(u, dim=problem.dim, name="sample")
        if norm(u - problem.u0) > problem.radius * (1.0 + 1e-12):
            raise ValueError("sample point lies outside the trust ball")
        T = linearized_operator(problem, u)
        smin = T.smallest_singular_value()
        if smin <= 1e-12:
            raise SingularLinearization(
                f"linearization singular at a sample point "
                f"(smallest singular value {smin:.3e})")
        worst_sigma = min(worst_sigma, smin)
    bound = 1.0 / worst_sigma
    return Certificate(
        kind=CertificateKind.INVERTIBLE,
        passed=True,
        quantities={"bound": bound, "worst_sigma_min": worst_sigma,
                    "n_samples": float(len(samples))},
        detail=f"sample design: {design}")


def check_trust_condition(problem, newton_bound):
    """Certify ``p0 * bound <= radius`` where ``p0`` is the start residual norm.

    Passing guarantees the flow cannot leave the trust ball, since the
    distance travelled is bounded by ``bound * p0``.
    """
    newton_bound = float(newton_bound)
    if newton_bound <= 0.0:
        raise ValueError(f"newton bound must be positive, got {newton_bound}")
    p0 = norm(preconditioned_residual(problem, problem.u0))
    margin = problem.radius - p0 * newton_bound
    return Certificate(
        kind=CertificateKind.TRUST_CONDITION,
        passed=bool(margin >= 0.0),
        quantities={"p0": p0, "bound": newton_bound,
                    "radius": problem.radius, "margin": margin})


def check_resolvent_bound(L, eps_grid, sector_delta=None):
    """Certify ``|(L + eps*I)^{-1}| <= 1/(eps*sin(delta))`` over an epsilon grid.

    For verified self-adjoint positive-semidefinite operators ``sin(delta)``
    is 1.  Otherwise ``sector_delta`` must be supplied (in radians, from a
    prior :func:`check_sector`); without it the check is
    :class:`NotApplicable`.
    """
    eps_grid = [float(e) for e in eps_grid]
    if not eps_grid or any(e <= 0.0 for e in eps_grid):
        raise ValueError("epsilon grid must be nonempty with positive entries")
    if L.self_adjoint and L.psd_claimed:
        sin_delta = 1.0
    elif sector_delta is not None:
        sector_delta = float(sector_delta)
        if not 0.0 < sector_delta <= np.pi / 2.0:
            raise ValueError(f"sector angle must lie in (0, pi/2], got {sector_delta}")
        sin_delta = float(np.sin(sector_delta))
    else:
        raise NotApplicable(
            "resolvent bound needs a self-adjoint psd operator or an explicit sector angle")
    min_margin = float("inf")
    worst_ratio = 0.0
    passed = True
    tol = 1e-9
    eps_mach = float(np.finfo(float).eps)
    opn = L.operator_norm()
    for eps in eps_grid:
        shifted = L.shifted(eps)
        resolvent_norm = 1.0 / shifted.smallest_singular_value()
        limit = 1.0 / (eps * sin_delta)
        # when sigma_min sits exactly at eps (singular L), SVD rounding of
        # order eps_mach * |L| moves 1/sigma by allowance; tolerate that
        allowance = 1e3 * eps_mach * (opn + eps) * limit ** 2
        margin = limit - resolvent_norm
        min_margin = min(min_margin, margin)
        worst_ratio = max(worst_ratio, resolvent_norm / limit)
        if resolvent_norm > limit + tol + allowance:
            passed = False
    return Certificate(
        kind=CertificateKind.RESOLVENT_BOUND,
        passed=passed,
        quantities={"n_eps": float(len(eps_grid)), "min_margin": min_margin,
                    "worst_ratio": worst_ratio, "sin_delta": sin_delta})


def check_sector(L, a, delta, grid_size=64):
    """Certify that no spectrum sits in the truncated sector around the negative axis.

    The sector is ``{ -r e^{i phi} : 0 < r <= a, |phi| <= delta }``.  For
    self-adjoint operators this reduces to excluding eigenvalues in
    ``[-a, 0)``.  For general operators a grid of sector points is probed
    through the smallest singular value of ``L - z I`` in the real
    embedding of the complexified space.
    """
    a = float(a)
    delta = float(delta)
    if a <= 0.0:
        raise ValueError(f"sector radius must be positive, got {a}")
    if not 0.0 < delta <= np.pi / 2.0:
        raise ValueError(f"sector half-angle must lie in (0, pi/2], got {delta}")
    opn = L.operator_norm()
    if L.self_adjoint:
        w, _ = L.symmetric_eigen()
        bad = w[(w >= -a) & (w < 0.0)]
        passed = bad.size == 0
        inside = w[(w < 0.0)]
        if passed:
            # distance from [-a, 0) to the nearest eigenvalue outside it
            below = w[w < -a]
            dist_below = float(-a - below.max()) if below.size else float("inf")
            nonneg = w[w >= 0.0]
            dist_above = float(nonneg.min()) if nonneg.size else float("inf")
            margin = min(dist_below, dist_above)
            if margin == float("inf"):
                margin = a
        else:
            margin = float(bad.max() - (-a)) if bad.size else 0.0
        return Certificate(
            kind=CertificateKind.SECTOR,
            passed=bool(passed),
            quantities={"a": a, "delta": delta, "margin": float(margin),
                        "n_grid": float(w.size)},
            detail="self-adjoint spectrum check")
    # general case: probe grid points z in the sector.  sigma_min(L - z*I)
    # is 1-Lipschitz in z and vanishes at eigenvalues, so if it exceeds the
    # grid's covering radius at every grid point, no eigenvalue can hide
    # between them: the pass is a proof, not a heuristic.
    n_angles = 9
    n_radii = max(2, int(np.ceil(grid_size / n_angles)))
    radii = np.geomspace(a * 1e-3, a, n_radii)
    angles = np.linspace(-delta, delta, n_angles)
    dphi = 2.0 * delta / (n_angles - 1)
    covering = float(radii[0]) * float(np.hypot(1.0, 0.5 * dphi))
    for rk, rk1 in zip(radii, radii[1:]):
        covering = max(covering, float(np.hypot(0.5 * (rk1 - rk), 0.5 * rk1 * dphi)))
    floor = 1e-12 * (opn + a)
    worst = float("inf")
    n = L.dim
    for r in radii:
        for phi in angles:
            z = -r * np.exp(1j * phi)
            x, y = float(z.real), float(z.imag)
            # real embedding of (L - z I) acting on C^n
            M = np.block([[L.entries - x * np.eye(n), y * np.eye(n)],
                          [-y * np.eye(n), L.entries - x * np.eye(n)]])
            smin = float(np.linalg.svd(M, compute_uv=False)[-1])
            worst = min(worst, smin)
    return Certificate(
        kind=CertificateKind.SECTOR,
        passed=bool(worst > covering + floor),
        quantities={"a": a, "delta": delta, "margin": worst - covering,
                    "covering_radius": covering,
                    "n_grid": float(len(radii) * len(angles))},
        detail="grid resolvent probe")


def fd_jacobian_check(g, u, h=1e-5):
    """Max relative column defect between ``g.jacobian`` and central differences."""
    u = as_vector(u)
    h = float(h)
    if not 1e-8 <= h <= 1e-4:
        raise ValueError(f"step size must lie in [1e-8, 1e-4], got {h}")
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


def monotonicity_certificate(g, samples, tol=1e-10):
    """Certify monotonicity of ``g`` on a sample cloud.

    Checks the symmetrized Jacobian at every sample for eigenvalues below
    ``-tol`` and the secant inequality ``(g(u) - g(v), u - v) >= -tol`` on
    consecutive sample pairs.
    """
    if not samples:
        raise ValueError("need at least one sample point")
    tol = float(tol)
    min_eig = float("inf")
    min_secant = float("inf")
    prev = None
    for u in samples:
        u = as_vector(u, name="sample")
        J = g.jacobian(u)
        w = np.linalg.eigvalsh(0.5 * (J + J.T))
        min_eig = min(min_eig, float(w[0]))
        if prev is not None:
            du = u - prev
            min_secant = min(min_secant,
                             float(np.dot(g(u) - g(prev), du)))
        prev = u
    if len(samples) < 2:
        min_secant = 0.0
    passed = min_eig >= -tol and min_secant >= -tol
    return Certificate(
        kind=CertificateKind.MONOTONE,
        passed=bool(passed),
        quantities={"min_jacobian_eigenvalue": min_eig,
                    "min_secant_product": min_secant,
                    "n_samples": float(len(samples)), "tol": tol})
