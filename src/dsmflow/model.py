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
import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, NotApplicable, SingularLinearization
from .hilbert import (DenseOperator, VectorH, _all_finite, _dgetrs, _getrf, _getrs, as_vector,
                      norm)

__all__ = [
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
    "certify_newton_bound",
    "check_trust_condition",
    "check_resolvent_bound",
    "check_sector",
    "fd_jacobian_check",
    "monotonicity_certificate",
]

_BOUNDARY_FRACTION = 0.5   # share of ball_samples on the boundary sphere
_SECTOR_GRID_SIZE = 64     # sector points probed for non-self-adjoint L
_MONOTONE_TOL = 1e-10      # slack of monotonicity_certificate's inequalities

#: Ball samples behind a Newton bound: a certified solve's and the
#: ``trust_condition`` tag's, each with the center prepended.
BOUND_SAMPLES = 64
#: Ball samples behind a monotonicity certificate of ``g``: the
#: ``monotone_g`` tag's and the one a continuation takes before its first level.
MONOTONE_SAMPLES = 32


@dataclass
class NonlinearMap:
    """Smooth map ``g: R^n -> R^n`` with an explicit Jacobian.

    ``fn`` and ``jac_fn`` receive a validated 1-D float array and return
    a new array each call: the flow keeps a stage's ``g(u)`` to record the
    residual at an accepted point.  Monotonicity is checked by
    :func:`monotonicity_certificate`.

    Calling the map, or :meth:`jacobian`, checks ``u`` with
    :func:`~dsmflow.hilbert.as_vector` and then the output's shape
    (:class:`DimensionMismatch`) and finiteness (``ValueError``).
    :func:`newton_velocity` and the sampled certificates check ``u`` once
    for both and call :meth:`_value` and :meth:`_jacobian`, which check
    only the output.
    """
    fn: callable
    jac_fn: callable
    name: str = "custom"
    params: dict = field(default_factory=dict)

    def __call__(self, u):
        return self._value(as_vector(u))

    def jacobian(self, u):
        return self._jacobian(as_vector(u))

    def _value(self, u):
        """``g(u)`` for a ``u`` that :func:`as_vector` has checked."""
        out = np.asarray(self.fn(u), dtype=float)
        if out.shape != u.shape:
            raise DimensionMismatch(
                f"map {self.name!r} returned shape {out.shape} for input shape {u.shape}")
        if not _all_finite(out):
            raise ValueError(f"map {self.name!r} returned non-finite values")
        return out

    def _jacobian(self, u):
        """``g'(u)`` for a ``u`` that :func:`as_vector` has checked."""
        J = np.asarray(self.jac_fn(u), dtype=float)
        if J.shape != (u.size, u.size):
            raise DimensionMismatch(
                f"map {self.name!r} Jacobian has shape {J.shape}, expected {(u.size, u.size)}")
        if not _all_finite(J):
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
    return problem.shifted.entries @ u + problem.g(u)


def preconditioned_residual(problem, u):
    """``u + (L + eps*I)^{-1} g(u)``: the quantity whose norm decays along the flow."""
    u = as_vector(u, dim=problem.dim)
    return u + problem.shifted.solve(problem.g(u))


def linearized_operator(problem, u):
    """Derivative ``I + (L + eps*I)^{-1} g'(u)`` of the preconditioned residual.

    The one place ``T`` is formed.  Wrapped as an operator for
    :func:`solve_linearized`, whose callers are the damped-Newton oracle and
    :func:`newton_velocity`'s small-pivot fallback, and for the SVD that
    :func:`estimate_newton_bound` takes at every sample.
    """
    u = as_vector(u, dim=problem.dim)
    J = problem.g.jacobian(u)
    T = np.eye(problem.dim) + problem.shifted.solve(J)
    return DenseOperator(T, _verified=True)


def solve_linearized(T, rhs):
    """Solve ``T x = rhs`` for a linearization ``T``, refusing near-singular systems.

    Used by the damped-Newton oracle and by :func:`newton_velocity` when the
    stage's one-LU route meets a small pivot.  A small LU pivot triggers an
    SVD recheck; the solve is refused only when the smallest singular value
    is at the noise floor.
    """
    rhs = as_vector(rhs, dim=T.dim, name="linearized right-hand side")
    lu, piv, minpiv = T._factorize()
    scale = max(1.0, float(np.abs(T.entries).max()))
    if minpiv < 1e-9 * scale:
        smin = T.smallest_singular_value()
        if smin < 1e-12:
            raise SingularLinearization(
                f"linearized operator is numerically singular "
                f"(smallest singular value {smin:.3e})")
    return _getrs(lu, piv, rhs)


def newton_velocity(problem, u):
    """Flow velocity ``-[F'(u)]^{-1} F(u)`` at ``u``, the residual norm ``|f(u)|`` and ``g(u)``.

    With ``A = L + eps*I``: ``f = u + A^{-1} g(u)`` comes from ``A``'s cached
    LU, and the velocity is ``v = -(A + g'(u))^{-1} (A f)``, one LU of
    ``M = A + g'(u)`` per call.  Both LUs come straight from LAPACK
    ``dgetrf``/``dgetrs`` (:mod:`dsmflow.hilbert`).  This equals
    ``-[I + A^{-1} g'(u)]^{-1} f`` without forming ``A^{-1} g'(u)``.  The
    right-hand side is ``A f`` rather than ``A u + g(u)``: both are
    ``F(u)``, but the latter cancels to an absolute error near machine
    epsilon, which ``M^{-1}`` magnifies by up to ``1/eps`` at deep shifts.

    Each array is checked once, and raises what ``A.solve`` and an LU of
    ``M`` would raise:

    - ``u`` is checked once by :func:`~dsmflow.hilbert.as_vector`
      (``ValueError``), then ``g._value(u)`` and ``g._jacobian(u)`` check
      their own outputs (``ValueError``, ``DimensionMismatch``); ``g(u)``
      is not scanned again.
    - ``A``'s pivots get the test of :meth:`DenseOperator.solve`
      (:class:`SingularOperator`), between ``g(u)`` and ``g'(u)``.
    - ``M`` is finite iff ``max|M|`` is, since NaN propagates through
      ``max``; that one reduction also scales the pivot test below
      (``ValueError``).
    - ``_getrf`` checks ``M``'s LU factors and ``_getrs`` checks ``A f``.

    When ``M`` has an LU pivot below ``1e-9 * max(1, max|M|)`` the velocity
    is taken from ``T = I + A^{-1} g'(u)`` through :func:`solve_linearized`
    instead, which raises :class:`SingularLinearization` when ``T`` is
    numerically singular.  A tiny pivot that comes from ``A`` alone is
    therefore not a refusal.  Returns ``(v, p, g(u))``, the last for
    :func:`~dsmflow.flow.integrate` to record ``F(u) = A u + g(u)``
    without evaluating ``g`` again.
    """
    A = problem.shifted
    u = as_vector(u)
    gu = problem.g._value(u)
    lu, piv = A._solve_factors(gu)
    f = u + _dgetrs(lu, piv, gu)
    M = A.entries + problem.g._jacobian(u)
    m_max = float(np.abs(M).max())
    if not math.isfinite(m_max):
        raise ValueError("matrix to factor contains non-finite entries")
    lu, piv = _getrf(M)
    if np.abs(lu.diagonal()).min() < 1e-9 * max(1.0, m_max):
        v = -solve_linearized(linearized_operator(problem, u), f)
    else:
        v = -_getrs(lu, piv, A.entries @ f)
    return v, math.sqrt(f.dot(f)), gu


# -- sampling -----------------------------------------------------------------------

def ball_samples(center, radius, count, *, seed=0):
    """Deterministic sample cloud in the closed ball around ``center``.

    The center comes first, followed by ``count`` drawn points: half of
    them sit on the boundary sphere, the rest are uniform in the ball.
    """
    center = as_vector(center, name="ball center")
    radius = float(radius)
    if not (math.isfinite(radius) and radius > 0.0):
        raise ValueError(f"ball radius must be finite and positive, got {radius}")
    if count < 1:
        raise ValueError(f"sample count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    n = center.size
    pts = [center.copy()]
    n_boundary = int(round(_BOUNDARY_FRACTION * count))
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
    ``max 1/sigma_min`` over the samples' linearizations
    ``T = I + A^{-1} g'(u)``, ``A = L + eps*I``, each formed by
    :func:`linearized_operator` and its smallest singular value taken from
    one SVD.  The estimate can only grow as samples are added.  Raises
    ``ValueError`` for a sample outside the trust ball and
    :class:`SingularLinearization` when a sample has ``sigma_min <= 1e-12``.

    This is the sampled route of :func:`certify_newton_bound`, which the
    certified solves and the ``trust_condition`` tag call.  That route
    applies unless the bound can be proven: for a self-adjoint psd ``L``
    with ``A`` positive definite and a monotone ``g`` it returns
    ``sqrt(kappa(A))/(1 - delta)`` without sampling ``T``.
    """
    if not samples:
        raise ValueError("need at least one sample point")
    worst_sigma = float("inf")
    for u in samples:
        u = as_vector(u, dim=problem.dim, name="sample")
        d = u - problem.u0
        if math.sqrt(d.dot(d)) > problem.radius * (1.0 + 1e-12):
            raise ValueError("sample point lies outside the trust ball")
        smin = linearized_operator(problem, u).smallest_singular_value()
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


def certify_newton_bound(problem, samples, monotone=None, design="user-supplied"):
    """Newton bound over the trust ball and the trust condition it implies.

    Returns ``(bound_cert, trust_cert)``: an INVERTIBLE certificate whose
    ``bound`` is at least ``|T(u)^{-1}|`` for ``T = I + A^{-1} g'(u)``,
    ``A = L + eps*I``, and the TRUST_CONDITION certificate built on it.
    Both the certified solve and the ``trust_condition`` tag call this.

    *Proof route*, :func:`_proven_bound`: for a self-adjoint psd ``L`` with
    ``A`` positive definite and a ``g`` that passes ``monotone``, the bound
    is ``sqrt(kappa(A))/(1 - delta)`` and the trust certificate compares
    the radius with a distance bound that takes one product with ``A``: no
    ``T`` is formed and no SVD taken.  It is taken when that distance fits
    in the radius.  ``monotone`` is a :func:`monotonicity_certificate` of
    ``g`` that the caller already holds: a build's ``monotone_g`` tag, or
    the one :func:`~dsmflow.continuation.solve_minimal_norm` takes before
    its first level and hands to every level.  With None, ``g`` is
    certified here on ``samples``.

    *Sampled route.*  Otherwise ``bound_cert`` is
    :func:`estimate_newton_bound` on ``samples`` and ``trust_cert`` is
    :func:`check_trust_condition` with its bound, both unchanged.  A proof
    whose distance bound exceeds the radius is not reported as a failed
    trust condition: the A-norm loses up to ``sqrt(kappa(A))`` where
    ``g'`` is small against ``A``, as for a constant ``g`` and a small
    shift of a singular ``L``, where ``T = I`` and the sampled bound is 1.
    """
    proven = _proven_bound(problem, samples, monotone)
    if proven is not None and proven[1].passed:
        return proven
    bound_cert = estimate_newton_bound(problem, samples, design=design)
    return bound_cert, check_trust_condition(problem, bound_cert.quantities["bound"])


def _proven_bound(problem, samples, monotone):
    """The proof route's ``(bound_cert, trust_cert)``, or None where it does not apply.

    It applies when ``L`` carries the verified ``self_adjoint`` and
    ``psd_claimed`` flags; ``L``'s entries equal their transpose exactly,
    so that the eigendecomposition ``L`` caches (taken of ``(L + L^T)/2``)
    is one of ``L`` itself; ``lam_lo > 0``; and ``g`` passes ``monotone``
    with ``delta = max(0, -min_jacobian_eigenvalue) / lam_lo < 1``.

    ``lam_lo <= lambda(A) <= lam_hi`` are ``L``'s extreme eigenvalues plus
    ``eps``, widened by ``2(n+1) u (|L|_F + eps)`` for the eigensolver
    (computed eigenvalues lie within ``2n u |L|_F`` of the exact ones,
    LAPACK Users' Guide §4.7, with ``p(n) = 2n``), the rounding of ``A``'s
    diagonal and that of ``w + eps``.

    With ``K = A^{-1/2} g' A^{-1/2}``, whose symmetric part is
    ``>= -delta I``, ``|T^{-1}|_A = |(I + K)^{-1}| <= 1/(1 - delta)`` in
    the norm ``|x|_A = sqrt(x^T A x)``, so ``|T^{-1}|`` is at most
    ``bound = sqrt(lam_hi/lam_lo)/(1 - delta)``.  Along the flow
    ``f(u(t)) = e^{-t} f0`` with ``f0 = u0 + A^{-1} g(u0)``, so the distance
    travelled is at most ``|f0|_A / (sqrt(lam_lo) (1 - delta))``, which the
    trust certificate compares with the radius.  ``|f0|_A^2`` is
    ``f0 . (A f0)`` plus ``gamma_{n+1} |A|_F |f0|^2`` for its rounding.
    The bound certificate keeps the sampled route's keys, with
    ``worst_sigma_min = 1/bound`` and the samples behind ``monotone`` as
    ``n_samples``; both name the route in ``detail``.
    """
    L = problem.L
    if not (L.self_adjoint and L.psd_claimed) or not np.array_equal(L.entries, L.entries.T):
        return None
    w = L.symmetric_eigen()[0]
    eps = problem.epsilon
    err = (L.dim + 1) * float(np.finfo(float).eps) * (float(np.linalg.norm(L.entries)) + eps)
    lam_lo = float(w[0]) + eps - err
    if not lam_lo > 0.0:
        return None
    lam_hi = float(w[-1]) + eps + err
    if monotone is None:
        monotone = monotonicity_certificate(problem.g, samples)
    delta = max(0.0, -monotone.quantities["min_jacobian_eigenvalue"]) / lam_lo
    if not (monotone.passed and delta < 1.0):
        return None
    bound = math.sqrt(lam_hi / lam_lo) / (1.0 - delta)
    bound_cert = Certificate(
        kind=CertificateKind.INVERTIBLE,
        passed=True,
        quantities={"bound": bound, "worst_sigma_min": 1.0 / bound,
                    "n_samples": monotone.quantities["n_samples"]},
        detail=f"route: proof, sqrt(kappa(A))/(1 - delta) for self-adjoint psd L "
               f"and monotone g, delta = {delta:.17g}")
    f0 = preconditioned_residual(problem, problem.u0)
    p0 = norm(f0)
    A = problem.shifted.entries
    n1_unit = 0.5 * (problem.dim + 1) * float(np.finfo(float).eps)
    f0_A_sq = (max(float(f0.dot(A @ f0)), 0.0)
               + n1_unit / (1.0 - n1_unit) * float(np.linalg.norm(A)) * p0 * p0)
    distance = math.sqrt(f0_A_sq) / (math.sqrt(lam_lo) * (1.0 - delta))
    margin = problem.radius - distance
    trust = Certificate(
        kind=CertificateKind.TRUST_CONDITION,
        passed=bool(margin >= 0.0),
        quantities={"p0": p0, "bound": bound, "radius": problem.radius, "margin": margin},
        detail=f"route: proof, margin = radius - |f0|_A / (sqrt(lambda_min(A)) (1 - delta)) "
               f"with distance bound {distance:.17g}")
    return bound_cert, trust


def check_trust_condition(problem, newton_bound):
    """Certify ``p0 * bound <= radius`` where ``p0`` is the start residual norm.

    Passing guarantees the flow cannot leave the trust ball, since the
    distance travelled is bounded by ``bound * p0``.  This is the sampled
    route's check in :func:`certify_newton_bound`; where that function
    proves the bound (self-adjoint psd ``L`` with ``A`` positive definite,
    monotone ``g``) it compares the radius with the tighter distance bound
    ``|f0|_A / (sqrt(lambda_min(A)) (1 - delta))`` instead.
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

    For self-adjoint ``L = Q diag(w) Q^T``, ``sigma_min(L + eps*I)`` is
    ``min |w + eps|`` from the eigendecomposition ``L`` caches; otherwise
    it is the smallest singular value of ``L + eps*I``, one SVD per shift.
    A shift at which ``L + eps*I`` is singular fails the certificate with
    an infinite ``worst_ratio``.
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
    if L.self_adjoint:
        w = L.symmetric_eigen()[0]
        sigmas = [float(np.abs(w + eps).min()) for eps in eps_grid]
    else:
        sigmas = [L.shifted(eps).smallest_singular_value() for eps in eps_grid]
    for eps, sigma in zip(eps_grid, sigmas):
        # a shift onto an eigenvalue leaves L + eps*I singular: fail, do not divide
        resolvent_norm = 1.0 / sigma if sigma > 0.0 else float("inf")
        limit = 1.0 / (eps * sin_delta)
        # when sigma_min sits exactly at eps (singular L), eigenvalue or SVD
        # rounding of order eps_mach * |L| moves 1/sigma by allowance; tolerate that
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


def check_sector(L, a, delta):
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
    n_radii = max(2, int(np.ceil(_SECTOR_GRID_SIZE / n_angles)))
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


def _min_eigenvalue_at_least(S, m):
    """Whether ``eigvalsh(S)[0] >= m`` is certain, from one Cholesky factorization.

    ``S`` is symmetric, ``s = |S|_F``, ``u`` is the unit roundoff,
    ``eps_mach = 2u`` and ``gamma_k = k u / (1 - k u)``.  ``eigvalsh``
    returns ``lambda_min(S)`` to within ``eta = 2n u s`` (LAPACK Users'
    Guide §4.7, with ``p(n) = 2n``), so ``lambda_min(S) >= m + eta``
    suffices.  The screen factors ``H = fl(S - tau I)`` with ``dpotrf``.
    Forming ``H`` moves each diagonal entry by at most
    ``u (|S_ii| + |tau|)``; a factorization that succeeds is exact for
    ``H + dH`` with ``|dH|_2 <= gamma_{n+1} trace(H) / (1 - gamma_{n+1})``
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    Thm 10.3), and ``trace(H) <= (1 + u)(sqrt(n) s + n |tau|)``.  So success
    proves ``lambda_min(S) >= tau - zeta'`` with, to first order,
    ``zeta' = (n + 1) u (sqrt(n) s + n |tau|) + u (s + |tau|)``.  Taking
    ``tau = m + eta + zeta`` with
    ``zeta = 8(n + 1) eps_mach (sqrt(n) s + n (|m| + eta))``, at least twice
    that, leaves room for the second-order terms and the rounding of ``tau``.
    """
    n = S.shape[0]
    eps_mach = float(np.finfo(float).eps)
    x = S.ravel()
    s = math.sqrt(x.dot(x))
    eta = n * eps_mach * s
    H = S.copy()
    H.flat[::n + 1] -= m + eta + 8.0 * (n + 1) * eps_mach * (math.sqrt(n) * s + n * (abs(m) + eta))
    # H is symmetric, so H.T is the Fortran-ordered array dpotrf factors in place
    _, info = scipy.linalg.lapack.dpotrf(H.T, clean=0, overwrite_a=1)
    return info == 0


def monotonicity_certificate(g, samples):
    """Certify monotonicity of ``g`` on a sample cloud.

    Checks the symmetrized Jacobian at every sample for eigenvalues below
    ``-tol`` and the secant inequality ``(g(u) - g(v), u - v) >= -tol`` on
    consecutive sample pairs, with ``tol = 1e-10``, which the certificate
    reports.  Each sample is checked once, and ``g`` and ``g'`` are
    evaluated once per sample.

    Only the smallest eigenvalue over the samples is reported, so after
    the first sample a sample pays for ``eigvalsh`` only when the Cholesky
    screen :func:`_min_eigenvalue_at_least` cannot prove that its computed
    smallest eigenvalue is at least the running minimum.  The result is
    bitwise that of ``eigvalsh`` at every sample.  The screen stops at the
    first sample it could not rule out that does not lower the minimum: a
    tie, as when ``g'`` is singular at every sample, where each later
    sample would pay for both.
    """
    if not samples:
        raise ValueError("need at least one sample point")
    tol = _MONOTONE_TOL
    min_eig = float("inf")
    min_secant = float("inf")
    prev = g_prev = None
    screen = True
    for u in samples:
        u = as_vector(u, name="sample")
        J = g._jacobian(u)
        S = 0.5 * (J + J.T)
        if not (screen and min_eig < float("inf") and _min_eigenvalue_at_least(S, min_eig)):
            w0 = float(np.linalg.eigvalsh(S)[0])
            screen = screen and w0 < min_eig
            min_eig = min(min_eig, w0)
        gu = g._value(u)
        if prev is not None:
            min_secant = min(min_secant, float(np.dot(gu - g_prev, u - prev)))
        prev, g_prev = u, gu
    if len(samples) < 2:
        min_secant = 0.0
    passed = min_eig >= -tol and min_secant >= -tol
    return Certificate(
        kind=CertificateKind.MONOTONE,
        passed=bool(passed),
        quantities={"min_jacobian_eigenvalue": min_eig,
                    "min_secant_product": min_secant,
                    "n_samples": float(len(samples)), "tol": tol})
