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
# The inverse-free Newton-bound screen gives up a share c ~ kappa(A)^2 * eps
# of w^2 to rounding, which the T^T T screen does not.  Past 1e-6 that share
# starts to matter on near-tied samples, and each sample it fails to rule out
# pays an SVD: on shifted singular_monotone continuations, where most samples
# tie at sigma_min = 1, a limit of 1/2 took about 15% more SVDs than the
# T^T T screen and 1e-6 took 0.4% more.
_INVERSE_FREE_MAX_C = 1e-6


@dataclass
class NonlinearMap:
    """Smooth map ``g: R^n -> R^n`` with an explicit Jacobian.

    ``fn`` and ``jac_fn`` receive a validated 1-D float array and return
    a new array each call: the flow keeps a stage's ``g(u)`` to record the
    residual at an accepted point.  ``monotone_claimed`` is an unchecked
    hint; verification happens via :func:`monotonicity_certificate`.

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
    monotone_claimed: bool = False

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

    Wrapped as an operator for :func:`solve_linearized`, whose callers are
    the damped-Newton oracle and :func:`newton_velocity`'s small-pivot
    fallback.  :func:`estimate_newton_bound` forms the same matrix, without
    the wrapper, only for the samples whose SVD it takes.
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

def ball_samples(center, radius, count, *, seed=0, include_center=True):
    """Deterministic sample cloud in the closed ball around ``center``.

    Half the points sit on the boundary sphere, the rest are
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

def _inverse_free_screen(A):
    """Per-call data ``(A A^T, sigma_A, k, c)`` of the inverse-free screen, or None.

    None when ``A`` is too ill-conditioned for the screen to pay; the terms
    are defined in :func:`estimate_newton_bound`.
    """
    n = A.dim
    eps_mach = float(np.finfo(float).eps)
    unit = 0.5 * eps_mach
    gram = A.entries @ A.entries.T
    # the cached SVD of A (A.solve needs its norm) less its own error
    sigma = A.smallest_singular_value() - 2.0 * n * unit * float(np.linalg.norm(A.entries))
    # the rounding bounds assume no underflow: sigma_A^2 >= 1e-270 keeps the
    # absolute error of subnormal products (2^-1074 each) far inside the margin
    if sigma < 1e-135:
        return None
    lu = A._factorize()[0]
    # |L|_F |U|_F for the unit lower and the upper triangle of the LU
    lu_norms = np.sqrt(n + np.linalg.norm(np.tril(lu, -1)) ** 2) * np.linalg.norm(np.triu(lu))
    k = 3.0 * n * unit / (1.0 - 3.0 * n * unit) * lu_norms / sigma
    c = 4.0 * n * eps_mach * float(np.trace(gram)) / sigma ** 2
    if c >= _INVERSE_FREE_MAX_C or k >= 0.5:
        return None
    return gram, sigma, k, c


def estimate_newton_bound(problem, samples, design="user-supplied"):
    """Sampled sup bound for the inverse of the linearization over the trust ball.

    Returns an INVERTIBLE certificate whose ``bound`` quantity is
    ``max 1/sigma_min`` over the samples' linearizations
    ``T = I + A^{-1} g'(u)``, ``A = L + eps*I``.  The estimate can only grow
    as samples are added.  Raises :class:`SingularLinearization` when a
    sample whose SVD is taken has ``sigma_min <= 1e-12``.

    This is the sampled route of :func:`certify_newton_bound`, which the
    certified solves and the ``trust_condition`` tag call.  That route
    applies unless the bound can be proven: for a self-adjoint psd ``L``
    with ``A`` positive definite and a monotone ``g`` it returns
    ``sqrt(kappa(A))/(1 - delta)`` without sampling ``T``.

    Only the minimum is reported, so after the first sample a sample pays
    for an SVD only when it could lower the running minimum ``w``.  A
    screen first builds a symmetric ``H`` that is positive definite only if
    the SVD of the sample would return a value ``>= w``, and runs one
    Cholesky factorization (``dpotrf``) of it.  If that succeeds the sample
    is skipped; otherwise ``T`` is formed as ``I + A.solve(g'(u))`` and its
    SVD taken.  So the result is bitwise the one of an SVD at every sample,
    and skipped samples cannot trip the singularity refusal, since
    ``w > 1e-12``.  There are two screens, chosen once per call.

    Below, ``u`` is the unit roundoff, ``eps_mach = 2u``,
    ``gamma_k = k u / (1 - k u)`` and ``|.|_F`` the Frobenius norm (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., §3.5,
    Thm 9.4 and Thm 10.5); the computed singular values of a matrix ``X``
    are within ``2n u |X|_F`` of the exact ones (LAPACK Users' Guide, §4.9,
    with ``p(n) = 2n``).

    *Inverse-free screen.*  With ``M = A + g'(u)``, ``T = A^{-1} M``, and for
    ``y = A^T z``, ``|T^T y|^2 - w^2 |y|^2 = z^T (M M^T - w^2 A A^T) z``, so
    ``sigma_min(T) >= w`` iff ``M M^T - w^2 A A^T`` is positive
    semidefinite.  ``A A^T`` is formed once per call; a sample costs ``M``,
    one product ``M M^T``, a subtraction and the Cholesky of
    ``H = M M^T - tau A A^T``, and ``T`` is formed only for samples that
    take an SVD.  With ``s_M`` and ``s_A`` the traces of the computed
    ``M M^T`` and ``A A^T``, and ``sigma_A`` the cached ``sigma_min(A)`` of
    ``A``'s SVD (``A.solve`` takes it for its norm) less its own error
    ``2n u |A|_F``, the margin covers:

    - Screen rounding.  ``M M^T``, ``tau A A^T``, the subtraction and the
      Cholesky leave a backward error below
      ``4n eps_mach (s_M + tau s_A)`` in 2-norm, at least twice their
      first-order sum ``u ((2n + 2) s_M + (n + 2) tau s_A)``, which leaves
      room for second-order terms and the rounding of ``tau``.  Since
      ``|z| <= |y| / sigma_A``, success proves
      ``sigma_min(A^{-1} fl(M))^2 >= tau (1 - c) - 4n eps_mach s_M / sigma_A^2``
      with ``c = 4n eps_mach s_A / sigma_A^2``.
    - Rounding of ``M``.  ``|fl(M) - M| <= u |M|`` moves
      ``sigma_min(A^{-1} M)`` by at most ``mu = u sqrt(s_M) / sigma_A``.
    - Solve error.  The SVD runs on ``T_hat = fl(I + getrs(A, g'(u)))``.
      Each column of the solve is exact for ``A + dA`` with
      ``|dA|_2 <= gamma_3n |L_hat|_F |U_hat|_F`` from ``A``'s cached LU, so
      with ``k = gamma_3n |L_hat|_F |U_hat|_F / sigma_A`` and
      ``x_b = |g'(u)|_F / (sigma_A (1 - k))``, which bounds the computed
      ``|A^{-1} g'(u)|_F``, ``|T_hat - T|_2 <= rho = k x_b + u (sqrt(n) + x_b)``.
    - SVD error.  ``eta = 2n u (sqrt(n) + x_b) >= 2n u |T_hat|_F``.

    The sample is skipped iff ``H`` factors with
    ``tau (1 - c) = (w + mu + rho + eta)^2 + 4n eps_mach s_M / sigma_A^2``:
    then ``sigma_min(T) >= w + rho + eta``, ``sigma_min(T_hat) >= w + eta``
    and the computed ``sigma_min`` is ``>= w``.  An overflow in ``M M^T``
    makes ``tau`` infinite, and the Cholesky fails.

    *``T^T T`` screen.*  ``c`` grows like ``kappa(A)^2``, and the
    inverse-free screen gives up ``c tau`` of ``w^2``, so at deep shifts it
    rules out fewer near-ties.  It is therefore used only when
    ``c < 1e-6``, ``k < 1/2`` and ``sigma_A >= 1e-135`` (the bounds above
    assume no underflow); otherwise every sample forms ``T`` and the screen
    factors ``G - (w^2 + delta) I`` with ``G = fl(T^T T)``,
    ``delta = 8n eps_mach (s + w^2)`` and ``s = trace(G)``.  Its errors:
    the Gram product, ``|E1|_2 <= gamma_n |T|_F^2``; the diagonal shift,
    ``|E2|_2 <= u (s + 2 tau)``; the Cholesky,
    ``|E3|_2 <= gamma_{n+1} s / (1 - gamma_{n+1})``; and the SVD, which
    returns a value ``>= w`` once
    ``sigma_min(T)^2 >= w^2 + 2 w eta + eta^2`` with ``eta = 2n u |T|_F``
    and ``2 w eta <= 2n u (w^2 + |T|_F^2)``.  To first order these sum to
    ``u ((4n + 2) s + (2n + 2) w^2) <= 4n eps_mach (s + w^2)``, and
    ``delta`` leaves a factor 2 for the second-order terms.  At ``n = 200``
    and ``T`` near the identity that is below ``1e-10``, so only samples
    within that of the minimum, such as exact ties, pay for both the
    screen and the SVD.
    """
    if not samples:
        raise ValueError("need at least one sample point")
    n = problem.dim
    A = problem.shifted
    eps_mach = float(np.finfo(float).eps)
    unit = 0.5 * eps_mach
    root_n = np.sqrt(n)
    screen = _inverse_free_screen(A)
    worst_sigma = float("inf")
    for u in samples:
        u = as_vector(u, dim=n, name="sample")
        d = u - problem.u0
        if math.sqrt(d.dot(d)) > problem.radius * (1.0 + 1e-12):
            raise ValueError("sample point lies outside the trust ball")
        J = problem.g._jacobian(u)
        T = None
        if worst_sigma < float("inf"):
            w = worst_sigma
            if screen is None:
                T = np.eye(n) + A.solve(J)
                H = T.T @ T
                delta = 8.0 * n * eps_mach * (float(np.trace(H)) + w * w)
                H.flat[::n + 1] -= w * w + delta
            else:
                gram, sigma_A, k, c = screen
                x_b = float(np.linalg.norm(J)) / (sigma_A * (1.0 - k))
                rho = k * x_b + unit * (root_n + x_b)
                eta = 2.0 * n * unit * (root_n + x_b)
                M = A.entries + J
                H = M @ M.T
                del M   # one n-by-n array fewer alive while tau A A^T is formed
                s_M = float(np.trace(H))
                mu = unit * np.sqrt(s_M) / sigma_A
                tau = ((w + mu + rho + eta) ** 2
                       + 4.0 * n * eps_mach * s_M / sigma_A ** 2) / (1.0 - c)
                H -= tau * gram
            # dpotrf reads one triangle of the symmetric H, so H.T is the
            # Fortran-ordered array it factors in place
            _, info = scipy.linalg.lapack.dpotrf(H.T, clean=0, overwrite_a=1)
            if info == 0:
                continue
        if T is None:
            T = np.eye(n) + A.solve(J)
        smin = float(np.linalg.svd(T, compute_uv=False)[-1])
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
    ``A`` positive definite and a ``g`` that passes ``monotone``, a
    :func:`monotonicity_certificate` on the same ball (certified here on
    ``samples`` when None), the bound is ``sqrt(kappa(A))/(1 - delta)`` and
    the trust certificate compares the radius with a distance bound that
    takes one product with ``A``: no ``T`` is formed and no SVD taken.  It
    is taken when that distance fits in the radius.

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


def monotonicity_certificate(g, samples, tol=1e-10):
    """Certify monotonicity of ``g`` on a sample cloud.

    Checks the symmetrized Jacobian at every sample for eigenvalues below
    ``-tol`` and the secant inequality ``(g(u) - g(v), u - v) >= -tol`` on
    consecutive sample pairs.  Each sample is checked once, and ``g`` and
    ``g'`` are evaluated once per sample.

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
    tol = float(tol)
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
