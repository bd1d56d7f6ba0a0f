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
from scipy.linalg.blas import dgemv, dsymv

from .errors import DimensionMismatch, SingularLinearization, SingularOperator
from .hilbert import (DenseOperator, VectorH, _all_finite, _eig_slack, _getrf, _getrs, _potrf,
                      _potri, _potrs, _squares_finite, as_vector, norm)

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
    "monotonicity_certificate",
]

_BOUNDARY_FRACTION = 0.5   # share of ball_samples on the boundary sphere
_MONOTONE_TOL = 1e-10      # slack of monotonicity_certificate's floor test

#: Most sweeps a stage's Neumann route takes, and the contraction factor
#: ``q`` at which that many reach the unit roundoff: ``q**8 = 2**-53``.
_NEUMANN_SWEEPS = 7
_NEUMANN_Q = 2.0 ** (-53 / (_NEUMANN_SWEEPS + 1))

#: Largest ``beta = |A|_2 |C|_F |B|_2 / sigma_min(B)^2`` at which a run
#: solves a declared basis's Jacobian in its rank (see :func:`_lowrank`).
_LOWRANK_BETA = 32.0

#: Ball samples behind a Newton bound, with the center prepended; only
#: :func:`certify_newton_bound` draws them.
BOUND_SAMPLES = 64


@dataclass
class NonlinearMap:
    """Smooth map ``g: R^n -> R^n`` with an explicit Jacobian.

    ``fn`` and ``jac_fn`` receive a validated 1-D float array and return
    a new array each call: the flow keeps a stage's ``g(u)`` to record the
    residual at an accepted point.

    ``jac_floor`` declares a lower bound on ``lambda_min((g'(u) +
    g'(u)^T)/2)`` over every ``u``, or None when the map declares none.
    Each :func:`~dsmflow.problems.make_map` factory fills it in closed
    form; :func:`monotonicity_certificate` reads it, and ``g`` is monotone
    when it is at least 0.  A floor that is not finite raises
    ``ValueError`` here.

    ``jac_fn`` returns ``g'(u)`` as an ``(n, n)`` matrix, or, for a
    componentwise map whose Jacobian is diagonal, as the length-``n``
    vector of that diagonal.  A map whose Jacobian is identically zero
    carries ``jac_fn=None``.  A map whose Jacobian has the form
    ``g'(u) = B diag(d(u)) B^T`` for one fixed ``(n, r)`` matrix ``B``
    declares it as ``jac_basis = B``, and its ``jac_fn`` then returns the
    length-``r`` vector ``d(u)``; ``B`` is stored as a float array, and
    one that is not 2-D with ``r >= 1`` or not finite raises
    ``ValueError`` here.  :func:`newton_velocity` adds a vector onto
    ``A``'s diagonal, or scales its Neumann sweeps by it, solves a
    declared basis's form in rank ``r``, and, for None, returns ``-f``,
    the Neumann route's case ``q = 0``, with no solve beyond ``f``'s.
    :meth:`jacobian` always returns the dense ``(n, n)`` matrix, for a
    declared basis ``(B * d) @ B^T``.

    Calling the map, or :meth:`jacobian`, checks ``u`` with
    :func:`~dsmflow.hilbert.as_vector` and then the output's shape
    (:class:`DimensionMismatch`) and finiteness (``ValueError``).
    :func:`newton_velocity` checks ``u`` once for both and calls
    :meth:`_value` and :meth:`_jacobian`, which check only the output.
    A flow stage has them check only its shape:
    the stage's fault signal sees a non-finite ``g(u)`` in ``|f|`` and a
    non-finite ``g'(u)`` in its pivot test's scale, and only a stage that
    re-runs on that signal scans them (see :func:`newton_velocity`).
    """
    fn: callable
    jac_fn: callable
    name: str = "custom"
    params: dict = field(default_factory=dict)
    jac_floor: float = None
    jac_basis: np.ndarray = None

    def __post_init__(self):
        if self.jac_floor is not None:
            self.jac_floor = float(self.jac_floor)
            if not math.isfinite(self.jac_floor):
                raise ValueError(f"map {self.name!r} Jacobian floor must be finite, "
                                 f"got {self.jac_floor}")
        if self.jac_basis is not None:
            B = self.jac_basis = np.asarray(self.jac_basis, dtype=float)
            if B.ndim != 2 or B.shape[1] < 1 or not _all_finite(B):
                raise ValueError(f"map {self.name!r} Jacobian basis must be a finite "
                                 f"(n, r) matrix with r >= 1, got shape {B.shape}")

    def __call__(self, u):
        return self._value(as_vector(u))

    def jacobian(self, u):
        """``g'(u)`` as a dense ``(n, n)`` matrix, whatever form ``jac_fn`` returns."""
        u = as_vector(u)
        J = self._jacobian(u)
        if J is None:
            return np.zeros((u.size, u.size))
        if self.jac_basis is not None:
            return self._dense(J)
        return np.diag(J) if J.ndim == 1 else J

    def _dense(self, d, scan=True):
        """``(B * d) @ B^T`` for the declared basis ``B``; ``scan`` checks it is finite.

        Its callers scan ``d`` first (:meth:`_jacobian`): this scan alone
        would refuse a non-finite ``d`` too, but an ``inf`` times a zero of
        ``B`` warns (``RuntimeWarning``) as ``B * d`` is formed.  It is
        what catches a finite ``d`` whose product overflows.
        """
        J = (self.jac_basis * d) @ self.jac_basis.T
        if scan and not _all_finite(J):
            raise ValueError(f"map {self.name!r} Jacobian has non-finite entries")
        return J

    def _value(self, u, scan=True):
        """``g(u)`` for a ``u`` that :func:`as_vector` has checked.

        ``scan=False`` checks only the output's shape.
        """
        out = np.asarray(self.fn(u), dtype=float)
        if out.shape != u.shape:
            raise DimensionMismatch(
                f"map {self.name!r} returned shape {out.shape} for input shape {u.shape}")
        if scan and not _all_finite(out):
            raise ValueError(f"map {self.name!r} returned non-finite values")
        return out

    def _jacobian(self, u, scan=True):
        """``g'(u)`` as ``jac_fn`` gives it, for a ``u`` that :func:`as_vector` has checked.

        None for a zero Jacobian, the length-``r`` vector ``d`` for a
        declared basis, a length-``n`` vector for a diagonal one, else the
        ``(n, n)`` matrix.  ``scan=False`` checks only its shape.
        """
        if self.jac_fn is None:
            return None
        J = np.asarray(self.jac_fn(u), dtype=float)
        B = self.jac_basis
        if B is not None:
            if B.shape[0] != u.size or J.shape != B.shape[1:]:
                raise DimensionMismatch(
                    f"map {self.name!r} Jacobian has shape {J.shape} on basis {B.shape} "
                    f"at input shape {u.shape}, expected {(B.shape[1],)} on ({u.size}, r)")
        elif J.shape != u.shape and J.shape != (u.size, u.size):
            raise DimensionMismatch(
                f"map {self.name!r} Jacobian has shape {J.shape}, "
                f"expected {u.shape} or {(u.size, u.size)}")
        if scan and not _all_finite(J):
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
            raise ValueError(f"trust radius must be finite and positive, got {self.radius}")
        self.epsilon = float(self.epsilon)
        if not np.isfinite(self.epsilon) or self.epsilon < 0.0:
            raise ValueError(f"epsilon must be finite and nonnegative, got {self.epsilon}")
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
    NEWTON_BOUND = "newton_bound"
    TRUST_CONDITION = "trust_condition"
    RESOLVENT_BOUND = "resolvent_bound"
    SECTOR = "sector"
    MONOTONE = "monotone"
    INVERTIBLE = "invertible"
    SINGULAR = "singular"


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
    stage's one factorization meets a small pivot.  A small LU pivot triggers an
    SVD recheck; the solve is refused only when the smallest singular value
    is at the noise floor.
    """
    rhs = as_vector(rhs, dim=T.dim, name="linearized right-hand side")
    lu, piv, minpiv, t_max = T._factorize()
    if minpiv < 1e-9 * max(1.0, t_max):
        smin = T.smallest_singular_value()
        if smin < 1e-12:
            raise SingularLinearization(
                f"linearized operator is numerically singular "
                f"(smallest singular value {smin:.3e})")
    return _getrs(lu, piv, rhs)


def newton_velocity(problem, u):
    """Flow velocity ``-[F'(u)]^{-1} F(u)`` at ``u``, the residual norm ``|f(u)|`` and ``g(u)``.

    With ``A = L + eps*I``: ``f = u + A^{-1} g(u)`` comes from ``A``'s cached
    LU, and the velocity is ``v = -T^{-1} f`` with
    ``T = I + A^{-1} g'(u)``.  One rule picks how ``T`` is solved: the
    contraction factor ``q``, a proven bound on ``|A^{-1} g'(u)|``.  A zero
    Jacobian, ``jac_fn=None``, has ``q = 0``; a Jacobian that ``jac_fn``
    returns as its diagonal has ``q = max|g'(u)| / sigma_min(A)``; one in a
    declared basis, ``g'(u) = B diag(d) B^T``, takes the low-rank route
    where its run's gate opens, and the factor path on the dense
    ``(B * d) @ B^T`` elsewhere; a dense one has no ``q`` and always takes
    the factor path.

    *Neumann route, ``q <= 2^(-53/8)``, about 0.0102, at every dim.*  Then
    ``T`` is invertible and ``T^{-1} f`` is the limit of the sweeps
    ``x <- f - A^{-1}(g'(u) x)`` from ``x = f``, whose error after ``k``
    sweeps is at most ``q^(k+1) |x|``; :func:`_neumann_velocity` takes the
    ``k <= 7`` sweeps that bring it to the unit roundoff ``2^-53``, each
    one BLAS product with ``A^{-1}``: ``dsymv``, which reads one triangle,
    when ``A`` has the ``self_adjoint`` flag, and ``dgemv`` otherwise, as
    the flag picks Cholesky or LU on the factor path.  LAPACK ``dgetri``
    forms ``A^{-1}`` from ``A``'s cached LU once per operator and the
    operator caches it (:meth:`~dsmflow.hilbert.DenseOperator._inverse`),
    so repeated calls on one problem invert ``A`` once; a :func:`_stage`
    reads the kernel once and the inverse at its first sweep.
    ``sigma_min(A)`` is read once per :func:`_stage` from ``A``'s cached
    eigenvalues when ``A`` is self-adjoint, from its cached SVD otherwise,
    and lowered by the eigensolver's rounding
    :func:`~dsmflow.hilbert._eig_slack` ``(L, eps)``.
    ``q = 0`` takes no sweep: ``T = I`` and ``v = -f``, so a Jacobian that
    is zero, ``jac_fn=None`` or a diagonal that vanishes at ``u``, factors,
    inverts and multiplies nothing.  The velocity agrees with the
    factored one to rounding, not bitwise.

    *Low-rank route, a declared basis on a self-adjoint, positive definite
    ``A``, in a run whose gate opens.*  Once per run, :func:`_lowrank`
    forms ``C = A^{-1} B``, one ``dgetrs`` with ``r`` columns on ``A``'s
    cached LU, ``G = B^T C``, its exactly symmetric inverse ``H`` from one
    ``dpotrf`` and ``dpotri``, and ``C H``.  A stage whose ``d`` is zero
    returns ``-f``.  Any other stage solves one ``r x r`` system
    (:func:`_lowrank_velocity`): by Sherman-Morrison-Woodbury (Hager,
    SIAM Review 31, 1989), ``T^{-1} = I - C (I + D G)^{-1} D B^T`` with
    ``D = diag(d)``, and ``(I + D G)^{-1} D = H (H + D)^{-1} D``, so
    ``v = -f + (C H) w`` with ``(H + D) w = d * (B^T f)``.  ``H + D`` is
    built by a diagonal add onto a copy of ``H`` and factored by
    ``dpotrf``; for ``d >= 0`` it is positive definite, and its pivots are
    at least ``sqrt(lambda_min(H)) >= sqrt(sigma_min(A)) / |B|_2``.  Their
    test is the factor path's, ``min(diag c)^2 >= 1e-9 max(1, m_max)``
    with ``m_max = max|H| + max|d| >= max|H + D|``, so it trips only for a
    ``d`` that is negative or not finite.  A stage is one ``dpotrf`` and
    one ``dpotrs`` of size ``r`` and two ``dgemv`` with ``n x r``
    matrices, in place of an ``n x n`` factorization.  It takes no
    Neumann sweeps: measured on ``minnorm``'s low-rank stages whose
    ``max|d| |B|_2^2 / sigma_min(A)`` passes the Neumann bound, 8% of them,
    sweeps ``v <- -f - C (d * (B^T v))`` cost a median 5.5 us against
    3.1 us for this solve.

    The gate comes from the route's rounding bound.  Woodbury is not
    backward stable in general (Yip, SIAM J. Sci. Stat. Comput. 7, 1986):
    it loses accuracy where ``B`` lifts the directions in which ``A`` is
    small.  With the unit roundoff ``u``, ``kappa(A) = |A|_2 /
    sigma_min(A)`` and ``beta = |A|_2 |C|_F |B|_2 / sigma_min(B)^2``, the
    route's velocity is, to first order, within
    ``c_n u kappa(A) beta (1 + beta) |f|`` of ``-T^{-1} f`` for ``d >= 0``.
    The ``beta`` term is the error ``-A^{-1} dA C`` of the ``r`` solves
    behind ``C``, which reaches ``v`` through ``(A + g'(u))^{-1}``.  The
    ``beta^2`` term comes from taking ``H`` symmetric while ``B^T C`` is
    symmetric only to ``c_n u kappa(A) |B|_2 |C|_2``.  Both use
    ``|H|_2 <= |A|_2 / sigma_min(B)^2``, which holds for a positive
    definite ``A``.  The factor path's bound is
    ``c_n u (kappa(M) |v| + kappa(A) |f|)`` with ``M = A + g'(u)``, the
    second term from forming ``A f``.  A run takes the route only where
    ``beta <= 32``, which keeps the route's bound within about ``2^10``
    times the factor path's, and every stage of any other run takes the
    factor path.  ``beta = kappa(A) gamma`` with
    ``gamma = |C| sigma_min(A)``, so a basis that avoids ``A``'s smallest
    eigenvectors keeps ``beta`` near ``|A|_2 / lambda_min`` on its range
    at every shift: ``range_cubic``'s ``B`` spans ``L``'s range on
    ``singular_monotone`` and has ``beta`` about 2 to 9 there at
    dims 10 to 40.  A basis tilted into ``L``'s nullspace has ``gamma``
    near 1, so the gate closes once ``kappa(A) > 32``.  Measured against
    40-digit references on bases tilted from ``L``'s range into its
    nullspace at dims 10, 20 and 40 and shifts 1 to 1e-8, the route's
    error stayed below the factor path's wherever ``beta <= 400``, first
    exceeded it at ``beta = 1250``, and at worst was 1.6e5 times it
    (``eps = 1e-8``, ``beta = 4e8``).  A
    non-self-adjoint or indefinite ``A``, a map that declares no
    ``jac_floor >= 0``, a
    ``B`` without full column rank ``r <= n`` and a ``G`` that ``dpotrf``
    refuses close the gate too.

    *Factor path, every other stage.*  ``v = -(A + g'(u))^{-1} (A f)``, one
    factorization of ``M = A + g'(u)``; this equals ``-T^{-1} f`` without
    forming ``A^{-1} g'(u)``.  The right-hand side is ``A f`` rather than
    ``A u + g(u)``: both are ``F(u)``, but the latter cancels to an
    absolute error near machine epsilon, which ``M^{-1}`` magnifies by up
    to ``1/eps`` at deep shifts.  ``M`` is built once per stage: a
    diagonal ``g'(u)`` is added to the diagonal of a copy of ``A``, with no
    ``(n, n)`` ``g'(u)``, and a dense one to ``A``; the factoring wrappers
    leave ``M`` as it was.  Structure picks the factorization.  A diagonal
    ``g'(u)`` on an ``A`` with the ``self_adjoint`` flag, whose stored
    entries equal their transpose exactly
    (:class:`~dsmflow.hilbert.DenseOperator` keeps the symmetric part),
    leaves ``M`` symmetric, and ``M`` is factored by lower Cholesky, LAPACK
    ``dpotrf``/``dpotrs``: for a psd ``L`` and a monotone ``g``, ``M`` is
    positive definite, and Cholesky needs no pivoting to be backward
    stable there.  When ``dpotrf`` meets a non-positive pivot, that same
    ``M`` is factored by LU, LAPACK ``dgetrf``/``dgetrs``, as is every
    ``M`` from a dense ``g'(u)`` or an ``A`` without the flag, even one
    whose entries happen to be symmetric.  Neither the entries nor a dense
    Jacobian is tested for symmetry.

    The factor path's pivot test has the scale ``m_max``: ``max|M|`` for a
    dense ``g'(u)``, and for a diagonal one ``max|A| + max|g'(u)|``, from
    ``A``'s cached maximum and the reduction that gave ``q``, which is at
    least ``max|M|`` and at most twice it.  When ``M`` has a pivot below
    ``1e-9 * max(1, m_max)``, an LU pivot or the square ``min(diag C)^2``
    of the smallest Cholesky pivot, the velocity is taken from ``T``
    through :func:`solve_linearized` instead, which raises
    :class:`SingularLinearization` when ``T`` is numerically singular.  A
    tiny pivot that comes from ``A`` alone is therefore not a refusal.

    ``u`` is checked up front, and the rest of the stage through one fault
    signal instead of a scan of each array it touches:

    - ``u`` is checked by :func:`~dsmflow.hilbert.as_vector`
      (``ValueError``), whose finite sum of squares spares the scan, so
      ``fn`` and ``jac_fn`` receive a finite point;
      ``g._value(u)`` and ``g._jacobian(u)`` check only their outputs'
      shapes (``DimensionMismatch``).
    - ``A``'s pivots get the test of :meth:`DenseOperator.solve`
      (:class:`SingularOperator`) once per :func:`_stage`, that is once
      per :func:`~dsmflow.flow.integrate` run, not once per stage.
    - Every stage tests that ``f.f``, whose root is ``p``, is finite:
      ``g(u)`` is, since the triangular solves behind ``A^{-1} g(u)``
      leave a non-finite entry non-finite.  For ``jac_fn=None`` that is
      the whole signal, since ``v = -f``.
    - On the Neumann route it adds one test: ``v.v`` is finite.  A
      ``g'(u)`` that is not finite makes ``max|g'(u)|`` NaN or infinite,
      which fails the route's bound and then the factor path's test of
      ``m_max``.
    - The low-rank route adds four tests that scan nothing: its ``m_max``
      is finite, which a ``d`` that is not finite fails, ``dpotrf``'s
      ``info``, the NaN-safe pivot test, and ``v.v`` is finite.
    - The factor path adds four tests that scan nothing.  ``m_max`` is
      finite: ``g'(u)`` and ``M`` are, since NaN propagates through
      ``max`` and ``m_max`` bounds ``max|M|``.  For a diagonal ``g'(u)``
      the bound can overflow where ``M`` does not, only when ``max|A|``
      or ``max|g'(u)|`` is within a factor 2 of the largest double; such
      an ``M`` is refused as an overflowing one is.  ``dpotrf``'s
      ``info``, and a smallest Cholesky pivot that is not NaN: the factor
      is finite (see :func:`~dsmflow.hilbert._potrf`).  ``v.v`` is
      finite: ``A f`` is; BLAS ``ddot`` takes it
      (:func:`~dsmflow.hilbert._squares_finite`), so a large finite ``v``
      does not warn.  An LU factor is still scanned, by
      :func:`~dsmflow.hilbert._getrf`.
    - When the signal fires, ``A``'s pivot test has failed or ``u`` has the
      wrong length, the same body runs again with every scan on, in the
      order of its work: ``g(u)`` and ``g'(u)`` (``ValueError``), ``A``'s
      pivot test between the two, then for a zero Jacobian ``f``
      (``ValueError``), and otherwise the factor path whatever ``q`` is
      and whatever the run's gate, a declared basis's ``d`` expanded to
      ``(B * d) @ B^T`` and scanned as ``g'(u)`` (``ValueError``):
      ``m_max`` (``ValueError``), the Cholesky factor (``ValueError``) and
      ``A f`` (``ValueError``, before either solve).  That run raises the
      first fault there is, or returns the same result after a false
      alarm, a finite ``f`` or ``v`` whose squares overflow; after a false
      alarm on the Neumann or low-rank route, or a pivot that the
      low-rank route refused, the factor path's result.  So ``g`` and
      ``g'`` are evaluated once per stage unless a value is not finite.  A
      dense ``g'(u)`` with both a non-finite entry and a finite one that
      overflows when added to ``A`` warns (``RuntimeWarning``) as ``M`` is
      built, before that run raises the Jacobian's ``ValueError``.

    Returns ``(v, p, g(u))``, the last for :func:`~dsmflow.flow.integrate`
    to record ``F(u) = A u + g(u)`` without evaluating ``g`` again.
    """
    return _stage(problem)(u)


def _stage(problem):
    """:func:`newton_velocity` on ``problem`` as a function of ``u``, with ``A``'s facts read once.

    :func:`~dsmflow.flow.integrate` takes one per run.  ``A``'s pivot test
    runs here; an ``A`` that fails it leaves every call to run with its
    scans on, which raises the test's error in its place.  For a map that
    declares a basis, the low-rank route's data and gate are decided here
    too (:func:`_lowrank`), once per run.
    """
    A = problem.shifted
    g = problem.g
    basis = g.jac_basis
    n = A.dim
    Ae = A.entries
    lowrank = None
    try:
        A._solve_factors(problem.u0)
    except (SingularOperator, ValueError):
        # every call runs checked and raises this at A's pivot test, before
        # it would read the facts below
        sound = False
    else:
        sound = True
        lu_a, piv_a, _, amax = A._factorize()
        # sigma_min(A) from the cached spectrum, lowered by its rounding
        smin_a = A.smallest_singular_value() - _eig_slack(problem.L, problem.epsilon)
        if basis is not None:
            lowrank = _lowrank(problem, lu_a, piv_a, smin_a)
    # the sweeps' kernel, and A's inverse once the first sweep needs it
    mv = dsymv if A.self_adjoint else dgemv
    inverse = None

    def stage(u, checked=not sound):
        """``(v, p, g(u))`` at ``u``; ``checked`` turns every scan on."""
        nonlocal inverse
        u = as_vector(u)
        if not (checked or u.size == n):
            return stage(u, True)
        gu = g._value(u, checked)
        lu, piv = A._solve_factors(gu) if checked else (lu_a, piv_a)
        f = u + _getrs(lu, piv, gu)
        ff = f.dot(f)
        if not (checked or math.isfinite(ff)):
            return stage(u, True)
        J = g._jacobian(u, checked)
        if J is None:
            # q = 0: T = I, so the velocity is -f, whose squares f.f has tested
            if checked and not _all_finite(f):
                raise ValueError("right-hand side contains non-finite entries")
            return -f, math.sqrt(ff), gu
        if basis is not None:
            if lowrank is not None and not checked:
                v = _lowrank_velocity(lowrank, J, f)
                if v is None or not _squares_finite(v):
                    return stage(u, True)
                return v, math.sqrt(ff), gu
            # the gate is closed, or this is the checked run: the factor
            # path on the dense (B * d) @ B^T
            J = g._dense(J, checked)
        diagonal = J.ndim == 1
        if diagonal:
            # one reduction, bitwise np.abs(J).max() without the method's
            # Python-level dispatch, gives q's numerator and the pivot test's
            # scale; a NaN from a non-finite g'(u) propagates through it and
            # fails both tests, which re-run the stage
            jmax = float(np.maximum.reduce(np.abs(J)))
            if not checked and smin_a > 0.0 and jmax <= _NEUMANN_Q * smin_a:
                if inverse is None and jmax > 0.0:
                    inverse = A._inverse()
                v = _neumann_velocity(mv, inverse, J, f, jmax / smin_a)
                if not _squares_finite(v):
                    return stage(u, True)
                return v, math.sqrt(ff), gu
            # at least max|A + diag g'(u)| and at most twice it
            m_max = amax + jmax
        else:
            M = Ae + J
            m_max = float(np.abs(M).max())
        if not math.isfinite(m_max):
            if not checked:
                return stage(u, True)
            raise ValueError("matrix to factor contains non-finite entries")
        if diagonal:
            M = Ae.copy()
            M.ravel()[::n + 1] += J
        chol = _potrf(M) if diagonal and A.self_adjoint else None
        if chol is None:
            lu, piv = _getrf(M)
            minpiv = np.abs(lu.diagonal()).min()
        else:
            if checked and not _all_finite(chol):
                raise ValueError("Cholesky factor contains non-finite entries")
            minpiv = chol.diagonal().min() ** 2
        if not minpiv >= 1e-9 * max(1.0, m_max):
            if not checked and math.isnan(minpiv):
                return stage(u, True)
            v = -solve_linearized(linearized_operator(problem, u), f)
        else:
            b = Ae @ f
            if checked and not _all_finite(b):
                raise ValueError("right-hand side contains non-finite entries")
            v = -(_getrs(lu, piv, b) if chol is None else _potrs(chol, b))
            if not (checked or _squares_finite(v)):
                return stage(u, True)
        return v, math.sqrt(ff), gu

    return stage


def _lowrank(problem, lu, piv, smin_a):
    """The low-rank route's per-run data for a declared basis ``B``, or None with the gate closed.

    The route needs a self-adjoint, positive definite ``A``, whose cached
    smallest eigenvalue is positive and at least ``smin_a > 0``, a map
    that declares ``jac_floor >= 0``, so that ``d >= 0``, and a
    ``B`` of full column rank ``r <= n``.  Gershgorin's discs of the Gram
    matrix ``W = B^T B`` bound ``B``'s extreme singular values with no
    eigensolver: ``|B|_2^2 <= b_hi^2 = max_i sum_j |W_ij|`` and
    ``sigma_min(B)^2 >= b_lo^2 = min_i (W_ii - sum_(j != i) |W_ij|)``,
    each widened by ``r (n+1) eps_mach max|W|``, which covers the rounding
    of ``W``'s entries, ``gamma_n |b_i| |b_j|``.  For an orthonormal ``B``
    both are 1 to within that slack; a ``b_lo^2 <= 0`` closes the gate.
    ``C = A^{-1} B`` is
    one ``dgetrs`` with ``r`` columns on ``A``'s cached LU (``lu``,
    ``piv``), and ``H = G^{-1}`` for ``G = B^T C`` comes from one
    ``dpotrf`` and ``dpotri`` (:func:`~dsmflow.hilbert._potri`), exactly
    symmetric; a ``G`` that ``dpotrf`` refuses closes the gate.

    The gate is ``beta = |A|_2 |C|_F b_hi / b_lo^2 <= 32``
    (:data:`_LOWRANK_BETA`); see :func:`newton_velocity` for the rounding
    bound it comes from.  For a positive definite ``A``,
    ``|H|_2 = 1/lambda_min(G) <= |A|_2 / b_lo^2``, so the gate also keeps
    ``kappa(G) <= beta``; an indefinite ``A`` has no such bound, since its
    ``G`` may pass ``dpotrf`` with ``lambda_min(G)`` as small as rounding
    at ``beta = 1`` (``A = diag(1, -1)``, ``B`` along ``(1, 1 - delta)``).
    Returns ``(B^T, C H, H, max|H|)``, the products Fortran-ordered for
    BLAS ``dgemv``.
    """
    A, B = problem.shifted, problem.g.jac_basis
    n, r = B.shape
    floor = problem.g.jac_floor
    if not (A.self_adjoint and smin_a > 0.0 and A.eigenvalues()[0] > 0.0
            and floor is not None and floor >= 0.0 and n == A.dim and r <= n):
        return None
    W = np.abs(B.T @ B)
    rows = W.sum(axis=1)
    slack = r * (n + 1) * float(np.finfo(float).eps) * float(W.max())
    b_hi2 = float(rows.max()) + slack
    b_lo2 = float((2.0 * W.diagonal() - rows).min()) - slack
    if not b_lo2 > 0.0:
        return None
    C = _getrs(lu, piv, B)
    beta = A.operator_norm() * float(np.linalg.norm(C)) * math.sqrt(b_hi2) / b_lo2
    if not beta <= _LOWRANK_BETA:
        return None
    chol = _potrf(B.T @ C)
    if chol is None:
        return None
    H = _potri(chol)
    return np.asfortranarray(B.T), np.asfortranarray(C @ H), H, float(np.abs(H).max())


def _lowrank_velocity(lowrank, d, f):
    """``v = -T^{-1} f`` for ``g'(u) = B diag(d) B^T`` in rank ``r``; None where it refuses ``d``.

    ``lowrank`` is :func:`_lowrank`'s data.  A zero ``d`` returns ``-f``.
    Any other ``d`` factors ``S = H + diag(d)``, built by a diagonal add
    onto a copy of ``H``, by ``dpotrf``, and ``v = -f + (C H) w`` with
    ``S w = d * (B^T f)``, one ``dpotrs`` and one ``dgemv``.  None, and the
    caller re-runs the stage checked, when ``max|H| + max|d|`` is not
    finite, when ``dpotrf`` refuses ``S``, or when the smallest pivot's
    square is not at least ``1e-9 max(1, max|H| + max|d|)``, the factor
    path's test.
    """
    Bt, CH, H, hmax = lowrank
    dmax = float(np.maximum.reduce(np.abs(d)))
    if dmax == 0.0:
        # g'(u) = 0: T = I
        return -f
    s_max = hmax + dmax
    if not math.isfinite(s_max):
        return None
    S = H.copy()
    S.ravel()[::S.shape[0] + 1] += d
    chol = _potrf(S)
    if chol is None or not chol.diagonal().min() ** 2 >= 1e-9 * max(1.0, s_max):
        return None
    return dgemv(1.0, CH, _potrs(chol, d * dgemv(1.0, Bt, f)), -1.0, f)


def _neumann_velocity(mv, inverse, j, f, q):
    """``v = -(I + A^{-1} diag(j))^{-1} f`` by Neumann sweeps, for ``q >= |A^{-1}| max|j|``.

    ``inverse`` is the shifted operator ``A``'s cached inverse
    (:meth:`~dsmflow.hilbert.DenseOperator._inverse`), and ``mv`` the BLAS
    kernel that sweeps with it; :func:`_stage` reads both once per run.
    With ``K = A^{-1} diag(j)`` and ``x = -v``, ``x = f - K x``, so the
    sweeps ``v_0 = -f``, ``v_{i+1} = -f - K v_i`` leave the error
    ``|v_k - v| = |K^{k+1} x| <= q^(k+1) |v|``, which the
    ``k = ceil(-53 / log2(q)) - 1`` sweeps taken here bring to the unit
    roundoff ``2^-53``; ``q <= 2^(-53/8)`` makes ``k`` at most 7, and
    ``q = 0`` takes none and reads no inverse, so ``inverse`` may be
    ``None`` there.  Each sweep is one BLAS matrix-vector product ``mv``,
    picked by ``A``'s structure as the factor path picks Cholesky or LU:
    ``dsymv`` on the upper triangle of the inverse when ``A`` has the
    ``self_adjoint`` flag, so that it reads half the matrix, and ``dgemv``
    otherwise.  The inverse
    of a symmetric ``A`` is symmetric to rounding, so either product
    agrees with the factored velocity to rounding.  Both take
    ``dgetri``'s Fortran-ordered inverse as it is and copy nothing.
    """
    if q == 0.0:
        # g'(u) = 0: T = I, with no sweep and no inverse to read
        return -f
    k = min(_NEUMANN_SWEEPS, math.ceil(-53.0 / math.log2(q)) - 1)
    # positional arguments and dsymv's default upper triangle: an f2py keyword
    # such as lower=1 adds about 0.5 us a call, half a sweep at small dims
    v = -f
    for _ in range(k):
        v = mv(-1.0, inverse, j * v, -1.0, f)
    return v


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
    if isinstance(count, bool) or not isinstance(count, int) or count < 1:
        raise ValueError(f"sample count must be an integer >= 1, got {count!r}")
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

def estimate_newton_bound(problem, samples):
    """Sampled sup bound for the inverse of the linearization over the trust ball.

    Returns a NEWTON_BOUND certificate whose ``bound`` quantity is
    ``max 1/sigma_min`` over the samples' linearizations
    ``T = I + A^{-1} g'(u)``, ``A = L + eps*I``, each formed by
    :func:`linearized_operator` and its smallest singular value taken from
    one SVD.  The estimate can only grow as samples are added.  Raises
    ``ValueError`` for a sample outside the trust ball and
    :class:`SingularLinearization` when a sample has ``sigma_min <= 1e-12``.

    This is the sampled route of :func:`certify_newton_bound`, which the
    certified solves and the ``trust_condition`` tag call, on the samples
    it draws.  That route applies unless the bound can be proven: for a
    self-adjoint psd ``L`` with ``A`` positive definite and a monotone
    ``g`` it returns ``sqrt(kappa(A))/(1 - delta)`` without sampling ``T``.
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
        kind=CertificateKind.NEWTON_BOUND,
        passed=True,
        quantities={"bound": bound, "worst_sigma_min": worst_sigma,
                    "n_samples": float(len(samples))},
        detail=f"route: sampled, max 1/sigma_min(T) over {len(samples)} points of the trust ball")


def certify_newton_bound(problem):
    """Newton bound over the trust ball and the trust condition it implies.

    Returns ``(bound_cert, trust_cert)``: a NEWTON_BOUND certificate whose
    ``bound`` is at least ``|T(u)^{-1}|`` for ``T = I + A^{-1} g'(u)``,
    ``A = L + eps*I``, and the TRUST_CONDITION certificate built on it.
    Both the certified solve and the ``trust_condition`` tag call this, and
    both certificates name their route in ``detail``.

    *Proof route*, :func:`_proven_bound`: for a self-adjoint psd ``L`` with
    ``A`` positive definite (:func:`_proof_spectrum`) and a ``g`` that
    passes :func:`monotonicity_certificate`, which reads the floor the map
    declares, the bound is ``sqrt(kappa(A))/(1 - delta)`` and the trust
    certificate compares the radius with a distance bound that takes one
    product with ``A``: no ``T`` is formed, no SVD taken and no sample
    drawn.  It is taken when that distance fits in the radius.

    *Sampled route.*  Otherwise ``bound_cert`` is
    :func:`estimate_newton_bound` on one fixed cloud, the trust ball's
    center and :data:`BOUND_SAMPLES` :func:`ball_samples` at their default
    seed, and ``trust_cert`` is :func:`check_trust_condition` with its
    bound, both unchanged; so a problem has one sampled bound.  A proof
    whose distance bound exceeds the radius is not reported as a failed
    trust condition: the A-norm loses up to ``sqrt(kappa(A))`` where
    ``g'`` is small against ``A``, as for a constant ``g`` and a small
    shift of a singular ``L``, where ``T = I`` and the sampled bound is 1.
    """
    spectrum = _proof_spectrum(problem)
    if spectrum is not None:
        proven = _proven_bound(problem, *spectrum)
        if proven is not None and proven[1].passed:
            return proven
    samples = ball_samples(problem.u0, problem.radius, BOUND_SAMPLES)
    bound_cert = estimate_newton_bound(problem, samples)
    return bound_cert, check_trust_condition(problem, bound_cert.quantities["bound"])


def _proof_spectrum(problem):
    """Bounds ``(lam_lo, lam_hi)`` on ``A``'s eigenvalues where the proof route applies, else None.

    It applies when ``L`` carries the verified ``self_adjoint`` and
    ``psd_claimed`` flags, so that its stored entries are exactly
    symmetric and :meth:`~dsmflow.hilbert.DenseOperator.eigenvalues` are
    those of ``L`` itself, and when ``lam_lo > 0``.

    ``lam_lo <= lambda(A) <= lam_hi`` are ``L``'s extreme eigenvalues plus
    ``eps``, widened by :func:`~dsmflow.hilbert._eig_slack` ``(L, eps)``.
    """
    L = problem.L
    if not (L.self_adjoint and L.psd_claimed):
        return None
    w = L.eigenvalues()
    eps = problem.epsilon
    err = _eig_slack(L, eps)
    lam_lo = float(w[0]) + eps - err
    if not lam_lo > 0.0:
        return None
    return lam_lo, float(w[-1]) + eps + err


def _proven_bound(problem, lam_lo, lam_hi):
    """The proof route's ``(bound_cert, trust_cert)``, or None where ``g`` does not qualify.

    ``lam_lo <= lambda(A) <= lam_hi`` come from :func:`_proof_spectrum`.
    The route needs ``g`` to pass :func:`monotonicity_certificate`, with
    ``delta = max(0, -jac_floor) / lam_lo < 1`` for the floor ``g``
    declares.

    With ``K = A^{-1/2} g' A^{-1/2}``, whose symmetric part is
    ``>= -delta I``, ``|T^{-1}|_A = |(I + K)^{-1}| <= 1/(1 - delta)`` in
    the norm ``|x|_A = sqrt(x^T A x)``, so ``|T^{-1}|`` is at most
    ``bound = sqrt(lam_hi/lam_lo)/(1 - delta)``.  Along the flow
    ``f(u(t)) = e^{-t} f0`` with ``f0 = u0 + A^{-1} g(u0)``, so the distance
    travelled is at most ``|f0|_A / (sqrt(lam_lo) (1 - delta))``, which the
    trust certificate compares with the radius.  ``|f0|_A^2`` is
    ``f0 . (A f0)`` plus ``gamma_{n+1} |A|_F |f0|^2`` for its rounding.
    The bound certificate keeps the sampled route's keys, with
    ``worst_sigma_min = 1/bound`` and ``n_samples`` 0; both name the route
    in ``detail``.
    """
    monotone = monotonicity_certificate(problem.g)
    delta = max(0.0, -monotone.quantities["min_jacobian_eigenvalue"]) / lam_lo
    if not (monotone.passed and delta < 1.0):
        return None
    bound = math.sqrt(lam_hi / lam_lo) / (1.0 - delta)
    bound_cert = Certificate(
        kind=CertificateKind.NEWTON_BOUND,
        passed=True,
        quantities={"bound": bound, "worst_sigma_min": 1.0 / bound, "n_samples": 0.0},
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
    route's check in :func:`certify_newton_bound`, and its ``detail`` names
    that route; where that function proves the bound (self-adjoint psd
    ``L`` with ``A`` positive definite, monotone ``g``) it compares the
    radius with the tighter distance bound
    ``|f0|_A / (sqrt(lambda_min(A)) (1 - delta))`` instead.
    """
    newton_bound = float(newton_bound)
    if not newton_bound > 0.0:
        raise ValueError(f"newton bound must be positive, got {newton_bound}")
    p0 = norm(preconditioned_residual(problem, problem.u0))
    margin = problem.radius - p0 * newton_bound
    return Certificate(
        kind=CertificateKind.TRUST_CONDITION,
        passed=bool(margin >= 0.0),
        quantities={"p0": p0, "bound": newton_bound,
                    "radius": problem.radius, "margin": margin},
        detail="route: sampled, margin = radius - p0 * bound")


def check_resolvent_bound(L):
    """Certify ``|(L + eps*I)^{-1}| <= 1/eps`` for every ``eps > 0``.

    For a self-adjoint ``L`` that norm is ``1/min |lambda + eps|`` over
    ``L``'s eigenvalues, so the bound holds at every ``eps > 0`` exactly
    when ``lambda_min(L) >= 0``.  The check is that one comparison, on
    ``L``'s cached :meth:`~dsmflow.hilbert.DenseOperator.eigenvalues`: it
    passes when ``lambda_min >= -slack`` with ``slack`` the eigensolver's
    rounding :func:`~dsmflow.hilbert._eig_slack`, and reports
    ``lambda_min``, ``slack`` and ``margin = lambda_min + slack``.  The
    psd flag is verified by the same comparison, so every psd-flagged
    ``L`` passes.  An ``L`` without the self-adjoint flag raises
    :class:`NotSymmetric`.
    """
    lam = float(L.eigenvalues()[0])
    slack = _eig_slack(L)
    return Certificate(
        kind=CertificateKind.RESOLVENT_BOUND,
        passed=bool(lam >= -slack),
        quantities={"lambda_min": lam, "slack": slack, "margin": lam + slack},
        detail="route: eigenvalues, margin = lambda_min(L) + (n+1) eps_mach |L|_F")


def check_sector(L):
    """Certify that no spectrum sits in the truncated sector around the negative axis.

    The sector is ``{ -r e^{i phi} : 0 < r <= a, |phi| <= delta }`` with
    ``a = 0.5`` and ``delta = pi/6``, the ``sector`` tag's claim.  Both
    numbers are reported.

    For a self-adjoint ``L`` it is ``[-a, -slack)`` on ``L``'s cached
    :meth:`~dsmflow.hilbert.DenseOperator.eigenvalues`, with ``slack`` the
    eigensolver's rounding :func:`~dsmflow.hilbert._eig_slack`: a zero
    eigenvalue of a singular psd ``L`` that rounds negative is not in it.  The margin is
    the smallest ``max(-a - lambda, lambda + slack)`` over the eigenvalues:
    the distance from the sector to the nearest eigenvalue when none lies
    in it, and minus the depth of the deepest one inside otherwise.

    Any other ``L`` is certified through its numerical range ``W(L)``, which
    lies in ``Re z >= mu`` with ``mu = lambda_min((L + L^T)/2)``, one
    ``eigvalsh``.  So ``sigma_min(L - z I) >= max(mu - Re z, sigma_min(L) - |z|)``,
    where ``sigma_min(L)`` is the operator's cached smallest singular value
    (Lumer-Phillips; Pazy 1983 §1.4, Kato §V.3.10).  At ``|z| = r`` in the
    sector ``-Re z >= r cos(delta)``, so the margin is the minimum over
    ``0 < r <= a`` of ``max(mu + r cos(delta), sigma_min - r)``: the two
    lines cross at ``r* = (sigma_min - mu)/(1 + cos(delta))``, and the
    minimum is ``mu`` if ``r* <= 0``, ``sigma_min - a`` if ``r* >= a``, else
    ``mu + r* cos(delta)``.  Both numbers are first lowered by
    :func:`~dsmflow.hilbert._eig_slack` for the eigensolvers' rounding, and
    the check passes when the margin is positive, which proves the sector free of
    spectrum.  The route refuses an ``L`` whose spectrum avoids the sector
    while its numerical range does not.

    So on both routes the certificate passes when ``margin > 0`` and fails
    when ``margin <= 0``; the one exception is an eigenvalue exactly at
    ``-slack``, which passes with margin 0.
    """
    a, delta = 0.5, math.pi / 6.0
    slack = _eig_slack(L)
    if L.self_adjoint:
        w = L.eigenvalues()
        inside = (w >= -a) & (w < -slack)
        return Certificate(
            kind=CertificateKind.SECTOR,
            passed=not inside.any(),
            quantities={"a": a, "delta": delta, "slack": slack,
                        "margin": float(np.maximum(-a - w, w + slack).min())},
            detail="route: eigenvalues, margin = min over lambda of "
                   "max(-a - lambda, lambda + slack)")
    E = L.entries
    mu = float(np.linalg.eigvalsh(0.5 * (E + E.T))[0]) - slack
    sigma_min = L.smallest_singular_value() - slack
    cos_delta = math.cos(delta)
    r_star = (sigma_min - mu) / (1.0 + cos_delta)
    if r_star <= 0.0:
        margin = mu
    elif r_star >= a:
        margin = sigma_min - a
    else:
        margin = mu + r_star * cos_delta
    return Certificate(
        kind=CertificateKind.SECTOR,
        passed=bool(margin > 0.0),
        quantities={"a": a, "delta": delta, "margin": margin,
                    "mu": mu, "sigma_min": sigma_min},
        detail="route: numerical range, margin = min over 0 < r <= a of "
               "max(mu + r cos(delta), sigma_min - r)")


def monotonicity_certificate(g):
    """Certify monotonicity of ``g`` from the Jacobian floor it declares.

    ``g`` is monotone when ``(g(u) - g(v), u - v) >= 0`` for all ``u, v``,
    that is when the symmetric part of ``g'(u)`` is psd everywhere.  The
    certificate passes when ``g.jac_floor``, a lower bound on that part's
    smallest eigenvalue (see :class:`NonlinearMap`), is at least
    ``-tol`` with ``tol = 1e-10``, and reports the floor as
    ``min_jacobian_eigenvalue`` next to ``tol``.  A map that declares no
    floor fails it, with a floor of ``-inf``.  Nothing is sampled.
    """
    floor = g.jac_floor
    declared = floor is not None
    return Certificate(
        kind=CertificateKind.MONOTONE,
        passed=declared and floor >= -_MONOTONE_TOL,
        quantities={"min_jacobian_eigenvalue": floor if declared else -math.inf,
                    "tol": _MONOTONE_TOL},
        detail=(f"route: declared, lambda_min(sym g') >= jac_floor of map {g.name!r}"
                if declared else f"route: none, map {g.name!r} declares no Jacobian floor"))
