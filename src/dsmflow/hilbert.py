"""Dense real Hilbert-space kernel: vectors, operators, factorizations.

Vectors are plain 1-D float64 numpy arrays; :func:`as_vector` validates
shape and finiteness at API boundaries.  :class:`DenseOperator` wraps a
square matrix together with structural flags (self-adjoint, positive
semidefinite) and caches its factorizations on first use: one LU, and
either the eigenvalues of a self-adjoint operator, from which its
singular values are read, or the singular values of any other.  Its LU
factors come straight from LAPACK ``dgetrf``/``dgetrs`` through
:func:`_getrf` and :func:`_getrs`, which give bitwise what
``scipy.linalg.lu_factor``/``lu_solve`` give without their per-call
wrapper cost.

The tolerances below are module constants; :meth:`DenseOperator.solve`
compares pivots against ``PIVOT_RTOL`` times the operator norm.
"""

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from .errors import DimensionMismatch, NotSymmetric, NonPsdOperator, SingularOperator

__all__ = [
    "VectorH",
    "DenseOperator",
    "as_vector",
    "inner",
    "norm",
]

#: Elements of the ambient space are 1-D float64 arrays.
VectorH = np.ndarray

SELF_ADJOINT_RTOL = 1e-12    # max |A - A^T| allowed, relative to operator norm
PSD_RTOL = 1e-10             # eigenvalue floor for psd-flagged operators
PIVOT_RTOL = 1e-14           # LU pivot threshold, relative to operator norm


def _all_finite(x):
    """Whether every entry of the array ``x`` is finite: ``np.isfinite(x).all()``.

    The same predicate, without ``ndarray.all``'s Python-level dispatch,
    which is most of the cost of a check at the small dimensions here.
    It does no arithmetic on ``x``, so it cannot overflow or warn, as a
    check through ``x.dot(x)`` or a sum could for large finite entries.
    """
    return np.count_nonzero(np.isfinite(x)) == x.size


def as_vector(x, dim=None, name="vector"):
    """Validate ``x`` as a finite 1-D float vector, optionally of length ``dim``."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-D, got shape {v.shape}")
    if dim is not None and v.size != dim:
        raise DimensionMismatch(f"{name} has dimension {v.size}, expected {dim}")
    if not _all_finite(v):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def _getrf(M):
    """LU factors ``(lu, piv)`` of the square float matrix ``M`` from LAPACK ``dgetrf``.

    Bitwise the output of ``scipy.linalg.lu_factor(M)``.  ``M`` is not
    scanned: a non-finite entry always leaves a non-finite factor, and
    factors that are not finite, from such an entry or from overflow,
    raise ``ValueError``.  So every factor :func:`_getrs` receives is
    finite and it need not check them again.  An exactly zero pivot is
    not an error and raises no warning: callers decide through their
    pivot checks.
    """
    lu, piv, info = dgetrf(M)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dgetrf")
    if not _all_finite(lu):
        raise ValueError("LU factors contain non-finite entries")
    return lu, piv


def _getrs(lu, piv, b):
    """Solve ``M x = b`` from :func:`_getrf`'s factors with LAPACK ``dgetrs``.

    ``b`` is a vector or a matrix of right-hand-side columns.  Bitwise the
    output of ``scipy.linalg.lu_solve((lu, piv), b)``; raises ``ValueError``
    when ``b`` holds a non-finite entry.  ``_getrf`` has checked ``lu``.
    """
    if not _all_finite(b):
        raise ValueError("right-hand side contains non-finite entries")
    return _dgetrs(lu, piv, b)


def _dgetrs(lu, piv, b):
    """:func:`_getrs` for a ``b`` the caller has already found finite."""
    x, info = dgetrs(lu, piv, b)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dgetrs")
    return x


def inner(u, v):
    """Euclidean inner product (u, v)."""
    u = as_vector(u)
    v = as_vector(v, dim=u.size, name="second vector")
    return float(np.dot(u, v))


def norm(u):
    """Norm induced by :func:`inner`."""
    return float(np.linalg.norm(as_vector(u)))


class DenseOperator:
    """Square real matrix with structural flags and cached factorizations.

    Parameters
    ----------
    entries : array_like
        Square matrix of finite reals.  A private copy is stored.
    self_adjoint : bool
        Claim that the matrix equals its transpose.  Verified at
        construction against ``SELF_ADJOINT_RTOL`` times the operator norm;
        violation raises :class:`NotSymmetric`.
    psd_claimed : bool
        Claim that the matrix is positive semidefinite.  Requires
        ``self_adjoint`` and is verified against ``PSD_RTOL``; violation
        raises :class:`NonPsdOperator`.
    """

    def __init__(self, entries, self_adjoint=False, psd_claimed=False, *, _verified=False):
        A = np.array(entries, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimensionMismatch(f"operator must be square, got shape {A.shape}")
        if A.shape[0] == 0:
            raise DimensionMismatch("operator must have positive dimension")
        if not _all_finite(A):
            raise ValueError("operator contains non-finite entries")
        if psd_claimed and not self_adjoint:
            raise ValueError("psd_claimed requires self_adjoint")
        self.entries = A
        self.self_adjoint = bool(self_adjoint)
        self.psd_claimed = bool(psd_claimed)
        self._svals = None
        self._opnorm = None
        self._lu = None
        self._eigvals = None
        if not _verified:
            self._verify_flags()

    # -- construction helpers -------------------------------------------------

    @classmethod
    def identity(cls, n):
        return cls(np.eye(n), self_adjoint=True, psd_claimed=True, _verified=True)

    @classmethod
    def diagonal(cls, values):
        """The diagonal operator on ``values``, flagged psd when no value is negative."""
        d = as_vector(values, name="diagonal")
        return cls(np.diag(d), self_adjoint=True, psd_claimed=bool(np.all(d >= 0.0)))

    def shifted(self, eps):
        """Return this operator plus ``eps`` times the identity (``eps >= 0``)."""
        eps = float(eps)
        if not np.isfinite(eps) or eps < 0.0:
            raise ValueError(f"shift must be a finite nonnegative real, got {eps}")
        A = self.entries + eps * np.eye(self.dim)
        # self-adjointness and (for eps >= 0) semidefiniteness survive the shift
        S = DenseOperator(A, self_adjoint=self.self_adjoint,
                          psd_claimed=self.psd_claimed, _verified=True)
        if self.self_adjoint:
            # the shift moves every eigenvalue by eps: no decomposition of A
            S._eigvals = self.eigenvalues() + eps
        return S

    # -- basic queries ---------------------------------------------------------

    @property
    def dim(self):
        return self.entries.shape[0]

    def apply(self, u):
        u = as_vector(u, dim=self.dim)
        return self.entries @ u

    def _verify_flags(self):
        if not self.self_adjoint:
            return
        defect = float(np.max(np.abs(self.entries - self.entries.T)))
        opn = self.operator_norm()
        if defect > SELF_ADJOINT_RTOL * opn:
            raise NotSymmetric(
                f"self_adjoint flag violated: asymmetry {defect:.3e} "
                f"exceeds {SELF_ADJOINT_RTOL:g} * operator norm {opn:.3e}")
        if self.psd_claimed:
            w = self.eigenvalues()
            if w[0] < -PSD_RTOL * opn:
                raise NonPsdOperator(
                    f"psd flag violated: smallest eigenvalue {w[0]:.3e} "
                    f"below -{PSD_RTOL:g} * operator norm {opn:.3e}")

    # -- spectral quantities ---------------------------------------------------

    def singular_values(self):
        """All singular values, descending.

        A self-adjoint operator's are the moduli of its :meth:`eigenvalues`,
        with no SVD; any other's come from one SVD.
        """
        if self._svals is None:
            if self.self_adjoint:
                self._svals = np.sort(np.abs(self.eigenvalues()))[::-1]
            else:
                self._svals = np.linalg.svd(self.entries, compute_uv=False)
            self._opnorm = float(self._svals[0])
        return self._svals.copy()

    def operator_norm(self):
        """Largest singular value (kept as a float once computed)."""
        if self._opnorm is None:
            self.singular_values()
        return self._opnorm

    def smallest_singular_value(self):
        """Smallest singular value; zero signals singularity."""
        return float(self.singular_values()[-1])

    def condition_estimate(self):
        s = self.singular_values()
        if s[-1] == 0.0:
            return float("inf")
        return float(s[0] / s[-1])

    def eigenvalues(self):
        """Eigenvalues of a self-adjoint operator, ascending, as a fresh array.

        They are ``np.linalg.eigvalsh((A + A^T)/2)``, taken once and cached;
        a :meth:`shifted` operator's are its parent's plus the shift.
        Raises :class:`NotSymmetric` if the flag is not set.
        """
        if not self.self_adjoint:
            raise NotSymmetric("eigenvalues requires the self_adjoint flag")
        if self._eigvals is None:
            self._eigvals = np.linalg.eigvalsh(0.5 * (self.entries + self.entries.T))
        return self._eigvals.copy()

    # -- linear solves -----------------------------------------------------------

    def _factorize(self):
        if self._lu is None:
            lu, piv = _getrf(self.entries)
            minpiv = float(np.abs(lu.diagonal()).min())
            self._lu = (lu, piv, minpiv)
        return self._lu

    def _solve_factors(self, b):
        """Cached ``(lu, piv)`` for solving against ``b``, after the checks of :meth:`solve`.

        Checks ``b``'s leading dimension and the pivots, but not ``b``'s
        entries: :meth:`solve` leaves those to :func:`_getrs`, and
        :func:`~dsmflow.model.newton_velocity` to the map that made ``b``.
        """
        if b.shape[0] != self.dim:
            raise DimensionMismatch(
                f"right-hand side has leading dimension {b.shape[0]}, expected {self.dim}")
        opn = self.operator_norm()
        if opn == 0.0:
            raise SingularOperator("zero operator", condition_estimate=float("inf"))
        lu, piv, minpiv = self._factorize()
        if minpiv <= PIVOT_RTOL * opn:
            raise SingularOperator(
                f"pivot {minpiv:.3e} below {PIVOT_RTOL:g} * operator norm {opn:.3e}",
                condition_estimate=self.condition_estimate())
        return lu, piv

    def solve(self, b):
        """Solve ``A x = b`` through the cached LU factorization.

        ``b`` may be a vector or a matrix of stacked right-hand-side columns.
        Raises :class:`SingularOperator` when the smallest pivot falls below
        ``PIVOT_RTOL`` times the operator norm, and
        ``ValueError`` (from :func:`_getrs`) when ``b`` is not finite.
        """
        B = np.asarray(b, dtype=float)
        lu, piv = self._solve_factors(B)
        return _getrs(lu, piv, B)
