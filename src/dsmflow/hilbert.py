"""Dense real Hilbert-space kernel: vectors, operators, factorizations.

Vectors are plain 1-D float64 numpy arrays; :func:`as_vector` validates
shape and finiteness at API boundaries.  :class:`DenseOperator` wraps a
square matrix together with structural flags (self-adjoint, positive
semidefinite), decided once at construction: a self-adjoint operator
stores its symmetric part, so its entries equal their transpose exactly,
and the psd flag is checked against the eigensolver's rounding
:func:`_eig_slack`, the slack of every eigenvalue certificate.  It caches
its factorizations on first use: one LU, and either the eigenvalues of a
self-adjoint operator, from which its singular values are read, or the
singular values of any other, and, once asked for, the inverse that the
flow's stage sweeps with on its Neumann route.  Its LU factors come
straight from LAPACK ``dgetrf``/``dgetrs`` through :func:`_getrf` and
:func:`_getrs`, which give bitwise what ``scipy.linalg.lu_factor``/
``lu_solve`` give without their per-call wrapper cost.  :func:`_posv`
factors and solves by lower Cholesky in one LAPACK ``dposv`` call, which
the stage takes for a symmetric matrix before it falls back to LU, and
:func:`_potrf` gives the lower Cholesky factor alone, LAPACK ``dpotrf``.
:func:`_getri` turns LU factors into the inverse, LAPACK ``dgetri``, and
:func:`_potri` a Cholesky factor into the exactly symmetric inverse,
LAPACK ``dpotri``.  There is one wrapper per LAPACK call.
:func:`_getrf`, :func:`_potrf`, :func:`_posv` and :func:`_getri` never
touch their arguments: the LAPACK wrapper factors or inverts a
column-major copy of its own, whatever the argument's layout.
:func:`_getrs` and :func:`_posv` do not check the right-hand side:
:meth:`DenseOperator.solve` does, and so does the stage's checked re-run
(:func:`~dsmflow.model.newton_velocity`).  Sums of squares, in
:func:`norm` and in the stage, are BLAS ``ddot``, bitwise
``ndarray.dot`` and, unlike it, silent where they overflow to ``inf``.

The tolerances below are module constants; :meth:`DenseOperator.solve`
compares pivots against ``PIVOT_RTOL`` times the operator norm.
"""

import math

import numpy as np
from scipy.linalg.blas import ddot
from scipy.linalg.lapack import dgetrf, dgetri, dgetrs, dposv, dpotri, dpotrf

from .errors import DimensionMismatch, NotSymmetric, NonPsdOperator, SingularOperator

__all__ = [
    "VectorH",
    "DenseOperator",
    "as_vector",
    "norm",
]

#: Elements of the ambient space are 1-D float64 arrays.
VectorH = np.ndarray

SELF_ADJOINT_RTOL = 1e-12    # max |A - A^T| allowed, relative to operator norm
PIVOT_RTOL = 1e-14           # LU pivot threshold, relative to operator norm


def _all_finite(x):
    """Whether every entry of the array ``x`` is finite: ``np.isfinite(x).all()``.

    The same predicate, without ``ndarray.all``'s Python-level dispatch,
    which is most of the cost of a check at the small dimensions here.
    It does no arithmetic on ``x``, so it is exact: a test through a sum
    of squares, such as :func:`_squares_finite`, also fails for a finite
    ``x`` whose squares overflow.  The flow's stage
    (:func:`~dsmflow.model.newton_velocity`) tests its residual and its
    velocity that way instead of scanning every array it touches.  There
    such a false alarm is harmless: all it does is run the stage again
    with every scan on, which returns the same result.
    """
    return np.count_nonzero(np.isfinite(x)) == x.size


def _squares_finite(x):
    """Whether the sum of squares of the vector ``x`` is finite, from one BLAS ``ddot``.

    False for an ``x`` with a non-finite entry, since NaN propagates and
    squares cannot cancel, and for a finite ``x`` whose squares overflow.
    Four times faster than ``x.dot(x)`` at small dimensions, and unlike it
    it never warns: the LAPACK and BLAS wrappers set no numpy error state.
    """
    return math.isfinite(ddot(x, x))


def as_vector(x, dim=None, name="vector"):
    """Validate ``x`` as a finite 1-D float vector, optionally of length ``dim``.

    A finite sum of squares from :func:`_squares_finite` proves every
    entry finite.  Only a sum that is not, from a non-finite entry or from
    finite squares that overflow, and an empty ``v``, which ``ddot``
    refuses, run the exact scan :func:`_all_finite`, so the verdict is the
    scan's at a quarter of its cost.
    """
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-D, got shape {v.shape}")
    if dim is not None and v.size != dim:
        raise DimensionMismatch(f"{name} has dimension {v.size}, expected {dim}")
    if not ((v.size and _squares_finite(v)) or _all_finite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def _getrf(M):
    """LU factors ``(lu, piv)`` of the square float matrix ``M`` from LAPACK ``dgetrf``.

    Bitwise the output of ``scipy.linalg.lu_factor(M)``, and ``M`` keeps
    its bits: the factors are the wrapper's own copy.  ``M`` is not
    scanned: a non-finite entry always leaves a non-finite factor, and
    factors that are not finite, from such an entry or from overflow,
    raise ``ValueError``.  So every factor :func:`_getrs` receives is
    finite, and it checks neither them nor ``b``.  An exactly zero pivot is
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
    output of ``scipy.linalg.lu_solve((lu, piv), b)``.  ``b`` is not
    checked: a caller checks it first or tests the solution instead.
    """
    x, info = dgetrs(lu, piv, b)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dgetrs")
    return x


def _getri(lu, piv):
    """``M^{-1}`` from :func:`_getrf`'s factors with LAPACK ``dgetri``.

    The inverse is formed in the wrapper's column-major copy of ``lu``,
    with no identity right-hand side, and ``lu`` keeps its bits.  The
    factors must have passed a pivot test: an exactly zero pivot raises
    ``ValueError``.
    """
    inv, info = dgetri(lu, piv)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dgetri")
    if info > 0:
        raise ValueError(f"dgetri met the zero pivot U[{info - 1}, {info - 1}]")
    return inv


def _potrf(M):
    """Lower Cholesky factor of the symmetric float matrix ``M`` from LAPACK ``dpotrf``, or None.

    Only ``M``'s lower triangle is read.  The factor is the wrapper's own
    copy, its upper triangle zeroed, and ``M`` keeps its bits.  None when
    ``dpotrf`` meets a non-positive pivot, that is when ``M`` is not
    positive definite; that is not an error and raises no warning.  The
    low-rank route's set-up takes it once per run, for :func:`_potri`;
    a stage, which also solves, takes :func:`_posv`.

    Neither ``M`` nor the factor is scanned, here or in :func:`_posv`,
    whose ``dposv`` factors by ``dpotrf``.  For a finite ``M`` that
    ``dpotrf`` accepts, the pivots tell whether the factor is finite.
    Every entry ``c_ij`` below the diagonal feeds the later pivot
    ``c_ii = sqrt(M_ii - sum_k c_ik^2)``, through a dot product or a
    ``syrk`` update of the trailing block.  That sum holds only squares,
    so it cannot cancel: an infinite ``c_ij`` makes it ``+inf`` and the
    pivot's argument ``-inf``, which ``dpotrf`` refuses, and a NaN makes
    it NaN, which ``dpotrf`` refuses or, as OpenBLAS does, passes on as a
    NaN pivot.  Each pivot is itself at most ``sqrt(M_ii)``.  So for a
    finite ``M``, a factor returned here is finite exactly when its
    smallest diagonal entry is not NaN, and a caller that tests its
    pivots as ``not min(diag c) >= floor`` sees a non-finite factor
    without a scan.  The stage does so, and scans the factor
    (``ValueError``) only when it re-runs after such a signal.
    """
    c, info = dpotrf(M, lower=1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    if info > 0:
        return None
    return c


def _posv(M, b):
    """``(c, x)``: the lower Cholesky factor of ``M`` and ``M^{-1} b``, from one ``dposv``; or None.

    Bitwise what :func:`_potrf` followed by a lower ``dpotrs`` gives, in
    one call: ``dposv`` runs those two routines.  Only ``M``'s lower
    triangle is read, and ``c``'s upper triangle holds ``M``'s, not
    zeros.  ``c`` and ``x`` are the wrapper's own copies, and ``M`` and
    ``b`` keep their bits, so a caller whose ``M`` is refused hands that
    same ``M`` to :func:`_getrf`.  None when ``dposv`` meets a
    non-positive pivot, as :func:`_potrf`; what a returned factor's
    smallest diagonal entry tells about its finiteness is said there.
    ``b`` is a vector or a matrix of right-hand-side columns, and is not
    checked, as by :func:`_getrs`.  The arguments go positionally: an f2py
    keyword such as ``lower=1`` costs about 0.5 us a call.
    """
    c, x, info = dposv(M, b, 1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dposv")
    if info > 0:
        return None
    return c, x


def _potri(c):
    """``M^{-1}`` from :func:`_potrf`'s factor ``c`` with LAPACK ``dpotri``, exactly symmetric.

    ``dpotri`` forms the lower triangle of the inverse in the wrapper's
    copy of ``c``; its strictly lower part is mirrored above the diagonal,
    so the result equals its transpose bit for bit.  ``c`` keeps its bits.
    """
    inv, info = dpotri(c, lower=1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotri")
    if info > 0:
        raise ValueError(f"dpotri met the zero pivot c[{info - 1}, {info - 1}]")
    low = np.tril(inv)
    return low + np.tril(low, -1).T


def norm(u):
    """Euclidean norm of the finite 1-D vector ``u``.

    The root of one BLAS ``ddot``, bitwise ``np.linalg.norm(u)``; a norm
    whose sum of squares overflows is ``inf``, with no warning.
    """
    v = as_vector(u)
    # ddot refuses an empty vector, whose norm is 0
    return math.sqrt(ddot(v, v)) if v.size else 0.0


def _eig_slack(L, eps=0.0):
    """Rounding slack ``(n+1) eps_mach (|L|_F + eps)`` of an eigenvalue of ``L + eps*I``.

    ``eigvalsh`` is LAPACK ``dsyevd`` without vectors, which finds the
    eigenvalues through ``dsterf``; they lie within ``2n u |L|_F`` of the
    exact ones, LAPACK Users' Guide §4.7, with ``p(n) = 2n`` and
    ``u = eps_mach/2``.  The slack adds ``2u (|L|_F + eps)`` for the
    rounding of a shifted diagonal and of ``w + eps``.  Every eigenvalue
    comparison widens by it: the psd flag's check in
    :class:`DenseOperator`, and in :mod:`~dsmflow.model` the proof route's
    spectrum, :func:`~dsmflow.model.check_resolvent_bound` and both routes
    of :func:`~dsmflow.model.check_sector`.

    ``|L|_F`` is ``np.linalg.norm``'s wherever that is finite.  Its sum of
    squares overflows once an entry passes about ``1e154``; there the norm
    is taken as ``s |L/s|_F`` with ``s = max|L|``, and the factor
    ``(n+1) eps_mach s`` first, so a slack the floats can hold is finite
    and nothing warns.
    """
    c = (L.dim + 1) * float(np.finfo(float).eps)
    with np.errstate(over="ignore"):
        fro = float(np.linalg.norm(L.entries))
    if math.isinf(fro):
        s = float(np.abs(L.entries).max())
        return c * s * (float(np.linalg.norm(L.entries / s)) + eps / s)
    return c * (fro + eps)


class DenseOperator:
    """Square real matrix with structural flags and cached factorizations.

    Parameters
    ----------
    entries : array_like
        Square matrix of finite reals.  A private row-major (C-ordered)
        copy is stored, whatever the input's layout.
    self_adjoint : bool
        Claim that the matrix equals its transpose.  Verified at
        construction against ``SELF_ADJOINT_RTOL`` times the operator norm;
        violation raises :class:`NotSymmetric`.  The operator then stores
        the symmetric part ``0.5 * (A + A^T)``, or raises ``ValueError``
        where it overflows; it is bitwise ``A`` for an exactly symmetric
        ``A``.  So the flag means that ``entries``
        equal their transpose exactly: its eigenvalues are those of
        ``entries``, and a matrix built from them by changing only the
        diagonal is symmetric, which Cholesky may factor.
    psd_claimed : bool
        Claim that the matrix is positive semidefinite.  Requires
        ``self_adjoint`` and is verified as ``lambda_min >= -slack`` with
        ``slack`` the eigensolver's rounding :func:`_eig_slack`, the
        comparison of :func:`~dsmflow.model.check_resolvent_bound`;
        violation raises :class:`NonPsdOperator`.

    An operator built with ``_verified=True`` skips both checks and stores
    ``entries`` as given; :meth:`shifted` builds one from an operator that
    passed them.
    """

    def __init__(self, entries, self_adjoint=False, psd_claimed=False, *, _verified=False):
        A = np.array(entries, dtype=float, order="C")
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
        self._inv = None
        if not _verified:
            self._verify_flags()

    # -- construction helpers -------------------------------------------------

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
        """Check the flags, and store a self-adjoint operator's symmetric part."""
        if not self.self_adjoint:
            return
        A = self.entries
        defect = float(np.max(np.abs(A - A.T)))
        self.entries = 0.5 * (A + A.T)
        if not _all_finite(self.entries):
            raise ValueError("operator's symmetric part overflows")
        opn = self.operator_norm()
        if defect > SELF_ADJOINT_RTOL * opn:
            raise NotSymmetric(
                f"self_adjoint flag violated: asymmetry {defect:.3e} "
                f"exceeds {SELF_ADJOINT_RTOL:g} * operator norm {opn:.3e}")
        if self.psd_claimed:
            lam, slack = float(self.eigenvalues()[0]), _eig_slack(self)
            if lam < -slack:
                raise NonPsdOperator(
                    f"psd flag violated: smallest eigenvalue {lam:.3e} below "
                    f"-{slack:.3e}, the eigensolver's rounding (n+1) eps_mach |L|_F")

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

        They are ``np.linalg.eigvalsh`` of the stored, exactly symmetric
        entries, taken once and cached; a :meth:`shifted` operator's are
        its parent's plus the shift.  Raises :class:`NotSymmetric` if the
        flag is not set.
        """
        if not self.self_adjoint:
            raise NotSymmetric("eigenvalues requires the self_adjoint flag")
        if self._eigvals is None:
            self._eigvals = np.linalg.eigvalsh(self.entries)
        return self._eigvals.copy()

    # -- linear solves -----------------------------------------------------------

    def _factorize(self):
        """Cached ``(lu, piv, minpiv, amax)``: the LU factors, the smallest pivot modulus and ``max|A|``.

        Taken once per operator by :func:`_getrf`, which leaves ``entries``
        as they were.  ``amax`` scales the relative pivot tests of
        :func:`~dsmflow.model.solve_linearized` and, plus ``max|g'(u)|``
        for a diagonal Jacobian, of :func:`~dsmflow.model.newton_velocity`,
        which reuse these factors instead of scanning or factoring ``A``
        again.
        """
        if self._lu is None:
            lu, piv = _getrf(self.entries)
            minpiv = float(np.abs(lu.diagonal()).min())
            self._lu = (lu, piv, minpiv, float(np.abs(self.entries).max()))
        return self._lu

    def _inverse(self):
        """Cached ``A^{-1}``, from :func:`_getri` on :meth:`_factorize`'s LU.

        Formed at the first call, so the flow's stage pays LAPACK ``dgetri``
        once per operator however many runs or single calls ask for it.
        The caller has passed :meth:`_solve_factors`'s pivot test.  The
        inverse is Fortran-ordered, as ``dgetri`` leaves it, so the BLAS
        products of :func:`~dsmflow.model._neumann_velocity` take it
        without a copy; for a ``self_adjoint`` operator it is symmetric
        only to rounding, and ``dsymv`` reads its upper triangle alone.
        """
        if self._inv is None:
            lu, piv, _, _ = self._factorize()
            self._inv = _getri(lu, piv)
        return self._inv

    def _solve_factors(self, b):
        """Cached ``(lu, piv)`` for solving against ``b``, after the checks of :meth:`solve`.

        Checks ``b``'s leading dimension and the pivots, but not ``b``'s
        entries: :meth:`solve` checks those itself, and
        :func:`~dsmflow.model.newton_velocity` leaves them to the map that
        made ``b``.
        """
        if b.shape[0] != self.dim:
            raise DimensionMismatch(
                f"right-hand side has leading dimension {b.shape[0]}, expected {self.dim}")
        opn = self.operator_norm()
        if opn == 0.0:
            raise SingularOperator("zero operator", condition_estimate=float("inf"))
        lu, piv, minpiv, _ = self._factorize()
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
        ``ValueError`` when ``b`` is not finite.
        """
        B = np.asarray(b, dtype=float)
        lu, piv = self._solve_factors(B)
        if not _all_finite(B):
            raise ValueError("right-hand side contains non-finite entries")
        return _getrs(lu, piv, B)
