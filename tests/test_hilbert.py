"""Vector/operator kernel tests.

Singular values are cross-checked against a one-sided Jacobi iteration
written here in the tests, so the library's LAPACK route and the oracle
share no code.
"""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from dsmflow import hilbert
from dsmflow.errors import DimensionMismatch, NonPsdOperator, NotSymmetric, SingularOperator
from dsmflow.hilbert import (DenseOperator, _all_finite, _eig_slack, _getrf, _getri, _getrs,
                             _posv, as_vector, norm)
from dsmflow.problems import ill_conditioned, singular_canonical
from evidence import diagonal_operator


def jacobi_singular_values(A, max_sweeps=100, tol=1e-15):
    """One-sided Jacobi SVD: rotate column pairs until mutually orthogonal.

    Independent of any LAPACK SVD path; the singular values are the final
    column norms.
    """
    U = np.array(A, dtype=float)
    n = U.shape[1]
    for _ in range(max_sweeps):
        rotated = False
        for i in range(n - 1):
            for j in range(i + 1, n):
                a = float(U[:, i] @ U[:, i])
                b = float(U[:, j] @ U[:, j])
                c = float(U[:, i] @ U[:, j])
                if a * b == 0.0 or abs(c) <= tol * np.sqrt(a * b):
                    continue
                rotated = True
                zeta = (b - a) / (2.0 * c)
                t = np.sign(zeta) / (abs(zeta) + np.hypot(1.0, zeta))
                cs = 1.0 / np.hypot(1.0, t)
                sn = cs * t
                rot = np.array([[cs, sn], [-sn, cs]])
                U[:, [i, j]] = U[:, [i, j]] @ rot
        if not rotated:
            break
    s = np.sqrt(np.sum(U * U, axis=0))
    return np.sort(s)[::-1]


def random_matrix(rng, n):
    return rng.standard_normal((n, n))


# -- vectors ---------------------------------------------------------------


def test_as_vector_accepts_lists_and_checks_dim():
    v = as_vector([1.0, 2.0, 3.0], dim=3)
    assert v.dtype == np.float64
    with pytest.raises(DimensionMismatch):
        as_vector([1.0, 2.0], dim=3)
    with pytest.raises(DimensionMismatch):
        as_vector([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_vector([1.0, np.nan])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_as_vector_refuses_a_non_finite_entry_with_its_message(bad):
    # the sum of squares is not finite, so the exact scan gives the verdict
    with pytest.raises(ValueError) as exc:
        as_vector([1.0, bad, 2.0], name="probe")
    assert type(exc.value) is ValueError
    assert str(exc.value) == "probe contains non-finite entries"


@pytest.mark.parametrize("x, scanned", [
    (np.array([1e200, 1.0]), True),
    (np.array([np.finfo(float).max, -np.finfo(float).max]), True),
    (np.empty(0), True),
    (np.array([1.0, -2.0, 3.0]), False),
    (np.array([1e150, -1e150]), False),
], ids=["squares-overflow", "max", "empty", "finite", "large-finite-squares"])
def test_as_vector_passes_every_finite_vector(monkeypatch, x, scanned):
    # only a finite vector whose squares overflow, or an empty one, which
    # ddot refuses, is scanned, and it passes the scan; none warns
    scans = []
    scan = hilbert._all_finite
    monkeypatch.setattr(hilbert, "_all_finite", lambda y: scans.append(y.size) or scan(y))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = as_vector(x)
    assert v.tobytes() == x.tobytes()
    assert scans == ([x.size] if scanned else [])


_GRID = np.arange(12.0).reshape(3, 4)
_GRID_NAN = _GRID.copy()
_GRID_NAN[1, 2] = np.nan
_MIXED = np.array([1.0, np.nan, 2.0, np.inf, 3.0])
_TINY = np.finfo(float).tiny


@pytest.mark.parametrize("x", [
    np.array([1.0, -2.0]),
    np.array([1.0, np.nan]),
    np.array([np.inf, 1.0]),
    np.array([1.0, -np.inf]),
    np.array([1e308, -1e308, np.finfo(float).max, -np.finfo(float).max]),
    np.array([5e-324, -5e-324, 0.5 * _TINY, -0.5 * _TINY]),
    np.array([-0.0, 0.0]),
    np.empty(0),
    np.empty((0, 3)),
    np.asfortranarray(_GRID),
    np.asfortranarray(_GRID_NAN),
    _GRID_NAN.T,
    _GRID_NAN[:, 1],
    _GRID_NAN[:, 2],
    _MIXED[::2],
    _MIXED[1::2],
], ids=["finite", "nan", "inf", "-inf", "huge", "subnormal", "signed-zero", "empty",
        "empty-2d", "fortran", "fortran-nan", "transposed-nan", "column-finite",
        "column-nan", "strided-finite", "strided-non-finite"])
def test_all_finite_is_isfinite_all(x):
    # the same predicate, and no arithmetic that could overflow or warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _all_finite(x) == np.isfinite(x).all()


def test_norm_is_euclidean():
    rng = np.random.default_rng(0)
    for _ in range(20):
        u = rng.standard_normal(7)
        assert norm(u) == pytest.approx(np.sqrt(float(u @ u)), rel=1e-15)
    with pytest.raises(DimensionMismatch):
        norm(np.ones((3, 4)))


@pytest.mark.parametrize("n", [1, 2, 7, 40, 200, 1000])
def test_norm_is_bitwise_numpys_and_overflows_without_a_warning(n):
    # the root of one ddot is bitwise np.linalg.norm, on contiguous and
    # strided vectors alike; a sum of squares that overflows is inf, where
    # numpy's dot warns, and the empty vector's norm is 0
    rng = np.random.default_rng(n)
    for scale in (1e-160, 1.0, 1e150):
        u = scale * rng.standard_normal(2 * n)
        for v in (u[:n], u[::2]):
            assert norm(v) == np.linalg.norm(v)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert norm(np.full(n, 1e300)) == math.inf
        assert norm(np.zeros(0)) == 0.0


# -- operator construction and flags ----------------------------------------


def test_operator_rejects_bad_shapes():
    with pytest.raises(DimensionMismatch):
        DenseOperator(np.ones((2, 3)))
    with pytest.raises(DimensionMismatch):
        DenseOperator(np.ones((0, 0)))
    with pytest.raises(ValueError):
        DenseOperator([[np.inf]])


def test_flag_violations_raise():
    asym = [[0.0, 1.0], [-1.0, 0.0]]
    with pytest.raises(NotSymmetric):
        DenseOperator(asym, self_adjoint=True)
    indefinite = [[1.0, 0.0], [0.0, -1.0]]
    with pytest.raises(NonPsdOperator):
        DenseOperator(indefinite, self_adjoint=True, psd_claimed=True)
    with pytest.raises(ValueError):
        DenseOperator(np.eye(2), self_adjoint=False, psd_claimed=True)


def test_operator_copies_input():
    A = np.eye(2)
    op = DenseOperator(A)
    A[0, 0] = 99.0
    assert op.entries[0, 0] == 1.0


def test_shifted_adds_eps_identity_and_keeps_flags():
    rng = np.random.default_rng(3)
    B = random_matrix(rng, 5)
    A = DenseOperator(B @ B.T, self_adjoint=True, psd_claimed=True)
    S = A.shifted(0.25)
    assert S.self_adjoint and S.psd_claimed
    assert np.allclose(S.entries, A.entries + 0.25 * np.eye(5))
    # S carries A's eigenvalues plus eps; an independent solve of S agrees
    assert np.array_equal(S.eigenvalues(), A.eigenvalues() + 0.25)
    ws = np.linalg.eigvalsh(S.entries)
    assert np.max(np.abs(S.eigenvalues() - ws)) < 1e-12 * A.operator_norm()
    with pytest.raises(ValueError):
        A.shifted(-1e-3)


def test_self_adjoint_operator_stores_its_exactly_symmetric_part():
    rng = np.random.default_rng(5)
    B = random_matrix(rng, 4)
    S = 0.5 * (B + B.T)
    # an exactly symmetric input is stored bitwise as given
    A = DenseOperator(S, self_adjoint=True)
    assert A.entries.tobytes() == S.tobytes()
    # the flag tolerates an asymmetry of one ulp, and the stored entries drop it
    E = S.copy()
    E[0, 1] = np.nextafter(E[0, 1], np.inf)
    N = DenseOperator(E, self_adjoint=True)
    assert not np.array_equal(E, E.T)
    assert N.entries.tobytes() == (0.5 * (E + E.T)).tobytes()
    for op in (N, N.shifted(0.5)):
        assert op.entries.flags.c_contiguous
        assert op.entries.tobytes() == op.entries.T.copy().tobytes()
    assert N.eigenvalues().tobytes() == np.linalg.eigvalsh(N.entries).tobytes()
    # an operator without the flag keeps its entries
    assert DenseOperator(B).entries.tobytes() == B.tobytes()
    # a symmetric part that overflows is refused, not stored as inf
    big = 1e308 * np.eye(2)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="symmetric part overflows"):
        DenseOperator(big, self_adjoint=True)


def test_psd_flag_is_checked_against_the_certificates_slack():
    # lambda_min = -1e-12 lies below the eigensolver's rounding (n+1) eps |L|_F,
    # which the self_adjoint_psd certificate allows, though above -1e-10 |L|
    with pytest.raises(NonPsdOperator, match="eigensolver's rounding"):
        DenseOperator(np.diag([-1e-12, 1.0]), self_adjoint=True, psd_claimed=True)
    # a zero eigenvalue that rounds negative within the slack is psd
    L = DenseOperator(np.diag([-1e-16, 1.0]), self_adjoint=True, psd_claimed=True)
    assert L.eigenvalues()[0] == -1e-16 and 1e-16 < _eig_slack(L)


def test_eig_slack_is_finite_where_the_sum_of_squares_overflows():
    # |L|_F = sqrt(2) 1e308 is representable though its sum of squares is
    # not: the slack is the scaled norm's, finite and without a warning; a
    # norm that does not overflow keeps np.linalg.norm's value bitwise
    c = 3 * np.finfo(float).eps
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        slack = _eig_slack(DenseOperator(1e308 * np.eye(2)), 1e300)
        small = _eig_slack(DenseOperator(1e150 * np.eye(2)), 0.5)
    assert slack == pytest.approx(c * (math.sqrt(2.0) * 1e308 + 1e300), rel=1e-15)
    assert small == c * (float(np.linalg.norm(1e150 * np.eye(2))) + 0.5)


# -- spectral quantities vs the Jacobi oracle --------------------------------


def test_singular_values_match_jacobi_oracle():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 5, 8, 13):
        B = random_matrix(rng, n)
        A = DenseOperator(B)
        s_lib = A.singular_values()
        s_jac = jacobi_singular_values(B)
        scale = max(s_jac[0], 1.0)
        assert np.max(np.abs(s_lib - s_jac)) <= 1e-12 * scale


def test_singular_values_on_known_diagonal():
    A = diagonal_operator([3.0, 1.0, 2.0])
    assert np.allclose(A.singular_values(), [3.0, 2.0, 1.0], rtol=0, atol=1e-15)
    assert A.operator_norm() == pytest.approx(3.0, abs=1e-15)
    assert A.smallest_singular_value() == pytest.approx(1.0, abs=1e-15)
    assert A.condition_estimate() == pytest.approx(3.0, rel=1e-14)


def test_smallest_singular_value_matches_inverse_norm_route():
    # 1 / sigma_min equals the operator norm of the inverse
    rng = np.random.default_rng(21)
    for _ in range(5):
        B = random_matrix(rng, 6) + 3.0 * np.eye(6)
        A = DenseOperator(B)
        inv = DenseOperator(np.linalg.inv(B))
        assert A.smallest_singular_value() == pytest.approx(
            1.0 / inv.operator_norm(), rel=1e-9)


def test_condition_of_singular_operator_is_inf():
    A = diagonal_operator([1.0, 0.0])
    assert A.condition_estimate() == float("inf")
    assert A.smallest_singular_value() == 0.0


def test_eigenvalues_ascending_fresh_copy_of_the_symmetric_part():
    rng = np.random.default_rng(31)
    B = random_matrix(rng, 7)
    A = DenseOperator(B + B.T, self_adjoint=True)
    w = A.eigenvalues()
    assert np.all(np.diff(w) >= 0)
    assert np.array_equal(w, np.linalg.eigvalsh(0.5 * (A.entries + A.entries.T)))
    # returned arrays are fresh copies, mutating them leaves the cache alone
    w[0] = 1e9
    assert A.eigenvalues()[0] != 1e9


def test_eigenvalues_require_flag():
    A = DenseOperator([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotSymmetric):
        A.eigenvalues()


def _random_psd():
    B = random_matrix(np.random.default_rng(33), 7)
    return DenseOperator(B @ B.T, self_adjoint=True, psd_claimed=True)


@pytest.mark.parametrize("eps", [1.0, 1e-3, 1e-8])
@pytest.mark.parametrize("make_L", [
    pytest.param(_random_psd, id="random-d7"),
    pytest.param(lambda: singular_canonical().problem.L, id="singular_canonical"),
    pytest.param(lambda: ill_conditioned(6).problem.L, id="ill_conditioned-d6"),
])
def test_shifted_singular_values_agree_with_an_svd(make_L, eps):
    # a self-adjoint operator's singular values are read off its eigenvalues
    L = make_L()
    n = L.dim
    ref = np.linalg.svd(L.entries + eps * np.eye(n), compute_uv=False)
    u = 0.5 * np.finfo(float).eps
    tol = 4 * (n + 1) * u * (np.linalg.norm(L.entries) + eps)
    assert np.max(np.abs(L.shifted(eps).singular_values() - ref)) <= tol


def test_self_adjoint_check_is_not_loosened_by_the_symmetric_part():
    # |sym(A)| <= |A|, so the norm the asymmetry is measured against cannot grow
    B = random_matrix(np.random.default_rng(35), 6)
    A = B + B.T
    A[0, 1] += 2e-12 * np.linalg.norm(A, 2)
    with pytest.raises(NotSymmetric):
        DenseOperator(A, self_adjoint=True)


# -- linear solves -----------------------------------------------------------


def test_solve_residual_small():
    rng = np.random.default_rng(41)
    for n in (1, 4, 9):
        B = random_matrix(rng, n) + n * np.eye(n)
        A = DenseOperator(B)
        b = rng.standard_normal(n)
        x = A.solve(b)
        assert np.linalg.norm(B @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_solve_matrix_rhs():
    rng = np.random.default_rng(43)
    B = random_matrix(rng, 5) + 5.0 * np.eye(5)
    A = DenseOperator(B)
    R = rng.standard_normal((5, 3))
    X = A.solve(R)
    assert X.shape == (5, 3)
    assert np.max(np.abs(B @ X - R)) < 1e-10


def test_solve_rejects_singular_and_zero():
    with pytest.raises(SingularOperator) as exc:
        diagonal_operator([1.0, 0.0]).solve(np.ones(2))
    assert exc.value.condition_estimate == float("inf")
    with pytest.raises(SingularOperator):
        DenseOperator([[0.0]]).solve(np.ones(1))


def test_solve_pivot_threshold_is_relative():
    # the same pivot 1e-12 passes PIVOT_RTOL = 1e-14 against operator norm 1
    # and fails it against operator norm 1e4
    A = diagonal_operator([1.0, 1e-12])
    x = A.solve(np.array([1.0, 1e-12]))
    assert np.allclose(x, [1.0, 1.0])
    with pytest.raises(SingularOperator):
        diagonal_operator([1e4, 1e-12]).solve(np.ones(2))


def test_solve_rejects_bad_rhs():
    A = diagonal_operator(np.ones(3))
    with pytest.raises(DimensionMismatch):
        A.solve(np.ones(4))
    # the one check of b's entries on this path: _getrs makes none
    for bad in (np.inf, -np.inf, np.nan):
        for b in (np.array([1.0, bad, 0.0]), np.array([[1.0], [0.0], [bad]])):
            with pytest.raises(ValueError,
                               match="^right-hand side contains non-finite entries$"):
                A.solve(b)


# -- LAPACK LU helpers ----------------------------------------------------------


def same_bits(x, y):
    return (x.shape == y.shape and x.dtype == y.dtype
            and x.tobytes() == y.tobytes())


@pytest.mark.parametrize("n", [1, 10, 200])
@pytest.mark.parametrize("order", ["C", "F"])
def test_lu_helpers_are_bitwise_scipy_lu(n, order):
    # _getrf factors its own copy, bitwise scipy's LU, and M keeps its bits
    # in either order
    rng = np.random.default_rng(n)
    M = np.array(random_matrix(rng, n), order=order)
    kept = M.copy(order="K")
    ref_lu, ref_piv = scipy.linalg.lu_factor(M.copy())
    lu, piv = _getrf(M)
    assert same_bits(lu, ref_lu) and same_bits(piv, ref_piv)
    assert same_bits(M, kept) and not np.shares_memory(lu, M)
    for b in (rng.standard_normal(n), rng.standard_normal((n, n))):
        assert same_bits(_getrs(lu, piv, b),
                         scipy.linalg.lu_solve((ref_lu, ref_piv), b))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_lu_helpers_reject_non_finite(bad):
    M = np.eye(3) + 0.1
    # _getrf does not scan M: the check of the factors must catch a bad
    # entry in every position, also where the pivot column is zero
    for M0 in (M, np.zeros((3, 3))):
        for i, j in np.ndindex(M0.shape):
            M_bad = M0.copy()
            M_bad[i, j] = bad
            with pytest.raises(ValueError, match="LU factors contain non-finite"):
                _getrf(M_bad)


def test_factors_are_checked_once_when_made():
    # every entry is finite, but elimination overflows: -1.5e308 - 0.5e308
    M = np.array([[1.0, 1e308], [0.5, -1.5e308]])
    with pytest.raises(ValueError, match="LU factors contain non-finite"):
        _getrf(M)
    # _getrs trusts the factors _getrf returned and checks neither them nor b
    lu, piv = _getrf(np.eye(2))
    lu[1, 0] = np.nan
    assert np.isnan(_getrs(lu, piv, np.ones(2))).any()


@pytest.mark.parametrize("n", [1, 10, 200])
def test_getri_inverts_the_lu_factors_on_its_own_copy(n):
    # the wrapper's copy of the factors becomes the inverse, with no identity
    # right-hand side; the factors keep their bits in either order
    rng = np.random.default_rng(n)
    M = random_matrix(rng, n) + n * np.eye(n)
    lu, piv = _getrf(M)
    for order in ("C", "F"):
        lu_o = np.array(lu, order=order)
        inv = _getri(lu_o, piv)
        assert same_bits(lu_o, lu) and not np.shares_memory(inv, lu_o)
    assert np.abs(inv @ M - np.eye(n)).max() <= 1e-13
    assert np.abs(inv - np.linalg.inv(M)).max() <= 1e-13 * np.abs(inv).max()
    with pytest.raises(ValueError, match="zero pivot"):
        _getri(np.zeros((2, 2), order="F"), np.array([1, 2], dtype=np.int32))


def test_inverse_is_formed_once_from_the_cached_lu(monkeypatch):
    # dgetri runs on _factorize's LU at the first call only, leaving it as it
    # was, and a shifted operator forms its own
    rng = np.random.default_rng(3)
    M = random_matrix(rng, 6) + 6 * np.eye(6)
    A = DenseOperator(M)
    calls = []
    getri = hilbert._getri
    monkeypatch.setattr(hilbert, "_getri", lambda lu, piv: calls.append(1) or getri(lu, piv))
    lu = A._factorize()[0].copy()
    inv = A._inverse()
    assert A._inverse() is inv and calls == [1] and same_bits(A._factorize()[0], lu)
    assert np.abs(inv @ M - np.eye(6)).max() <= 1e-13
    S = A.shifted(1.0)
    assert np.abs(S._inverse() @ S.entries - np.eye(6)).max() <= 1e-13 and calls == [1, 1]


@pytest.mark.parametrize("n", [1, 10, 200])
def test_cholesky_helpers_are_scipy_cholesky(n):
    # _posv factors its own copy as _getrf does: the factor's lower
    # triangle is bitwise scipy's Cholesky, the solution is bitwise scipy's
    # cho_solve with that factor, for a vector, a matrix and the identity
    # that the low-rank route's set-up inverts against, and M, row-major as
    # the stage passes it or column-major, and b keep their bits
    rng = np.random.default_rng(n)
    B = random_matrix(rng, n)
    M = B @ B.T + n * np.eye(n)
    M = 0.5 * (M + M.T)
    ref = scipy.linalg.cho_factor(M.copy(), lower=True)
    for order in ("C", "F"):
        M_o = np.array(M, order=order)
        for b in (rng.standard_normal(n), rng.standard_normal((n, n)), np.eye(n)):
            b0 = b.copy()
            c, x = _posv(M_o, b)
            assert same_bits(np.tril(c), np.tril(ref[0]))
            assert same_bits(x, scipy.linalg.cho_solve(ref, b))
            assert not np.shares_memory(c, M_o) and not np.shares_memory(x, b)
            assert same_bits(M_o, M) and same_bits(b, b0)


@pytest.mark.parametrize("M", [
    np.array([[1.0, 2.0], [2.0, 1.0]]),       # indefinite
    np.array([[1.0, 2.0], [2.0, 4.0]]),       # singular psd
    -np.eye(3),
], ids=["indefinite", "singular", "negative"])
def test_cholesky_refusal_is_none_with_no_warning(M):
    # a refusal leaves the arguments' bits as they were, in either order, so
    # the LU fallback factors that same matrix, bitwise scipy's LU of it
    with warnings.catch_warnings():
        # scipy warns of the singular case's zero pivot; _getrf does not
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        ref_lu, ref_piv = scipy.linalg.lu_factor(M)
    for order in ("C", "F"):
        M_o = np.array(M, order=order)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            b = np.ones(M.shape[0])
            assert _posv(M_o, b) is None
            assert same_bits(M_o, M) and same_bits(b, np.ones(M.shape[0]))
            lu, piv = _getrf(M_o)
        assert same_bits(lu, ref_lu) and same_bits(piv, ref_piv)


@pytest.mark.parametrize("order", ["C", "F"])
def test_factorize_leaves_the_entries_untouched(order):
    # entries are stored row-major whatever the input's order, so entries @ u
    # takes one BLAS path; _getrf factors its own copy, the entries keep their
    # bits, and amax is max|A| bitwise
    rng = np.random.default_rng(4)
    E = np.array(random_matrix(rng, 6), order=order)
    A = DenseOperator(E)
    assert A.entries.flags.c_contiguous and same_bits(A.entries, E)
    E0 = A.entries.copy()
    lu, piv, minpiv, amax = A._factorize()
    assert same_bits(A.entries, E0) and not np.shares_memory(lu, A.entries)
    ref_lu, ref_piv = scipy.linalg.lu_factor(E0)
    assert same_bits(lu, ref_lu) and same_bits(piv, ref_piv)
    assert amax == np.abs(E0).max()
    b = rng.standard_normal(6)
    assert same_bits(A.solve(b), scipy.linalg.lu_solve((ref_lu, ref_piv), b))


def test_exactly_singular_lu_raises_no_warning():
    M = np.array([[1.0, 2.0], [2.0, 4.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lu, _ = _getrf(M)
        assert np.abs(lu.diagonal()).min() == 0.0
        with pytest.raises(SingularOperator):
            DenseOperator(M).solve(np.ones(2))
