"""Vector/operator kernel tests.

Singular values are cross-checked against a one-sided Jacobi iteration
written here in the tests, so the library's LAPACK route and the oracle
share no code.
"""

import warnings

import numpy as np
import pytest
import scipy.linalg

from dsmflow.errors import DimensionMismatch, NonPsdOperator, NotSymmetric, SingularOperator
from dsmflow.hilbert import DenseOperator, _all_finite, _getrf, _getrs, as_vector, inner, norm
from dsmflow.problems import ill_conditioned, singular_canonical


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


def test_inner_and_norm_consistent():
    rng = np.random.default_rng(0)
    for _ in range(20):
        u = rng.standard_normal(7)
        v = rng.standard_normal(7)
        assert inner(u, v) == pytest.approx(float(u @ v), rel=1e-15)
        assert norm(u) == pytest.approx(np.sqrt(inner(u, u)), rel=1e-15)
    with pytest.raises(DimensionMismatch):
        inner(np.ones(3), np.ones(4))


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


def test_identity_and_diagonal_constructors():
    I = DenseOperator.identity(4)
    assert I.self_adjoint and I.psd_claimed
    assert np.array_equal(I.entries, np.eye(4))
    D = DenseOperator.diagonal([2.0, 0.0, 1.0])
    assert D.psd_claimed
    Dneg = DenseOperator.diagonal([1.0, -1.0])
    assert not Dneg.psd_claimed


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
    A = DenseOperator.diagonal([3.0, 1.0, 2.0])
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
    A = DenseOperator.diagonal([1.0, 0.0])
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
        DenseOperator.diagonal([1.0, 0.0]).solve(np.ones(2))
    assert exc.value.condition_estimate == float("inf")
    with pytest.raises(SingularOperator):
        DenseOperator([[0.0]]).solve(np.ones(1))


def test_solve_pivot_threshold_is_relative():
    # the same pivot 1e-12 passes PIVOT_RTOL = 1e-14 against operator norm 1
    # and fails it against operator norm 1e4
    A = DenseOperator.diagonal([1.0, 1e-12])
    x = A.solve(np.array([1.0, 1e-12]))
    assert np.allclose(x, [1.0, 1.0])
    with pytest.raises(SingularOperator):
        DenseOperator.diagonal([1e4, 1e-12]).solve(np.ones(2))


def test_solve_rejects_bad_rhs():
    A = DenseOperator.identity(3)
    with pytest.raises(DimensionMismatch):
        A.solve(np.ones(4))
    with pytest.raises(ValueError):
        A.solve(np.array([1.0, np.inf, 0.0]))


# -- LAPACK LU helpers ----------------------------------------------------------


def same_bits(x, y):
    return (x.shape == y.shape and x.dtype == y.dtype
            and x.tobytes() == y.tobytes())


@pytest.mark.parametrize("n", [1, 10, 200])
@pytest.mark.parametrize("order", ["C", "F"])
def test_lu_helpers_are_bitwise_scipy_lu(n, order):
    rng = np.random.default_rng(n)
    M = np.array(random_matrix(rng, n), order=order)
    lu, piv = _getrf(M)
    ref_lu, ref_piv = scipy.linalg.lu_factor(M)
    assert same_bits(lu, ref_lu) and same_bits(piv, ref_piv)
    for b in (rng.standard_normal(n), rng.standard_normal((n, n))):
        assert same_bits(_getrs(lu, piv, b),
                         scipy.linalg.lu_solve((ref_lu, ref_piv), b))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_lu_helpers_reject_non_finite(bad):
    M = np.eye(3) + 0.1
    lu, piv = _getrf(M)
    b_bad = np.ones(3)
    b_bad[1] = bad
    with pytest.raises(ValueError):
        _getrs(lu, piv, b_bad)
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
    # _getrs trusts the factors _getrf returned and checks only b
    lu, piv = _getrf(np.eye(2))
    lu[1, 0] = np.nan
    assert np.isnan(_getrs(lu, piv, np.ones(2))).any()


def test_exactly_singular_lu_raises_no_warning():
    M = np.array([[1.0, 2.0], [2.0, 4.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lu, _ = _getrf(M)
        assert np.abs(lu.diagonal()).min() == 0.0
        with pytest.raises(SingularOperator):
            DenseOperator(M).solve(np.ones(2))
