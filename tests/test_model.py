"""Problem model and certificate tests.

The linearized operator is cross-checked against central differences of
the preconditioned residual, and the sampled Newton bound against
a direct per-sample SVD, so each certified quantity has an independent
route in this file.
"""

import warnings
from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from dsmflow import hilbert, model
from dsmflow.continuation import solve_newton_flow
from dsmflow.errors import (DimensionMismatch, NotSymmetric,
                            SingularLinearization, SingularOperator)
from dsmflow.flow import integrate
from dsmflow.hilbert import DenseOperator, norm
from dsmflow.model import (BOUND_SAMPLES, CertificateKind, DsmProblem, NonlinearMap,
                           ball_samples, certify_newton_bound,
                           check_resolvent_bound, check_sector,
                           check_trust_condition, estimate_newton_bound,
                           full_residual, linearized_operator, monotonicity_certificate,
                           preconditioned_residual, solve_linearized)
from dsmflow.problems import (ill_conditioned, make_map, sector_blocks, singular_canonical,
                              singular_monotone, wellposed_cubic)
from evidence import diagonal_operator, fd_jacobian_check, monotonicity_witness


def cubic_map(scale=0.1):
    def fn(u):
        return scale * u ** 3
    def jac(u):
        return np.diag(3.0 * scale * u ** 2)
    # g'(u) = diag(3 s u^2) is psd for s >= 0 and unbounded below otherwise
    return NonlinearMap(fn, jac, name="cubic", params={"scale": scale},
                        jac_floor=0.0 if scale >= 0.0 else None)


def small_problem(dim=4, eps=0.0, seed=7):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((dim, dim))
    L = DenseOperator(B @ B.T + dim * np.eye(dim), self_adjoint=True,
                      psd_claimed=True)
    u0 = rng.standard_normal(dim) * 0.3
    return DsmProblem(L=L, g=cubic_map(), u0=u0, radius=2.0, epsilon=eps)


# -- maps and problems -------------------------------------------------------


def test_map_validates_output_shape_and_finiteness():
    bad_shape = NonlinearMap(lambda u: u[:1], lambda u: np.eye(u.size))
    with pytest.raises(DimensionMismatch):
        bad_shape(np.ones(3))
    bad_value = NonlinearMap(lambda u: u * np.nan, lambda u: np.eye(u.size))
    with pytest.raises(ValueError):
        bad_value(np.ones(2))
    bad_jac = NonlinearMap(lambda u: u, lambda u: np.eye(u.size + 1))
    with pytest.raises(DimensionMismatch):
        bad_jac.jacobian(np.ones(2))


def test_map_takes_a_diagonal_or_no_jacobian():
    u = np.array([1.0, -2.0, 0.5])
    diag = NonlinearMap(lambda v: v ** 3, lambda v: 3.0 * v ** 2)
    assert np.array_equal(diag._jacobian(u), 3.0 * u ** 2)
    assert np.array_equal(diag.jacobian(u), np.diag(3.0 * u ** 2))
    none = NonlinearMap(lambda v: np.ones(v.size), None)
    assert none._jacobian(u) is None
    J = none.jacobian(u)
    assert J.shape == (3, 3) and not J.any()
    # a vector is checked on its n entries, as a matrix on its n^2
    with pytest.raises(DimensionMismatch, match=r"shape \(4,\), expected \(3,\) or \(3, 3\)"):
        NonlinearMap(lambda v: v, lambda v: np.ones(v.size + 1)).jacobian(u)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="Jacobian has non-finite entries"):
            NonlinearMap(lambda v: v, lambda v, bad=bad: np.full(v.size, bad)).jacobian(u)


def test_map_takes_a_jacobian_in_a_declared_basis():
    # jac_fn returns d of length r, checked against the basis's column count
    # and the input's length; jacobian(u) is the dense (B * d) @ B^T
    B = np.array([[1.0, 0.0], [0.0, 0.6], [0.0, 0.8]])
    u = np.array([1.0, -2.0, 0.5])
    g = NonlinearMap(lambda v: v, lambda v: np.array([2.0, 3.0]), jac_basis=B.tolist())
    assert g.jac_basis.dtype == float and np.array_equal(g.jac_basis, B)
    assert np.array_equal(g._jacobian(u), [2.0, 3.0])
    assert np.array_equal(g.jacobian(u), (B * [2.0, 3.0]) @ B.T)
    for d, x in ((np.ones(3), u), (np.ones((2, 2)), u), (np.ones(2), np.ones(4))):
        with pytest.raises(DimensionMismatch, match="on basis"):
            NonlinearMap(lambda v: v, lambda v, d=d: d, jac_basis=B).jacobian(x)
    with pytest.raises(ValueError, match="Jacobian has non-finite entries"):
        NonlinearMap(lambda v: v, lambda v: np.array([1.0, np.nan]), jac_basis=B).jacobian(u)
    # finite d whose dense form overflows is refused as a non-finite Jacobian
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ValueError, match="non-finite entries"):
        NonlinearMap(lambda v: v, lambda v: np.array([1e308, 1e308]),
                     jac_basis=1e10 * B).jacobian(u)
    for bad in (np.ones(3), np.ones((3, 0)), np.array([[1.0], [np.inf], [0.0]])):
        with pytest.raises(ValueError, match="Jacobian basis must be a finite"):
            NonlinearMap(lambda v: v, lambda v: np.ones(1), jac_basis=bad)


def test_map_refuses_a_non_finite_jacobian_floor():
    assert NonlinearMap(lambda v: v, None).jac_floor is None
    assert NonlinearMap(lambda v: v, None, jac_floor=-1).jac_floor == -1.0
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=f"^map 'mine' Jacobian floor must be finite, "
                                             f"got {bad}$"):
            NonlinearMap(lambda v: v, None, name="mine", jac_floor=bad)


def test_problem_validates_radius_epsilon_and_probes_map():
    L = diagonal_operator(np.ones(2))
    g = cubic_map()
    for radius in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match=f"^trust radius must be finite and positive, "
                                             f"got {radius}$"):
            DsmProblem(L=L, g=g, u0=np.zeros(2), radius=radius)
    for eps in (-0.1, float("inf"), float("nan")):
        with pytest.raises(ValueError, match=f"^epsilon must be finite and nonnegative, "
                                             f"got {eps}$"):
            DsmProblem(L=L, g=g, u0=np.zeros(2), radius=1.0, epsilon=eps)
    with pytest.raises(DimensionMismatch):
        DsmProblem(L=L, g=g, u0=np.zeros(3), radius=1.0)
    # the constructor evaluates g once, so a map inconsistent with the
    # operator dimension fails here rather than mid-integration
    broken = NonlinearMap(lambda u: u[:1], lambda u: np.eye(u.size))
    with pytest.raises(DimensionMismatch):
        DsmProblem(L=L, g=broken, u0=np.zeros(2), radius=1.0)


def test_shifted_operator_tracks_epsilon():
    p = small_problem(eps=0.0)
    assert p.shifted is p.L
    q = p.with_epsilon(0.5)
    assert np.allclose(q.shifted.entries, p.L.entries + 0.5 * np.eye(p.dim))
    assert q.shifted.self_adjoint and q.shifted.psd_claimed
    # original untouched
    assert p.epsilon == 0.0


def test_replace_start_reruns_problem_checks():
    p = small_problem()
    u1 = np.zeros(p.dim)
    q = replace(p, u0=u1)
    assert np.array_equal(q.u0, u1) and q.radius == p.radius
    r = replace(p, u0=u1, radius=9.0)
    assert r.radius == 9.0
    with pytest.raises(DimensionMismatch):
        replace(p, u0=np.zeros(p.dim + 1))
    with pytest.raises(ValueError):
        replace(p, u0=np.full(p.dim, np.nan))
    with pytest.raises(ValueError):
        replace(p, radius=-1.0)


def test_singular_unshifted_problem_is_lazy():
    L = diagonal_operator([1.0, 0.0])
    p = DsmProblem(L=L, g=cubic_map(0.0), u0=np.ones(2), radius=3.0)
    # residual of the full equation needs no inverse
    assert np.allclose(full_residual(p, np.ones(2)), [1.0, 0.0])
    with pytest.raises(SingularOperator):
        preconditioned_residual(p, p.u0)
    # shifting restores solvability
    assert np.all(np.isfinite(preconditioned_residual(p.with_epsilon(1e-3), p.u0)))


# -- residual relationships ---------------------------------------------------


def test_full_residual_is_shifted_image_of_preconditioned():
    for eps in (0.0, 0.3):
        p = small_problem(eps=eps, seed=11)
        rng = np.random.default_rng(1)
        for _ in range(10):
            u = p.u0 + 0.5 * rng.standard_normal(p.dim)
            lhs = full_residual(p, u)
            rhs = p.shifted.apply(preconditioned_residual(p, u))
            scale = max(np.linalg.norm(lhs), 1.0)
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * scale


def test_linearized_operator_matches_fd_of_preconditioned_residual():
    p = small_problem(eps=0.1, seed=13)
    rng = np.random.default_rng(2)
    h = 1e-6
    for _ in range(5):
        u = p.u0 + 0.4 * rng.standard_normal(p.dim)
        T = linearized_operator(p, u).entries
        fd = np.zeros_like(T)
        for j in range(p.dim):
            e = np.zeros(p.dim)
            e[j] = h
            fd[:, j] = (preconditioned_residual(p, u + e)
                        - preconditioned_residual(p, u - e)) / (2.0 * h)
        assert np.max(np.abs(T - fd)) <= 1e-6 * max(1.0, np.max(np.abs(T)))


def test_solve_linearized_solves_and_refuses_singular():
    p = small_problem(seed=17)
    T = linearized_operator(p, p.u0)
    rhs = np.ones(p.dim)
    x = solve_linearized(T, rhs)
    assert np.linalg.norm(T.entries @ x - rhs) <= 1e-10
    singular = DenseOperator(np.diag([1.0, 0.0]))
    with pytest.raises(SingularLinearization):
        solve_linearized(singular, np.ones(2))
    # tiny pivot but genuinely invertible: the SVD recheck lets it through
    thin = DenseOperator(np.diag([1.0, 1e-10]))
    x2 = solve_linearized(thin, np.array([1.0, 1e-10]))
    assert np.allclose(x2, [1.0, 1.0])


# -- the stage's faults -----------------------------------------------------------
#
# A stage scans only its point and checks the rest through one fault signal;
# when it fires, the stage runs again with every scan on.  Each case pins the
# exception class and message of the first fault, as the stage raised them
# when it scanned every array it touched.  Only the overflow cases overflow
# on purpose; every other case runs with RuntimeWarning as an error.


_FAR = np.array([3.0, 0.0])
_BIG = 1e308 * np.eye(2)
# a diagonal whose A + A^T, formed by the self_adjoint flag, stays finite (1.6e308)
_BIG_SYMMETRIC = 0.8e308 * np.eye(2)


def _faulty(fn=None, jac=None, L=None):
    """dim 2, u0 = 0, g = 0.1 u^3 with its Jacobian as a vector, and ``fn``/``jac``
    instead where ``u[0] > 2``: DsmProblem probes g and g' at u0."""
    def g(u):
        return fn(u) if fn is not None and u[0] > 2.0 else 0.1 * (u * u * u)

    def g_jac(u):
        return jac(u) if jac is not None and u[0] > 2.0 else 0.3 * u ** 2

    L = diagonal_operator(np.ones(2)) if L is None else L
    return DsmProblem(L=L, g=NonlinearMap(g, g_jac, name="faulty"), u0=np.zeros(2),
                      radius=10.0)


def _faulty_basis(jac):
    """dim 2, u0 = 0, ``g = 0.1 (B^T u)^3 B`` with its Jacobian declared in the basis
    ``B = e_0``, and ``jac`` for ``d`` where ``u[0] > 2``: on ``L = I`` the
    run's low-rank gate opens, with ``beta = 1``."""
    B = np.array([[1.0], [0.0]])

    def g(u):
        return 0.1 * (B @ (B.T @ u) ** 3)

    def g_jac(u):
        return jac(u) if u[0] > 2.0 else 0.3 * (B.T @ u) ** 2

    return DsmProblem(L=diagonal_operator(np.ones(2)),
                      g=NonlinearMap(g, g_jac, name="faulty", jac_floor=0.0, jac_basis=B),
                      u0=np.zeros(2), radius=10.0)


def _zero_jacobian(L, c):
    """dim 2, u0 = 0 and ``g = c`` with ``jac_fn=None``: the stage's ``T`` is ``I``."""
    return DsmProblem(L=L, g=NonlinearMap(lambda u: np.full(2, c), None, name="faulty"),
                      u0=np.zeros(2), radius=10.0)


def _raise(exc):
    def fn(u):
        raise exc
    return fn


_NAN_G = lambda u: np.array([np.nan, 0.0])  # noqa: E731
_NAN_J = lambda u: np.array([1.0, np.nan])  # noqa: E731
_NON_FINITE_G = "map 'faulty' returned non-finite values"
_NON_FINITE_J = "map 'faulty' Jacobian has non-finite entries"
_NON_FINITE_RHS = "right-hand side contains non-finite entries"

_FAULTS = [
    ("point-nan", lambda: _faulty(), np.array([1.0, np.nan]), False,
     ValueError, "vector contains non-finite entries"),
    ("point-inf", lambda: _faulty(), np.array([1.0, np.inf]), False,
     ValueError, "vector contains non-finite entries"),
    ("point-wrong-length", lambda: _faulty(), np.zeros(3), False,
     DimensionMismatch, "right-hand side has leading dimension 3, expected 2"),
    ("g-nan", lambda: _faulty(fn=_NAN_G), _FAR, False, ValueError, _NON_FINITE_G),
    ("g-inf", lambda: _faulty(fn=lambda u: np.array([np.inf, 0.0])), _FAR, False,
     ValueError, _NON_FINITE_G),
    ("jacobian-vector-nan", lambda: _faulty(jac=_NAN_J), _FAR, False,
     ValueError, _NON_FINITE_J),
    ("jacobian-matrix-nan", lambda: _faulty(jac=lambda u: np.array([[np.nan, 0.0], [0.0, 1.0]])),
     _FAR, False, ValueError, _NON_FINITE_J),
    ("g-and-jacobian-nan", lambda: _faulty(fn=_NAN_G, jac=_NAN_J), _FAR, False,
     ValueError, _NON_FINITE_G),
    ("g-nan-and-jacobian-raises",
     lambda: _faulty(fn=_NAN_G, jac=_raise(ArithmeticError("g' is undefined here"))), _FAR,
     False, ValueError, _NON_FINITE_G),
    ("map-raises", lambda: _faulty(fn=_raise(ZeroDivisionError("g is undefined here"))),
     _FAR, False, ZeroDivisionError, "g is undefined here"),
    ("jacobian-raises", lambda: _faulty(jac=_raise(ArithmeticError("g' is undefined here"))),
     _FAR, False, ArithmeticError, "g' is undefined here"),
    ("singular-A", lambda: _faulty(L=diagonal_operator([1.0, 0.0])), _FAR, False,
     SingularOperator,
     "pivot 0.000e+00 below 1e-14 * operator norm 1.000e+00 (condition estimate inf)"),
    ("singular-A-and-g-nan",
     lambda: _faulty(fn=_NAN_G, L=diagonal_operator([1.0, 0.0])), _FAR, False,
     ValueError, _NON_FINITE_G),
    ("matrix-overflows",
     lambda: _faulty(jac=lambda u: np.full(2, 1e308), L=DenseOperator(_BIG)), _FAR, True,
     ValueError, "matrix to factor contains non-finite entries"),
    # A f overflows on both factor routes: 2.4e308 on the Cholesky one,
    # whose g'(u) = 1e307 puts q = 0.125 above the Neumann route's bound,
    # and 3e308 on the LU one, whose dense g'(u) has no q
    ("Af-overflows-cholesky",
     lambda: _faulty(jac=lambda u: np.full(2, 1e307),
                     L=DenseOperator(_BIG_SYMMETRIC, self_adjoint=True)), _FAR, True,
     ValueError, _NON_FINITE_RHS),
    ("Af-overflows-lu",
     lambda: _faulty(jac=lambda u: np.diag(0.3 * u ** 2), L=DenseOperator(_BIG)), _FAR, True,
     ValueError, _NON_FINITE_RHS),
    # a declared basis's d that is not finite fails the low-rank route's
    # scale max|H| + max|d|, and the checked run scans d as g'(u)
    ("basis-d-nan", lambda: _faulty_basis(lambda u: np.array([np.nan])), _FAR, False,
     ValueError, _NON_FINITE_J),
    ("basis-d-inf", lambda: _faulty_basis(lambda u: np.array([np.inf])), _FAR, False,
     ValueError, _NON_FINITE_J),
    # f = u + A^{-1} g(u) = 1e310 overflows where the Jacobian is zero
    ("f-overflows-no-jacobian",
     lambda: _zero_jacobian(DenseOperator(1e-300 * np.eye(2)), 1e10), _FAR, True,
     ValueError, _NON_FINITE_RHS),
]


@pytest.mark.parametrize("make, u, overflows, cls, message",
                         [pytest.param(*case[1:], id=case[0]) for case in _FAULTS])
def test_stage_faults_raise_what_a_scan_of_every_array_raised(make, u, overflows, cls, message):
    problem = make()
    with np.errstate(over="ignore") if overflows else nullcontext(), pytest.raises(cls) as exc:
        model.newton_velocity(problem, u)
    assert type(exc.value) is cls and str(exc.value) == message


@pytest.mark.parametrize("case, factor", [("Af-overflows-cholesky", "_potrf"),
                                          ("Af-overflows-lu", "_getrf")])
def test_af_overflow_cases_reach_their_factor_route(monkeypatch, case, factor):
    # each case factors by the route its id names, in the unchecked stage and
    # again in its checked re-run, and never takes the Neumann route
    make = next(c[1] for c in _FAULTS if c[0] == case)
    calls = []
    for name in ("_potrf", "_getrf"):
        binding = getattr(model, name)
        monkeypatch.setattr(model, name, lambda M, name=name, binding=binding:
                            calls.append(name) or binding(M))
    monkeypatch.setattr(model, "_neumann_velocity", lambda *a: pytest.fail("took the route"))
    with np.errstate(over="ignore"), pytest.raises(ValueError):
        model.newton_velocity(make(), _FAR)
    assert calls == [factor, factor]


def test_basis_fault_cases_reach_the_low_rank_route(monkeypatch):
    # the unchecked stage takes the low-rank route, which refuses d before
    # it factors, and its checked re-run raises before it would factor the
    # dense (B * d) @ B^T: the one factorization is the run's dpotrf of G
    routes, factors = [], []
    lowrank = model._lowrank_velocity
    monkeypatch.setattr(model, "_lowrank_velocity",
                        lambda *a: routes.append(a[1].copy()) or lowrank(*a))
    for name in ("_potrf", "_getrf"):
        binding = getattr(model, name)
        monkeypatch.setattr(model, name, lambda M, binding=binding:
                            factors.append(M.shape) or binding(M))
    for case in ("basis-d-nan", "basis-d-inf"):
        make = next(c[1] for c in _FAULTS if c[0] == case)
        routes.clear()
        factors.clear()
        with pytest.raises(ValueError):
            model.newton_velocity(make(), _FAR)
        assert len(routes) == 1 and not np.isfinite(routes[0]).any()
        assert factors == [(1, 1)]


def test_zero_jacobian_stage_never_forms_a_f(monkeypatch):
    # T = I, so the velocity is -f bitwise, from the one dgetrs behind f:
    # the A f = 3e308 that a factor route would form, and that overflows,
    # is never taken, so the stage neither raises nor warns
    problem = _zero_jacobian(DenseOperator(_BIG), 0.5)
    solves = []
    getrs = model._getrs
    monkeypatch.setattr(model, "_getrs", lambda *a: solves.append(1) or getrs(*a))
    for name in ("_potrf", "_getrf"):
        monkeypatch.setattr(model, name, lambda M: pytest.fail("the stage factored"))
    monkeypatch.setattr(hilbert, "_getri", lambda *a: pytest.fail("the stage inverted A"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v, p, gu = model._stage(problem)(_FAR)
    f = _FAR + scipy.linalg.lu_solve(scipy.linalg.lu_factor(_BIG), np.full(2, 0.5))
    assert v.tobytes() == (-f).tobytes() and p == np.linalg.norm(f) and solves == [1]


@pytest.mark.parametrize("make", [wellposed_cubic, sector_blocks])
def test_nan_jacobian_at_a_neumann_dim_raises_the_checked_scan(monkeypatch, make):
    # at dim 64 a finite g'(u) near u0 takes the Neumann route and inverts A,
    # once per run; a NaN one gives a NaN q, which the route refuses, and the
    # factor path's max|M| sends the stage to its checked re-run, whose scan
    # raises.  The near point is off u0, where sector_blocks' g'(u0) = 0
    # gives q = 0, which reads no inverse
    p = make(64).problem
    jac = p.g.jac_fn

    def nan_far(u):
        return np.full(u.size, np.nan) if u[0] > 2.0 else jac(u)

    p = replace(p, g=NonlinearMap(p.g.fn, nan_far, name="faulty"))
    far = p.u0.copy()
    far[0] = 3.0
    inversions = []
    getri = hilbert._getri
    monkeypatch.setattr(hilbert, "_getri", lambda *a: inversions.append(1) or getri(*a))
    stage = model._stage(p)
    stage(p.u0 + 0.01)
    with pytest.raises(ValueError) as exc:
        stage(far)
    assert type(exc.value) is ValueError and str(exc.value) == _NON_FINITE_J
    assert inversions == [1]


def test_stage_fault_on_a_nan_cholesky_pivot_raises_the_factor_scan(monkeypatch):
    # dpotrf that accepts M (info = 0) but leaves a NaN pivot, as OpenBLAS
    # does on a NaN that reaches a pivot's argument: the pivot test is the
    # signal, and the scan of the re-run, a second dpotrf, raises
    dpotrf = hilbert.dpotrf
    calls = []

    def nan_pivot(M, **kw):
        c, info = dpotrf(M, **kw)
        calls.append(info)
        c[-1, -1] = np.nan
        return c, 0

    monkeypatch.setattr(hilbert, "dpotrf", nan_pivot)
    problem = _faulty()
    with pytest.raises(ValueError) as exc:
        model.newton_velocity(problem, _FAR)
    assert type(exc.value) is ValueError
    assert str(exc.value) == "Cholesky factor contains non-finite entries"
    assert calls == [0, 0]


def test_stage_false_alarm_returns_the_scanned_result_without_a_warning():
    # M = diag(1, 2e-9) passes the pivot test, and v = -M^{-1} f with
    # f = (0, 1e147) is (0, -5e155): finite, but v.v overflows, so the signal
    # fires and the re-run with every scan on returns the same v, with no
    # RuntimeWarning (an error here) from the test itself
    j = np.array([0.0, 2e-9 - 1.0])
    c = np.array([0.0, 1e147])
    calls = []
    g = NonlinearMap(lambda u: calls.append(1) or c + j * u, lambda u: j.copy(), name="steep")
    problem = DsmProblem(L=diagonal_operator(np.ones(2)), g=g, u0=np.zeros(2), radius=1.0)
    stage = model._stage(problem)
    calls.clear()
    v, p, gu = stage(problem.u0)
    assert len(calls) == 2 and p == 1e147
    assert np.isfinite(v).all() and v[1] == pytest.approx(-5e155, rel=1e-7)
    checked = stage(problem.u0, True)
    assert all(a.tobytes() == b.tobytes() for a, b in zip((v, gu), checked[::2]))
    assert p == checked[1]


def test_map_checks_only_shapes_without_the_scan():
    g = NonlinearMap(lambda u: u / 0.0 if u[0] > 0 else np.zeros(3),
                     lambda u: np.full(u.size, np.inf), name="bad")
    u = np.array([1.0, 0.0])
    with np.errstate(divide="ignore", invalid="ignore"):
        out = g._value(u, False)
        with pytest.raises(ValueError, match="returned non-finite values"):
            g._value(u)
    assert out.shape == (2,) and not np.isfinite(out).all()
    assert np.isinf(g._jacobian(u, False)).all()
    with pytest.raises(ValueError, match="Jacobian has non-finite entries"):
        g._jacobian(u)
    with pytest.raises(DimensionMismatch):
        g._value(np.array([-1.0, 0.0]), False)


# -- sampling -----------------------------------------------------------------


def test_ball_samples_deterministic_and_in_ball():
    c = np.array([1.0, -2.0, 0.5])
    a = ball_samples(c, 2.0, 16, seed=5)
    b = ball_samples(c, 2.0, 16, seed=5)
    assert len(a) == 17  # center prepended
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    for x in a:
        assert norm(x - c) <= 2.0 * (1 + 1e-12)
    on_boundary = sum(abs(norm(x - c) - 2.0) < 1e-9 for x in a[1:])
    assert on_boundary == 8
    assert len(ball_samples(c, 2.0, 4, seed=5)[1:]) == 4
    with pytest.raises(ValueError):
        ball_samples(c, -1.0, 4)
    with pytest.raises(ValueError):
        ball_samples(c, 1.0, 0)
    # a float count raised range's TypeError, and True drew one sample
    for count in (2.5, True, 4.0, -1):
        with pytest.raises(ValueError, match="sample count must be an integer >= 1"):
            ball_samples(c, 1.0, count)
    # a NaN radius drew [nan nan], an infinite one [inf -inf]
    for radius in (np.nan, np.inf):
        with pytest.raises(ValueError, match="ball radius must be finite and positive"):
            ball_samples(np.zeros(2), radius, 2)


# -- Newton bound --------------------------------------------------------------


def test_newton_bound_matches_direct_svd_route():
    p = small_problem(eps=0.2, seed=19)
    samples = ball_samples(p.u0, p.radius, 12, seed=3)
    cert = estimate_newton_bound(p, samples)
    assert cert.kind is CertificateKind.NEWTON_BOUND and cert.passed
    # direct route: per-sample sigma_min of I + (L+eps)^{-1} J via numpy
    shifted = p.L.entries + p.epsilon * np.eye(p.dim)
    worst = min(
        np.linalg.svd(np.eye(p.dim) + np.linalg.solve(shifted, p.g.jacobian(u)),
                      compute_uv=False)[-1]
        for u in samples)
    assert cert.quantities["bound"] == pytest.approx(1.0 / worst, rel=1e-9)
    assert cert.quantities["n_samples"] == len(samples)


def svd_every_sample(p, samples):
    """The reference loop: the SVD of every sample's ``T``, formed as the library does."""
    worst = float("inf")
    for u in samples:
        T = np.eye(p.dim) + p.shifted.solve(p.g.jacobian(u))
        worst = min(worst, float(np.linalg.svd(T, compute_uv=False)[-1]))
    return worst


def _wellposed(dim):
    p = wellposed_cubic(dim=dim, seed=5).problem
    return p, ball_samples(p.u0, p.radius, 64, seed=1)


def _tied(cubic):
    # T = I on the nullspace and T >= I on the range: every sample ties at 1
    p = singular_monotone(dim=12, rank=6, cubic_scale=cubic, seed=8).problem
    p = p.with_epsilon(1e-3)
    return p, ball_samples(p.u0, p.radius, 64, seed=2)


def _duplicated():
    p, samples = _wellposed(12)
    return p, [samples[5]] * 3 + samples[:20] + samples[:20]


def _jittered():
    # near duplicates whose sigma_min differ in the last few bits only
    p, samples = _wellposed(30)
    rng = np.random.default_rng(9)
    centre = p.u0 + 0.5 * (samples[7] - p.u0)
    return p, [centre + 1e-14 * rng.standard_normal(p.dim) for _ in range(80)]


def _each_a_new_minimum():
    p, samples = _wellposed(12)
    sigma = [svd_every_sample(p, [u]) for u in samples]
    order = np.argsort(sigma, kind="stable")[::-1]
    return p, [samples[i] for i in order]


def _descending_within_margin():
    # sigma_min falls by about 1e-15 per sample, a few ulps at a time
    p, samples = _wellposed(30)
    u = samples[3]
    d = u - p.u0
    return p, [u - 1e-12 * k * d for k in range(39, -1, -1)]


@pytest.mark.parametrize("case", [
    *(pytest.param(lambda d=d: _wellposed(d), id=f"wellposed-d{d}") for d in (1, 2, 12, 50)),
    *(pytest.param(lambda c=c: _tied(c), id=f"tied-cubic{c:g}") for c in (0.0, 0.1)),
    pytest.param(_duplicated, id="duplicated"),
    pytest.param(_jittered, id="jittered"),
    pytest.param(_each_a_new_minimum, id="each-a-new-minimum"),
    pytest.param(_descending_within_margin, id="descending-within-margin"),
])
def test_newton_bound_screen_is_bitwise_the_svd_of_every_sample(case):
    p, samples = case()
    worst = svd_every_sample(p, samples)
    q = estimate_newton_bound(p, samples).quantities
    assert q["worst_sigma_min"] == worst
    assert q["bound"] == 1.0 / worst


def count_solves_and_svds(monkeypatch, p, samples):
    """``estimate_newton_bound``'s quantities, its n-column ``A.solve`` calls and its SVDs."""
    p.shifted.singular_values()   # cache A's own SVD, if it takes one, before counting
    counts = {"solve": 0, "svd": 0}
    solve, svd = DenseOperator.solve, np.linalg.svd

    def counting_solve(self, b, *args, **kwargs):
        counts["solve"] += np.ndim(b) == 2
        return solve(self, b, *args, **kwargs)

    def counting_svd(*args, **kwargs):
        counts["svd"] += 1
        return svd(*args, **kwargs)

    monkeypatch.setattr(DenseOperator, "solve", counting_solve)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    q = estimate_newton_bound(p, samples).quantities
    monkeypatch.undo()
    return q, counts["solve"], counts["svd"]


def _cloud(p, seed=1):
    return p, ball_samples(p.u0, p.radius, 64, seed=seed)


def _tiny_scale():
    # small_problem scaled by 1e-170: T is unchanged, and the result must stay
    # bitwise the SVD of every sample at this scale
    p = small_problem(dim=6, eps=0.2, seed=7)
    g = NonlinearMap(lambda u: 1e-171 * u ** 3, lambda u: np.diag(3e-171 * u ** 2))
    A = DenseOperator(1e-170 * p.shifted.entries)
    return _cloud(DsmProblem(L=A, g=g, u0=p.u0, radius=p.radius))


@pytest.mark.parametrize("case", [
    # the 65 samples wellposed_cubic's trust tag certifies (seed 42)
    pytest.param(lambda: _cloud(wellposed_cubic(dim=200).problem, seed=42),
                 id="wellposed-d200"),
    pytest.param(lambda: _cloud(sector_blocks(8).problem),
                 id="sector-nonsymmetric"),
    pytest.param(lambda: _cloud(ill_conditioned(10).problem.with_epsilon(1e-2)),
                 id="ill-conditioned-eps1e-2"),
    pytest.param(lambda: _cloud(ill_conditioned(10).problem.with_epsilon(1e-6)),
                 id="ill-conditioned-eps1e-6"),
    pytest.param(_tiny_scale, id="tiny-scale"),
])
def test_newton_bound_route_is_bitwise_the_svd_of_every_sample(monkeypatch, case):
    p, samples = case()
    q, n_solves, n_svds = count_solves_and_svds(monkeypatch, p, samples)
    worst = svd_every_sample(p, samples)
    assert q["worst_sigma_min"] == worst
    assert q["bound"] == 1.0 / worst
    # T is formed, and its SVD taken, once per sample
    assert n_solves == len(samples)
    assert n_svds == len(samples)


def test_newton_bound_refuses_a_singular_sample_after_healthy_ones():
    # g(u) = -u^3/3 with L = I: T = diag(1 - u_i^2) is singular at e_1 only
    g = NonlinearMap(lambda u: -u ** 3 / 3.0, lambda u: np.diag(-u ** 2))
    p = DsmProblem(L=diagonal_operator(np.ones(2)), g=g, u0=np.zeros(2), radius=1.0)
    healthy = [np.zeros(2), np.array([0.0, 0.5]), np.array([0.3, 0.0])]
    assert estimate_newton_bound(p, healthy).quantities["worst_sigma_min"] == 0.75
    with pytest.raises(SingularLinearization, match="singular at a sample point"):
        estimate_newton_bound(p, healthy + [np.array([1.0, 0.0])])


def test_newton_bound_grows_with_more_samples():
    p = small_problem(eps=0.2, seed=23)
    samples = ball_samples(p.u0, p.radius, 32, seed=4)
    small = estimate_newton_bound(p, samples[:8]).quantities["bound"]
    big = estimate_newton_bound(p, samples).quantities["bound"]
    assert big >= small


def test_newton_bound_rejects_outside_samples_and_singular_points():
    p = small_problem(seed=29)
    outside = [p.u0 + (p.radius * 2.0) * np.ones(p.dim) / np.sqrt(p.dim)]
    with pytest.raises(ValueError):
        estimate_newton_bound(p, outside)
    with pytest.raises(ValueError):
        estimate_newton_bound(p, [])
    # g = -u makes I + L^{-1} g' vanish identically for L = I
    neg = NonlinearMap(lambda u: -u, lambda u: -np.eye(u.size))
    sing = DsmProblem(L=diagonal_operator(np.ones(3)), g=neg, u0=np.zeros(3), radius=1.0)
    with pytest.raises(SingularLinearization):
        estimate_newton_bound(sing, [np.zeros(3)])


# -- trust condition ------------------------------------------------------------


def test_trust_condition_margin_and_verdict():
    p = small_problem(seed=31)
    p0 = norm(preconditioned_residual(p, p.u0))
    cert = check_trust_condition(p, 1.0)
    assert cert.quantities["p0"] == pytest.approx(p0, rel=1e-12)
    assert cert.passed == (cert.quantities["margin"] >= 0.0)
    assert cert.passed  # radius 2, small residual
    # a huge bound forces failure on the same problem
    bad = check_trust_condition(p, 1e9)
    assert not bad.passed and bad.quantities["margin"] < 0.0
    with pytest.raises(ValueError):
        check_trust_condition(p, 0.0)


def test_trust_condition_refuses_a_nan_bound():
    # NaN <= 0 is False: a bound must pass as positive, or no margin is read
    with pytest.raises(ValueError, match="newton bound must be positive, got nan"):
        check_trust_condition(small_problem(seed=31), float("nan"))


# -- Newton-bound route -------------------------------------------------------------


def _proof_cases():
    cases = [pytest.param(lambda d=d: wellposed_cubic(d, seed=4).problem,
                          id=f"wellposed-d{d}") for d in (1, 5, 50)]
    for eps in (1e-2, 1e-6):
        cases.append(pytest.param(
            lambda e=eps: singular_monotone(20, 10, cubic_scale=0.1).problem.with_epsilon(e),
            id=f"singular-monotone-eps{eps:g}"))
        cases.append(pytest.param(
            lambda e=eps: ill_conditioned(6).problem.with_epsilon(e),
            id=f"ill-conditioned-eps{eps:g}"))
    return cases


@pytest.mark.parametrize("make", _proof_cases())
def test_proven_bound_covers_the_sampled_bound_and_the_trajectory(make):
    p = make()
    samples = ball_samples(p.u0, p.radius, BOUND_SAMPLES, seed=0)
    bound_cert, trust = model._proven_bound(p, *model._proof_spectrum(p))
    assert bound_cert.detail.startswith("route: proof")
    assert trust.detail.startswith("route: proof")
    q = bound_cert.quantities
    assert set(q) == {"bound", "worst_sigma_min", "n_samples"}
    assert q["worst_sigma_min"] == 1.0 / q["bound"] and q["n_samples"] == 0.0
    # the proof covers every sample's 1/sigma_min(T)
    sampled = estimate_newton_bound(p, samples)
    assert q["bound"] >= sampled.quantities["bound"]
    # and the distance bound every recorded point of the flow from u0
    distance = trust.quantities["radius"] - trust.quantities["margin"]
    res = integrate(p)
    travelled = max(norm(pt.u - p.u0) for pt in res.trajectory)
    assert 0.0 < travelled <= distance
    # the distance bound is never looser than p0 * bound
    assert distance <= trust.quantities["p0"] * q["bound"]
    # the route takes the proof exactly when its distance fits in the radius,
    # and samples the one fixed cloud otherwise
    route = certify_newton_bound(p)
    if trust.passed:
        assert route == (bound_cert, trust)
    else:
        assert route == (sampled, check_trust_condition(p, sampled.quantities["bound"]))


def _sector():
    return sector_blocks(6).problem


def _non_monotone():
    return replace(small_problem(seed=41), g=cubic_map(-0.05), radius=1.0)


def _proof_too_loose():
    # g' = 0 makes T = I, but |f0|_A / sqrt(lambda_min(A)) is about 32 |f0| > radius
    return singular_canonical().problem.with_epsilon(1e-3)


@pytest.mark.parametrize("make", [
    pytest.param(_sector, id="sector-blocks"),
    pytest.param(_proof_too_loose, id="distance-bound-exceeds-radius"),
    pytest.param(_non_monotone, id="psd-L-non-monotone-g"),
])
def test_route_falls_back_to_the_sampled_bound(monkeypatch, make):
    p = make()
    samples = ball_samples(p.u0, p.radius, BOUND_SAMPLES, seed=0)
    calls = []
    sampled = model.estimate_newton_bound
    monkeypatch.setattr(model, "estimate_newton_bound",
                        lambda *a, **k: calls.append(1) or sampled(*a, **k))
    bound_cert, trust = certify_newton_bound(p)
    assert len(calls) == 1
    ref = sampled(p, samples)
    assert bound_cert == ref
    assert bound_cert.detail.startswith("route: sampled")
    assert trust == check_trust_condition(p, ref.quantities["bound"])
    assert trust.detail.startswith("route: sampled")


def test_flagged_operator_one_ulp_off_symmetric_takes_the_proof_route(monkeypatch):
    # symmetric within SELF_ADJOINT_RTOL, so the flags verify, but not exactly:
    # the operator stores its symmetric part, and the proof route reads the flag
    p = small_problem(seed=42)
    A = p.L.entries.copy()
    A[0, 1] += 1e-13 * p.L.operator_norm()
    assert not np.array_equal(A, A.T)
    near = replace(p, L=DenseOperator(A, self_adjoint=True, psd_claimed=True))
    symmetric = replace(p, L=DenseOperator(0.5 * (A + A.T), self_adjoint=True,
                                           psd_claimed=True))
    monkeypatch.setattr(model, "estimate_newton_bound", None)
    bound_cert, trust = certify_newton_bound(near)
    assert bound_cert.detail.startswith("route: proof") and trust.passed
    assert (bound_cert, trust) == certify_newton_bound(symmetric)


def test_route_falls_back_for_unshifted_singular_L(monkeypatch):
    p = singular_monotone(6, rank=3, cubic_scale=0.1).problem
    assert p.epsilon == 0.0
    samples = ball_samples(p.u0, p.radius, BOUND_SAMPLES, seed=0)
    calls = []
    sampled = model.estimate_newton_bound
    monkeypatch.setattr(model, "estimate_newton_bound",
                        lambda *a, **k: calls.append(1) or sampled(*a, **k))
    with pytest.raises(SingularOperator):
        certify_newton_bound(p)
    assert len(calls) == 1
    with pytest.raises(SingularOperator):
        sampled(p, samples)


def _floorless():
    # the cubic's map, built by hand without its declared floor
    g = cubic_map()
    return replace(small_problem(seed=43), g=NonlinearMap(g.fn, g.jac_fn))


@pytest.mark.parametrize("make", [lambda: sector_blocks(8).problem, _floorless],
                         ids=["sector-blocks-d8", "map-without-floor"])
def test_sampled_route_draws_one_fixed_cloud(make):
    # the cloud is ball_samples at its default seed 0, whoever asks
    p = make()
    cloud = ball_samples(p.u0, p.radius, BOUND_SAMPLES, seed=0)
    bound = estimate_newton_bound(p, cloud)
    assert bound.detail.startswith("route: sampled")
    assert certify_newton_bound(p) == (bound, check_trust_condition(p, bound.quantities["bound"]))


def test_route_applies_delta_for_a_slightly_negative_jacobian():
    # sym(g') has eigenvalue -5e-11, inside the monotonicity tolerance, and
    # lambda_min(A) = 1e-8, so delta = 5e-3 widens both bounds by 1/(1 - delta)
    eps, neg = 1e-8, -5e-11
    L = diagonal_operator([0.0, 1.0, 2.0])
    G = np.diag([neg, 0.5, 0.0])
    # no offset on the nullspace, so f0 has none and the distance fits the radius
    c = np.array([0.0, -0.2, 0.1])
    g = NonlinearMap(lambda u: G @ u + c, lambda u: G.copy(), jac_floor=neg)
    p = DsmProblem(L=L, g=g, u0=np.zeros(3), radius=1e4, epsilon=eps)
    samples = ball_samples(p.u0, p.radius, BOUND_SAMPLES, seed=0)
    mono = monotonicity_certificate(g)
    assert mono.passed and mono.quantities["min_jacobian_eigenvalue"] == neg
    assert np.all(monotonicity_witness(g, samples)[0] == neg)
    bound_cert, trust = certify_newton_bound(p)
    delta = -neg / eps
    assert bound_cert.quantities["bound"] == pytest.approx(
        np.sqrt((2.0 + eps) / eps) / (1.0 - delta), rel=1e-6)
    f0 = preconditioned_residual(p, p.u0)
    f0_A = np.sqrt(f0 @ (p.shifted.entries @ f0))
    distance = trust.quantities["radius"] - trust.quantities["margin"]
    assert distance == pytest.approx(f0_A / (np.sqrt(eps) * (1.0 - delta)), rel=1e-6)
    assert bound_cert.quantities["bound"] >= estimate_newton_bound(p, samples).quantities["bound"]


def test_builds_and_solves_prove_the_bound_without_samples(monkeypatch):
    draws = []
    real = model.ball_samples
    monkeypatch.setattr(model, "ball_samples", lambda *a, **k: draws.append(1) or real(*a, **k))
    b = wellposed_cubic(6, seed=3)
    mono = b.certificates["monotone_g"]
    assert mono.detail.startswith("route: declared")
    assert mono.quantities == {"min_jacobian_eigenvalue": 0.0, "tol": 1e-10}
    assert b.certificates["newton_bound"].quantities["n_samples"] == 0.0
    sol = solve_newton_flow(b.problem)
    assert sol.certificates["newton_bound"].quantities["n_samples"] == 0.0
    assert sol.certificates["newton_bound"].detail.startswith("route: proof")
    assert draws == []


# -- resolvent bound -------------------------------------------------------------


_EPS_MACH = np.finfo(float).eps
_SHIFT_GRID = [10.0 ** -k for k in range(7)]   # 1 down to 1e-6


def _grid_verdict(L):
    """``|(L + eps I)^{-1}| <= 1/eps + 1e-9`` over shifts 1 down to 1e-6, by SVD.

    ``sigma_min(L + eps I)`` carries a rounding of order ``eps_mach |L|``,
    which moves ``1/sigma_min`` by that over ``eps^2``: at ``eps = 1e-6`` a
    zero eigenvalue computed as -1e-16 gives an excess of 1e-4.  So each
    shift allows ``1e3 eps_mach (|L| + eps) / eps^2`` more for it.
    """
    opn = L.operator_norm()
    return all(1.0 / L.shifted(eps).smallest_singular_value()
               <= 1.0 / eps + 1e-9 + 1e3 * _EPS_MACH * (opn + eps) / eps ** 2
               for eps in _SHIFT_GRID)


def _hilbert_operator(dim):
    return DenseOperator(scipy.linalg.hilbert(dim), self_adjoint=True, psd_claimed=True)


# every L a builtin flags psd, and the Hilbert matrices of criterion 7
_PSD_OPERATORS = {
    **{f"wellposed-{d}": (lambda d=d: wellposed_cubic(d).problem.L) for d in (1, 10, 200)},
    **{f"singular-{d}-seed{s}-cubic{c}":
       (lambda d=d, s=s, c=c: singular_monotone(d, seed=s, cubic_scale=c).problem.L)
       for d in (4, 10, 50) for s in (0, 42) for c in (0.0, 0.1)},
    "singular-canonical": lambda: singular_canonical().problem.L,
    **{f"ill-conditioned-{d}": (lambda d=d: ill_conditioned(d).problem.L) for d in range(1, 13)},
    **{f"hilbert-{d}": (lambda d=d: _hilbert_operator(d)) for d in range(1, 13)},
}


@pytest.mark.parametrize("build", list(_PSD_OPERATORS.values()), ids=list(_PSD_OPERATORS))
def test_resolvent_bound_agrees_with_the_shift_grid(build):
    L = build()
    cert = check_resolvent_bound(L)
    assert cert.passed == _grid_verdict(L)
    assert cert.quantities["lambda_min"] == L.eigenvalues()[0]


def test_resolvent_bound_spd_known_values():
    L = diagonal_operator([2.0, 0.5, 0.0])
    cert = check_resolvent_bound(L)
    assert cert.passed and cert.detail.startswith("route: eigenvalues")
    # the zero eigenvalue is exact, so the margin is the slack (n+1) eps_mach |L|_F
    slack = 4 * _EPS_MACH * np.sqrt(4.25)
    assert cert.quantities["lambda_min"] == 0.0
    assert cert.quantities["slack"] == pytest.approx(slack, rel=1e-12)
    assert cert.quantities["margin"] == cert.quantities["slack"]


def test_resolvent_bound_needs_sector_for_general_operators():
    # the resolvent bound reads eigenvalues, so a non-self-adjoint L is
    # refused there; its sector certificate goes through the numerical range
    rot = DenseOperator([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(NotSymmetric):
        check_resolvent_bound(rot)
    assert check_sector(rot).passed


def test_resolvent_bound_detects_violation():
    # eigenvalue -0.5 makes |(L + 0.6)^{-1}| = 10 exceed 1/0.6
    L = DenseOperator([[-0.5]], self_adjoint=True)
    cert = check_resolvent_bound(L)
    assert not cert.passed
    assert cert.quantities["margin"] == pytest.approx(-0.5, abs=1e-12)


def test_resolvent_bound_fails_when_a_shift_hits_an_eigenvalue():
    # L + 0.5 I = 0: a failed certificate with a finite margin, and no shift
    # is taken, so nothing divides by sigma_min(L + 0.5 I) = 0
    L = DenseOperator([[-0.5]], self_adjoint=True)
    assert L.shifted(0.5).smallest_singular_value() == 0.0
    cert = check_resolvent_bound(L)
    assert not cert.passed
    assert cert.quantities["lambda_min"] == -0.5
    assert np.isfinite(cert.quantities["margin"]) and cert.quantities["margin"] < 0.0


@pytest.mark.parametrize("values", [[-5.0, 1.0], [-1e-14, 1.0]],
                         ids=["below-the-grid", "between-the-allowances"])
def test_resolvent_verdicts_the_eigenvalue_comparison_moved(values):
    # the grid of shifts 1 down to 1e-6 passed both: -5 lies beyond its
    # largest shift, and -1e-14 lies within its rounding allowance of
    # 1e3 eps_mach |L| but beyond the slack (n+1) eps_mach |L|_F
    L = DenseOperator(np.diag(values), self_adjoint=True)
    assert _grid_verdict(L)
    cert = check_resolvent_bound(L)
    assert not cert.passed
    assert cert.quantities["margin"] == pytest.approx(values[0], rel=1e-1)


# -- sector check ------------------------------------------------------------------


def test_sector_self_adjoint_branch():
    ok = check_sector(diagonal_operator([1.0, 0.0, 2.0]))
    assert ok.passed and ok.detail.startswith("route: eigenvalues")
    assert ok.quantities["a"] == 0.5 and ok.quantities["delta"] == np.pi / 6
    # the zero eigenvalue sits the slack away from the sector [-a, -slack)
    assert ok.quantities["margin"] == ok.quantities["slack"] > 0.0
    # a failed margin is minus the depth of the deepest eigenvalue inside
    bad = check_sector(diagonal_operator([-0.2, 1.0]))
    assert not bad.passed
    assert bad.quantities["margin"] == pytest.approx(-0.2, abs=1e-12)
    # -0.25 is 0.25 from both ends of [-0.5, 0); -0.45 only 0.05 from -a
    mid = check_sector(diagonal_operator([-0.45, -0.25, 1.0]))
    assert not mid.passed
    assert mid.quantities["margin"] == pytest.approx(-0.25, abs=1e-12)
    # eigenvalue below -a does not violate the truncated sector; margin is
    # the distance to the nearest eigenvalue outside it (+1 here, not -2)
    deep = check_sector(diagonal_operator([-2.0, 1.0]))
    assert deep.passed
    assert deep.quantities["margin"] == pytest.approx(1.0, abs=1e-12)


def test_sector_counts_a_zero_eigenvalue_rounded_negative_as_outside():
    # within the slack of 0, so outside [-a, -slack); an eigenvalue one
    # slack further down is inside, with a margin of minus its depth
    L = DenseOperator(np.diag([-1e-17, 1.0]), self_adjoint=True)
    cert = check_sector(L)
    slack = cert.quantities["slack"]
    assert cert.passed and cert.quantities["margin"] == pytest.approx(slack - 1e-17, rel=1e-12)
    below = check_sector(DenseOperator(np.diag([-2.0 * slack, 1.0]), self_adjoint=True))
    assert not below.passed and below.quantities["margin"] < 0.0


@pytest.mark.parametrize("dim", [4, 10, 200])
@pytest.mark.parametrize("seed", [0, 42])
def test_sector_passes_singular_monotone(dim, seed):
    # its zero eigenvalues come out of eigvalsh as small numbers of either sign
    L = singular_monotone(dim, seed=seed).problem.L
    cert = check_sector(L)
    assert cert.passed, cert.quantities
    assert cert.quantities["margin"] > 0.0
    assert -cert.quantities["slack"] <= L.eigenvalues()[0] < 1e-12


def test_sector_numerical_range_route_is_sound():
    # spectrum {+-i}, mu = 0 and sigma_min = 1: the lines cross beyond a,
    # so the margin is sigma_min - a
    rot = DenseOperator([[0.0, 1.0], [-1.0, 0.0]])
    ok = check_sector(rot)
    assert ok.passed and ok.detail.startswith("route: numerical range")
    assert ok.quantities["margin"] == pytest.approx(0.5, abs=1e-12)
    # the defective eigenvalue -0.3 lies in the sector: mu = -0.8
    bad = check_sector(DenseOperator([[-0.3, 1.0], [0.0, -0.3]]))
    assert not bad.passed
    assert bad.quantities["mu"] == pytest.approx(-0.8, abs=1e-12)


@pytest.mark.parametrize("entries, passed, margin", [
    # the numerical range refuses it: its spectrum {1} avoids the sector,
    # which the sector grid passed with margin 0.143, but mu = -0.5
    ([[1.0, 3.0], [0.0, 1.0]], False, -0.12743052993534),
    # the numerical range passes it without the self-adjoint flag, since
    # mu = 1e-5 > 0; the sector grid refused it with margin -0.160
    ([[1e-5, 0.0], [0.0, 1.0]], True, 1e-5),
], ids=["jordan-like-refused", "near-singular-diagonal-passed"])
def test_sector_verdicts_the_numerical_range_moved(entries, passed, margin):
    cert = check_sector(DenseOperator(entries))
    assert cert.passed is passed
    assert cert.quantities["margin"] == pytest.approx(margin, abs=1e-12)


@pytest.mark.parametrize("dim, margin", [(8, 0.5), (64, 0.288700900661584)],
                         ids=["dim8", "dim64"])
def test_sector_blocks_pass_through_the_numerical_range(dim, margin):
    # the skew first block puts mu at 0 less rounding; dim 8's smallest
    # singular value is 1, the skew block's, so its margin is 1 - a
    cert = sector_blocks(dim).certificates["sector"]
    assert cert.passed and cert.detail.startswith("route: numerical range")
    assert cert.quantities["margin"] == pytest.approx(margin, abs=1e-10)
    assert -1e-12 < cert.quantities["mu"] <= 0.0


# -- derivative and monotonicity checks ----------------------------------------------


def test_fd_jacobian_check_flags_wrong_jacobian():
    good = cubic_map(0.2)
    u = np.array([0.3, -0.7, 1.1])
    assert fd_jacobian_check(good, u) <= 1e-8
    wrong = NonlinearMap(lambda v: 0.2 * v ** 3,
                         lambda v: np.diag(0.2 * 3.0 * v ** 2) * 1.5)
    assert fd_jacobian_check(wrong, u) > 0.1


def test_fd_jacobian_check_on_builtin_map():
    b = wellposed_cubic(6, scale=0.1, seed=1)
    assert fd_jacobian_check(b.problem.g, b.problem.u0) <= 1e-6


def test_monotonicity_certificate_pass_and_fail():
    def unevaluated(u):
        raise AssertionError("the certificate evaluated the map")

    # the certificate reads the declared floor, with the slack 1e-10
    for floor, passed in ((0.5, True), (0.0, True), (-1e-10, True), (-2e-10, False),
                          (-3.0, False)):
        cert = monotonicity_certificate(NonlinearMap(unevaluated, unevaluated,
                                                     jac_floor=floor))
        assert cert.kind is CertificateKind.MONOTONE and cert.passed is passed
        assert cert.quantities == {"min_jacobian_eigenvalue": floor, "tol": 1e-10}
        assert cert.detail.startswith("route: declared")
    # a map that declares nothing fails, whatever its Jacobian
    for g in (cubic_map(-0.5), NonlinearMap(lambda u: u, lambda u: np.eye(u.size))):
        bad = monotonicity_certificate(g)
        assert bad.passed is False
        assert bad.quantities["min_jacobian_eigenvalue"] == -np.inf
        assert bad.detail.startswith("route: none")
    # a linear map's floor is its symmetric part's smallest eigenvalue: 0 for
    # diag(1, 0) plus a skew part, negative without the skew part's lower half
    for matrix, passed in (([[1.0, 3.0], [-3.0, 0.0]], True), ([[1.0, 3.0], [0.0, 0.0]], False)):
        assert monotonicity_certificate(make_map("linear", 2, {"matrix": matrix})).passed is passed


def test_monotonicity_witness_evaluates_g_once_per_sample():
    g = cubic_map(0.5)
    calls = []
    counted = NonlinearMap(lambda u: calls.append(1) or g.fn(u), g.jac_fn)
    samples = ball_samples(np.zeros(3), 1.5, 12, seed=9)
    _, secants = monotonicity_witness(counted, samples)
    assert len(calls) == len(samples)
    # bitwise the secant products of the pairwise definition
    ref = [float(np.dot(g(u) - g(v), u - v)) for v, u in zip(samples, samples[1:])]
    assert secants.tolist() == ref


def test_monotonicity_single_sample_uses_jacobian_only():
    eigenvalues, secants = monotonicity_witness(cubic_map(1.0), [np.ones(2)])
    assert eigenvalues.tolist() == [3.0] and secants.size == 0


def _min_eig_at_each_sample(g, samples):
    """The reference: ``eigvalsh`` of each sample's symmetrized dense Jacobian."""
    return [float(np.linalg.eigvalsh(0.5 * (g.jacobian(u) + g.jacobian(u).T))[0])
            for u in samples]


def _mono_wellposed(dim, seed=1):
    p = wellposed_cubic(dim, seed=2).problem
    return p.g, ball_samples(p.u0, p.radius, 64, seed=seed)


def _mono_range_cubic(dim=12, seed=2):
    # g' = B diag(3 s y^2) B^T is singular everywhere: every sample ties at 0
    p = singular_monotone(dim, dim // 2, cubic_scale=0.1, seed=seed).problem
    return p.g, ball_samples(p.u0, p.radius, 32, seed=seed)


def _mono_linear(dim, seed, psd):
    # M = C C^T + K - K^T has a positive definite symmetric part; a Gaussian
    # M's symmetric part is indefinite at these dims
    rng = np.random.default_rng(seed)
    C, K = rng.standard_normal((2, dim, dim))
    M = C @ C.T + K - K.T if psd else C
    g = make_map("linear", dim, {"matrix": M, "offset": rng.standard_normal(dim)})
    assert (g.jac_floor > 0.0) == psd
    return g, ball_samples(np.zeros(dim), 2.0, 32, seed=seed)


def _mono_non_monotone():
    rng = np.random.default_rng(6)
    B = rng.standard_normal((8, 8))
    g = NonlinearMap(lambda u: B @ u + 0.1 * u ** 3, lambda u: B + np.diag(0.3 * u ** 2))
    return g, ball_samples(np.zeros(8), 1.0, 32, seed=3)


def _mono_rotated(dim):
    # the wellposed cubic in a rotated basis: monotone, with a dense Jacobian
    g, samples = _mono_wellposed(dim)
    Q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((dim, dim)))
    # g.jacobian, not g.jac_fn: the cubic's jac_fn returns the vector of its diagonal
    return (NonlinearMap(lambda u: Q @ g.fn(Q.T @ u), lambda u: Q @ g.jacobian(Q.T @ u) @ Q.T),
            [Q @ u for u in samples])


def _mono_within_margin(cloud=_mono_wellposed):
    # samples 1e-12 apart: near-ties in the running minimum
    g, samples = cloud(30)
    u, d = samples[3], samples[3] - samples[0]
    return g, [u - 1e-12 * k * d for k in range(20)]


def _mono_zero_jacobian(name, params):
    g = make_map(name, 6, params)
    return g, ball_samples(np.full(6, 0.5), 2.0, 16, seed=5)


def _is_diagonal(J):
    return not np.any(J - np.diag(np.diagonal(J)))


@pytest.mark.parametrize("make", [
    lambda: wellposed_cubic(10, seed=2).problem.g,
    lambda: singular_monotone(10, rank=5).problem.g,
    lambda: make_map("zero", 10),
], ids=["cubic", "constant", "zero"])
def test_monotonicity_of_a_diagonal_or_no_jacobian_is_bitwise_the_dense_one(make):
    g = make()
    dense = NonlinearMap(g.fn, g.jacobian, name=g.name)
    samples = ball_samples(np.full(10, 0.3), 1.5, 24, seed=8)
    for a, b in zip(monotonicity_witness(g, samples), monotonicity_witness(dense, samples)):
        assert a.tobytes() == b.tobytes()


def test_rotated_monotonicity_clouds_have_dense_jacobians():
    # the rotated cases exist to feed the screen dense Jacobians
    for g, samples in (_mono_rotated(50), _mono_within_margin(_mono_rotated)):
        n = samples[0].size
        for u in samples:
            J = g._jacobian(u)
            assert J.shape == (n, n) and not _is_diagonal(J)


@pytest.mark.parametrize("case", [
    *(pytest.param(lambda d=d: _mono_wellposed(d), id=f"wellposed-d{d}")
      for d in (1, 5, 50, 200)),
    pytest.param(lambda: _mono_wellposed(5, seed=7), id="wellposed-d5-seed7"),
    pytest.param(lambda: _mono_zero_jacobian("zero", {}), id="zero"),
    pytest.param(lambda: _mono_zero_jacobian("constant", {"offset": np.arange(6.0) - 2.5}),
                 id="constant"),
    pytest.param(_mono_range_cubic, id="range-cubic-ties"),
    pytest.param(lambda: _mono_range_cubic(20, seed=5), id="range-cubic-d20-seed5"),
    *(pytest.param(lambda d=d, s=s, psd=psd: _mono_linear(d, s, psd),
                   id=f"linear-{'psd' if psd else 'indefinite'}-d{d}-seed{s}")
      for psd in (True, False) for d, s in ((3, 0), (30, 1))),
    pytest.param(_mono_non_monotone, id="non-monotone"),
    pytest.param(_mono_within_margin, id="within-margin"),
    pytest.param(lambda: _mono_rotated(50), id="rotated-d50"),
    pytest.param(lambda: _mono_within_margin(_mono_rotated), id="within-margin-rotated"),
])
def test_monotonicity_screen_is_bitwise_eigvalsh_at_every_sample(case, monkeypatch):
    g, samples = case()
    expected = _min_eig_at_each_sample(g, samples)
    jacobian = g._jacobian if g.jac_basis is None else g.jacobian
    matrices = [J for J in map(jacobian, samples) if J is not None and J.ndim == 2]
    seen = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda S: seen.append(S) or eigvalsh(S))
    eigenvalues, secants = monotonicity_witness(g, samples)
    monkeypatch.undo()
    assert eigenvalues.tolist() == expected
    # one eigvalsh per Jacobian handed over as a matrix, and per dense matrix
    # of a declared basis's, even range_cubic's zero at its center; a
    # diagonal or None is read directly
    assert len(seen) == len(matrices)
    assert all(np.array_equal(S, 0.5 * (J + J.T)) for S, J in zip(seen, matrices))
    # a factory's declared floor lies at or below every sampled eigenvalue, less
    # eigvalsh's rounding (n+1) eps |S|_F as in _proof_spectrum: range_cubic's
    # exactly singular g' samples to about -1.6e-16; a linear map's floor is
    # bitwise each eigenvalue, and a monotone map's secants are nonnegative to
    # within the certificate's slack
    if g.jac_floor is not None:
        n = samples[0].size
        rounding = [(n + 1) * np.finfo(float).eps * np.linalg.norm(0.5 * (J + J.T))
                    for J in map(g.jacobian, samples)]
        assert np.all(g.jac_floor <= eigenvalues + rounding)
        if g.jac_floor >= 0.0:
            assert np.all(secants >= -1e-10)
    if g.name == "linear":
        assert np.all(eigenvalues == g.jac_floor)
