"""Flow integrator tests.

The strongest check here is a problem with constant nonlinearity: the
flow equation becomes linear with the closed-form trajectory
``u(t) = u* + (u0 - u*) exp(-t)``, so every recorded point can be
compared against an exact reference that shares no code with the
integrator.
"""

import math
import pickle
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from dsmflow import flow, hilbert, model
from dsmflow.continuation import solve_minimal_norm
from dsmflow.errors import (DimensionMismatch, FlowFailed, SingularLinearization,
                            SingularOperator)
from dsmflow.flow import FlowConfig, FlowResult, FlowStatus, decay_report, integrate
from dsmflow.hilbert import DenseOperator, norm
from dsmflow.model import (Certificate, CertificateKind, DsmProblem,
                           NonlinearMap, ball_samples, check_trust_condition,
                           estimate_newton_bound, full_residual,
                           linearized_operator, newton_velocity,
                           preconditioned_residual)
from dsmflow.oracles import newton_oracle
from dsmflow.problems import (ill_conditioned, make_map, sector_blocks, singular_monotone,
                              wellposed_cubic)
from evidence import diagonal_operator, error_bound_check


def constant_map(c):
    c = np.asarray(c, dtype=float)
    return NonlinearMap(lambda u: c.copy(), lambda u: np.zeros((c.size, c.size)),
                        name="constant", params={"offset": list(c)})


def linear_problem(dim=3, seed=0, radius=50.0):
    """L = I, g = c: exact flow trajectory u* + (u0 - u*) e^{-t}, u* = -c."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(dim)
    u0 = rng.standard_normal(dim)
    L = diagonal_operator(np.ones(dim))
    return DsmProblem(L=L, g=constant_map(c), u0=u0, radius=radius), -c


# -- configuration -------------------------------------------------------------


@pytest.mark.parametrize("kw", [
    {"t_max": 0.0}, {"t_max": np.inf}, {"rel_tol": 0.0}, {"rel_tol": 2.0},
    {"p_stop": 1.0}, {"p_stop": -1e-3},
    {"p_stop_abs": -1.0}, {"p_stop_abs": 1.0}, {"sample_stride": 0.0},
])
def test_config_validation(kw):
    with pytest.raises(ValueError):
        FlowConfig(**kw)


def test_config_refuses_a_stride_that_would_record_more_points_than_steps():
    # the record loop steps once per stride: 30 / 1e-9 turns of it would
    # hang a run, so the config refuses the stride; no run is made here
    for kw in ({"sample_stride": 1e-9}, {"t_max": 1.0, "sample_stride": 5e-7}):
        with pytest.raises(ValueError, match="would record more than 1000000 points"):
            FlowConfig(**kw)
    assert FlowConfig(t_max=1.0, sample_stride=2e-6).sample_stride == 2e-6


def test_stop_threshold_floor():
    assert FlowConfig().stop_at(0.0) == 1e-14
    assert FlowConfig(p_stop_abs=1e-9).stop_at(0.0) == 1e-9
    assert FlowConfig(p_stop=1e-9).stop_at(2.0) == 2e-9


# -- velocity field -------------------------------------------------------------


def test_phi_matches_direct_newton_direction():
    b = wellposed_cubic(5, scale=0.1, seed=3)
    p = b.problem
    rng = np.random.default_rng(4)
    for _ in range(5):
        u = p.u0 + 0.2 * rng.standard_normal(p.dim)
        v = newton_velocity(p, u)[0]
        # direct route through numpy only
        f = preconditioned_residual(p, u)
        T = linearized_operator(p, u).entries
        ref = -np.linalg.solve(T, f)
        assert np.linalg.norm(v - ref) <= 1e-10 * max(1.0, np.linalg.norm(ref))


def test_phi_at_deep_shift_near_solution_is_minus_residual():
    # constant g: phi = -f exactly.  At eps = 1e-8, 1e-9 from the shifted
    # solution, a velocity built from A u + g(u) drowns in its cancellation
    # error times 1/eps; one built from A f keeps ~1e-8 relative accuracy
    s = singular_monotone(5, rank=3, seed=42)
    p = s.problem.with_epsilon(1e-8)
    assert p.g.name == "constant"
    u_eps = np.linalg.solve(p.shifted.entries, -p.g(p.u0))
    d = np.random.default_rng(7).standard_normal(p.dim)
    u = u_eps + 1e-9 * d / np.linalg.norm(d)
    f = preconditioned_residual(p, u)
    assert np.linalg.norm(newton_velocity(p, u)[0] + f) <= 1e-6 * np.linalg.norm(f)


def test_phi_refuses_singular_linearization():
    # L = I, g = -u: F'(u) = 0 everywhere
    n = 3
    g = NonlinearMap(lambda u: -u, lambda u: -np.eye(n), name="negate")
    p = DsmProblem(L=diagonal_operator(np.ones(n)), g=g, u0=np.ones(n), radius=1.0)
    with pytest.raises(SingularLinearization):
        newton_velocity(p, p.u0)


def test_phi_tiny_pivot_of_shifted_operator_alone_is_not_refused():
    # L + g' has a 1e-10 pivot, but I + L^{-1} g' = I is perfectly invertible
    L = diagonal_operator([1.0, 1e-10])
    p = DsmProblem(L=L, g=constant_map([0.3, -2e-10]), u0=np.array([0.5, 1.0]),
                   radius=10.0)
    f = preconditioned_residual(p, p.u0)
    assert np.linalg.norm(newton_velocity(p, p.u0)[0] + f) <= 1e-12 * np.linalg.norm(f)


def test_phi_tiny_cholesky_pivot_falls_back_to_the_linearization(monkeypatch):
    # L + g'(u) is positive definite with a 1e-10 Cholesky pivot, so dpotrf
    # factors it and the pivot test sends the stage to solve_linearized,
    # where I + L^{-1} g'(u) is perfectly invertible
    L = diagonal_operator([1.0, 1e-10])
    c = np.array([0.3, -2e-10])
    g = NonlinearMap(lambda u: c + 1e-12 * u ** 3, lambda u: 3e-12 * u ** 2, name="tiny")
    p = DsmProblem(L=L, g=g, u0=np.array([0.5, 1.0]), radius=10.0)
    calls = _count_factorizations(monkeypatch)
    fallbacks = []
    solve = model.solve_linearized
    monkeypatch.setattr(model, "solve_linearized",
                        lambda T, rhs: fallbacks.append(T.dim) or solve(T, rhs))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = newton_velocity(p, p.u0)[0]
    assert calls == {"posv": 1, "potrf": 0, "getrf": 0} and fallbacks == [2]
    f = preconditioned_residual(p, p.u0)
    T = linearized_operator(p, p.u0).entries
    assert np.linalg.norm(v + np.linalg.solve(T, f)) <= 1e-12 * np.linalg.norm(f)


@pytest.mark.parametrize("dim", [1, 10, 50, 200])
def test_cholesky_velocity_matches_a_dense_solve(dim):
    # the witness shares nothing with the stage but A, g and g'
    p = wellposed_cubic(dim).problem
    u = p.u0 + 0.2 * np.random.default_rng(4).standard_normal(dim)
    A = p.shifted.entries
    f = preconditioned_residual(p, u)
    ref = -np.linalg.solve(A + np.diag(p.g.jac_fn(u)), A @ f)
    v = newton_velocity(p, u)[0]
    assert np.linalg.norm(v - ref) <= 1e-13 * np.linalg.norm(ref)


def test_stage_on_a_flagged_operator_one_ulp_off_symmetric_takes_cholesky(monkeypatch):
    # the flag stores the symmetric part, so a diagonal Jacobian on it goes to
    # dposv; an unflagged operator with those same exactly symmetric entries
    # goes to LU, and the two velocities agree to rounding
    p = wellposed_cubic(10).problem
    E = p.L.entries.copy()
    E[0, 1] = np.nextafter(E[0, 1], np.inf)
    near = replace(p, L=DenseOperator(E, self_adjoint=True, psd_claimed=True))
    plain = replace(p, L=DenseOperator(near.L.entries))
    assert np.array_equal(plain.L.entries, plain.L.entries.T) and not plain.L.self_adjoint
    calls = []
    for name in ("_posv", "_potrf", "_getrf"):
        monkeypatch.setattr(model, name, lambda *a, name=name, real=getattr(model, name):
                            calls.append(name) or real(*a))
    u = p.u0 + 0.1
    v_near = newton_velocity(near, u)[0]
    assert calls == ["_posv"]
    v_plain = newton_velocity(plain, u)[0]
    assert calls == ["_posv", "_getrf"]
    assert np.linalg.norm(v_near - v_plain) <= 1e-13 * np.linalg.norm(v_plain)


def test_phi_singular_cases_raise_no_warning():
    # an exactly singular L + g' is refused, a tiny pivot falls back, and
    # neither goes through a warning
    n = 3
    g = NonlinearMap(lambda u: -u, lambda u: -np.eye(n), name="negate")
    refused = DsmProblem(L=diagonal_operator(np.ones(n)), g=g, u0=np.ones(n), radius=1.0)
    fallback = DsmProblem(L=diagonal_operator([1.0, 1e-10]),
                          g=constant_map([0.3, -2e-10]), u0=np.array([0.5, 1.0]),
                          radius=10.0)
    f = preconditioned_residual(fallback, fallback.u0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularLinearization):
            newton_velocity(refused, refused.u0)
        v = newton_velocity(fallback, fallback.u0)[0]
    assert np.linalg.norm(v + f) <= 1e-12 * np.linalg.norm(f)


# -- the stage's error contract ---------------------------------------------------
#
# Each array a stage touches is checked once; these pin which error every
# bad input still raises.  The maps misbehave only away from the start
# point, since DsmProblem probes g and g' at u0.


_FAR = np.array([3.0, 0.0])


def misbehaving_problem(fn=None, jac=None, L=None):
    """dim 2, u0 = 0, g = u^3 near u0 and ``fn``/``jac`` where u[0] > 2.

    On the default ``L``, which is self-adjoint, a ``jac`` that returns a
    vector sends the stage to the Cholesky route and a matrix to the LU
    one; an ``L`` without the flag sends both to the LU route.
    """
    def g(u):
        return fn(u) if fn is not None and u[0] > 2.0 else u ** 3

    def g_jac(u):
        return jac(u) if jac is not None and u[0] > 2.0 else np.diag(3.0 * u ** 2)

    L = diagonal_operator(np.ones(2)) if L is None else L
    return DsmProblem(L=L, g=NonlinearMap(g, g_jac, name="misbehaving"),
                      u0=np.zeros(2), radius=10.0)


def test_stage_rejects_non_finite_point():
    p = misbehaving_problem()
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            newton_velocity(p, np.array([1.0, bad]))


def test_stage_rejects_non_finite_map_values():
    p = misbehaving_problem(fn=lambda u: np.array([np.inf, 0.0]))
    with pytest.raises(ValueError, match="returned non-finite values"):
        newton_velocity(p, _FAR)


def test_stage_rejects_non_finite_jacobian():
    p = misbehaving_problem(jac=lambda u: np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="Jacobian has non-finite entries"):
        newton_velocity(p, _FAR)


def test_stage_rejects_non_finite_diagonal_jacobian():
    p = misbehaving_problem(jac=lambda u: np.array([1.0, np.inf]))
    with pytest.raises(ValueError, match="Jacobian has non-finite entries"):
        newton_velocity(p, _FAR)


@pytest.mark.parametrize("which", ["map", "jacobian", "jacobian-diagonal"])
def test_stage_rejects_wrong_output_shape(which):
    if which == "map":
        p = misbehaving_problem(fn=lambda u: np.zeros(3))
    elif which == "jacobian":
        p = misbehaving_problem(jac=lambda u: np.zeros((2, 3)))
    else:
        p = misbehaving_problem(jac=lambda u: np.zeros(3))
    with pytest.raises(DimensionMismatch):
        newton_velocity(p, _FAR)


def test_stage_refuses_singular_operator_without_shift():
    p = misbehaving_problem(L=diagonal_operator([1.0, 0.0]))
    assert p.epsilon == 0.0
    with pytest.raises(SingularOperator):
        newton_velocity(p, p.u0 + 0.5)


def test_stage_rejects_overflowing_linearization():
    # A = 1e308 I and g' = 1e308 I are finite, A + g'(u) is not
    big = 1e308 * np.eye(2)
    p = misbehaving_problem(jac=lambda u: big.copy(), L=DenseOperator(big))
    with np.errstate(over="ignore"), pytest.raises(
            ValueError, match="matrix to factor contains non-finite entries"):
        newton_velocity(p, _FAR)


def test_stage_rejects_overflowing_diagonal_linearization():
    # the same overflow, with g' passed as its diagonal: A and g' are checked,
    # so only the diagonal sums A_ii + g'_i can overflow, and then so does the
    # pivot test's scale max|A| + max|g'(u)|, which bounds them
    for L in (1e308 * np.eye(2), np.array([[1e308, -1e307], [-1e307, 1e308]])):
        p = misbehaving_problem(jac=lambda u: np.full(2, 1e308), L=DenseOperator(L))
        with np.errstate(over="ignore"), pytest.raises(
                ValueError, match="matrix to factor contains non-finite entries"):
            newton_velocity(p, _FAR)


def test_stage_refuses_a_diagonal_stage_whose_pivot_scale_overflows():
    # M = A + diag(g'(u)) has every entry 1e308, finite, but the scale the
    # pivot test reads, max|A| + max|g'(u)|, overflows, and the stage refuses
    # M as it refuses one that overflows; so does |A|_F in the route's slack
    L = DenseOperator([[0.0, 1e308], [1e308, 0.0]])
    p = misbehaving_problem(jac=lambda u: np.full(2, 1e308), L=L)
    with np.errstate(over="ignore"), pytest.raises(
            ValueError, match="matrix to factor contains non-finite entries"):
        newton_velocity(p, _FAR)


@pytest.mark.parametrize("where", ["off-diagonal", "diagonal"])
@pytest.mark.parametrize("K, fallbacks", [(1e6, 1), (1e2, 0)])
def test_stage_pivot_test_scales_by_a_negative_extreme(monkeypatch, where, K, fallbacks):
    # M = L + g'(u) is [[0, -K, 0], [-K, 0, 0], [0, 0, 1e-4]] or diag(-K, 1, 1e-4):
    # dpotrf refuses both, and their smallest LU pivot 1e-4 is small only
    # against 1e-9 times the test's scale max|A| + max|g'(u)|, where K is the
    # modulus of a negative entry of A off its diagonal, or K + 1 that of g'(u)
    if where == "off-diagonal":
        L = DenseOperator([[1.0, -K, 0.0], [-K, 1.0, 0.0], [0.0, 0.0, 1.0]], self_adjoint=True)
        j = np.array([-1.0, -1.0, 1e-4 - 1.0])
    else:
        L = diagonal_operator(np.ones(3))
        j = np.array([-K - 1.0, 0.0, 1e-4 - 1.0])
    c = np.array([0.5, -0.25, 1.0])
    g = NonlinearMap(lambda u: j * u + c, lambda u: j.copy(), name="linear")
    p = DsmProblem(L=L, g=g, u0=np.zeros(3), radius=10.0)
    scale = L._factorize()[3] + np.abs(j).max()
    assert L.self_adjoint and scale == (K + 1.0 if where == "off-diagonal" else K + 2.0)
    calls = []
    solve_linearized = model.solve_linearized
    monkeypatch.setattr(model, "solve_linearized", lambda *a: calls.append(1) or solve_linearized(*a))
    v, _, _ = newton_velocity(p, p.u0)
    assert len(calls) == fallbacks
    f = preconditioned_residual(p, p.u0)
    ref = -np.linalg.solve(L.entries + np.diag(j), L.entries @ f)
    assert np.linalg.norm(v - ref) <= 1e-8 * np.linalg.norm(ref)


@pytest.mark.parametrize("make", [
    lambda: wellposed_cubic(6).problem,
    lambda: singular_monotone(10, rank=5, cubic_scale=0.1).problem.with_epsilon(1e-3),
], ids=["wellposed_cubic-6", "singular_monotone-10-eps1e-3"])
def test_recorded_norms_are_bitwise_the_residual_norms(make):
    # p comes from the stage and residual_F from the recorder; both must be
    # exactly the norms that the residual functions give at the stored point,
    # and full_residual exactly (L + eps*I) u + g(u) through the operator
    problem = make()
    res = integrate(problem, FlowConfig(t_max=10.0))
    assert len(res.trajectory) > 10
    for pt in res.trajectory:
        assert pt.p == norm(preconditioned_residual(problem, pt.u))
        assert pt.residual_F == norm(problem.shifted.apply(pt.u) + problem.g(pt.u))
        assert pt.residual_F == norm(full_residual(problem, pt.u))


def test_stages_evaluate_g_and_its_jacobian_once_and_recording_neither():
    # each stage evaluates g and g' once; the recorder reuses the g(u) of
    # the stage that computed the accepted point
    problem = wellposed_cubic(6).problem
    g = problem.g
    calls = {"fn": 0, "jac": 0}

    def fn(u):
        calls["fn"] += 1
        return g.fn(u)

    def jac(u):
        calls["jac"] += 1
        return g.jac_fn(u)

    counted = replace(problem, g=NonlinearMap(fn, jac, name=g.name))
    calls.update(fn=0, jac=0)
    res = integrate(counted, FlowConfig(t_max=10.0))
    assert len(res.trajectory) > 10
    # the start, the initial-step probe and six stages per attempted step
    stages = 2 + 6 * (res.n_accepted + res.n_rejected)
    assert calls == {"fn": stages, "jac": stages}


# -- Jacobians passed as their diagonal, or as None --------------------------------


def _dense_twin(g):
    """``g`` with its Jacobian as the dense ``(n, n)`` matrix: ``np.diag`` of a vector, or zeros."""
    return NonlinearMap(g.fn, g.jacobian, name=g.name, params=g.params, jac_floor=g.jac_floor)


def _undeclared_basis(problem):
    """``problem`` whose map returns its declared basis's ``(B * d) @ B^T`` and declares no basis.

    The form ``range_cubic`` had before it declared its basis: ``jac_fn``
    returns the dense matrix, with no check of ``u`` beyond the stage's.
    """
    g = problem.g
    return replace(problem, g=NonlinearMap(g.fn, lambda u: g._dense(g.jac_fn(u), False),
                                           name=g.name, params=g.params, jac_floor=g.jac_floor))


def indefinite_problem(dim=6, seed=5):
    """Exactly symmetric psd ``L`` with eigenvalues 1..4 and the non-monotone
    ``g = -2.5 u + 0.1 u^3 + c``: near ``u0 = 0`` the stage matrix
    ``L + g'(u)`` has eigenvalues of both signs, so ``dpotrf`` refuses it."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    A = (Q * np.linspace(1.0, 4.0, dim)) @ Q.T
    L = DenseOperator(0.5 * (A + A.T), self_adjoint=True, psd_claimed=True)
    c = 0.1 * rng.standard_normal(dim)
    g = NonlinearMap(lambda u: -2.5 * u + 0.1 * u ** 3 + c, lambda u: -2.5 + 0.3 * u ** 2,
                     name="indefinite")
    return DsmProblem(L=L, g=g, u0=np.zeros(dim), radius=10.0)


@pytest.mark.parametrize("make", [
    *(pytest.param(lambda d=d: wellposed_cubic(d).problem, id=f"wellposed_cubic-{d}")
      for d in (1, 10, 50)),
    pytest.param(lambda: ill_conditioned(6).problem.with_epsilon(1e-2), id="ill_conditioned-6"),
])
def test_cholesky_stage_flow_matches_the_dense_lu_one(make):
    # on a self-adjoint A a vector Jacobian is factored by Cholesky, its
    # dense twin by LU: the two flows take the same steps and agree to rounding
    problem = make()
    assert problem.g.jac_fn(problem.u0).shape == (problem.dim,)
    assert problem.shifted.self_adjoint
    res = integrate(problem, FlowConfig(t_max=10.0))
    dense = integrate(replace(problem, g=_dense_twin(problem.g)), FlowConfig(t_max=10.0))
    assert len(res.trajectory) > 3
    assert (res.n_accepted, res.n_rejected) == (dense.n_accepted, dense.n_rejected)
    assert len(res.trajectory) == len(dense.trajectory)
    assert np.linalg.norm(res.u_final - dense.u_final) <= 1e-13 * np.linalg.norm(dense.u_final)
    assert abs(res.decay_deviation - dense.decay_deviation) <= 1e-15


@pytest.mark.parametrize("make", [
    pytest.param(lambda: sector_blocks(8).problem, id="sector_blocks-8"),
    pytest.param(indefinite_problem, id="indefinite-6"),
])
def test_diagonal_jacobian_flow_is_bitwise_the_dense_one(monkeypatch, make):
    # where both routes factor by LU, a non-symmetric A or an M that dpotrf
    # refuses, a vector Jacobian goes onto a copy of A's diagonal instead of
    # A + diag(d), and nothing else changes; a bound no q meets closes the
    # Neumann route, which a dense Jacobian never takes
    monkeypatch.setattr(model, "_NEUMANN_Q", -1.0)
    problem = make()
    assert problem.g.jac_fn(problem.u0).shape == (problem.dim,)
    res = integrate(problem, FlowConfig(t_max=10.0))
    dense = integrate(replace(problem, g=_dense_twin(problem.g)), FlowConfig(t_max=10.0))
    assert len(res.trajectory) > 3
    assert (res.n_accepted, res.n_rejected) == (dense.n_accepted, dense.n_rejected)
    assert pickle.dumps(res) == pickle.dumps(dense)


def _zero_diagonal_twin(g):
    """``g`` with its zero Jacobian as the length-``n`` zero vector instead of None."""
    return NonlinearMap(g.fn, lambda u: np.zeros(u.size), name=g.name, params=g.params,
                        jac_floor=g.jac_floor)


def test_constant_map_continuation_is_bitwise_the_dense_one():
    # jac_fn=None is the case q = 0 of the Neumann route, v = -f with no
    # sweep, which a zero diagonal Jacobian takes too
    problem = singular_monotone(10, rank=5).problem
    assert problem.g.jac_fn is None
    res = solve_minimal_norm(problem)
    zero = solve_minimal_norm(replace(problem, g=_zero_diagonal_twin(problem.g)))
    assert len(res.records) > 3
    assert [r.inner_steps for r in res.records] == [r.inner_steps for r in zero.records]
    assert pickle.dumps(res) == pickle.dumps(zero)


def _count_factorizations(monkeypatch):
    """Count the ``dposv``, ``dpotrf`` and ``dgetrf`` calls through ``model``'s bindings.

    A stage's Cholesky factor comes with its solve, one ``dposv``; the only
    ``dpotrf`` is the low-rank route's, of ``G``, once per run.
    """
    calls = {"posv": 0, "potrf": 0, "getrf": 0}

    def counted(name, fn):
        def call(*a):
            calls[name] += 1
            return fn(*a)
        return call

    for name in calls:
        monkeypatch.setattr(model, "_" + name, counted(name, getattr(model, "_" + name)))
    return calls


def test_constant_map_flow_factors_nothing_per_stage(monkeypatch):
    # jac_fn=None and a zero diagonal factor nothing and give the same bits;
    # the dense zero Jacobian factors A + 0 at every stage and takes the same
    # steps to the same point up to rounding
    problem = singular_monotone(10, rank=5).problem.with_epsilon(1e-2)
    calls = _count_factorizations(monkeypatch)
    res = integrate(problem, FlowConfig(t_max=10.0))
    zero = integrate(replace(problem, g=_zero_diagonal_twin(problem.g)), FlowConfig(t_max=10.0))
    assert res.n_accepted > 10 and calls == {"posv": 0, "potrf": 0, "getrf": 0}
    assert pickle.dumps(res) == pickle.dumps(zero)
    dense = integrate(replace(problem, g=_dense_twin(problem.g)), FlowConfig(t_max=10.0))
    # the start, the initial-step probe and six stages per attempted step
    assert calls == {"posv": 0, "potrf": 0,
                     "getrf": 2 + 6 * (dense.n_accepted + dense.n_rejected)}
    assert (res.n_accepted, res.n_rejected) == (dense.n_accepted, dense.n_rejected)
    assert np.linalg.norm(res.u_final - dense.u_final) <= 1e-13 * np.linalg.norm(dense.u_final)


@pytest.mark.parametrize("make, posv, getrf", [
    pytest.param(lambda: wellposed_cubic(10).problem, 1, 0, id="wellposed_cubic-10"),
    pytest.param(lambda: wellposed_cubic(20).problem, 1, 0, id="wellposed_cubic-20"),
    pytest.param(lambda: wellposed_cubic(42, scale=1.0).problem, 1, 0, id="wellposed_cubic-42"),
    pytest.param(lambda: sector_blocks(8, scale=1.0).problem, 0, 1, id="sector_blocks-8"),
    pytest.param(lambda: sector_blocks(20, scale=1.0).problem, 0, 1, id="sector_blocks-20"),
    pytest.param(indefinite_problem, 1, 1, id="indefinite-6"),
])
def test_stage_factorizations_follow_the_structure(monkeypatch, make, posv, getrf):
    # a vector Jacobian on an exactly symmetric A tries dposv, and only an
    # M that dposv refuses, or a non-symmetric A, takes dgetrf; every stage
    # the Neumann route does not take factors so, and every case has such
    # stages: a cubic scale of 1 puts q above the route's bound at dim 42
    # and on sector_blocks, where the default scale leaves none
    problem = make()
    calls = _count_factorizations(monkeypatch)
    routes = _count_routes(monkeypatch)
    res = integrate(problem, FlowConfig(t_max=10.0))
    factored = 2 + 6 * (res.n_accepted + res.n_rejected) - len(routes)
    assert res.n_accepted > 10 and factored > 0
    assert calls == {"posv": posv * factored, "potrf": 0, "getrf": getrf * factored}


def test_refused_cholesky_stage_is_bitwise_an_lu_of_a_fresh_matrix(monkeypatch):
    # dposv factors its own copy of M, so after a refusal the LU fallback
    # factors that same M, and the velocity is bitwise scipy's LU solve of a
    # matrix built afresh from A and g'(u)
    problem = indefinite_problem()
    refusals, factored = [], []
    posv, getrf = model._posv, model._getrf

    def recorded(M, b):
        sol = posv(M, b)
        refusals.append(sol is None)
        factored.append(M)
        return sol

    monkeypatch.setattr(model, "_posv", recorded)
    monkeypatch.setattr(model, "_potrf", lambda M: pytest.fail("the stage took dpotrf"))
    monkeypatch.setattr(model, "_getrf", lambda M: factored.append(M) or getrf(M))
    A = problem.shifted.entries
    rng = np.random.default_rng(1)
    for u in (problem.u0, *(0.3 * rng.standard_normal(problem.dim) for _ in range(3))):
        refusals.clear()
        factored.clear()
        v = newton_velocity(problem, u)[0]
        M = A + np.diag(problem.g.jac_fn(u))
        assert refusals == [True] and factored[0] is factored[1]
        assert factored[0].tobytes() == M.tobytes()
        f = u + scipy.linalg.lu_solve(scipy.linalg.lu_factor(A), problem.g(u))
        ref = -scipy.linalg.lu_solve(scipy.linalg.lu_factor(M), A @ f)
        assert v.tobytes() == ref.tobytes()


# -- the Neumann route ---------------------------------------------------------------
#
# Where q = max|g'(u)| / sigma_min(A) <= 2^(-53/8), at any dim, a
# diagonal-Jacobian stage solves against A's inverse and factors nothing; a
# zero Jacobian is the case q = 0, whose velocity is -f.


def _count_inversions(monkeypatch):
    """Count ``dgetri`` calls, through the binding ``DenseOperator._inverse`` calls."""
    calls = []
    getri = hilbert._getri
    monkeypatch.setattr(hilbert, "_getri", lambda lu, piv: calls.append(lu.shape) or getri(lu, piv))
    return calls


def _count_routes(monkeypatch):
    """Record the ``q`` of each diagonal-Jacobian stage that takes the Neumann route."""
    calls = []
    neumann = model._neumann_velocity

    def recorded(mv, inverse, j, f, q):
        calls.append(q)
        return neumann(mv, inverse, j, f, q)

    monkeypatch.setattr(model, "_neumann_velocity", recorded)
    return calls


def _count_kernels(monkeypatch):
    """Count the sweeps' BLAS ``dsymv`` and ``dgemv`` calls, through ``model``'s bindings."""
    calls = {"dsymv": 0, "dgemv": 0}
    for name in calls:
        kernel = getattr(model, name)

        def counted(*a, name=name, kernel=kernel):
            calls[name] += 1
            return kernel(*a)

        monkeypatch.setattr(model, name, counted)
    return calls


def _sweeps(q):
    """The Neumann route's sweep count at contraction factor ``q``."""
    return 0 if q == 0.0 else min(model._NEUMANN_SWEEPS, math.ceil(-53.0 / math.log2(q)) - 1)


def _assert_kernel_per_sweep(kernels, routes, self_adjoint):
    """One ``dsymv`` per sweep on a self-adjoint ``A``, one ``dgemv`` otherwise, and no other."""
    sweeps = sum(_sweeps(q) for q in routes)
    used, unused = ("dsymv", "dgemv") if self_adjoint else ("dgemv", "dsymv")
    assert sweeps > 0 and kernels == {used: sweeps, unused: 0}


@pytest.mark.parametrize("make, self_adjoint", [
    pytest.param(lambda: wellposed_cubic(200).problem, True, id="wellposed_cubic-200"),
    pytest.param(lambda: sector_blocks(64).problem, False, id="sector_blocks-64"),
])
def test_neumann_route_factors_nothing_and_keeps_the_steps(monkeypatch, make, self_adjoint):
    # one inverse of A per run, no stage factorization, and one dsymv per
    # sweep on the self-adjoint A, one dgemv on the other; the factor path,
    # forced by a bound no q meets, takes the same steps to the same point
    problem = make()
    calls = _count_factorizations(monkeypatch)
    inversions = _count_inversions(monkeypatch)
    routes = _count_routes(monkeypatch)
    kernels = _count_kernels(monkeypatch)
    res = integrate(problem)
    assert res.converged and calls == {"posv": 0, "potrf": 0, "getrf": 0}
    assert inversions == [(problem.dim, problem.dim)]
    _assert_kernel_per_sweep(kernels, routes, self_adjoint)
    monkeypatch.setattr(model, "_NEUMANN_Q", -1.0)
    factored = integrate(problem)
    stages = 2 + 6 * (factored.n_accepted + factored.n_rejected)
    assert sum(calls.values()) == stages and len(inversions) == 1
    assert (res.n_accepted, res.n_rejected) == (factored.n_accepted, factored.n_rejected)
    assert np.linalg.norm(res.u_final - factored.u_final) <= 1e-13
    ref = newton_oracle(problem, tol=1e-12).solution
    assert norm(res.u_final - ref) <= 1e-7


@pytest.mark.parametrize("dim", [9, 10])
def test_a_diagonal_jacobian_zero_at_u_inverts_nothing(monkeypatch, dim):
    # unshifted ill_conditioned's cubic has g'(u0) = 0, so its one route stage
    # has q = 0 and velocity -f: it reads no inverse of A; the run then
    # collapses at t = 0 without another route stage
    problem = ill_conditioned(dim).problem
    inversions = _count_inversions(monkeypatch)
    routes = _count_routes(monkeypatch)
    with pytest.raises(FlowFailed, match="step size collapsed"):
        integrate(problem)
    assert routes == [0.0] and inversions == []
    v = newton_velocity(problem, problem.u0)[0]
    assert v.tobytes() == (-preconditioned_residual(problem, problem.u0)).tobytes()
    assert inversions == []


@pytest.mark.parametrize("make, dim", [
    (wellposed_cubic, 2), (wellposed_cubic, 8), (wellposed_cubic, 16), (wellposed_cubic, 43),
    (wellposed_cubic, 200), (sector_blocks, 2), (sector_blocks, 8), (sector_blocks, 22),
    (sector_blocks, 64)])
def test_neumann_velocity_matches_a_dense_solve(monkeypatch, make, dim):
    # g'(u) = 0.3 u^2, so scaling u puts q at half the route's bound, where
    # it takes 6 or 7 sweeps, each a dsymv on wellposed_cubic's self-adjoint
    # A and a dgemv on sector_blocks'; the witness shares nothing with the
    # stage but A, g and g'
    p = make(dim).problem
    calls = _count_factorizations(monkeypatch)
    routes = _count_routes(monkeypatch)
    kernels = _count_kernels(monkeypatch)
    A = p.shifted.entries
    u = p.u0 + 0.005 * np.random.default_rng(4).standard_normal(dim)
    q = np.abs(p.g.jac_fn(u)).max() / np.linalg.svd(A, compute_uv=False)[-1]
    u *= np.sqrt(0.5 * model._NEUMANN_Q / q)
    f = preconditioned_residual(p, u)
    ref = -np.linalg.solve(A + np.diag(p.g.jac_fn(u)), A @ f)
    v = newton_velocity(p, u)[0]
    assert calls == {"posv": 0, "potrf": 0, "getrf": 0} and len(routes) == 1
    _assert_kernel_per_sweep(kernels, routes, make is wellposed_cubic)
    assert np.linalg.norm(v - ref) <= 1e-13 * np.linalg.norm(ref)


def test_repeated_velocity_calls_invert_a_once(monkeypatch):
    # A's inverse is cached on the operator, so single calls on one problem
    # pay dgetri once, as one run of the flow does
    p = wellposed_cubic(8).problem
    inversions = _count_inversions(monkeypatch)
    routes = _count_routes(monkeypatch)
    for u in (0.1 * p.u0, 0.1 * p.u0 + 1e-3):
        newton_velocity(p, u)
    assert len(routes) == 2 and min(routes) > 0.0 and inversions == [(8, 8)]


@pytest.mark.parametrize("make, dim, posv", [(wellposed_cubic, 64, 1), (sector_blocks, 64, 0)])
def test_stage_above_the_neumann_bound_factors_as_before(monkeypatch, make, dim, posv):
    # q = 0.3 u_0^2 / sigma_min(A) > 2^(-53/8) at u_0 = 0.6: the stage factors
    # M = A + g'(u) and its velocity is bitwise scipy's solve with that factor
    p = make(dim).problem
    u = p.u0.copy()
    u[0] = 0.6
    calls = _count_factorizations(monkeypatch)
    inversions = _count_inversions(monkeypatch)
    v = newton_velocity(p, u)[0]
    assert calls == {"posv": posv, "potrf": 0, "getrf": 1 - posv} and inversions == []
    A = p.shifted.entries
    f = u + scipy.linalg.lu_solve(scipy.linalg.lu_factor(A), p.g(u))
    M = A + np.diag(p.g.jac_fn(u))
    if posv:
        ref = -scipy.linalg.cho_solve(scipy.linalg.cho_factor(M, lower=True), A @ f)
    else:
        ref = -scipy.linalg.lu_solve(scipy.linalg.lu_factor(M), A @ f)
    assert v.tobytes() == ref.tobytes()


# -- the low-rank route ----------------------------------------------------------------
#
# A map that declares g'(u) = B diag(d) B^T, range_cubic's form, solves each
# stage in rank r where its run's gate beta = |A| |C|_F |B| / sigma_min(B)^2
# <= 32 opens, C = A^{-1} B; every other run factors the dense (B * d) @ B^T.


def _tilted_basis_problem(tilt, eps, dim=10, seed=0):
    """``singular_monotone``'s ``L`` at shift ``eps`` under a ``range_cubic`` whose basis
    turns by ``tilt`` from ``L``'s range (the builtin's, at 0) into its nullspace
    (at ``pi/2``); returns the problem and the builtin's minimal-norm solution."""
    b = singular_monotone(dim, rank=dim // 2, cubic_scale=0.1, seed=seed)
    g = b.problem.g
    B = math.cos(tilt) * g.jac_basis + math.sin(tilt) * b.nullspace
    tilted = make_map("range_cubic", dim, {"scale": 0.1, "basis": B, "offset": g.params["offset"]})
    return replace(b.problem, g=tilted, epsilon=eps), b.min_norm_solution


def _count_lowrank(monkeypatch):
    """Record ``max|d|`` of each stage that takes the low-rank route."""
    calls = []
    lowrank = model._lowrank_velocity
    monkeypatch.setattr(model, "_lowrank_velocity",
                        lambda *a: calls.append(float(np.abs(a[1]).max())) or lowrank(*a))
    return calls


@pytest.mark.parametrize("eps", [1e-3, 1e-5, 1e-7])
@pytest.mark.parametrize("tilt", [0.0, math.pi / 2], ids=["aligned", "misaligned"])
def test_low_rank_velocity_is_within_its_rounding_bound_or_factors(monkeypatch, tilt, eps):
    # the aligned basis spans L's range and opens the gate at every shift: its
    # velocity agrees with the dense twin's factor path within the sum of the
    # two routes' bounds, c_n u kappa(A) beta (1 + beta) |f| and
    # c_n u (kappa(M) |v| + kappa(A) |f|), with c_n = n.  The misaligned one
    # lies in L's nullspace, where beta = kappa(A) > 32 closes the gate, so
    # each of its stages factors the dense matrix, bitwise the twin's
    problem, v_min = _tilted_basis_problem(tilt, eps)
    dense = _undeclared_basis(problem)
    routes = _count_lowrank(monkeypatch)
    factors = _count_factorizations(monkeypatch)
    A, B, n = problem.shifted.entries, problem.g.jac_basis, problem.dim
    kappa = np.linalg.cond(A)
    beta = np.linalg.norm(A, 2) * np.linalg.norm(np.linalg.solve(A, B))
    opens = tilt == 0.0
    assert (beta <= model._LOWRANK_BETA) == opens
    unit = np.finfo(float).eps / 2
    rng = np.random.default_rng(5)
    for t in (0.3, 0.7, 1.0):
        u = t * v_min + 0.05 * rng.standard_normal(n)
        v = newton_velocity(problem, u)[0]
        v_dense = newton_velocity(dense, u)[0]
        if opens:
            f = preconditioned_residual(problem, u)
            kappa_m = np.linalg.cond(A + problem.g.jacobian(u))
            bound = n * unit * (kappa * (beta * (1.0 + beta) + 1.0) * norm(f)
                                + kappa_m * norm(v_dense))
            assert norm(v - v_dense) <= bound
        else:
            assert v.tobytes() == v_dense.tobytes()
    # per call: the route's dpotrf of G and dposv of H + diag(d), or the
    # dense LU, and the twin's LU
    assert len(routes) == (3 if opens else 0)
    assert factors == ({"posv": 3, "potrf": 3, "getrf": 3} if opens
                       else {"posv": 0, "potrf": 0, "getrf": 6})


@pytest.mark.parametrize("change", ["repeated-column", "no-floor", "unflagged-operator",
                                    "indefinite-operator"])
def test_low_rank_gate_closes_where_its_bound_does_not_apply(monkeypatch, change):
    # the bound needs a B of full column rank (Gershgorin's lower disc edge
    # of B^T B is 0 for a repeated column), d >= 0 (a declared floor >= 0)
    # and a self-adjoint, positive definite A: without one of them a stage
    # factors the dense (B * d) @ B^T, bitwise the undeclared twin's
    problem, v_min = _tilted_basis_problem(0.0, 1e-2)
    g, B = problem.g, problem.g.jac_basis
    u = 0.7 * v_min
    if change == "indefinite-operator":
        # A = diag(1, -1) and B along (1, 1 - 1e-3): beta = 1 and G = B^T A^{-1} B,
        # about 1e-3, is positive, yet |H| = 1/lambda_min(G) exceeds the bound
        # |A| / sigma_min(B)^2 = 1 that the route's rounding bound rests on
        B = np.array([[1.0], [1.0 - 1e-3]]) / math.hypot(1.0, 1.0 - 1e-3)
        L = DenseOperator(np.diag([1.0, -1.0]), self_adjoint=True)
        C = np.linalg.solve(L.entries, B)
        assert np.linalg.norm(C) == pytest.approx(1.0) and 0.0 < (B.T @ C).item() < 1.1e-3
        g = make_map("range_cubic", 2, {"scale": 0.1, "basis": B, "offset": np.zeros(2)})
        problem = DsmProblem(L=L, g=g, u0=np.zeros(2), radius=10.0)
        u = np.array([0.5, 0.2])
    elif change == "repeated-column":
        g = NonlinearMap(g.fn, lambda u, d=g.jac_fn: np.append(d(u), 0.0), name=g.name,
                         jac_floor=0.0, jac_basis=np.column_stack([B, B[:, 0]]))
    elif change == "no-floor":
        g = NonlinearMap(g.fn, g.jac_fn, name=g.name, jac_basis=B)
    else:
        problem = replace(problem, L=DenseOperator(problem.L.entries))
    problem = replace(problem, g=g)
    routes = _count_lowrank(monkeypatch)
    factors = _count_factorizations(monkeypatch)
    v = newton_velocity(problem, u)[0]
    assert routes == [] and factors == {"posv": 0, "potrf": 0, "getrf": 1}
    assert v.tobytes() == newton_velocity(_undeclared_basis(problem), u)[0].tobytes()


@pytest.mark.parametrize("dim", [10, 20, 40])
def test_low_rank_flow_takes_the_factor_paths_steps(monkeypatch, dim):
    # singular_monotone's range_cubic at cubic 0.1: the route's runs factor
    # nothing n x n, and take the undeclared twin's accepted and rejected
    # steps to the same point up to rounding
    problem = singular_monotone(dim, rank=dim // 2, cubic_scale=0.1).problem
    routes = _count_lowrank(monkeypatch)
    sweeps = _count_routes(monkeypatch)
    factors = _count_factorizations(monkeypatch)
    for eps in (1.0, 1e-2, 1e-4, 1e-6):
        routes.clear()
        factors.update(posv=0, potrf=0, getrf=0)
        res = integrate(problem.with_epsilon(eps))
        stages = 2 + 6 * (res.n_accepted + res.n_rejected)
        # every stage takes the route and sweeps nothing; the start u0 = 0
        # has d = 0 and returns -f, and every other stage factors and solves
        # H + diag(d) by one dposv, after the run's one dpotrf of G
        assert res.converged and len(routes) == stages and routes[0] == 0.0
        assert sweeps == [] and 0.0 not in routes[1:]
        assert factors == {"posv": stages - 1, "potrf": 1, "getrf": 0}
        dense = integrate(_undeclared_basis(problem.with_epsilon(eps)))
        assert (res.n_accepted, res.n_rejected) == (dense.n_accepted, dense.n_rejected)
        assert norm(res.u_final - dense.u_final) <= 1e-9 * norm(dense.u_final)


def test_low_rank_continuation_keeps_every_level(monkeypatch):
    # the benchmark's pinned dim-20 config: every level takes the same
    # accepted steps as the undeclared twin, and the limits agree
    problem = singular_monotone(20, rank=10, cubic_scale=0.1, seed=42).problem
    routes = _count_lowrank(monkeypatch)
    res = solve_minimal_norm(problem)
    assert routes
    dense = solve_minimal_norm(_undeclared_basis(problem))
    assert [r.inner_steps for r in res.records] == [r.inner_steps for r in dense.records]
    assert res.stop is dense.stop
    assert norm(res.v_limit - dense.v_limit) <= 1e-9


# -- the stage's fault signal ------------------------------------------------------
#
# A stage scans its point, and checks the rest through one fault signal that
# re-runs it with every scan on; tests/test_model.py pins what each fault
# raises.  A fault-free stage evaluates g and g' once and scans only its
# point and, on the LU routes, the LU factor.


def _counting(problem, calls):
    """``problem`` with a map that counts its ``fn`` and ``jac_fn`` calls into ``calls``."""
    g = problem.g

    def fn(u):
        calls["fn"] += 1
        return g.fn(u)

    def jac(u):
        calls["jac"] += 1
        return g.jac_fn(u)

    return replace(problem, g=NonlinearMap(fn, None if g.jac_fn is None else jac, name=g.name,
                                           jac_floor=g.jac_floor, jac_basis=g.jac_basis))


_ROUTES = [
    pytest.param(lambda: wellposed_cubic(10, scale=1.0).problem, 0,
                 id="cholesky-wellposed_cubic-10"),
    pytest.param(indefinite_problem, 1, id="refused-cholesky-indefinite-6"),
    pytest.param(lambda: sector_blocks(8, scale=1.0).problem, 1, id="lu-sector_blocks-8"),
    pytest.param(lambda: _undeclared_basis(
        singular_monotone(10, rank=5, cubic_scale=0.1).problem.with_epsilon(1e-2)),
                 1, id="dense-lu-singular_monotone-10"),
    pytest.param(lambda: singular_monotone(40, rank=20, cubic_scale=0.1).problem.with_epsilon(1e-2),
                 0, id="lowrank-singular_monotone-40"),
    pytest.param(lambda: singular_monotone(10, rank=5).problem.with_epsilon(1e-2), 0,
                 id="no-jacobian-singular_monotone-10"),
    pytest.param(lambda: wellposed_cubic(64).problem, 0, id="neumann-wellposed_cubic-64"),
    pytest.param(lambda: sector_blocks(64).problem, 0, id="neumann-sector_blocks-64"),
]


@pytest.mark.parametrize("make, lu", _ROUTES)
def test_fault_free_stages_evaluate_g_once_and_scan_only_u_and_an_lu_factor(
        monkeypatch, make, lu):
    # g and g' once per stage, on every route; one check per stage for u,
    # its BLAS sum of squares, which proves a finite u finite without the
    # scan, and one scan where the stage factors by LU, of the LU factor,
    # which every stage that factors does in the cases with lu = 1;
    # recording a point proves F(u) finite by its sum of squares and scans
    # nothing.  At a cubic scale of 1, q leaves the Neumann route's bound
    # at every stage of the Cholesky case and at some of the LU one
    calls = {"fn": 0, "jac": 0}
    problem = _counting(make(), calls)
    problem.shifted._factorize()
    calls.update(fn=0, jac=0)
    checks, scans = [], []
    squares, scan = hilbert._squares_finite, hilbert._all_finite
    # hilbert's binding is as_vector's check of u; the stage's own tests of
    # f and v go through model's binding, which stays as it is
    monkeypatch.setattr(hilbert, "_squares_finite",
                        lambda x: checks.append(x.shape) or squares(x))
    for module in (hilbert, model):
        monkeypatch.setattr(module, "_all_finite", lambda x: scans.append(x.shape) or scan(x))
    factors = _count_factorizations(monkeypatch)
    routes = _count_routes(monkeypatch)
    lowrank = _count_lowrank(monkeypatch)
    setups = []
    make_lowrank = model._lowrank

    def set_up(*a):
        data = make_lowrank(*a)
        setups.append(dict(factors))
        return data

    monkeypatch.setattr(model, "_lowrank", set_up)
    res = integrate(problem, FlowConfig(t_max=10.0))
    assert res.n_accepted > 10
    stages = 2 + 6 * (res.n_accepted + res.n_rejected)
    jacobians = 0 if problem.g.jac_fn is None else stages
    assert calls == {"fn": stages, "jac": jacobians}
    assert factors["getrf"] == lu * (stages - len(routes))
    if problem.g.jac_basis is not None:
        # the run's set-up factors G by its one dpotrf; after it every stage
        # takes the low-rank route, and each one with a nonzero d is one
        # dposv, with no dpotrf or dgetrf
        assert setups == [{"posv": 0, "potrf": 1, "getrf": 0}] and len(lowrank) == stages
        assert factors == {"posv": sum(d > 0.0 for d in lowrank), "potrf": 1, "getrf": 0}
        assert factors["posv"] >= stages - 1
    n = problem.dim
    assert checks == [(n,)] * stages and scans == [(n, n)] * factors["getrf"]


def test_a_start_residual_whose_norm_overflows_is_refused_before_the_first_step(monkeypatch):
    # f(u0) is finite but f.f overflows, so p0 = inf; every stop would read
    # it as already met, and the run raises instead of reporting convergence;
    # f.f is a BLAS ddot, so its overflow does not warn
    problem = singular_monotone(3, rank=1, cubic_scale=1e300).problem.with_epsilon(0.1)
    monkeypatch.setattr(flow, "_first_step", lambda *a: pytest.fail("took a first step"))
    with pytest.raises(FlowFailed) as exc:
        integrate(problem)
    assert str(exc.value) == ("start residual norm |f(u0)| overflows to inf; "
                              "nothing to integrate against")
    assert exc.value.result is None


def test_a_fault_mid_run_raises_what_the_scans_raised():
    # the flow runs from u0 = 0 towards u* = (3, 3), and g turns NaN once a
    # stage's point passes u[0] = 2
    c = np.full(2, 30.0)
    g = NonlinearMap(lambda u: u * u * u - c if u[0] <= 2.0 else np.full(2, np.nan),
                     lambda u: 3.0 * u ** 2, name="turns-nan")
    problem = DsmProblem(L=diagonal_operator(np.ones(2)), g=g, u0=np.zeros(2), radius=100.0)
    with pytest.raises(ValueError) as exc:
        integrate(problem)
    assert type(exc.value) is ValueError
    assert str(exc.value) == "map 'turns-nan' returned non-finite values"


# -- exact linear trajectory ------------------------------------------------------


def test_linear_flow_matches_closed_form_everywhere():
    problem, u_star = linear_problem(dim=4, seed=8)
    # relative stop at 1e-9 needs t ~ 21, so leave headroom
    cfg = FlowConfig(t_max=25.0, rel_tol=1e-8, p_stop=1e-9)
    res = integrate(problem, cfg)
    assert res.converged
    gap0 = problem.u0 - u_star
    for pt in res.trajectory:
        exact = u_star + gap0 * np.exp(-pt.t)
        assert norm(pt.u - exact) <= 1e-6 * max(1.0, norm(gap0))
    assert norm(res.u_final - u_star) <= 1e-8 * max(1.0, norm(u_star))


def test_trajectory_entries_recompute():
    # stored p and residual_F agree with direct recomputation at the
    # recorded points
    b = wellposed_cubic(6, scale=0.1, seed=5)
    res = integrate(b.problem, FlowConfig(t_max=5.0, p_stop=1e-6))
    assert len(res.trajectory) > 3
    for pt in res.trajectory:
        p_re = norm(preconditioned_residual(b.problem, pt.u))
        r_re = norm(full_residual(b.problem, pt.u))
        assert abs(pt.p - p_re) <= 1e-12 * max(pt.p, 1e-30)
        assert abs(pt.residual_F - r_re) <= 1e-12 * max(pt.residual_F, 1e-30)
    ts = [pt.t for pt in res.trajectory]
    assert ts[0] == 0.0 and res.trajectory[0].step == 0.0
    assert all(b > a for a, b in zip(ts, ts[1:]))


def test_sample_stride_controls_recording_density():
    b = wellposed_cubic(4, scale=0.1, seed=6)
    coarse = integrate(b.problem, FlowConfig(t_max=3.0, p_stop=0.0, sample_stride=0.5))
    fine = integrate(b.problem, FlowConfig(t_max=3.0, p_stop=0.0, sample_stride=0.05))
    assert len(fine.trajectory) > 2 * len(coarse.trajectory)


# -- decay law -----------------------------------------------------------------------


@pytest.mark.parametrize("rel_tol", [1e-6, 1e-8])
def test_decay_deviation_tracks_rel_tol(rel_tol):
    # seeded loop: deviation from p0 e^{-t} stays within 100x the local
    # tolerance on every problem, and the reported deviation dominates a
    # recomputation over the recorded points
    cases = [wellposed_cubic(d, scale=0.1, seed=s).problem
             for d, s in ((3, 1), (6, 2), (10, 3))]
    cases.append(singular_monotone(5, rank=3, seed=4).problem.with_epsilon(1e-2))
    for problem in cases:
        cfg = FlowConfig(t_max=12.0, rel_tol=rel_tol, p_stop=0.0)
        res = integrate(problem, cfg)
        assert res.decay_deviation <= 100.0 * rel_tol
        recomputed = max(abs(pt.p - res.p0 * np.exp(-pt.t)) / res.p0
                         for pt in res.trajectory)
        assert res.decay_deviation >= recomputed - 1e-15


def test_decay_report_rate_and_noise_window():
    b = wellposed_cubic(8, scale=0.1, seed=7)
    res = integrate(b.problem, FlowConfig(t_max=20.0, rel_tol=1e-8, p_stop=0.0))
    p0, dev, rate = decay_report(res)
    assert p0 == res.p0 and dev == res.decay_deviation
    assert rate == pytest.approx(-1.0, abs=1e-5)
    # a naive fit over all points is dragged off -1 by the late-time noise
    # floor, which is what the windowed fit protects against
    ts = np.array([pt.t for pt in res.trajectory])
    ps = np.array([pt.p for pt in res.trajectory])
    naive = float(np.polyfit(ts, np.log(ps), 1)[0])
    assert abs(naive + 1.0) > abs(rate + 1.0)


def test_decay_report_degenerate_cases():
    # start exactly at a solution: p0 = 0, flow returns immediately
    L = diagonal_operator(np.ones(2))
    u_star = np.array([0.7, -0.4])
    problem = DsmProblem(L=L, g=constant_map(-u_star), u0=u_star, radius=1.0)
    res = integrate(problem)
    assert res.converged and len(res.trajectory) == 1
    assert decay_report(res) == (0.0, 0.0, 0.0)


# -- stopping -------------------------------------------------------------------------


def test_convergence_invariant():
    b = wellposed_cubic(7, scale=0.1, seed=9)
    cfg = FlowConfig(p_stop=1e-7)
    res = integrate(b.problem, cfg)
    assert res.converged
    assert res.p_final <= cfg.stop_at(res.p0)


def test_warm_start_at_solution_needs_absolute_stop():
    b = wellposed_cubic(5, scale=0.1, seed=10)
    first = integrate(b.problem, FlowConfig(p_stop=1e-9))
    assert first.converged
    warm = replace(b.problem, u0=first.u_final)
    # with an absolute stop at 1e-9 the warm start is already converged
    res = integrate(warm, FlowConfig(p_stop=1e-9, p_stop_abs=1e-9))
    assert res.converged and len(res.trajectory) == 1
    assert "already below" in res.message


def test_t_max_status():
    b = wellposed_cubic(4, scale=0.1, seed=11)
    res = integrate(b.problem, FlowConfig(t_max=0.5, p_stop=0.0))
    assert res.status is FlowStatus.T_MAX_REACHED
    assert not res.converged
    assert res.t_final == pytest.approx(0.5, abs=1e-9)
    assert res.p_final == pytest.approx(res.p0 * np.exp(-0.5), rel=1e-4)


def test_step_budget_exhaustion_raises_with_partial_result(monkeypatch):
    b = wellposed_cubic(4, scale=0.1, seed=12)
    # made before the budget shrinks: under a budget of 3 steps the config
    # refuses the default stride, 300 points up to t_max
    cfg = FlowConfig(p_stop=0.0)
    monkeypatch.setattr(flow, "_MAX_STEPS", 3)
    with pytest.raises(FlowFailed) as exc:
        integrate(b.problem, cfg)
    res = exc.value.result
    assert isinstance(res, FlowResult)
    assert res.status is FlowStatus.STEP_FAILURE
    assert res.n_accepted <= 3
    assert res.trajectory[-1].t == res.t_final


def test_step_collapse_raises_with_partial_result():
    # kappa(L) ~ 1e13 at dim 10: the first step size is already below the floor
    with pytest.raises(FlowFailed) as exc:
        integrate(ill_conditioned(10).problem)
    res = exc.value.result
    assert res.status is FlowStatus.STEP_FAILURE
    assert "step size collapsed" in res.message
    assert len(res.trajectory) == 1 and res.n_accepted == 0


def _warm_started():
    b = wellposed_cubic(5, scale=0.1, seed=10)
    first = integrate(b.problem, FlowConfig(p_stop=1e-9))
    return replace(b.problem, u0=first.u_final), FlowConfig(p_stop_abs=1e-9), None


def _ball_exit():
    problem = DsmProblem(L=diagonal_operator(np.ones(2)), g=constant_map([-1.0, 0.0]),
                         u0=np.zeros(2), radius=0.2)
    fake = Certificate(kind=CertificateKind.TRUST_CONDITION, passed=True, quantities={})
    return problem, FlowConfig(t_max=10.0), fake


def _wellposed(**cfg):
    return wellposed_cubic(4, scale=0.1, seed=12).problem, FlowConfig(**cfg), None


def _step_budget():
    """A run that needs more than the 3 steps the test allows it."""
    return _wellposed(p_stop=0.0)


@pytest.mark.parametrize("make, status", [
    (_warm_started, FlowStatus.RESIDUAL_CONVERGED),
    (lambda: (ill_conditioned(10).problem, None, None), FlowStatus.STEP_FAILURE),
    (_ball_exit, FlowStatus.LEFT_BALL),
    (_wellposed, FlowStatus.RESIDUAL_CONVERGED),
    (lambda: _wellposed(t_max=0.5, p_stop=0.0), FlowStatus.T_MAX_REACHED),
    (_step_budget, FlowStatus.STEP_FAILURE),
], ids=["start", "step-collapse", "left-ball", "converged", "t-max", "step-budget"])
def test_every_exit_records_the_final_state(make, status, monkeypatch):
    problem, cfg, trust = make()
    if make is _step_budget:
        # after the config is made, which refuses a stride finer than the budget
        monkeypatch.setattr(flow, "_MAX_STEPS", 3)
    try:
        res = integrate(problem, cfg, trust=trust)
    except FlowFailed as exc:
        res = exc.result
    assert res.status is status
    last = res.trajectory[-1]
    # the last point is the final state, recorded once: the time the exit
    # message reports, u_final and its residual, bitwise
    if status is FlowStatus.T_MAX_REACHED:
        assert abs(last.t - cfg.t_max) <= 1e-12
    elif "already below" in res.message:
        assert last.t == 0.0
    else:
        assert f"at t={last.t:.6f}" in res.message
    assert np.array_equal(last.u, res.u_final)
    assert last.residual_F == norm(full_residual(problem, res.u_final))
    ts = [pt.t for pt in res.trajectory]
    assert all(b > a for a, b in zip(ts, ts[1:]))


def test_step_budget_exit_records_the_size_in_hand(monkeypatch):
    # a stride of 1.0 records nothing in the 3 steps the budget allows, so
    # the final point is the exit's own, between strides
    problem, cfg, _ = _wellposed(p_stop=0.0, sample_stride=1.0)
    attempts = []
    step = flow._dopri_step
    monkeypatch.setattr(flow, "_dopri_step",
                        lambda stage, u, au, k, h, *rest: attempts.append(h) or
                        step(stage, u, au, k, h, *rest))
    monkeypatch.setattr(flow, "_MAX_STEPS", 3)
    with pytest.raises(FlowFailed) as exc:
        integrate(problem, cfg)
    res = exc.value.result
    assert len(attempts) == 3 and len(res.trajectory) == 2
    assert 0.0 < res.t_final < cfg.sample_stride
    # the same run with a larger budget goes on with that size as its next attempt
    attempts.clear()
    monkeypatch.setattr(flow, "_MAX_STEPS", 4)
    with pytest.raises(FlowFailed):
        integrate(problem, cfg)
    assert len(attempts) == 4
    assert res.trajectory[-1].step == attempts[3]


@pytest.mark.parametrize("make, status", [
    (_ball_exit, FlowStatus.LEFT_BALL),
    (_wellposed, FlowStatus.RESIDUAL_CONVERGED),
    (lambda: _wellposed(t_max=0.5, p_stop=0.0), FlowStatus.T_MAX_REACHED),
], ids=["left-ball", "converged", "t-max"])
def test_exits_record_the_last_accepted_step(make, status):
    problem, cfg, trust = make()
    res = integrate(problem, cfg, trust=trust)
    # a stride below every step records each accepted one, so the fine run's
    # trajectory lists the accepted sizes in order
    fine = integrate(problem, replace(cfg, sample_stride=1e-4), trust=trust)
    assert res.status is fine.status is status
    assert len(fine.trajectory) == fine.n_accepted + 1
    assert fine.trajectory[-1].t - fine.trajectory[-2].t == pytest.approx(
        fine.trajectory[-1].step, rel=1e-12)
    assert res.trajectory[-1].step == fine.trajectory[-1].step
    assert (res.t_final, res.n_accepted, res.n_rejected) == (
        fine.t_final, fine.n_accepted, fine.n_rejected)


# -- explicit stop time ---------------------------------------------------------------


def assert_same_result(a, b):
    """``a`` and ``b`` agree field for field, every trajectory point bitwise."""
    assert len(a.trajectory) == len(b.trajectory)
    for x, y in zip(a.trajectory, b.trajectory):
        assert (x.t, x.p, x.residual_F, x.step) == (y.t, y.p, y.residual_F, y.step)
        assert np.array_equal(x.u, y.u)
    assert np.array_equal(a.u_final, b.u_final)
    for field in ("status", "decay_deviation", "p0", "left_ball_at", "message",
                  "n_accepted", "n_rejected"):
        assert getattr(a, field) == getattr(b, field), field


@pytest.mark.parametrize("make, until", [
    (_wellposed, 2.5),
    (lambda: _wellposed(sample_stride=1.0), 7.25),
    (_warm_started, 1.5),
], ids=["wellposed", "wellposed-coarse", "warm-start"])
def test_until_is_the_run_to_a_stop_time_without_stops(make, until):
    problem, cfg, _ = make()
    res = integrate(problem, cfg, until=until)
    plain = integrate(problem, replace(cfg, t_max=until, p_stop=0.0, p_stop_abs=0.0))
    # the same run, but its message names the stop time where the plain one names t_max
    assert plain.message == f"reached t_max={until} with residual {plain.p_final:.3e}"
    assert res.message == f"reached stop time t={until} with residual {res.p_final:.3e}"
    assert_same_result(replace(res, message=plain.message), plain)
    assert res.status is FlowStatus.T_MAX_REACHED
    assert abs(res.t_final - until) <= 1e-12
    if make is _warm_started:
        # without until the warm start stops at once, below its absolute stop
        assert integrate(problem, cfg).n_accepted == 0 < res.n_accepted


@pytest.mark.parametrize("until", [0.0, -1.0, np.nan, 30.0 + 1e-9])
def test_until_out_of_range_is_refused_before_any_stage(monkeypatch, until):
    problem, cfg, _ = _wellposed()

    def no_stage(problem):
        raise AssertionError("a stage was built")

    monkeypatch.setattr(flow, "_stage", no_stage)
    with pytest.raises(ValueError, match="until must lie in"):
        integrate(problem, cfg, until=until)


# -- one Dormand-Prince step ----------------------------------------------------------


def _stage_matrix(v, fill):
    """The Fortran-ordered ``(n, 7)`` stage matrix: ``v`` in column 0, ``fill`` elsewhere."""
    k = np.full((v.size, 7), fill, order="F")
    k[:, 0] = v
    return k


def test_dopri_step_follows_the_linear_flow_and_moves_the_velocity():
    # L = I and a constant g: the flow is u* + (u0 - u*) e^{-t}
    problem, u_star = linear_problem(dim=4, seed=3)
    stage = model._stage(problem)
    u = problem.u0.copy()
    k = _stage_matrix(stage(u)[0], np.nan)
    h = 0.1
    step, h_next, errold = flow._dopri_step(stage, u, np.abs(u), k, h, 1e-4, 1e-6)
    assert step is not None
    u_new, au_new, p_new, gu_new = step
    gap = problem.u0 - u_star
    # DP5's local error on u' = -u is (1/600 - 1/720) h^6 |gap| to leading order
    assert norm(u_new - (u_star + gap * np.exp(-h))) <= 1e-3 * h ** 6 * norm(gap)
    assert np.array_equal(au_new, np.abs(u_new))
    v_new, p_ref, gu_ref = stage(u_new)
    assert np.array_equal(k[:, 0], v_new)
    assert p_new == p_ref and np.array_equal(gu_new, gu_ref)
    assert np.array_equal(u, problem.u0)
    assert h_next > 0.0 and errold >= 1e-4


def test_dopri_step_rejection_leaves_the_state_as_it_was():
    problem, _ = linear_problem(dim=4, seed=3)
    stage = model._stage(problem)
    u = problem.u0.copy()
    k = _stage_matrix(stage(u)[0], np.nan)
    v = k[:, 0].copy()
    # 50 time units lie far outside DP5's stability interval on u' = -u
    step, h_next, errold = flow._dopri_step(stage, u, np.abs(u), k, 50.0, 0.37, 1e-8)
    assert step is None
    assert np.array_equal(u, problem.u0) and np.array_equal(k[:, 0], v)
    assert h_next == 5.0 and errold == 0.37


def test_dopri_step_matches_a_stage_by_stage_reference_to_rounding():
    # the same tableau summed term by term in Python: dgemv's fused scaling
    # and its order of summation move u_new by a few roundings at most
    problem = wellposed_cubic(12).problem
    stage = model._stage(problem)
    u = problem.u0 + 0.1
    v = stage(u)[0]
    h = 0.05
    ks = [v]
    for a in flow._A[:5]:
        ks.append(stage(u + h * sum(c * kj for c, kj in zip(a, ks)))[0])
    ref = u + h * sum(c * kj for c, kj in zip(flow._A[5], ks))
    scale = np.abs(u) + h * sum(abs(c) * np.abs(kj) for c, kj in zip(flow._A[5], ks))
    step, _, _ = flow._dopri_step(stage, u, np.abs(u), _stage_matrix(v, np.nan), h, 1e-4, 1e-8)
    assert step is not None
    assert np.all(np.abs(step[0] - ref) <= 4 * np.finfo(float).eps * scale)


@pytest.mark.parametrize("make, h, accepted", [
    pytest.param(lambda: wellposed_cubic(12).problem, 0.05, True, id="wellposed_cubic-12"),
    pytest.param(lambda: sector_blocks(8).problem, 0.05, True, id="sector_blocks-8"),
    pytest.param(lambda: sector_blocks(8).problem, 0.2, False, id="rejected-sector_blocks-8"),
])
def test_dopri_step_reads_no_column_it_has_not_written(make, h, accepted):
    # an attempt reads only the columns of k it has written, so NaN in the
    # six scratch columns leaves it bitwise the attempt from zeros there
    problem = make()
    stage = model._stage(problem)
    u = problem.u0.copy()
    v = stage(u)[0]
    attempts = []
    for fill in (0.0, np.nan):
        k = _stage_matrix(v, fill)
        step, h_next, errold = flow._dopri_step(stage, u, np.abs(u), k, h, 1e-4, 1e-8)
        assert (step is not None) == accepted
        attempts.append((step or (), h_next, errold, k))
    (step, h_next, errold, k), (step_nan, h_nan, errold_nan, k_nan) = attempts
    assert (h_next, errold) == (h_nan, errold_nan) and k.tobytes() == k_nan.tobytes()
    # (u, |u|, p, g(u)), each bitwise
    assert [np.asarray(x).tobytes() for x in step] == [np.asarray(x).tobytes() for x in step_nan]


# -- trust ball -----------------------------------------------------------------------


def test_left_ball_is_hard_failure_only_under_passed_trust():
    # target sits 1.0 away but the ball has radius 0.2, so the flow must
    # exit; a (deliberately wrong) passed certificate makes that a hard stop
    L = diagonal_operator(np.ones(2))
    u_star = np.array([1.0, 0.0])
    problem = DsmProblem(L=L, g=constant_map(-u_star), u0=np.zeros(2), radius=0.2)
    fake = Certificate(kind=CertificateKind.TRUST_CONDITION, passed=True,
                       quantities={})
    res = integrate(problem, FlowConfig(t_max=10.0), trust=fake)
    assert res.status is FlowStatus.LEFT_BALL
    assert res.left_ball_at is not None
    assert norm(res.u_final - problem.u0) > 0.2
    # without the certificate the exit is recorded but not fatal
    free = integrate(problem, FlowConfig(t_max=25.0))
    assert free.converged
    assert free.left_ball_at is not None
    assert free.left_ball_at == pytest.approx(res.left_ball_at, rel=1e-6)


def test_passed_trust_certificate_holds_on_real_problem():
    b = wellposed_cubic(6, scale=0.1, seed=13)
    samples = ball_samples(b.problem.u0, b.problem.radius, 32, seed=0)
    bound = estimate_newton_bound(b.problem, samples).quantities["bound"]
    trust = check_trust_condition(b.problem, bound)
    assert trust.passed
    res = integrate(b.problem, trust=trust)
    assert res.converged and res.left_ball_at is None


# -- post-hoc error bounds --------------------------------------------------------------


def test_error_bound_check_accepts_true_bound_rejects_tiny():
    b = wellposed_cubic(6, scale=0.1, seed=14)
    samples = ball_samples(b.problem.u0, b.problem.radius, 64, seed=1)
    m1 = estimate_newton_bound(b.problem, samples).quantities["bound"]
    res = integrate(b.problem)
    ok, max_ratio = error_bound_check(res, m1)
    assert ok and 0.0 < max_ratio <= 1.0
    bad_ok, bad_ratio = error_bound_check(res, m1 * 1e-3)
    assert not bad_ok and bad_ratio > 1.0
    with pytest.raises(ValueError):
        error_bound_check(res, 0.0)


def test_error_bound_check_requires_convergence():
    b = wellposed_cubic(4, scale=0.1, seed=15)
    res = integrate(b.problem, FlowConfig(t_max=0.2, p_stop=0.0))
    with pytest.raises(ValueError):
        error_bound_check(res, 1.0)
