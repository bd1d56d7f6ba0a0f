"""Flow integrator tests.

The strongest check here is a problem with constant nonlinearity: the
flow equation becomes linear with the closed-form trajectory
``u(t) = u* + (u0 - u*) exp(-t)``, so every recorded point can be
compared against an exact reference that shares no code with the
integrator.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from dsmflow.errors import (DimensionMismatch, FlowFailed, SingularLinearization,
                            SingularOperator)
from dsmflow.flow import (FlowConfig, FlowResult, FlowStatus, decay_report,
                          error_bound_check, integrate, write_trajectory_csv)
from dsmflow.hilbert import DenseOperator, norm
from dsmflow.model import (Certificate, CertificateKind, DsmProblem,
                           NonlinearMap, ball_samples, check_trust_condition,
                           estimate_newton_bound, full_residual,
                           linearized_operator, newton_velocity,
                           preconditioned_residual)
from dsmflow.problems import ill_conditioned, singular_monotone, wellposed_cubic


def constant_map(c):
    c = np.asarray(c, dtype=float)
    return NonlinearMap(lambda u: c.copy(), lambda u: np.zeros((c.size, c.size)),
                        name="constant", params={"offset": list(c)})


def linear_problem(dim=3, seed=0, radius=50.0):
    """L = I, g = c: exact flow trajectory u* + (u0 - u*) e^{-t}, u* = -c."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(dim)
    u0 = rng.standard_normal(dim)
    L = DenseOperator.identity(dim)
    return DsmProblem(L=L, g=constant_map(c), u0=u0, radius=radius), -c


# -- configuration -------------------------------------------------------------


@pytest.mark.parametrize("kw", [
    {"t_max": 0.0}, {"t_max": np.inf}, {"rel_tol": 0.0}, {"rel_tol": 2.0},
    {"p_stop": 1.0}, {"p_stop": -1e-3},
    {"p_stop_abs": -1.0}, {"max_steps": 0}, {"sample_stride": 0.0},
])
def test_config_validation(kw):
    with pytest.raises(ValueError):
        FlowConfig(**kw)


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
    p = DsmProblem(L=DenseOperator.identity(n), g=g, u0=np.ones(n), radius=1.0)
    with pytest.raises(SingularLinearization):
        newton_velocity(p, p.u0)


def test_phi_tiny_pivot_of_shifted_operator_alone_is_not_refused():
    # L + g' has a 1e-10 pivot, but I + L^{-1} g' = I is perfectly invertible
    L = DenseOperator.diagonal([1.0, 1e-10])
    p = DsmProblem(L=L, g=constant_map([0.3, -2e-10]), u0=np.array([0.5, 1.0]),
                   radius=10.0)
    f = preconditioned_residual(p, p.u0)
    assert np.linalg.norm(newton_velocity(p, p.u0)[0] + f) <= 1e-12 * np.linalg.norm(f)


def test_phi_singular_cases_raise_no_warning():
    # an exactly singular L + g' is refused, a tiny pivot falls back, and
    # neither goes through a warning
    n = 3
    g = NonlinearMap(lambda u: -u, lambda u: -np.eye(n), name="negate")
    refused = DsmProblem(L=DenseOperator.identity(n), g=g, u0=np.ones(n), radius=1.0)
    fallback = DsmProblem(L=DenseOperator.diagonal([1.0, 1e-10]),
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
    """dim 2, u0 = 0, g = u^3 near u0 and ``fn``/``jac`` where u[0] > 2."""
    def g(u):
        return fn(u) if fn is not None and u[0] > 2.0 else u ** 3

    def g_jac(u):
        return jac(u) if jac is not None and u[0] > 2.0 else np.diag(3.0 * u ** 2)

    L = DenseOperator.identity(2) if L is None else L
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


@pytest.mark.parametrize("which", ["map", "jacobian"])
def test_stage_rejects_wrong_output_shape(which):
    if which == "map":
        p = misbehaving_problem(fn=lambda u: np.zeros(3))
    else:
        p = misbehaving_problem(jac=lambda u: np.zeros((2, 3)))
    with pytest.raises(DimensionMismatch):
        newton_velocity(p, _FAR)


def test_stage_refuses_singular_operator_without_shift():
    p = misbehaving_problem(L=DenseOperator.diagonal([1.0, 0.0]))
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
    L = DenseOperator.identity(2)
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


def test_step_budget_exhaustion_raises_with_partial_result():
    b = wellposed_cubic(4, scale=0.1, seed=12)
    with pytest.raises(FlowFailed) as exc:
        integrate(b.problem, FlowConfig(max_steps=3, p_stop=0.0))
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
    problem = DsmProblem(L=DenseOperator.identity(2), g=constant_map([-1.0, 0.0]),
                         u0=np.zeros(2), radius=0.2)
    fake = Certificate(kind=CertificateKind.TRUST_CONDITION, passed=True, quantities={})
    return problem, FlowConfig(t_max=10.0), fake


def _wellposed(**cfg):
    return wellposed_cubic(4, scale=0.1, seed=12).problem, FlowConfig(**cfg), None


@pytest.mark.parametrize("make, status", [
    (_warm_started, FlowStatus.RESIDUAL_CONVERGED),
    (lambda: (ill_conditioned(10).problem, None, None), FlowStatus.STEP_FAILURE),
    (_ball_exit, FlowStatus.LEFT_BALL),
    (_wellposed, FlowStatus.RESIDUAL_CONVERGED),
    (lambda: _wellposed(t_max=0.5, p_stop=0.0), FlowStatus.T_MAX_REACHED),
    (lambda: _wellposed(max_steps=3, p_stop=0.0), FlowStatus.STEP_FAILURE),
], ids=["start", "step-collapse", "left-ball", "converged", "t-max", "step-budget"])
def test_every_exit_records_the_final_state(make, status):
    problem, cfg, trust = make()
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


# -- trust ball -----------------------------------------------------------------------


def test_left_ball_is_hard_failure_only_under_passed_trust():
    # target sits 1.0 away but the ball has radius 0.2, so the flow must
    # exit; a (deliberately wrong) passed certificate makes that a hard stop
    L = DenseOperator.identity(2)
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


# -- serialization ------------------------------------------------------------------------


def test_trajectory_csv_deterministic_and_parseable(tmp_path):
    b = wellposed_cubic(4, scale=0.1, seed=16)
    res = integrate(b.problem, FlowConfig(t_max=2.0, p_stop=0.0))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trajectory_csv(res, p1)
    write_trajectory_csv(res, p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == "t,p,residual_F,u_norm,step"
    assert len(lines) == 1 + len(res.trajectory)
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == 0.0 and first[1] == res.p0
    # 17 significant digits round-trip float64 exactly
    last = [float(x) for x in lines[-1].split(",")]
    assert last[1] == res.p_final
