"""Shift continuation tests.

The minimal-norm target is always recomputed through the eigendecomposition
oracle (or carried by the problem bundle), never taken from the
continuation itself.
"""

from dataclasses import replace

import numpy as np
import pytest

from dsmflow import continuation, model
from dsmflow.continuation import (EPS_CONDITION_LIMIT, EXTRAPOLATION_DEGREE,
                                  EXTRAPOLATION_TOL, INNER_FLOW, ContinuationResult,
                                  ContinuationStop, EpsSchedule, NewtonFlowSolution,
                                  discrepancy_stop, solve_minimal_norm, solve_newton_flow,
                                  write_continuation_csv)
from dsmflow.errors import (FlowFailed, InnerSolveFailed, MonotonicityFailed,
                            NonPsdOperator, TMaxReachedError)
from dsmflow.flow import FlowConfig, FlowStatus
from dsmflow.hilbert import DenseOperator, norm
from dsmflow.model import DsmProblem, NonlinearMap, full_residual
from dsmflow.oracles import newton_oracle
from dsmflow.problems import (ill_conditioned, make_map, singular_canonical, singular_monotone,
                              wellposed_cubic)


# -- schedule ------------------------------------------------------------------


def test_schedule_geometric_until_count():
    s = EpsSchedule(eps0=1.0, ratio=0.5, count=3, floor=1e-8)
    assert s.values() == [1.0, 0.5, 0.25]


def test_schedule_clamps_to_floor_exactly():
    # powers of 0.5 are exact in binary, so equality here is literal
    s = EpsSchedule(eps0=1.0, ratio=0.5, count=20, floor=0.2)
    vals = s.values()
    assert vals == [1.0, 0.5, 0.25, 0.2]
    assert vals[-1] == 0.2  # the floor itself, not eps0 * ratio^k
    # a value exactly at the floor also clamps
    s2 = EpsSchedule(eps0=1.0, ratio=0.5, count=20, floor=0.5)
    assert s2.values() == [1.0, 0.5]


@pytest.mark.parametrize("kw", [
    {"eps0": 0.0}, {"eps0": -1.0}, {"ratio": 0.0}, {"ratio": 1.0},
    {"count": 0}, {"floor": 0.0}, {"floor": 2.0},
])
def test_schedule_validation(kw):
    with pytest.raises(ValueError):
        EpsSchedule(**kw)


# -- single certified solve -----------------------------------------------------


def test_newton_flow_solution_certificates_and_bound():
    b = wellposed_cubic(8, scale=0.1, seed=50)
    sol = solve_newton_flow(b.problem)
    assert isinstance(sol, NewtonFlowSolution)
    assert set(sol.certificates) == {"newton_bound", "trust_condition"}
    assert sol.certificates["trust_condition"].passed
    assert not sol.exploratory
    assert sol.flow.converged
    # the stated bound really covers the shifted-equation residual
    assert sol.residual_shifted <= sol.residual_bound
    # bitwise: the flow records the residual norm at its final point
    assert sol.residual_shifted == norm(full_residual(b.problem, sol.v))


def test_newton_flow_agrees_with_damped_newton():
    b = wellposed_cubic(9, scale=0.1, seed=51)
    sol = solve_newton_flow(b.problem)
    ref = newton_oracle(b.problem, tol=1e-12)
    assert norm(sol.v - ref.solution) <= 1e-7


def test_newton_flow_require_converged_toggle():
    b = wellposed_cubic(5, scale=0.1, seed=53)
    cfg = FlowConfig(t_max=0.5, p_stop=1e-12)
    with pytest.raises(FlowFailed):
        solve_newton_flow(b.problem, cfg)
    sol = solve_newton_flow(b.problem, cfg, require_converged=False)
    assert sol.flow.status is FlowStatus.T_MAX_REACHED
    assert sol.residual_shifted == norm(full_residual(b.problem, sol.v))
    # the bound covers a flow stopped above its target, from its final p
    assert sol.residual_shifted <= sol.residual_bound


def test_exploratory_flag_on_failed_trust():
    b = wellposed_cubic(5, scale=0.1, seed=54)
    tight = replace(b.problem, radius=1e-3)
    sol = solve_newton_flow(tight)
    assert sol.exploratory
    assert not sol.certificates["trust_condition"].passed
    # without enforcement the flow still converges and records the exit
    assert sol.flow.converged
    assert sol.flow.left_ball_at is not None


# -- minimal-norm continuation -----------------------------------------------------


def test_minimal_norm_requires_flags_and_monotonicity():
    rot = DenseOperator([[0.0, 1.0], [-1.0, 0.0]])
    g0 = NonlinearMap(lambda u: np.zeros(2), lambda u: np.zeros((2, 2)))
    p = DsmProblem(L=rot, g=g0, u0=np.zeros(2), radius=1.0)
    with pytest.raises(NonPsdOperator):
        solve_minimal_norm(p)
    anti = NonlinearMap(lambda u: -0.5 * u ** 3,
                        lambda u: np.diag(-1.5 * u ** 2))
    q = DsmProblem(L=DenseOperator.identity(2), g=anti,
                   u0=np.array([0.5, 0.5]), radius=2.0)
    with pytest.raises(MonotonicityFailed) as exc:
        solve_minimal_norm(q)
    assert exc.value.certificate.quantities["min_jacobian_eigenvalue"] < 0.0


def test_continuation_records_and_monotone_norms():
    b = singular_monotone(5, rank=3, seed=40)
    res = solve_minimal_norm(b.problem)
    assert isinstance(res, ContinuationResult)
    # the extrapolant settles before the default schedule's 20 levels run out;
    # the levels that ran are the schedule's first ones, solved as without it
    solutions, failed = _levels_without_handoff(b.problem)
    assert failed is None and len(solutions) == 20
    assert EXTRAPOLATION_DEGREE < len(res.records) < 20
    _assert_records_match(res.records, solutions[:len(res.records)])
    assert res.stop is ContinuationStop.SETTLED
    assert res.truncation_note == ""
    assert res.norms_monotone_ok
    norms = res.norms
    assert all(nb >= na - 1e-12 for na, nb in zip(norms, norms[1:]))
    assert res.eps_values == [0.5 ** k for k in range(len(res.records))]
    for r in res.records:
        assert r.residual_shifted <= r.residual_bound
    assert res.v_limit is res.v_extrapolated
    assert res.extrapolation_error_estimate <= EXTRAPOLATION_TOL * (1.0 + norm(res.v_limit))
    # the residual at the extrapolant is evaluated, not taken from a level
    assert res.residual_extrapolated == norm(full_residual(b.problem, res.v_limit))
    assert res.residual_extrapolated < res.records[-1].residual_full


def test_continuation_increments_contract():
    b = singular_monotone(5, rank=3, seed=40)
    res = solve_minimal_norm(b.problem)
    inc = res.increments
    assert inc[0] == 0.0 and len(inc) == len(res.records)
    # v_eps - v* = O(eps) under a ratio-0.5 schedule, so consecutive
    # increments contract by about that ratio
    for a, b_ in zip(inc[1:], inc[2:]):
        assert b_ <= 0.8 * a + 1e-12


def test_extrapolation_beats_last_iterate():
    b = singular_monotone(5, rank=3, seed=40)
    res = solve_minimal_norm(b.problem)
    vmin = b.min_norm_solution
    d_last = norm(res.records[-1].v - vmin)
    d_extra = norm(res.v_extrapolated - vmin)
    assert d_extra < 1e-4 * d_last
    # the settled estimate bounds the actual error within a factor of ten
    assert d_extra <= 10.0 * res.extrapolation_error_estimate


def test_inner_failure_carries_partial_records():
    b = singular_monotone(4, rank=2, seed=55)
    cfg = FlowConfig(t_max=0.01, p_stop=1e-12)
    with pytest.raises(InnerSolveFailed) as exc:
        solve_minimal_norm(b.problem, cfg=cfg)
    assert exc.value.index == 0
    assert exc.value.records == []


def test_condition_truncation_stops_continuation():
    # singular L with eigenvalues spread over decades: the shifted solution's
    # components 0.4 * lam / (lam + eps) turn over at eps = lam, so every
    # six-level window of a ratio-0.1 schedule sees one turn and the
    # extrapolant to eps = 0 never settles
    lam = np.array([1.0, 1e-3, 1e-6, 1e-9, 0.0])
    L = DenseOperator(np.diag(lam), self_adjoint=True, psd_claimed=True)
    g = make_map("constant", 5, {"offset": -0.4 * lam})
    problem = DsmProblem(L=L, g=g, u0=np.zeros(5), radius=4.0)
    # push the schedule far below the conditioning limit of a singular L
    sched = EpsSchedule(eps0=1.0, ratio=0.1, count=20, floor=1e-16)
    res = solve_minimal_norm(problem, schedule=sched)
    assert res.stop is ContinuationStop.CONDITION_LIMIT
    assert "condition estimate" in res.truncation_note
    assert len(res.records) > EXTRAPOLATION_DEGREE
    assert res.extrapolation_error_estimate > EXTRAPOLATION_TOL * (1.0 + norm(res.v_extrapolated))
    assert res.v_limit is res.records[-1].v
    # every completed level respected the limit
    lam_max = problem.L.operator_norm()
    for r in res.records:
        assert (lam_max + r.eps) / r.eps <= EPS_CONDITION_LIMIT * (1 + 1e-9)


def test_condition_limit_at_the_first_level_leaves_no_records():
    # the first shift already puts the singular L beyond the limit
    problem = singular_canonical().problem
    sched = EpsSchedule(eps0=1e-13, floor=1e-16)
    with pytest.raises(InnerSolveFailed, match="condition estimate") as exc:
        solve_minimal_norm(problem, schedule=sched)
    assert exc.value.index == 0 and exc.value.records == []


def _count_monotonicity_passes(monkeypatch):
    """Count ``monotonicity_certificate`` calls through both bindings the solver uses."""
    calls = []
    for module in (continuation, model):
        def counted(*args, real=module.monotonicity_certificate, name=module.__name__,
                    **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(module, "monotonicity_certificate", counted)
    return calls


def _levels_without_handoff(problem, seed=0):
    """The default schedule solved level by level, each level certifying ``g`` itself.

    Returns the solutions and the index of the level that failed, or None.
    """
    solutions = []
    warm = problem.u0
    for k, eps in enumerate(EpsSchedule().values()):
        try:
            sol = solve_newton_flow(replace(problem, epsilon=eps, u0=warm), INNER_FLOW,
                                    sample_seed=seed + k)
        except FlowFailed:
            return solutions, k
        solutions.append(sol)
        warm = sol.v
    return solutions, None


def _assert_records_match(records, solutions):
    assert len(records) == len(solutions)
    for rec, sol in zip(records, solutions):
        assert rec.v.tobytes() == sol.v.tobytes()
        assert rec.inner_steps == sol.flow.n_accepted
        assert rec.trust_passed is sol.certificates["trust_condition"].passed


@pytest.mark.parametrize("cubic", [0.0, 0.1])
def test_handed_certificate_leaves_the_levels_bitwise_unchanged(cubic):
    # the flows see the certificate only through the trust verdict; the
    # continuation stops once its extrapolant settles, so its records are
    # the first of the level-by-level solves (with cubic 0.1 those stall at
    # a deep shift, which the continuation does not reach)
    b = singular_monotone(10, 5, cubic_scale=cubic)
    solutions, _ = _levels_without_handoff(b.problem)
    res = solve_minimal_norm(b.problem)
    assert res.stop is ContinuationStop.SETTLED
    assert len(res.records) < len(solutions)
    _assert_records_match(res.records, solutions[:len(res.records)])


def test_handed_certificate_keeps_the_failure_level_and_partial_records():
    b = ill_conditioned(4)
    solutions, failed = _levels_without_handoff(b.problem)
    assert failed is not None and failed > 0
    with pytest.raises(InnerSolveFailed) as exc:
        solve_minimal_norm(b.problem)
    assert exc.value.index == failed
    _assert_records_match(exc.value.records, solutions)


@pytest.mark.parametrize("build, fails", [
    (lambda: singular_monotone(10, 5), False),
    (lambda: ill_conditioned(4), True),
], ids=["singular-monotone-converges", "ill-conditioned-fails-at-level-k"])
def test_continuation_certifies_monotonicity_once(build, fails, monkeypatch):
    problem = build().problem
    levels = []
    real_solve = continuation.solve_newton_flow

    def solve(*args, **kwargs):
        levels.append(kwargs["sample_seed"])
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(continuation, "solve_newton_flow", solve)
    calls = _count_monotonicity_passes(monkeypatch)
    if fails:
        with pytest.raises(InnerSolveFailed) as exc:
            solve_minimal_norm(problem)
        assert len(levels) == exc.value.index + 1 > 1
    else:
        res = solve_minimal_norm(problem)
        assert res.stop is ContinuationStop.SETTLED
        assert len(res.records) == len(levels) > EXTRAPOLATION_DEGREE
    assert calls == ["dsmflow.continuation"]


def test_monotonicity_failure_precedes_every_level_solve(monkeypatch):
    anti = NonlinearMap(lambda u: -0.5 * u ** 3, lambda u: np.diag(-1.5 * u ** 2))
    q = DsmProblem(L=DenseOperator.identity(2), g=anti, u0=np.array([0.5, 0.5]),
                   radius=2.0)
    solved = []
    monkeypatch.setattr(continuation, "solve_newton_flow",
                        lambda *args, **kwargs: solved.append(args))
    calls = _count_monotonicity_passes(monkeypatch)
    with pytest.raises(MonotonicityFailed):
        solve_minimal_norm(q)
    assert solved == []
    assert calls == ["dsmflow.continuation"]


def test_standalone_solve_certifies_its_own_ball(monkeypatch):
    calls = _count_monotonicity_passes(monkeypatch)
    sol = solve_newton_flow(singular_monotone(10, 5).problem.with_epsilon(0.5))
    assert calls == ["dsmflow.model"]
    assert sol.certificates["newton_bound"].quantities["n_samples"] == 65.0


def test_continuation_draws_its_ball_samples_once(monkeypatch):
    # every level proves its Newton bound with the handed-in monotonicity
    # certificate, so only that certificate's draw samples the ball
    problem = singular_monotone(10, 5, cubic_scale=0.1).problem
    draws = []
    for module in (continuation, model):
        def counted(*args, real=module.ball_samples, name=module.__name__, **kwargs):
            draws.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(module, "ball_samples", counted)
    res = solve_minimal_norm(problem)
    assert len(res.records) == 9
    assert draws == ["dsmflow.continuation"]


# -- discrepancy stop -----------------------------------------------------------------


def test_discrepancy_stop_window_and_ordering():
    b = wellposed_cubic(6, scale=0.1, seed=41)
    ts = []
    for delta in (1e-2, 1e-3, 1e-4):
        t, u = discrepancy_stop(b.problem, delta)
        r = norm(full_residual(b.problem, u))
        assert delta <= r <= 1.5 * delta * (1 + 1e-9)
        ts.append(t)
    assert ts[0] < ts[1] < ts[2]


def test_discrepancy_stop_does_not_depend_on_stride():
    # stride 2.0 shrinks the residual by e^2 between records, far past the
    # factor-1.5 window; the stop time comes from the decay law, not from
    # the recorded points, so the stride changes nothing
    b = wellposed_cubic(6, scale=0.1, seed=41)
    cfg = FlowConfig(t_max=30.0, sample_stride=2.0, p_stop=0.0)
    delta = 1e-3
    t, u = discrepancy_stop(b.problem, delta, cfg)
    r = norm(full_residual(b.problem, u))
    assert delta <= r <= 1.5 * delta * (1 + 1e-9)
    t_fine, u_fine = discrepancy_stop(b.problem, delta,
                                      replace(cfg, sample_stride=0.1))
    assert t == t_fine and np.array_equal(u, u_fine)


def test_discrepancy_stop_time_is_the_decay_law_time():
    b = wellposed_cubic(6, scale=0.1, seed=41)
    r0 = norm(full_residual(b.problem, b.problem.u0))
    for delta in (1e-2, 1e-4):
        t, _ = discrepancy_stop(b.problem, delta)
        assert abs(t - np.log(r0 / (np.sqrt(1.5) * delta))) <= 1e-12


def test_discrepancy_stop_past_t_max_raises_before_integrating(monkeypatch):
    def no_integrate(*args, **kwargs):
        raise AssertionError("integrate called")

    monkeypatch.setattr(continuation, "integrate", no_integrate)
    b = wellposed_cubic(4, scale=0.1, seed=57)
    with pytest.raises(TMaxReachedError):
        discrepancy_stop(b.problem, 1e-6, FlowConfig(t_max=0.5))


def test_discrepancy_stop_missed_window_raises_with_result(monkeypatch):
    # loose tolerances put the end point off the decay law by more than
    # the window's relative half-width of 5e-5
    monkeypatch.setattr(continuation, "DISCREPANCY_FACTOR", 1.0001)
    b = wellposed_cubic(6, seed=41)
    r0 = norm(full_residual(b.problem, b.problem.u0))
    delta = 1e-3 * r0
    with pytest.raises(FlowFailed) as exc:
        discrepancy_stop(b.problem, delta, FlowConfig(rel_tol=1e-3))
    result = exc.value.result
    r = result.trajectory[-1].residual_F
    assert not delta <= r <= 1.0001 * delta
    assert result.t_final == pytest.approx(np.log(r0 / (np.sqrt(1.0001) * delta)),
                                           abs=1e-12)


def test_discrepancy_stop_ignores_an_absolute_stop():
    # p_stop_abs = 1e-9 lies above the window [1e-10, 1.5e-10]; the run must
    # still go on to t* and not stop there
    b = wellposed_cubic(8, seed=3)
    delta = 1e-10
    cfg = FlowConfig(rel_tol=1e-10, p_stop=1e-10, p_stop_abs=1e-9)
    r0 = norm(full_residual(b.problem, b.problem.u0))
    t, u = discrepancy_stop(b.problem, delta, cfg)
    assert t == pytest.approx(np.log(r0 / (np.sqrt(1.5) * delta)), abs=1e-12)
    r = norm(full_residual(b.problem, u))
    assert delta <= r <= 1.5 * delta
    t_plain, u_plain = discrepancy_stop(b.problem, delta, replace(cfg, p_stop_abs=0.0))
    assert t == t_plain and np.array_equal(u, u_plain)


def test_discrepancy_stop_trivial_and_failure_cases():
    b = wellposed_cubic(4, scale=0.1, seed=57)
    r0 = norm(full_residual(b.problem, b.problem.u0))
    t, u = discrepancy_stop(b.problem, r0)
    assert t == 0.0 and np.array_equal(u, b.problem.u0)
    with pytest.raises(TMaxReachedError):
        discrepancy_stop(b.problem, 1e-6, FlowConfig(t_max=0.5, p_stop=0.0))
    with pytest.raises(ValueError):
        discrepancy_stop(b.problem, 0.0)
    # NaN is refused with its own message, not later as a NaN t_max
    with pytest.raises(ValueError, match="^noise level must be positive, got nan$"):
        discrepancy_stop(b.problem, float("nan"))


# -- serialization -------------------------------------------------------------------


def test_continuation_csv_deterministic(tmp_path):
    b = singular_monotone(4, rank=2, seed=58)
    res = solve_minimal_norm(b.problem, schedule=EpsSchedule(count=5))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_continuation_csv(res, p1)
    write_continuation_csv(res, p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == "eps,norm_v,residual_full,increment,inner_steps"
    assert len(lines) == 1 + len(res.records)
    assert float(lines[1].split(",")[0]) == 1.0
