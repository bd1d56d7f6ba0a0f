"""End-to-end acceptance checks, one test per numbered criterion.

Each test runs at its stated tolerance against an independent reference:
the exponential decay law, a damped-Newton oracle, the eigendecomposition
pseudoinverse, closed forms where they exist.  Quantities are printed so
a failure shows its margin.  Run with ``pytest -v tests/test_acceptance.py``
for one pass/fail line per criterion.
"""

import time
from dataclasses import replace

import numpy as np
import scipy.linalg

from dsmflow.continuation import (INNER_FLOW, ContinuationStop, EpsSchedule,
                                  discrepancy_stop, solve_minimal_norm, solve_newton_flow)
from dsmflow.flow import FlowConfig, decay_report, integrate
from dsmflow.hilbert import DenseOperator, norm
from dsmflow.model import (DsmProblem, ball_samples, check_resolvent_bound,
                           estimate_newton_bound, full_residual)
from dsmflow.oracles import newton_oracle, pseudoinverse_min_norm
from dsmflow.problems import (make_map, singular_canonical, singular_monotone,
                              wellposed_cubic)
from evidence import (convexity_closedness_suite, error_bound_check, fd_jacobian_check,
                      membership_probe)

_MODULE_START = time.perf_counter()


def test_criterion_01_exponential_decay_and_fitted_rate():
    # |p(t) - p0 e^{-t}| / p0 <= 1e-6 over t in [0, 20] at rel_tol 1e-8,
    # fitted log-slope within 1e-5 of -1, in under 5 seconds
    t0 = time.perf_counter()
    b = wellposed_cubic(10, scale=0.1, seed=42)
    cfg = FlowConfig(t_max=20.0, rel_tol=1e-8, p_stop=0.0)
    res = integrate(b.problem, cfg)
    p0, deviation, rate = decay_report(res)
    elapsed = time.perf_counter() - t0
    print(f"criterion 1: deviation {deviation:.3e} (budget 1e-6), "
          f"rate {rate:.9f} (budget 1e-5 around -1), {elapsed:.2f}s")
    assert res.t_final >= 20.0 - 1e-9
    assert deviation <= 1e-6
    assert -1.0 - 1e-5 <= rate <= -1.0 + 1e-5
    assert elapsed < 5.0


def test_criterion_02_posthoc_error_bounds_from_sampled_m1():
    # both distance bounds hold with m1 estimated from 200 ball samples,
    # in under 10 seconds
    t0 = time.perf_counter()
    b = wellposed_cubic(10, scale=0.1, seed=42)
    samples = ball_samples(b.problem.u0, b.problem.radius, 200, seed=0)
    m1 = estimate_newton_bound(b.problem, samples).quantities["bound"]
    res = integrate(b.problem)
    ok, max_ratio = error_bound_check(res, m1)
    elapsed = time.perf_counter() - t0
    print(f"criterion 2: bounds ok {ok}, worst ratio {max_ratio:.4f}, "
          f"m1 {m1:.4f}, {elapsed:.2f}s")
    assert res.converged
    assert ok
    assert max_ratio <= 1.0
    assert elapsed < 10.0


def test_criterion_03_trust_ball_never_left_over_seeds():
    # 20 seeded well-posed draws: trust certificate passes and the
    # trajectory stays inside the ball on every one
    exits = 0
    for seed in range(20):
        b = wellposed_cubic(10, scale=0.1, seed=seed)
        sol = solve_newton_flow(b.problem)
        assert sol.certificates["trust_condition"].passed, f"seed {seed}"
        assert sol.flow.converged, f"seed {seed}"
        if sol.flow.left_ball_at is not None:
            exits += 1
    print(f"criterion 3: ball exits {exits}/20 (budget 0)")
    assert exits == 0


def test_criterion_04_flow_agrees_with_newton_oracle_dims_1_to_50():
    # the damped-Newton route lands within 1e-7 at every dimension; it shares
    # the preconditioned residual with the solver, not its stepping
    worst = 0.0
    for dim in range(1, 51):
        b = wellposed_cubic(dim, scale=0.1, seed=42)
        sol = solve_newton_flow(b.problem)
        ref = newton_oracle(b.problem, tol=1e-12)
        worst = max(worst, norm(sol.v - ref.solution))
    print(f"criterion 4: worst |flow - newton| {worst:.3e} (budget 1e-7)")
    assert worst <= 1e-7


def test_criterion_05_shifted_norms_below_pseudoinverse_norm():
    # every shifted solution norm stays below the minimal-norm solution's,
    # singular dim 5 rank 3, over the default 20-step schedule solved level
    # by level; the continuation stops once its extrapolant settles, and
    # its records are bitwise the first of those levels
    b = singular_monotone(5, rank=3, seed=42)
    result = solve_minimal_norm(b.problem)
    rhs = -b.problem.g(np.zeros(5))
    pinv_norm = norm(pseudoinverse_min_norm(b.problem.L, rhs))
    levels = []
    warm = b.problem.u0
    for eps in EpsSchedule().values():
        levels.append(solve_newton_flow(replace(b.problem, epsilon=eps, u0=warm),
                                        INNER_FLOW).v)
        warm = levels[-1]
    excess = max(norm(v) for v in levels) - pinv_norm
    print(f"criterion 5: {len(levels)} levels, max norm excess {excess:.3e} "
          f"(budget 1e-8); continuation stopped after {len(result.records)}")
    assert len(levels) == 20
    assert excess <= 1e-8
    assert result.stop is ContinuationStop.SETTLED and len(result.records) < len(levels)
    assert all(r.v.tobytes() == v.tobytes() for r, v in zip(result.records, levels))
    assert max(r.norm_v for r in result.records) - pinv_norm <= 1e-8
    assert result.norms_monotone_ok


def test_criterion_06_continuation_limit_hits_minimal_norm_solution():
    # the settled extrapolant to eps = 0 lands within 1e-8 of the
    # pseudoinverse solution, also on in-range cubic configs whose deep
    # levels (eps below 1e-5) stall at the inner flow's absolute stop; on
    # diag(1, 0) the shifted solutions match the closed form 1/(1+eps) to
    # 1e-9 at every level
    configs = [(5, 3, 0.0, 42)] + [(10, 5, 0.1, seed) for seed in (0, 1, 2, 42)] + [
        (20, 10, 0.1, 0), (40, 20, 0.1, 0)]
    dists = []
    for dim, rank, cubic, seed in configs:
        b = singular_monotone(dim, rank=rank, seed=seed, cubic_scale=cubic)
        result = solve_minimal_norm(b.problem)
        # g depends on x only through its range part
        rhs = -b.problem.g(b.min_norm_solution)
        vmin = pseudoinverse_min_norm(b.problem.L, rhs)
        assert result.stop is ContinuationStop.SETTLED
        dists.append(norm(result.v_limit - vmin))
    dist = max(dists)

    canon = singular_canonical()
    canon_result = solve_minimal_norm(canon.problem)
    worst_defect = max(
        norm(r.v - np.array([1.0 / (1.0 + r.eps), 0.0]))
        for r in canon_result.records)
    canon_dist = norm(canon_result.v_limit - np.array([1.0, 0.0]))
    print(f"criterion 6: worst limit distance {dist:.3e} over {len(configs)} configs, "
          f"canonical {canon_dist:.3e} (budget 1e-8), "
          f"canonical worst defect {worst_defect:.3e} (budget 1e-9)")
    assert dist <= 1e-8
    assert canon_dist <= 1e-8
    assert worst_defect <= 1e-9


def test_criterion_07_resolvent_bound_on_hilbert_matrices():
    # |(L + eps)^{-1}| <= 1/eps + 1e-9 for Hilbert matrices up to dim 10
    # over shifts 1 down to 1e-6
    eps_grid = [10.0 ** -k for k in range(7)]
    worst_excess = -np.inf
    for dim in range(1, 11):
        L = DenseOperator(scipy.linalg.hilbert(dim), self_adjoint=True,
                          psd_claimed=True)
        cert = check_resolvent_bound(L)
        assert cert.passed, f"dim {dim}: {cert.quantities}"
        for eps in eps_grid:
            resolvent = 1.0 / L.shifted(eps).smallest_singular_value()
            worst_excess = max(worst_excess, resolvent - (1.0 / eps + 1e-9))
    print(f"criterion 7: worst resolvent excess {worst_excess:.3e} (budget 0)")
    assert worst_excess <= 0.0


def test_criterion_08_solution_set_geometry_and_membership():
    # 100/100 convexity and closedness trials; membership accepts exact
    # solutions and rejects 20 seeded non-solutions at distance >= 0.1
    b = singular_monotone(5, rank=3, seed=42)
    rhs = -b.problem.g(np.zeros(5))
    suite = convexity_closedness_suite(b.problem.L, rhs, trials=100, seed=0)
    assert suite.all_passed
    assert suite.max_residual <= 1e-9

    assert membership_probe(b.problem, b.solution, seed=0).member
    assert membership_probe(b.problem, b.min_norm_solution, seed=1).member

    rng = np.random.default_rng(3)
    rejected = 0
    for k in range(20):
        d = rng.standard_normal(5)
        d -= b.nullspace @ (b.nullspace.T @ d)  # keep it a genuine non-solution
        d *= 0.35 / norm(d)
        assert norm(d) >= 0.1
        rep = membership_probe(b.problem, b.solution + d, seed=20 + k)
        rejected += not rep.member
    print(f"criterion 8: {suite.trials} geometry trials passed "
          f"(max residual {suite.max_residual:.2e}), "
          f"non-solutions rejected {rejected}/20")
    assert rejected == 20


def test_criterion_09_jacobians_match_finite_differences():
    # every builtin nonlinearity agrees with central differences to 1e-6
    # on 10 ball points
    basis = np.eye(4)[:, :2]
    matrix = np.array([[1.0, 0.5, 0.0, 0.0], [0.5, 2.0, 0.0, 0.0],
                       [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.5]])
    maps = [
        make_map("zero", 4),
        make_map("constant", 4, {"offset": np.array([0.3, -1.0, 0.2, 0.0])}),
        make_map("linear", 4, {"matrix": matrix}),
        make_map("cubic", 4, {"scale": 0.1, "offset": np.zeros(4)}),
        make_map("range_cubic", 4, {"scale": 0.2, "basis": basis,
                                    "offset": np.zeros(4)}),
    ]
    points = ball_samples(np.zeros(4), 1.5, 10, seed=9)[1:]
    worst = 0.0
    for g in maps:
        for u in points:
            worst = max(worst, fd_jacobian_check(g, u))
    print(f"criterion 9: worst Jacobian defect {worst:.3e} (budget 1e-6) "
          f"across {len(maps)} maps x {len(points)} points")
    assert worst <= 1e-6


def test_criterion_10_discrepancy_stop_tracks_noise_level():
    # perturbing the data at level delta, the returned residual lies in
    # [delta, 1.5*delta] and the stopping time grows as delta shrinks
    base = wellposed_cubic(6, scale=0.0, seed=11)
    c0 = base.problem.g.params["offset"]
    rng = np.random.default_rng(5)
    times = []
    residuals = []
    for delta in (1e-2, 1e-3, 1e-4):
        e = rng.standard_normal(6)
        e *= delta / norm(e)
        g = make_map("cubic", 6, {"scale": 0.0, "offset": c0 + e})
        noisy = DsmProblem(base.problem.L, g, base.problem.u0,
                           base.problem.radius)
        t, u = discrepancy_stop(noisy, delta)
        r = norm(full_residual(noisy, u))
        assert delta <= r <= 1.5 * delta * (1.0 + 1e-6), (delta, r)
        times.append(t)
        residuals.append(r)
    print(f"criterion 10: residuals {[f'{r:.3e}' for r in residuals]}, "
          f"stop times {[f'{t:.2f}' for t in times]}")
    assert times[0] < times[1] < times[2]


def test_criterion_suite_runtime_budget():
    # the acceptance module must finish inside two minutes; this runs last
    # in file order and sees the cumulative elapsed time
    elapsed = time.perf_counter() - _MODULE_START
    print(f"acceptance suite elapsed {elapsed:.1f}s (budget 120s)")
    assert elapsed < 120.0
