"""Problem model and certificate tests.

The linearized operator is cross-checked against central differences of
the preconditioned residual, and the sampled invertibility bound against
a direct per-sample SVD, so each certified quantity has an independent
route in this file.
"""

from dataclasses import replace

import numpy as np
import pytest

from dsmflow import model
from dsmflow.continuation import solve_newton_flow
from dsmflow.errors import (DimensionMismatch, NotApplicable, NotSymmetric,
                            SingularLinearization, SingularOperator)
from dsmflow.flow import integrate
from dsmflow.hilbert import DenseOperator, norm
from dsmflow.model import (CertificateKind, DsmProblem, NonlinearMap,
                           ball_samples, certify_newton_bound,
                           check_resolvent_bound, check_sector,
                           check_trust_condition, estimate_newton_bound,
                           fd_jacobian_check, full_residual,
                           linearized_operator, monotonicity_certificate,
                           preconditioned_residual, solve_linearized)
from dsmflow.problems import (ill_conditioned, sector_blocks, singular_canonical,
                              singular_monotone, wellposed_cubic)


def cubic_map(scale=0.1):
    def fn(u):
        return scale * u ** 3
    def jac(u):
        return np.diag(3.0 * scale * u ** 2)
    return NonlinearMap(fn, jac, name="cubic", params={"scale": scale})


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


def test_problem_validates_radius_epsilon_and_probes_map():
    L = DenseOperator.identity(2)
    g = cubic_map()
    with pytest.raises(ValueError):
        DsmProblem(L=L, g=g, u0=np.zeros(2), radius=0.0)
    with pytest.raises(ValueError):
        DsmProblem(L=L, g=g, u0=np.zeros(2), radius=1.0, epsilon=-0.1)
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
    L = DenseOperator.diagonal([1.0, 0.0])
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
    # a NaN radius drew [nan nan], an infinite one [inf -inf]
    for radius in (np.nan, np.inf):
        with pytest.raises(ValueError, match="ball radius must be finite and positive"):
            ball_samples(np.zeros(2), radius, 2)


# -- invertibility bound -------------------------------------------------------


def test_newton_bound_matches_direct_svd_route():
    p = small_problem(eps=0.2, seed=19)
    samples = ball_samples(p.u0, p.radius, 12, seed=3)
    cert = estimate_newton_bound(p, samples)
    assert cert.kind is CertificateKind.INVERTIBLE and cert.passed
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
    p.shifted.singular_values()   # cache A's own SVD before counting
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
    pytest.param(lambda: _cloud(sector_blocks(8, epsilon=0.1).problem),
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
    p = DsmProblem(L=DenseOperator.identity(2), g=g, u0=np.zeros(2), radius=1.0)
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
    sing = DsmProblem(L=DenseOperator.identity(3), g=neg, u0=np.zeros(3), radius=1.0)
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
    samples = ball_samples(p.u0, p.radius, 64, seed=0)
    bound_cert, trust = model._proven_bound(p, samples, None)
    assert bound_cert.detail.startswith("route: proof")
    assert trust.detail.startswith("route: proof")
    q = bound_cert.quantities
    assert set(q) == {"bound", "worst_sigma_min", "n_samples"}
    assert q["worst_sigma_min"] == 1.0 / q["bound"] and q["n_samples"] == len(samples)
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
    # the route takes the proof exactly when its distance fits in the radius
    route = certify_newton_bound(p, samples)
    if trust.passed:
        assert route == (bound_cert, trust)
    else:
        assert route == (sampled, check_trust_condition(p, sampled.quantities["bound"]))


def _sector():
    return sector_blocks(6).problem


def _non_monotone():
    return replace(small_problem(seed=41), g=cubic_map(-0.05), radius=1.0)


def _nearly_symmetric():
    # symmetric within SELF_ADJOINT_RTOL, so the flags verify, but not exactly
    p = small_problem(seed=42)
    A = p.L.entries.copy()
    A[0, 1] += 1e-13 * p.L.operator_norm()
    L = DenseOperator(A, self_adjoint=True, psd_claimed=True)
    assert not np.array_equal(L.entries, L.entries.T)
    return replace(p, L=L)


def _proof_too_loose():
    # g' = 0 makes T = I, but |f0|_A / sqrt(lambda_min(A)) is about 32 |f0| > radius
    return singular_canonical().problem.with_epsilon(1e-3)


@pytest.mark.parametrize("make", [
    pytest.param(_sector, id="sector-blocks"),
    pytest.param(_proof_too_loose, id="distance-bound-exceeds-radius"),
    pytest.param(_non_monotone, id="psd-L-non-monotone-g"),
    pytest.param(_nearly_symmetric, id="symmetric-within-rtol"),
])
def test_route_falls_back_to_the_sampled_bound(monkeypatch, make):
    p = make()
    samples = ball_samples(p.u0, p.radius, 16, seed=0)
    calls = []
    sampled = model.estimate_newton_bound
    monkeypatch.setattr(model, "estimate_newton_bound",
                        lambda *a, **k: calls.append(1) or sampled(*a, **k))
    bound_cert, trust = certify_newton_bound(p, samples, design="d")
    assert len(calls) == 1
    ref = sampled(p, samples, design="d")
    assert bound_cert == ref
    assert trust == check_trust_condition(p, ref.quantities["bound"])


def test_route_falls_back_for_unshifted_singular_L(monkeypatch):
    p = singular_monotone(6, rank=3, cubic_scale=0.1).problem
    assert p.epsilon == 0.0
    samples = ball_samples(p.u0, p.radius, 8, seed=0)
    calls = []
    sampled = model.estimate_newton_bound
    monkeypatch.setattr(model, "estimate_newton_bound",
                        lambda *a, **k: calls.append(1) or sampled(*a, **k))
    with pytest.raises(SingularOperator):
        certify_newton_bound(p, samples)
    assert len(calls) == 1
    with pytest.raises(SingularOperator):
        sampled(p, samples)


def test_route_applies_delta_for_a_slightly_negative_jacobian():
    # sym(g') has eigenvalue -5e-11, inside the monotonicity tolerance, and
    # lambda_min(A) = 1e-8, so delta = 5e-3 widens both bounds by 1/(1 - delta)
    eps, neg = 1e-8, -5e-11
    L = DenseOperator.diagonal([0.0, 1.0, 2.0])
    G = np.diag([neg, 0.5, 0.0])
    # no offset on the nullspace, so f0 has none and the distance fits the radius
    c = np.array([0.0, -0.2, 0.1])
    g = NonlinearMap(lambda u: G @ u + c, lambda u: G.copy())
    p = DsmProblem(L=L, g=g, u0=np.zeros(3), radius=1e4, epsilon=eps)
    samples = ball_samples(p.u0, p.radius, 16, seed=0)
    mono = monotonicity_certificate(g, samples)
    assert mono.passed and mono.quantities["min_jacobian_eigenvalue"] < 0.0
    bound_cert, trust = certify_newton_bound(p, samples)
    delta = -neg / eps
    assert bound_cert.quantities["bound"] == pytest.approx(
        np.sqrt((2.0 + eps) / eps) / (1.0 - delta), rel=1e-6)
    f0 = preconditioned_residual(p, p.u0)
    f0_A = np.sqrt(f0 @ (p.shifted.entries @ f0))
    distance = trust.quantities["radius"] - trust.quantities["margin"]
    assert distance == pytest.approx(f0_A / (np.sqrt(eps) * (1.0 - delta)), rel=1e-6)
    assert bound_cert.quantities["bound"] >= estimate_newton_bound(p, samples).quantities["bound"]
    # a certificate handed in replaces the route's own monotonicity pass
    handed = monotonicity_certificate(g, samples[:4])
    assert certify_newton_bound(p, samples, handed)[0].quantities["n_samples"] == 4.0


def test_build_hands_its_monotone_g_certificate_to_the_route():
    b = wellposed_cubic(6, seed=3)
    n_mono = b.certificates["monotone_g"].quantities["n_samples"]
    assert b.certificates["invertible_bound"].quantities["n_samples"] == n_mono == 33.0
    # a solve certifies its own 64 ball samples plus the centre
    sol = solve_newton_flow(b.problem)
    assert sol.certificates["invertible"].quantities["n_samples"] == 65.0
    assert sol.certificates["invertible"].detail.startswith("route: proof")


# -- resolvent bound -------------------------------------------------------------


def test_resolvent_bound_spd_known_values():
    L = DenseOperator.diagonal([2.0, 0.5, 0.0])
    grid = [10.0 ** (-k) for k in range(0, 7)]
    cert = check_resolvent_bound(L, grid)
    assert cert.passed
    assert cert.quantities["sin_delta"] == 1.0
    assert cert.quantities["n_eps"] == 7
    # sigma_min(L + eps) = eps exactly for this diagonal, so the ratio
    # sits at 1 up to rounding
    assert cert.quantities["worst_ratio"] == pytest.approx(1.0, abs=1e-6)


def test_resolvent_bound_needs_sector_for_general_operators():
    rot = DenseOperator([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(NotApplicable):
        check_resolvent_bound(rot, [0.1])
    cert = check_resolvent_bound(rot, [0.1, 0.01], sector_delta=np.pi / 2)
    # sigma_min(rot + eps) = sqrt(1 + eps^2) >> eps
    assert cert.passed


def test_resolvent_bound_detects_violation():
    # eigenvalue -0.5 makes |(L + 0.6)^{-1}| = 10 exceed 1/0.6
    L = DenseOperator([[-0.5]], self_adjoint=True)
    cert = check_resolvent_bound(L, [0.6], sector_delta=np.pi / 2)
    assert not cert.passed
    with pytest.raises(ValueError):
        check_resolvent_bound(L, [])
    with pytest.raises(ValueError):
        check_resolvent_bound(L, [-0.1], sector_delta=np.pi / 2)
    with pytest.raises(ValueError):
        check_resolvent_bound(L, [0.1], sector_delta=3.0)


def test_resolvent_bound_fails_when_a_shift_hits_an_eigenvalue():
    # L + 0.5 I = 0: a failed certificate, not a ZeroDivisionError
    L = DenseOperator([[-0.5]], self_adjoint=True)
    cert = check_resolvent_bound(L, [0.5], sector_delta=np.pi / 2)
    assert not cert.passed
    assert cert.quantities["worst_ratio"] == float("inf")
    assert cert.quantities["min_margin"] == -float("inf")


def test_resolvent_bound_svd_branch_fails_on_a_singular_shift():
    # not self-adjoint, so sigma_min comes from the SVD of L + eps*I, which
    # is [[0, 1], [0, 0]] at eps = 0.5: exactly singular
    L = DenseOperator([[-0.5, 1.0], [0.0, -0.5]])
    cert = check_resolvent_bound(L, [1.0, 0.5], sector_delta=np.pi / 3)
    assert not cert.passed
    assert cert.quantities["worst_ratio"] == float("inf")
    assert cert.quantities["sin_delta"] == pytest.approx(np.sin(np.pi / 3))


# -- sector check ------------------------------------------------------------------


def test_sector_self_adjoint_branch():
    ok = check_sector(DenseOperator.diagonal([1.0, 0.0, 2.0]), 0.5, np.pi / 6)
    assert ok.passed and ok.detail == "self-adjoint spectrum check"
    bad = check_sector(DenseOperator.diagonal([-0.2, 1.0]), 0.5, np.pi / 6)
    assert not bad.passed
    assert bad.quantities["margin"] == pytest.approx(0.3, abs=1e-12)
    # eigenvalue below -a does not violate the truncated sector; margin is
    # the distance to the nearest eigenvalue outside it (+1 here, not -2)
    deep = check_sector(DenseOperator.diagonal([-2.0, 1.0]), 0.5, np.pi / 6)
    assert deep.passed
    assert deep.quantities["margin"] == pytest.approx(1.0, abs=1e-12)


def test_sector_grid_branch_is_lipschitz_sound():
    # spectrum {+-i} stays clear of the sector
    rot = DenseOperator([[0.0, 1.0], [-1.0, 0.0]])
    ok = check_sector(rot, 0.5, np.pi / 6)
    assert ok.passed and ok.quantities["margin"] > 0.0
    # defective eigenvalue -0.3 hides between grid points; the covering
    # radius criterion must still reject it
    bad = check_sector(DenseOperator([[-0.3, 1.0], [0.0, -0.3]]), 0.5, np.pi / 6)
    assert not bad.passed
    assert bad.quantities["covering_radius"] > 0.0


def test_sector_rejects_bad_parameters():
    L = DenseOperator.identity(2)
    with pytest.raises(ValueError):
        check_sector(L, 0.0, np.pi / 6)
    with pytest.raises(ValueError):
        check_sector(L, 1.0, 2.0)


# -- derivative and monotonicity checks ----------------------------------------------


def test_fd_jacobian_check_flags_wrong_jacobian():
    good = cubic_map(0.2)
    u = np.array([0.3, -0.7, 1.1])
    assert fd_jacobian_check(good, u) <= 1e-8
    wrong = NonlinearMap(lambda v: 0.2 * v ** 3,
                         lambda v: np.diag(0.2 * 3.0 * v ** 2) * 1.5)
    assert fd_jacobian_check(wrong, u) > 0.1
    with pytest.raises(ValueError):
        fd_jacobian_check(good, u, h=1e-2)


def test_fd_jacobian_check_on_builtin_map():
    b = wellposed_cubic(6, scale=0.1, seed=1)
    assert fd_jacobian_check(b.problem.g, b.problem.u0) <= 1e-6


def test_monotonicity_certificate_pass_and_fail():
    samples = ball_samples(np.zeros(3), 1.5, 12, seed=9)
    good = monotonicity_certificate(cubic_map(0.5), samples)
    assert good.passed
    assert good.quantities["min_jacobian_eigenvalue"] >= -1e-10
    assert good.quantities["min_secant_product"] >= -1e-10
    bad = monotonicity_certificate(cubic_map(-0.5), samples)
    assert not bad.passed
    assert bad.quantities["min_jacobian_eigenvalue"] < 0.0
    with pytest.raises(ValueError):
        monotonicity_certificate(cubic_map(), [])


def test_monotonicity_certificate_evaluates_g_once_per_sample():
    g = cubic_map(0.5)
    calls = []
    counted = NonlinearMap(lambda u: calls.append(1) or g.fn(u), g.jac_fn)
    samples = ball_samples(np.zeros(3), 1.5, 12, seed=9)
    cert = monotonicity_certificate(counted, samples)
    assert len(calls) == len(samples)
    # bitwise the secant products of the pairwise definition
    ref = min(float(np.dot(g(u) - g(v), u - v)) for v, u in zip(samples, samples[1:]))
    assert cert.quantities["min_secant_product"] == ref


def test_monotonicity_single_sample_uses_jacobian_only():
    cert = monotonicity_certificate(cubic_map(1.0), [np.ones(2)])
    assert cert.passed and cert.quantities["min_secant_product"] == 0.0


def _min_eig_every_sample(g, samples):
    """The unscreened minimum: ``eigvalsh`` of every sample's symmetrized Jacobian."""
    return min(float(np.linalg.eigvalsh(0.5 * (g.jacobian(u) + g.jacobian(u).T))[0])
               for u in samples)


def _mono_wellposed(dim):
    p = wellposed_cubic(dim, seed=2).problem
    return p.g, ball_samples(p.u0, p.radius, 64, seed=1)


def _mono_range_cubic():
    # g' = B diag(3 s y^2) B^T is singular everywhere: every sample ties at 0
    p = singular_monotone(12, 6, cubic_scale=0.1).problem
    return p.g, ball_samples(p.u0, p.radius, 32, seed=2)


def _mono_non_monotone():
    rng = np.random.default_rng(6)
    B = rng.standard_normal((8, 8))
    g = NonlinearMap(lambda u: B @ u + 0.1 * u ** 3, lambda u: B + np.diag(0.3 * u ** 2))
    return g, ball_samples(np.zeros(8), 1.0, 32, seed=3)


def _mono_within_margin():
    # samples 1e-12 apart: near-ties that the screen cannot rule out
    g, samples = _mono_wellposed(30)
    u, d = samples[3], samples[3] - samples[0]
    return g, [u - 1e-12 * k * d for k in range(20)]


@pytest.mark.parametrize("case", [
    *(pytest.param(lambda d=d: _mono_wellposed(d), id=f"wellposed-d{d}") for d in (1, 5, 50)),
    pytest.param(_mono_range_cubic, id="range-cubic-ties"),
    pytest.param(_mono_non_monotone, id="non-monotone"),
    pytest.param(_mono_within_margin, id="within-margin"),
])
def test_monotonicity_screen_is_bitwise_eigvalsh_at_every_sample(case):
    g, samples = case()
    cert = monotonicity_certificate(g, samples)
    assert cert.quantities["min_jacobian_eigenvalue"] == _min_eig_every_sample(g, samples)


def test_monotonicity_screen_skips_eigvalsh_and_stops_at_a_tie(monkeypatch):
    (g, samples), (g_tied, tied) = _mono_wellposed(50), _mono_range_cubic()
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda S: calls.append(1) or eigvalsh(S))
    monotonicity_certificate(g, samples)
    # only samples that lower the running minimum pay for eigvalsh
    assert len(calls) < 10
    calls.clear()
    screens = []
    screen = model._min_eigenvalue_at_least
    monkeypatch.setattr(model, "_min_eigenvalue_at_least",
                        lambda S, m: screens.append(1) or screen(S, m))
    monotonicity_certificate(g_tied, tied)
    assert len(calls) == len(tied)
    # rounding makes the first few samples new minima below 0; the screen
    # stops at the first tie instead of failing on every sample
    assert len(screens) <= 5
