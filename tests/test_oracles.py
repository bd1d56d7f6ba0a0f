"""Tests for the verification oracles.

The oracles themselves get checked against closed-form or numpy-only
routes here, so that when acceptance tests lean on them the agreement is
between three independent computations, not two copies of one.
"""

from dataclasses import replace

import numpy as np
import pytest

from dsmflow import oracles
from dsmflow.errors import InconsistentSystem, MaxIterations, NotSymmetric
from dsmflow.hilbert import DenseOperator, norm
from dsmflow.oracles import OracleReport, _symmetric_eigh, newton_oracle, pseudoinverse_min_norm
from dsmflow.problems import singular_canonical, singular_monotone, wellposed_cubic
from evidence import (MembershipReport, convexity_closedness_suite, diagonal_operator,
                      membership_probe)


# -- damped Newton -----------------------------------------------------------


def test_newton_oracle_solves_cubic():
    b = wellposed_cubic(8, scale=0.1, seed=21)
    rep = newton_oracle(b.problem)
    assert rep.residual <= 1e-10 * norm(b.problem.u0) + 1e-13
    # direct check on the full equation, no library residual helpers
    L = b.problem.L.entries
    scale = b.problem.g.params["scale"]
    F = L @ rep.solution + scale * rep.solution ** 3 + (
        b.problem.g(np.zeros(b.problem.dim)))
    assert np.linalg.norm(F) <= 1e-8


def test_newton_oracle_quadratic_convergence_iteration_count():
    # full steps near the solution: a handful of iterations suffices
    b = wellposed_cubic(5, scale=0.1, seed=22)
    rep = newton_oracle(b.problem, tol=1e-12)
    assert rep.iterations <= 10


def test_newton_oracle_honors_start_override():
    b = wellposed_cubic(4, scale=0.1, seed=23)
    rep0 = newton_oracle(b.problem)
    rep1 = newton_oracle(replace(b.problem, u0=rep0.solution))
    assert rep1.iterations <= 1
    assert norm(rep1.solution - rep0.solution) <= 1e-9


def test_newton_oracle_shifted_linear_matches_direct_solve():
    bundle = singular_monotone(6, rank=3, seed=24)
    problem = bundle.problem.with_epsilon(0.05)
    rep = newton_oracle(problem)
    shifted = problem.L.entries + 0.05 * np.eye(problem.dim)
    direct = np.linalg.solve(shifted, -problem.g(np.zeros(problem.dim)))
    assert norm(rep.solution - direct) <= 1e-9 * max(1.0, norm(direct))


def test_newton_oracle_iteration_budget(monkeypatch):
    b = wellposed_cubic(6, scale=0.1, seed=25)
    monkeypatch.setattr(oracles, "_MAX_ITER", 0)
    with pytest.raises(MaxIterations):
        newton_oracle(b.problem)


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-10, 1.0])
def test_newton_oracle_refuses_a_tol_outside_the_unit_interval(monkeypatch, tol):
    # a NaN tol ran all 200 iterations to a MaxIterations at residual 0, and
    # an infinite one returned u0 unsolved; both are refused before a solve
    solves = []
    monkeypatch.setattr(oracles, "preconditioned_residual",
                        lambda *a: solves.append(1))
    with pytest.raises(ValueError, match=r"tol must lie in \(0, 1\)"):
        newton_oracle(wellposed_cubic(4).problem, tol=tol)
    assert solves == []


# -- pseudoinverse minimal norm ------------------------------------------------


def test_oracle_eigendecomposition_reconstruction_and_orthonormality():
    rng = np.random.default_rng(31)
    B = rng.standard_normal((7, 7))
    A = DenseOperator(B + B.T, self_adjoint=True)
    w, Q = _symmetric_eigh(A)
    opn = float(np.linalg.norm(A.entries, 2))
    assert np.all(np.diff(w) >= 0)
    assert np.max(np.abs(A.entries @ Q - Q @ np.diag(w))) <= 1e-9 * opn
    assert np.max(np.abs(Q.T @ Q - np.eye(7))) <= 1e-12


@pytest.mark.parametrize("oracle", [pseudoinverse_min_norm, convexity_closedness_suite])
def test_eigendecomposition_oracles_refuse_a_non_self_adjoint_operator(oracle):
    L = DenseOperator([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(NotSymmetric):
        oracle(L, np.ones(2))


def test_pseudoinverse_diagonal_exact():
    L = diagonal_operator([2.0, 1.0, 0.0])
    x = pseudoinverse_min_norm(L, np.array([4.0, 3.0, 0.0]))
    assert np.allclose(x, [2.0, 3.0, 0.0], atol=1e-14)


def test_pseudoinverse_matches_numpy_pinv():
    rng = np.random.default_rng(26)
    for rank in (1, 3, 5):
        Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        w = np.zeros(6)
        w[:rank] = rng.uniform(0.5, 2.0, rank)
        A = (Q * w) @ Q.T
        A = 0.5 * (A + A.T)
        L = DenseOperator(A, self_adjoint=True)
        b = A @ rng.standard_normal(6)  # guaranteed in range
        x = pseudoinverse_min_norm(L, b)
        ref = np.linalg.pinv(A) @ b
        assert norm(x - ref) <= 1e-9 * max(1.0, norm(ref))


def test_pseudoinverse_handles_indefinite_symmetric():
    L = diagonal_operator([-2.0, 3.0])
    x = pseudoinverse_min_norm(L, np.array([1.0, 6.0]))
    assert np.allclose(x, [-0.5, 2.0], atol=1e-14)


def test_pseudoinverse_result_is_orthogonal_to_nullspace():
    bundle = singular_monotone(7, rank=4, seed=27)
    L = bundle.problem.L
    b = -bundle.problem.g(np.zeros(7))
    x = pseudoinverse_min_norm(L, b)
    # nullspace basis ships with the bundle; minimality = orthogonality
    for k in range(bundle.nullspace.shape[1]):
        assert abs(float(x @ bundle.nullspace[:, k])) <= 1e-10
    # any nullspace perturbation grows the norm
    rng = np.random.default_rng(1)
    for _ in range(5):
        n = bundle.nullspace @ rng.standard_normal(bundle.nullspace.shape[1])
        assert norm(x + n) >= norm(x) - 1e-12


def test_pseudoinverse_rejects_out_of_range():
    L = diagonal_operator([1.0, 0.0])
    with pytest.raises(InconsistentSystem):
        pseudoinverse_min_norm(L, np.array([0.0, 1.0]))


# -- membership probe -----------------------------------------------------------


def test_membership_accepts_solutions_rejects_others():
    bundle = singular_monotone(5, rank=3, seed=28)
    problem = bundle.problem
    member = membership_probe(problem, bundle.solution, seed=0)
    assert isinstance(member, MembershipReport)
    assert member.member
    assert member.n_samples >= 150
    # minimal-norm point is a solution too
    assert membership_probe(problem, bundle.min_norm_solution, seed=1).member
    # a range-direction offset breaks the equation and must be caught
    rng = np.random.default_rng(2)
    rejected = 0
    for k in range(10):
        d = rng.standard_normal(problem.dim)
        d -= bundle.nullspace @ (bundle.nullspace.T @ d)
        d *= 0.3 / norm(d)
        rep = membership_probe(problem, bundle.solution + d, seed=10 + k)
        rejected += not rep.member
    assert rejected == 10


def test_membership_margin_sign():
    bundle = singular_monotone(4, rank=2, seed=29)
    good = membership_probe(bundle.problem, bundle.solution, seed=3)
    # monotonicity makes every raw product nonnegative up to roundoff
    assert good.margin >= -1e-12


def test_membership_requires_unshifted_problem():
    bundle = singular_monotone(4, rank=2, seed=30)
    with pytest.raises(ValueError):
        membership_probe(bundle.problem.with_epsilon(1e-3), bundle.solution)


def test_membership_custom_probe_points():
    bundle = singular_monotone(4, rank=2, seed=31)
    zs = [bundle.solution + z for z in np.eye(4)]
    rep = membership_probe(bundle.problem, bundle.solution, z_samples=zs)
    assert rep.member and rep.n_samples == 4


@pytest.mark.parametrize("zs", [[], np.empty((0, 2))], ids=["list", "array"])
def test_membership_refuses_no_probe_points(zs):
    # with no probe the verdict would be member=True, here for (5, 0), no solution
    problem = singular_canonical().problem
    assert not membership_probe(problem, np.array([5.0, 0.0])).member
    with pytest.raises(ValueError, match="^need at least one probe point$"):
        membership_probe(problem, np.array([5.0, 0.0]), z_samples=zs)


# -- solution set geometry ---------------------------------------------------------


def test_convexity_closedness_on_singular_system():
    bundle = singular_monotone(6, rank=3, seed=32)
    b = -bundle.problem.g(np.zeros(6))
    rep = convexity_closedness_suite(bundle.problem.L, b, trials=50, seed=0)
    assert rep.all_passed
    assert rep.trials == 50
    assert rep.max_residual <= 1e-12
    assert "nullspace dimension 3" in rep.detail


def test_convexity_closedness_trivial_for_invertible():
    rng = np.random.default_rng(33)
    B = rng.standard_normal((4, 4))
    L = DenseOperator(B @ B.T + 4.0 * np.eye(4), self_adjoint=True,
                      psd_claimed=True)
    rep = convexity_closedness_suite(L, rng.standard_normal(4), trials=10)
    assert rep.all_passed and "nullspace dimension 0" in rep.detail


def test_convexity_suite_propagates_inconsistency():
    L = diagonal_operator([1.0, 0.0])
    with pytest.raises(InconsistentSystem):
        convexity_closedness_suite(L, np.array([0.0, 1.0]))


def test_oracle_report_is_frozen():
    rep = OracleReport(solution=np.zeros(2), residual=0.0, iterations=0)
    with pytest.raises(Exception):
        rep.residual = 1.0
