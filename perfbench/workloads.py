"""The benchmark's workloads: problem set-up, timed calls and their verification.

Every input comes from the workload seed.  Set-up builds and certifies the
problems through ``dsmflow.problems``.  The timed calls go through the
public entry points of ``dsmflow.continuation``, looked up on the module at
call time so that the traced run's wrappers see them.  Verification uses
only ``dsmflow.oracles``, the exact solution data the problem generators
construct, and plain numpy; its tolerances are those of
``tests/test_acceptance.py``.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from dsmflow import continuation, oracles, problems
from dsmflow.errors import FlowFailed, InnerSolveFailed
from dsmflow.flow import FlowConfig
from dsmflow.hilbert import DenseOperator
from dsmflow.model import DsmProblem

# tolerances copied from tests/test_acceptance.py
ORACLE_TOL = 1e-7          # criterion 4: |flow - newton| at every dimension
NORM_EXCESS_TOL = 1e-8     # criterion 5: shifted norms below the minimal norm
LIMIT_TOL = 1e-5           # criterion 6: continuation limit distance
SHIFT_GAP_FACTOR = 3.0     # ill_conditioned limit: within 3x the last shift's gap
WINDOW_FACTOR = 1.5        # criterion 10: delta <= |F(u)| <= 1.5 delta (1 + 1e-6)
WINDOW_SLACK = 1e-6


@dataclass
class Call:
    """One timed top-level call and the check its output must pass.

    ``run(p)`` performs the library call on ``p``, a fresh copy of
    ``problem``.  ``verify`` takes its output and returns
    ``(ok, ref_err, note)``.  Calls sharing a ``group`` are also checked
    together: their stop times must grow as ``order`` grows.
    """
    key: str
    problem: DsmProblem
    run: object
    verify: object
    group: str = None
    order: float = 0.0


@dataclass
class Workload:
    """A workload: its problem set, its calls and its reference computation.

    The host of a small VM switches its speed by up to 1.8x for tens of
    seconds at a time.  Each run therefore also times ``reference``, a
    fixed computation that shares no code with dsmflow but has the
    workload's instruction mix, between every two builds or calls; each
    timing is scaled by ``reference_nominal_s`` (the reference's CPU time
    in the fast state of the machine the benchmark was defined on) over the
    mean of the two references around it.
    """
    name: str
    why: str
    builds: object         # (seed, tiny) -> list of zero-argument build functions
    calls: object          # (built items, seed) -> list of Call
    reference: object
    reference_nominal_s: float


# the kernels are bound here, before a traced run wraps them
_lu_factor, _lu_solve, _svd = scipy.linalg.lu_factor, scipy.linalg.lu_solve, np.linalg.svd
_REF_M = np.random.default_rng(1).standard_normal((10, 10)) + 10.0 * np.eye(10)
_REF_S = np.random.default_rng(2).standard_normal((200, 200))


def small_ops_reference():
    """Python-level checks around dim-10 LU solves, like one flow stage."""
    acc, v, c = 0.0, np.full(10, 0.3), np.full(10, 0.1)
    for _ in range(120):
        u = np.asarray(v, dtype=float)
        if not np.all(np.isfinite(u)):
            raise ValueError("non-finite reference state")
        lu = _lu_factor(_REF_M)
        x = _lu_solve(lu, 0.1 * u ** 3 + c)
        T = np.eye(10) + _lu_solve(lu, np.diag(0.3 * u ** 2))
        acc += float(np.linalg.norm(x)) + float(T[0, 0]) + sum(k * 0.5 for k in range(8))
    return acc


def lapack_reference():
    """Singular values of a dim-200 matrix, like one Newton-bound sample."""
    return _svd(_REF_S, compute_uv=False)[0]


def fresh(problem):
    """A copy of ``problem`` with a new operator, built outside the timed call.

    Every timed call then starts from the same cache state, whatever the
    previous call left on the operator; only the flag checks' spectral
    data is cached, as after any construction.
    """
    L = problem.L
    return dataclasses.replace(problem, L=DenseOperator(
        L.entries, self_adjoint=L.self_adjoint, psd_claimed=L.psd_claimed))


def _cubic_residual(L, scale, offset, u):
    """``L u + scale u^3 + offset``, evaluated without the solver's code."""
    return L @ u + scale * u ** 3 + offset


def accepted_steps(out):
    """Accepted RK steps behind an output or a failure, or None if not exposed."""
    if isinstance(out, continuation.NewtonFlowSolution):
        return out.flow.n_accepted
    if isinstance(out, continuation.ContinuationResult):
        return sum(r.inner_steps for r in out.records)
    if isinstance(out, FlowFailed):
        return out.result.n_accepted if out.result is not None else 0
    if isinstance(out, InnerSolveFailed):
        partial = accepted_steps(out.__cause__) if isinstance(out.__cause__, FlowFailed) else 0
        return sum(r.inner_steps for r in out.records) + partial
    return None


def _failed_checks(checks):
    return ",".join(k for k, ok in checks.items() if not ok)


# -- wellposed-d200 ---------------------------------------------------------------

def _d200_builds(seed, tiny):
    dim = 12 if tiny else 200
    seeds = (seed,) if tiny else (seed, seed + 1)
    return [lambda s=s: (s, problems.wellposed_cubic(dim=dim, scale=0.1, seed=s))
            for s in seeds]


def _d200_calls(items, seed):
    out = []
    for s, bundle in items:
        ref = {}

        def verify(sol, prob=bundle.problem, ref=ref):
            if "v" not in ref:
                ref["v"] = oracles.newton_oracle(prob, tol=1e-12).solution
            err = float(np.linalg.norm(sol.v - ref["v"]))
            g = prob.g.params
            resid = float(np.linalg.norm(_cubic_residual(
                prob.L.entries, g["scale"], g["offset"], sol.v)))
            checks = {
                "converged": sol.flow.converged,
                "trust_certificate": sol.certificates["trust_condition"].passed,
                "oracle_distance": err <= ORACLE_TOL,
                "residual_bound": resid <= sol.residual_bound,
            }
            return all(checks.values()), err, _failed_checks(checks)

        out.append(Call(key=f"wellposed_cubic(dim={bundle.problem.dim},seed={s})",
                        problem=bundle.problem,
                        run=lambda p: continuation.solve_newton_flow(p),
                        verify=verify))
    return out


# -- minnorm ------------------------------------------------------------------------

def _minnorm_builds(seed, tiny):
    if tiny:
        specs = [("singular_monotone", dict(dim=5, rank=3, cubic_scale=0.0, seed=seed)),
                 ("ill_conditioned", dict(dim=6, seed=42))]
    else:
        specs = [("singular_monotone", dict(dim=dim, rank=rank, cubic_scale=cubic, seed=seed))
                 for cubic in (0.0, 0.1) for dim, rank in ((10, 5), (20, 10), (40, 20))]
        # the known stalls are pinned, so the defect shows at every seed:
        # the ROADMAP's cubic configs and ill_conditioned at its default seed
        specs += [("singular_monotone", dict(dim=20, rank=10, cubic_scale=0.1, seed=42)),
                  ("singular_monotone", dict(dim=40, rank=20, cubic_scale=0.1, seed=0)),
                  ("singular_monotone", dict(dim=40, rank=20, cubic_scale=0.1, seed=42)),
                  ("ill_conditioned", dict(dim=6, seed=42)),
                  ("ill_conditioned", dict(dim=10, seed=42))]
        specs = [sp for i, sp in enumerate(specs) if sp not in specs[:i]]
    return [lambda name=name, kw=kw: (name, kw, problems.BUILTINS[name](**kw))
            for name, kw in specs]


def _minnorm_calls(items, seed):
    out = []
    for name, kw, bundle in items:
        ref = {}

        def verify(res, name=name, bundle=bundle, ref=ref):
            prob = bundle.problem
            if name == "singular_monotone":
                # minimal-norm solution of L x = -g(x*) by eigendecomposition;
                # g depends on x only through its range part
                if "x" not in ref:
                    ref["x"] = oracles.pseudoinverse_min_norm(
                        prob.L, -prob.g(bundle.min_norm_solution))
                x_min = x_lim = ref["x"]
            else:
                # L is invertible in exact arithmetic, so the constructed
                # solution is the minimal-norm one; the last shift is far
                # above L's smallest eigenvalues, so the limit is checked
                # against a damped-Newton solve of the last shifted equation
                eps = res.records[-1].eps
                if ref.get("eps") != eps:
                    ref["eps"] = eps
                    ref["x"] = oracles.newton_oracle(
                        prob.with_epsilon(eps), tol=1e-12).solution
                if "gap" not in ref:
                    # distance of the default schedule's last shifted
                    # solution from the constructed one
                    last_eps = continuation.EpsSchedule().values()[-1]
                    x_last = oracles.newton_oracle(
                        prob.with_epsilon(last_eps), tol=1e-12).solution
                    ref["gap"] = float(np.linalg.norm(x_last - bundle.solution))
                x_min, x_lim = bundle.solution, ref["x"]
            norms = [float(np.linalg.norm(r.v)) for r in res.records]
            last = norms[-1]
            dist = float(np.linalg.norm(res.v_limit - x_lim))
            checks = {
                "norm_excess": max(norms) - float(np.linalg.norm(x_min)) <= NORM_EXCESS_TOL,
                "norms_monotone_ok": res.norms_monotone_ok
                and max(norms) <= last + 1e-6 * (1.0 + last),
                "limit_distance": dist <= LIMIT_TOL,
            }
            if name == "ill_conditioned":
                # a continuation that stops early or drifts passes the check
                # on its own last shift but lands far from the solution
                checks["solution_distance"] = float(np.linalg.norm(
                    res.v_limit - bundle.solution)) <= SHIFT_GAP_FACTOR * ref["gap"]
            return all(checks.values()), dist, _failed_checks(checks)

        args = ",".join(f"{k}={v}" for k, v in kw.items())
        out.append(Call(key=f"{name}({args})", problem=bundle.problem,
                        run=lambda p: continuation.solve_minimal_norm(p),
                        verify=verify))
    return out


# -- noisy-stop -------------------------------------------------------------------

DELTAS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
STRIDES = (0.1, 2.0)      # 2.0 overshoots the window and forces re-integration


def _noisy_builds(seed, tiny):
    dims = (8,) if tiny else (8, 10, 12, 14, 16, 18, 20)
    deltas = DELTAS[:2] if tiny else DELTAS

    def build(dim):
        base = problems.wellposed_cubic(dim=dim, scale=0.1, seed=seed)
        p = base.problem
        scale, c0 = p.g.params["scale"], p.g.params["offset"]
        rng = np.random.default_rng((seed, dim))
        noisy = []
        for delta in deltas:
            e = rng.standard_normal(dim)
            e *= delta / np.linalg.norm(e)
            g = problems.make_map("cubic", dim, {"scale": scale, "offset": c0 + e})
            noisy.append((delta, DsmProblem(p.L, g, p.u0, p.radius)))
        return dim, noisy

    return [lambda dim=dim: build(dim) for dim in dims]


def _noisy_calls(items, seed):
    out = []
    for stride in STRIDES:
        cfg = FlowConfig(sample_stride=stride)
        for dim, noisy in items:
            for delta, prob in noisy:
                def verify(res, prob=prob, delta=delta):
                    _, u = res
                    g = prob.g.params
                    r = float(np.linalg.norm(_cubic_residual(
                        prob.L.entries, g["scale"], g["offset"], u)))
                    ok = delta <= r <= WINDOW_FACTOR * delta * (1.0 + WINDOW_SLACK)
                    return ok, r / delta, "" if ok else f"|F(u)|/delta={r / delta:.6g}"

                out.append(Call(
                    key=f"wellposed_cubic(dim={dim},seed={seed}) delta={delta:g} "
                        f"stride={stride:g}",
                    problem=prob,
                    run=lambda p, delta=delta, cfg=cfg:
                        continuation.discrepancy_stop(p, delta, cfg),
                    verify=verify, group=f"dim={dim} stride={stride:g}", order=-delta))
    return out


def group_failures(done):
    """Keys of grouped calls whose stop times do not grow with ``order``.

    ``done`` maps each call key to ``(call, output)`` for outputs that
    passed their own check; outputs of grouped calls are ``(t, u)``.
    """
    groups = {}
    for call, res in done.values():
        if call.group is not None:
            groups.setdefault(call.group, []).append((call.order, res[0], call.key))
    bad = set()
    for members in groups.values():
        members.sort()
        times = [t for _, t, _ in members]
        if any(a >= b for a, b in zip(times, times[1:])):
            bad.update(key for _, _, key in members)
    return bad


WORKLOADS = {
    "wellposed-d200": Workload(
        name="wellposed-d200",
        why="LAPACK-bound certified solves at dim 200: sampled Newton-bound SVDs "
            "and factorizations, little Python overhead",
        builds=_d200_builds, calls=_d200_calls,
        reference=lapack_reference, reference_nominal_s=4.1e-3),
    "minnorm": Workload(
        name="minnorm",
        why="small-dim shift continuations with known stalls: Python and stage "
            "overhead, certify phases, continuation logic",
        builds=_minnorm_builds, calls=_minnorm_calls,
        reference=small_ops_reference, reference_nominal_s=6e-3),
    "noisy-stop": Workload(
        name="noisy-stop",
        why="discrepancy stops: trajectory recording and re-integration, no "
            "certificates; bypasses certificate and SVD changes",
        builds=_noisy_builds, calls=_noisy_calls,
        reference=small_ops_reference, reference_nominal_s=6e-3),
}
