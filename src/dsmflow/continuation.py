"""Certified flow solves and shift continuation toward the minimal-norm solution.

:func:`solve_newton_flow` runs one flow solve wrapped in its certificates
(invertibility bound over the trust ball, trust condition, residual bound
at the returned point).  :func:`solve_minimal_norm` drives the shift
``epsilon`` down a geometric schedule, warm-starting each solve at the
previous limit; for self-adjoint positive-semidefinite ``L`` with a
monotone nonlinearity the shifted solutions have norms bounded by the
minimal-norm solution's and converge to it as the shift vanishes.

The continuation stores one record per shift so convergence can be
audited after the fact; :func:`minimal_norm_diagnostics` condenses those
records, and :func:`discrepancy_stop` stops one integration at the time
the exponential decay of the residual gives for a data-noise level.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import (FlowFailed, InnerSolveFailed, MonotonicityFailed,
                     NonPsdOperator, SingularOperator, TMaxReachedError)
from .flow import FlowConfig, FlowStatus, integrate
from .hilbert import norm
from .model import (BOUND_SAMPLES, MONOTONE_SAMPLES, ball_samples, certify_newton_bound,
                    full_residual, monotonicity_certificate)
# unused here, but perfbench/tracing.py looks these names up on this module
from .model import check_trust_condition, estimate_newton_bound  # noqa: F401

__all__ = [
    "EPS_CONDITION_LIMIT",
    "INNER_FLOW",
    "EpsSchedule",
    "NewtonFlowSolution",
    "ContinuationRecord",
    "ContinuationResult",
    "MinimalNormReport",
    "solve_newton_flow",
    "solve_minimal_norm",
    "minimal_norm_diagnostics",
    "discrepancy_stop",
    "write_continuation_csv",
]

#: Refuse shifted solves once the shifted operator's condition estimate
#: exceeds this; beyond it the inner linear solves lose too many digits.
EPS_CONDITION_LIMIT = 1e12

#: Flow settings of the continuation's inner solves.  They run tighter than
#: standalone ones, with an absolute stopping floor: warm-started levels
#: have tiny p0, and the integrator noise floor (rel_tol * |u|) must stay
#: below the stopping threshold.
INNER_FLOW = FlowConfig(rel_tol=1e-10, p_stop=1e-10, p_stop_abs=1e-11)


@dataclass(frozen=True)
class EpsSchedule:
    """Geometric shift schedule ``eps0 * ratio^k``, clamped at ``floor``.

    The generated sequence stops early once a value would fall to or below
    ``floor``; the floor itself is then appended, so the last shift equals
    ``floor`` exactly whenever clamping occurs.
    """
    eps0: float = 1.0
    ratio: float = 0.5
    count: int = 20
    floor: float = 1e-8

    def __post_init__(self):
        if not np.isfinite(self.eps0) or self.eps0 <= 0.0:
            raise ValueError(f"eps0 must be positive, got {self.eps0}")
        if not 0.0 < self.ratio < 1.0:
            raise ValueError(f"ratio must lie in (0, 1), got {self.ratio}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if not 0.0 < self.floor < self.eps0:
            raise ValueError(
                f"floor must lie in (0, eps0), got floor={self.floor} eps0={self.eps0}")

    def values(self):
        out = []
        for k in range(self.count):
            eps = self.eps0 * self.ratio ** k
            if eps <= self.floor:
                out.append(self.floor)
                break
            out.append(eps)
        return out


@dataclass(frozen=True)
class NewtonFlowSolution:
    """A flow solve together with the certificates that qualify it."""
    v: np.ndarray
    flow: object
    certificates: dict
    residual_shifted: float
    residual_bound: float
    exploratory: bool


@dataclass(frozen=True)
class ContinuationRecord:
    """State of the continuation after one shift level."""
    eps: float
    v: np.ndarray
    norm_v: float
    residual_full: float
    residual_shifted: float
    residual_bound: float
    inner_status: FlowStatus
    inner_steps: int
    trust_passed: bool
    p0: float


@dataclass(frozen=True)
class ContinuationResult:
    records: list
    v_limit: np.ndarray
    v_extrapolated: np.ndarray
    norms_monotone_ok: bool
    increments: list
    schedule_truncated: bool = False
    condition_truncated: bool = False
    truncation_note: str = ""

    @property
    def eps_values(self):
        return [r.eps for r in self.records]

    @property
    def norms(self):
        return [r.norm_v for r in self.records]


def solve_newton_flow(problem, cfg=None, *, sample_seed=0, max_condition=None,
                      require_converged=True, monotone=None):
    """One certified flow solve of ``(L + eps*I) v + g(v) = 0``.

    Bounds the inverse linearization over the trust ball and checks the
    trust condition through :func:`~dsmflow.model.certify_newton_bound`,
    on the trust ball's center and :data:`~dsmflow.model.BOUND_SAMPLES`
    ball samples drawn from ``sample_seed``: a proof for self-adjoint psd
    ``L`` and a monotone ``g``, a sampled estimate otherwise.  ``monotone`` is
    the :func:`~dsmflow.model.monotonicity_certificate` the proof takes
    ``g``'s monotonicity from, as in ``certify_newton_bound``; with None
    (a standalone solve) ``g`` is certified on those ball samples.  It
    then integrates with ball enforcement tied to that certificate.  A
    failed trust certificate does not block the solve; it marks the
    result ``exploratory`` and disables the guarantee that the trajectory
    stays in the ball.

    ``max_condition`` optionally refuses the solve up front when the
    shifted operator's condition estimate exceeds it.  With
    ``require_converged`` (default) a flow that stops for any reason other
    than residual convergence raises :class:`FlowFailed`.
    """
    cfg = cfg or FlowConfig()
    if max_condition is not None:
        cond = problem.shifted.condition_estimate()
        if cond > max_condition:
            raise SingularOperator(
                "shifted operator too ill-conditioned for a certified solve",
                condition_estimate=cond)
    samples = ball_samples(problem.u0, problem.radius, BOUND_SAMPLES, seed=sample_seed)
    bound_cert, trust = certify_newton_bound(problem, samples, monotone,
                                             design="center+ball+sphere")
    result = integrate(problem, cfg, trust=trust)
    if require_converged and result.status is not FlowStatus.RESIDUAL_CONVERGED:
        raise FlowFailed(
            f"flow did not converge: {result.message}", result=result)
    v = result.u_final
    # integrate records its final point, residual norm included
    residual_shifted = result.trajectory[-1].residual_F
    opn = problem.shifted.operator_norm()
    # |(L+eps) v + g(v)| = |(L+eps) f(v)| <= |L+eps| * p_final, plus
    # rounding slack for evaluating the residual itself
    residual_bound = opn * (cfg.stop_at(result.p0) + 1e-13 * (1.0 + norm(v)))
    return NewtonFlowSolution(
        v=v,
        flow=result,
        certificates={"invertible": bound_cert, "trust_condition": trust},
        residual_shifted=residual_shifted,
        residual_bound=residual_bound,
        exploratory=not trust.passed)


def solve_minimal_norm(problem, schedule=None, cfg=None, *, seed=0):
    """Drive the shift to zero and return the path toward the minimal-norm solution.

    Requires verified self-adjoint positive-semidefinite ``L`` and a
    monotone nonlinearity, certified once on the first trust ball's center
    and :data:`~dsmflow.model.MONOTONE_SAMPLES` ball samples drawn from
    ``seed + 1``, before any solve; failure raises
    :class:`MonotonicityFailed`.  Monotonicity is a hypothesis on ``g``
    itself, not on one level's ball, so that one certificate is handed to
    every level's Newton-bound proof instead of being drawn again.  Each
    shift level is solved by :func:`solve_newton_flow` warm-started at the
    previous solution, with flow settings ``cfg`` (default
    :data:`INNER_FLOW`) and the level's Newton bound on samples drawn from
    ``seed + k``; a failure at level ``k`` raises
    :class:`InnerSolveFailed` carrying the records accumulated so far.

    The returned result includes the per-level records, the last solution
    as ``v_limit``, a shift-extrapolated refinement ``v_extrapolated``,
    and a flag for the expected norm monotonicity along the path.
    """
    if not (problem.L.self_adjoint and problem.L.psd_claimed):
        raise NonPsdOperator(
            "minimal-norm continuation requires a self-adjoint psd operator")
    schedule = schedule or EpsSchedule()
    cfg = cfg or INNER_FLOW
    mono_samples = ball_samples(problem.u0, problem.radius, MONOTONE_SAMPLES, seed=seed + 1)
    mono = monotonicity_certificate(problem.g, mono_samples)
    if not mono.passed:
        raise MonotonicityFailed(
            f"nonlinearity failed the monotonicity certificate "
            f"(min eigenvalue {mono.quantities['min_jacobian_eigenvalue']:.3e}, "
            f"min secant {mono.quantities['min_secant_product']:.3e})",
            certificate=mono)
    records = []
    warm = problem.u0
    condition_truncated = False
    truncation_note = ""
    eps_values = schedule.values()
    for k, eps in enumerate(eps_values):
        sub = replace(problem, epsilon=eps, u0=warm)
        cond = sub.shifted.condition_estimate()
        if cond > EPS_CONDITION_LIMIT:
            condition_truncated = True
            truncation_note = (
                f"stopped before eps={eps:.3e}: shifted condition estimate "
                f"{cond:.3e} exceeds {EPS_CONDITION_LIMIT:.0e}")
            break
        try:
            sol = solve_newton_flow(sub, cfg, sample_seed=seed + k, monotone=mono)
        except (FlowFailed, SingularOperator) as exc:
            raise InnerSolveFailed(k, records, str(exc)) from exc
        v = sol.v
        records.append(ContinuationRecord(
            eps=eps,
            v=v,
            norm_v=norm(v),
            residual_full=float(np.linalg.norm(
                problem.L.apply(v) + problem.g(v))),
            residual_shifted=sol.residual_shifted,
            residual_bound=sol.residual_bound,
            inner_status=sol.flow.status,
            inner_steps=sol.flow.n_accepted,
            trust_passed=sol.certificates["trust_condition"].passed,
            p0=sol.flow.p0))
        warm = v
    if not records:
        raise InnerSolveFailed(0, records,
                               truncation_note or "empty shift schedule")
    increments = [0.0]
    for a, b in zip(records, records[1:]):
        increments.append(norm(b.v - a.v))
    v_limit = records[-1].v
    if len(records) >= 2:
        ra, rb = records[-2], records[-1]
        # first-order shift extrapolation to eps = 0
        v_extrapolated = rb.v - rb.eps * (rb.v - ra.v) / (rb.eps - ra.eps)
    else:
        v_extrapolated = v_limit.copy()
    last = records[-1].norm_v
    max_norm = max(r.norm_v for r in records)
    norms_monotone_ok = max_norm <= last + 1e-6 * (1.0 + last)
    schedule_truncated = len(records) < len(eps_values)
    return ContinuationResult(
        records=records,
        v_limit=v_limit,
        v_extrapolated=v_extrapolated,
        norms_monotone_ok=bool(norms_monotone_ok),
        increments=increments,
        schedule_truncated=bool(schedule_truncated),
        condition_truncated=bool(condition_truncated),
        truncation_note=truncation_note)


@dataclass(frozen=True)
class MinimalNormReport:
    increments: list
    norm_bound_ok: bool
    max_norm_excess: float
    limit_distance: float
    eps_rate: float
    oracle_norm: float


def minimal_norm_diagnostics(result, oracle_v=None):
    """Condense a continuation run against an externally computed minimal-norm solution.

    With ``oracle_v`` supplied, checks that no shifted solution exceeded
    the oracle's norm (up to 1e-8) and reports the limit distance plus the
    log-log convergence rate of distance against shift, fitted over levels
    with distance above the rounding floor.
    """
    increments = list(result.increments)
    if oracle_v is None:
        return MinimalNormReport(increments=increments, norm_bound_ok=True,
                                 max_norm_excess=0.0,
                                 limit_distance=float("nan"),
                                 eps_rate=float("nan"),
                                 oracle_norm=float("nan"))
    oracle_norm = norm(oracle_v)
    max_norm = max(r.norm_v for r in result.records)
    excess = max_norm - oracle_norm
    distances = np.array([norm(r.v - oracle_v) for r in result.records])
    eps = np.array([r.eps for r in result.records])
    mask = distances > 1e-13
    if int(mask.sum()) >= 2:
        eps_rate = float(np.polyfit(np.log(eps[mask]), np.log(distances[mask]), 1)[0])
    else:
        eps_rate = float("nan")
    return MinimalNormReport(
        increments=increments,
        norm_bound_ok=bool(excess <= 1e-8),
        max_norm_excess=float(excess),
        limit_distance=float(distances[-1]),
        eps_rate=eps_rate,
        oracle_norm=oracle_norm)


def discrepancy_stop(problem, delta, cfg=None, factor=1.5):
    """Flow time and point where the equation residual meets the noise level.

    The residual ``F(u) = (L+eps*I) u + g(u)`` obeys ``F(u(t)) = e^{-t} F(u0)``
    along the flow, so one integration runs to ``t* = log(|F(u0)| /
    (sqrt(factor)*delta))``, the geometric middle of ``[delta, factor*delta]``,
    and returns its end point ``(t, u)`` after checking that ``|F(u)|`` lies
    in that window.  The check needs the integrator's deviation from the
    decay law at ``t*`` to be small against the window; a miss raises
    :class:`FlowFailed` with the flow result.  Returns ``(0.0, u0)`` if
    ``|F(u0)| <= factor*delta``; raises :class:`TMaxReachedError`, before
    integrating, if ``t* > cfg.t_max``.
    """
    delta = float(delta)
    # negated, so that NaN is refused here and not as a NaN t_max
    if not delta > 0.0:
        raise ValueError(f"noise level must be positive, got {delta}")
    factor = float(factor)
    if not factor > 1.0:
        raise ValueError(f"stopping factor must exceed 1, got {factor}")
    cfg = cfg or FlowConfig()
    r0 = float(np.linalg.norm(full_residual(problem, problem.u0)))
    if r0 <= factor * delta:
        return 0.0, problem.u0.copy()
    t_stop = np.log(r0 / (np.sqrt(factor) * delta))
    window = f"[{delta:.3e}, {factor * delta:.3e}]"
    if t_stop > cfg.t_max:
        raise TMaxReachedError(
            f"residual {r0:.3e} reaches {window} at t={t_stop:.6f}, after t_max={cfg.t_max}")
    result = integrate(problem, replace(cfg, t_max=t_stop, p_stop=0.0))
    r = result.trajectory[-1].residual_F
    if not delta <= r <= factor * delta:
        raise FlowFailed(f"residual {r:.3e} at t={result.t_final:.6f} missed {window}",
                         result=result)
    return result.t_final, result.u_final


def write_continuation_csv(result, path):
    """Write per-shift continuation records as CSV (deterministic)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("eps,norm_v,residual_full,increment,inner_steps\n")
        for rec, inc in zip(result.records, result.increments):
            fh.write(",".join((format(rec.eps, ".17g"),
                               format(rec.norm_v, ".17g"),
                               format(rec.residual_full, ".17g"),
                               format(inc, ".17g"),
                               str(rec.inner_steps))))
            fh.write("\n")
