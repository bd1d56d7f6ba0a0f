"""Certified flow solves and shift continuation toward the minimal-norm solution.

:func:`solve_newton_flow` runs one flow solve wrapped in its certificates
(Newton bound over the trust ball, trust condition, residual bound at the
returned point).  :func:`solve_minimal_norm` drives the shift
``epsilon`` down a geometric schedule, warm-starting each solve at the
previous level's solution; for self-adjoint positive-semidefinite ``L``
with a monotone nonlinearity the shifted solutions have norms bounded by
the minimal-norm solution's and converge to it as the shift vanishes.

The shifted solution ``v(eps)`` is analytic near ``eps = 0`` when ``g``
acts in ``L``'s range, so after each level the continuation forms the
Neville extrapolant to ``eps = 0`` through the last
:data:`EXTRAPOLATION_DEGREE` + 1 levels (Richardson extrapolation of
Tikhonov regularization).  The difference between that extrapolant and
the one of degree one lower, through the latest levels, estimates its
error; once the full degree is reached and the estimate falls to
:data:`EXTRAPOLATION_TOL` ``* (1 + |P|)`` the schedule stops, so the
schedule's ``count`` is a maximum.  The extrapolant steers nothing: every
level runs exactly as it would without it, warm-started at the previous
level's solution.  Where ``v(eps)`` turns over at shifts the schedule
reaches (an ``L`` with eigenvalues spread over decades, such as a Hilbert
matrix) the estimate stays large and the whole schedule runs.  A part of
``v`` that moves only at shifts far below the last level's, along an
eigenvalue of ``L`` below about ``EXTRAPOLATION_TOL * eps``, is invisible
to the estimate, as it is to the last level's solution.

The continuation stores one record per shift so convergence can be
audited after the fact, and names in :class:`ContinuationStop` why it
stopped descending.  :func:`discrepancy_stop` stops one integration at the
time the exponential decay of the residual gives for a data-noise level.
"""

import enum
from dataclasses import dataclass, replace

import numpy as np

from .errors import (FlowFailed, InnerSolveFailed, MonotonicityFailed,
                     NonPsdOperator, SingularOperator, TMaxReachedError)
from .flow import FlowConfig, FlowStatus, integrate
from .hilbert import norm
from .model import (MONOTONE_SAMPLES, ball_samples, certify_newton_bound, full_residual,
                    monotonicity_certificate)
# unused here, but perfbench/tracing.py looks these names up on this module
from .model import check_trust_condition, estimate_newton_bound  # noqa: F401

__all__ = [
    "DISCREPANCY_FACTOR",
    "EPS_CONDITION_LIMIT",
    "EXTRAPOLATION_DEGREE",
    "EXTRAPOLATION_TOL",
    "INNER_FLOW",
    "EpsSchedule",
    "NewtonFlowSolution",
    "ContinuationRecord",
    "ContinuationStop",
    "ContinuationResult",
    "solve_newton_flow",
    "solve_minimal_norm",
    "discrepancy_stop",
    "write_continuation_csv",
]

#: The continuation stops before a level whose shifted operator's condition
#: estimate exceeds this; beyond it the inner linear solves lose too many digits.
EPS_CONDITION_LIMIT = 1e12

#: Degree of the Neville extrapolant to ``eps = 0`` that may stop the
#: continuation; it interpolates the last ``EXTRAPOLATION_DEGREE + 1`` levels.
EXTRAPOLATION_DEGREE = 5

#: The continuation stops once the extrapolant ``P`` of full degree has an
#: error estimate of at most ``EXTRAPOLATION_TOL * (1 + |P|)``.
EXTRAPOLATION_TOL = 1e-9

#: :func:`discrepancy_stop` ends where the equation residual lies in
#: ``[delta, DISCREPANCY_FACTOR * delta]`` for a noise level ``delta``.
DISCREPANCY_FACTOR = 1.5

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
    ``floor`` exactly whenever clamping occurs.  ``count`` is the largest
    number of levels a continuation runs: :func:`solve_minimal_norm` stops
    earlier once its extrapolant to ``eps = 0`` settles.
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
    inner_steps: int
    trust_passed: bool


class ContinuationStop(enum.Enum):
    """Why :func:`solve_minimal_norm` stopped descending the shift schedule."""
    SETTLED = "settled"
    CONDITION_LIMIT = "condition_limit"
    SCHEDULE_END = "schedule_end"


@dataclass(frozen=True)
class ContinuationResult:
    """Outcome of :func:`solve_minimal_norm`.

    ``v_extrapolated`` is the Neville extrapolant to ``eps = 0`` through the
    last levels and ``extrapolation_error_estimate`` its error estimate (None
    after a single level); ``residual_extrapolated`` is ``|Lv + g(v)|`` at the
    extrapolant, a witness that does not depend on the estimate.  ``stop``
    says why the descent ended: ``SETTLED`` when the estimate settled, the
    one case where ``v_limit`` is the extrapolant; ``CONDITION_LIMIT`` before
    a level beyond :data:`EPS_CONDITION_LIMIT`, with ``truncation_note``
    saying where; ``SCHEDULE_END`` after the schedule's last level.  In the
    last two cases ``v_limit`` is the last level's solution.
    """
    records: list
    v_limit: np.ndarray
    v_extrapolated: np.ndarray
    extrapolation_error_estimate: float
    residual_extrapolated: float
    stop: ContinuationStop
    norms_monotone_ok: bool
    increments: list
    truncation_note: str = ""

    @property
    def eps_values(self):
        return [r.eps for r in self.records]

    @property
    def norms(self):
        return [r.norm_v for r in self.records]


def solve_newton_flow(problem, cfg=None, *, sample_seed=0, require_converged=True,
                      monotone=None):
    """One certified flow solve of ``(L + eps*I) v + g(v) = 0``.

    Bounds the inverse linearization over the trust ball and checks the
    trust condition through :func:`~dsmflow.model.certify_newton_bound`
    with ``seed=sample_seed``: a proof for self-adjoint psd ``L`` and a
    monotone ``g``, a sampled estimate otherwise.  ``monotone`` is the
    :func:`~dsmflow.model.monotonicity_certificate` the proof takes ``g``'s
    monotonicity from; with None (a standalone solve)
    ``certify_newton_bound`` certifies ``g`` on ball samples it draws from
    ``sample_seed``, and a proof with ``monotone`` handed in draws none.
    The certificates are keyed ``newton_bound`` and ``trust_condition``.
    It then integrates with ball enforcement tied to the trust
    certificate.  A failed trust certificate does not block the solve; it
    marks the result ``exploratory`` and disables the guarantee that the
    trajectory stays in the ball.

    With ``require_converged`` (default) a flow that stops for any reason
    other than residual convergence raises :class:`FlowFailed`.
    ``residual_bound`` bounds ``residual_shifted`` by ``|L + eps|`` times
    the stopping threshold, or times the final ``p`` of a flow that stopped
    above it.
    """
    cfg = cfg or FlowConfig()
    bound_cert, trust = certify_newton_bound(problem, monotone, seed=sample_seed)
    result = integrate(problem, cfg, trust=trust)
    if require_converged and result.status is not FlowStatus.RESIDUAL_CONVERGED:
        raise FlowFailed(
            f"flow did not converge: {result.message}", result=result)
    v = result.u_final
    # integrate records its final point, residual norm included
    residual_shifted = result.trajectory[-1].residual_F
    opn = problem.shifted.operator_norm()
    # |(L+eps) v + g(v)| = |(L+eps) f(v)| <= |L+eps| * p_final, plus
    # rounding slack for evaluating the residual itself; a converged flow
    # has p_final <= stop_at, so its bound is the stopping threshold's
    p_bound = max(cfg.stop_at(result.p0), result.p_final)
    residual_bound = opn * (p_bound + 1e-13 * (1.0 + norm(v)))
    return NewtonFlowSolution(
        v=v,
        flow=result,
        certificates={"newton_bound": bound_cert, "trust_condition": trust},
        residual_shifted=residual_shifted,
        residual_bound=residual_bound,
        exploratory=not trust.passed)


def solve_minimal_norm(problem, schedule=None, cfg=None):
    """Drive the shift to zero and return the path toward the minimal-norm solution.

    Requires verified self-adjoint positive-semidefinite ``L`` and a
    monotone nonlinearity, certified once on the first trust ball's center
    and :data:`~dsmflow.model.MONOTONE_SAMPLES` ball samples drawn from
    seed 1, before any solve; failure raises
    :class:`MonotonicityFailed`.  Monotonicity is a hypothesis on ``g``
    itself, not on one level's ball, so that one certificate is handed to
    every level's Newton-bound proof instead of being drawn again.  Each
    shift level is solved by :func:`solve_newton_flow` warm-started at the
    previous solution, with flow settings ``cfg`` (default
    :data:`INNER_FLOW`) and ``sample_seed=k``, which a level that proves
    its Newton bound never reads; a failure at level ``k`` raises
    :class:`InnerSolveFailed` carrying the records accumulated so far.

    Before each level the shifted operator's condition estimate is checked
    against :data:`EPS_CONDITION_LIMIT`, the one place that limit is
    applied: beyond it the descent stops, and at level 0 that raises
    :class:`InnerSolveFailed` with no records.  After each level the
    Neville extrapolant to ``eps = 0`` through the last levels and its
    error estimate are formed (:func:`_extrapolate`); the schedule stops
    once the estimate settles at full degree, and runs on otherwise.  The
    returned result includes the per-level records, the extrapolant
    ``v_extrapolated`` with its estimate and its residual, ``v_limit`` (the
    extrapolant if it settled, else the last solution), the
    :class:`ContinuationStop` reason and a flag for the expected norm
    monotonicity along the path.
    """
    if not (problem.L.self_adjoint and problem.L.psd_claimed):
        raise NonPsdOperator(
            "minimal-norm continuation requires a self-adjoint psd operator")
    schedule = schedule or EpsSchedule()
    cfg = cfg or INNER_FLOW
    mono_samples = ball_samples(problem.u0, problem.radius, MONOTONE_SAMPLES, seed=1)
    mono = monotonicity_certificate(problem.g, mono_samples)
    if not mono.passed:
        raise MonotonicityFailed(
            f"nonlinearity failed the monotonicity certificate "
            f"(min eigenvalue {mono.quantities['min_jacobian_eigenvalue']:.3e}, "
            f"min secant {mono.quantities['min_secant_product']:.3e})",
            certificate=mono)
    records = []
    warm = problem.u0
    stop = ContinuationStop.SCHEDULE_END
    truncation_note = ""
    for k, eps in enumerate(schedule.values()):
        sub = replace(problem, epsilon=eps, u0=warm)
        cond = sub.shifted.condition_estimate()
        if cond > EPS_CONDITION_LIMIT:
            stop = ContinuationStop.CONDITION_LIMIT
            truncation_note = (
                f"stopped before eps={eps:.3e}: shifted condition estimate "
                f"{cond:.3e} exceeds {EPS_CONDITION_LIMIT:.0e}")
            break
        try:
            sol = solve_newton_flow(sub, cfg, sample_seed=k, monotone=mono)
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
            inner_steps=sol.flow.n_accepted,
            trust_passed=sol.certificates["trust_condition"].passed))
        warm = v
        v_extrapolated, estimate = _extrapolate(records)
        if len(records) > EXTRAPOLATION_DEGREE and estimate <= EXTRAPOLATION_TOL * (
                1.0 + norm(v_extrapolated)):
            stop = ContinuationStop.SETTLED
            break
    if not records:
        raise InnerSolveFailed(0, records, truncation_note)
    increments = [0.0]
    for a, b in zip(records, records[1:]):
        increments.append(norm(b.v - a.v))
    last = records[-1].norm_v
    max_norm = max(r.norm_v for r in records)
    norms_monotone_ok = max_norm <= last + 1e-6 * (1.0 + last)
    return ContinuationResult(
        records=records,
        v_limit=v_extrapolated if stop is ContinuationStop.SETTLED else records[-1].v,
        v_extrapolated=v_extrapolated,
        extrapolation_error_estimate=estimate,
        residual_extrapolated=float(np.linalg.norm(
            problem.L.apply(v_extrapolated) + problem.g(v_extrapolated))),
        stop=stop,
        norms_monotone_ok=bool(norms_monotone_ok),
        increments=increments,
        truncation_note=truncation_note)


def _extrapolate(records):
    """Neville extrapolant to ``eps = 0`` through the last levels, and its error estimate.

    The extrapolant ``P_m`` interpolates the last ``m + 1`` records,
    ``m = min(len(records) - 1, EXTRAPOLATION_DEGREE)``, as a polynomial in
    ``eps``; the estimate is ``|P_m - P_{m-1}|`` with ``P_{m-1}`` through the
    last ``m`` records, or None for a single record.
    """
    points = records[-(EXTRAPOLATION_DEGREE + 1):]
    eps = [r.eps for r in points]
    # entry i of column j interpolates points i..i+j
    column = [r.v for r in points]
    previous = None
    for j in range(1, len(points)):
        previous = column[-1]
        column = [(eps[i] * column[i + 1] - eps[i + j] * column[i]) / (eps[i] - eps[i + j])
                  for i in range(len(column) - 1)]
    extrapolant = column[0]
    return extrapolant, None if previous is None else norm(extrapolant - previous)


def discrepancy_stop(problem, delta, cfg=None):
    """Flow time and point where the equation residual meets the noise level.

    The residual ``F(u) = (L+eps*I) u + g(u)`` obeys ``F(u(t)) = e^{-t} F(u0)``
    along the flow, so one integration runs to ``t* = log(|F(u0)| /
    (sqrt(c)*delta))`` with ``c =`` :data:`DISCREPANCY_FACTOR`, the geometric
    middle of ``[delta, c*delta]``, and returns its end point ``(t, u)``
    after checking that ``|F(u)|`` lies in that window.  The check needs the
    integrator's deviation from the decay law at ``t*`` to be small against
    the window; a miss raises :class:`FlowFailed` with the flow result.
    Returns ``(0.0, u0)`` if ``|F(u0)| <= c*delta``; raises
    :class:`TMaxReachedError`, before integrating, if ``t* > cfg.t_max``.
    """
    delta = float(delta)
    # negated, so that NaN is refused here and not as a NaN t_max
    if not delta > 0.0:
        raise ValueError(f"noise level must be positive, got {delta}")
    cfg = cfg or FlowConfig()
    r0 = float(np.linalg.norm(full_residual(problem, problem.u0)))
    if r0 <= DISCREPANCY_FACTOR * delta:
        return 0.0, problem.u0.copy()
    t_stop = np.log(r0 / (np.sqrt(DISCREPANCY_FACTOR) * delta))
    window = f"[{delta:.3e}, {DISCREPANCY_FACTOR * delta:.3e}]"
    if t_stop > cfg.t_max:
        raise TMaxReachedError(
            f"residual {r0:.3e} reaches {window} at t={t_stop:.6f}, after t_max={cfg.t_max}")
    # run to t_stop: a stop set in cfg must not end the run first
    result = integrate(problem, replace(cfg, t_max=t_stop, p_stop=0.0, p_stop_abs=0.0))
    r = result.trajectory[-1].residual_F
    if not delta <= r <= DISCREPANCY_FACTOR * delta:
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
