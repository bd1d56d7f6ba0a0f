"""Newton flow integration with an exponential-decay self-check.

The flow integrated here is ``du/dt = phi(u)`` with

    phi(u) = -[I + (L+eps*I)^{-1} g'(u)]^{-1} [u + (L+eps*I)^{-1} g(u)]

It is computed as ``phi(u) = -(A + g'(u))^{-1} (A f)`` with ``A = L+eps*I``
and ``f = u + A^{-1} g(u)``: one LU of ``A + g'(u)`` per stage, see
:func:`dsmflow.model.newton_velocity`.

Each RK stage checks each array it touches once, inside
:func:`~dsmflow.model.newton_velocity`.  The step loop adds no check: its
error norm and trust-ball distance reduce arrays the stages have already
checked.  Recording a point evaluates no ``g``: the residual
``F(u) = (L+eps*I) u + g(u)`` reuses the ``g(u)`` of the stage that
computed the accepted point, bitwise what
:func:`~dsmflow.model.full_residual` gives, and
:func:`~dsmflow.hilbert.norm` checks it.

Along exact trajectories the preconditioned residual norm
``p(t) = |u(t) + (L+eps*I)^{-1} g(u(t))|`` obeys ``p(t) = p(0) e^{-t}``,
so the deviation of the recorded ``p`` from that law measures integrator
error and nothing else.  :func:`integrate` tracks this deviation as it
runs and reports it on every result.  Every run ends through one exit,
which records the final point and builds the one :class:`FlowResult`.

The integrator is an embedded 5(4) Runge-Kutta pair with the first-same-
as-last property and PI step-size control.  It is written out in full
here rather than delegated, because the decay self-check is only
meaningful if the stepping logic it certifies is the one in this file.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import FlowFailed
from .hilbert import norm
from .model import newton_velocity
# unused here, but perfbench/tracing.py looks these names up on this module
from .hilbert import as_vector  # noqa: F401
from .model import (full_residual, linearized_operator, preconditioned_residual,  # noqa: F401
                    solve_linearized)

__all__ = [
    "FlowConfig",
    "FlowStatus",
    "TrajectoryPoint",
    "FlowResult",
    "integrate",
    "decay_report",
    "error_bound_check",
    "write_trajectory_csv",
]

# Dormand-Prince 5(4) coefficients.  _ERR is b5 - b4 (7 stages, FSAL).  The
# flow is autonomous, so the nodes c_i are never needed.
_A = (
    np.array([1.0 / 5.0]),
    np.array([3.0 / 40.0, 9.0 / 40.0]),
    np.array([44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0]),
    np.array([19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0]),
    np.array([9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0,
              49.0 / 176.0, -5103.0 / 18656.0]),
    np.array([35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0,
              -2187.0 / 6784.0, 11.0 / 84.0]),
)
_B5 = np.array([35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0,
                -2187.0 / 6784.0, 11.0 / 84.0, 0.0])
_B4 = np.array([5179.0 / 57600.0, 0.0, 7571.0 / 16695.0, 393.0 / 640.0,
                -92097.0 / 339200.0, 187.0 / 2100.0, 1.0 / 40.0])
_ERR = _B5 - _B4

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_BETA = 0.04          # PI stabilization exponent
_EXPO = 0.2 - 0.75 * _BETA
_STEP_FLOOR = 1e-14
_P_STOP_FLOOR = 1e-14
_MAX_STEPS = 10 ** 6  # accepted plus rejected steps per run


@dataclass(frozen=True)
class FlowConfig:
    """Integration parameters.

    The run stops once the residual norm falls to
    ``max(p_stop * p(0), p_stop_abs, 1e-14)``.  The relative part is the
    usual convergence target; the absolute part matters for warm starts,
    where ``p(0)`` is already tiny and a purely relative target would sit
    below the integrator's own noise floor (which scales with
    ``rel_tol * |u|``, not with ``p``).  For the same reason keep
    ``p_stop``, and ``p_stop_abs`` when it is nonzero, at or above
    ``0.1 * rel_tol``: the defaults, and the continuation's inner settings,
    sit exactly there, and the CLI refuses a pair below it.  The step-error
    scale of a component ``u_i`` is ``abs_tol + rel_tol * |u_i|`` with
    ``abs_tol = 1e-2 * rel_tol``.
    ``sample_stride`` is the trajectory recording interval in flow time.
    """
    t_max: float = 30.0
    rel_tol: float = 1e-8
    p_stop: float = 1e-9
    p_stop_abs: float = 0.0
    sample_stride: float = 0.1

    def __post_init__(self):
        if not np.isfinite(self.t_max) or self.t_max <= 0.0:
            raise ValueError(f"t_max must be positive, got {self.t_max}")
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError(f"rel_tol must lie in (0, 1), got {self.rel_tol}")
        if not 0.0 <= self.p_stop < 1.0:
            raise ValueError(f"p_stop must lie in [0, 1), got {self.p_stop}")
        if not 0.0 <= self.p_stop_abs < 1.0:
            raise ValueError(f"p_stop_abs must lie in [0, 1), got {self.p_stop_abs}")
        if not np.isfinite(self.sample_stride) or self.sample_stride <= 0.0:
            raise ValueError(f"sample_stride must be positive, got {self.sample_stride}")

    def stop_at(self, p0):
        """Residual norm at which a run starting from ``p(0) = p0`` stops."""
        return max(self.p_stop * p0, self.p_stop_abs, _P_STOP_FLOOR)


class FlowStatus(enum.Enum):
    RESIDUAL_CONVERGED = "residual_converged"
    T_MAX_REACHED = "t_max_reached"
    STEP_FAILURE = "step_failure"
    LEFT_BALL = "left_ball"


@dataclass(frozen=True)
class TrajectoryPoint:
    """One recorded state: flow time, point, residual norms, step size used."""
    t: float
    u: np.ndarray
    p: float
    residual_F: float
    step: float


@dataclass(frozen=True)
class FlowResult:
    trajectory: list
    u_final: np.ndarray
    status: FlowStatus
    decay_deviation: float
    p0: float
    left_ball_at: float = None
    message: str = ""
    n_accepted: int = 0
    n_rejected: int = 0

    @property
    def p_final(self):
        return self.trajectory[-1].p

    @property
    def t_final(self):
        return self.trajectory[-1].t

    @property
    def converged(self):
        return self.status is FlowStatus.RESIDUAL_CONVERGED


def _point(problem, t, u, p, gu, h):
    """The recorded state at ``u``, whose ``g(u)`` is ``gu``."""
    return TrajectoryPoint(t=t, u=u.copy(), p=p,
                           residual_F=norm(problem.shifted.entries @ u + gu), step=h)


def integrate(problem, cfg=None, *, trust=None):
    """Integrate the Newton flow from ``problem.u0``.

    ``trust`` is an optional trust-condition certificate from
    :func:`dsmflow.model.certify_newton_bound` or
    :func:`dsmflow.model.check_trust_condition`.  When it is present and
    passed, leaving the trust ball is treated as a hard failure
    (status LEFT_BALL); without it the exit time is recorded but the run
    continues, since no guarantee was promised.

    Returns a :class:`FlowResult` whose last trajectory point is the final
    state ``(t_final, u_final)``; raises :class:`FlowFailed` only for
    step-size collapse or step-budget exhaustion, with that result attached.
    """
    cfg = cfg or FlowConfig()
    u = problem.u0.copy()
    v, p, gu = newton_velocity(problem, u)
    p0 = p
    stop_at = cfg.stop_at(p0)
    enforce_ball = trust is not None and trust.passed

    t = 0.0
    h = 0.0
    deviation = 0.0
    n_accepted = n_rejected = 0
    left_ball_at = None
    trajectory = [_point(problem, t, u, p, gu, h)]

    def finish(status, message):
        """Record the final point if it is new; return the result, or raise it for STEP_FAILURE."""
        if t > trajectory[-1].t:
            trajectory.append(_point(problem, t, u, p, gu, h))
        result = FlowResult(trajectory=trajectory, u_final=u, status=status,
                            decay_deviation=deviation, p0=p0,
                            left_ball_at=left_ball_at, message=message,
                            n_accepted=n_accepted, n_rejected=n_rejected)
        if status is FlowStatus.STEP_FAILURE:
            raise FlowFailed(message, result=result)
        return result

    if p0 <= stop_at:
        return finish(FlowStatus.RESIDUAL_CONVERGED,
                      "start point already below the stopping residual")

    abs_tol = 1e-2 * cfg.rel_tol
    # initial step: classic two-probe estimate
    scale = abs_tol + cfg.rel_tol * np.abs(u)
    d0 = float(np.linalg.norm(u / scale) / np.sqrt(u.size))
    d1 = float(np.linalg.norm(v / scale) / np.sqrt(u.size))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    u_probe = u + h0 * v
    v_probe = newton_velocity(problem, u_probe)[0]
    d2 = float(np.linalg.norm((v_probe - v) / scale) / np.sqrt(u.size)) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    h = min(100.0 * h0, h1, cfg.t_max)

    errold = 1e-4
    next_record = cfg.sample_stride
    k = np.empty((7, u.size))
    k[0] = v

    for _ in range(_MAX_STEPS):
        if h < _STEP_FLOOR:
            return finish(FlowStatus.STEP_FAILURE,
                          f"step size collapsed to {h:.3e} at t={t:.6f}")
        h = min(h, cfg.t_max - t)

        for i in range(1, 6):
            k[i] = newton_velocity(problem, u + h * (_A[i - 1] @ k[:i]))[0]
        u_new = u + h * (_A[5] @ k[:6])
        k[6], p_new, gu_new = newton_velocity(problem, u_new)

        err_vec = h * (_ERR @ k)
        sc = abs_tol + cfg.rel_tol * np.maximum(np.abs(u), np.abs(u_new))
        q = err_vec / sc
        # bitwise sqrt(mean(q**2)): np.mean is add.reduce, then a divide
        err = math.sqrt(np.add.reduce(q * q) / q.size)

        if err > 1.0:
            n_rejected += 1
            h *= max(0.1, _SAFETY * err ** -0.2)
            continue

        t += h
        u = u_new
        k[0] = k[6]
        p = p_new
        gu = gu_new
        n_accepted += 1

        model_p = p0 * np.exp(-t)
        deviation = max(deviation, abs(p - model_p) / p0)

        if enforce_ball or left_ball_at is None:
            # bitwise hilbert.norm, without its check: k[6] checked u
            d = u - problem.u0
            dist = math.sqrt(d.dot(d))
            if dist > problem.radius * (1.0 + 1e-12):
                if left_ball_at is None:
                    left_ball_at = t
                if enforce_ball:
                    return finish(
                        FlowStatus.LEFT_BALL,
                        f"trajectory left the trust ball at t={t:.6f} "
                        f"(distance {dist:.6e} > radius {problem.radius:.6e}) "
                        "despite a passed trust certificate")

        if p <= stop_at:
            return finish(FlowStatus.RESIDUAL_CONVERGED,
                          f"residual reached {p:.3e} at t={t:.6f}")
        if t >= cfg.t_max - 1e-12:
            return finish(FlowStatus.T_MAX_REACHED,
                          f"reached t_max={cfg.t_max} with residual {p:.3e}")
        if t >= next_record - 1e-12:
            trajectory.append(_point(problem, t, u, p, gu, h))
            while next_record <= t + 1e-12:
                next_record += cfg.sample_stride

        # PI controller (accepted step)
        fac = _SAFETY * err ** (-_EXPO) * errold ** _BETA if err > 0.0 else _MAX_FACTOR
        h *= min(_MAX_FACTOR, max(_MIN_FACTOR, fac))
        errold = max(err, 1e-4)

    return finish(FlowStatus.STEP_FAILURE,
                  f"step budget {_MAX_STEPS} exhausted at t={t:.6f}")


def decay_report(result):
    """Summarize how well the recorded residuals follow ``p0 * exp(-t)``.

    Returns ``(p0, deviation, fitted_rate)`` where ``fitted_rate`` is the
    least-squares slope of ``log p`` against ``t``.  The fit only uses
    points where the decay signal stands a factor 1e5 above the observed
    deviation (the integrator's additive noise floor); deeper down, ``p``
    flattens against that floor and would bias the slope.  An exact run
    gives a rate of -1.  Trajectories with fewer than two usable points
    report a rate of 0.
    """
    p0 = result.p0
    if p0 == 0.0:
        return 0.0, 0.0, 0.0
    noise = max(result.decay_deviation, 100.0 * np.finfo(float).eps)
    floor = min(1e5 * noise, 1e-2) * p0
    ts = np.array([pt.t for pt in result.trajectory])
    ps = np.array([pt.p for pt in result.trajectory])
    mask = ps > floor
    if int(mask.sum()) < 2:
        return p0, result.decay_deviation, 0.0
    rate = float(np.polyfit(ts[mask], np.log(ps[mask]), 1)[0])
    return p0, result.decay_deviation, rate


def error_bound_check(result, newton_bound):
    """Check the distance bounds implied by exponential decay, post hoc.

    For a converged run with inverse-linearization bound ``m``, every
    recorded point must satisfy ``|u(t) - u_final| <= m * p0 * exp(-t)``
    and ``|u(t) - u(0)| <= m * p0`` (both up to ``1e-7 * p0`` slack for
    the residual left at the stopping time).  Returns ``(ok, max_ratio)``
    where ``max_ratio`` is the worst observed ratio of distance to bound.
    """
    if result.status is not FlowStatus.RESIDUAL_CONVERGED:
        raise ValueError("error bound check requires a converged flow result")
    m = float(newton_bound)
    if m <= 0.0:
        raise ValueError(f"newton bound must be positive, got {m}")
    u_final = result.u_final
    u_start = result.trajectory[0].u
    slack = 1e-7 * result.p0
    ok = True
    max_ratio = 0.0
    for pt in result.trajectory:
        bound_final = m * result.p0 * np.exp(-pt.t) + slack
        bound_start = m * result.p0 + slack
        d_final = norm(pt.u - u_final)
        d_start = norm(pt.u - u_start)
        max_ratio = max(max_ratio,
                        d_final / bound_final if bound_final > 0 else 0.0,
                        d_start / bound_start if bound_start > 0 else 0.0)
        if d_final > bound_final or d_start > bound_start:
            ok = False
    return ok, max_ratio


def write_trajectory_csv(result, path):
    """Write the recorded trajectory as CSV (deterministic, 17 significant digits)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,p,residual_F,u_norm,step\n")
        for pt in result.trajectory:
            fh.write(",".join(format(x, ".17g") for x in
                              (pt.t, pt.p, pt.residual_F, float(np.linalg.norm(pt.u)), pt.step)))
            fh.write("\n")
