"""Newton flow integration with an exponential-decay self-check.

The flow integrated here is ``du/dt = phi(u)`` with

    phi(u) = -[I + (L+eps*I)^{-1} g'(u)]^{-1} [u + (L+eps*I)^{-1} g(u)]

Write ``A = L+eps*I`` and ``f = u + A^{-1} g(u)``.  A run whose
``kappa(A) = |A|_2 / sigma_min(A) <= 32`` forms ``f`` as one BLAS product
with ``A``'s cached inverse, whose error is at most ``kappa(A)`` times
that of ``dgetrs``, which every other run keeps.  One rule, the proven
contraction factor ``q >= |A^{-1} g'(u)|``, picks how a stage solves it.
Where ``q <= 2^(-53/8)``, the Neumann series of ``[I + A^{-1} g'(u)]^{-1}``
converges, and at most seven sweeps ``x <- f - A^{-1}(g'(u) x)`` against
``A``'s cached inverse reach the unit roundoff: a diagonal ``g'(u)`` has
``q = max|g'(u)| / sigma_min(A)``, and a zero Jacobian has ``q = 0``, so
its velocity is ``-f``.  A Jacobian that a map declares in a basis,
``g'(u) = B diag(d) B^T``, is solved in rank ``r`` by Sherman-Morrison-
Woodbury, with one ``r x r`` Cholesky factor per stage, in a run whose
rounding gate opens.  Every other stage computes
``phi(u) = -(A + g'(u))^{-1} (A f)`` with one factorization of
``A + g'(u)``: a lower Cholesky factor where a diagonal ``g'(u)`` on a
self-adjoint ``A`` admits one, and an LU otherwise.  See
:func:`dsmflow.model.newton_velocity`.

Each RK stage is :func:`~dsmflow.model.newton_velocity`: ``velocity(u, f)``
after ``residual(u)``, the two halves that ``model._stage`` builds once
per run, so that ``A``'s pivot test and cached facts are read once per
run, not once per stage.  ``residual`` checks the point and ``f``, and
``velocity`` the solve, each through its own fault signal.  The run
starts from ``residual(u0)`` alone: a start residual whose norm
overflows, or one already below the stop, ends the run before any
velocity is solved.  The step loop adds no check: its error norm and
trust-ball distance reduce arrays the stages have already checked.
Recording a point evaluates no ``g``: the residual
``F(u) = (L+eps*I) u + g(u)`` reuses the ``g(u)`` of the stage that
computed the accepted point, bitwise what
:func:`~dsmflow.model.full_residual` gives.  A finite sum of squares
proves it finite and gives its norm; any other sum goes to
:func:`~dsmflow.hilbert.norm`'s check.

Along exact trajectories the preconditioned residual norm
``p(t) = |u(t) + (L+eps*I)^{-1} g(u(t))|`` obeys ``p(t) = p(0) e^{-t}``,
so the deviation of the recorded ``p`` from that law measures integrator
error and nothing else.

:func:`integrate` is the run driver.  It owns what every run needs: the
stop test, the end time (``cfg.t_max``, or an explicit ``until``),
recording every ``sample_stride``, the trust-ball check, the decay
deviation and the step counters.  Every run ends through one exit, which
records the final point and builds the one :class:`FlowResult`.  How a
step is taken is the integrator's alone: :func:`_first_step` sizes the
first one, and each :func:`_dopri_step` is one attempt of an embedded
Dormand-Prince 5(4) pair with the first-same-as-last property and PI
step-size control.  The pair is written out in full here rather than
delegated, because the decay self-check is only meaningful if the
stepping logic it certifies is the one in this file.

The stages live in one Fortran-ordered ``(n, 7)`` stage matrix ``k``, a
column per stage, so the leading columns ``k[:, :i]`` are one contiguous
block.  Every linear combination of the stages is then one BLAS ``dgemv``
on such a block, with no copy: each stage input ``u + h * k[:, :i] a_i``,
the new point, and the error vector ``h * k (b5 - b4)``.  The run carries
``|u|`` from one accepted step to the next for the error scale.  ``dgemv``
scales and sums in its own order, so the step agrees with
``u + h * (a_i @ k)`` to rounding, not bitwise.  A tableau with more
stages fills the same layout with more columns.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import ddot, dgemv

from .errors import FlowFailed
from .hilbert import norm
from .model import _stage
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
    sit exactly there, and the CLI refuses a pair below it.  That condition
    is necessary, not sufficient: ``sector_blocks`` at dims 100 and above
    reaches ``t_max`` with the defaults, its decay deviation several times
    ``p_stop``.  The step-error scale of a component ``u_i`` is
    ``abs_tol + rel_tol * |u_i|`` with ``abs_tol = 1e-2 * rel_tol``.
    ``sample_stride`` is the trajectory recording interval in flow time; a
    stride that would record more than ``_MAX_STEPS`` points up to
    ``t_max`` is refused.
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
        if self.t_max / self.sample_stride > _MAX_STEPS:
            # the record loop steps once per stride, so such a stride would
            # spin in it for t / sample_stride turns
            raise ValueError(
                f"sample_stride {self.sample_stride:g} would record more than "
                f"{_MAX_STEPS} points up to t_max={self.t_max:g}")

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
    r = problem.shifted.entries @ u + gu
    rr = ddot(r, r)
    # a finite sum of squares proves r finite, and its root is bitwise
    # norm(r); any other sum takes norm's check and its error, and an
    # overflow warns in neither
    return TrajectoryPoint(t=t, u=u.copy(), p=p,
                           residual_F=math.sqrt(rr) if math.isfinite(rr) else norm(r), step=h)


def _first_step(residual, velocity, u, v, rel_tol, t_end):
    """The classic two-probe estimate of a first step from ``u``, at most ``t_end``.

    ``v`` is the velocity at ``u``; the probe runs one more stage, through
    the stage's two halves ``residual`` and ``velocity``.
    """
    scale = 1e-2 * rel_tol + rel_tol * np.abs(u)
    d0 = float(np.linalg.norm(u / scale) / np.sqrt(u.size))
    d1 = float(np.linalg.norm(v / scale) / np.sqrt(u.size))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    x = u + h0 * v
    v_probe = velocity(x, residual(x)[0])
    d2 = float(np.linalg.norm((v_probe - v) / scale) / np.sqrt(u.size)) / h0
    h1 = max(1e-6, h0 * 1e-3) if max(d1, d2) <= 1e-15 else (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, t_end)


def _dopri_step(residual, velocity, u, au, k, h, errold, rel_tol):
    """One Dormand-Prince 5(4) attempt of size ``h`` from ``u``, whose ``|u|`` is ``au``.

    Each stage is ``velocity(x, f)`` after ``residual(x)``, the halves
    ``model._stage`` builds.  ``k`` is the Fortran-ordered ``(n, 7)``
    stage matrix: column ``j`` holds stage ``j``'s velocity, and column 0
    the velocity at ``u``; the other columns are scratch.  Stage ``i``'s input
    ``u + h * sum_j a_ij k_j`` is one BLAS ``dgemv`` on the columns
    ``k[:, :i]``, which are contiguous, so nothing is copied, and which
    this attempt has already written: no column it has not written is
    read.  ``u_new`` is the same product with the weights ``b5`` on the
    first six columns, and the error vector ``h * k @ (b5 - b4)`` one more.

    Returns ``(step, h, errold)``.  ``step`` is the accepted
    ``(u, |u|, p, g(u))``, with ``k[:, 0]`` moved to the velocity there
    (first same as last), or ``None`` for a rejection, which leaves ``u``
    and ``k[:, 0]`` as they were.  ``h`` is the size to try next, and
    ``errold`` the PI controller's memory of the last accepted error,
    which a rejection leaves as it was.
    """
    for i in range(1, 6):
        x = dgemv(h, k[:, :i], _A[i - 1], 1.0, u)
        k[:, i] = velocity(x, residual(x)[0])
    u_new = dgemv(h, k[:, :6], _A[5], 1.0, u)
    f_new, p_new, gu_new = residual(u_new)
    k[:, 6] = velocity(u_new, f_new)
    au_new = np.abs(u_new)
    q = dgemv(h, k, _ERR) / (1e-2 * rel_tol + rel_tol * np.maximum(au, au_new))
    # bitwise sqrt(mean(q**2)): np.mean is add.reduce, then a divide
    err = math.sqrt(np.add.reduce(q * q) / q.size)
    if err > 1.0:
        return None, h * max(0.1, _SAFETY * err ** -0.2), errold
    k[:, 0] = k[:, 6]
    # PI controller
    fac = _SAFETY * err ** (-_EXPO) * errold ** _BETA if err > 0.0 else _MAX_FACTOR
    return ((u_new, au_new, p_new, gu_new), h * min(_MAX_FACTOR, max(_MIN_FACTOR, fac)),
            max(err, 1e-4))


def integrate(problem, cfg=None, *, trust=None, until=None):
    """Integrate the Newton flow from ``problem.u0``.

    ``trust`` is an optional trust-condition certificate from
    :func:`dsmflow.model.certify_newton_bound` or
    :func:`dsmflow.model.check_trust_condition`.  When it is present and
    passed, leaving the trust ball is treated as a hard failure
    (status LEFT_BALL); without it the exit time is recorded but the run
    continues, since no guarantee was promised.

    ``until``, a flow time in ``(0, cfg.t_max]``, ends the run at that time
    in place of ``cfg.t_max`` (status T_MAX_REACHED, with a message that
    names the stop time, not ``t_max``), and the run stops
    early only at the residual floor 1e-14, not at ``cfg``'s stops.  A
    value outside that range raises ``ValueError`` before any stage runs.

    Returns a :class:`FlowResult` whose last trajectory point is the final
    state ``(t_final, u_final)``; raises :class:`FlowFailed` for step-size
    collapse or step-budget exhaustion, with that result attached, and,
    before the first step and with no result, for a start point whose
    residual norm ``p(0)`` is not finite: a finite ``f`` whose squares
    overflow, which every stop would otherwise read as already met.
    """
    cfg = cfg or FlowConfig()
    end = cfg.t_max if until is None else until
    if not 0.0 < end <= cfg.t_max:
        raise ValueError(f"until must lie in (0, t_max={cfg.t_max}], got {until}")
    residual, velocity = _stage(problem)
    u = problem.u0.copy()
    f, p, gu = residual(u)
    p0 = p
    if not math.isfinite(p0):
        # a finite f whose squares overflow: no stop or decay test can compare with it
        raise FlowFailed(f"start residual norm |f(u0)| overflows to {p0}; "
                         f"nothing to integrate against")
    stop_at = cfg.stop_at(p0) if until is None else _P_STOP_FLOOR
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

    v = velocity(u, f)
    h = _first_step(residual, velocity, u, v, cfg.rel_tol, end)
    errold = 1e-4
    next_record = cfg.sample_stride
    k = np.empty((u.size, 7), order="F")
    k[:, 0] = v
    au = np.abs(u)

    for _ in range(_MAX_STEPS):
        if h < _STEP_FLOOR:
            return finish(FlowStatus.STEP_FAILURE,
                          f"step size collapsed to {h:.3e} at t={t:.6f}")
        h = min(h, end - t)
        step, h_next, errold = _dopri_step(residual, velocity, u, au, k, h, errold, cfg.rel_tol)
        if step is None:
            n_rejected += 1
            h = h_next
            continue

        # h stays the accepted size until the next one is taken up
        t += h
        u, au, p, gu = step
        n_accepted += 1

        deviation = max(deviation, abs(p - p0 * np.exp(-t)) / p0)

        if enforce_ball or left_ball_at is None:
            # bitwise hilbert.norm, without its check: the stage at u checked it
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
        if t >= end - 1e-12:
            what = "t_max" if until is None else "stop time t"
            return finish(FlowStatus.T_MAX_REACHED,
                          f"reached {what}={end} with residual {p:.3e}")
        if t >= next_record - 1e-12:
            trajectory.append(_point(problem, t, u, p, gu, h))
            while next_record <= t + 1e-12:
                next_record += cfg.sample_stride
        h = h_next

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
