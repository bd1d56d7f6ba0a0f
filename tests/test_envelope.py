"""The CLI's outcome over its input domain: one row per (command, builtin, dim, flags).

Each row names the outcome class it should have:

- ``converged``: exit 0;
- ``refused``: a typed error before the flow takes its first step;
- ``exploratory``: exit 2, with the certificate that failed.

A row whose outcome today is another class is a defect: it is marked
``xfail(strict=True)`` with today's outcome as its reason, so the change
that mends it must flip the row.  Today's defects are ``t_max`` (the flow
ends at ``t_max``), ``collapse`` (the step size collapses) and
``inner_failed`` (a continuation level's inner flow does not converge).

At ``epsilon = 0``, ``ill_conditioned``'s start cannot stay in its trust
ball from dim 3 up, since ``|v0| = p0`` grows to about 1e9 by dim 9, so
those rows should be refused or exploratory, not converged.

Everything runs in-process through :func:`dsmflow.cli.main`.
"""

import numpy as np
import pytest

from dsmflow import cli, flow
from dsmflow.continuation import EpsSchedule, solve_minimal_norm
from dsmflow.errors import DsmError, FlowFailed, InnerSolveFailed
from dsmflow.model import DsmProblem
from dsmflow.problems import make_map
from evidence import diagonal_operator

CONVERGED, REFUSED, EXPLORATORY = "converged", "refused", "exploratory"


def _outcome(monkeypatch, capsys, argv):
    """The outcome class of ``dsmflow <argv>``, from its exit code, error and steps."""
    errors, steps = [], []
    code_for, first_step = cli._code_for, flow._first_step
    monkeypatch.setattr(cli, "_code_for", lambda exc: errors.append(exc) or code_for(exc))
    monkeypatch.setattr(flow, "_first_step", lambda *a: steps.append(1) or first_step(*a))
    code = cli.main(argv)
    out = capsys.readouterr().out
    if code == cli.EXIT_OK:
        return CONVERGED
    if code == cli.EXIT_CERT_FAILED:
        return EXPLORATORY
    if "status=t_max_reached" in out:
        return "t_max"
    (exc,) = errors
    if isinstance(exc, InnerSolveFailed):
        return "inner_failed"
    if isinstance(exc, FlowFailed) and "step size collapsed" in str(exc):
        return "collapse"
    if isinstance(exc, DsmError) and not steps:
        return REFUSED
    return f"error: {exc!r}"


def _row(command, builtin, dim, wanted, defect=None, flags=(), overflows=False):
    """One table row; ``defect`` names today's outcome where it is not ``wanted``.

    Only a row that ``overflows`` on purpose runs with numpy's overflow
    warning off; every other row runs with ``RuntimeWarning`` as an error.
    """
    marks = () if defect is None else (pytest.mark.xfail(strict=True, raises=AssertionError,
                                                         reason=defect),)
    if overflows:
        marks += (pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning"),)
    label = "-".join([command, builtin, *(() if dim is None else (str(dim),)), *flags])
    return pytest.param(command, builtin, dim, flags, wanted, marks=marks, id=label)


ROWS = [
    # one converged row per builtin, each builtin's smallest dim, and 256,
    # the largest dim measured
    _row("solve", "wellposed_cubic", 10, {CONVERGED}),
    _row("solve", "wellposed_cubic", 1, {CONVERGED}),
    _row("solve", "wellposed_cubic", 256, {CONVERGED}),
    _row("solve", "sector_blocks", 64, {CONVERGED}),
    _row("solve", "sector_blocks", 2, {CONVERGED}),
    _row("solve", "ill_conditioned", 1, {CONVERGED}),
    _row("continue", "singular_monotone", 10, {CONVERGED}),
    _row("continue", "singular_monotone", 2, {CONVERGED}),
    _row("continue", "singular_canonical", None, {CONVERGED}),
    # an unshifted singular L is refused by A's pivot test, and a shift
    # makes it invertible
    _row("solve", "singular_monotone", 10, {REFUSED}),
    _row("solve", "singular_monotone", 10, {CONVERGED}, flags=("--epsilon", "0.01")),
    # a shifted singular L under range_cubic's Jacobian: both certificates
    # take the sampled route, and each stage solves in the basis's rank
    _row("solve", "singular_monotone", 10, {CONVERGED},
         flags=("--cubic-scale", "0.1", "--epsilon", "0.01")),
    # the benchmark's pinned range_cubic continuations, whose stages take the
    # low-rank route
    _row("continue", "singular_monotone", 20, {CONVERGED},
         flags=("--rank", "10", "--cubic-scale", "0.1", "--seed", "42")),
    _row("continue", "singular_monotone", 40, {CONVERGED},
         flags=("--rank", "20", "--cubic-scale", "0.1", "--seed", "0")),
    # f(u0) is finite but its squares overflow: refused before the first step
    _row("solve", "singular_monotone", 3, {REFUSED},
         flags=("--rank", "1", "--cubic-scale", "1e300", "--epsilon", "0.1"), overflows=True),
    _row("solve", "ill_conditioned", 2, {CONVERGED}, "t_max: p_final 3.0e-9 at t = 30"),
    _row("solve", "ill_conditioned", 6, {REFUSED, EXPLORATORY},
         "t_max: p_final 2.0e-4 at t = 30, trust=FAIL, exit 1"),
    _row("solve", "ill_conditioned", 9, {REFUSED, EXPLORATORY},
         "collapse: step size 7.7e-15 at t = 0"),
    _row("solve", "ill_conditioned", 10, {REFUSED, EXPLORATORY},
         "collapse: step size 3.5e-15 at t = 0"),
    _row("solve", "ill_conditioned", 11, {REFUSED, EXPLORATORY},
         "collapse: step size 2.2e-15 at t = 0"),
    # A's pivot test refuses the Hilbert matrix from dim 12
    _row("solve", "ill_conditioned", 12, {REFUSED, EXPLORATORY}),
    _row("solve", "sector_blocks", 100, {CONVERGED}, "t_max: p_final 1.4e-9 at t = 30"),
    _row("solve", "sector_blocks", 128, {CONVERGED}, "t_max: p_final 4.3e-10 at t = 30"),
    _row("solve", "sector_blocks", 200, {CONVERGED}, "t_max: p_final 1.5e-9 at t = 30"),
    _row("continue", "ill_conditioned", 2, {CONVERGED},
         "inner_failed: step 8 ends at t_max, residual 1.2e-11"),
    _row("continue", "ill_conditioned", 6, {CONVERGED},
         "inner_failed: step 11 ends at t_max, residual 5.2e-10"),
    _row("continue", "ill_conditioned", 12, {CONVERGED},
         "inner_failed: step 14 ends at t_max, residual 7.5e-11"),
]


@pytest.mark.parametrize("command, builtin, dim, flags, wanted", ROWS)
def test_cli_outcome(monkeypatch, capsys, command, builtin, dim, flags, wanted):
    argv = [command, "--builtin", builtin, *(() if dim is None else ("--dim", str(dim))), *flags]
    assert _outcome(monkeypatch, capsys, argv) in wanted


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="inner_failed: level 7 (eps = 7.8e-3) ends at t_max, residual 2.764e-11")
def test_continuation_on_a_diagonal_with_a_tiny_and_a_zero_eigenvalue():
    # L = diag(1, 1e-8, 0) with a constant g: the inner flow's absolute stop
    # 1e-11 lies below what a shallow level reaches by t_max
    problem = DsmProblem(L=diagonal_operator([1.0, 1e-8, 0.0]),
                         g=make_map("constant", 3, {"offset": [-1.0, -1e-8, 0.0]}),
                         u0=np.zeros(3), radius=4.0)
    try:
        solve_minimal_norm(problem, EpsSchedule())
    except InnerSolveFailed as exc:
        outcome = f"inner_failed: {exc}"
    else:
        outcome = CONVERGED
    assert outcome == CONVERGED
