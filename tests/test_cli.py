"""Command-line interface tests: exit codes, artifacts, flag precedence.

Everything runs in-process through ``main(argv)`` so exit codes and
stdout are asserted directly.
"""

import functools
import inspect
import json

import numpy as np
import pytest

from dsmflow import cli, continuation
from dsmflow.cli import (EXIT_CERT_FAILED, EXIT_ERROR, EXIT_MONOTONE, EXIT_OK,
                         _write_continuation_csv, _write_json, _write_trajectory_csv, main)
from dsmflow.continuation import EpsSchedule, solve_minimal_norm, solve_newton_flow
from dsmflow.flow import FlowConfig, integrate
from dsmflow.hilbert import DenseOperator, norm
from dsmflow.model import DsmProblem, preconditioned_residual
from dsmflow.problems import (BUILTINS, _verify_tags, ill_conditioned, make_map, save_problem,
                              sector_blocks, singular_canonical, singular_monotone,
                              wellposed_cubic)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- solve ---------------------------------------------------------------------


def test_solve_wellposed_success(tmp_path, capsys):
    out = tmp_path / "art"
    code, stdout, _ = run(capsys, "solve", "--builtin", "wellposed_cubic",
                          "--dim", "6", "--out", str(out))
    assert code == EXIT_OK
    assert "status=residual_converged" in stdout
    assert "trust=pass" in stdout
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "residual_converged"
    assert abs(report["fitted_rate"] + 1.0) < 1e-4
    assert report["residual_shifted"] <= report["residual_bound"]
    certs = json.loads((out / "certificates.json").read_text())
    assert certs["trust_condition"]["passed"] is True
    traj = (out / "trajectory.csv").read_text().splitlines()
    assert traj[0] == "t,p,residual_F,u_norm,step"
    assert len(traj) > 10


def test_solve_artifacts_are_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        code, _, _ = run(capsys, "solve", "--builtin", "wellposed_cubic",
                         "--dim", "5", "--out", str(out))
        assert code == EXIT_OK
    for name in ("report.json", "trajectory.csv", "certificates.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_solve_singular_without_shift_fails_cleanly(capsys):
    code, stdout, _ = run(capsys, "solve", "--builtin", "singular_monotone",
                          "--dim", "5", "--epsilon", "0")
    assert code == EXIT_ERROR
    assert "error" in stdout


@pytest.mark.parametrize("argv", [
    ("continue",), ("solve", "--epsilon", "0.1")], ids=["continue", "solve"])
def test_a_start_residual_that_overflows_is_one_error(capsys, argv):
    # cubic scale 1e300 leaves f(u0) finite and f.f infinite: the flow refuses
    # it before its first step instead of reading p0 = inf as converged.  The
    # norms on the way, BLAS ddot, overflow to inf without a RuntimeWarning,
    # which tests/conftest.py turns into an error
    code, stdout, stderr = run(capsys, argv[0], "--builtin", "singular_monotone", "--dim", "3",
                               "--rank", "1", "--cubic-scale", "1e300", *argv[1:])
    assert code == EXIT_ERROR and stderr == ""
    (line,) = stdout.splitlines()
    assert "error: " in line and "start residual norm |f(u0)| overflows to inf" in line


def test_solve_singular_with_shift_succeeds(capsys):
    code, stdout, _ = run(capsys, "solve", "--builtin", "singular_monotone",
                          "--dim", "5", "--epsilon", "0.1")
    assert code == EXIT_OK


def test_solve_batch_dims_preserves_order(tmp_path, capsys):
    out = tmp_path / "batch"
    code, stdout, _ = run(capsys, "solve", "--builtin", "wellposed_cubic",
                          "--dim", "3,5", "--out", str(out))
    assert code == EXIT_OK
    lines = [ln for ln in stdout.splitlines() if ln.startswith("wellposed")]
    assert lines[0].startswith("wellposed_cubic[dim=3]")
    assert lines[1].startswith("wellposed_cubic[dim=5]")
    # per-problem artifact subdirectories
    assert (out / "wellposed_cubic_dim=3" / "report.json").exists()
    assert (out / "wellposed_cubic_dim=5" / "report.json").exists()


def test_epsilon_shifts_a_problem_from_a_file_as_it_shifts_a_builtin(tmp_path, capsys):
    path = tmp_path / "wp4.json"
    built = wellposed_cubic(4)
    save_problem(built.problem, path, name="wp4", tags=built.tags)
    lines = {}
    for source in (("--problem", str(path)), ("--builtin", "wellposed_cubic", "--dim", "4")):
        code, stdout, _ = run(capsys, "solve", *source, "--epsilon", "5")
        assert code == EXIT_OK
        lines[source[0]] = stdout.split(": ", 1)[1]
    assert lines["--problem"] == lines["--builtin"]
    assert "t=21.2121" in lines["--problem"]


# -- continue --------------------------------------------------------------------


def test_continue_writes_reference_distance(tmp_path, capsys):
    out = tmp_path / "cont"
    code, stdout, _ = run(capsys, "continue", "--builtin", "singular_monotone",
                          "--dim", "5", "--rank", "3", "--out", str(out))
    assert code == EXIT_OK
    assert "norms_monotone=ok" in stdout and "stop=settled" in stdout
    report = json.loads((out / "report.json").read_text())
    # the extrapolant to eps = 0 settles before --eps-count's 20 levels run out
    levels = len(report["eps_values"])
    assert 6 <= levels < 20
    assert report["stop"] == "settled"
    assert report["v_limit"] == report["v_extrapolated"]
    limit_norm = norm(np.array(report["v_limit"]))
    assert report["extrapolation_error_estimate"] <= 1e-9 * (1.0 + limit_norm)
    assert report["residual_extrapolated"] <= 1e-8
    assert report["limit_distance_to_reference"] <= 1e-8
    assert report["norms_monotone_ok"] is True
    csv = (out / "continuation.csv").read_text().splitlines()
    assert csv[0] == "eps,norm_v,residual_full,increment,inner_steps"
    assert len(csv) == levels + 1


def _condition_limited_problem(path):
    # the eigenvalues spread over decades keep the extrapolant from settling
    # before a ratio-0.1 schedule passes the shifted conditioning limit
    lam = np.array([1.0, 1e-3, 1e-6, 1e-9, 0.0])
    L = DenseOperator(np.diag(lam), self_adjoint=True, psd_claimed=True)
    g = make_map("constant", 5, {"offset": -0.4 * lam})
    save_problem(DsmProblem(L=L, g=g, u0=np.zeros(5), radius=4.0), path, name="spread")
    return ("--problem", str(path), "--eps-ratio", "0.1", "--eps-floor", "1e-16")


@pytest.mark.parametrize("source, stop, levels", [
    (lambda tmp: ("--builtin", "singular_monotone", "--dim", "5", "--rank", "3"),
     "settled", 10),
    (lambda tmp: _condition_limited_problem(tmp / "spread.json"), "condition_limit", 12),
    (lambda tmp: ("--builtin", "singular_canonical", "--eps-count", "4"),
     "schedule_end", 4),
], ids=["settled", "condition-limit", "schedule-end"])
def test_continue_reports_its_stop_reason(tmp_path, capsys, source, stop, levels):
    out = tmp_path / "cont"
    code, stdout, _ = run(capsys, "continue", *source(tmp_path), "--out", str(out))
    assert code == EXIT_OK
    assert f" stop={stop} " in stdout
    report = json.loads((out / "report.json").read_text())
    assert report["stop"] == stop
    assert len(report["eps_values"]) == levels
    assert (report["v_limit"] == report["v_extrapolated"]) == (stop == "settled")
    assert ("condition estimate" in report["truncation_note"]) == (stop == "condition_limit")
    assert (f"note: {report['truncation_note']}" in stdout) == (stop == "condition_limit")


def test_continue_eps_floor_clamps_schedule(tmp_path, capsys):
    out = tmp_path / "cont2"
    code, stdout, _ = run(capsys, "continue", "--builtin", "singular_monotone",
                          "--dim", "4", "--rank", "2",
                          "--eps-floor", "0.01", "--out", str(out))
    assert code == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    # 0.5^7 < 0.01: seven geometric values, then the floor itself
    assert report["eps_values"][-1] == 0.01
    assert len(report["eps_values"]) == 8


def test_continue_rejects_explicit_epsilon(capsys):
    # every level replaces the shift, so an explicit one would have no effect
    code, stdout, stderr = run(capsys, "continue", "--builtin", "singular_canonical",
                               "--eps-count", "3", "--epsilon", "0.5")
    assert code == EXIT_ERROR
    assert stdout == ""
    assert "--epsilon" in stderr


def test_continue_config_may_name_epsilon(tmp_path, capsys):
    # config values are defaults, which the schedule replaces
    cfgfile = tmp_path / "conf.json"
    cfgfile.write_text(json.dumps({"epsilon": 0.5}))
    argv = ("continue", "--builtin", "singular_canonical", "--eps-count", "3")
    code, stdout, _ = run(capsys, *argv, "--config", str(cfgfile))
    assert code == EXIT_OK
    assert (code, stdout) == run(capsys, *argv)[:2]


def test_continue_requires_psd_operator(capsys):
    code, stdout, _ = run(capsys, "continue", "--builtin", "sector_blocks",
                          "--dim", "4")
    assert code == EXIT_CERT_FAILED


def test_continue_monotonicity_failure_exit_code(tmp_path, capsys):
    doc = {
        "name": "antitone", "dim": 2,
        "L": {"rows": [[1.0, 0.0], [0.0, 1.0]],
              "flags": ["self_adjoint", "psd"]},
        "g": {"builtin": "linear",
              "params": {"matrix": [[-2.0, 0.0], [0.0, -2.0]],
                         "offset": [0.1, 0.1]}},
        "u0": [0.0, 0.0], "radius": 1.0, "tags": [],
    }
    path = tmp_path / "antitone.json"
    path.write_text(json.dumps(doc))
    code, stdout, _ = run(capsys, "continue", "--problem", str(path))
    assert code == EXIT_MONOTONE


@pytest.mark.parametrize("argv, stop", [
    (("solve", "--builtin", "wellposed_cubic", "--dim", "4", "--rel-tol", "1e-6"),
     "--p-stop 1e-09"),
    (("solve", "--builtin", "wellposed_cubic", "--dim", "4", "--p-stop", "1e-12"),
     "--p-stop 1e-12"),
    (("oracle-check", "--builtin", "wellposed_cubic", "--dim", "4", "--rel-tol", "1e-6"),
     "--p-stop 1e-09"),
    (("continue", "--builtin", "singular_monotone", "--dim", "10", "--eps-count", "6",
      "--rel-tol", "1e-9"), "absolute stop 1e-11"),
    (("continue", "--builtin", "singular_canonical", "--p-stop", "1e-12"),
     "--p-stop 1e-12"),
], ids=["solve-rel-tol", "solve-p-stop", "oracle-check-rel-tol", "continue-rel-tol",
        "continue-p-stop"])
def test_stop_below_the_noise_floor_is_refused_before_integrating(capsys, monkeypatch,
                                                                  argv, stop):
    # a stop below 0.1 * rel_tol lies under the integrator's noise floor, so
    # the run would end at t_max; it is refused before any flow runs
    monkeypatch.setattr(continuation, "integrate",
                        lambda *args, **kwargs: pytest.fail("integrated"))
    code, stdout, stderr = run(capsys, *argv)
    assert code == EXIT_ERROR
    assert stdout == ""
    assert stop in stderr and "--rel-tol" in stderr and "--p-stop" in stderr


@pytest.mark.parametrize("argv", [
    ("solve", "--builtin", "wellposed_cubic", "--dim", "4", "--rel-tol", "1e-6",
     "--p-stop", "1e-7"),
    ("continue", "--builtin", "singular_monotone", "--dim", "10", "--eps-count", "6",
     "--rel-tol", "1e-10"),
], ids=["solve-at-the-floor", "continue-inner-defaults"])
def test_stop_at_the_noise_floor_runs(capsys, argv):
    code, _, stderr = run(capsys, *argv)
    assert code == EXIT_OK
    assert stderr == ""


# -- CLI defaults are the library defaults ---------------------------------------


@pytest.mark.parametrize("argv, key, library", [
    (("solve", "--builtin", "wellposed_cubic", "--dim", "6"), "u_final",
     lambda: solve_newton_flow(wellposed_cubic(6).problem).v),
    (("continue", "--builtin", "singular_canonical"), "v_limit",
     lambda: solve_minimal_norm(singular_canonical().problem).v_limit),
    # abs_tol follows rel_tol; p_stop stays above the looser noise floor
    (("solve", "--builtin", "wellposed_cubic", "--dim", "6", "--rel-tol", "1e-6",
      "--p-stop", "1e-6"), "u_final",
     lambda: solve_newton_flow(wellposed_cubic(6).problem,
                               FlowConfig(rel_tol=1e-6, p_stop=1e-6)).v),
], ids=["solve", "continue", "solve-rel-tol"])
def test_cli_defaults_give_the_library_result(tmp_path, capsys, argv, key, library):
    code, _, _ = run(capsys, *argv, "--out", str(tmp_path))
    assert code == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert np.array_equal(report[key], library())


# -- certify ----------------------------------------------------------------------


def test_certify_builtin_passes(capsys):
    code, stdout, _ = run(capsys, "certify", "--builtin", "singular_canonical")
    assert code == EXIT_OK
    for tag in ("self_adjoint_psd", "monotone_g", "singular"):
        assert f"tag={tag} pass" in stdout


# what the CLI must build at its defaults (--dim 10 --seed 42 --scale 0.1
# --cubic-scale 0), written out call by call
_CLI_DEFAULT_BUILDS = {
    "wellposed_cubic": lambda: wellposed_cubic(10, scale=0.1, seed=42),
    "singular_monotone": lambda: singular_monotone(10, 5, seed=42, cubic_scale=0.0),
    "singular_canonical": singular_canonical,
    "ill_conditioned": lambda: ill_conditioned(10, scale=0.1, seed=42),
    "sector_blocks": lambda: sector_blocks(10, seed=42, scale=0.1),
}


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_certify_every_builtin_matches_its_generator(name, tmp_path, capsys):
    out = tmp_path / "cli"
    code, stdout, _ = run(capsys, "certify", "--builtin", name, "--out", str(out))
    assert code == EXIT_OK
    direct = _CLI_DEFAULT_BUILDS[name]()
    _write_json(direct.certificates, tmp_path / "direct.json")
    assert ((out / "certificates.json").read_bytes()
            == (tmp_path / "direct.json").read_bytes())
    for tag in direct.tags:
        assert f"tag={tag} pass" in stdout


@pytest.mark.parametrize("seed", [42, 7])
def test_certify_shifted_builtin_verifies_the_shifted_problem(seed, tmp_path, capsys):
    # wellposed_cubic's trust_condition quantities depend on the shift
    out = tmp_path / "cli"
    code, stdout, _ = run(capsys, "certify", "--builtin", "wellposed_cubic", "--dim", "5",
                          "--seed", str(seed), "--epsilon", "0.5", "--out", str(out))
    assert code == EXIT_OK
    for tag in ("invertible", "trust_condition", "self_adjoint_psd", "monotone_g"):
        assert f"tag={tag} pass" in stdout
    built = wellposed_cubic(5, scale=0.1, seed=seed)
    shifted = built.problem.with_epsilon(0.5)
    _write_json(_verify_tags(shifted, built.tags), tmp_path / "direct.json")
    _write_json(built.certificates, tmp_path / "unshifted.json")
    written = (out / "certificates.json").read_bytes()
    assert written == (tmp_path / "direct.json").read_bytes()
    assert written != (tmp_path / "unshifted.json").read_bytes()
    trust = json.loads(written)["trust_condition"]["quantities"]
    assert trust["p0"] == norm(preconditioned_residual(shifted, shifted.u0))
    assert trust["p0"] != built.certificates["trust_condition"].quantities["p0"]


def test_certify_dimensionless_builtin_is_built_once(tmp_path, capsys):
    out = tmp_path / "canon"
    code, stdout, _ = run(capsys, "certify", "--builtin", "singular_canonical",
                          "--dim", "3,5", "--out", str(out))
    assert code == EXIT_OK
    for tag in ("self_adjoint_psd", "monotone_g", "singular"):
        assert stdout.count(f"tag={tag} pass") == 1
    # one problem, so its artifacts go straight into --out
    assert sorted(p.name for p in out.iterdir()) == ["certificates.json"]


@pytest.mark.parametrize("argv, flags", [
    (("wellposed_cubic", "--dim", "3", "--rank", "2", "--cubic-scale", "5"),
     ("--rank", "--cubic-scale")),
    (("singular_canonical", "--scale", "9"), ("--scale",)),
], ids=["wellposed_rank_cubic_scale", "canonical_scale"])
def test_certify_rejects_flags_the_builtin_does_not_take(capsys, argv, flags):
    code, stdout, stderr = run(capsys, "certify", "--builtin", *argv)
    assert code == EXIT_ERROR
    assert stdout == ""
    for flag in flags:
        assert flag in stderr


def test_config_may_name_flags_the_builtin_does_not_take(tmp_path, capsys):
    # config values are defaults, so one file can serve every builtin
    cfgfile = tmp_path / "conf.json"
    cfgfile.write_text(json.dumps({"rank": 2}))
    code, stdout, _ = run(capsys, "certify", "--builtin", "wellposed_cubic",
                          "--dim", "3", "--config", str(cfgfile))
    assert code == EXIT_OK
    assert "wellposed_cubic[dim=3]: tag=" in stdout


def test_builtin_flags_are_the_generators_parameters():
    params = {key for generator in BUILTINS.values()
              for key in inspect.signature(generator).parameters}
    assert set(cli._BUILTIN_FLAGS) == params - {"dim"}
    # their defaults are the generators' own, not a second copy here
    assert not set(cli._BUILTIN_FLAGS) & set(cli._DEFAULTS)


def test_generator_receives_only_the_builtin_flags_that_are_set(tmp_path, capsys, monkeypatch):
    real = BUILTINS["singular_monotone"]
    seen = []

    @functools.wraps(real)
    def spy(*args, **kwargs):
        seen.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setitem(BUILTINS, "singular_monotone", spy)
    cfgfile = tmp_path / "conf.json"
    # scale is not singular_monotone's, and null leaves a flag to its generator
    cfgfile.write_text(json.dumps({"rank": 2, "scale": 0.5, "seed": None}))
    argv = ("certify", "--builtin", "singular_monotone", "--dim", "4")
    outputs = [run(capsys, *argv, *extra)
               for extra in ((), ("--seed", "42"), ("--seed", "3", "--config", str(cfgfile)))]
    assert seen == [{}, {"seed": 42}, {"seed": 3, "rank": 2}]
    assert outputs[0] == outputs[1] and outputs[0][0] == EXIT_OK


def test_certify_loaded_problem_recomputes_tags(tmp_path, capsys):
    # file claims invertibility for a singular operator: caught on certify
    doc = {
        "name": "liar", "dim": 2,
        "L": {"rows": [[1.0, 0.0], [0.0, 0.0]],
              "flags": ["self_adjoint", "psd"]},
        "g": {"builtin": "zero", "params": {}},
        "u0": [0.0, 0.0], "radius": 1.0,
        "tags": ["invertible"],
    }
    path = tmp_path / "liar.json"
    path.write_text(json.dumps(doc))
    code, stdout, _ = run(capsys, "certify", "--problem", str(path))
    assert code == EXIT_CERT_FAILED
    assert "invertible" in stdout
    # a linear map whose matrix has an indefinite symmetric part declares a
    # negative Jacobian floor, so its monotone_g claim fails
    doc.update(L={"rows": [[1.0, 0.0], [0.0, 1.0]]}, tags=["monotone_g"],
               g={"builtin": "linear", "params": {"matrix": [[1.0, 3.0], [0.0, 1.0]]}})
    path.write_text(json.dumps(doc))
    code, stdout, _ = run(capsys, "certify", "--problem", str(path))
    assert code == EXIT_CERT_FAILED
    assert "tag 'monotone_g' failed: {'min_jacobian_eigenvalue': -0.49999" in stdout


# -- oracle-check --------------------------------------------------------------------


def test_oracle_check_agreement(capsys):
    code, stdout, _ = run(capsys, "oracle-check", "--builtin",
                          "wellposed_cubic", "--dim", "3,5")
    assert code == EXIT_OK
    lines = [ln for ln in stdout.splitlines() if "|flow - newton|" in ln]
    assert len(lines) == 2
    assert all("<=" in ln for ln in lines)


def test_oracle_check_impossible_tolerance(capsys):
    code, stdout, _ = run(capsys, "oracle-check", "--builtin",
                          "wellposed_cubic", "--dim", "4",
                          "--agree-tol", "1e-30")
    assert code == EXIT_ERROR
    assert ">" in stdout


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_oracle_check_refuses_a_bad_tolerance_before_solving(capsys, monkeypatch, tol):
    # no distance can meet nan, and 0 or less is never met: refused up front
    monkeypatch.setattr(cli, "solve_newton_flow",
                        lambda *args, **kwargs: pytest.fail("solved"))
    code, stdout, stderr = run(capsys, "oracle-check", "--builtin", "wellposed_cubic",
                               "--dim", "3", "--agree-tol", tol)
    assert code == EXIT_ERROR
    assert stdout == ""
    assert stderr.count("\n") == 1 and stderr.startswith("error: --agree-tol")


# -- decay-audit -----------------------------------------------------------------------


def test_decay_audit_default_levels_pass(capsys):
    code, stdout, _ = run(capsys, "decay-audit", "--builtin",
                          "wellposed_cubic", "--dim", "6")
    assert code == EXIT_OK
    assert "decay audit pass" in stdout
    assert stdout.count("rel_tol=") == 3


@pytest.mark.parametrize("levels", ["1e-6,2", "1e-6,nan", "inf", "0,1e-8", "1e-6,-1e-8"])
def test_decay_audit_refuses_bad_levels_before_building(capsys, monkeypatch, levels):
    # a rel_tol outside (0, 1) is refused up front, as a bad --agree-tol is
    monkeypatch.setattr(cli, "integrate", lambda *args, **kwargs: pytest.fail("integrated"))
    monkeypatch.setitem(cli.BUILTINS, "wellposed_cubic",
                        lambda dim, scale, seed: pytest.fail("built"))
    code, stdout, stderr = run(capsys, "decay-audit", "--builtin", "wellposed_cubic",
                               "--dim", "2,3", "--levels", levels)
    assert code == EXIT_ERROR
    assert stdout == ""
    assert stderr.count("\n") == 1 and stderr.startswith("error: --levels")


def test_decay_audit_non_monotone_levels_fail(capsys):
    code, stdout, _ = run(capsys, "decay-audit", "--builtin",
                          "wellposed_cubic", "--dim", "6",
                          "--levels", "1e-6,1e-8,1e-2")
    assert code == EXIT_ERROR
    assert "decay audit FAIL" in stdout
    assert "decreasing: False" in stdout


@pytest.mark.parametrize("argv", [("--rel-tol", "1e-3")], ids=["rel_tol"])
def test_decay_audit_rejects_explicit_tolerances(capsys, argv):
    # every level sets the tolerances, so an explicit one would have no effect
    code, stdout, stderr = run(capsys, "decay-audit", "--builtin", "wellposed_cubic",
                               "--dim", "4", *argv)
    assert code == EXIT_ERROR
    assert stdout == ""
    assert "does not take --rel-tol" in stderr


def test_decay_audit_config_may_name_tolerances(tmp_path, capsys):
    # config values are defaults, which the levels replace
    cfgfile = tmp_path / "conf.json"
    cfgfile.write_text(json.dumps({"rel_tol": 1e-3}))
    argv = ("decay-audit", "--builtin", "wellposed_cubic", "--dim", "4")
    code, stdout, _ = run(capsys, *argv, "--config", str(cfgfile))
    assert code == EXIT_OK
    assert (code, stdout) == run(capsys, *argv)[:2]


# -- configuration and errors ------------------------------------------------------------


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfgfile = tmp_path / "conf.json"
    cfgfile.write_text(json.dumps({"dim": "4", "seed": 7}))
    code, stdout, _ = run(capsys, "solve", "--builtin", "wellposed_cubic",
                          "--config", str(cfgfile))
    assert code == EXIT_OK
    assert "dim=4" in stdout


def test_flag_beats_config(tmp_path, capsys):
    cfgfile = tmp_path / "conf.json"
    cfgfile.write_text(json.dumps({"dim": "4"}))
    code, stdout, _ = run(capsys, "solve", "--builtin", "wellposed_cubic",
                          "--dim", "3", "--config", str(cfgfile))
    assert code == EXIT_OK
    assert "dim=3" in stdout and "dim=4" not in stdout


@pytest.mark.parametrize("config", [{"t-max": 0.001}, {"jobs": 2}],
                         ids=["misspelled", "removed_jobs"])
def test_unknown_config_key_is_an_error(tmp_path, capsys, config):
    cfgfile = tmp_path / "conf.json"
    cfgfile.write_text(json.dumps(config))
    code, stdout, stderr = run(capsys, "solve", "--builtin", "wellposed_cubic",
                               "--dim", "3", "--config", str(cfgfile))
    assert code == EXIT_ERROR
    assert stdout == ""
    assert "unknown config keys" in stderr
    assert repr(next(iter(config))) in stderr


@pytest.mark.parametrize("command,config", [("certify", {"seed": "3"}),
                                            ("solve", {"t_max": "5"}),
                                            ("solve", {"seed": True}),
                                            ("solve", {"seed": 3.0})],
                         ids=["certify_string_seed", "solve_string_t_max",
                              "bool_seed", "float_seed"])
def test_wrongly_typed_config_value_is_an_error(tmp_path, capsys, command, config):
    cfgfile = tmp_path / "conf.json"
    cfgfile.write_text(json.dumps(config))
    code, stdout, stderr = run(capsys, command, "--builtin", "wellposed_cubic",
                               "--dim", "3", "--config", str(cfgfile))
    assert code == EXIT_ERROR
    assert stdout == ""
    assert repr(next(iter(config))) in stderr


def test_integer_config_value_for_float_flag(tmp_path, capsys):
    cfgfile = tmp_path / "conf.json"
    cfgfile.write_text(json.dumps({"t_max": 5}))
    code, stdout, _ = run(capsys, "solve", "--builtin", "wellposed_cubic",
                          "--dim", "3", "--p-stop", "1e-2", "--config", str(cfgfile))
    assert code == EXIT_OK
    assert "status=residual_converged" in stdout


def test_missing_problem_source_is_an_error(capsys):
    code, _, stderr = run(capsys, "solve")
    assert code == EXIT_ERROR
    assert "error:" in stderr


_NOT_A_NUMBER = "has an entry that is not a number"


@pytest.mark.parametrize("fields,fragment", [
    ({"params": {"scale": 0.1}}, "needs param 'offset'"),
    ({"params": [0.1, [1.0, 2.0]]}, "field 'params' has type list"),
    ({"params": {"scale": [0.1], "offset": [0.0, 0.0]}}, "param 'scale' has type list"),
    ({"params": {"scale": 0.1, "offset": ["0.1", 0.0]}}, "param 'offset' " + _NOT_A_NUMBER),
    ({"params": {"scale": float("inf"), "offset": [0.0, 0.0]}},
     "scale must be finite and nonnegative"),
    ({"params": {"scale": float("nan"), "offset": [0.0, 0.0]}},
     "scale must be finite and nonnegative"),
    ({"u0": ["0.5", 0.0]}, "bad.json: field 'u0' " + _NOT_A_NUMBER),
    ({"u0": [True, 0.0]}, "bad.json: field 'u0' " + _NOT_A_NUMBER),
    ({"u0": [None, 0.0]}, "bad.json: field 'u0' " + _NOT_A_NUMBER),
    ({"rows": [["2", 0.0], [0.0, 1.0]]}, "bad.json: L: field 'rows' " + _NOT_A_NUMBER),
    ({"rows": [[True, 0.0], [0.0, 1.0]]}, "bad.json: L: field 'rows' " + _NOT_A_NUMBER),
    ({"rows": [[1.0, None], [0.0, 1.0]]}, "bad.json: L: field 'rows' " + _NOT_A_NUMBER),
    ({"rows": [[1.0, 0.0], [1.0]]},
     "bad.json: L: field 'rows' is ragged, not a rectangular array"),
], ids=["missing-key", "not-an-object", "scale-not-a-number", "offset-entry-a-string",
        "scale-infinite", "scale-nan", "u0-entry-a-string", "u0-entry-a-boolean",
        "u0-entry-null", "rows-entry-a-string", "rows-entry-a-boolean", "rows-entry-null",
        "rows-ragged"])
def test_malformed_map_params_in_a_problem_file_are_an_error(tmp_path, capsys, fields, fragment):
    # a well-formed cubic problem with one field replaced
    doc = {"name": "bad", "dim": 2,
           "L": {"rows": fields.get("rows", [[1.0, 0.0], [0.0, 1.0]])},
           "g": {"builtin": "cubic", "params": fields.get("params", {"scale": 0.1,
                                                                   "offset": [0.0, 0.0]})},
           "u0": fields.get("u0", [0.0, 0.0]), "radius": 1.0}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, stdout, stderr = run(capsys, "solve", "--problem", str(path))
    assert code == EXIT_ERROR
    assert stdout == ""
    assert stderr.startswith("error: ") and len(stderr.splitlines()) == 1
    assert fragment in stderr


def test_problem_file_refuses_builtin_only_flags(tmp_path, capsys):
    # these flags parameterize a builtin generator; a file fixes all of them
    path = tmp_path / "wc4.json"
    built = wellposed_cubic(4)
    save_problem(built.problem, path, name="wc4", tags=built.tags)
    for flags, named in ((("--scale", "5"), "--scale"),
                         (("--scale", "5", "--rank", "3", "--dim", "7"), "--dim, --scale, --rank"),
                         (("--cubic-scale", "0.1"), "--cubic-scale")):
        code, stdout, stderr = run(capsys, "solve", "--problem", str(path), *flags)
        assert code == EXIT_ERROR and stdout == ""
        assert stderr == f"error: --problem does not take {named}\n"


def test_problem_file_refuses_seed_for_every_command(tmp_path, capsys):
    # a file fixes the instance a seed would draw, and a certificate samples
    # one fixed cloud, so no command reads --seed with it
    path = tmp_path / "wc4.json"
    built = wellposed_cubic(4)
    save_problem(built.problem, path, name="wc4", tags=built.tags)
    for command in ("solve", "continue", "certify", "oracle-check", "decay-audit"):
        code, stdout, stderr = run(capsys, command, "--problem", str(path), "--seed", "3")
        assert code == EXIT_ERROR and stdout == ""
        assert stderr == "error: --problem does not take --seed\n"
    # a seed from --config stays a default, which a file may ignore
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"seed": 3}))
    code, stdout, _ = run(capsys, "solve", "--problem", str(path), "--config", str(config))
    assert code == EXIT_OK and "status=residual_converged" in stdout
    code, stdout, _ = run(capsys, "certify", "--problem", str(path), "--config", str(config))
    assert code == EXIT_OK and "wc4: tag=trust_condition pass" in stdout


def test_certify_file_samples_the_cloud_its_solve_samples(tmp_path, capsys):
    # sector_blocks' L is not self-adjoint, so its Newton bound is sampled;
    # a file that claims trust_condition for it certifies what solve does
    path = tmp_path / "sb8.json"
    built = sector_blocks(8)
    save_problem(built.problem, path, name="sb8", tags=built.tags + ("trust_condition",))
    code, stdout, _ = run(capsys, "certify", "--problem", str(path),
                          "--out", str(tmp_path / "certify"))
    assert code == EXIT_OK and "sb8: tag=trust_condition pass" in stdout
    code, _, _ = run(capsys, "solve", "--builtin", "sector_blocks", "--dim", "8",
                     "--out", str(tmp_path / "solve"))
    assert code == EXIT_OK
    certified, solved = (json.loads((tmp_path / out / "certificates.json").read_text())
                         for out in ("certify", "solve"))
    assert certified["newton_bound"]["detail"].startswith("route: sampled")
    for key in ("newton_bound", "trust_condition"):
        assert (json.dumps(certified[key], sort_keys=True)
                == json.dumps(solved[key], sort_keys=True))


def test_certify_file_clears_the_sector_of_a_singular_psd_operator(tmp_path, capsys):
    # singular_monotone's zero eigenvalues come out of eigvalsh as about
    # -1e-16, within the eigensolver's rounding of 0 and so outside the sector
    path = tmp_path / "sm10.json"
    built = singular_monotone(10)
    save_problem(built.problem, path, name="sm10", tags=built.tags + ("sector",))
    code, stdout, _ = run(capsys, "certify", "--problem", str(path),
                          "--out", str(tmp_path / "certify"))
    assert code == EXIT_OK and "sm10: tag=sector pass" in stdout
    sector = json.loads((tmp_path / "certify" / "certificates.json").read_text())["sector"]
    assert sector["detail"].startswith("route: eigenvalues")
    assert sector["quantities"]["margin"] > 0.0


def test_bad_dimension_list(capsys):
    code, _, stderr = run(capsys, "solve", "--builtin", "wellposed_cubic",
                          "--dim", "3,x")
    assert code == EXIT_ERROR
    assert "bad dimension list" in stderr


@pytest.mark.parametrize("epsilon", ["inf", "nan", "-1"])
def test_epsilon_must_be_finite_and_nonnegative(epsilon, capsys):
    code, stdout, stderr = run(capsys, "solve", "--builtin", "wellposed_cubic", "--dim", "2",
                               "--epsilon", epsilon)
    assert code == EXIT_ERROR and stdout == ""
    assert stderr == f"error: epsilon must be finite and nonnegative, got {float(epsilon)}\n"


def test_missing_config_file(capsys):
    code, _, stderr = run(capsys, "solve", "--builtin", "wellposed_cubic",
                          "--config", "/nonexistent/conf.json")
    assert code == EXIT_ERROR


# -- artifact writers ----------------------------------------------------------------


def test_trajectory_csv_deterministic_and_parseable(tmp_path):
    b = wellposed_cubic(4, scale=0.1, seed=16)
    res = integrate(b.problem, FlowConfig(t_max=2.0, p_stop=0.0))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    _write_trajectory_csv(res, p1)
    _write_trajectory_csv(res, p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == "t,p,residual_F,u_norm,step"
    assert len(lines) == 1 + len(res.trajectory)
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == 0.0 and first[1] == res.p0
    # 17 significant digits round-trip float64 exactly
    last = [float(x) for x in lines[-1].split(",")]
    assert last[1] == res.p_final


def test_continuation_csv_deterministic(tmp_path):
    b = singular_monotone(4, rank=2, seed=58)
    res = solve_minimal_norm(b.problem, schedule=EpsSchedule(count=5))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    _write_continuation_csv(res, p1)
    _write_continuation_csv(res, p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == "eps,norm_v,residual_full,increment,inner_steps"
    assert len(lines) == 1 + len(res.records)
    assert float(lines[1].split(",")[0]) == 1.0
    # the step count prints as an integer
    assert [line.split(",")[-1] for line in lines[1:]] == [
        str(r.inner_steps) for r in res.records]
