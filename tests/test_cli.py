"""Command-line interface tests: exit codes, artifacts, flag precedence.

Everything runs in-process through ``main(argv)`` so exit codes and
stdout are asserted directly.
"""

import json

import numpy as np
import pytest

from dsmflow import continuation
from dsmflow.cli import (EXIT_CERT_FAILED, EXIT_ERROR, EXIT_MONOTONE, EXIT_OK,
                         _write_json, main)
from dsmflow.continuation import solve_minimal_norm, solve_newton_flow
from dsmflow.flow import FlowConfig
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
    save_problem(built.problem, path, name="wp4", tags=built.spec.tags)
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
    for tag in direct.spec.tags:
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
    _write_json(_verify_tags(shifted, built.spec.tags, seed=seed), tmp_path / "direct.json")
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


# -- decay-audit -----------------------------------------------------------------------


def test_decay_audit_default_levels_pass(capsys):
    code, stdout, _ = run(capsys, "decay-audit", "--builtin",
                          "wellposed_cubic", "--dim", "6")
    assert code == EXIT_OK
    assert "decay audit pass" in stdout
    assert stdout.count("rel_tol=") == 3


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


@pytest.mark.parametrize("params,fragment", [
    ({"scale": 0.1}, "needs param 'offset'"),
    ([0.1, [1.0, 2.0]], "field 'params' has type list"),
    ({"scale": [0.1], "offset": [0.0, 0.0]}, "param 'scale' has type list"),
], ids=["missing-key", "not-an-object", "scale-not-a-number"])
def test_malformed_map_params_in_a_problem_file_are_an_error(tmp_path, capsys, params, fragment):
    doc = {"name": "bad", "dim": 2, "L": {"rows": [[1.0, 0.0], [0.0, 1.0]]},
           "g": {"builtin": "cubic", "params": params}, "u0": [0.0, 0.0], "radius": 1.0}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, stdout, stderr = run(capsys, "solve", "--problem", str(path))
    assert code == EXIT_ERROR
    assert stdout == ""
    assert stderr.startswith("error: ") and len(stderr.splitlines()) == 1
    assert fragment in stderr


def test_bad_dimension_list(capsys):
    code, _, stderr = run(capsys, "solve", "--builtin", "wellposed_cubic",
                          "--dim", "3,x")
    assert code == EXIT_ERROR
    assert "bad dimension list" in stderr


def test_missing_config_file(capsys):
    code, _, stderr = run(capsys, "solve", "--builtin", "wellposed_cubic",
                          "--config", "/nonexistent/conf.json")
    assert code == EXIT_ERROR
