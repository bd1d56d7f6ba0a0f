"""Command-line front end.

Subcommands: ``solve`` (one certified flow solve), ``continue`` (shift
continuation toward the minimal-norm solution), ``certify`` (re-verify a
problem's claimed tags), ``oracle-check`` (flow against the damped-Newton
oracle), ``decay-audit`` (integrator self-check across tolerance levels).

Exit codes: 0 success, 1 solver or input error, 2 certificate failure
(the run, if any, is marked exploratory), 3 monotonicity failure.

This module writes every run artifact under ``--out``: ``report.json``,
``certificates.json``, ``trajectory.csv`` and ``continuation.csv``.  All
are deterministic: sorted JSON keys, floats at 17 significant digits in
CSV, no timestamps.
"""

import argparse
import inspect
import json
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from .continuation import INNER_FLOW, EpsSchedule, solve_minimal_norm, solve_newton_flow
from .errors import CertificateMismatch, DsmError, MonotonicityFailed, NonPsdOperator
from .flow import FlowConfig, decay_report, integrate
from .hilbert import norm
from .model import Certificate
from .oracles import newton_oracle
from .problems import BUILTINS, load_problem, _verify_tags

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CERT_FAILED = 2
EXIT_MONOTONE = 3

# merged as: command line > config file > this table
_DEFAULTS = {
    "dim": "10",
    "epsilon": None,
    "t_max": FlowConfig.t_max,
    "rel_tol": None,   # resolved per command in _flow_config
    "p_stop": None,
    "eps0": EpsSchedule.eps0,
    "eps_ratio": EpsSchedule.ratio,
    "eps_count": EpsSchedule.count,
    "eps_floor": EpsSchedule.floor,
    "agree_tol": 1e-7,
    "levels": "1e-6,1e-8,1e-10",
}

# flags that only parameterize a builtin generator: every parameter of one
# but its dimension.  Their defaults are the generator's own; one given
# explicitly that the chosen generator does not take is an error
_BUILTIN_FLAGS = tuple(dict.fromkeys(
    key for generator in BUILTINS.values()
    for key in inspect.signature(generator).parameters if key != "dim"))


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dsmflow",
        description="Newton-flow solves with exponential residual self-checks "
                    "and minimal-norm shift continuation")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        src = p.add_mutually_exclusive_group()
        src.add_argument("--builtin", choices=sorted(BUILTINS),
                         help="generate a builtin problem family")
        src.add_argument("--problem", help="load a problem from a JSON file")
        p.add_argument("--dim", help="dimension, or comma list for a batch")
        p.add_argument("--seed", type=int)
        p.add_argument("--scale", type=float, help="cubic strength of builtin maps")
        p.add_argument("--cubic-scale", dest="cubic_scale", type=float,
                       help="in-range cubic strength (singular_monotone)")
        p.add_argument("--rank", type=int, help="rank of singular_monotone")
        p.add_argument("--epsilon", type=float, help="override the problem shift")
        p.add_argument("--t-max", dest="t_max", type=float)
        p.add_argument("--rel-tol", dest="rel_tol", type=float)
        p.add_argument("--p-stop", dest="p_stop", type=float)
        p.add_argument("--out", help="directory for csv/json artifacts")
        p.add_argument("--config", help="JSON file with defaults for any flag")

    p_solve = sub.add_parser("solve", help="one certified Newton-flow solve")
    add_common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_cont = sub.add_parser("continue",
                            help="shift continuation to the minimal-norm solution")
    add_common(p_cont)
    p_cont.add_argument("--eps0", type=float)
    p_cont.add_argument("--eps-ratio", dest="eps_ratio", type=float)
    p_cont.add_argument("--eps-count", dest="eps_count", type=int,
                        help="most shift levels; the run stops earlier once its "
                             "extrapolant to eps = 0 settles")
    p_cont.add_argument("--eps-floor", dest="eps_floor", type=float)
    p_cont.set_defaults(func=cmd_continuation)

    p_cert = sub.add_parser("certify", help="re-verify a problem's claimed tags")
    add_common(p_cert)
    p_cert.set_defaults(func=cmd_certify)

    p_oracle = sub.add_parser("oracle-check",
                              help="compare the flow against a damped-Newton oracle")
    add_common(p_oracle)
    p_oracle.add_argument("--agree-tol", dest="agree_tol", type=float)
    p_oracle.set_defaults(func=cmd_oracle_check)

    p_decay = sub.add_parser("decay-audit",
                             help="residual-decay deviation across tolerance levels")
    add_common(p_decay)
    p_decay.add_argument("--levels",
                         help="comma list of rel_tol levels, loosest first")
    p_decay.set_defaults(func=cmd_decay_audit)
    return parser


def _merge_config(ns, parser):
    """Fill unset flags from the config file, then from ``_DEFAULTS``.

    A builtin flag that neither sets stays None, so its generator's own
    default applies.  Config values of numeric flags must be JSON numbers,
    integers for ``int`` flags, and null only where the default is None,
    as every builtin flag's is; they get the flag's type.
    """
    keys = (*_DEFAULTS, *_BUILTIN_FLAGS)
    config = {}
    if getattr(ns, "config", None):
        with open(ns.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = sorted(set(config) - set(keys))
        if unknown:
            raise ValueError(f"unknown config keys {unknown}; known: {sorted(keys)}")
        # a flag that several subcommands take has the same type in each
        commands = next(action for action in parser._actions
                        if isinstance(action, argparse._SubParsersAction))
        types = {action.dest: action.type or str
                 for sub in commands.choices.values() for action in sub._actions}
        for key, value in config.items():
            kind = types[key]
            if kind is str or value is None and _DEFAULTS.get(key) is None:
                continue
            if isinstance(value, bool) or not isinstance(
                    value, int if kind is int else (int, float)):
                raise ValueError(f"config key {key!r} must be "
                                 f"{'an integer' if kind is int else 'a number'}, got {value!r}")
            config[key] = kind(value)
    # config values are defaults like the table's, so a shared config file
    # may name flags that some builtins do not take
    ns.explicit = {key for key in keys if getattr(ns, key, None) is not None}
    for key in keys:
        if getattr(ns, key, None) is None:
            setattr(ns, key, config.get(key, _DEFAULTS.get(key)))
    return ns


def _parse_dims(text):
    try:
        dims = [int(part) for part in str(text).split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"bad dimension list {text!r}") from None
    if not dims:
        raise ValueError("empty dimension list")
    return dims


def _refuse_explicit(ns, keys, what):
    """Raise ``ValueError`` naming each flag in ``keys`` that was given explicitly.

    Only command-line flags count: ``--config`` values are defaults.
    """
    stray = [key for key in keys if key in ns.explicit]
    if stray:
        flags = ", ".join("--" + key.replace("_", "-") for key in stray)
        raise ValueError(f"{what} does not take {flags}")


def _build_bundles(ns):
    """Resolve --problem/--builtin into a list of (label, bundle).

    A builtin generator receives every CLI value that names one of its
    parameters and is set; one without a ``dim`` parameter is built once.
    An explicit builtin flag that names none of its parameters raises
    ``ValueError``, as an explicit ``--dim``, ``--seed``, ``--scale``,
    ``--cubic-scale`` or ``--rank`` does with ``--problem``.  ``--epsilon``
    shifts every bundle, from either source, and clears its certificates,
    which describe the unshifted problem.
    """
    if getattr(ns, "problem", None):
        _refuse_explicit(ns, ("dim",) + _BUILTIN_FLAGS, "--problem")
        bundle = load_problem(ns.problem)
        out = [(bundle.name, bundle)]
    else:
        name = getattr(ns, "builtin", None)
        if not name:
            raise ValueError("one of --builtin or --problem is required")
        generator = BUILTINS[name]
        params = inspect.signature(generator).parameters
        _refuse_explicit(ns, [key for key in _BUILTIN_FLAGS if key not in params],
                         f"builtin {name!r}")
        kwargs = {key: getattr(ns, key) for key in params
                  if key != "dim" and getattr(ns, key, None) is not None}
        dims = _parse_dims(ns.dim) if "dim" in params else [None]
        out = []
        for dim in dims:
            bundle = generator(**kwargs) if dim is None else generator(dim, **kwargs)
            out.append((f"{name}[dim={bundle.problem.dim}]", bundle))
    if ns.epsilon is not None:
        for _, bundle in out:
            bundle.problem = bundle.problem.with_epsilon(ns.epsilon)
            bundle.certificates = {}
    return out


def _code_for(exc):
    if isinstance(exc, MonotonicityFailed):
        return EXIT_MONOTONE
    if isinstance(exc, (CertificateMismatch, NonPsdOperator)):
        return EXIT_CERT_FAILED
    if isinstance(exc, (DsmError, ValueError, OSError)):
        return EXIT_ERROR
    raise exc


def _jsonable(obj):
    if isinstance(obj, Certificate):
        doc = asdict(obj)
        doc["kind"] = obj.kind.value
        return _jsonable(doc)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _write_json(doc, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(doc), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(header, rows, path):
    """Write ``rows`` of numbers under ``header``, each at 17 significant digits.

    17 digits round-trip a float64 exactly, and print a step count as itself.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(format(x, ".17g") for x in row) + "\n")


def _write_trajectory_csv(result, path):
    """Write a flow's recorded trajectory, one point per row."""
    _write_csv("t,p,residual_F,u_norm,step",
               ((pt.t, pt.p, pt.residual_F, norm(pt.u), pt.step) for pt in result.trajectory),
               path)


def _write_continuation_csv(result, path):
    """Write a continuation's records, one shift level per row."""
    _write_csv("eps,norm_v,residual_full,increment,inner_steps",
               ((rec.eps, rec.norm_v, rec.residual_full, inc, rec.inner_steps)
                for rec, inc in zip(result.records, result.increments)),
               path)


def _out_dir(ns, label, many):
    if not getattr(ns, "out", None):
        return None
    path = os.path.join(ns.out, label.replace("[", "_").replace("]", "")) if many else ns.out
    os.makedirs(path, exist_ok=True)
    return path


def _run_batch(ns, worker):
    """Run ``worker(label, bundle, out_dir)`` over the resolved problems in order.

    Prints each worker's lines and returns the worst exit code.
    """
    bundles = _build_bundles(ns)
    many = len(bundles) > 1
    code = EXIT_OK
    for label, bundle in bundles:
        out = _out_dir(ns, label, many)
        try:
            task_code, lines = worker(label, bundle, out)
        except Exception as exc:
            task_code, lines = _code_for(exc), [f"{label}: error: {exc}"]
        for line in lines:
            print(line)
        code = max(code, task_code)
    return code


def _flow_config(ns, base):
    """``base`` with the flow flags that are set."""
    flags = {key: getattr(ns, key) for key in ("t_max", "rel_tol", "p_stop")
             if getattr(ns, key) is not None}
    return replace(base, **flags)


def _converging_flow_config(ns, base):
    """:func:`_flow_config`, refused when a stop lies below ``0.1 * rel_tol``.

    The integrator's noise floor scales with ``rel_tol``, so a run whose
    relative or (nonzero) absolute stop lies below it ends at ``t_max``
    instead of converging; such a pair is refused before anything is built
    or integrated.
    """
    cfg = _flow_config(ns, base)
    # 0.1 * 1e-10 rounds above 1e-11, and the defaults sit on the boundary
    floor = 0.1 * cfg.rel_tol * (1.0 - 1e-12)
    if cfg.p_stop < floor:
        stop, remedy = f"--p-stop {cfg.p_stop:g}", "raise --p-stop or lower --rel-tol"
    elif 0.0 < cfg.p_stop_abs < floor:
        stop, remedy = (f"the absolute stop {cfg.p_stop_abs:g}",
                        "lower --rel-tol (--p-stop does not move the absolute stop)")
    else:
        return cfg
    raise ValueError(f"{stop} lies below 0.1 * --rel-tol = {0.1 * cfg.rel_tol:g}, where "
                     f"the flow stalls at its noise floor; {remedy}")


def cmd_solve(ns):
    cfg = _converging_flow_config(ns, FlowConfig())

    def worker(label, bundle, out):
        sol = solve_newton_flow(bundle.problem, cfg, require_converged=False)
        flow = sol.flow
        p0, deviation, rate = decay_report(flow)
        report = {
            "problem": label,
            "dim": bundle.problem.dim,
            "epsilon": bundle.problem.epsilon,
            "status": flow.status.value,
            "t_final": flow.t_final,
            "p0": p0,
            "p_final": flow.p_final,
            "decay_deviation": deviation,
            "fitted_rate": rate,
            "n_accepted": flow.n_accepted,
            "n_rejected": flow.n_rejected,
            "newton_bound": sol.certificates["newton_bound"].quantities["bound"],
            "trust_passed": sol.certificates["trust_condition"].passed,
            "exploratory": sol.exploratory,
            "residual_shifted": sol.residual_shifted,
            "residual_bound": sol.residual_bound,
            "u_final": flow.u_final.tolist(),
        }
        if out:
            _write_trajectory_csv(flow, os.path.join(out, "trajectory.csv"))
            _write_json(report, os.path.join(out, "report.json"))
            _write_json(sol.certificates, os.path.join(out, "certificates.json"))
        lines = [f"{label}: status={flow.status.value} t={flow.t_final:.4f} "
                 f"p_final={flow.p_final:.3e} decay_deviation={deviation:.3e} "
                 f"trust={'pass' if not sol.exploratory else 'FAIL (exploratory)'}"]
        if not flow.converged:
            return EXIT_ERROR, lines + [f"{label}: {flow.message}"]
        if sol.exploratory:
            return EXIT_CERT_FAILED, lines
        return EXIT_OK, lines

    return _run_batch(ns, worker)


def cmd_continuation(ns):
    # every level replaces the shift, so an explicit one would be ignored
    _refuse_explicit(ns, ("epsilon",), "continue, which sets the shift from its schedule,")
    cfg = _converging_flow_config(ns, INNER_FLOW)
    schedule = EpsSchedule(eps0=ns.eps0, ratio=ns.eps_ratio,
                           count=ns.eps_count, floor=ns.eps_floor)

    def worker(label, bundle, out):
        result = solve_minimal_norm(bundle.problem, schedule, cfg)
        report = {
            "problem": label,
            "dim": bundle.problem.dim,
            "eps_values": result.eps_values,
            "norms": result.norms,
            "residual_full": [r.residual_full for r in result.records],
            "increments": result.increments,
            "v_limit": result.v_limit.tolist(),
            "v_extrapolated": result.v_extrapolated.tolist(),
            "extrapolation_error_estimate": result.extrapolation_error_estimate,
            "residual_extrapolated": result.residual_extrapolated,
            "norms_monotone_ok": result.norms_monotone_ok,
            "stop": result.stop.value,
            "truncation_note": result.truncation_note,
        }
        if bundle.min_norm_solution is not None:
            report["reference_norm"] = norm(bundle.min_norm_solution)
            report["limit_distance_to_reference"] = norm(
                result.v_limit - bundle.min_norm_solution)
        if out:
            _write_continuation_csv(result, os.path.join(out, "continuation.csv"))
            _write_json(report, os.path.join(out, "report.json"))
        last = result.records[-1]
        estimate = result.extrapolation_error_estimate
        lines = [f"{label}: levels={len(result.records)} final_eps={last.eps:.3e} "
                 f"|v|={last.norm_v:.9f} residual={last.residual_full:.3e} "
                 f"norms_monotone={'ok' if result.norms_monotone_ok else 'VIOLATED'} "
                 f"extrapolation_error={'none' if estimate is None else f'{estimate:.3e}'} "
                 f"stop={result.stop.value} "
                 f"extrapolant_residual={result.residual_extrapolated:.3e}"]
        if result.truncation_note:
            lines.append(f"{label}: note: {result.truncation_note}")
        return EXIT_OK, lines

    return _run_batch(ns, worker)


def cmd_certify(ns):
    def worker(label, bundle, out):
        # builtin bundles arrive verified as built; problems from files, and
        # shifted ones, arrive without certificates and are verified here
        certs = bundle.certificates or _verify_tags(bundle.problem, bundle.tags)
        if out:
            _write_json(certs, os.path.join(out, "certificates.json"))
        lines = [f"{label}: tag={tag} {'pass' if certs[tag].passed else 'FAIL'}"
                 for tag in bundle.tags]
        if not bundle.tags:
            lines.append(f"{label}: no tags claimed")
        return EXIT_OK, lines

    return _run_batch(ns, worker)


def cmd_oracle_check(ns):
    if not np.isfinite(ns.agree_tol) or ns.agree_tol <= 0.0:
        raise ValueError(f"--agree-tol must be finite and positive, got {ns.agree_tol}")
    cfg = _converging_flow_config(ns, FlowConfig())

    def worker(label, bundle, out):
        sol = solve_newton_flow(bundle.problem, cfg)
        oracle = newton_oracle(bundle.problem)
        dist = norm(sol.v - oracle.solution)
        ok = dist <= ns.agree_tol
        report = {
            "problem": label,
            "dim": bundle.problem.dim,
            "distance": dist,
            "agree_tol": ns.agree_tol,
            "agreed": ok,
            "oracle_iterations": oracle.iterations,
            "flow_t_final": sol.flow.t_final,
        }
        if out:
            _write_json(report, os.path.join(out, "report.json"))
        line = (f"{label}: |flow - newton| = {dist:.3e} "
                f"({'<=' if ok else '>'} {ns.agree_tol:.1e})")
        return (EXIT_OK if ok else EXIT_ERROR), [line]

    return _run_batch(ns, worker)


def cmd_decay_audit(ns):
    # each level sets the tolerances, so an explicit --rel-tol would be ignored
    _refuse_explicit(ns, ("rel_tol",), "decay-audit, which sets the tolerances from --levels,")
    try:
        levels = [float(part) for part in str(ns.levels).split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"bad levels list {ns.levels!r}") from None
    if not levels:
        raise ValueError("empty levels list")
    # FlowConfig refuses such a rel_tol too, but only after a problem is built
    bad = [level for level in levels if not 0.0 < level < 1.0]
    if bad:
        raise ValueError(f"--levels entries must lie in (0, 1), got {bad}")

    def worker(label, bundle, out):
        devs = []
        lines = []
        for level in levels:
            cfg = replace(_flow_config(ns, FlowConfig()), rel_tol=level)
            result = integrate(bundle.problem, cfg)
            devs.append(result.decay_deviation)
            lines.append(f"{label}: rel_tol={level:.1e} "
                         f"decay_deviation={result.decay_deviation:.3e} "
                         f"(limit {100.0 * level:.1e})")
        within = all(dev <= 100.0 * level for dev, level in zip(devs, levels))
        decreasing = all(a > b for a, b in zip(devs, devs[1:]))
        ok = within and decreasing
        report = {"problem": label, "levels": levels, "deviations": devs,
                  "within_budget": within, "strictly_decreasing": decreasing}
        if out:
            _write_json(report, os.path.join(out, "report.json"))
        lines.append(f"{label}: decay audit {'pass' if ok else 'FAIL'} "
                     f"(within budget: {within}, decreasing: {decreasing})")
        return (EXIT_OK if ok else EXIT_ERROR), lines

    return _run_batch(ns, worker)


def main(argv=None):
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        _merge_config(ns, parser)
        return ns.func(ns)
    except Exception as exc:  # uniform exit-code mapping, see _code_for
        code = _code_for(exc)
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
