#!/usr/bin/env python3
"""Benchmark of the dsmflow solvers.

Run from the root of a checkout::

    python3 perfbench/run.py --workload minnorm --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all            # every workload, both modes

One run builds the workload's problems from the seed (set-up), makes timed
top-level calls in whole rounds for at least two rounds and ``--seconds`` of
wall time, then verifies every output outside the timed phase.  Timings are
scaled to the speed of a reference computation timed between the calls
(see ``workloads.Workload``).
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
installs the wrappers of ``tracing.py`` and reports per-layer metrics.  The
last line of standard output is one JSON object; a readable report, the
failures and the environment go before it and into ``--out``.
"""

import os

# pinned before numpy loads: on two cores a second BLAS thread only
# measures contention (dim-200 set-up takes twice as long with it)
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import contextlib
import gc
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

MIN_ROUNDS = 2
SETUP_REPS = 3
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# name -> unit; the final JSON line carries exactly these (BENCHMARK.json)
END_TO_END = {
    "setup_s": "s",
    "solve_s_p50": "s",
    "calls_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "problems.build_s": "s/build",
    "problems.certify_s": "s/build",
    "model.estimate_newton_bound.calls": "calls/solve",
    "model.estimate_newton_bound.s": "s/solve",
    "lapack.svd.calls": "calls/solve",
    "lapack.svd.s": "s/solve",
    "hilbert.DenseOperator.singular_values.calls": "calls/solve",
    "continuation.certify_s": "s/solve",
    "model.monotonicity_certificate.s": "s/solve",
    "flow.stage_evals": "stages/solve",
    "flow.stage_us": "us/stage",
    "model.preconditioned_residual.calls": "calls/solve",
    "model.preconditioned_residual.s": "s/solve",
    "model.linearized_operator.calls": "calls/solve",
    "model.linearized_operator.s": "s/solve",
    "model.solve_linearized.calls": "calls/solve",
    "model.solve_linearized.s": "s/solve",
    "model.g_evals": "calls/solve",
    "model.jacobian_evals": "calls/solve",
    "hilbert.as_vector.calls": "calls/solve",
    "hilbert.DenseOperator.init.calls": "calls/solve",
    "hilbert.DenseOperator.solve.calls": "calls/solve",
    "hilbert.DenseOperator.solve.s": "s/solve",
    "lapack.lu_factor.calls": "calls/solve",
    "lapack.lu_factor.s": "s/solve",
    "lapack.lu_solve.calls": "calls/solve",
    "lapack.lu_solve.s": "s/solve",
    "lapack.gflop_computed": "GFLOP/solve",
    "flow.integrate.calls": "calls/solve",
    "flow.integrate.self_s": "s/solve",
    "flow.accepted_steps": "steps/solve",
    "flow.rejected_steps": "steps/solve",
    "flow.accept_ratio": "ratio",
    "continuation.levels": "levels/solve",
    "continuation.solve_newton_flow.calls": "calls/solve",
    "continuation.solve_newton_flow.self_s": "s/solve",
    "flow.record.points": "points/solve",
    "flow.record_s": "s/solve",
    "continuation.discrepancy.reintegrations": "calls/solve",
    "flow.decay_deviation_max": "ratio",
    "oracles.newton_oracle.s": "s/call",
    "oracles.newton_oracle.iterations": "iters/call",
    "oracles.pseudoinverse_min_norm.s": "s/call",
    "trace.solve_s_p50": "s",
}


def reference_cpu(work):
    """CPU seconds of one run of a workload's reference computation.

    Collection is off so that a collection owed by the previous call
    cannot land in it.
    """
    gc.disable()
    try:
        c0 = time.process_time()
        work()
        return time.process_time() - c0
    finally:
        gc.enable()


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="workload name, or 'all' for every workload traced and untraced")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every workload to a few small problems (self-tests)")
    ap.add_argument("--out", default=str(HERE / "results"),
                    help="directory for the raw result and span files")
    return ap.parse_args(argv)


def environment(seed):
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, else the pinned setting."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
        for path in sorted(libs):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
    except OSError:
        pass
    return os.environ["OPENBLAS_NUM_THREADS"] + " (env)"


def error_failure(key, err):
    """The failure record of a call that raised ``err``."""
    from dsmflow.errors import DsmError
    cause = err.__cause__
    message = str(err)[:300] if isinstance(err, DsmError) else "".join(
        traceback.format_exception(err))
    return {"key": key, "error": type(err).__name__,
            "cause": type(cause).__name__ if cause else None,
            "level": getattr(err, "index", None), "message": message}


def run_workload(args):
    """One workload in this process; returns the result dict."""
    import workloads
    from dsmflow.errors import DsmError
    wl = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    def root(phase, key):
        return contextlib.nullcontext() if tracer is None else tracer.root_call(phase, key)

    # the reference runs between every two timed pieces of work; each
    # piece is scaled by the nominal reference time over the mean of the
    # two references around it, which tracks the host's speed changes
    refs = [reference_cpu(wl.reference)]

    def scale():
        refs.append(reference_cpu(wl.reference))
        return wl.reference_nominal_s / (0.5 * (refs[-2] + refs[-1]))

    # set-up: build and certify the problem set SETUP_REPS times over
    builds = wl.builds(args.seed, args.tiny)
    setup_cpu, setup_scaled = [], []
    for _ in range(SETUP_REPS):
        items, cpu, scaled = [], 0.0, 0.0
        for build in builds:
            c0 = time.process_time()
            with root("build", ""):
                items.append(build())
            c = time.process_time() - c0
            cpu += c
            scaled += c * scale()
        setup_cpu.append(cpu)
        setup_scaled.append(scaled)
    calls = wl.calls(items, args.seed)

    # timed phase: whole rounds of the calls, so every run weighs the calls
    # alike, at least MIN_ROUNDS of them and then until --seconds of wall
    # time have passed; the problem copy each call gets is made outside
    # its timing.  A round's outputs are checked when the round ends,
    # outside the timing, and only scalars are kept, so the memory held
    # does not grow with the number of rounds
    samples, failures, verified = [], [], {}
    unexpected = wrong = 0
    peak_rss_mb = None
    deadline = time.perf_counter() + args.seconds
    while len(samples) < MIN_ROUNDS * len(calls) or time.perf_counter() < deadline:
        outputs = []
        for call in calls:
            problem = workloads.fresh(call.problem)
            out, err = None, None
            c0, w0 = time.process_time(), time.perf_counter()
            with root("call", call.key):
                try:
                    out = call.run(problem)
                except Exception as exc:  # counted as failed; non-DsmError also as wrong
                    err = exc
            samples.append({"key": call.key, "cpu_s": time.process_time() - c0,
                            "wall_s": time.perf_counter() - w0, "scale": scale()})
            outputs.append((call, out, err))
        if peak_rss_mb is None:
            # the workload's own peak: set-up and one round of calls,
            # before any verification runs a reference solve
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for s, (call, out, err) in zip(samples[-len(calls):], outputs):
            if err is not None:
                unexpected += not isinstance(err, DsmError)
                s["ok"], s["ref_err"] = False, None
                s["steps"] = workloads.accepted_steps(err)
                failures.append(error_failure(call.key, err))
                continue
            with root("verify", call.key):
                s["ok"], s["ref_err"], note = call.verify(out)
            s["steps"] = workloads.accepted_steps(out)
            if s["ok"]:
                verified.setdefault(call.key, (call, out))
            else:
                wrong += 1
                failures.append({"key": call.key, "error": "VerificationFailed",
                                 "cause": None, "level": None, "message": note})
        del outputs
    wall = sum(s["wall_s"] for s in samples)
    bad_groups = workloads.group_failures(verified)
    for s in samples:
        if s["ok"] and s["key"] in bad_groups:
            s["ok"] = False
            wrong += 1
            failures.append({"key": s["key"], "error": "VerificationFailed", "cause": None,
                             "level": None, "message": "stop time does not grow as delta shrinks"})

    n_ok = sum(s["ok"] for s in samples)
    steps = [s["steps"] for s in samples]
    ref_errs = [s["ref_err"] for s in samples if s["ok"]]
    raw = {
        "setup_s": statistics.median(setup_cpu),
        "solve_s_p50": statistics.median(s["cpu_s"] for s in samples),
        "calls_per_s": len(samples) / wall,
    }
    metrics = {
        "setup_s": statistics.median(setup_scaled),
        "solve_s_p50": statistics.median(s["cpu_s"] * s["scale"] for s in samples),
        "calls_per_s": len(samples) / sum(s["wall_s"] * s["scale"] for s in samples),
        "solves_per_s": n_ok / wall,
        "failed_frac": (len(samples) - n_ok) / len(samples),
        "accepted_steps": None if None in steps else sum(steps),
        "ref_err_max": max(ref_errs) if ref_errs else None,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        tracer.uninstall()
        layer = tracer.layer_metrics()
        layer["trace.solve_s_p50"] = metrics["solve_s_p50"]
    return {
        "workload": wl.name, "why": wl.why, "trace": args.trace, "tiny": args.tiny,
        "environment": environment(args.seed),
        "n_solves": len(samples), "n_calls": len(calls), "n_verified": n_ok,
        "n_setups": len(setup_cpu),
        "timed_wall_s": wall, "raw": raw, "reference_cpu_s": refs,
        "correct": wrong == 0 and unexpected == 0,
        "metrics": metrics,
        "layer_metrics": layer if tracer is not None else None,
        "failures": failures,
        "calls": [{k: s[k] for k in ("key", "cpu_s", "wall_s", "scale", "ok", "steps", "ref_err")}
                  for s in samples],
    }, tracer


UNITS = {"setup_s": "s", "solve_s_p50": "s", "calls_per_s": "1/s", "solves_per_s": "1/s",
         "failed_frac": "ratio", "accepted_steps": "steps", "ref_err_max": "distance",
         "peak_rss_mb": "MB"}


def report(res):
    """Readable lines for one workload result."""
    m = res["metrics"]
    lines = [f"workload {res['workload']} (trace {res['trace']}, seed "
             f"{res['environment']['seed']}): {res['why']}"]
    raw = res["raw"]
    notes = {"setup_s": f"median of {res['n_setups']} set-ups; unscaled {raw['setup_s']:.6g}",
             "solve_s_p50": f"n_solves={res['n_solves']} ({res['n_calls']} calls a round); "
                            f"unscaled {raw['solve_s_p50']:.6g}",
             "calls_per_s": f"attempted calls per wall second; unscaled {raw['calls_per_s']:.6g}",
             "solves_per_s": f"{res['n_verified']} verified in {res['timed_wall_s']:.2f} s wall",
             "failed_frac": f"{res['n_solves'] - res['n_verified']}/{res['n_solves']} failed",
             "accepted_steps": "n/a: this API does not expose step counts untraced"
             if m["accepted_steps"] is None else f"over {res['n_solves']} solves"}
    for name, unit in UNITS.items():
        v = m[name]
        text = "n/a" if v is None else f"{v:.6g}"
        lines.append(f"  {name:<15} {text:>12} {unit:<8} {notes.get(name, '')}")
    if res["layer_metrics"]:
        for name, unit in PER_LAYER.items():
            lines.append(f"  {name:<44} {res['layer_metrics'][name]:>12.6g} {unit}")
    failed = {}
    for f in res["failures"]:
        where = f" at level {f['level']}" if f["level"] is not None else ""
        cause = f" (cause {f['cause']})" if f["cause"] else ""
        line = f"{f['key']}: {f['error']}{where}{cause}"
        failed[line] = failed.get(line, 0) + 1
    lines += [f"  failed {n}x: {line}" for line, n in failed.items()]
    env = res["environment"]
    lines.append("  environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    return lines


def final_line(res):
    table = PER_LAYER if res["trace"] else END_TO_END
    values = res["layer_metrics"] if res["trace"] else res["metrics"]
    return json.dumps({
        "correct": res["correct"],
        "attempted": res["n_solves"],
        "failed": res["n_solves"] - res["n_verified"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in table.items()},
    })


def run_all(args):
    """Every workload untraced then traced, each in its own process."""
    import workloads
    results = {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--out", args.out] + (["--tiny"] if args.tiny else [])
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            results[(name, trace)] = json.loads(proc.stdout.strip().splitlines()[-1])
    print("summary (tracing overhead = traced minus untraced solve_s_p50):")
    for name in workloads.WORKLOADS:
        plain = results[(name, 0)]["metrics"]
        traced = results[(name, 1)]["metrics"]["trace.solve_s_p50"]["value"]
        print(f"  {name:<15} " + "  ".join(f"{k}={v['value']:.6g} {v['unit']}"
                                           for k, v in plain.items())
              + f"  n_solves={results[(name, 0)]['attempted']}"
              + f"  trace_overhead_s={traced - plain['solve_s_p50']['value']:.6g}")
    print(json.dumps({f"{n}/trace{t}": r for (n, t), r in results.items()}))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "dsmflow" / "__init__.py").is_file():
        print(f"perfbench: no dsmflow source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}, all", file=sys.stderr)
        return 2
    res, tracer = run_workload(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    with open(out / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(res, fh, indent=1)
    if tracer is not None:
        tracer.save(out / f"{stem}-spans.npz")
    print("\n".join(report(res)))
    print(final_line(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
