"""Self-tests of the benchmark.  Run from the checkout root with

    python3 -m pytest -p no:cacheprovider perfbench/selftest.py

They run every workload at a tiny size, untraced and traced.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from dsmflow import continuation, oracles  # noqa: E402


@pytest.fixture(scope="module")
def tiny_all(tmp_path_factory):
    out = tmp_path_factory.mktemp("results")
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--tiny",
         "--seconds", "0", "--out", str(out)],
        capture_output=True, text=True, check=False, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, out


def _raw(out, name, trace):
    return json.loads((out / f"{name}-seed0-trace{trace}-tiny.json").read_text())


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tiny_run_prints_every_metric_with_unit(tiny_all):
    stdout, _ = tiny_all
    finals = [json.loads(ln) for ln in stdout.splitlines() if ln.startswith('{"correct"')]
    assert len(finals) == 2 * len(workloads.WORKLOADS)
    for final in finals:
        assert set(final) == {"correct", "attempted", "failed", "metrics"}
        assert final["attempted"] >= 1
        table = run.PER_LAYER if "flow.stage_us" in final["metrics"] else run.END_TO_END
        assert {k: v["unit"] for k, v in final["metrics"].items()} == table
    for name, unit in run.UNITS.items():
        lines = [ln for ln in stdout.splitlines() if ln.split()[:1] == [name]]
        assert len(lines) == 2 * len(workloads.WORKLOADS), name
        assert all(unit in ln.split() for ln in lines), name
    assert stdout.count("n_solves=") >= 2 * len(workloads.WORKLOADS)


def test_known_stall_is_reported(tiny_all):
    _, out = tiny_all
    res = _raw(out, "minnorm", 0)
    assert res["metrics"]["failed_frac"] > 0
    stalled = [f for f in res["failures"] if f["key"].startswith("ill_conditioned")]
    assert stalled and stalled[0]["error"] == "InnerSolveFailed"
    assert stalled[0]["level"] is not None


def test_traced_and_untraced_runs_agree(tiny_all):
    _, out = tiny_all
    for name in workloads.WORKLOADS:
        plain, traced = _raw(out, name, 0), _raw(out, name, 1)
        assert plain["n_solves"] == traced["n_solves"]
        for key in ("accepted_steps", "failed_frac"):
            assert plain["metrics"][key] == traced["metrics"][key], (name, key)
        if plain["metrics"]["accepted_steps"] is not None:
            per_solve = traced["layer_metrics"]["flow.accepted_steps"]
            assert per_solve * traced["n_solves"] == pytest.approx(
                plain["metrics"]["accepted_steps"])


def _first_call(name):
    wl = workloads.WORKLOADS[name]
    items = [build() for build in wl.builds(0, True)]
    call = wl.calls(items, 0)[0]
    return call, call.run(workloads.fresh(call.problem))


def test_verification_rejects_perturbed_solutions():
    call, sol = _first_call("wellposed-d200")
    assert call.verify(sol)[0]
    d = np.full(sol.v.size, 1e-6)
    assert not call.verify(dataclasses.replace(sol, v=sol.v + d))[0]

    call, res = _first_call("minnorm")
    assert call.verify(res)[0]
    d = np.full(res.v_limit.size, 1e-4)
    assert not call.verify(dataclasses.replace(res, v_limit=res.v_limit + d))[0]

    call, (t, u) = _first_call("noisy-stop")
    assert call.verify((t, u))[0]
    assert not call.verify((t, u + 1e-2))[0]


def test_ill_conditioned_limit_must_reach_the_solution():
    wl = workloads.WORKLOADS["minnorm"]
    call = next(c for c in wl.calls([build() for build in wl.builds(0, True)], 0)
                if c.key.startswith("ill_conditioned"))
    # a short schedule stops far above the default last shift: the limit
    # matches its own last shifted equation but not the solution
    res = continuation.solve_minimal_norm(workloads.fresh(call.problem),
                                          continuation.EpsSchedule(count=8))
    ok, dist, note = call.verify(res)
    assert not ok and dist <= workloads.LIMIT_TOL and note == "solution_distance"

    # the same path ending on the default schedule's last shifted solution passes
    eps = continuation.EpsSchedule().values()[-1]
    x = oracles.newton_oracle(call.problem.with_epsilon(eps), tol=1e-12).solution
    last = dataclasses.replace(res.records[-1], eps=eps, v=x)
    res = dataclasses.replace(res, records=res.records[:-1] + [last], v_limit=x)
    assert call.verify(res)[0]
    assert not call.verify(dataclasses.replace(res, v_limit=x + 1e-4))[0]


def test_verification_rejects_out_of_order_stop_times():
    wl = workloads.WORKLOADS["noisy-stop"]
    calls = wl.calls([build() for build in wl.builds(0, True)], 0)
    done = {c.key: (c, c.run(workloads.fresh(c.problem))) for c in calls}
    assert not workloads.group_failures(done)
    first, second = [k for k, (c, _) in done.items() if c.group == calls[0].group][:2]
    (c1, r1), (c2, r2) = done[first], done[second]
    done[first], done[second] = (c1, (r2[0], r1[1])), (c2, (r1[0], r2[1]))
    assert {first, second} <= workloads.group_failures(done)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "minnorm", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, check=False, cwd=tmp_path, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
