"""Spans and counters around the library's public functions, for the traced run.

Wrappers go on the binding each caller resolves: a function imported with
``from .model import X`` is patched in the importing module, a method on its
class, and a numpy/scipy kernel on the module the library looks it up on.
A span records name, start, end, parent span and root call; every call the
benchmark makes (a build, a timed solve, a verification) is a root, so the
spans of one solve share its root id.  Spans stay in memory in flat arrays
until the run ends.  Self time is a span's duration minus its children's.
Span clocks are wall time (``perf_counter``) in a single-threaded process.
"""

import array
import functools
import json
import time
from contextlib import contextmanager

import numpy as np
import scipy.linalg

from dsmflow import continuation, flow, hilbert, model, oracles, problems

_CERTIFICATES = ("model.estimate_newton_bound", "model.check_trust_condition",
                 "model.monotonicity_certificate", "model.ball_samples")
_PROBLEM_CERTIFICATES = _CERTIFICATES + ("model.check_resolvent_bound",
                                         "model.check_sector")
_STAGE_PARTS = ("model.preconditioned_residual", "model.linearized_operator",
                "model.solve_linearized")


# -- flop counts from shapes (computed, not measured) --------------------------------

def _lu_factor_flops(args, kwargs):
    n = np.shape(args[0])[0]
    return 2.0 / 3.0 * n ** 3


def _lu_solve_flops(args, kwargs):
    n = np.shape(args[0][0])[0]
    b = np.shape(args[1])
    return 2.0 * n * n * (b[1] if len(b) == 2 else 1)


def _svd_flops(args, kwargs):
    shape = np.shape(args[0])
    m, n = max(shape[-2:]), min(shape[-2:])
    batch = float(np.prod(shape[:-2]))
    uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
    values = 4.0 * m * n * n - 4.0 / 3.0 * n ** 3
    return batch * (values + (4.0 * m * m * n + 9.0 * n ** 3 if uv else 0.0))


def _eigh_flops(args, kwargs):
    shape = np.shape(args[0])
    return float(np.prod(shape[:-2])) * 9.0 * shape[-1] ** 3


def _integrate_done(tracer, result, exc):
    if exc is not None:
        result = getattr(exc, "result", None)
    if result is not None:
        tracer.flows.append((tracer.current_root, result.n_accepted, result.n_rejected,
                             len(result.trajectory), result.decay_deviation))


def _newton_done(tracer, result, exc):
    if result is not None:
        tracer.oracle_iterations.append(result.iterations)


# (owner, attribute, span name, flop count, result hook)
SPANS = [
    (continuation, "solve_minimal_norm", "continuation.solve_minimal_norm", None, None),
    (continuation, "discrepancy_stop", "continuation.discrepancy_stop", None, None),
    (continuation, "solve_newton_flow", "continuation.solve_newton_flow", None, None),
    (continuation, "integrate", "flow.integrate", None, _integrate_done),
    (continuation, "estimate_newton_bound", "model.estimate_newton_bound", None, None),
    (continuation, "check_trust_condition", "model.check_trust_condition", None, None),
    (continuation, "monotonicity_certificate", "model.monotonicity_certificate", None, None),
    (continuation, "ball_samples", "model.ball_samples", None, None),
    (flow, "preconditioned_residual", "model.preconditioned_residual", None, None),
    (flow, "linearized_operator", "model.linearized_operator", None, None),
    (flow, "solve_linearized", "model.solve_linearized", None, None),
    (flow, "full_residual", "model.full_residual", None, None),
    (model, "preconditioned_residual", "model.preconditioned_residual", None, None),
    (model, "linearized_operator", "model.linearized_operator", None, None),
    (problems, "estimate_newton_bound", "model.estimate_newton_bound", None, None),
    (problems, "check_trust_condition", "model.check_trust_condition", None, None),
    (problems, "check_resolvent_bound", "model.check_resolvent_bound", None, None),
    (problems, "monotonicity_certificate", "model.monotonicity_certificate", None, None),
    (problems, "check_sector", "model.check_sector", None, None),
    (problems, "ball_samples", "model.ball_samples", None, None),
    (problems, "preconditioned_residual", "model.preconditioned_residual", None, None),
    (oracles, "newton_oracle", "oracles.newton_oracle", None, _newton_done),
    (oracles, "pseudoinverse_min_norm", "oracles.pseudoinverse_min_norm", None, None),
    (oracles, "preconditioned_residual", "model.preconditioned_residual", None, None),
    (oracles, "linearized_operator", "model.linearized_operator", None, None),
    (oracles, "solve_linearized", "model.solve_linearized", None, None),
    (hilbert.DenseOperator, "solve", "hilbert.DenseOperator.solve", None, None),
    (scipy.linalg, "lu_factor", "lapack.lu_factor", _lu_factor_flops, None),
    (scipy.linalg, "lu_solve", "lapack.lu_solve", _lu_solve_flops, None),
    (np.linalg, "svd", "lapack.svd", _svd_flops, None),
    (np.linalg, "eigh", "lapack.eigh", _eigh_flops, None),
]

# (owner, attribute, counter name): counted, not spanned, because they are
# called too often for a span each
COUNTS = [
    (hilbert, "as_vector", "hilbert.as_vector"),
    (model, "as_vector", "hilbert.as_vector"),
    (flow, "as_vector", "hilbert.as_vector"),
    (oracles, "as_vector", "hilbert.as_vector"),
    (problems, "as_vector", "hilbert.as_vector"),
    (hilbert.DenseOperator, "__init__", "hilbert.DenseOperator.init"),
    (hilbert.DenseOperator, "singular_values", "hilbert.DenseOperator.singular_values"),
    (model.NonlinearMap, "__call__", "model.g_evals"),
    (model.NonlinearMap, "jacobian", "model.jacobian_evals"),
]


class Tracer:
    """In-memory span and counter store with its wrappers."""

    def __init__(self):
        self.span_names = []
        self.counter_names = []
        self.name = array.array("i")
        self.parent = array.array("i")
        self.root = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.flops = array.array("d")
        self.roots = []            # root id -> (phase, key)
        self.counts = []           # root id -> counts indexed by counter id
        self.flows = []            # (root, accepted, rejected, points, decay deviation)
        self.oracle_iterations = []
        self.current_root = -1
        self._current_counts = None
        self._stack = []
        self._undo = []

    # -- wrappers ---------------------------------------------------------------

    def _id(self, table, name):
        if name not in table:
            table.append(name)
        return table.index(name)

    def _open(self, nid, flops):
        idx = len(self.name)
        stack = self._stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.root.append(self.current_root)
        self.flops.append(flops)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _span_wrapper(self, fn, name, flops, hook):
        nid = self._id(self.span_names, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(nid, flops(args, kwargs) if flops else 0.0)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx)
                if hook:
                    hook(self, None, exc)
                raise
            self._close(idx)
            if hook:
                hook(self, result, None)
            return result
        return wrapper

    def _count_wrapper(self, fn, name):
        cid = self._id(self.counter_names, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._current_counts[cid] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, owner, attr, wrapper):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def install(self):
        for owner, attr, name, flops, hook in SPANS:
            self._patch(owner, attr,
                        lambda fn, n=name, f=flops, h=hook: self._span_wrapper(fn, n, f, h))
        for owner, attr, name in COUNTS:
            self._patch(owner, attr, lambda fn, n=name: self._count_wrapper(fn, n))
        self._current_counts = [0] * len(self.counter_names)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextmanager
    def root_call(self, phase, key):
        """Make everything inside one root call of ``phase`` ('build', 'call', 'verify')."""
        rid = len(self.roots)
        self.roots.append((phase, key))
        self.counts.append([0] * len(self.counter_names))
        saved = (self.current_root, self._current_counts)
        self.current_root, self._current_counts = rid, self.counts[rid]
        idx = self._open(self._id(self.span_names, phase), 0.0)
        try:
            yield rid
        finally:
            self._close(idx)
            self.current_root, self._current_counts = saved

    # -- results ----------------------------------------------------------------

    def save(self, path):
        np.savez_compressed(
            path, name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            root=np.frombuffer(self.root, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            flops=np.frombuffer(self.flops),
            span_names=json.dumps(self.span_names), roots=json.dumps(self.roots))

    def layer_metrics(self):
        """Per-layer metrics: per timed call, per build, or per oracle call."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        root = np.frombuffer(self.root, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        self_time = dur - np.bincount(parent[has_parent], weights=dur[has_parent],
                                      minlength=len(dur))
        phases = np.array([p for p, _ in self.roots] + ["none"])
        phase = phases[root]          # root -1 picks "none"
        in_phase = {ph: phase == ph for ph in ("build", "call", "verify")}
        ids = {n: i for i, n in enumerate(self.span_names)}
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)

        def sel(span, ph="call", under=None):
            m = (name == ids.get(span, -2)) & in_phase[ph]
            if under is not None:
                m &= parent_name == ids.get(under, -2)
            return m

        n_calls = max(1, sum(p == "call" for p, _ in self.roots))
        n_builds = max(1, sum(p == "build" for p, _ in self.roots))

        def per_call(x):
            return float(x) / n_calls

        def per(total, count):
            return float(total) / count if count else 0.0

        counts = np.zeros(len(self.counter_names))
        for (ph, _), c in zip(self.roots, self.counts):
            if ph == "call":
                counts += c
        counter = {n: per_call(counts[i]) for i, n in enumerate(self.counter_names)}
        call_flows = [f for f in self.flows if self.roots[f[0]][0] == "call"]
        accepted = sum(f[1] for f in call_flows)
        rejected = sum(f[2] for f in call_flows)
        stage = sel("model.linearized_operator", under="flow.integrate")
        stage_s = sum(dur[sel(p, under="flow.integrate")].sum() for p in _STAGE_PARTS)
        disc = np.flatnonzero(sel("continuation.discrepancy_stop"))
        integ_per_disc = np.bincount(parent[sel("flow.integrate")], minlength=len(dur))[disc]
        oracle = sel("oracles.newton_oracle", "verify")
        pinv = sel("oracles.pseudoinverse_min_norm", "verify")
        m = {
            "problems.build_s": dur[sel("build", "build")].sum() / n_builds,
            "problems.certify_s": sum(dur[sel(c, "build")].sum()
                                      for c in _PROBLEM_CERTIFICATES) / n_builds,
            "continuation.certify_s": per_call(sum(dur[sel(c)].sum() for c in _CERTIFICATES)),
            "flow.stage_evals": per_call(stage.sum()),
            "flow.stage_us": 1e6 * per(stage_s, stage.sum()),
            "flow.integrate.self_s": per_call(self_time[sel("flow.integrate")].sum()),
            "flow.accepted_steps": per_call(accepted),
            "flow.rejected_steps": per_call(rejected),
            "flow.accept_ratio": per(accepted, accepted + rejected),
            "flow.record.points": per_call(sum(f[3] for f in call_flows)),
            "flow.record_s":
                per_call(dur[sel("model.full_residual", under="flow.integrate")].sum()),
            "flow.decay_deviation_max": max((f[4] for f in call_flows), default=0.0),
            "continuation.levels": per_call(sel("continuation.solve_newton_flow",
                                                under="continuation.solve_minimal_norm").sum()),
            "continuation.solve_newton_flow.self_s":
                per_call(self_time[sel("continuation.solve_newton_flow")].sum()),
            "continuation.discrepancy.reintegrations":
                per_call(np.maximum(integ_per_disc - 1, 0).sum()),
            "lapack.gflop_computed":
                per_call(np.frombuffer(self.flops)[in_phase["call"]].sum()) / 1e9,
            "oracles.newton_oracle.s": per(dur[oracle].sum(), oracle.sum()),
            "oracles.newton_oracle.iterations": per(sum(self.oracle_iterations),
                                                    len(self.oracle_iterations)),
            "oracles.pseudoinverse_min_norm.s": per(dur[pinv].sum(), pinv.sum()),
        }
        for span in ("model.estimate_newton_bound", "model.preconditioned_residual",
                     "model.linearized_operator", "model.solve_linearized",
                     "hilbert.DenseOperator.solve", "lapack.lu_factor", "lapack.lu_solve",
                     "lapack.svd", "flow.integrate", "continuation.solve_newton_flow"):
            m[f"{span}.calls"] = per_call(sel(span).sum())
            if not span.startswith(("flow.", "continuation.")):
                m[f"{span}.s"] = per_call(dur[sel(span)].sum())
        m["model.monotonicity_certificate.s"] = per_call(
            dur[sel("model.monotonicity_certificate")].sum())
        m["model.g_evals"] = counter.get("model.g_evals", 0.0)
        m["model.jacobian_evals"] = counter.get("model.jacobian_evals", 0.0)
        for n in ("hilbert.as_vector", "hilbert.DenseOperator.init",
                  "hilbert.DenseOperator.singular_values"):
            m[f"{n}.calls"] = counter.get(n, 0.0)
        return {k: float(v) for k, v in m.items()}
