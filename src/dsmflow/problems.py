"""Built-in problem families, tag verification, JSON (de)serialization.

Each generator returns a :class:`ProblemBundle`: the problem itself, a
spec describing how it was built, certificates verifying every claimed
tag, and whatever exact solution data the construction provides.  Tags
are never taken on faith; :func:`_verify_tags` recomputes the evidence
and raises :class:`CertificateMismatch` when a claim fails.

Solution metadata is exact by construction: offsets are chosen so a
known point solves the equation bitwise, and for rank-deficient
operators the minimal-norm solution is the known point's projection
onto the range.
"""

import json
import numbers
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import CertificateMismatch, NonPsdOperator, NotSymmetric, ParseError
from .hilbert import DenseOperator, as_vector, norm
from .model import (MONOTONE_SAMPLES, Certificate, CertificateKind, DsmProblem, NonlinearMap,
                    ball_samples, certify_newton_bound, check_resolvent_bound, check_sector,
                    monotonicity_certificate)
# unused here, but perfbench/tracing.py looks these names up on this module
from .model import (check_trust_condition, estimate_newton_bound,  # noqa: F401
                    preconditioned_residual)

__all__ = [
    "TAGS",
    "ProblemSpec",
    "ProblemBundle",
    "make_map",
    "wellposed_cubic",
    "singular_monotone",
    "singular_canonical",
    "ill_conditioned",
    "sector_blocks",
    "BUILTINS",
    "save_problem",
    "load_problem",
]

#: Verifiable structural claims a problem may carry.
TAGS = ("invertible", "trust_condition", "self_adjoint_psd",
        "monotone_g", "sector", "singular")

_RESOLVENT_GRID = tuple(10.0 ** -k for k in range(7))  # 1 down to 1e-6


@dataclass(frozen=True)
class ProblemSpec:
    name: str
    params: dict
    tags: tuple


@dataclass
class ProblemBundle:
    """A problem plus its verified claims and construction-time solution data."""
    problem: DsmProblem
    spec: ProblemSpec
    certificates: dict = field(default_factory=dict)
    solution: np.ndarray = None
    min_norm_solution: np.ndarray = None
    nullspace: np.ndarray = None


# -- builtin nonlinearities ------------------------------------------------------

def _make_zero(dim, params):
    n = int(dim)
    return NonlinearMap(
        fn=lambda u: np.zeros(n),
        jac_fn=lambda u: np.zeros((n, n)),
        name="zero", params={})


def _make_constant(dim, params):
    offset = as_vector(params["offset"], dim=dim, name="offset")
    return NonlinearMap(
        fn=lambda u: offset.copy(),
        jac_fn=lambda u: np.zeros((u.size, u.size)),
        name="constant", params={"offset": offset})


def _make_linear(dim, params):
    M = np.asarray(params["matrix"], dtype=float)
    if M.shape != (dim, dim):
        raise ValueError(f"linear map matrix has shape {M.shape}, expected {(dim, dim)}")
    offset = as_vector(params.get("offset", np.zeros(dim)), dim=dim, name="offset")
    return NonlinearMap(
        fn=lambda u: M @ u + offset,
        jac_fn=lambda u: M.copy(),
        name="linear", params={"matrix": M, "offset": offset})


def _scale(name, params):
    """``params["scale"]`` as a float; it must be a real number, not a boolean.

    Any other type raises :class:`ParseError` naming ``scale``, and a
    negative scale raises ``ValueError``.
    """
    scale = params["scale"]
    if isinstance(scale, bool) or not isinstance(scale, numbers.Real):
        raise ParseError(f"builtin map {name!r} param 'scale' has type {type(scale).__name__}")
    scale = float(scale)
    if scale < 0.0:
        raise ValueError(f"{name} scale must be nonnegative, got {scale}")
    return scale


def _make_cubic(dim, params):
    scale = _scale("cubic", params)
    offset = as_vector(params["offset"], dim=dim, name="offset")
    return NonlinearMap(
        fn=lambda u: scale * u ** 3 + offset,
        jac_fn=lambda u: np.diag(3.0 * scale * u ** 2),
        name="cubic", params={"scale": scale, "offset": offset})


def _make_range_cubic(dim, params):
    scale = _scale("range_cubic", params)
    B = np.asarray(params["basis"], dtype=float)
    if B.ndim != 2 or B.shape[0] != dim:
        raise ValueError(f"range_cubic basis has shape {B.shape}, expected ({dim}, r)")
    gram_defect = float(np.max(np.abs(B.T @ B - np.eye(B.shape[1]))))
    if gram_defect > 1e-10:
        raise ValueError(f"range_cubic basis columns not orthonormal "
                         f"(Gram defect {gram_defect:.3e})")
    offset = as_vector(params["offset"], dim=dim, name="offset")

    def fn(u):
        y = B.T @ u
        return offset + scale * (B @ y ** 3)

    def jac_fn(u):
        y = B.T @ u
        # B diag(3 s y^2) B^T, with B's columns scaled instead of a diagonal product
        return (B * (3.0 * scale * y ** 2)) @ B.T

    return NonlinearMap(fn=fn, jac_fn=jac_fn, name="range_cubic",
                        params={"scale": scale, "basis": B, "offset": offset})


_MAP_FACTORIES = {
    "zero": _make_zero,
    "constant": _make_constant,
    "linear": _make_linear,
    "cubic": _make_cubic,
    "range_cubic": _make_range_cubic,
}


def make_map(name, dim, params=None):
    """Instantiate a builtin nonlinearity by registry name.

    An unknown name, ``params`` without a key the map needs, or a
    ``scale`` that is not a real number raises :class:`ParseError`.
    """
    if name not in _MAP_FACTORIES:
        raise ParseError(f"unknown builtin map {name!r}; "
                         f"known: {sorted(_MAP_FACTORIES)}")
    try:
        return _MAP_FACTORIES[name](dim, params or {})
    except KeyError as exc:
        raise ParseError(f"builtin map {name!r} needs param {exc.args[0]!r}") from None


# -- tag verification --------------------------------------------------------------

def _verify_tags(problem, tags, seed=0):
    """Recompute the evidence behind each claimed tag.

    Returns a :class:`~dsmflow.model.Certificate` per key; raises
    :class:`CertificateMismatch` on the first failed claim.  Each key is a
    tag, plus ``newton_bound`` next to ``trust_condition``, and maps to one
    kind: ``invertible`` and ``singular`` to the kind of that name, which
    compares ``sigma_min(L)`` with ``1e-10 |L|``; ``self_adjoint_psd`` to
    RESOLVENT_BOUND; ``monotone_g`` to MONOTONE; ``sector`` to SECTOR; and
    ``trust_condition`` and ``newton_bound`` to the kinds of those names.
    The ``trust_condition`` tag is verified last: it hands the
    ``monotone_g`` certificate, when that tag is claimed, to
    :func:`certify_newton_bound`, which draws its own samples from
    ``seed`` only when a route reads them.
    """
    certs = {}
    L = problem.L
    opn = L.operator_norm()
    for tag in sorted(tags, key=lambda t: t == "trust_condition"):
        if tag not in TAGS:
            raise CertificateMismatch(f"unknown tag {tag!r}")
        if tag in ("invertible", "singular"):
            smin = L.smallest_singular_value()
            if (smin > 1e-10 * opn) != (tag == "invertible"):
                raise CertificateMismatch(
                    f"tag {tag!r} failed: smallest singular value {smin:.3e} "
                    f"against operator norm {opn:.3e}")
            certs[tag] = Certificate(kind=CertificateKind(tag), passed=True,
                                     quantities={"sigma_min": smin, "operator_norm": opn})
        elif tag == "self_adjoint_psd":
            if not (L.self_adjoint and L.psd_claimed):
                raise CertificateMismatch(
                    "tag 'self_adjoint_psd' failed: operator flags not set")
            cert = check_resolvent_bound(L, _RESOLVENT_GRID)
            if not cert.passed:
                raise CertificateMismatch(
                    f"tag 'self_adjoint_psd' failed the resolvent bound: {cert.quantities}")
            certs[tag] = cert
        elif tag == "monotone_g":
            samples = ball_samples(problem.u0, problem.radius, MONOTONE_SAMPLES, seed=seed)
            cert = monotonicity_certificate(problem.g, samples)
            if not cert.passed:
                raise CertificateMismatch(
                    f"tag 'monotone_g' failed: {cert.quantities}")
            certs[tag] = cert
        elif tag == "trust_condition":
            bound_cert, cert = certify_newton_bound(problem, certs.get("monotone_g"), seed=seed)
            if not cert.passed:
                raise CertificateMismatch(
                    f"tag 'trust_condition' failed: {cert.quantities}")
            certs["newton_bound"] = bound_cert
            certs[tag] = cert
        elif tag == "sector":
            cert = check_sector(L, a=0.5, delta=np.pi / 6.0)
            if not cert.passed:
                raise CertificateMismatch(f"tag 'sector' failed: {cert.quantities}")
            certs[tag] = cert
    return certs


# -- generators ---------------------------------------------------------------------

def _bundle(problem, name, params, tags, seed, **solution):
    """Verify ``tags`` on ``problem`` with ``seed`` and bundle it with its spec.

    ``solution`` holds the construction's exact solution data, as the
    :class:`ProblemBundle` fields of those names.
    """
    certs = _verify_tags(problem, tags, seed=seed)
    spec = ProblemSpec(name=name, params=params, tags=tags)
    return ProblemBundle(problem=problem, spec=spec, certificates=certs, **solution)


def _unit(rng, dim, length=1.0):
    v = rng.standard_normal(dim)
    n = float(np.linalg.norm(v))
    if n == 0.0:
        v = np.ones(dim)
        n = float(np.linalg.norm(v))
    return v * (length / n)


def wellposed_cubic(dim, scale=0.1, seed=42):
    """Well-posed instance: SPD spectrum in [1, 4] plus a mild componentwise cubic.

    The trust radius is ``max(2 p0, 1e-3)`` with ``p0 = |u0 + L^{-1} g(u0)|``.
    With ``T(u) = I + L^{-1} g'(u)`` and ``g'(u)`` positive semidefinite,
    ``|T(u)^{-1}| <= sqrt(kappa(L))`` for every ``u``, and ``L``'s spectrum
    in ``[1, 4)`` makes that below 2, so the flow travels less than
    ``2 p0``.  That is the bound the ``trust_condition`` tag proves
    (:func:`~dsmflow.model.certify_newton_bound`, with ``L``'s eigenvalues
    and the ``monotone_g`` certificate), and it checks the tighter distance
    bound ``|f0|_L / sqrt(lambda_min(L)) <= p0 sqrt(kappa(L))`` against the
    radius.  So one draw from ``seed`` is built and its four tags are
    verified once; a failed tag raises :class:`CertificateMismatch`.
    """
    dim = int(dim)
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((dim, dim))
    Q, _ = np.linalg.qr(G)
    lam = rng.uniform(1.0, 4.0, dim)
    A = Q @ np.diag(lam) @ Q.T
    L = DenseOperator(0.5 * (A + A.T), self_adjoint=True, psd_claimed=True)
    c = _unit(rng, dim, 0.5)
    u0 = _unit(rng, dim, 0.5)
    g = make_map("cubic", dim, {"scale": scale, "offset": c})
    p0 = norm(u0 + L.solve(g(u0)))
    prob = DsmProblem(L, g, u0, radius=max(2.0 * p0, 1e-3))
    return _bundle(prob, f"wellposed_cubic(dim={dim})", {"scale": scale, "seed": seed},
                   ("invertible", "trust_condition", "self_adjoint_psd", "monotone_g"), seed)


def singular_monotone(dim, rank=None, seed=42, cubic_scale=0.0):
    """Rank-deficient self-adjoint psd instance with a known minimal-norm solution.

    The linear part has ``rank`` positive eigenvalues in [0.5, 2] and a
    ``dim - rank`` dimensional nullspace; ``rank`` defaults to
    ``max(1, (dim + 1) // 2)``.  The offset is chosen so a known
    point solves the equation exactly; its projection onto the range is
    the minimal-norm solution.  With ``cubic_scale > 0`` a cubic acting
    inside the range is added, which leaves the solution-set geometry
    (range part unique, null part free) intact.
    """
    dim = int(dim)
    rank = max(1, (dim + 1) // 2) if rank is None else int(rank)
    if not 1 <= rank < dim:
        raise ValueError(f"need 1 <= rank < dim, got rank={rank} dim={dim}")
    if cubic_scale < 0.0:
        raise ValueError(f"cubic scale must be nonnegative, got {cubic_scale}")
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((dim, dim))
    Q, _ = np.linalg.qr(G)
    Qr = Q[:, :rank]
    Q0 = Q[:, rank:]
    lam = rng.uniform(0.5, 2.0, rank)
    A = Qr @ np.diag(lam) @ Qr.T
    L = DenseOperator(0.5 * (A + A.T), self_adjoint=True, psd_claimed=True)
    w = _unit(rng, dim)
    v_min = Qr @ (Qr.T @ w)
    if cubic_scale == 0.0:
        offset = -(L.entries @ v_min)
        g = make_map("constant", dim, {"offset": offset})
    else:
        y = Qr.T @ v_min
        offset = -(L.entries @ v_min + cubic_scale * (Qr @ y ** 3))
        g = make_map("range_cubic", dim,
                     {"scale": cubic_scale, "basis": Qr, "offset": offset})
    u0 = np.zeros(dim)
    radius = 2.0 * (1.0 + norm(v_min))
    prob = DsmProblem(L, g, u0, radius=radius)
    return _bundle(prob, f"singular_monotone(dim={dim}, rank={rank})",
                   {"rank": rank, "seed": seed, "cubic_scale": cubic_scale},
                   ("self_adjoint_psd", "monotone_g", "singular"), seed,
                   solution=w if cubic_scale == 0.0 else v_min,
                   min_norm_solution=v_min, nullspace=Q0)


def singular_canonical():
    """The textbook rank-1 case: diag(1, 0) with constant offset (-1, 0).

    Solutions form the vertical line through (1, 0); the minimal-norm
    solution is (1, 0) and the shifted solutions are (1/(1+eps), 0), so
    every continuation quantity has a closed form.
    """
    L = DenseOperator(np.diag([1.0, 0.0]), self_adjoint=True, psd_claimed=True)
    g = make_map("constant", 2, {"offset": np.array([-1.0, 0.0])})
    prob = DsmProblem(L, g, np.zeros(2), radius=4.0)
    return _bundle(prob, "singular_canonical", {},
                   ("self_adjoint_psd", "monotone_g", "singular"), 0,
                   solution=np.array([1.0, 0.0]),
                   min_norm_solution=np.array([1.0, 0.0]),
                   nullspace=np.array([[0.0], [1.0]]))


def ill_conditioned(dim, scale=0.1, seed=42):
    """Hilbert-matrix instance: psd but numerically near-singular.

    The unshifted linearized solves are hopeless beyond tiny dimensions;
    the point of this family is that shift continuation still works,
    because every shifted operator is decently conditioned.  The offset
    is built so a known unit vector solves the equation exactly.
    """
    dim = int(dim)
    if not 1 <= dim <= 12:
        raise ValueError(f"dimension must lie in [1, 12], got {dim}")
    rng = np.random.default_rng(seed)
    L = DenseOperator(scipy.linalg.hilbert(dim), self_adjoint=True, psd_claimed=True)
    w = _unit(rng, dim)
    offset = -(L.entries @ w + scale * w ** 3)
    g = make_map("cubic", dim, {"scale": scale, "offset": offset})
    prob = DsmProblem(L, g, np.zeros(dim), radius=2.0 * (1.0 + norm(w)))
    return _bundle(prob, f"ill_conditioned(dim={dim})", {"scale": scale, "seed": seed},
                   ("self_adjoint_psd", "monotone_g"), seed, solution=w)


def sector_blocks(dim, seed=42, scale=0.1):
    """Non-self-adjoint instance whose spectrum avoids a sector around the negative axis.

    Block-diagonal rotation/dilation blocks put all eigenvalues at
    ``a + b*i`` with ``a >= 0`` and ``|b| >= 0.5``, so the sector
    certificate and the shifted resolvent bound are exercised on a
    genuinely non-normal-route operator.  Carries the shift 0.1 (change it
    with :meth:`~dsmflow.model.DsmProblem.with_epsilon`) because the first
    block is singular-free but has purely imaginary spectrum.
    """
    dim = int(dim)
    if dim < 2 or dim % 2 != 0:
        raise ValueError(f"dimension must be even and >= 2, got {dim}")
    rng = np.random.default_rng(seed)
    blocks = [np.array([[0.0, 1.0], [-1.0, 0.0]])]
    for _ in range(dim // 2 - 1):
        a = float(rng.uniform(0.2, 1.0))
        b = float(rng.uniform(0.5, 1.5))
        blocks.append(np.array([[a, b], [-b, a]]))
    L = DenseOperator(scipy.linalg.block_diag(*blocks))
    c = _unit(rng, dim, 0.25)
    g = make_map("cubic", dim, {"scale": scale, "offset": c})
    prob = DsmProblem(L, g, np.zeros(dim), radius=2.0, epsilon=0.1)
    return _bundle(prob, f"sector_blocks(dim={dim})", {"seed": seed, "scale": scale},
                   ("sector", "monotone_g"), seed)


#: Generators reachable from the command line.
BUILTINS = {
    "wellposed_cubic": wellposed_cubic,
    "singular_monotone": singular_monotone,
    "singular_canonical": singular_canonical,
    "ill_conditioned": ill_conditioned,
    "sector_blocks": sector_blocks,
}


# -- JSON round trip ------------------------------------------------------------------

def _params_to_json(params):
    out = {}
    for key, val in params.items():
        if isinstance(val, np.ndarray):
            out[key] = val.tolist()
        else:
            out[key] = val
    return out


def save_problem(problem, path, name="custom", tags=()):
    """Serialize a problem with a builtin nonlinearity to JSON.

    Floats go through ``repr`` (the json module's default), which round-
    trips binary64 exactly, so save/load is bitwise faithful.
    """
    if problem.g.name not in _MAP_FACTORIES:
        raise ValueError(
            f"only builtin nonlinearities can be serialized, got {problem.g.name!r}")
    unknown = set(tags) - set(TAGS)
    if unknown:
        raise ValueError(f"unknown tags: {sorted(unknown)}")
    flags = []
    if problem.L.self_adjoint:
        flags.append("self_adjoint")
    if problem.L.psd_claimed:
        flags.append("psd")
    doc = {
        "name": name,
        "dim": problem.dim,
        "L": {"rows": problem.L.entries.tolist(), "flags": flags},
        "g": {"builtin": problem.g.name,
              "params": _params_to_json(problem.g.params)},
        "u0": problem.u0.tolist(),
        "radius": problem.radius,
        "epsilon": problem.epsilon,
        "tags": list(tags),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


_MISSING = object()


def _require(doc, key, kind, context, default=_MISSING):
    """``doc[key]`` if it has type ``kind``; a JSON boolean is not a number.

    A missing key returns ``default`` if one is given.  Otherwise it
    raises :class:`ParseError`, as a value of another type does.
    """
    if key not in doc:
        if default is _MISSING:
            raise ParseError(f"{context}: missing field {key!r}")
        return default
    val = doc[key]
    if isinstance(val, bool) or not isinstance(val, kind):
        raise ParseError(f"{context}: field {key!r} has type {type(val).__name__}")
    return val


def load_problem(path):
    """Load a problem bundle from JSON written by :func:`save_problem`.

    The linear part is given inline, as ``rows`` and optional ``flags``
    (``self_adjoint``, ``psd``).  Structural flags are verified at
    construction; a violated flag surfaces as :class:`CertificateMismatch`.
    A malformed file raises :class:`ParseError` naming the field.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON ({exc})") from None
    ctx = os.path.basename(path)
    name = _require(doc, "name", str, ctx)
    dim = _require(doc, "dim", int, ctx)
    Ldoc = _require(doc, "L", dict, ctx)
    rows = _require(Ldoc, "rows", list, f"{ctx}: L")
    flags = _require(Ldoc, "flags", list, f"{ctx}: L", [])
    unknown = [flag for flag in flags if flag not in ("self_adjoint", "psd")]
    if unknown:
        raise ParseError(f"{ctx}: unknown L flags {unknown}")
    try:
        L = DenseOperator(rows, self_adjoint="self_adjoint" in flags,
                          psd_claimed="psd" in flags)
    except (NotSymmetric, NonPsdOperator) as exc:
        raise CertificateMismatch(f"{ctx}: linear part violates its flags: {exc}") from exc
    if L.dim != dim:
        raise ParseError(f"{ctx}: L has dimension {L.dim}, header says {dim}")
    gdoc = _require(doc, "g", dict, ctx)
    builtin = _require(gdoc, "builtin", str, f"{ctx}: g")
    params = _require(gdoc, "params", dict, f"{ctx}: g", {})
    g = make_map(builtin, dim, params)
    u0 = _require(doc, "u0", list, ctx)
    radius = _require(doc, "radius", (int, float), ctx)
    epsilon = _require(doc, "epsilon", (int, float), ctx, 0.0)
    tags = _require(doc, "tags", list, ctx, [])
    unknown = [tag for tag in tags if tag not in TAGS]
    if unknown:
        raise ParseError(f"{ctx}: unknown tags {unknown}")
    problem = DsmProblem(L, g, np.asarray(u0, dtype=float), radius=radius,
                         epsilon=epsilon)
    spec = ProblemSpec(name=name, params=dict(params), tags=tuple(tags))
    return ProblemBundle(problem=problem, spec=spec)
