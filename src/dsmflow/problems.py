"""Built-in problem families, tag verification, JSON (de)serialization.

Each generator returns a :class:`ProblemBundle`: the problem itself, its
name and claimed tags, certificates verifying every claimed tag, and
whatever exact solution data the construction provides.  Tags are never
taken on faith; :func:`_verify_tags` recomputes the evidence and raises
:class:`CertificateMismatch` when a claim fails.

Solution metadata is exact by construction: offsets are chosen so a
known point solves the equation bitwise, and for rank-deficient
operators the minimal-norm solution is the known point's projection
onto the range.
"""

import json
import math
import numbers
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import CertificateMismatch, NonPsdOperator, NotSymmetric, ParseError
from .hilbert import DenseOperator, as_vector, norm
from .model import (Certificate, CertificateKind, DsmProblem, NonlinearMap, certify_newton_bound,
                    check_resolvent_bound, check_sector, monotonicity_certificate)
# unused here, but perfbench/tracing.py looks these names up on this module
from .model import (ball_samples, check_trust_condition, estimate_newton_bound,  # noqa: F401
                    preconditioned_residual)

__all__ = [
    "TAGS",
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


@dataclass
class ProblemBundle:
    """A problem, its name and claimed tags, and construction-time solution data.

    ``certificates`` holds the verified evidence behind ``tags``
    (:func:`_verify_tags`) for the problem as built; a bundle loaded from a
    file, or one whose problem was shifted afterwards, holds none.
    """
    problem: DsmProblem
    name: str
    tags: tuple
    certificates: dict = field(default_factory=dict)
    solution: np.ndarray = None
    min_norm_solution: np.ndarray = None
    nullspace: np.ndarray = None


# -- builtin nonlinearities ------------------------------------------------------

def _is_real(x):
    """Whether ``x`` is a real number: a boolean or a string is not."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _reals(what, value):
    """``value`` as a float array; every entry must be a real number.

    An array of another dtype, or a (nested) list with an entry that is a
    boolean, a string or anything else but a real number, raises
    :class:`ParseError` naming ``what``, as a ragged list does:
    ``np.asarray(..., dtype=float)`` alone would read ``"0.1"`` as 0.1 and
    ``true`` as 1.0, and refuse a ragged list in numpy's words.
    """
    def reals(x):
        if isinstance(x, np.ndarray):
            return x.dtype.kind in "fiu"
        if isinstance(x, (list, tuple)):
            return all(map(reals, x))
        return _is_real(x)

    if not reals(value):
        raise ParseError(f"{what} has an entry that is not a number")
    try:
        return np.asarray(value, dtype=float)
    except ValueError:
        raise ParseError(f"{what} is ragged, not a rectangular array") from None


def _make_zero(dim, params):
    n = int(dim)
    return NonlinearMap(fn=lambda u: np.zeros(n), jac_fn=None, name="zero", params={},
                        jac_floor=0.0)


def _make_constant(dim, params):
    offset = as_vector(_reals("builtin map 'constant' param 'offset'", params["offset"]),
                       dim=dim, name="offset")
    return NonlinearMap(fn=lambda u: offset.copy(), jac_fn=None,
                        name="constant", params={"offset": offset}, jac_floor=0.0)


def _make_linear(dim, params):
    M = _reals("builtin map 'linear' param 'matrix'", params["matrix"])
    if M.shape != (dim, dim):
        raise ValueError(f"linear map matrix has shape {M.shape}, expected {(dim, dim)}")
    if not np.isfinite(M).all():
        raise ValueError("linear map matrix has non-finite entries")
    offset = as_vector(_reals("builtin map 'linear' param 'offset'",
                              params.get("offset", np.zeros(dim))), dim=dim, name="offset")
    return NonlinearMap(
        fn=lambda u: M @ u + offset,
        jac_fn=lambda u: M.copy(),
        name="linear", params={"matrix": M, "offset": offset},
        jac_floor=np.linalg.eigvalsh(0.5 * (M + M.T))[0])


def _scale(name, params):
    """``params["scale"]`` as a float; it must be a real number, not a boolean.

    Any other type raises :class:`ParseError` naming ``scale``, and a
    negative or non-finite scale raises ``ValueError``.
    """
    scale = params["scale"]
    if not _is_real(scale):
        raise ParseError(f"builtin map {name!r} param 'scale' has type {type(scale).__name__}")
    scale = float(scale)
    if not (math.isfinite(scale) and scale >= 0.0):
        raise ValueError(f"{name} scale must be finite and nonnegative, got {scale}")
    return scale


def _make_cubic(dim, params):
    scale = _scale("cubic", params)
    offset = as_vector(_reals("builtin map 'cubic' param 'offset'", params["offset"]),
                       dim=dim, name="offset")
    return NonlinearMap(
        fn=lambda u: scale * (u * u * u) + offset,  # products: u ** 3 calls pow
        jac_fn=lambda u: 3.0 * scale * u ** 2,  # the diagonal of g'(u)
        name="cubic", params={"scale": scale, "offset": offset}, jac_floor=0.0)


def _make_range_cubic(dim, params):
    """``g(u) = offset + s B (B^T u)^3``, a cubic in the range of the orthonormal ``(dim, r)`` ``B``.

    Its Jacobian ``B diag(3 s (B^T u)^2) B^T`` has rank at most ``r``, and
    the map declares it so: ``jac_basis = B``, with ``jac_fn`` returning
    ``d = 3 s (B^T u)^2`` of length ``r``.  A flow stage then solves it in
    rank ``r`` (see :func:`~dsmflow.model.newton_velocity`), and
    ``jacobian(u)`` is ``(B * d) @ B^T``, bitwise the dense matrix this map
    returned before it declared ``B``.  ``jac_floor`` is 0, since ``s >= 0``.
    """
    scale = _scale("range_cubic", params)
    B = _reals("builtin map 'range_cubic' param 'basis'", params["basis"])
    if B.ndim != 2 or B.shape[0] != dim:
        raise ValueError(f"range_cubic basis has shape {B.shape}, expected ({dim}, r)")
    gram_defect = float(np.max(np.abs(B.T @ B - np.eye(B.shape[1]))))
    if gram_defect > 1e-10:
        raise ValueError(f"range_cubic basis columns not orthonormal "
                         f"(Gram defect {gram_defect:.3e})")
    offset = as_vector(_reals("builtin map 'range_cubic' param 'offset'", params["offset"]),
                       dim=dim, name="offset")

    def fn(u):
        y = B.T @ u
        return offset + scale * (B @ (y * y * y))

    def jac_fn(u):
        # d = 3 s y^2 of g'(u) = B diag(d) B^T, declared through jac_basis
        y = B.T @ u
        return 3.0 * scale * y ** 2

    # B diag(3 s y^2) B^T is psd, since _scale refuses a negative scale
    return NonlinearMap(fn=fn, jac_fn=jac_fn, name="range_cubic",
                        params={"scale": scale, "basis": B, "offset": offset}, jac_floor=0.0,
                        jac_basis=B)


_MAP_FACTORIES = {
    "zero": _make_zero,
    "constant": _make_constant,
    "linear": _make_linear,
    "cubic": _make_cubic,
    "range_cubic": _make_range_cubic,
}


def make_map(name, dim, params=None):
    """Instantiate a builtin nonlinearity by registry name.

    An unknown name, ``params`` without a key the map needs, a ``scale``
    that is not a real number, an array param (``offset``, ``basis``,
    ``matrix``) with an entry that is not one, or a param the map does not
    take raises :class:`ParseError`.  The map's own ``params`` hold every
    param it takes.
    """
    if name not in _MAP_FACTORIES:
        raise ParseError(f"unknown builtin map {name!r}; "
                         f"known: {sorted(_MAP_FACTORIES)}")
    params = params or {}
    try:
        g = _MAP_FACTORIES[name](dim, params)
    except KeyError as exc:
        raise ParseError(f"builtin map {name!r} needs param {exc.args[0]!r}") from None
    _refuse_unknown(params, g.params, f"builtin map {name!r} params")
    return g


# -- tag verification --------------------------------------------------------------

def _verify_tags(problem, tags):
    """Recompute the evidence behind each claimed tag.

    Returns a :class:`~dsmflow.model.Certificate` per key; raises
    :class:`CertificateMismatch` on the first failed claim.  Each key is a
    tag, plus ``newton_bound`` next to ``trust_condition``, and maps to one
    kind: ``invertible`` and ``singular`` to the kind of that name, which
    compares ``sigma_min(L)`` with ``1e-10 |L|``; ``self_adjoint_psd`` to
    RESOLVENT_BOUND, one comparison of ``lambda_min(L)`` with the
    eigensolver's rounding (:func:`~dsmflow.model.check_resolvent_bound`),
    which fails only where the flags are not set, since the psd flag is
    verified by that comparison when ``L`` is built;
    ``monotone_g`` to MONOTONE; ``sector`` to SECTOR, the sector of radius
    0.5 and half-angle ``pi/6`` (:func:`~dsmflow.model.check_sector`); and
    ``trust_condition`` and ``newton_bound`` to the kinds of those names.
    ``monotone_g`` reads the Jacobian floor ``g`` declares and samples
    nothing; ``trust_condition`` calls :func:`certify_newton_bound`, so a
    problem gets the certificates its solve gets: a proof, or a bound
    sampled on one fixed cloud of ball samples.
    """
    certs = {}
    L = problem.L
    opn = L.operator_norm()
    for tag in tags:
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
            # the psd flag was verified by the same comparison, so this passes
            certs[tag] = check_resolvent_bound(L)
        elif tag == "monotone_g":
            cert = monotonicity_certificate(problem.g)
            if not cert.passed:
                raise CertificateMismatch(
                    f"tag 'monotone_g' failed: {cert.quantities}")
            certs[tag] = cert
        elif tag == "trust_condition":
            bound_cert, cert = certify_newton_bound(problem)
            if not cert.passed:
                raise CertificateMismatch(
                    f"tag 'trust_condition' failed: {cert.quantities}")
            certs["newton_bound"] = bound_cert
            certs[tag] = cert
        elif tag == "sector":
            cert = check_sector(L)
            if not cert.passed:
                raise CertificateMismatch(f"tag 'sector' failed: {cert.quantities}")
            certs[tag] = cert
    return certs


# -- generators ---------------------------------------------------------------------

def _bundle(problem, name, tags, **solution):
    """Verify ``tags`` on ``problem`` and bundle it with its name and certificates.

    ``solution`` holds the construction's exact solution data, as the
    :class:`ProblemBundle` fields of those names.
    """
    return ProblemBundle(problem=problem, name=name, tags=tags,
                         certificates=_verify_tags(problem, tags), **solution)


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
    and the cubic's declared Jacobian floor 0), and it checks the tighter distance
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
    L = DenseOperator((Q * lam) @ Q.T, self_adjoint=True, psd_claimed=True)
    c = _unit(rng, dim, 0.5)
    u0 = _unit(rng, dim, 0.5)
    g = make_map("cubic", dim, {"scale": scale, "offset": c})
    p0 = norm(u0 + L.solve(g(u0)))
    prob = DsmProblem(L, g, u0, radius=max(2.0 * p0, 1e-3))
    return _bundle(prob, f"wellposed_cubic(dim={dim})",
                   ("invertible", "trust_condition", "self_adjoint_psd", "monotone_g"))


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
    L = DenseOperator((Qr * lam) @ Qr.T, self_adjoint=True, psd_claimed=True)
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
                   ("self_adjoint_psd", "monotone_g", "singular"),
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
    return _bundle(prob, "singular_canonical",
                   ("self_adjoint_psd", "monotone_g", "singular"),
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
    return _bundle(prob, f"ill_conditioned(dim={dim})", ("self_adjoint_psd", "monotone_g"),
                   solution=w)


def sector_blocks(dim, seed=42, scale=0.1):
    """Non-self-adjoint instance whose spectrum avoids a sector around the negative axis.

    Block-diagonal rotation/dilation blocks put all eigenvalues at
    ``a + b*i`` with ``a >= 0`` and ``|b| >= 0.5``, so the sector
    certificate's numerical-range route and the sampled Newton bound are
    exercised on an operator without the self-adjoint flag; it claims no
    ``self_adjoint_psd`` tag, so no resolvent bound is taken.  Carries the
    shift 0.1 (change it with :meth:`~dsmflow.model.DsmProblem.with_epsilon`)
    because the first block is singular-free but has purely imaginary spectrum.
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
    return _bundle(prob, f"sector_blocks(dim={dim})", ("sector", "monotone_g"))


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


def _refuse_unknown(doc, known, context):
    """Raise :class:`ParseError` naming every key of ``doc`` not in ``known``."""
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise ParseError(f"{context}: unknown keys {unknown}")


def load_problem(path):
    """Load a problem bundle from JSON written by :func:`save_problem`.

    The linear part is given inline, as ``rows`` and optional ``flags``
    (``self_adjoint``, ``psd``).  Structural flags are verified at
    construction; a violated flag surfaces as :class:`CertificateMismatch`.
    A malformed file raises :class:`ParseError` naming the field, and a
    key that :func:`save_problem` does not write, at the top level, in
    ``L`` or in ``g``, raises it naming the key.
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
    rows = _reals(f"{ctx}: L: field 'rows'", _require(Ldoc, "rows", list, f"{ctx}: L"))
    flags = _require(Ldoc, "flags", list, f"{ctx}: L", [])
    unknown = [flag for flag in flags if flag not in ("self_adjoint", "psd")]
    if unknown:
        raise ParseError(f"{ctx}: unknown L flags {unknown}")
    _refuse_unknown(Ldoc, ("rows", "flags"), f"{ctx}: L")
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
    _refuse_unknown(gdoc, ("builtin", "params"), f"{ctx}: g")
    g = make_map(builtin, dim, params)
    u0 = _reals(f"{ctx}: field 'u0'", _require(doc, "u0", list, ctx))
    radius = _require(doc, "radius", (int, float), ctx)
    epsilon = _require(doc, "epsilon", (int, float), ctx, 0.0)
    tags = _require(doc, "tags", list, ctx, [])
    unknown = [tag for tag in tags if tag not in TAGS]
    if unknown:
        raise ParseError(f"{ctx}: unknown tags {unknown}")
    _refuse_unknown(doc, ("name", "dim", "L", "g", "u0", "radius", "epsilon", "tags"), ctx)
    problem = DsmProblem(L, g, u0, radius=radius, epsilon=epsilon)
    return ProblemBundle(problem=problem, name=name, tags=tuple(tags))
