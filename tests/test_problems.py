"""Builtin problem family and serialization tests.

Construction promises checked here: claimed tags are recomputed evidence,
known solutions really solve the equation (bitwise for the anchored
point), and the JSON round trip preserves every float exactly.
"""

import copy
import json

import numpy as np
import pytest

from dsmflow.continuation import solve_minimal_norm, solve_newton_flow
from dsmflow.errors import CertificateMismatch, ParseError
from dsmflow.flow import integrate
from dsmflow.hilbert import DenseOperator, _eig_slack, norm
from dsmflow.model import (Certificate, CertificateKind, DsmProblem, NonlinearMap,
                           full_residual, preconditioned_residual)
from dsmflow.problems import (_MAP_FACTORIES, BUILTINS, TAGS, ProblemBundle, _verify_tags,
                              ill_conditioned, load_problem, make_map,
                              save_problem, sector_blocks, singular_canonical,
                              singular_monotone, wellposed_cubic)
from evidence import diagonal_operator


# -- map registry -------------------------------------------------------------


def test_make_map_registry_and_validation():
    z = make_map("zero", 3)
    assert np.array_equal(z(np.ones(3)), np.zeros(3))
    c = make_map("constant", 2, {"offset": [1.0, -1.0]})
    assert np.array_equal(c(np.zeros(2)), [1.0, -1.0])
    with pytest.raises(ParseError):
        make_map("quartic", 2)
    with pytest.raises(ValueError):
        make_map("cubic", 2, {"scale": -0.1, "offset": np.zeros(2)})
    # a linear map's floor needs a finite matrix: eigvalsh reads a NaN one as 0
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="^linear map matrix has non-finite entries$"):
            make_map("linear", 2, {"matrix": [[1.0, bad], [0.0, 1.0]]})


_BUILTIN_MAP_PARAMS = {
    "zero": {},
    "constant": {"offset": [1.0, -1.0, 0.5]},
    "linear": {"matrix": [[2.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 3.0]]},
    "cubic": {"scale": 0.1, "offset": [0.0, 0.2, 0.0]},
    "range_cubic": {"scale": 0.1, "basis": [[1.0], [0.0], [0.0]], "offset": [0.0, 0.0, 0.1]},
}


@pytest.mark.parametrize("name", sorted(_BUILTIN_MAP_PARAMS))
def test_builtin_map_jacobian_is_dense_to_outside_callers(name):
    g = make_map(name, 3, _BUILTIN_MAP_PARAMS[name])
    u = np.array([0.5, -1.0, 2.0])
    J = g.jacobian(u)
    assert J.shape == (3, 3)
    expected = {"zero": np.zeros((3, 3)), "constant": np.zeros((3, 3)),
                "linear": np.array(_BUILTIN_MAP_PARAMS["linear"]["matrix"]),
                "cubic": np.diag(3.0 * 0.1 * u ** 2),
                "range_cubic": np.diag([3.0 * 0.1 * u[0] ** 2, 0.0, 0.0])}[name]
    assert np.array_equal(J, expected)
    # the componentwise maps hand the stage their diagonal, range_cubic its
    # d in the rank of the basis it declares, and the zero Jacobians nothing
    form = {"zero": None, "constant": None, "cubic": (3,), "range_cubic": (1,)}.get(name, (3, 3))
    inner = g._jacobian(u)
    assert (inner is None) if form is None else (inner.shape == form)
    # each factory declares its Jacobian floor: a linear map's symmetric part's
    # smallest eigenvalue, and 0 for the others
    M = expected if name == "linear" else np.zeros((3, 3))
    assert g.jac_floor == np.linalg.eigvalsh(0.5 * (M + M.T))[0]


def _with_first_entry(value, entry):
    value = copy.deepcopy(value)
    row = value
    while isinstance(row[0], list):
        row = row[0]
    row[0] = entry
    return value


def test_array_map_params_must_hold_numbers():
    # np.asarray(..., dtype=float) alone reads "0.1" as 0.1 and true as 1.0
    for name, params in _BUILTIN_MAP_PARAMS.items():
        for key in set(params) - {"scale"}:
            # a JSON integer is a number
            assert make_map(name, 3, {**params, key: _with_first_entry(params[key], 1)}).name == name
            for bad in ("0.1", True, None, {}):
                with pytest.raises(ParseError, match=f"^builtin map '{name}' param '{key}' "
                                                     f"has an entry that is not a number$"):
                    make_map(name, 3, {**params, key: _with_first_entry(params[key], bad)})
            with pytest.raises(ParseError, match=f"param '{key}' has an entry"):
                make_map(name, 3, {**params, key: np.asarray(params[key]) > 0.0})
    # a ragged matrix is refused by name, not in numpy's words
    ragged = _BUILTIN_MAP_PARAMS["linear"]["matrix"][:2] + [[1.0]]
    with pytest.raises(ParseError, match="^builtin map 'linear' param 'matrix' is ragged, "
                                         "not a rectangular array$"):
        make_map("linear", 3, {"matrix": ragged})


@pytest.mark.parametrize("name", ["cubic", "range_cubic"])
@pytest.mark.parametrize("scale", [float("nan"), float("inf"), -float("inf"), -0.1])
def test_scale_must_be_finite_and_nonnegative(name, scale):
    with pytest.raises(ValueError, match=f"^{name} scale must be finite and nonnegative"):
        make_map(name, 3, {**_BUILTIN_MAP_PARAMS[name], "scale": scale})


def test_range_cubic_requires_orthonormal_basis():
    B = np.array([[1.0], [1.0]])  # not unit norm
    with pytest.raises(ValueError, match="orthonormal"):
        make_map("range_cubic", 2, {"scale": 1.0, "basis": B,
                                    "offset": np.zeros(2)})
    # a NaN Gram defect passes the orthonormality test; the declared basis
    # is refused as the map is built
    with pytest.raises(ValueError, match="Jacobian basis must be a finite"):
        make_map("range_cubic", 2, {"scale": 1.0, "basis": [[np.nan], [0.0]],
                                    "offset": np.zeros(2)})


def test_range_cubic_acts_inside_range_only():
    B = np.array([[1.0], [0.0]])
    g = make_map("range_cubic", 2, {"scale": 2.0, "basis": B,
                                    "offset": np.zeros(2)})
    # nullspace component is invisible to the map
    assert np.array_equal(g(np.array([0.5, 9.0])), [2.0 * 0.125, 0.0])


def test_range_cubic_jacobian_is_bitwise_the_diagonal_product():
    # the Jacobian scales B's columns instead of multiplying by diag(3 s y^2),
    # whose product only adds exact zeros; y_j = 0 on a block of columns
    # when u is supported off that block, and everywhere at u = 0
    rng = np.random.default_rng(3)
    Q1, _ = np.linalg.qr(rng.standard_normal((6, 2)))
    Q2, _ = np.linalg.qr(rng.standard_normal((6, 3)))
    B = np.zeros((12, 5))
    B[:6, :2], B[6:, 2:] = Q1, Q2
    scale = 0.1
    g = make_map("range_cubic", 12, {"scale": scale, "basis": B, "offset": np.zeros(12)})
    off_block = np.concatenate([np.zeros(6), rng.standard_normal(6)])
    assert g.jac_basis is B
    for u in (rng.standard_normal(12), off_block, np.zeros(12)):
        y = B.T @ u
        old = B @ np.diag(3.0 * scale * y ** 2) @ B.T
        assert np.array_equal(g.jacobian(u), old)
        # bitwise the dense form jac_fn returned before it declared B: the
        # stage gets d = 3 s y^2, and jacobian(u) scales B's columns by it
        assert g.jacobian(u).tobytes() == ((B * (3.0 * scale * y ** 2)) @ B.T).tobytes()
        assert g._jacobian(u).tobytes() == (3.0 * scale * y ** 2).tobytes()
    assert np.count_nonzero(B.T @ off_block) == 3


# -- tag verification ----------------------------------------------------------


def test_verify_tags_rejects_false_claims():
    well = wellposed_cubic(4, scale=0.1, seed=60).problem
    with pytest.raises(CertificateMismatch, match="singular"):
        _verify_tags(well, ("singular",))
    sing = singular_monotone(4, rank=2, seed=60).problem
    with pytest.raises(CertificateMismatch, match="invertible"):
        _verify_tags(sing, ("invertible",))
    with pytest.raises(CertificateMismatch, match="unknown tag"):
        _verify_tags(well, ("banach",))
    rot = DenseOperator([[0.0, 1.0], [-1.0, 0.0]])
    p = DsmProblem(L=rot, g=make_map("zero", 2), u0=np.zeros(2), radius=1.0)
    with pytest.raises(CertificateMismatch, match="self_adjoint_psd"):
        _verify_tags(p, ("self_adjoint_psd",))


#: The one certificate kind behind each key of a build's or a solve's certificates.
_KIND_OF_KEY = {
    "invertible": CertificateKind.INVERTIBLE,
    "singular": CertificateKind.SINGULAR,
    "newton_bound": CertificateKind.NEWTON_BOUND,
    "trust_condition": CertificateKind.TRUST_CONDITION,
    "sector": CertificateKind.SECTOR,
    "monotone_g": CertificateKind.MONOTONE,
    "self_adjoint_psd": CertificateKind.RESOLVENT_BOUND,
}


def test_every_certificate_has_one_type_and_one_name():
    seen = set()
    for name, build in sorted(BUILTINS.items()):
        b = build() if name == "singular_canonical" else build(6)
        # shifted, so that the singular builtins solve as well
        sol = solve_newton_flow(b.problem.with_epsilon(0.5), require_converged=False)
        assert set(sol.certificates) == {"newton_bound", "trust_condition"}
        for certs in (b.certificates, sol.certificates):
            for key, cert in certs.items():
                assert isinstance(cert, Certificate), (name, key)
                assert cert.kind is _KIND_OF_KEY[key], (name, key)
            seen |= set(certs)
    assert seen == set(_KIND_OF_KEY)


# -- generators -----------------------------------------------------------------


@pytest.mark.parametrize("dim", [1, 4, 10])
def test_wellposed_cubic_structure(dim):
    b = wellposed_cubic(dim, scale=0.1, seed=42)
    assert isinstance(b, ProblemBundle)
    assert set(b.tags) == {"invertible", "trust_condition", "self_adjoint_psd", "monotone_g"}
    assert set(b.certificates) >= set(b.tags)
    assert b.certificates["trust_condition"].passed
    w = np.linalg.eigvalsh(b.problem.L.entries)
    assert w[0] >= 1.0 - 1e-9 and w[-1] <= 4.0 + 1e-9
    assert norm(b.problem.u0) == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 7, 50, 200])
def test_builders_form_l_bitwise_as_the_diagonal_product(dim):
    # L is (Q * lam) @ Q.T: scaling Q's columns skips the product with diag(lam),
    # which only adds exact zeros
    for seed in (0, 42):
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        A = Q @ np.diag(rng.uniform(1.0, 4.0, dim)) @ Q.T
        L = wellposed_cubic(dim, seed=seed).problem.L.entries
        assert L.tobytes() == (0.5 * (A + A.T)).tobytes()
        if dim < 2:
            continue
        rank = max(1, (dim + 1) // 2)
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        A = Q[:, :rank] @ np.diag(rng.uniform(0.5, 2.0, rank)) @ Q[:, :rank].T
        L = singular_monotone(dim, rank, seed=seed).problem.L.entries
        assert L.tobytes() == (0.5 * (A + A.T)).tobytes()


@pytest.mark.parametrize("seed", [0, 42])
@pytest.mark.parametrize("dim", [1, 2, 5, 12, 50])
def test_wellposed_cubic_radius_is_twice_p0(dim, seed):
    # g' is psd and L's spectrum lies in [1, 4), so |T(u)^{-1}| <= sqrt(kappa(L)) < 2
    # everywhere: a radius of 2 p0 passes the trust condition without sizing.
    # The build proves that bound; its eigenvalue margin lifts it above the
    # computed sqrt(kappa(L)) only at rounding level
    b = wellposed_cubic(dim, seed=seed)
    p = b.problem
    p0 = norm(preconditioned_residual(p, p.u0))
    assert p.radius == max(2.0 * p0, 1e-3)
    cert = b.certificates["newton_bound"]
    assert cert.detail.startswith("route: proof")
    kappa_root = np.sqrt(p.L.condition_estimate())
    assert kappa_root <= cert.quantities["bound"] <= kappa_root * (1.0 + 1e-12) < 2.0
    assert b.certificates["trust_condition"].passed


def test_radius_feeds_only_the_ball_check():
    # without a trust certificate the flow only records a ball exit, so the
    # trajectory does not depend on the radius
    p = wellposed_cubic(12, seed=0).problem
    wide = DsmProblem(p.L, p.g, p.u0, radius=10.0 * p.radius)
    a, b = ((r.n_accepted, r.n_rejected, r.left_ball_at, r.u_final.tobytes(),
             [(pt.t, pt.u.tobytes(), pt.p, pt.residual_F, pt.step) for pt in r.trajectory])
            for r in (integrate(p), integrate(wide)))
    assert a == b


def test_wellposed_cubic_rejects_bad_arguments():
    with pytest.raises(ValueError):
        wellposed_cubic(0)
    with pytest.raises(ValueError):
        wellposed_cubic(3, scale=-1.0)


def test_singular_monotone_exact_solutions():
    for seed in (42, 1, 7):
        b = singular_monotone(6, rank=3, seed=seed)
        # the anchored point solves bitwise, the companion point to rounding
        assert norm(full_residual(b.problem, b.min_norm_solution)) == 0.0
        assert norm(full_residual(b.problem, b.solution)) <= 1e-14
        # minimal-norm point is the range projection of the solution
        proj = b.solution - b.nullspace @ (b.nullspace.T @ b.solution)
        assert norm(b.min_norm_solution - proj) <= 1e-12
        assert b.nullspace.shape == (6, 3)
        assert np.max(np.abs(b.problem.L.entries @ b.nullspace)) <= 1e-14


def test_singular_monotone_cubic_variant():
    b = singular_monotone(6, rank=3, seed=42, cubic_scale=0.2)
    assert b.problem.g.name == "range_cubic"
    assert norm(full_residual(b.problem, b.min_norm_solution)) == 0.0
    assert np.array_equal(b.solution, b.min_norm_solution)
    assert "singular" in b.certificates and "monotone_g" in b.certificates


def test_singular_monotone_rank_validation():
    with pytest.raises(ValueError):
        singular_monotone(4, rank=0)
    with pytest.raises(ValueError):
        singular_monotone(4, rank=4)


@pytest.mark.parametrize("dim, rank", [(2, 1), (5, 3), (6, 3)])
def test_singular_monotone_default_rank_is_half_rounded_up(dim, rank):
    b = singular_monotone(dim, seed=3)
    assert np.linalg.matrix_rank(b.problem.L.entries) == rank
    assert b.nullspace.shape == (dim, dim - rank)


def test_singular_canonical_closed_form():
    b = singular_canonical()
    assert np.array_equal(b.problem.L.entries, np.diag([1.0, 0.0]))
    assert np.array_equal(b.min_norm_solution, [1.0, 0.0])
    assert np.array_equal(b.nullspace.ravel(), [0.0, 1.0])
    # any point (1, y) solves
    for y in (-3.0, 0.0, 2.5):
        assert norm(full_residual(b.problem, np.array([1.0, y]))) == 0.0


def test_ill_conditioned_hilbert_structure():
    b = ill_conditioned(8, scale=0.1, seed=42)
    # leading entries of the Hilbert matrix
    assert b.problem.L.entries[0, 0] == 1.0
    assert b.problem.L.entries[0, 1] == pytest.approx(0.5)
    assert b.problem.L.condition_estimate() > 1e9
    assert norm(full_residual(b.problem, b.solution)) <= 1e-14
    with pytest.raises(ValueError):
        ill_conditioned(13)


def test_sector_blocks_spectrum_and_shift():
    b = sector_blocks(8, seed=42)
    ev = np.linalg.eigvals(b.problem.L.entries)
    assert float(ev.real.min()) >= -1e-12
    assert b.problem.epsilon == 0.1
    assert b.certificates["sector"].passed
    assert not b.problem.L.self_adjoint
    with pytest.raises(ValueError):
        sector_blocks(5)


def count_spectral_calls(monkeypatch, fn):
    """Calls of ``np.linalg.svd``, ``eigh`` and ``eigvalsh`` while ``fn()`` runs."""
    counts = dict.fromkeys(("svd", "eigh", "eigvalsh"), 0)
    for name in counts:
        def counting(*args, _name=name, _orig=getattr(np.linalg, name), **kwargs):
            counts[_name] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counting)
    fn()
    monkeypatch.undo()
    return counts


def test_self_adjoint_build_takes_one_eigenvalue_solve(monkeypatch):
    # L's eigenvalues give its norm, conditioning, psd check and resolvent
    # bound; the cubic's diagonal Jacobian needs no eigvalsh
    counts = count_spectral_calls(monkeypatch, lambda: wellposed_cubic(dim=50))
    assert counts == {"svd": 0, "eigh": 0, "eigvalsh": 1}


def test_continuation_levels_take_no_decomposition(monkeypatch):
    # every level's L + eps*I carries L's eigenvalues plus eps
    problem = singular_monotone(10, 5).problem
    counts = count_spectral_calls(monkeypatch, lambda: solve_minimal_norm(problem))
    assert counts == {"svd": 0, "eigh": 0, "eigvalsh": 0}


def test_non_self_adjoint_build_keeps_its_svds(monkeypatch):
    # one SVD for L's norm and smallest singular value, one eigvalsh of its
    # symmetric part for the sector certificate's numerical range
    counts = count_spectral_calls(monkeypatch, lambda: sector_blocks(8))
    assert counts == {"svd": 1, "eigh": 0, "eigvalsh": 1}


def test_builtin_registry_is_complete():
    assert set(BUILTINS) == {"wellposed_cubic", "singular_monotone",
                             "singular_canonical", "ill_conditioned",
                             "sector_blocks"}
    for tag_tuple in (b.tags for b in [singular_canonical()]):
        assert set(tag_tuple) <= set(TAGS)


# -- JSON round trip ----------------------------------------------------------------


def test_save_load_round_trip_is_bitwise(tmp_path):
    b = wellposed_cubic(5, scale=0.1, seed=61)
    path = tmp_path / "prob.json"
    save_problem(b.problem, path, name="well5", tags=b.tags)
    back = load_problem(path)
    assert back.name == "well5"
    assert set(back.tags) == set(b.tags)
    assert np.array_equal(back.problem.L.entries, b.problem.L.entries)
    assert back.problem.L.self_adjoint and back.problem.L.psd_claimed
    assert np.array_equal(back.problem.u0, b.problem.u0)
    assert back.problem.radius == b.problem.radius
    assert back.problem.epsilon == b.problem.epsilon
    assert np.array_equal(back.problem.g.params["offset"],
                          b.problem.g.params["offset"])
    assert back.problem.g.params["scale"] == b.problem.g.params["scale"]
    # saving the loaded problem reproduces the file byte for byte
    path2 = tmp_path / "prob2.json"
    save_problem(back.problem, path2, name="well5", tags=b.tags)
    assert path.read_bytes() == path2.read_bytes()


def test_save_rejects_custom_maps_and_unknown_tags(tmp_path):
    custom = NonlinearMap(lambda u: u, lambda u: np.eye(u.size), name="mine")
    p = DsmProblem(L=diagonal_operator(np.ones(2)), g=custom, u0=np.zeros(2),
                   radius=1.0)
    with pytest.raises(ValueError, match="builtin"):
        save_problem(p, tmp_path / "x.json")
    q = singular_canonical().problem
    with pytest.raises(ValueError, match="unknown tags"):
        save_problem(q, tmp_path / "y.json", tags=("bogus",))


def write_doc(tmp_path, **overrides):
    doc = {
        "name": "t", "dim": 2,
        "L": {"rows": [[1.0, 0.0], [0.0, 1.0]], "flags": []},
        "g": {"builtin": "zero", "params": {}},
        "u0": [0.0, 0.0], "radius": 1.0,
    }
    doc.update(overrides)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return path


def test_load_parse_error_contexts(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError, match="invalid JSON"):
        load_problem(bad)
    with pytest.raises(ParseError, match="missing field 'radius'"):
        doc = json.loads(write_doc(tmp_path).read_text())
        del doc["radius"]
        p = tmp_path / "m.json"
        p.write_text(json.dumps(doc))
        load_problem(p)
    with pytest.raises(ParseError, match="type"):
        load_problem(write_doc(tmp_path, dim="two"))
    with pytest.raises(ParseError, match="header says 3"):
        load_problem(write_doc(tmp_path, dim=3))
    # the linear part is given inline only: an L without rows is malformed
    with pytest.raises(ParseError, match="L: missing field 'rows'$"):
        load_problem(write_doc(tmp_path, L={"file": "op.txt"}))
    with pytest.raises(ParseError, match="unknown L flags"):
        load_problem(write_doc(
            tmp_path, L={"rows": [[1.0, 0.0], [0.0, 1.0]], "flags": ["hermitian"]}))
    with pytest.raises(ParseError, match="unknown tags"):
        load_problem(write_doc(tmp_path, tags=["bogus"]))
    with pytest.raises(ParseError, match="unknown builtin"):
        load_problem(write_doc(tmp_path, g={"builtin": "quartic", "params": {}}))
    # a JSON boolean is a Python int, and a string iterates as characters
    for field, value, kind in (("dim", True, "bool"), ("radius", True, "bool"),
                               ("epsilon", True, "bool"), ("tags", "singular", "str")):
        with pytest.raises(ParseError, match=f"field '{field}' has type {kind}$"):
            load_problem(write_doc(tmp_path, **{field: value}))
    with pytest.raises(ParseError, match="field 'flags' has type str$"):
        load_problem(write_doc(tmp_path, L={"rows": [[1.0, 0.0], [0.0, 1.0]], "flags": "psd"}))
    with pytest.raises(ParseError, match="field 'params' has type list"):
        load_problem(write_doc(tmp_path, g={"builtin": "zero", "params": [0.0]}))
    # u0 and L's rows hold JSON numbers: no string, boolean or null entry, no ragged rows
    for entry in ("0.5", True, None):
        with pytest.raises(ParseError, match="^doc.json: field 'u0' has an entry that is "
                                             "not a number$"):
            load_problem(write_doc(tmp_path, u0=[entry, 0.0]))
        with pytest.raises(ParseError, match="^doc.json: L: field 'rows' has an entry that "
                                             "is not a number$"):
            load_problem(write_doc(tmp_path, L={"rows": [[entry, 0.0], [0.0, 1.0]]}))
    with pytest.raises(ParseError, match="^doc.json: L: field 'rows' is ragged, not a "
                                         "rectangular array$"):
        load_problem(write_doc(tmp_path, L={"rows": [[1.0, 0.0], [1.0]]}))
    # each builtin map without each key it needs
    needed = {"constant": {"offset": [0.0, 0.0]},
              "linear": {"matrix": [[1.0, 0.0], [0.0, 1.0]]},
              "cubic": {"scale": 0.1, "offset": [0.0, 0.0]},
              "range_cubic": {"scale": 0.1, "basis": [[1.0], [0.0]], "offset": [0.0, 0.0]}}
    assert set(needed) | {"zero"} == set(_MAP_FACTORIES)
    for builtin, params in needed.items():
        back = load_problem(write_doc(tmp_path, g={"builtin": builtin, "params": params}))
        assert back.problem.epsilon == 0.0  # default when absent
        for key in params:
            rest = {k: v for k, v in params.items() if k != key}
            with pytest.raises(ParseError, match=f"^builtin map '{builtin}' needs param '{key}'$"):
                load_problem(write_doc(tmp_path, g={"builtin": builtin, "params": rest}))
    # a scale is a JSON number: not a boolean, a string, a list or null
    for builtin in ("cubic", "range_cubic"):
        for value, kind in ((True, "bool"), ("0.1", "str"), ([0.1], "list"), (None, "NoneType")):
            params = {**needed[builtin], "scale": value}
            with pytest.raises(ParseError,
                               match=f"^builtin map '{builtin}' param 'scale' has type {kind}$"):
                load_problem(write_doc(tmp_path, g={"builtin": builtin, "params": params}))
        params = {**needed[builtin], "scale": 1}
        back = load_problem(write_doc(tmp_path, g={"builtin": builtin, "params": params}))
        assert back.problem.g.params["scale"] == 1.0


def test_load_refuses_unknown_keys(tmp_path):
    # a misspelt key was dropped before: "epsilom" loaded with epsilon = 0
    doc = json.loads(write_doc(tmp_path).read_text())
    for where, context in ((None, "doc.json"), ("L", "doc.json: L"), ("g", "doc.json: g")):
        bad = copy.deepcopy(doc)
        (bad if where is None else bad[where])["epsilom"] = 0.5
        with pytest.raises(ParseError, match=f"^{context}: unknown keys \\['epsilom'\\]$"):
            load_problem(write_doc(tmp_path, **bad))
    # a map param the map does not take, from a file and from make_map
    refused = r"^builtin map '{}' params: unknown keys \['{}'\]$"
    g = {"builtin": "cubic", "params": {"scale": 0.1, "offset": [0.0, 0.0], "ofset": [5, 5]}}
    with pytest.raises(ParseError, match=refused.format("cubic", "ofset")):
        load_problem(write_doc(tmp_path, g=g))
    with pytest.raises(ParseError, match=refused.format("linear", "ofset")):
        make_map("linear", 2, {"matrix": np.eye(2), "ofset": [5.0, 5.0]})
    with pytest.raises(ParseError, match=refused.format("zero", "scale")):
        make_map("zero", 2, {"scale": 0.1})
    # the unknown-key checks run after the reads of required fields
    with pytest.raises(ParseError, match="^doc.json: L: missing field 'rows'$"):
        load_problem(write_doc(tmp_path, L={"file": "op.txt"}, extra=1))


@pytest.mark.parametrize("build", [lambda: wellposed_cubic(3), singular_canonical,
                                   lambda: singular_monotone(4, rank=2, cubic_scale=0.1),
                                   lambda: singular_monotone(4, rank=2),
                                   lambda: sector_blocks(4)],
                         ids=["cubic", "constant", "range_cubic", "constant-rank", "sector"])
def test_every_key_save_problem_writes_loads_back(tmp_path, build):
    b = build()
    path = tmp_path / "p.json"
    save_problem(b.problem.with_epsilon(0.25), path, name="p", tags=b.tags)
    back = load_problem(path)
    again = tmp_path / "q.json"
    save_problem(back.problem, again, name="p", tags=back.tags)
    assert path.read_bytes() == again.read_bytes()


def test_load_flag_violation_is_certificate_mismatch(tmp_path):
    path = write_doc(tmp_path, L={"rows": [[0.0, 1.0], [-1.0, 0.0]],
                                  "flags": ["self_adjoint"]})
    with pytest.raises(CertificateMismatch, match="violates its flags"):
        load_problem(path)


def test_load_psd_flag_below_the_certificates_slack_is_certificate_mismatch(tmp_path):
    # lambda_min = -1e-12 fails the self_adjoint_psd certificate, so the flag is refused
    path = write_doc(tmp_path, L={"rows": [[-1e-12, 0.0], [0.0, 1.0]],
                                  "flags": ["self_adjoint", "psd"]})
    with pytest.raises(CertificateMismatch, match="psd flag violated"):
        load_problem(path)


@pytest.mark.parametrize("build", [
    *(pytest.param(lambda d=d: wellposed_cubic(d), id=f"wellposed_cubic-{d}")
      for d in (1, 10, 256)),
    *(pytest.param(lambda d=d, r=r, s=s, c=c: singular_monotone(d, r, seed=s, cubic_scale=c),
                   id=f"singular_monotone-{d}-{r}-seed{s}-cubic{c:g}")
      for d, r in ((2, 1), (200, 100)) for s in (0, 42) for c in (0.0, 0.1)),
    *(pytest.param(lambda d=d: ill_conditioned(d), id=f"ill_conditioned-{d}")
      for d in range(1, 13)),
    pytest.param(singular_canonical, id="singular_canonical"),
])
def test_psd_flag_and_tag_agree_on_every_psd_flagged_builtin(build):
    b = build()
    L = b.problem.L
    assert L.self_adjoint and L.psd_claimed and "self_adjoint_psd" in b.tags
    cert = b.certificates["self_adjoint_psd"]
    assert cert.passed and cert.quantities["margin"] >= 0.0
    assert cert.quantities["slack"] == _eig_slack(L)
