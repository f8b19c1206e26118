import random
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

from singindex.errors import NotIsolatedError, RejectedInputError
from singindex.dual import dual_basis
from singindex import grobner, smooth
from singindex.grobner import DEFAULT_DEGREE_CAP, INFINITE, Ideal, quotient_algebra
from singindex.jobs import run_job
from singindex.oracles import (
    boundary_degree_3d,
    macaulay_colength,
    signature_by_charpoly,
    winding_degree,
)
from singindex.poly import Polynomial
from singindex.smooth import (
    ELKForm,
    GroupAction,
    OneFormGerm,
    SectionCollection,
    VectorFieldGerm,
    collection_index,
    complex_form_index,
    elk_form,
    elk_index,
    invariant_dimension,
    invariant_signature,
    palamodov_index,
    realify,
)

PLANE = ("x", "y")


# -- colength index of holomorphic fields


def test_palamodov_examples():
    assert palamodov_index(VectorFieldGerm(("z1", "z2"), ["z1", "z2"])) == 1
    assert palamodov_index(VectorFieldGerm(("z1", "z2"), ["z1^2", "z2^3"])) == 6
    assert palamodov_index(VectorFieldGerm(("z1", "z2"), ["z1^2 - z2", "z2^2"])) == 4


def test_palamodov_non_isolated_is_infinite():
    assert palamodov_index(VectorFieldGerm(PLANE, ["x*y", "0"])) is INFINITE


def test_palamodov_nonsingular_is_zero():
    assert palamodov_index(VectorFieldGerm(PLANE, ["1 + x", "y"])) == 0


# -- the signature index


ELK_CASES = [
    (["x", "y"], 1),
    (["x^3", "y"], 1),
    (["x^2 - y^2", "2*x*y"], 2),
    (["x^3 - 3*x*y^2", "3*x^2*y - y^3"], 3),
    (["x^2", "y"], 0),
    (["x*y", "x^2 - y^2"], -2),
    (["x^3 + x*y^2", "y"], 1),
]


@pytest.mark.parametrize("components,expected", ELK_CASES)
def test_elk_matches_winding_oracle(components, expected):
    germ = VectorFieldGerm(PLANE, components, field="R")
    assert elk_index(germ) == expected
    assert winding_degree(components, PLANE) == expected


SPACE_CASES = [
    (["x^3", "y", "z"], 1),
    (["x^2 - y^2", "2*x*y", "z^3"], 2),
]


@pytest.mark.parametrize("components,expected", SPACE_CASES)
def test_elk_three_variables(components, expected):
    germ = VectorFieldGerm(("x", "y", "z"), components, field="R")
    assert elk_index(germ) == expected
    assert boundary_degree_3d(components, ("x", "y", "z")) == expected


QUOTIENT_CASES = (
    [(PLANE, components) for components, _ in ELK_CASES]
    + [(("x", "y", "z"), components) for components, _ in SPACE_CASES]
    + [
        (("z1", "z2"), ["z1^2", "z2^3"]),
        (("z1", "z2"), ["z1^2 - z2", "z2^2"]),
        (PLANE, ["x^2", "y^2"]),
    ]
)


@pytest.mark.parametrize("variables,components", QUOTIENT_CASES)
def test_quotient_dimension_matches_macaulay_oracle(variables, components):
    algebra = quotient_algebra(Ideal.from_strings(components, variables))
    assert algebra.dimension == macaulay_colength(components, variables)


def test_elk_requires_real_tag():
    with pytest.raises(RejectedInputError):
        elk_index(VectorFieldGerm(PLANE, ["x", "y"], field="C"))


def test_elk_rejects_non_isolated():
    with pytest.raises(NotIsolatedError):
        elk_index(VectorFieldGerm(PLANE, ["x*y", "0"], field="R"))


def test_elk_functional_independence():
    # any functional positive on the Jacobian class gives the same
    # signature as the default one, plus or minus one dual vector
    rng = random.Random(7)
    germ = VectorFieldGerm(PLANE, ["x^2 - y^2", "2*x*y"], field="R")
    base = elk_form(germ)
    _check_default_functional(base)
    jac = base.jacobian_coords
    found = 0
    while found < 3:
        candidate = [Fraction(rng.randint(-5, 5)) for _ in range(base.algebra.dimension)]
        value = sum(c * j for c, j in zip(candidate, jac))
        if value == 0:
            continue
        if value < 0:
            candidate = [-c for c in candidate]
        assert _signature_of(base.algebra, candidate) == base.signature() == 2
        found += 1


def _check_default_functional(form):
    """The default functional is +1 or -1 at one coordinate, the star,
    with the sign of the Jacobian class there."""
    (star,) = [k for k, w in enumerate(form.functional) if w]
    assert all(type(w) is int for w in form.functional)
    assert form.functional[star] in (1, -1)
    assert form.functional[star] * form.jacobian_coords[star] > 0


def _gram_by_coords(algebra, weights):
    """[phi(b_i b_j)] for phi = sum_k weights[k] * coords[k], from the
    full coordinates of the basis products."""
    monomials = [Polynomial(algebra.context, {b: 1}) for b in algebra.basis]
    return [
        [sum(w * c for w, c in zip(weights, algebra.coords(p * q))) for q in monomials]
        for p in monomials
    ]


def _signature_of(algebra, weights):
    """Signature of the Gram matrix of the functional with these weights,
    by the characteristic polynomial oracle."""
    pos, neg, zero = signature_by_charpoly(_gram_by_coords(algebra, weights))
    assert zero == 0
    return pos - neg


def test_elk_of_realified_system_equals_complex_colength():
    instances = [
        (("z",), ["z^2"], 2),
        (("z",), ["z^3"], 3),
        (("z",), ["z^4"], 4),
        (("z",), ["z^2 + z^3"], 2),
        (("z1", "z2"), ["z1^2", "z2^2"], 4),
    ]
    for variables, components, expected in instances:
        assert palamodov_index(VectorFieldGerm(variables, components)) == expected
        real_vars, real_comps = realify(variables, components)
        germ = VectorFieldGerm(real_vars, real_comps, field="R")
        assert elk_index(germ) == expected


def test_positive_definite_gradient_has_index_one():
    # gradient of a positive definite quadratic: both routes give 1
    germ_c = VectorFieldGerm(PLANE, ["x", "y"])
    germ_r = VectorFieldGerm(PLANE, ["x", "y"], field="R")
    assert palamodov_index(germ_c) == elk_index(germ_r) == 1


# -- complex 1-forms


def test_complex_form_examples():
    for n in (1, 2, 3):
        ctx = tuple(f"z{i}" for i in range(1, n + 1))
        coeffs = [f"z{i}" for i in range(1, n + 1)]
        assert complex_form_index(OneFormGerm(ctx, coeffs)) == 1
    assert complex_form_index(OneFormGerm(("z1", "z2"), ["1", "0"])) == 0
    assert complex_form_index(OneFormGerm(("z1", "z2"), ["z1^2", "z2"])) == 2
    assert complex_form_index(OneFormGerm(("z1", "z2"), ["z1", "0"])) is INFINITE


# -- collections


def test_collection_reduces_to_single_field():
    ctx = ("z1", "z2", "z3")
    coll = SectionCollection(ctx, rank=3, partition=[3], matrices=[[["z1"], ["z2"], ["z3"]]])
    assert collection_index(coll) == 1
    germ = VectorFieldGerm(ctx, ["z1", "z2", "z3"])
    assert collection_index(coll) == palamodov_index(germ)


def test_collection_two_groups():
    coll = SectionCollection(
        PLANE,
        rank=2,
        partition=[1, 1],
        matrices=[[["x", "0"], ["0", "1"]], [["1", "0"], ["0", "y"]]],
    )
    assert collection_index(coll) == 1
    coll = SectionCollection(
        PLANE,
        rank=2,
        partition=[1, 1],
        matrices=[[["x^2", "0"], ["0", "1"]], [["1", "0"], ["0", "y^3"]]],
    )
    assert collection_index(coll) == 6


def test_collection_partition_must_sum():
    with pytest.raises(RejectedInputError):
        SectionCollection(PLANE, rank=2, partition=[1], matrices=[[["x", "0"], ["0", "1"]]])


# -- group actions on the quotient algebra


def square_algebra():
    x = VectorFieldGerm(PLANE, ["x^2", "y^2"])
    return quotient_algebra(Ideal(list(x.components)))


def test_invariant_dimension_examples():
    q = square_algebra()
    trivial = GroupAction(PLANE, [[[1, 0], [0, 1]]])
    swap = GroupAction(PLANE, [[[0, 1], [1, 0]]])
    antipodal = GroupAction(PLANE, [[[-1, 0], [0, -1]]])
    assert invariant_dimension(q, trivial) == q.dimension == 4
    assert invariant_dimension(q, swap) == 3
    assert invariant_dimension(q, antipodal) == 2


def test_invariant_dimension_bounded_by_dimension():
    q = square_algebra()
    for mats in ([[[0, 1], [1, 0]]], [[[-1, 0], [0, -1]]], [[[0, -1], [1, 0]]]):
        action = GroupAction(PLANE, mats)
        assert invariant_dimension(q, action) <= q.dimension


def test_non_invariant_ideal_rejected():
    algebra = quotient_algebra(Ideal.from_strings(["x^2", "y^3"], PLANE))
    swap = GroupAction(PLANE, [[[0, 1], [1, 0]]])
    with pytest.raises(RejectedInputError):
        invariant_dimension(algebra, swap)


def test_action_closure_cap():
    # a shear has infinite order; the closure must hit the cap
    with pytest.raises(RejectedInputError, match="cap of 512 elements"):
        GroupAction(PLANE, [[[1, 1], [0, 1]]])


def _equivariant_oracle(form, action):
    """Independent route to (invariant dimension, invariant signature).

    Each group element gets its matrix on the algebra from the
    coordinates of the substituted basis monomials; their average P is
    the averaging projector, whose trace is the invariant dimension.
    The stored functional is averaged over the group, its Gram matrix G
    is built from the full coordinate vectors of the basis products, and
    the signature is that of P^T G P, read off its characteristic
    polynomial."""
    algebra = form.algebra
    ctx = algebra.context
    n = algebra.dimension
    monomials = [Polynomial(ctx, {b: Fraction(1)}) for b in algebra.basis]
    projector = [[Fraction(0)] * n for _ in range(n)]
    for g in action.elements:
        images = [
            sum((Polynomial.variable(ctx, v) * c for v, c in zip(ctx, row)), Polynomial.zero(ctx))
            for row in g
        ]
        for j, b in enumerate(algebra.basis):
            image = Polynomial.one(ctx)
            for x, e in zip(images, b):
                image = image * x**e
            for i, c in enumerate(algebra.coords(image)):
                projector[i][j] += c / action.order
    dimension = sum(projector[i][i] for i in range(n))
    assert dimension.denominator == 1
    averaged = [sum(form.functional[i] * projector[i][j] for i in range(n)) for j in range(n)]
    gram = [
        [sum(a * c for a, c in zip(averaged, algebra.coords(p * q))) for q in monomials]
        for p in monomials
    ]
    pt_g_p = [
        [
            sum(
                projector[k][i] * gram[k][l] * projector[l][j]
                for k in range(n)
                for l in range(n)
                if projector[k][i] and projector[l][j]
            )
            for j in range(n)
        ]
        for i in range(n)
    ]
    pos, neg, _zero = signature_by_charpoly(pt_g_p)
    return int(dimension), pos - neg


def test_invariant_signature_examples():
    germ = VectorFieldGerm(PLANE, ["x^3", "y^3"], field="R")
    form = elk_form(germ)
    assert form.signature() == 1

    trivial = GroupAction(PLANE, [[[1, 0], [0, 1]]])
    assert invariant_signature(form, trivial) == elk_index(germ)

    swap = GroupAction(PLANE, [[[0, 1], [1, 0]]])
    antipodal = GroupAction(PLANE, [[[-1, 0], [0, -1]]])
    assert invariant_signature(form, swap) == 2
    assert invariant_signature(form, antipodal) == 1
    # the per-element oracle agrees
    assert _equivariant_oracle(form, swap) == (invariant_dimension(form.algebra, swap), 2) == (6, 2)
    assert _equivariant_oracle(form, antipodal) == (invariant_dimension(form.algebra, antipodal), 1) == (5, 1)


def test_invariant_signature_quarter_turn():
    # the order-4 rotation (x, y) -> (-y, x) mixes monomials with signs;
    # on the algebra of (x^3, y^3) the fixed subspace is spanned by
    # 1, x^2 y^2 and x^2 + y^2, and the restricted pairing is a
    # hyperbolic pair plus one positive square
    germ = VectorFieldGerm(PLANE, ["x^3", "y^3"], field="R")
    form = elk_form(germ)
    quarter = GroupAction(PLANE, [[[0, -1], [1, 0]]])
    assert quarter.order == 4
    assert invariant_dimension(form.algebra, quarter) == 3
    assert invariant_signature(form, quarter) == 1
    assert _equivariant_oracle(form, quarter) == (3, 1)


@pytest.mark.parametrize("seed", [1, 2])
def test_invariant_parts_of_the_benchmark_documents_match_the_oracle(monkeypatch, seed):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import make_stream

    jobs = [
        job
        for rnd in make_stream("elk-signature", seed, 3)
        for job in rnd
        if job.family.startswith("elk-action")
    ]
    assert len(jobs) == 12
    # one invariance check and one set of group sums per document: the
    # algebra reads the Jacobian class and each ideal generator's image
    # under each group generator
    projectors = []
    real = smooth._reynolds

    def spy(algebra, action):
        projectors.append(action)
        return real(algebra, action)

    monkeypatch.setattr(smooth, "_reynolds", spy)
    coords = []
    real_coords = grobner.QuotientAlgebra.coords
    monkeypatch.setattr(
        grobner.QuotientAlgebra, "coords", lambda self, poly: coords.append(poly) or real_coords(self, poly)
    )
    for job in jobs:
        projectors.clear()
        coords.clear()
        report, code = run_job(job.doc)
        assert code == 0
        payload = job.doc["payload"]
        assert len(projectors) == 1
        assert len(coords) == 1 + len(payload["action"]) * len(payload["data"])
        form = elk_form(VectorFieldGerm(payload["variables"], payload["data"], field="R"))
        action = GroupAction(payload["variables"], payload["action"])
        assert _equivariant_oracle(form, action) == (
            report.values["invariant_dimension"],
            report.values["invariant_signature"],
        )
        assert report.values["invariant_dimension"] == job.expect["values"]["invariant_dimension"]


def test_elk_form_reads_the_gram_matrix_off_the_dual_columns(monkeypatch):
    # every product of two basis monomials is a column or has class 0, on
    # the probe's route and on the integration route alike, so each Gram
    # entry is one entry of the default functional's dual vector; a
    # custom functional gives the same signature
    germs = [VectorFieldGerm(PLANE, c, field="R") for c, _ in ELK_CASES]
    germs += [VectorFieldGerm(("x", "y", "z"), c, field="R") for c, _ in SPACE_CASES]
    probes = []
    for germ in germs:
        assert dual_basis(list(germ.components), DEFAULT_DEGREE_CAP) is not None
        probes.append(elk_form(germ))
    monkeypatch.setattr(grobner, "dual_basis", lambda generators, degree_cap: None)
    for germ, probe in zip(germs, probes):
        form = elk_form(germ)
        assert form.algebra.basis == probe.algebra.basis
        assert (form.gram, form.denominator) == (probe.gram, probe.denominator)
        for each in (form, probe):
            _check_default_functional(each)
            expected = _gram_by_coords(each.algebra, each.functional)
            assert each.gram == [[each.denominator * v for v in row] for row in expected]
        custom = [Fraction(k % 3 - 1, k + 1) for k in range(form.algebra.dimension)]
        value = sum(c * j for c, j in zip(custom, form.jacobian_coords))
        if value == 0:
            custom = [c + f for c, f in zip(custom, form.functional)]
        elif value < 0:
            custom = [-c for c in custom]
        assert _signature_of(form.algebra, custom) == form.signature()


def test_elk_gram_is_an_integer_matrix_over_one_denominator(monkeypatch):
    # the Gram entries are the integer numerators of one dual vector
    # over its denominator, on the integration route too (phi = the
    # coordinate of x*y^4 here)
    germ = VectorFieldGerm(
        PLANE,
        ["-x^5*y - x^3*y^3 - 2*x^2*y^3 - x^4 + 3/2*y^4", "2*x*y^5 - 3*x*y^3 - 3*y^4 - x^2*y"],
        field="R",
    )
    probe = elk_form(germ)
    star = probe.algebra.basis.index((1, 4))
    assert probe.functional == tuple(int(k == star) for k in range(probe.algebra.dimension))
    assert probe.jacobian_coords[star] > 0
    monkeypatch.setattr(grobner, "dual_basis", lambda generators, degree_cap: None)
    route = elk_form(germ)
    assert route.functional == probe.functional
    assert (route.gram, route.denominator) == (probe.gram, probe.denominator)
    basis = probe.algebra.basis
    for form in (probe, route):
        # phi's dual vector is its support, {monomial: non-zero int},
        # over the form's denominator; a Gram entry reads it at b_i b_j
        support, denominator = form.algebra.dual_vector(star)
        assert denominator == form.denominator > 0
        assert all(type(v) is int and v for v in support.values())
        assert form.gram == [
            [support.get(tuple(x + y for x, y in zip(a, b)), 0) for b in basis] for a in basis
        ]
        assert all(type(v) is int for row in form.gram for v in row)
        expected = _gram_by_coords(form.algebra, form.functional)
        assert form.gram == [[form.denominator * v for v in row] for row in expected]
        assert form.signature() == probe.signature() == 0


def test_invariant_signature_one_dimensional():
    germ = VectorFieldGerm(PLANE, ["x", "y"], field="R")
    form = elk_form(germ)
    for mats in ([[[1, 0], [0, 1]]], [[[0, 1], [1, 0]]], [[[-1, 0], [0, -1]]]):
        assert invariant_signature(form, GroupAction(PLANE, mats)) == 1


XYZ = ("x", "y", "z")
S3 = [[[0, 1, 0], [1, 0, 0], [0, 0, 1]], [[0, 1, 0], [0, 0, 1], [1, 0, 0]]]
EQUIVARIANT_CASES = [
    # S3 permuting x, y, z
    (XYZ, ["x^3", "y^3", "z^3"], S3, (10, 2)),
    # x -> 2y, y -> x/2: a rational matrix exchanging the two generators
    (PLANE, ["x^3", "8*y^3"], [[[0, 2], [Fraction(1, 2), 0]]], (6, 2)),
    # the quarter turn on the real part and imaginary part of z^3
    (PLANE, ["x^3 - 3*x*y^2", "3*x^2*y - y^3"], [[[0, -1], [1, 0]]], (3, 1)),
    (PLANE, ["x^5 + y^6", "y^5 + x^6"], [[[0, 1], [1, 0]]], (15, 3)),
]


@pytest.mark.parametrize("variables,components,generators,expected", EQUIVARIANT_CASES)
def test_group_sums_match_the_equivariant_oracle_on_both_routes(
    monkeypatch, variables, components, generators, expected
):
    germ = VectorFieldGerm(variables, components, field="R")
    action = GroupAction(variables, generators)
    assert dual_basis(list(germ.components), DEFAULT_DEGREE_CAP) is not None
    forms = [elk_form(germ)]
    monkeypatch.setattr(grobner, "dual_basis", lambda generators, degree_cap: None)
    forms.append(elk_form(germ))
    for form in forms:
        got = (invariant_dimension(form.algebra, action), invariant_signature(form, action))
        assert got == _equivariant_oracle(form, action) == expected


def _dense_pairing(algebra, polys, star, sign, denominator):
    """[sign * phi(P_i P_j)] with phi = denominator times coordinate
    star: every product formed in full and reduced by coords."""
    return [
        [sign * denominator * algebra.coords(p * q)[star] for q in polys] for p in polys
    ]


@pytest.mark.parametrize("variables,components,generators,expected", EQUIVARIANT_CASES)
def test_the_sparse_pairing_gives_the_dense_gram_matrices_on_both_routes(
    monkeypatch, variables, components, generators, expected
):
    # the form's Gram matrix on the basis monomials, and the restricted
    # Gram matrix on the group sums scaled to integers (several terms
    # each under the swap of x^5 + y^6 and y^5 + x^6, Fraction
    # coefficients before scaling under x -> 2y, y -> x/2)
    germ = VectorFieldGerm(variables, components, field="R")
    action = GroupAction(variables, generators)
    real_signature = smooth.symmetric_signature
    restricted = []
    monkeypatch.setattr(
        smooth, "symmetric_signature", lambda m: restricted.append(m) or real_signature(m)
    )
    for force_route in (False, True):
        if force_route:
            monkeypatch.setattr(grobner, "dual_basis", lambda generators, degree_cap: None)
        form = elk_form(germ)
        algebra = form.algebra
        (star,) = [k for k, w in enumerate(form.functional) if w]
        args = (star, form.functional[star], form.denominator)
        monomials = [Polynomial(algebra.context, {b: 1}) for b in algebra.basis]
        assert form.gram == _dense_pairing(algebra, monomials, *args)
        sums, dimension = smooth._reynolds(algebra, action)
        scale = lcm(*(c.denominator for total in sums for c in total.terms.values()))
        restricted.clear()
        assert smooth.invariant_values(form, action) == (dimension, expected[1]) == expected
        assert restricted == [_dense_pairing(algebra, [t * scale for t in sums], *args)]
        assert all(type(v) is int for row in restricted[0] for v in row)
    if components == ["x^5 + y^6", "y^5 + x^6"]:
        assert sum(len(t.terms) > 1 for t in sums) > 10


def test_averaged_functional_vanishing_on_the_jacobian_class_is_refused(monkeypatch):
    # the swap sends the Jacobian class 2x^2 - 2y^2 to its negative, so
    # its group average is 0 and no averaged functional is positive on it
    germ = VectorFieldGerm(PLANE, ["x^2 + y^2", "x*y"], field="R")
    action = GroupAction(PLANE, [[[0, 1], [1, 0]], [[-1, 0], [0, 1]]])
    assert action.order == 8
    for force_route in (False, True):
        if force_route:
            monkeypatch.setattr(grobner, "dual_basis", lambda generators, degree_cap: None)
        form = elk_form(germ)
        assert invariant_dimension(form.algebra, action) == _equivariant_oracle(form, action)[0] == 1
        with pytest.raises(RejectedInputError, match="averaged functional is not positive"):
            invariant_signature(form, action)


def test_an_action_document_reads_the_algebra_once_per_check(monkeypatch):
    # coordinates for the Jacobian class and for each transformed ideal
    # generator under each group generator, and nothing else
    coords = []
    real_coords = grobner.QuotientAlgebra.coords
    monkeypatch.setattr(
        grobner.QuotientAlgebra, "coords", lambda self, poly: coords.append(poly) or real_coords(self, poly)
    )
    sums = []
    real_reynolds = smooth._reynolds
    monkeypatch.setattr(smooth, "_reynolds", lambda *args: sums.append(args) or real_reynolds(*args))
    for variables, components, generators, expected in EQUIVARIANT_CASES + [
        (PLANE, ["x^3", "y^3"], [], (9, 1))
    ]:
        coords.clear()
        sums.clear()
        payload = {"field": "R", "variables": list(variables), "data": components}
        payload["action"] = [[[str(x) for x in row] for row in g] for g in generators]
        report, code = run_job({"command": "elk", "payload": payload})
        assert code == 0
        assert (report.values["invariant_dimension"], report.values["invariant_signature"]) == expected
        assert len(coords) == 1 + len(generators) * len(components)
        assert len(sums) == 1


@pytest.mark.parametrize("variables", [("y", "x"), XYZ])
def test_an_action_on_other_variables_is_refused_before_any_substitution(monkeypatch, variables):
    form = elk_form(VectorFieldGerm(PLANE, ["x^3", "y^3"], field="R"))
    n = len(variables)
    action = GroupAction(variables, [[[int(i == n - 1 - j) for j in range(n)] for i in range(n)]])
    images = []
    real_image = smooth._image
    monkeypatch.setattr(smooth, "_image", lambda *args: images.append(args) or real_image(*args))
    for call in (lambda: invariant_dimension(form.algebra, action), lambda: invariant_signature(form, action)):
        with pytest.raises(RejectedInputError, match="action variables"):
            call()
    assert images == []


def test_an_action_document_never_substitutes_and_refuses_any_moving_generator(monkeypatch):
    # the invariance check and the group sums both take their images from
    # _image; a group generator that moves the ideal is refused with one
    # text, second, after the identity, or after a repeated generator
    substituted = []
    real_substitute = Polynomial.substitute
    monkeypatch.setattr(
        Polynomial, "substitute", lambda self, images: substituted.append(self) or real_substitute(self, images)
    )
    identity, flip, swap = [[1, 0], [0, 1]], [[-1, 0], [0, 1]], [[0, 1], [1, 0]]

    def run(data, action):
        return run_job({"command": "elk", "payload": {"variables": list(PLANE), "data": data, "action": action}})

    report, code = run(["x^3", "y^3"], [flip, swap])
    assert code == 0
    assert (report.values["invariant_dimension"], report.values["invariant_signature"]) == (3, 1)
    refusal = [{"path": "$.payload.action", "message": "ideal is not invariant under the action"}]
    for action in ([flip, swap], [identity, swap], [flip, flip, swap], [swap, swap]):
        report, code = run(["x^3", "y^2"], action)
        assert (code, report.values) == (2, {"diagnostics": refusal})
    assert substituted == []
