import random
from fractions import Fraction
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
    # any functional positive on the Jacobian class gives the same signature
    rng = random.Random(7)
    germ = VectorFieldGerm(PLANE, ["x^2 - y^2", "2*x*y"], field="R")
    base = elk_form(germ)
    jac = base.jacobian_coords
    found = 0
    while found < 3:
        candidate = [Fraction(rng.randint(-5, 5)) for _ in range(base.algebra.dimension)]
        value = sum(c * j for c, j in zip(candidate, jac))
        if value == 0:
            continue
        if value < 0:
            candidate = [-c for c in candidate]
        assert elk_index(germ, functional=candidate) == 2
        found += 1


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
    with pytest.raises(RejectedInputError):
        GroupAction(PLANE, [[[1, 1], [0, 1]]], cap=64)


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
            for row in g.entries
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
    # one invariance check and one Reynolds projector per document
    projectors = []
    real = smooth._reynolds

    def spy(algebra, action):
        projectors.append(action)
        return real(algebra, action)

    monkeypatch.setattr(smooth, "_reynolds", spy)
    checks = []
    real_check = smooth.ideal_is_invariant
    monkeypatch.setattr(smooth, "ideal_is_invariant", lambda *args: checks.append(args) or real_check(*args))
    for job in jobs:
        projectors.clear()
        checks.clear()
        report, code = run_job(job.doc)
        assert code == 0
        assert len(projectors) == len(checks) == 1
        payload = job.doc["payload"]
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
    # entry is one entry of the folded functional, for the default
    # functional and for a custom one
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
        assert form.gram == [[form.denominator * v for v in row] for row in _gram_by_coords(form)]
        custom = [Fraction(k % 3 - 1, k + 1) for k in range(form.algebra.dimension)]
        value = sum(c * j for c, j in zip(custom, form.jacobian_coords))
        if value == 0:
            custom = [c + f for c, f in zip(custom, form.functional)]
        elif value < 0:
            custom = [-c for c in custom]
        assert elk_index(germ, functional=custom) == form.signature()


def _gram_by_coords(form):
    """[phi(b_i b_j)] from the full coordinates of the basis products."""
    algebra = form.algebra
    monomials = [Polynomial(algebra.context, {b: 1}) for b in algebra.basis]
    return [
        [sum(w * c for w, c in zip(form.functional, algebra.coords(p * q))) for q in monomials]
        for p in monomials
    ]


def test_elk_gram_is_an_integer_matrix_over_one_denominator(monkeypatch):
    # the Gram entries are the folded integer numerators over the
    # functional's scale, on the integration route too (phi = the
    # coordinate of x*y^4 here)
    germ = VectorFieldGerm(
        PLANE,
        ["-x^5*y - x^3*y^3 - 2*x^2*y^3 - x^4 + 3/2*y^4", "2*x*y^5 - 3*x*y^3 - 3*y^4 - x^2*y"],
        field="R",
    )
    probe = elk_form(germ)
    star = probe.algebra.basis.index((1, 4))
    functional = [int(k == star) for k in range(probe.algebra.dimension)]
    assert probe.jacobian_coords[star] > 0
    forms = [probe, elk_form(germ, functional=functional)]
    monkeypatch.setattr(grobner, "dual_basis", lambda generators, degree_cap: None)
    forms.append(elk_form(germ, functional=functional))
    assert forms[2].algebra.functional(functional)[1] == forms[2].denominator
    assert (forms[2].gram, forms[2].denominator) == (forms[1].gram, forms[1].denominator)
    for form in forms:
        assert all(type(v) is int for row in form.gram for v in row)
        assert form.denominator > 0
        expected = _gram_by_coords(form)
        assert form.gram == [[form.denominator * v for v in row] for row in expected]
        assert form.signature() == probe.signature() == 0


def test_invariant_signature_one_dimensional():
    germ = VectorFieldGerm(PLANE, ["x", "y"], field="R")
    form = elk_form(germ)
    for mats in ([[[1, 0], [0, 1]]], [[[0, 1], [1, 0]]], [[[-1, 0], [0, -1]]]):
        assert invariant_signature(form, GroupAction(PLANE, mats)) == 1
