import random
from fractions import Fraction

import pytest

from singindex.errors import NotIsolatedError, RejectedInputError
from singindex.grobner import INFINITE, Ideal, quotient_algebra
from singindex.linalg import symmetric_signature
from singindex.oracles import boundary_degree_3d, macaulay_colength, winding_degree
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


def _projection_signature_oracle(form, action):
    """Independent route: signature of P^T G P where P is the averaging
    projector and G the Gram matrix of the group-averaged functional."""
    from singindex.smooth import _action_matrices, _averaging_projector, _gram_matrix

    algebra = form.algebra
    mats = _action_matrices(algebra, action)
    n = algebra.dimension
    averaged = [Fraction(0)] * n
    for m in mats:
        for j in range(n):
            averaged[j] += sum(form.functional[i] * m[i][j] for i in range(n))
    averaged = [a / action.order for a in averaged]
    gram = _gram_matrix(algebra, averaged).entries
    p = _averaging_projector(mats, action.order)
    pt_g_p = [
        [
            sum(p[k][i] * gram[k][l] * p[l][j] for k in range(n) for l in range(n))
            for j in range(n)
        ]
        for i in range(n)
    ]
    pos, neg, _zero = symmetric_signature(pt_g_p)
    return pos - neg


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
    # projection-then-diagonalize oracle agrees
    assert _projection_signature_oracle(form, swap) == 2
    assert _projection_signature_oracle(form, antipodal) == 1


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
    assert _projection_signature_oracle(form, quarter) == 1


def test_invariant_signature_one_dimensional():
    germ = VectorFieldGerm(PLANE, ["x", "y"], field="R")
    form = elk_form(germ)
    for mats in ([[[1, 0], [0, 1]]], [[[0, 1], [1, 0]]], [[[-1, 0], [0, -1]]]):
        assert invariant_signature(form, GroupAction(PLANE, mats)) == 1
