import itertools
import random

import pytest

from singindex import burnside
from singindex.burnside import (
    MAX_SUBGROUPS,
    BurnsideElement,
    PermutationGroup,
    _conjugations,
    burnside_mul,
    equivariant_euler,
    equivariant_gsv_from_radial,
    equivariant_ph_check,
    equivariant_radial_index,
    induction,
    r0,
    restriction,
    subgroup_as_group,
)
from singindex.errors import RejectedInputError
from singindex.grobner import Ideal
from singindex.jobs import run_job
from singindex.linalg import symmetric_signature
from singindex.oracles import (
    burnside_mul_by_orbits,
    marks_by_cosets,
    restriction_by_orbits,
    subgroups_by_closure,
)
from singindex.poly import Polynomial


def z2():
    return PermutationGroup(2, [[1, 0]])


def z4():
    return PermutationGroup(4, [[1, 2, 3, 0]])


def v4():
    return PermutationGroup(4, [[1, 0, 3, 2], [2, 3, 0, 1]])


def s3():
    return PermutationGroup(3, [[1, 0, 2], [1, 2, 0]])


def d4():
    return PermutationGroup(4, [[1, 2, 3, 0], [1, 0, 3, 2]])


def a4():
    return PermutationGroup(4, [[1, 0, 3, 2], [1, 2, 0, 3]])


def conjugate(sub, g):
    """g sub g^-1, composing permutations as (p . q)(i) = p(q(i))."""
    g_inv = [0] * len(g)
    for i, x in enumerate(g):
        g_inv[x] = i
    return frozenset(tuple(g[h[g_inv[i]]] for i in range(len(g))) for h in sub)


def class_of_order(group, order, which=0):
    found = [c for c in group.classes() if c.order == order]
    return found[which].index


def test_subgroup_class_counts():
    assert len(z2().classes()) == 2
    assert len(s3().classes()) == 4
    assert len(z4().classes()) == 3
    assert len(v4().classes()) == 5
    assert len(d4().classes()) == 8
    assert len(a4().classes()) == 5


def test_class_ordering_and_marks_shape():
    for group in (z2(), z4(), s3(), d4()):
        classes = group.classes()
        orders = [c.order for c in classes]
        assert orders == sorted(orders)
        assert classes[0].order == 1 and classes[-1].order == group.order
        marks = group.table_of_marks()
        n = len(classes)
        for i in range(n):
            for j in range(n):
                if j > i:
                    assert marks[i][j] == 0
            # diagonal = |N_G(K)| / |K|
            k_sub = classes[i].representative
            normalizer = sum(
                1
                for g in group.elements
                if conjugate(k_sub, g) == k_sub
            )
            assert marks[i][i] == normalizer // len(k_sub) > 0


def test_unit_element():
    for group in (z2(), s3(), d4()):
        unit = BurnsideElement.unit(group)
        for idx in range(len(group.classes())):
            x = BurnsideElement.basis(group, idx)
            assert burnside_mul(unit, x) == x


def test_z2_free_square():
    group = z2()
    free = BurnsideElement.basis(group, 0)
    assert burnside_mul(free, free) == free.scale(2)


def test_s3_mixed_product_is_free():
    group = s3()
    tau = class_of_order(group, 2)
    sigma = class_of_order(group, 3)
    e = class_of_order(group, 1)
    product = burnside_mul(
        BurnsideElement.basis(group, tau), BurnsideElement.basis(group, sigma)
    )
    assert product == BurnsideElement.basis(group, e)


def s4():
    return PermutationGroup(4, [[1, 0, 2, 3], [1, 2, 3, 0]])


def d6():
    return PermutationGroup(6, [[1, 2, 3, 4, 5, 0], [0, 5, 4, 3, 2, 1]])


def c2_4():
    return PermutationGroup(
        8,
        [
            [1, 0, 2, 3, 4, 5, 6, 7],
            [0, 1, 3, 2, 4, 5, 6, 7],
            [0, 1, 2, 3, 5, 4, 6, 7],
            [0, 1, 2, 3, 4, 5, 7, 6],
        ],
    )


def a5():
    return PermutationGroup(5, [[1, 2, 0, 3, 4], [1, 2, 3, 4, 0]])


def s5():
    return PermutationGroup(5, [[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]])


def dihedral(n):
    return PermutationGroup(n, [[(i + 1) % n for i in range(n)], [(-i) % n for i in range(n)]])


def d12():
    return dihedral(12)


def d15():
    return dihedral(15)


def c24():
    return PermutationGroup(24, [[(i + 1) % 24 for i in range(24)]])


def c7xc7():
    a = [(i + 1) % 7 for i in range(7)] + list(range(7, 14))
    b = list(range(7)) + [7 + (i + 1) % 7 for i in range(7)]
    return PermutationGroup(14, [a, b])


def c2_6():
    return PermutationGroup(
        12, [[4 * k + 1 - i if i // 2 == k else i for i in range(12)] for k in range(6)]
    )


@pytest.mark.parametrize(
    "make", [z2, z4, v4, s3, d4, a4, s4, d6, c2_4, d12, d15, c24, c7xc7, a5]
)
def test_subgroups_match_closure_oracle(make):
    group = make()
    subgroups = group.subgroups()
    assert len(set(subgroups)) == len(subgroups)
    assert set(subgroups) == subgroups_by_closure(group.degree, group.elements)


@pytest.mark.parametrize("make", [s3, d4, a4, s4, d6, c2_4, d12])
def test_classes_partition_the_oracle_lattice_by_conjugation(make):
    group = make()
    lattice = subgroups_by_closure(group.degree, group.elements)
    by_conjugation = {frozenset(conjugate(sub, g) for g in group.elements) for sub in lattice}
    classes = group.classes()
    assert {c.members for c in classes} == by_conjugation
    for c in classes:
        assert c.representative == min(c.members, key=sorted)
        assert c.order == len(c.representative)


def random_group(seed):
    """A group of order at most 48 on 4 to 7 points drawn from the seed:
    1 to 3 random generators, half the time all keeping the split
    {0..k-1} | {k..d-1}, so that direct products turn up."""
    rng = random.Random(seed)
    while True:
        degree = rng.randint(4, 7)
        k = rng.choice([degree, rng.randint(2, degree - 2)])
        gens = [
            rng.sample(range(k), k) + rng.sample(range(k, degree), degree - k)
            for _ in range(rng.randint(1, 3))
        ]
        try:
            group = PermutationGroup(degree, gens)
        except RejectedInputError:  # past the group cap
            continue
        if group.order <= 48:
            return group


@pytest.mark.parametrize("seed", range(40))
def test_random_group_lattice_matches_closure_oracle(seed):
    group = random_group(seed)
    lattice = subgroups_by_closure(group.degree, group.elements)
    assert set(group.subgroups()) == lattice
    by_conjugation = {frozenset(conjugate(sub, g) for g in group.elements) for sub in lattice}
    assert {c.members for c in group.classes()} == by_conjugation
    # the closure's generator images go once the table is built
    assert group._images is None


@pytest.mark.parametrize("make, non_trivial", [(c2_4, 66), (c7xc7, 9)])
def test_prime_index_overgroups_leave_one_closure_per_subgroup(monkeypatch, make, non_trivial):
    # in an abelian group of exponent p, <H, c> has index p over H for
    # every c outside H, so the known ones are marked before the closure
    # is taken and every closure finds a new subgroup
    group = make()
    closures = []
    real_dimino = burnside._dimino

    def spy(*args):
        closures.append(args)
        return real_dimino(*args)

    monkeypatch.setattr(burnside, "_dimino", spy)
    assert len(group.subgroups()) == non_trivial + 1
    assert len(closures) <= non_trivial


@pytest.mark.parametrize("make, maps", [(c2_4, 0), (c7xc7, 0), (c24, 0), (s4, 2), (d15, 2)])
def test_central_generators_have_no_conjugation_map(make, maps):
    _, rows, gens = make()._indexed()
    assert len(_conjugations(rows, gens)) == maps


def test_lattice_past_max_subgroups_is_rejected():
    # C2^6 has 2825 subgroups
    group = c2_6()
    assert group.order == 64
    with pytest.raises(RejectedInputError) as err:
        group.classes()
    assert str(err.value) == f"the subgroup lattice has more than {MAX_SUBGROUPS} subgroups"


@pytest.mark.parametrize("make", [s4, a5, s5])
def test_marks_match_coset_oracle(make):
    group = make()
    assert group.table_of_marks() == marks_by_cosets(group)


def test_s5_lattice():
    group = s5()
    assert len(group.subgroups()) == 156
    assert [c.order for c in group.classes()] == [
        1, 2, 2, 3, 4, 4, 4, 5, 6, 6, 6, 8, 10, 12, 12, 20, 24, 60, 120
    ]


def test_marks_homomorphism_multiplicative():
    for group in (z2(), z4(), v4(), s3(), d4(), a4(), s4()):
        n = len(group.classes())
        for i in range(n):
            for j in range(n):
                a = BurnsideElement.basis(group, i)
                b = BurnsideElement.basis(group, j)
                product = burnside_mul(a, b)
                lhs = product.marks()
                rhs = [x * y for x, y in zip(a.marks(), b.marks())]
                assert lhs == rhs


def test_mul_commutative_associative_small_groups():
    for group in (z2(), z4(), v4(), s3(), a4()):
        n = len(group.classes())
        basis = [BurnsideElement.basis(group, i) for i in range(n)]
        for a, b in itertools.product(basis, repeat=2):
            assert burnside_mul(a, b) == burnside_mul(b, a)
        for a, b, c in itertools.product(basis, repeat=3):
            assert burnside_mul(burnside_mul(a, b), c) == burnside_mul(
                a, burnside_mul(b, c)
            )


def test_mul_matches_orbit_counting():
    for group in (z2(), z4(), v4(), s3(), d4(), a4()):
        n = len(group.classes())
        for i in range(n):
            for j in range(n):
                direct = burnside_mul_by_orbits(group, i, j)
                via_marks = burnside_mul(
                    BurnsideElement.basis(group, i), BurnsideElement.basis(group, j)
                )
                assert direct == via_marks


def test_restriction_examples():
    group = s3()
    tau_class = class_of_order(group, 2)
    sigma_class = class_of_order(group, 3)
    tau = group.classes()[tau_class].representative

    # restriction to the whole group is the identity
    same = restriction(BurnsideElement.basis(group, sigma_class), group.element_set())
    assert same.coefficients == {sigma_class: 1}

    # [G/<sigma>] as a <tau>-set: two cosets swapped, one free orbit
    res = restriction(BurnsideElement.basis(group, sigma_class), tau)
    assert res.group.order == 2
    assert res.coefficients == {0: 1}

    # Z2: [G/e] restricted to the trivial group is two fixed points
    two = z2()
    triv = frozenset([two.identity])
    res = restriction(BurnsideElement.basis(two, 0), triv)
    assert res.group.order == 1 and res.coefficients == {0: 2}


def test_restriction_rejects_non_subgroup():
    group = s3()
    with pytest.raises(RejectedInputError):
        restriction(
            BurnsideElement.basis(group, 0), frozenset([(1, 0, 2), (0, 1, 2), (1, 2, 0)])
        )


def test_subgroup_as_group_refuses_what_is_no_subgroup(monkeypatch):
    # a transposition and a 3-cycle generate all of S3
    not_closed = [(0, 1, 2), (1, 0, 2), (1, 2, 0)]
    with pytest.raises(RejectedInputError) as err:
        subgroup_as_group(s3(), not_closed)
    assert str(err.value) == "not a subgroup of this group"
    # <(0 1)> is a subgroup of S3 but not of C3, and it is refused before
    # any closure is taken
    c3 = PermutationGroup(3, [[1, 2, 0]])
    closures = []
    real_dimino = burnside._dimino
    monkeypatch.setattr(burnside, "_dimino", lambda *args: closures.append(args) or real_dimino(*args))
    with pytest.raises(RejectedInputError) as err:
        subgroup_as_group(c3, [(0, 1, 2), (1, 0, 2)])
    assert str(err.value) == "not a subgroup of this group"
    assert closures == []


@pytest.mark.parametrize("make", [s3, d4, a4])
def test_subgroup_as_group_accepts_the_trivial_group_and_the_whole_group(make):
    group = make()
    assert subgroup_as_group(group, [group.identity]).elements == [group.identity]
    assert subgroup_as_group(group, group.element_set()) == group


def _lattice_record(group):
    classes, lookup = group.subgroup_classes()
    described = [(c.index, c.representative, c.order, c.members) for c in classes]
    return described, lookup, group.table_of_marks(), group.subgroups()


@pytest.mark.parametrize("make", [s3, d4, a4, s4, c2_4])
def test_the_lattice_is_the_same_whichever_view_comes_first(make):
    usual = make()
    usual.subgroups()
    expected = _lattice_record(usual)
    for first in ("table_of_marks", "subgroup_classes"):
        group = make()
        getattr(group, first)()
        assert _lattice_record(group) == expected


def _two_groups_added():
    return BurnsideElement.basis(z2(), 0) + BurnsideElement.basis(z4(), 0)


def _induced_past_the_target():
    # <(0 1)> is not a subgroup of C3
    source = PermutationGroup(3, [[1, 0, 2]])
    return induction(BurnsideElement.basis(source, 0), PermutationGroup(3, [[1, 2, 0]]))


def _ideal_over_two_contexts():
    return Ideal([Polynomial.variable(("x", "y"), "x"), Polynomial.variable(("x", "z"), "x")])


REFUSALS = {
    "burnside-sum-over-two-groups": (_two_groups_added, "Burnside elements over different groups"),
    "induction-into-a-non-overgroup": (
        _induced_past_the_target,
        "element is not over a subgroup of the target group",
    ),
    "ph-check-chi-over-another-group": (
        lambda: equivariant_ph_check(s3(), [], BurnsideElement.unit(z2())),
        "Euler characteristic is over the wrong group",
    ),
    "from-elements-without-identity": (
        lambda: PermutationGroup.from_elements(2, {(1, 0)}),
        "element set does not contain the identity",
    ),
    "signature-non-square": (lambda: symmetric_signature([[1, 2]]), "signature needs a square matrix"),
    "signature-non-symmetric": (
        lambda: symmetric_signature([[0, 1], [2, 0]]),
        "signature needs a symmetric matrix",
    ),
    "ideal-over-two-contexts": (_ideal_over_two_contexts, "ideal generators must share one context"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_library_refusals_keep_their_text(case):
    call, text = REFUSALS[case]
    with pytest.raises(RejectedInputError) as err:
        call()
    assert str(err.value) == text


def test_induction_examples():
    group = s3()
    tau = group.classes()[class_of_order(group, 2)].representative
    h_group = subgroup_as_group(group, tau)

    assert induction(BurnsideElement.unit(group), group) == BurnsideElement.unit(group)
    # [H/e] -> [G/e]
    assert induction(
        BurnsideElement.basis(h_group, 0), group
    ) == BurnsideElement.basis(group, class_of_order(group, 1))
    # [H/H] -> [G/<tau>]
    assert induction(BurnsideElement.unit(h_group), group) == BurnsideElement.basis(
        group, class_of_order(group, 2)
    )

    two = z2()
    triv = subgroup_as_group(two, frozenset([two.identity]))
    assert induction(BurnsideElement.unit(triv), two) == BurnsideElement.basis(two, 0)


def test_restriction_induction_double_cosets():
    # restriction of an induced element, read off the marks, against the
    # H-orbits of each G/K counted on explicit cosets
    pairs = []
    four = z4()
    half = next(c for c in four.classes() if c.order == 2).representative
    pairs.append((four, half))
    group = s3()
    pairs.append((group, group.classes()[class_of_order(group, 2)].representative))
    pairs.append((group, group.classes()[class_of_order(group, 3)].representative))
    for big, sub in pairs:
        h_group = subgroup_as_group(big, sub)
        for h_class in range(len(h_group.classes())):
            induced = induction(BurnsideElement.basis(h_group, h_class), big)
            total = BurnsideElement.zero(h_group)
            for g_class, coeff in induced.coefficients.items():
                piece, piece_group = restriction_by_orbits(big, g_class, sub)
                assert piece_group.element_set() == h_group.element_set()
                total = total + BurnsideElement(h_group, piece.coefficients).scale(coeff)
            engine = restriction(induced, sub)
            assert total.coefficients == engine.coefficients


@pytest.mark.parametrize("seed", range(40))
def test_random_restriction_matches_the_orbit_oracle(seed):
    # a subgroup's class in H and in G carry different indices unless H
    # is 1 or G, so the proper subgroups check that res(a) reads the mark
    # of a at each subgroup's class in G
    group = random_group(seed)
    rng = random.Random(seed)
    subgroups = group.subgroups()
    n = len(group.classes())
    for sub in [subgroups[0], subgroups[-1]] + rng.sample(subgroups, min(4, len(subgroups))):
        h_group = subgroup_as_group(group, sub)
        a = BurnsideElement(group, {k: rng.randint(-3, 3) for k in rng.sample(range(n), min(n, 3))})
        total = BurnsideElement.zero(h_group)
        for k, coeff in a.coefficients.items():
            piece, _ = restriction_by_orbits(group, k, sub)
            total = total + BurnsideElement(h_group, piece.coefficients).scale(coeff)
        assert restriction(a, sub) == total


def test_restricting_zero_needs_no_lattice_of_the_group():
    # C2^6 is past MAX_SUBGROUPS, but zero restricts to zero over H
    group = c2_6()
    half_turn = group.subgroup_generated_by([group.generators[0]])
    value = restriction(BurnsideElement.zero(group), half_turn)
    assert value == BurnsideElement.zero(subgroup_as_group(group, half_turn))
    with pytest.raises(RejectedInputError):
        restriction(BurnsideElement.zero(group), frozenset([group.generators[0]]))


def test_multiplying_zero_needs_no_lattice_of_the_group():
    # C2^6 is past MAX_SUBGROUPS, but a product with a zero factor is zero,
    # in the library and through a job, as r0, restrict and induce of zero are
    group = c2_6()
    zero = BurnsideElement.zero(group)
    assert burnside_mul(zero, zero) == zero
    assert group._subgroup_cache is None
    payload = {
        "group": {"degree": 12, "generators": [[x + 1 for x in g] for g in group.generators]},
        "a": {},
        "b": {},
    }
    report, code = run_job({"command": "burnside", "op": "mul", "payload": payload})
    assert code == 0
    assert (report.values["product"], report.values["pretty"]) == (zero, "0")


def test_an_isotropy_class_index_the_group_lacks_is_refused_in_record_order():
    group = z2()
    for records, index in (([(0, 1), (2, 1), (-1, 1)], 2), ([(-1, 0), (2, 1)], -1)):
        with pytest.raises(RejectedInputError, match=f"^no subgroup class with index {index}$"):
            equivariant_euler(group, records)


def test_r0_examples():
    group = z2()
    assert r0(BurnsideElement.basis(group, 1)) == 1
    assert r0(BurnsideElement(group, {0: 2, 1: -3})) == -1
    assert r0(BurnsideElement.zero(group)) == 0
    # additive
    a = BurnsideElement(group, {0: 2})
    b = BurnsideElement(group, {1: 5})
    assert r0(a + b) == r0(a) + r0(b)


def test_marks_at_trivial_subgroup_counts_points():
    # the first marks coordinate is the underlying set size, which is
    # multiplicative under cartesian products
    for group in (z2(), s3(), d4()):
        n = len(group.classes())
        for i in range(n):
            for j in range(n):
                a = BurnsideElement.basis(group, i)
                b = BurnsideElement.basis(group, j)
                product = burnside_mul(a, b)
                assert product.marks()[0] == a.marks()[0] * b.marks()[0]


def test_equivariant_euler_sphere_with_rotation():
    group = z2()
    fixed = class_of_order(group, 2)
    free = class_of_order(group, 1)
    chi = equivariant_euler(group, [(fixed, 2), (free, 0)])
    assert chi == BurnsideElement(group, {fixed: 2})
    assert str(chi) == "2·[G/G]"


def test_equivariant_euler_antipodal_circle():
    group = z2()
    assert equivariant_euler(group, [(0, 0)]) == BurnsideElement.zero(group)


def test_equivariant_euler_trivial_group_is_plain_chi():
    trivial = PermutationGroup(1, [[0]])
    chi = equivariant_euler(trivial, [(0, -2)])
    assert chi.coefficients == {0: -2}
    assert r0(chi) == -2


def test_equivariant_euler_forgetful_reduction():
    # marks at the trivial subgroup recover the plain Euler characteristic
    group = z2()
    fixed = class_of_order(group, 2)
    chi = equivariant_euler(group, [(fixed, 2), (0, 0)])
    assert chi.marks()[0] == 2  # chi(S^2)


def test_equivariant_radial_index():
    group = z2()
    fixed = class_of_order(group, 2)
    value = equivariant_radial_index(group, [(fixed, 1), (fixed, 1)])
    assert value == BurnsideElement(group, {fixed: 2})
    assert equivariant_radial_index(group, []) == BurnsideElement.zero(group)
    free_orbit = equivariant_radial_index(group, [(0, 1)])
    assert free_orbit == BurnsideElement.basis(group, 0)


def test_equivariant_ph_check_sphere():
    group = z2()
    fixed = class_of_order(group, 2)
    chi = equivariant_euler(group, [(fixed, 2), (0, 0)])
    whole = subgroup_as_group(group, group.element_set())
    pole = BurnsideElement.unit(whole)
    assert equivariant_ph_check(group, [pole, pole], chi)
    assert not equivariant_ph_check(group, [pole], chi)


def test_equivariant_ph_check_trivial_group():
    trivial = PermutationGroup(1, [[0]])
    chi = BurnsideElement(trivial, {0: 2})
    point = BurnsideElement(trivial, {0: 1})
    assert equivariant_ph_check(trivial, [point, point], chi)
    perturbed = BurnsideElement(trivial, {0: 3})
    assert not equivariant_ph_check(trivial, [point, point], perturbed)


def test_equivariant_gsv_from_radial():
    group = z2()
    rad = BurnsideElement(group, {1: 1})
    chibar = BurnsideElement(group, {0: 1})
    assert equivariant_gsv_from_radial(rad, BurnsideElement.zero(group)) == rad
    assert equivariant_gsv_from_radial(rad, chibar) == BurnsideElement(
        group, {0: 1, 1: 1}
    )


def test_group_cap():
    # S6 has order 720
    with pytest.raises(RejectedInputError) as err:
        PermutationGroup(6, [[1, 2, 3, 4, 5, 0], [1, 0, 2, 3, 4, 5]])
    assert str(err.value) == "group order exceeds the configured cap 128"


def test_one_based_wire_format():
    group = PermutationGroup.from_one_based(2, [[2, 1]])
    assert group.order == 2
