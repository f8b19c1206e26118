"""Acceptance suite: one test per criterion, each printing a pass/fail
line.  Every tolerance is exact (integer equality); run with -s to see
the per-criterion lines."""

import itertools
import random
import time
from fractions import Fraction

from singindex.burnside import (
    BurnsideElement,
    PermutationGroup,
    burnside_mul,
    equivariant_euler,
    equivariant_ph_check,
    r0,
    subgroup_as_group,
)
from singindex.grobner import INFINITE, Ideal, colength, quotient_algebra
from singindex.icis import ICISGerm, gsv_index_1form, milnor_number
from singindex.oracles import (
    boundary_degree_3d,
    burnside_mul_by_orbits,
    macaulay_colength,
    winding_degree,
)
from singindex.poly import Polynomial
from singindex.smooth import (
    GroupAction,
    OneFormGerm,
    VectorFieldGerm,
    elk_form,
    elk_index,
    invariant_dimension,
    invariant_signature,
    palamodov_index,
)
from singindex.strat import SliceData, StratPoset, det_m, det_n, mobius_inverse

from helpers import pullback_one_form, random_polynomial, random_unimodular, substitute_all


def _report(number, description, body):
    try:
        body()
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


# -- criterion 1 -----------------------------------------------------------


def test_criterion_1_colength_oracle_equivalence():
    def body():
        rng = random.Random(2024)
        start = time.time()
        accepted = 0
        attempts = 0
        while accepted < 30:
            attempts += 1
            assert attempts < 500, "generator failed to produce instances"
            nvars = rng.choice([2, 2, 3])
            ctx = tuple("xyz"[:nvars])
            gens = []
            for i in range(nvars):
                exponent = rng.randint(1, 4)
                pure = tuple(exponent if j == i else 0 for j in range(nvars))
                tail = random_polynomial(ctx, rng, max_degree=4, terms=rng.randint(1, 2))
                tail = tail - Polynomial.constant(ctx, tail.constant_term())
                gens.append(Polynomial(ctx, {pure: Fraction(1)}) + tail)
            ideal = Ideal(gens)
            value = colength(ideal)
            if value is INFINITE or not 1 <= value <= 20:
                continue
            assert macaulay_colength(list(ideal.generators)) == value
            accepted += 1
        elapsed = time.time() - start
        assert elapsed < 60, f"took {elapsed:.1f}s"

    _report(1, "colength equals the Macaulay truncation oracle on 30 random ideals", body)


# -- criterion 2 -----------------------------------------------------------


def test_criterion_2_palamodov_positivity_and_conservation():
    def body():
        systems = [
            (("z1", "z2"), ["z1", "z2"]),
            (("z1", "z2"), ["z1^2", "z2"]),
            (("z1", "z2"), ["z1^2", "z2^3"]),
            (("z1", "z2"), ["z1^2 - z2", "z2^2"]),
            (("z1", "z2"), ["z1^2 + z2^3", "z1*z2"]),
            (("z1", "z2"), ["z1^2 - z2^2", "2*z1*z2"]),
            (("z1", "z2"), ["z1^3", "z2^3"]),
            (("z1", "z2"), ["z1^2 + z2^2", "z1*z2"]),
            (("x", "y", "z"), ["x", "y", "z"]),
            (("x", "y", "z"), ["x^2", "y^2", "z^2"]),
        ]
        for variables, components in systems:
            value = palamodov_index(VectorFieldGerm(variables, components))
            assert value is not INFINITE and value >= 1, (components, value)

        # conservation under a zero-splitting perturbation: the local
        # colengths at the split rational zeros sum to the original index;
        # the colength at a point is that at the origin of the ideal
        # shifted by x_i -> x_i + point_i
        ctx = ("x", "y")

        def colength_at(ideal, point):
            images = {
                name: Polynomial.variable(ctx, name) + Polynomial.constant(ctx, c)
                for name, c in zip(ctx, point)
            }
            return colength(Ideal([g.substitute(images) for g in ideal.generators]))

        half, third = Fraction(1, 2), Fraction(1, 3)
        # (x^2 - 1/4, y): simple zeros at (1/2, 0) and (-1/2, 0), and
        # nothing vanishes at the origin
        simple = Ideal.from_strings(["x^2 - 1/4", "y"], ctx)
        points = [(half, Fraction(0)), (-half, Fraction(0)), (Fraction(0), Fraction(0))]
        assert [colength_at(simple, point) for point in points] == [1, 1, 0]
        splittable = [
            # (original, perturbed, rational zeros of the perturbation)
            (
                ["x^2", "y^2"],
                ["x^2 - 1/4", "y^2 - 1/9"],
                [(s * half, t * third) for s in (1, -1) for t in (1, -1)],
            ),
            (
                ["x^3", "y"],
                ["x^3 - 7/10*x^2 + 1/10*x", "y"],
                [(Fraction(0), Fraction(0)), (half, Fraction(0)), (Fraction(1, 5), Fraction(0))],
            ),
            (
                ["x^2", "y^3"],
                ["x^2 - 1/4", "y^3 - 1/9*y"],
                [
                    (s * half, t)
                    for s in (1, -1)
                    for t in (Fraction(0), third, -third)
                ],
            ),
        ]
        for original, perturbed, zeros in splittable:
            total = palamodov_index(VectorFieldGerm(ctx, original))
            ideal = Ideal.from_strings(perturbed, ctx)
            split_sum = 0
            for point in zeros:
                local = colength_at(ideal, point)
                assert local is not INFINITE and local >= 1
                split_sum += local
            assert split_sum == total, (original, split_sum, total)

    _report(2, "index is positive and conserved under zero-splitting perturbations", body)


# -- criterion 3 -----------------------------------------------------------


def test_criterion_3_signature_matches_degree_oracle():
    def body():
        plane = ("x", "y")
        planar_cases = [
            (["x", "y"], 1),
            (["x^3", "y"], 1),
            (["x^2 - y^2", "2*x*y"], 2),
            (["x^3 - 3*x*y^2", "3*x^2*y - y^3"], 3),
            (["x^2", "y"], 0),
            (["x*y", "x^2 - y^2"], -2),
            (["x^3 + x*y^2", "y"], 1),
        ]
        assert len(planar_cases) >= 6
        for components, expected in planar_cases:
            engine = elk_index(VectorFieldGerm(plane, components, field="R"))
            oracle = winding_degree(components, plane)
            assert engine == oracle == expected, (components, engine, oracle)

        space = ("x", "y", "z")
        space_cases = [
            (["x^3", "y", "z"], 1),
            (["x^2 - y^2", "2*x*y", "z^3"], 2),
        ]
        for components, expected in space_cases:
            engine = elk_index(VectorFieldGerm(space, components, field="R"))
            oracle = boundary_degree_3d(components, space)
            assert engine == oracle == expected, (components, engine, oracle)

    _report(3, "signature index equals the boundary-degree oracle on 9 germs", body)


# -- criterion 4 -----------------------------------------------------------


def test_criterion_4_gsv_consistency():
    def body():
        space = ("x", "y", "z")
        cone = ICISGerm(space, ["x^2 + y^2 + z^2"])
        form = ["0", "0", "1"]
        gsv = gsv_index_1form(cone, form)
        assert gsv == 2
        mu = milnor_number(cone)
        assert mu == 1
        assert gsv - mu == 1

        rng = random.Random(404)
        coefficients = list(OneFormGerm(space, form).coefficients)
        for _ in range(5):
            u = random_unimodular(3, rng)
            moved_eqs = substitute_all(list(cone.equations), space, u)
            moved_form = pullback_one_form(coefficients, space, u)
            moved = ICISGerm(space, moved_eqs)
            assert gsv_index_1form(moved, moved_form) == 2

    _report(4, "gsv = 2 and radial = 1 on the quadric cone, invariant under coordinate changes", body)


# -- criterion 5 -----------------------------------------------------------


def test_criterion_5_mobius_machinery():
    def body():
        rng = random.Random(777)
        for _ in range(50):
            size = rng.randint(1, 7)
            covers = [
                (i, j)
                for i in range(size)
                for j in range(i + 1, size)
                if rng.random() < 0.4
            ]
            poset = StratPoset([f"s{i}" for i in range(size)], covers)
            entries = {
                (i, j): rng.randint(-5, 5)
                for i in range(size)
                for j in range(size)
                if i != j and poset.leq(i, j)
            }
            data = SliceData(poset, entries)
            inverse = mobius_inverse(data)
            for i in range(size):
                for k in range(size):
                    want = 1 if i == k else 0
                    if not poset.leq(i, k):
                        assert inverse.get((i, k), 0) == 0
                        continue
                    left = sum(
                        data.value(i, j) * inverse.get((j, k), 0)
                        for j in poset.interval(i, k)
                    )
                    right = sum(
                        inverse.get((i, j), 0) * data.value(j, k)
                        for j in poset.interval(i, k)
                    )
                    assert left == want and right == want

        for m in range(1, 6):
            for n in range(1, 6):
                t = min(m, n)
                for i in range(1, t + 1):
                    for k in range(i, t + 1):
                        total = sum(
                            det_n(m, n, i, j) * det_m(m, n, j, k)
                            for j in range(i, k + 1)
                        )
                        assert total == (1 if i == k else 0), (m, n, i, k)

    _report(5, "Moebius inversion round-trips on 50 posets and the binomial pair verifies", body)


# -- criterion 6 -----------------------------------------------------------


def test_criterion_6_burnside_marks_vs_orbits():
    def body():
        groups = {
            "Z2": PermutationGroup(2, [[1, 0]]),
            "Z4": PermutationGroup(4, [[1, 2, 3, 0]]),
            "Z2xZ2": PermutationGroup(4, [[1, 0, 3, 2], [2, 3, 0, 1]]),
            "S3": PermutationGroup(3, [[1, 0, 2], [1, 2, 0]]),
            "D4": PermutationGroup(4, [[1, 2, 3, 0], [1, 0, 3, 2]]),
            "A4": PermutationGroup(4, [[1, 0, 3, 2], [1, 2, 0, 3]]),
        }
        for name, group in groups.items():
            size = len(group.classes())
            for i, j in itertools.product(range(size), repeat=2):
                via_marks = burnside_mul(
                    BurnsideElement.basis(group, i), BurnsideElement.basis(group, j)
                )
                direct = burnside_mul_by_orbits(group, i, j)
                assert via_marks == direct, (name, i, j)

    _report(6, "marks multiplication equals orbit counting for six groups", body)


# -- criterion 7 -----------------------------------------------------------


def test_criterion_7_equivariant_poincare_hopf():
    def body():
        group = PermutationGroup(2, [[1, 0]])
        fixed = next(c.index for c in group.classes() if c.order == 2)
        free = next(c.index for c in group.classes() if c.order == 1)
        chi = equivariant_euler(group, [(fixed, 2), (free, 0)])
        assert chi == BurnsideElement(group, {fixed: 2})

        whole = subgroup_as_group(group, group.element_set())
        pole = BurnsideElement.unit(whole)
        assert equivariant_ph_check(group, [pole, pole], chi)

        # trivial-group reduction: classical Poincare-Hopf on the sphere
        trivial = PermutationGroup(1, [[0]])
        chi_plain = BurnsideElement(trivial, {0: 2})
        point = BurnsideElement(trivial, {0: 1})
        assert equivariant_ph_check(trivial, [point, point], chi_plain)
        assert r0(chi_plain) == 2

        perturbed = chi + BurnsideElement(group, {free: 1})
        assert not equivariant_ph_check(group, [pole, pole], perturbed)

    _report(7, "the two-pole rotation scenario passes the equivariant Poincare-Hopf check", body)


# -- criterion 8 -----------------------------------------------------------


def test_criterion_8_invariant_dimension_and_signature():
    def body():
        plane = ("x", "y")
        algebra = quotient_algebra(Ideal.from_strings(["x^2", "y^2"], plane))
        swap = GroupAction(plane, [[[0, 1], [1, 0]]])
        antipodal = GroupAction(plane, [[[-1, 0], [0, -1]]])
        assert invariant_dimension(algebra, swap) == 3
        assert invariant_dimension(algebra, antipodal) == 2

        trivial = GroupAction(plane, [[[1, 0], [0, 1]]])
        elk_cases = [
            ["x", "y"],
            ["x^3", "y"],
            ["x^2 - y^2", "2*x*y"],
            ["x^3 - 3*x*y^2", "3*x^2*y - y^3"],
            ["x^2", "y"],
            ["x*y", "x^2 - y^2"],
            ["x^3 + x*y^2", "y"],
        ]
        for components in elk_cases:
            germ = VectorFieldGerm(plane, components, field="R")
            form = elk_form(germ)
            assert invariant_signature(form, trivial) == elk_index(germ), components

    _report(8, "invariant dimensions are 3 and 2; trivial-group signature equals the index", body)
