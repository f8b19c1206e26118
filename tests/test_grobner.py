import itertools
import math
import random
from fractions import Fraction

import pytest

from singindex.errors import DegreeCapError, InternalCheckError, NotIsolatedError, RejectedInputError
from singindex import dual, grobner
from singindex.grobner import (
    INFINITE,
    Ideal,
    colength,
    is_zero_dimensional,
    quotient_algebra,
    staircase_monomials,
    standard_basis,
)
from singindex.poly import (
    LOCAL_ORDER,
    Polynomial,
    monomial_divides,
    monomial_mul,
    monomials_up_to_degree,
)
from singindex.oracles import macaulay_colength

from helpers import plus_one_at, random_polynomial, random_unimodular, substitute_all

CTX = ("x", "y")
X = Polynomial.variable(CTX, "x")
Y = Polynomial.variable(CTX, "y")


def _mora_contains(sb, p):
    """Membership in the localized ideal: Mora's weak normal form of p by
    the standard basis is zero."""
    lead = [g.leading_term(LOCAL_ORDER) + (g,) for g in sb.elements]
    budget = grobner._WorkBudget(grobner.MORA_WORK)
    return grobner._normal_form_mora(p, lead, grobner.DEFAULT_DEGREE_CAP, budget).is_zero


def _representative(q, p):
    """The class of p in the quotient algebra, supported on its basis."""
    return Polynomial(q.context, dict(zip(q.basis, q.coords(p))))


def test_monomial_ideal_is_its_own_basis():
    sb = standard_basis(Ideal([X**2, Y**3]))
    assert sorted(sb.leading_monomials()) == [(0, 3), (2, 0)]
    assert set(sb.elements) == {X**2, Y**3}


def test_local_basis_leading_terms():
    sb = standard_basis(Ideal([X**2 + Y**3, X * Y]))
    assert sorted(sb.leading_monomials()) == [(0, 4), (1, 1), (2, 0)]


def test_zero_dimensionality():
    assert is_zero_dimensional(standard_basis(Ideal([X**2, Y**3])))
    assert not is_zero_dimensional(standard_basis(Ideal([X * Y])))
    ctx3 = ("x", "y", "z")
    gens = [
        Polynomial.variable(ctx3, "x"),
        Polynomial.variable(ctx3, "y") ** 3,
        Polynomial.variable(ctx3, "z") ** 2,
    ]
    assert is_zero_dimensional(standard_basis(Ideal(gens)))


def test_colength_examples():
    assert colength(Ideal([X, Y])) == 1
    assert colength(Ideal([X**2, Y**3])) == 6
    assert colength(Ideal([X**2 + Y**3, X * Y])) == 5
    assert colength(Ideal([X * Y])) is INFINITE


def test_membership_through_normal_form():
    sb = standard_basis(Ideal([X**2 + Y**3, X * Y]))
    assert _mora_contains(sb, X**3)  # x^3 = x(x^2+y^3) - y^2(xy)
    assert not _mora_contains(sb, Y**3)


def test_colength_invariant_under_linear_change():
    rng = random.Random(23)
    instances = [
        [X**2, Y**3],
        [X**2 + Y**3, X * Y],
        [X**3 - Y**2, Y**3],
        [X**2 - Y**2, X * Y],
    ]
    for gens in instances:
        base = colength(Ideal(gens))
        for _ in range(5):
            u = random_unimodular(2, rng)
            moved = substitute_all(gens, CTX, u)
            assert colength(Ideal(moved)) == base


def test_monomial_staircase_direct_count():
    rng = random.Random(31)
    for _ in range(10):
        exps = [
            tuple(rng.randint(0, 4) for _ in range(2))
            for _ in range(rng.randint(2, 4))
        ]
        exps = [e for e in exps if sum(e) > 0]
        if not all(any(e[i] > 0 and all(e[j] == 0 for j in range(2) if j != i) for e in exps) for i in range(2)):
            continue  # keep only zero-dimensional monomial ideals
        gens = [Polynomial(CTX, {e: Fraction(1)}) for e in exps]
        value = colength(Ideal(gens))
        direct = sum(
            1
            for a in range(6)
            for b in range(6)
            if not any(monomial_divides(e, (a, b)) for e in exps)
        )
        assert value == direct


def test_homogeneous_local_equals_global():
    rng = random.Random(37)
    trials = 0
    while trials < 6:
        gens = []
        for _ in range(2):
            deg = rng.randint(1, 3)
            terms = {}
            for a in range(deg + 1):
                c = rng.randint(-2, 2)
                if c:
                    terms[(a, deg - a)] = Fraction(c)
            if terms:
                gens.append(Polynomial(CTX, terms))
        if len(gens) < 2:
            continue
        assert colength(Ideal(gens)) == macaulay_colength(gens)
        trials += 1


def test_quotient_algebra_examples():
    q = quotient_algebra(Ideal([X, Y]))
    assert q.dimension == 1 and q.basis == ((0, 0),)

    q = quotient_algebra(Ideal([X**2, Y**2]))
    assert set(q.basis) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    assert not any(q.coords(_representative(q, X) * _representative(q, X)))

    q = quotient_algebra(Ideal([X**2 - Y**3, Y**4]))
    assert q.dimension == 8


def test_quotient_algebra_associative_and_unital():
    # the product of two classes is the class of the product of their
    # representatives: 1 is its unit, and it is associative
    for gens in ([X**2, Y**2], [X**2 - Y**2, X * Y], [X**2 + Y**3, X * Y]):
        q = quotient_algebra(Ideal(gens))
        assert q.dimension <= 8
        unit = _representative(q, Polynomial.one(CTX))
        assert q.coords(unit) == [1] + [0] * (q.dimension - 1)
        classes = [_representative(q, Polynomial(CTX, {m: Fraction(1)})) for m in q.basis]
        for u in classes:
            assert _representative(q, unit * u) == u
        for a, b, c in itertools.product(classes, repeat=3):
            left = _representative(q, _representative(q, a * b) * c)
            assert left == _representative(q, a * _representative(q, b * c))


def test_basis_spairs_reduce_to_zero():
    from singindex.grobner import _spoly

    for gens in ([X**2 + Y**3, X * Y], [X**2 - Y**2, X * Y]):
        sb = standard_basis(Ideal(gens))
        elements = list(sb.elements)
        for i in range(len(elements)):
            lt_i, lc_i = elements[i].leading_term(LOCAL_ORDER)
            assert lc_i == 1
            for j in range(i):
                lt_j, _ = elements[j].leading_term(LOCAL_ORDER)
                s = _spoly(lt_i, elements[i], lt_j, elements[j])
                if not s.is_zero:
                    assert _mora_contains(sb, s)


def test_normal_form_idempotent():
    rng = random.Random(41)
    q = quotient_algebra(Ideal([X**2 + Y**3, X * Y]))
    for _ in range(10):
        p = random_polynomial(CTX, rng)
        once = _representative(q, p)
        assert _representative(q, once) == once


def test_class_representatives_agree_with_membership():
    # classes come from the certified dual basis, membership from Mora's
    # weak normal form: p lies in the localized ideal exactly when its
    # class is zero, and p minus its representative always does
    rng = random.Random(47)
    outcomes = set()
    for gens in ([X**2 + Y**3, X * Y], [X**2 - Y**2, X * Y], [X**2 - Y**3, Y**4], [X**2, Y**2]):
        sb = standard_basis(Ideal(gens))
        q = quotient_algebra(Ideal(gens))
        for _ in range(12):
            p = random_polynomial(CTX, rng)
            if rng.random() < 0.5:
                p = sum((random_polynomial(CTX, rng, max_degree=2) * g for g in gens), Polynomial.zero(CTX))
            rep = _representative(q, p)
            assert rep.is_zero == _mora_contains(sb, p)
            assert _mora_contains(sb, p - rep)
            outcomes.add(rep.is_zero)
    assert outcomes == {True, False}


def test_quotient_rejects_non_isolated():
    with pytest.raises(NotIsolatedError):
        quotient_algebra(Ideal([X * Y]))


def _force_route(monkeypatch):
    # the probe certifies nothing, so Mora decides and the integration
    # route builds the dual basis
    monkeypatch.setattr(grobner, "dual_basis", lambda generators, degree_cap: None)


@pytest.mark.parametrize(
    "gens",
    [[X**2 + Y**3, X * Y], [X**2 - Y**3, Y**4], [X**3 + Y**4, X * Y**2 - Y**5], [X**2 * Y + Y**4, X**3 - X * Y**2]],
)
def test_integration_route_gives_the_probe_algebra(monkeypatch, gens):
    # the route keeps only the columns where some functional is not 0;
    # every other monomial has class 0 on both routes
    ideal = Ideal(gens)
    probe = quotient_algebra(ideal)
    probes = [Polynomial(CTX, {m: Fraction(1)}) for m in monomials_up_to_degree(2, 9)]
    probes.append(sum(probes[3:], gens[0]) * gens[1] + X * Y)
    _force_route(monkeypatch)
    route = quotient_algebra(ideal)
    assert route.basis == probe.basis
    assert [route.coords(p) for p in probes] == [probe.coords(p) for p in probes]
    products = [
        Polynomial(CTX, {monomial_mul(a, b): Fraction(1)})
        for a in probe.basis
        for b in probe.basis
    ]
    assert [route.coords(p) for p in products] == [probe.coords(p) for p in products]
    # each dual vector agrees too, as its non-zero integer numerators by
    # monomial over one positive integer denominator; every monomial of
    # its support is among the probes
    monomials = {m for p in probes[:-1] for m in p.terms}
    for k in range(probe.dimension):
        (phi, phi_den), (psi, psi_den) = route.dual_vector(k), probe.dual_vector(k)
        assert phi_den > 0 and psi_den > 0
        assert set(phi) <= monomials and set(psi) <= monomials
        assert all(type(v) is int and v for v in [*phi.values(), *psi.values()])
        for m in monomials:
            value = probe.coords(Polynomial(CTX, {m: 1}))[k]
            assert phi.get(m, 0) == phi_den * value and psi.get(m, 0) == psi_den * value


def test_mora_divides_integer_coefficients_exactly(monkeypatch):
    # with integer coefficients, reducing by a basis element of leading
    # coefficient 1 divides two ints: the quotient must be exact, never a
    # float (which the coefficients refuse)
    gens = [X**2 + 2 * X * Y**2 + Y**5, X * Y + 3 * Y**4]
    sb = standard_basis(Ideal(gens))
    coefficients = [c for g in sb.elements for c in g.terms.values()]
    assert all(type(c) is int or (type(c) is Fraction and c.denominator != 1) for c in coefficients)
    assert Fraction(-9, 5) in coefficients
    assert len(staircase_monomials(sb)) == macaulay_colength(gens) == 7
    _force_route(monkeypatch)
    assert colength(Ideal(gens)) == 7
    algebra = quotient_algebra(Ideal(gens))
    assert algebra.dimension == 7
    assert not any(algebra.coords(gens[0] * X + gens[1] * Y**2))


def test_quotient_certificate_catches_a_missing_basis_element(monkeypatch):
    ideal = Ideal([X**2 + Y**3, X * Y])
    sound = quotient_algebra(ideal).basis
    # without x*y the staircase of (x^2 + y^3, x*y) stays finite but has
    # 8 monomials instead of 5; Mora only decides that it is finite, so
    # the algebra is still the certified one
    real = grobner.standard_basis

    def lossy(ideal, degree_cap=grobner.DEFAULT_DEGREE_CAP):
        sb = real(ideal, degree_cap)
        kept = [g for g in sb.elements if g.leading_term(LOCAL_ORDER)[0] != (1, 1)]
        assert len(kept) == len(sb.elements) - 1
        return grobner.StandardBasis(kept, sb.ideal)

    _force_route(monkeypatch)
    monkeypatch.setattr(grobner, "standard_basis", lossy)
    assert quotient_algebra(ideal).basis == sound
    # a proposal without its functional of top order, y^3 here, lifts and
    # annihilates the Macaulay rows over its own columns, so only the
    # plateau step can refuse it
    real_integrate, real_plateau = dual._integrate, dual._plateau
    lifted, plateaus = [], []

    def dropped(gens, nvars, degree_cap, p):
        functionals = real_integrate(gens, nvars, degree_cap, p)
        return functionals[:-1]

    def plateau(gens, nvars, basis, p):
        lifted.append(len(basis.vectors))
        plateaus.append(real_plateau(gens, nvars, basis, p))
        return plateaus[-1]

    monkeypatch.setattr(dual, "_integrate", dropped)
    monkeypatch.setattr(dual, "_plateau", plateau)
    with pytest.raises(InternalCheckError):
        quotient_algebra(ideal)
    assert lifted == [4] * len(dual.PRIMES) and plateaus == [False] * len(dual.PRIMES)


def test_integration_route_refuses_every_tampered_entry(monkeypatch):
    # one unit added to one entry of one lifted vector, at every column
    # that is not free: the exact annihilation check refuses each
    ideal = Ideal([X**3 + Y**4, X * Y**2 - Y**5])
    seen = []
    real = dual.certify_dual_basis

    def spy(rows, ncols, free, vectors):
        real(rows, ncols, free, vectors)
        seen.append((rows, ncols, free, vectors))

    _force_route(monkeypatch)
    monkeypatch.setattr(dual, "certify_dual_basis", spy)
    algebra = quotient_algebra(ideal)
    monkeypatch.undo()
    ((rows, ncols, free, vectors),) = seen
    assert len(free) == algebra.dimension == 10
    refused = absent = 0
    for f, (nums, den) in vectors.items():
        for k in range(ncols):
            if k in vectors:
                continue
            tampered = {**vectors, f: (plus_one_at(nums, k), den)}
            with pytest.raises(InternalCheckError):
                dual.certify_dual_basis(rows, ncols, free, tampered)
            refused += 1
            absent += k not in nums
    assert refused == 10 * (ncols - 10) == 30
    assert 0 < absent < refused


def _corrupt_lifted_dual_bases(monkeypatch, times):
    """Add 1 to the first lifted dual vector at the first column that is
    not free (a column where it may hold no entry), in the first `times`
    reconstructions."""
    real = dual._reconstruct
    done = []

    def corrupt(residues, modulus):
        vectors = real(residues, modulus)
        if vectors is None or len(done) >= times:
            return vectors
        f = min(vectors)
        nums, den = vectors[f]
        k = next(k for k in itertools.count() if k not in vectors)
        vectors[f] = (plus_one_at(nums, k), den)
        done.append(k)
        return vectors

    monkeypatch.setattr(dual, "_reconstruct", corrupt)
    return done


@pytest.mark.parametrize("gens", [[X**2 + Y**3, X * Y], [X**2 - Y**3, Y**4]])
def test_no_algebra_on_a_corrupted_dual_basis(monkeypatch, gens):
    ideal = Ideal(gens)
    sound = quotient_algebra(ideal)
    probes = [Polynomial(CTX, {m: Fraction(1)}) for m in monomials_up_to_degree(2, 6)]
    # corrupted at the first prime: the next prime gives the same algebra
    done = _corrupt_lifted_dual_bases(monkeypatch, 1)
    algebra = quotient_algebra(ideal)
    assert done
    assert algebra.basis == sound.basis
    assert [algebra.coords(p) for p in probes] == [sound.coords(p) for p in probes]
    # corrupted at every prime: no algebra at all
    monkeypatch.undo()
    # (the probe and then the integration route, at each of its primes)
    done = _corrupt_lifted_dual_bases(monkeypatch, math.inf)
    with pytest.raises(InternalCheckError):
        quotient_algebra(ideal)
    assert done


def test_degree_cap_aborts():
    # a basis computation cannot even express the inputs under a tiny cap
    with pytest.raises(DegreeCapError):
        standard_basis(Ideal([X**2 + Y**3, X * Y]), degree_cap=2)


def test_a_degree_cap_below_1_is_refused():
    # the route runs no order under such a cap, so it may not report one
    for cap in (0, -1):
        for ideal in (Ideal.from_strings(["x", "y"], CTX), Ideal.from_strings(["1 + x"], CTX)):
            with pytest.raises(RejectedInputError, match="degree_cap must be a positive integer"):
                colength(ideal, degree_cap=cap)
    assert colength(Ideal.from_strings(["x", "y"], CTX), degree_cap=1) == 1


def test_engine_matches_macaulay_oracle_small():
    rng = random.Random(43)
    done = 0
    while done < 8:
        gens = [
            Polynomial(CTX, {(rng.randint(1, 3), 0): Fraction(1)})
            + random_polynomial(CTX, rng, max_degree=3, terms=2),
            Polynomial(CTX, {(0, rng.randint(1, 3)): Fraction(1)})
            + random_polynomial(CTX, rng, max_degree=3, terms=2),
        ]
        ideal = Ideal(gens)
        value = colength(ideal)
        if value is INFINITE or value > 20:
            continue
        assert macaulay_colength(list(ideal.generators)) == value
        done += 1
