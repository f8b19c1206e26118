import random
import time
from fractions import Fraction

import pytest

from singindex.errors import DegreeCapError, RejectedInputError
from singindex.poly import (
    GLOBAL_ORDER,
    LOCAL_ORDER,
    Polynomial,
    jacobian_det,
    minors,
    parse_polynomial,
)

from helpers import random_polynomial, random_unimodular, substitute_all

CTX = ("x", "y")
X = Polynomial.variable(CTX, "x")
Y = Polynomial.variable(CTX, "y")


def test_addition_cancels():
    assert (X + Y) + (X - Y) == 2 * X


def test_difference_of_squares():
    assert (X + Y) * (X - Y) == X**2 - Y**2


def test_zero_absorbs():
    p = X**2 + 3 * Y
    assert p * Polynomial.zero(CTX) == Polynomial.zero(CTX)


def test_context_mismatch_rejected():
    other = Polynomial.variable(("x", "z"), "z")
    with pytest.raises(RejectedInputError):
        X + other


def test_parser_round_trip():
    p = parse_polynomial("x^2 + 2/3*x*y - y", CTX)
    assert p == X**2 + Fraction(2, 3) * X * Y - Y
    assert parse_polynomial(str(p), CTX) == p


def test_parser_rejects_unknown_variable():
    with pytest.raises(RejectedInputError):
        parse_polynomial("x + w", CTX)


def test_parser_bounds_degree_and_coefficients_before_expanding():
    with pytest.raises(DegreeCapError):
        parse_polynomial("x^41", CTX)
    with pytest.raises(DegreeCapError):
        parse_polynomial("x^20 * y^21", CTX)
    assert parse_polynomial("x^41", CTX, degree_cap=41) == X**41
    assert parse_polynomial("(x*y)^20", CTX) == (X * Y) ** 20
    with pytest.raises(RejectedInputError):
        parse_polynomial("((((9)^40)^40)^40)^40", CTX)
    assert parse_polynomial("0^100000000000 + 9^40", CTX) == Polynomial.constant(CTX, 9**40)
    # inside the degree cap, but 5456 terms
    start = time.perf_counter()
    with pytest.raises(RejectedInputError):
        parse_polynomial("(1+x+y+z)^30", ("x", "y", "z"))
    assert time.perf_counter() - start < 0.1


def test_ring_axioms_randomized():
    rng = random.Random(11)
    ctx = ("x", "y", "z")
    for _ in range(25):
        p = random_polynomial(ctx, rng)
        q = random_polynomial(ctx, rng)
        r = random_polynomial(ctx, rng)
        assert (p + q) + r == p + (q + r)
        assert p * (q + r) == p * q + p * r
        assert p * q == q * p


def test_orders():
    # degrevlex: among equal degrees the last nonzero exponent difference decides
    assert GLOBAL_ORDER.max_monomial([(2, 0), (0, 2)]) == (2, 0)
    assert GLOBAL_ORDER.max_monomial([(1, 0), (0, 2)]) == (0, 2)
    # local order: the constant monomial is the largest one
    assert LOCAL_ORDER.max_monomial([(0, 0), (1, 0)]) == (0, 0)
    assert LOCAL_ORDER.max_monomial([(2, 0), (0, 3)]) == (2, 0)


def test_jacobian_examples():
    assert jacobian_det([X, Y]) == Polynomial.one(CTX)
    assert jacobian_det([X**2, Y**3]) == 6 * X * Y**2
    assert jacobian_det([X**2 - Y**2, 2 * X * Y]) == 4 * X**2 + 4 * Y**2


def test_jacobian_rejects_non_square():
    ctx3 = ("x", "y", "z")
    with pytest.raises(RejectedInputError):
        jacobian_det([Polynomial.variable(ctx3, "x"), Polynomial.variable(ctx3, "y")])


def test_jacobian_linear_composition():
    # composing with a linear map multiplies the Jacobian by its determinant
    rng = random.Random(3)
    ctx = ("x", "y")
    for _ in range(6):
        fs = [random_polynomial(ctx, rng, max_degree=3) for _ in ctx]
        u = random_unimodular(2, rng)
        det_u = u.entries[0][0] * u.entries[1][1] - u.entries[0][1] * u.entries[1][0]
        lhs = jacobian_det(substitute_all(fs, ctx, u))
        rhs = substitute_all([jacobian_det(fs)], ctx, u)[0] * det_u
        assert lhs == rhs


def test_minors_examples():
    ctx3 = ("x", "y", "z")
    x3 = Polynomial.variable(ctx3, "x")
    y3 = Polynomial.variable(ctx3, "y")
    zero = Polynomial.zero(ctx3)
    one = Polynomial.one(ctx3)
    mat = [[2 * x3, 2 * y3, 2 * Polynomial.variable(ctx3, "z")], [zero, zero, one]]
    assert minors(mat, 2) == [zero, 2 * x3, 2 * y3]
    ident = [[one, zero], [zero, one]]
    assert minors(ident, 2) == [one]
    assert minors(mat, 1) == [m for row in mat for m in row]


def test_minors_count_and_transpose():
    import math

    rng = random.Random(5)
    ctx = ("x", "y")
    rows, cols = 3, 4
    mat = [
        [random_polynomial(ctx, rng, max_degree=2, terms=2) for _ in range(cols)]
        for _ in range(rows)
    ]
    for k in (1, 2, 3):
        ms = minors(mat, k)
        assert len(ms) == math.comb(rows, k) * math.comb(cols, k)
        transposed = [[mat[i][j] for i in range(rows)] for j in range(cols)]
        assert sorted(map(str, ms)) == sorted(map(str, minors(transposed, k)))


def test_minors_range_rejected():
    one = Polynomial.one(CTX)
    with pytest.raises(RejectedInputError):
        minors([[one]], 2)


def test_derivative_and_substitute():
    p = X**3 * Y + 2 * Y**2
    assert p.derivative("x") == 3 * X**2 * Y
    assert p.derivative("y") == X**3 + 4 * Y
    shifted = p.translate([Fraction(1), Fraction(0)])
    assert shifted.evaluate([Fraction(-1), Fraction(2)]) == p.evaluate(
        [Fraction(0), Fraction(2)]
    )


def _normal(p):
    """Every coefficient is an int, or a Fraction that is not an integer;
    never a float, never a Fraction with denominator 1."""
    return all(
        type(c) is int or (type(c) is Fraction and c.denominator != 1) for c in p.terms.values()
    )


def test_coefficients_are_ints_or_proper_fractions():
    ctx = ("x", "y", "z")
    texts = [
        "x^2 + 2/3*x*y - z",
        "4/2*x - 6/3*y^2 + z^3",
        "(1/2*x + 1/2*y)^2 - 1/4*x^2",
        "3*x*y*z - 3/1*z + 0/5*x + 7",
        "-(x - 1/3)^3",
    ]
    polys = [parse_polynomial(t, ctx) for t in texts]
    assert all(map(_normal, polys))
    assert parse_polynomial("4/2*x", ctx).terms == {(1, 0, 0): 2}
    assert type(parse_polynomial("4/2*x", ctx).coefficient((1, 0, 0))) is int
    images = {"x": polys[2], "y": polys[0] * 3, "z": polys[4]}
    for p in polys:
        results = [
            -p,
            p**3,
            p.scale(Fraction(3, 2)),
            p.scale(Fraction(6, 3)),
            p * Fraction(2),
            p.substitute(images),
            p.monic(LOCAL_ORDER),
        ]
        results += [p.derivative(v) for v in ctx]
        for q in polys:
            results += [p + q, p - q, p * q]
        assert all(map(_normal, results))
    # halves that add up to an integer are stored as one
    half = Polynomial(CTX, {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)})
    assert (half * 2).terms == {(1, 0): 1, (0, 1): 1}
    assert all(type(c) is int for c in (half * 2 + half * 2).terms.values())
    assert all(type(c) is int for c in (half + half).terms.values())
    assert Polynomial.zero(CTX).constant_term() == 0
    assert type(Polynomial.zero(CTX).coefficient((1, 1))) is int
    # floats are refused, also where an operation takes a scalar
    with pytest.raises(RejectedInputError):
        Polynomial(CTX, {(1, 0): 0.5})
    with pytest.raises(RejectedInputError):
        X.scale(0.5)
    with pytest.raises(RejectedInputError):
        X.term_mul((1, 0), 2.0)


def test_realify_keeps_coefficients_normal():
    from singindex.smooth import realify

    names, parts = realify(("z", "w"), ["z^3 + 1/2*z*w", "w^2 - 3/2*z^2*w"])
    assert names == ("z_re", "z_im", "w_re", "w_im")
    assert len(parts) == 4
    assert all(map(_normal, parts))
    assert parts[0].coefficient((3, 0, 0, 0)) == 1 and type(parts[0].coefficient((3, 0, 0, 0))) is int
