import itertools
import random
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest

from singindex import jobs, smooth
from singindex.errors import DegreeCapError, RejectedInputError
from singindex.poly import (
    DEFAULT_DEGREE_CAP,
    GLOBAL_ORDER,
    LOCAL_ORDER,
    MAX_DOCUMENT_TERMS,
    MAX_POWER_BITS,
    MAX_TERMS,
    Polynomial,
    jacobian_det,
    minors,
    monomial_text,
    parse_polynomial,
    poly_det,
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
    cases = [
        ([X, Y], Polynomial.one(CTX)),
        ([X**2, Y**3], 6 * X * Y**2),
        ([X**2 - Y**2, 2 * X * Y], 4 * X**2 + 4 * Y**2),
        ([X**3 + X * Y, Y**2 - X**4], 6 * X**2 * Y + 4 * X**4 + 2 * Y**2),
    ]
    for fs, det in cases:
        assert jacobian_det(fs) == jacobian_det(fs, None) == det
        for top in range(det.degree() + 2):
            assert jacobian_det(fs, top) == _truncated(det, top)


def _truncated(p, top):
    """p without its terms of degree above top."""
    return Polynomial(p.context, {m: c for m, c in p.terms.items() if sum(m) <= top})


def _leibniz_det(rows):
    """The determinant as the signed sum over permutations, in Polynomial
    arithmetic: a reference that shares no code with poly_det."""
    n = len(rows)
    total = Polynomial.zero(rows[0][0].context)
    for perm in itertools.permutations(range(n)):
        term = Polynomial.one(total.context)
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total = total - term if inversions % 2 else total + term
    return total


def test_truncated_determinant_drops_exactly_the_terms_above_top():
    # seeded square matrices of sizes 1 to 4: zero entries, Fraction
    # coefficients and entries of mixed degrees, constants among them
    rng = random.Random(24)
    ctx = ("x", "y", "z")
    dropped = 0
    for size in (1, 2, 3, 4):
        for _ in range(8):
            rows = [
                [
                    Polynomial.zero(ctx)
                    if rng.random() < 0.25
                    else random_polynomial(ctx, rng, max_degree=rng.randint(0, 3), terms=3)
                    * Fraction(rng.randint(1, 6), rng.randint(1, 4))
                    for _ in range(size)
                ]
                for _ in range(size)
            ]
            full = poly_det(rows)
            assert full == _leibniz_det(rows)
            assert all(type(c) is int or c.denominator != 1 for c in full.terms.values())
            assert poly_det(rows, None) == full
            for top in range(full.degree() + 2):
                truncated = poly_det(rows, top)
                assert truncated == _truncated(full, top)
                dropped += truncated != full
    assert dropped > 50


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
        det_u = u[0][0] * u[1][1] - u[0][1] * u[1][0]
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
    shifted = p.substitute({"x": X + 1})
    assert shifted.evaluate([Fraction(-1), Fraction(2)]) == p.evaluate(
        [Fraction(0), Fraction(2)]
    )
    # an unknown name, an index past the end and a negative index are
    # refused, not read as tuple positions
    q = parse_polynomial("x^2*y + y^3", CTX)
    for bad in ("q", 2, -1):
        with pytest.raises(RejectedInputError):
            q.derivative(bad)
    # an image for a name outside the context is refused, not dropped
    with pytest.raises(RejectedInputError) as err:
        q.substitute({"q": X})
    assert str(err.value) == "unknown variable 'q' in context ('x', 'y')"


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
    assert all(type(c) is int for c in parse_polynomial("4/2*x", ctx).terms.values())
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
    assert Polynomial.zero(CTX).terms == {}
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
    cube = parts[0].terms[(3, 0, 0, 0)]
    assert cube == 1 and type(cube) is int


def test_products_with_zero_factors_signs_and_slashes():
    # a zero factor counts as degree -1, so the running product's degree
    # decides: zero first stays under the cap, zero last comes too late
    assert parse_polynomial("0*x^40*x^40", CTX) == Polynomial.zero(CTX)
    with pytest.raises(DegreeCapError):
        parse_polynomial("x^40*x^40*0", CTX)
    assert parse_polynomial("x*-y", CTX) == -(X * Y)
    assert parse_polynomial("--x", CTX) == X
    assert parse_polynomial("y*-x^2", CTX) == X**2 * Y  # the power binds the negated atom
    with pytest.raises(RejectedInputError, match="^malformed rational coefficient$"):
        parse_polynomial("2/0", CTX)
    with pytest.raises(RejectedInputError, match="^trailing junk in polynomial text$"):
        parse_polynomial("x/2", CTX)


def test_substitute_matches_term_by_term_composition():
    rng = random.Random(17)
    ctx = ("x", "y", "z")
    for _ in range(20):
        p = random_polynomial(ctx, rng, terms=6)
        images = {v: random_polynomial(ctx, rng, max_degree=2, terms=3) for v in ctx[:2]}
        expected = Polynomial.zero(ctx)
        for m, c in p.terms.items():
            prod = Polynomial.constant(ctx, c)
            for v, e in zip(ctx, m):
                prod = prod * images.get(v, Polynomial.variable(ctx, v)) ** e
            expected = expected + prod
        got = p.substitute(images)
        # same terms in the same order, with the same coefficient types
        assert [(m, c, type(c)) for m, c in got.terms.items()] == [
            (m, c, type(c)) for m, c in expected.terms.items()
        ]


def test_substitute_agrees_with_evaluation_at_rational_points():
    # evaluate shares no code with substitute: f(g(p)) read at p must be
    # the value of f.substitute(g) at p
    ctx = ("x", "y", "z")
    f = parse_polynomial("x^7 - 3*x^5*y + 2/3*x^4*z^2 + x^3 - 5*x^2*y^3 + x*z - 7", ctx)
    images = {
        "x": parse_polynomial("1/2*x + y^2 - 3*z", ctx),
        "y": parse_polynomial("x*y - 2/5", ctx),
    }  # z is left unmapped
    composed = f.substitute(images)
    points = [
        (0, 0, 0),
        (1, -1, 2),
        (Fraction(1, 3), Fraction(-2, 7), Fraction(5, 4)),
        (Fraction(-3, 2), 2, Fraction(1, 9)),
    ]
    for point in points:
        inner = [images[v].evaluate(point) if v in images else c for v, c in zip(ctx, point)]
        assert composed.evaluate(point) == f.evaluate(inner)


# ---------------------------------------------------------------------------
# reference: the parser that built every atom as a Polynomial and every
# '*' and '+' by Polynomial arithmetic, kept verbatim; parse_polynomial
# must give the same terms, in the same order and with the same
# coefficient types, or the same exception class and message

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()]))"
)


def _tokenize(text):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            tail = text[pos:].strip()
            if not tail:
                break
            raise RejectedInputError(f"cannot tokenize polynomial near {tail[:15]!r}")
        if m.group("int") is not None:
            try:
                tokens.append(("int", int(m.group("int"))))
            except ValueError:  # more digits than int() reads
                raise RejectedInputError("integer in polynomial text is too long") from None
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()
    return tokens


def _coefficient_bits(p):
    """Bits of the largest coefficient (numerator and denominator) plus
    the bits of the term count: e times this estimates the coefficient
    size of p^e."""
    height = max(c.numerator.bit_length() + c.denominator.bit_length() for c in p.terms.values())
    return height + len(p.terms).bit_length()


def _capped_comb(n, k):
    """Binomial coefficient C(n, k), or MAX_TERMS + 1 once it is larger:
    a few steps at most, however large n and k are."""
    k = min(k, n - k)
    c = 1
    for i in range(k):
        c = c * (n - i) // (i + 1)
        if c > MAX_TERMS:
            return MAX_TERMS + 1
    return c


class _Parser:
    def __init__(self, tokens, context, degree_cap):
        self.tokens = tokens
        self.pos = 0
        self.context = tuple(context)
        self.degree_cap = degree_cap

    def bound_degree(self, degree):
        if degree > self.degree_cap:
            raise DegreeCapError(
                f"polynomial degree {degree} exceeds the degree cap {self.degree_cap}"
            )

    def bound_terms(self, estimate, degree):
        """Refuse a product or power that could have more than MAX_TERMS
        terms: at most `estimate`, and at most the number of monomials of
        degree at most `degree`."""
        if min(estimate, _capped_comb(len(self.context) + degree, degree)) > MAX_TERMS:
            raise RejectedInputError(f"polynomial would have more than {MAX_TERMS} terms")

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise RejectedInputError(f"expected {op!r} in polynomial text")

    def parse(self):
        p = self.expr()
        if self.pos != len(self.tokens):
            raise RejectedInputError("trailing junk in polynomial text")
        return p

    def expr(self):
        sign = 1
        kind, val = self.peek()
        while kind == "op" and val in "+-":
            self.take()
            if val == "-":
                sign = -sign
            kind, val = self.peek()
        p = self.term() * sign
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                q = self.term()
                p = p + q if val == "+" else p - q
            else:
                return p

    def term(self):
        p = self.factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val == "*":
                self.take()
                q = self.factor()
                self.bound_degree(p.degree() + q.degree())
                self.bound_terms(len(p.terms) * len(q.terms), p.degree() + q.degree())
                p = p * q
            else:
                return p

    def factor(self):
        p = self.atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.take()
            ekind, eval_ = self.take()
            if ekind != "int":
                raise RejectedInputError("exponent must be a non-negative integer")
            if eval_ > 1 and not p.is_zero:
                self.bound_degree(p.degree() * eval_)
                self.bound_terms(_capped_comb(len(p.terms) + eval_ - 1, eval_), p.degree() * eval_)
                if eval_ * _coefficient_bits(p) > MAX_POWER_BITS:
                    raise RejectedInputError(
                        f"power coefficients would exceed {MAX_POWER_BITS} bits"
                    )
            p = p**eval_
        return p

    def atom(self):
        kind, val = self.take()
        if kind == "int":
            num = val
            pk, pv = self.peek()
            if pk == "op" and pv == "/":
                self.take()
                dk, dv = self.take()
                if dk != "int" or dv == 0:
                    raise RejectedInputError("malformed rational coefficient")
                return Polynomial.constant(self.context, Fraction(num, dv))
            return Polynomial.constant(self.context, num)
        if kind == "name":
            return Polynomial.variable(self.context, val)
        if kind == "op" and val == "(":
            p = self.expr()
            self.expect_op(")")
            return p
        if kind == "op" and val == "-":
            return -self.atom()
        raise RejectedInputError(f"unexpected token {val!r} in polynomial text")


def reference_parse(text, variables, degree_cap=DEFAULT_DEGREE_CAP):
    try:
        return _Parser(_tokenize(str(text)), variables, degree_cap).parse()
    except RecursionError:
        raise RejectedInputError("polynomial text nests too deeply") from None


def _outcome(parse, text, variables, cap):
    try:
        p = parse(text, variables, cap)
    except (RejectedInputError, DegreeCapError) as err:
        return type(err), str(err)
    return [(m, c, type(c)) for m, c in p.terms.items()]


MUTATION_BASES = [
    "x^2 + 2/3*x*y - z",
    "x^3 - 3*x*y^2 + 7/2*z^4 - x*y*z",
    "-x^5 + y^3*z - 4*x*y*z + 1/6",
    "2*x^2*y - 1/5*y^4 + z^7 - x^3*z + 12/8*y*z^2",
    "(x - 2*y)^3 + z^2",
    "-(x + 1/2*y)*z^2 - x",
    "(1 + x)^2*(y - z) - 3*x*(y + 1)",
    "x*-y + --z - 2/4*x^0 + 0^0",
    "0*x^40*x^40 + y^2 - y^2",
    "((x + y)^2 - (x - y)^2)^2*z",
    "x^20*y^20 + 3*z^3",
]
MUTATION_ALPHABET = "0123456789xyzw+-*/^()"
MUTATION_INSERTS = ["9" * 5000, "123456789012345678901234567890", "u", "foo", "x_1", " "]


def _mutate(text, rng):
    chars = list(text)
    for _ in range(rng.randint(1, 4)):
        pos = rng.randint(0, len(chars))
        roll = rng.random()
        if roll < 0.1:
            chars.insert(pos, rng.choice(MUTATION_INSERTS))
        elif roll < 0.45:
            chars.insert(pos, rng.choice(MUTATION_ALPHABET))
        elif chars and roll < 0.75:
            del chars[min(pos, len(chars) - 1)]
        elif chars:
            chars[min(pos, len(chars) - 1)] = rng.choice(MUTATION_ALPHABET)
    return "".join(chars)


def test_parser_matches_the_reference_on_mutated_text():
    rng = random.Random(2024)
    ctx = ("x", "y", "z")
    outcomes = set()
    for _ in range(4000):
        text = _mutate(rng.choice(MUTATION_BASES), rng)
        cap = rng.choice([DEFAULT_DEGREE_CAP, DEFAULT_DEGREE_CAP, 3])
        expected = _outcome(reference_parse, text, ctx, cap)
        assert _outcome(parse_polynomial, text, ctx, cap) == expected, text
        outcomes.add(expected[0] if isinstance(expected, tuple) else "parsed")
    # the corpus reaches both refusals and parsed text
    assert outcomes == {"parsed", RejectedInputError, DegreeCapError}


BITS_EDGE = MAX_POWER_BITS // 6  # 9 = 0b1001: 4 + 1 bits, plus 1 for one term
EDGE_CASES = [
    ("x^40", 40),
    ("x^41", 40),
    ("(1+x+y+z)^20", 40),
    ("(1+x+y+z)^21", 40),
    ("(1+x+y+z)^30", 40),
    (f"9^{BITS_EDGE}", 40),
    (f"9^{BITS_EDGE + 1}", 40),
    (f"(9)^{BITS_EDGE + 1}", 40),
    (f"-9^{BITS_EDGE + 1}*x", 40),
    (f"x*-9^{BITS_EDGE + 1}", 40),
    (f"x^{MAX_POWER_BITS // 3}", 2 * MAX_POWER_BITS),
    (f"x^{MAX_POWER_BITS // 3 + 1}", 2 * MAX_POWER_BITS),
    ("0^100000000000 + 9^40", 40),
    ("1^100000000000", 40),
    ("x^100000000000", 40),
    ("(x*y)^20", 40),
    ("x^20 * y^21", 40),
    ("0*x^40*x^40", 40),
    ("x^40*x^40*0", 40),
    ("((((9)^40)^40)^40)^40", 40),
    ("(2/3)^100 - 2/3^100", 40),
    ("x^" + "9" * 5000, 40),
    ("(" * 20 + "x - 1" + ")^2" * 20, 2 ** 21),
    ("(" * 2000 + "x" + ")" * 2000, 40),
    ("x*" + "-" * 3000 + "y", 40),
]


@pytest.mark.parametrize("text, cap", EDGE_CASES, ids=[f"{t[:30]}@{c}" for t, c in EDGE_CASES])
def test_parser_matches_the_reference_at_the_bounds(text, cap):
    ctx = ("x", "y", "z")
    assert _outcome(parse_polynomial, text, ctx, cap) == _outcome(reference_parse, text, ctx, cap)


@pytest.fixture(scope="module")
def stream_parses():
    """(text, variables, cap, document index) of every parse_polynomial
    call that reading the perfbench documents of seeds 1-3 (20 rounds,
    the three workloads with polynomials) makes, and each document's
    term count."""
    calls, terms = [], []
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        from workloads import make_stream

        real = jobs.parse_polynomial
        patch.setattr(jobs, "parse_polynomial", lambda *args: calls.append(args) or real(*args))
        for workload in ("elk-signature", "local-colength", "small-jobs"):
            for seed in (1, 2, 3):
                for rnd in make_stream(workload, seed, 20):
                    terms += [jobs._Job(job.doc).terms for job in rnd]
    return calls, terms


def test_parser_matches_the_reference_on_the_stream_polynomials(stream_parses):
    calls, _ = stream_parses
    assert len(calls) > 10000
    for args in set(calls):
        assert _outcome(parse_polynomial, *args) == _outcome(reference_parse, *args)


def test_monomial_text_is_the_text_of_the_monomial(monkeypatch):
    # every basis monomial of the seed-1 elk-signature stream, and the
    # unit monomial, prints as the one-term polynomial does; the reports
    # list the basis in that text
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import make_stream

    forms = []
    real = smooth.elk_form
    monkeypatch.setattr(smooth, "elk_form", lambda *args: forms.append(real(*args)) or forms[-1])
    seen = {(ctx, (0,) * len(ctx)) for ctx in [("x",), CTX, ("x", "y", "z")]}
    for rnd in make_stream("elk-signature", 1, 20):
        for job in rnd:
            forms.clear()
            report, _ = jobs.run_job(job.doc)
            if forms:
                (form,) = forms
                ctx = form.algebra.context
                basis = report.certificates["algebra_basis"]
                assert basis == [monomial_text(ctx, m) for m in form.algebra.basis]
                seen.update((ctx, m) for m in form.algebra.basis)
    assert len(seen) > 50
    for ctx, m in seen:
        assert monomial_text(ctx, m) == str(Polynomial(ctx, {m: 1}))


def test_stream_documents_stay_far_under_the_term_budget(stream_parses):
    _, terms = stream_parses
    assert 0 < max(terms) and 10 * max(terms) < MAX_DOCUMENT_TERMS
    assert MAX_TERMS < MAX_DOCUMENT_TERMS
