"""Exact multivariate polynomials over the rationals.

A coefficient is exact: a Python ``int`` when it is an integer, and a
``fractions.Fraction`` (denominator other than 1) only when it is not.
Integer arithmetic is several times faster than Fraction arithmetic, and
most germs have integer coefficients.  Nothing downstream ever touches
floating point, because every index this library computes is an integer
and rounding would corrupt it; a true division of two coefficients goes
through ``Fraction``, since ``int / int`` is a float.  A monomial is a
plain tuple of non-negative exponents whose length equals the number of
variables of the owning context.

The text grammar accepted by :func:`parse_polynomial` is the wire format
used by every JSON job file: variables are identifiers, coefficients are
integers or ``a/b`` rationals, and the operators are ``+ - * ^`` (plus
parentheses), e.g. ``x^2 + 2/3*x*y - z``.  The parser builds terms
directly: a product of numbers, variables and their powers is one
coefficient and one exponent list, and a sum adds its terms into one
dict.  Only a parenthesised factor and its power, or a negated factor
inside a product, goes through Polynomial arithmetic.  The parser bounds
what it builds before it builds it: a product or power above the degree
cap raises ``DegreeCapError``, and a product or power that could have
more than ``MAX_TERMS`` terms, or a power whose coefficients would run
past ``MAX_POWER_BITS`` bits, is rejected.  A job document may hold at
most ``MAX_DOCUMENT_TERMS`` terms in all its polynomials (see ``jobs``).
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from operator import add

from .errors import DegreeCapError, RejectedInputError

# total degree beyond which basis computations abort, and polynomial text
# is refused as it is parsed
DEFAULT_DEGREE_CAP = 40

# estimated coefficient size, in bits, beyond which a power is refused
MAX_POWER_BITS = 4096

# bound on the term count of a product or power, beyond which it is
# refused: (1+x+y+z)^20 has 1771 terms and takes about 0.03 s to expand
# in CPython 3.11 on one x86-64 core
MAX_TERMS = 2000

# bound on the terms of all the polynomials that one job document's text
# parses to, summed; far above the stream documents of perfbench, whose
# largest sum is in the tens
MAX_DOCUMENT_TERMS = 5000

# ---------------------------------------------------------------------------
# monomials


def monomial_mul(a, b):
    return tuple(map(add, a, b))


def monomial_divides(a, b):
    """True when x^a divides x^b."""
    return all(x <= y for x, y in zip(a, b))


def monomial_quotient(a, b):
    """Exponent vector of x^a / x^b; caller guarantees divisibility."""
    return tuple(x - y for x, y in zip(a, b))


def monomial_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def monomial_degree(a):
    return sum(a)


def monomial_text(context, m):
    """The monomial x^m over the variable names `context` as polynomial
    text, such as x^2*y, and 1 for the unit monomial."""
    factors = []
    for name, e in zip(context, m):
        if e == 1:
            factors.append(name)
        elif e > 1:
            factors.append(f"{name}^{e}")
    return "*".join(factors) or "1"


def monomials_up_to_degree(nvars, bound):
    """All exponent tuples of total degree < bound, nvars variables."""
    out = []
    for deg in range(bound):
        out.extend(_monomials_of_degree(nvars, deg))
    return out


def _monomials_of_degree(nvars, deg):
    if nvars == 1:
        return [(deg,)]
    out = []
    for first in range(deg + 1):
        for rest in _monomials_of_degree(nvars - 1, deg - first):
            out.append((first,) + rest)
    return out


# ---------------------------------------------------------------------------
# monomial orders


class MonomialOrder:
    """A degree-reverse-lexicographic monomial order, global or local.

    kind 'degrevlex' is the usual global degree-reverse-lexicographic
    order (a well-order); it sorts monomials for printing and staircases.
    kind 'negdegrevlex' is its local counterpart: lower total degree
    wins, so 1 > x_i for every variable, which is what reduction in the
    local ring at the origin needs for termination of the ecart-controlled
    normal form.

    Keys compare so that a larger key means a larger monomial.
    """

    KINDS = ("degrevlex", "negdegrevlex")

    def __init__(self, kind="degrevlex"):
        if kind not in self.KINDS:
            raise RejectedInputError(f"unknown monomial order kind {kind!r}")
        self.kind = kind

    @property
    def is_local(self):
        return self.kind == "negdegrevlex"

    def key(self, exps):
        deg = sum(exps)
        head = -deg if self.is_local else deg
        return (head,) + tuple(-e for e in reversed(exps))

    def max_monomial(self, monomials):
        return max(monomials, key=self.key)

    def sorted_descending(self, monomials):
        return sorted(monomials, key=self.key, reverse=True)

    def __repr__(self):
        return f"MonomialOrder({self.kind!r})"


GLOBAL_ORDER = MonomialOrder("degrevlex")
LOCAL_ORDER = MonomialOrder("negdegrevlex")


# ---------------------------------------------------------------------------
# polynomials


def _coefficient(c):
    """An exact rational in normal form: an int when it is an integer,
    else a Fraction.  Anything else, floats included, is refused."""
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise RejectedInputError(f"coefficient {c!r} is not rational")


def _variable_index(context, name):
    try:
        return context.index(name)
    except ValueError:
        raise RejectedInputError(f"unknown variable {name!r} in context {context!r}") from None


def _accumulate(terms, other):
    """Add the terms of `other` into the dict `terms`, deleting each
    monomial whose sum is 0: a monomial that comes back later is then
    appended again, as a sum built one Polynomial at a time orders it."""
    for m, c in other.items():
        c = terms.get(m, 0) + c
        if c:
            terms[m] = c
        else:
            del terms[m]


def _check_monomial(mono, context):
    mono = tuple(mono)
    if len(mono) != len(context) or any(e < 0 for e in mono):
        raise RejectedInputError(f"bad monomial {mono!r} for context {context!r}")
    return mono


class Polynomial:
    """Immutable multivariate polynomial with exact rational coefficients.

    ``terms`` maps exponent tuples to non-zero coefficients, each an int
    when it is an integer and a Fraction with denominator other than 1
    otherwise; zero coefficients are pruned eagerly so equal polynomials
    compare equal.  All arithmetic requires both operands to share the
    same variable context.  The constructor validates its monomials and
    coefficients; results of arithmetic are built by ``_make``, which
    only prunes and normalises, since their monomials come from
    validated ones.
    """

    __slots__ = ("context", "terms")

    def __init__(self, context, terms):
        context = tuple(context)
        clean = {}
        for mono, coeff in terms.items():
            coeff = _coefficient(coeff)
            if coeff:
                clean[_check_monomial(mono, context)] = coeff
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _make(cls, context, terms):
        """Trusted constructor over a validated context and monomials:
        drops zero coefficients and stores integral ones as ints."""
        p = object.__new__(cls)
        object.__setattr__(p, "context", context)
        object.__setattr__(
            p,
            "terms",
            {
                m: c if type(c) is int or c.denominator != 1 else c.numerator
                for m, c in terms.items()
                if c
            },
        )
        return p

    def __setattr__(self, *a):
        raise AttributeError("Polynomial is immutable")

    # -- constructors

    @classmethod
    def zero(cls, context):
        return cls(context, {})

    @classmethod
    def one(cls, context):
        return cls(context, {(0,) * len(context): 1})

    @classmethod
    def constant(cls, context, c):
        return cls(context, {(0,) * len(context): c})

    @classmethod
    def variable(cls, context, name):
        context = tuple(context)
        i = _variable_index(context, name)
        mono = tuple(1 if j == i else 0 for j in range(len(context)))
        return cls(context, {mono: 1})

    # -- basic queries

    @property
    def is_zero(self):
        return not self.terms

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(monomial_degree(m) for m in self.terms)

    def min_degree(self):
        """Lowest total degree among the terms; -1 for zero."""
        if not self.terms:
            return -1
        return min(monomial_degree(m) for m in self.terms)

    def constant_term(self):
        return self.terms.get((0,) * len(self.context), 0)

    def leading_term(self, order):
        """(monomial, coefficient) of the largest monomial under `order`."""
        if not self.terms:
            raise RejectedInputError("zero polynomial has no leading term")
        m = order.max_monomial(self.terms)
        return m, self.terms[m]

    # -- arithmetic

    def _check_context(self, other):
        if self.context != other.context:
            raise RejectedInputError(
                f"context mismatch: {self.context!r} vs {other.context!r}"
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.context, other)
        self._check_context(other)
        terms = dict(self.terms)
        _accumulate(terms, other.terms)
        return Polynomial._make(self.context, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._make(self.context, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.context, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coefficient(other)
            return Polynomial._make(self.context, {m: c * v for m, v in self.terms.items()})
        self._check_context(other)
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = monomial_mul(m1, m2)
                terms[m] = terms.get(m, 0) + c1 * c2
        return Polynomial._make(self.context, terms)

    __rmul__ = __mul__

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise RejectedInputError("exponent must be a non-negative integer")
        result = Polynomial.one(self.context)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def scale(self, c):
        return self * _coefficient(c)

    def monic(self, order):
        _, lc = self.leading_term(order)
        return self if lc == 1 else self.scale(Fraction(1) / lc)

    def term_mul(self, mono, coeff):
        """Multiply by coeff * x^mono without building a Polynomial."""
        mono = _check_monomial(mono, self.context)
        coeff = _coefficient(coeff)
        return Polynomial._make(
            self.context,
            {monomial_mul(m, mono): c * coeff for m, c in self.terms.items()},
        )

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if isinstance(other, (int, Fraction)):
                other = Polynomial.constant(self.context, other)
            else:
                return NotImplemented
        return self.context == other.context and self.terms == other.terms

    def __hash__(self):
        return hash((self.context, frozenset(self.terms.items())))

    # -- calculus and substitution

    def derivative(self, var):
        """Partial derivative with respect to a variable name or index."""
        if isinstance(var, str):
            var = _variable_index(self.context, var)
        elif var not in range(len(self.context)):
            raise RejectedInputError(f"no variable with index {var!r} in context {self.context!r}")
        terms = {}
        for m, c in self.terms.items():
            e = m[var]
            if e == 0:
                continue
            dm = m[:var] + (e - 1,) + m[var + 1 :]
            terms[dm] = terms.get(dm, 0) + c * e
        return Polynomial._make(self.context, terms)

    def substitute(self, images):
        """Compose with a map sending each variable to a polynomial.

        `images` maps variable names to Polynomials sharing one target
        context; unnamed variables map to themselves when the target
        context still contains them.  A name outside this polynomial's
        context is refused, as in :meth:`derivative`.
        """
        for name in images:
            _variable_index(self.context, name)
        if not images:
            return self
        target = next(iter(images.values())).context
        subs = []
        for name in self.context:
            if name in images:
                p = images[name]
                if p.context != target:
                    raise RejectedInputError("substitution images must share one context")
                subs.append(p)
            else:
                subs.append(Polynomial.variable(target, name))
        terms = {}
        for m, c in self.terms.items():
            prod = Polynomial.constant(target, c)
            for p, e in zip(subs, m):
                if e:
                    prod = prod * p**e
            _accumulate(terms, prod.terms)
        return Polynomial._make(target, terms)

    def evaluate(self, point):
        if len(point) != len(self.context):
            raise RejectedInputError("evaluation point has wrong length")
        point = [_coefficient(p) for p in point]
        total = Fraction(0)  # a Fraction even when integral: callers divide values
        for m, c in self.terms.items():
            v = c
            for x, e in zip(point, m):
                if e:
                    v *= x**e
            total += v
        return total

    # -- formatting

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in GLOBAL_ORDER.sorted_descending(self.terms):
            c = self.terms[m]
            mag = abs(c)
            body = monomial_text(self.context, m)
            if not any(m):
                piece = str(mag)
            elif mag == 1:
                piece = body
            else:
                piece = f"{mag}*{body}"
            if not parts:
                parts.append(piece if c > 0 else f"-{piece}")
            else:
                parts.append(f"+ {piece}" if c > 0 else f"- {piece}")
        return " ".join(parts)

    def __repr__(self):
        return f"Polynomial({str(self)!r}, context={self.context!r})"


# ---------------------------------------------------------------------------
# parsing


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()]))"
)
_OPS = frozenset("+-*/^()")


def _tokenize(text):
    """The tokens of polynomial text, in one pass: an int per number, a
    str per name or operator, and None at the end."""
    tokens = []
    pos = 0
    for m in _TOKEN_RE.finditer(text):
        if m.start() != pos:
            break
        pos = m.end()
        kind = m.lastgroup
        if kind == "int":
            try:
                tokens.append(int(m.group(kind)))
            except ValueError:  # more digits than int() reads
                raise RejectedInputError("integer in polynomial text is too long") from None
        else:
            tokens.append(m.group(kind))
    tail = text[pos:].strip()
    if tail:
        raise RejectedInputError(f"cannot tokenize polynomial near {tail[:15]!r}")
    tokens.append(None)
    return tokens


def _coefficient_bits(coeffs):
    """Bits of the largest coefficient (numerator and denominator) plus
    the bits of the term count: e times this estimates the coefficient
    size of the e-th power of a polynomial with these coefficients."""
    height = max(c.numerator.bit_length() + c.denominator.bit_length() for c in coeffs)
    return height + len(coeffs).bit_length()


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
    """Recursive descent over the tokens of one polynomial text.

    ``term`` keeps a product as one coefficient and one exponent list
    while its factors are numbers, a/b rationals, variables and their
    powers (``monomial``), and ``expr`` adds the terms of a sum into one
    dict.  A parenthesised factor and its power, or a negated factor
    inside a product, is a Polynomial (``factor`` and ``atom``), and the
    rest of its product is built by Polynomial arithmetic.  Every bound
    is checked before the product or power it bounds is built, a zero
    factor counting as degree -1.
    """

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
        if estimate > MAX_TERMS and _capped_comb(len(self.context) + degree, degree) > MAX_TERMS:
            raise RejectedInputError(f"polynomial would have more than {MAX_TERMS} terms")

    def bound_power(self, e, degree, coeffs):
        """Refuse the e-th power of a non-zero polynomial of total degree
        `degree` with coefficients `coeffs`, before it is built."""
        self.bound_degree(degree * e)
        if len(coeffs) > 1:  # a power of one term has one term
            self.bound_terms(_capped_comb(len(coeffs) + e - 1, e), degree * e)
        if e * _coefficient_bits(coeffs) > MAX_POWER_BITS:
            raise RejectedInputError(f"power coefficients would exceed {MAX_POWER_BITS} bits")

    def product(self, p, q):
        degree = p.degree() + q.degree()
        self.bound_degree(degree)
        self.bound_terms(len(p.terms) * len(q.terms), degree)
        return p * q

    def parse(self):
        p = self.expr()
        if self.tokens[self.pos] is not None:
            raise RejectedInputError("trailing junk in polynomial text")
        return p

    def expr(self):
        tokens = self.tokens
        sign = 1
        while tokens[self.pos] in ("+", "-"):
            if tokens[self.pos] == "-":
                sign = -sign
            self.pos += 1
        terms = {}
        while True:
            self.term(terms, sign)
            op = tokens[self.pos]
            if op == "+":
                sign = 1
            elif op == "-":
                sign = -1
            else:
                return Polynomial._make(self.context, terms)
            self.pos += 1

    def term(self, terms, sign):
        """Parse one product and add sign times it into `terms`."""
        tokens = self.tokens
        exps = [0] * len(self.context)
        coeff, degree = 1, None  # degree: None before the first factor, -1 once 0
        while True:
            tok = tokens[self.pos]
            if type(tok) is not int and (tok is None or tok in _OPS):
                break
            c, i, e = self.monomial()
            fdeg = (e if i is not None else 0) if c else -1
            if degree is None:
                degree = fdeg
            else:
                self.bound_degree(degree + fdeg)
                degree = -1 if degree < 0 or fdeg < 0 else degree + fdeg
            coeff *= c
            if i is not None:
                exps[i] += e
            if tokens[self.pos] != "*":
                if coeff:
                    _accumulate(terms, {tuple(exps): sign * coeff})
                return
            self.pos += 1
        p = self.factor()
        if degree is not None:
            p = self.product(Polynomial._make(self.context, {tuple(exps): coeff}), p)
        while tokens[self.pos] == "*":
            self.pos += 1
            p = self.product(p, self.factor())
        _accumulate(terms, p.terms if sign > 0 else (-p).terms)

    def monomial(self):
        """A number, a/b or variable with its power, taken as
        (coefficient, variable index or None, exponent)."""
        tok = self.tokens[self.pos]
        self.pos += 1
        if type(tok) is int:
            c, i = self.number(tok), None
        else:
            c, i = 1, _variable_index(self.context, tok)
        if self.tokens[self.pos] != "^":
            return c, i, 1
        e = self.exponent()
        if e > 1 and c:
            self.bound_power(e, 0 if i is None else 1, (c,))
        return c**e, i, e

    def factor(self):
        """An atom and its power, as a Polynomial."""
        p = self.atom()
        if self.tokens[self.pos] == "^":
            e = self.exponent()
            if e > 1 and p.terms:
                self.bound_power(e, p.degree(), p.terms.values())
            p = p**e
        return p

    def atom(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        if type(tok) is int:
            return Polynomial.constant(self.context, self.number(tok))
        if tok == "(":
            p = self.expr()
            if self.tokens[self.pos] != ")":
                raise RejectedInputError("expected ')' in polynomial text")
            self.pos += 1
            return p
        if tok == "-":
            return -self.atom()
        if tok is None or tok in _OPS:
            raise RejectedInputError(f"unexpected token {tok!r} in polynomial text")
        return Polynomial.variable(self.context, tok)

    def number(self, num):
        """The integer `num`, or the a/b rational it begins: a Fraction
        only when it is not an integer."""
        if self.tokens[self.pos] != "/":
            return num
        den = self.tokens[self.pos + 1]
        self.pos += 2
        if type(den) is not int or den == 0:
            raise RejectedInputError("malformed rational coefficient")
        c = Fraction(num, den)
        return c.numerator if c.denominator == 1 else c

    def exponent(self):
        """The integer after a '^'."""
        e = self.tokens[self.pos + 1]
        self.pos += 2
        if type(e) is not int:
            raise RejectedInputError("exponent must be a non-negative integer")
        return e


def parse_polynomial(text, variables, degree_cap=DEFAULT_DEGREE_CAP):
    """Parse the wire-format grammar into a Polynomial over `variables`."""
    if isinstance(text, Polynomial):
        if tuple(text.context) != tuple(variables):
            raise RejectedInputError("polynomial context does not match variables")
        return text
    try:
        return _Parser(_tokenize(str(text)), variables, degree_cap).parse()
    except RecursionError:
        raise RejectedInputError("polynomial text nests too deeply") from None


# ---------------------------------------------------------------------------
# derived constructions


def jacobian_matrix(fs):
    """Rows of partial derivatives d f_i / d x_j."""
    fs = list(fs)
    if not fs:
        return []
    ctx = fs[0].context
    for f in fs:
        if f.context != ctx:
            raise RejectedInputError("jacobian needs one shared context")
    return [[f.derivative(j) for j in range(len(ctx))] for f in fs]


def jacobian_det(fs, top=None):
    """det(d f_i / d x_j) for a square system, computed exactly; with
    `top`, only its terms of degree at most top (see :func:`poly_det`)."""
    fs = list(fs)
    if not fs:
        raise RejectedInputError("empty system")
    if len(fs) != len(fs[0].context):
        raise RejectedInputError(
            f"square system required: {len(fs)} polynomials in {len(fs[0].context)} variables"
        )
    return poly_det(jacobian_matrix(fs), top)


def poly_det(rows, top=None):
    """Determinant of a square matrix of Polynomials: Laplace expansion
    along the first row, each minor memoised, over term dicts.  With
    `top`, every entry term and every partial product term of degree
    above top is dropped as it comes; degrees only add up, so the result
    is the determinant with its terms above top removed."""
    n = len(rows)
    if n == 0:
        raise RejectedInputError("empty matrix")
    if top is None:
        # no product can pass the sum of the rows' largest degrees
        top = sum(max((sum(m) for e in row for m in e.terms), default=0) for row in rows)
    entries = [
        [[(m, d, c) for m, c in e.terms.items() if (d := sum(m)) <= top] for e in row]
        for row in rows
    ]
    memo = {}

    def rec(cset):
        """The terms (monomial, degree, coefficient) of the minor on the
        last len(cset) rows and the columns cset."""
        if len(cset) == 1:
            return entries[-1][cset[0]]
        if cset in memo:
            return memo[cset]
        row = entries[n - len(cset)]
        total = {}
        for pos, j in enumerate(cset):
            if not row[j]:
                continue
            sub = rec(cset[:pos] + cset[pos + 1 :])
            for m1, d1, c1 in row[j]:
                if pos % 2:
                    c1 = -c1
                room = top - d1
                for m2, d2, c2 in sub:
                    if d2 <= room:
                        m = tuple(map(add, m1, m2))
                        total[m] = total.get(m, 0) + c1 * c2
        memo[cset] = terms = [(m, sum(m), c) for m, c in total.items() if c]
        return terms

    det = rec(tuple(range(n)))
    return Polynomial._make(rows[0][0].context, {m: c for m, _, c in det})


def minors(mat, k):
    """All k x k minor determinants, in lexicographic order of
    (row-set, column-set).  The fixed order makes every ideal built from
    minors reproducible byte for byte."""
    rows = [list(r) for r in mat]
    if not rows or not rows[0]:
        raise RejectedInputError("empty matrix")
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise RejectedInputError("ragged matrix")
    if not (1 <= k <= min(len(rows), ncols)):
        raise RejectedInputError(f"minor size {k} out of range")
    out = []
    for rset in itertools.combinations(range(len(rows)), k):
        for cset in itertools.combinations(range(ncols), k):
            out.append(poly_det([[rows[i][j] for j in cset] for i in rset]))
    return out
