"""Standard bases, colengths and quotient algebras in the local ring at the
origin.

Every index this library computes is an invariant of a germ at an isolated
singular point, so every ideal lives in the ring of germs at the origin.
Standard bases are computed under the negative-degree reverse-lexicographic
order (``LOCAL_ORDER``) with Mora's ecart-controlled weak normal form and
the normal selection strategy (minimal lcm degree first, deterministic
tie-break).
The weak normal form returns zero exactly on elements of the localized
ideal but only determines classes up to a unit factor (Greuel-Pfister,
*A Singular Introduction to Commutative Algebra*, the chapter on Mora's
normal form); it is internal to the completion, which serves only to
decide whether a colength is infinite, and no membership test is exposed.

Colengths and classes take another route.  :func:`colength` and
:func:`quotient_algebra` hand the ideal to ``singindex.dual``: a modular
rank of Macaulay matrices proposes the colength mu at the first plateau
D0 of the truncated dimensions, and an exact rational dual basis
certifies dim_Q(D0) >= mu >= dim_Q(D0+1), which with monotonicity and
Nakayama makes mu the colength.  The same dual basis gives the
coordinates of every class in the local algebra.

INFINITE needs a proof that the zero set holds a curve through the
origin.  The dispatch (:func:`_local_dual`) runs in this order: unit,
Krull, axis, probe, common factor, Mora, route.  A generator with a
constant term makes the ideal the unit ideal.  Fewer generators than
variables give INFINITE by Krull's height theorem.  A coordinate axis
on which every generator vanishes (no generator has a term that is a
pure power of its variable) gives INFINITE before the probe.  Where the
probe certifies nothing (germs that are not isolated, and germs past
its size bound), a common factor f, proposed by a primitive PRS gcd and
certified by the exact products f * q_i = g_i with f not constant,
f(0) = 0 and two or more variables, gives INFINITE, since O/I maps onto
O/(f).  Then Mora's standard basis decides whether the colength is
infinite, in one completion bounded by the degree cap and by
``MORA_WORK`` reduced terms.  Every finite colength and every algebra
comes from a certified dual basis, past the probe's bound from the
integration route of ``singindex.dual``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .dual import DualBasis, dual_basis, integrated_dual_basis
from .errors import (
    DegreeCapError,
    InternalCheckError,
    NotIsolatedError,
    RejectedInputError,
)
from .poly import (
    DEFAULT_DEGREE_CAP,
    GLOBAL_ORDER,
    LOCAL_ORDER,
    Polynomial,
    monomial_degree,
    monomial_divides,
    monomial_lcm,
    monomial_quotient,
    parse_polynomial,
)


class _Infinite:
    """Distinguished colength value for non-zero-dimensional ideals.

    It is a value, not an error: callers use it to report that a
    singular point is not isolated."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITE"


INFINITE = _Infinite()

# work budget of Mora's one completion (see standard_basis), in terms of
# the polynomials under weak normal form reduction, summed over all its
# reduction steps; CPython 3.11 on one x86-64 core reduces about 100000
# terms a second, so a completion that cannot finish stops within a
# fraction of a second and leaves the germ to the integration route
MORA_WORK = 20_000

# work budget of the gcd that proposes a common factor (_common_factor;
# the axis scan of _axis spends none), in coefficient products and
# division steps, each weighted by the 64-bit words of its operands;
# past it the proposal gives up and Mora decides.  The primitive PRS on
# dense germs of degree 5 and up spends seconds on the contents of its
# remainders; this budget stops it within about 0.1 s, and the seeded
# common-factor germs of the tests need under 25 000
GCD_WORK = 100_000


class Ideal:
    """A finitely generated ideal of the local ring at the origin (germs)."""

    __slots__ = ("generators", "context")

    def __init__(self, generators):
        gens = list(generators)
        if not gens:
            raise RejectedInputError("ideal needs at least one generator")
        ctx = gens[0].context
        for g in gens:
            if g.context != ctx:
                raise RejectedInputError("ideal generators must share one context")
        seen = []
        for g in gens:
            if not g.is_zero and g not in seen:
                seen.append(g)
        if not seen:
            seen = [Polynomial.zero(ctx)]
        object.__setattr__(self, "generators", tuple(seen))
        object.__setattr__(self, "context", ctx)

    def __setattr__(self, *a):
        raise AttributeError("Ideal is immutable")

    @classmethod
    def from_strings(cls, texts, variables):
        return cls([parse_polynomial(t, variables) for t in texts])

    def __repr__(self):
        return f"Ideal({[str(g) for g in self.generators]!r})"


# ---------------------------------------------------------------------------
# normal forms


def _ecart(poly, lt_mono):
    return poly.degree() - monomial_degree(lt_mono)


def _check_cap(poly, cap):
    if poly.degree() > cap:
        raise DegreeCapError(
            f"intermediate degree {poly.degree()} exceeded the cap {cap}"
        )


class _WorkBudget:
    """Work a bounded run may still spend: the terms that Mora's weak
    normal forms reduce, or the steps of the gcd; spending past zero
    raises DegreeCapError."""

    def __init__(self, terms):
        self.left = terms

    def spend(self, terms):
        self.left -= terms
        if self.left < 0:
            raise DegreeCapError("the run spent its work budget")


def _normal_form_mora(p, basis, cap, budget):
    """Mora's weak normal form with ecart control.

    Returns h with leading monomial not divisible by any basis leading
    term; h is u*p reduced for some unit u of the local ring, so h == 0
    exactly when p lies in the localized ideal.  The work budget is
    charged the terms of h at every step.
    """
    h = p
    pool = [(lt, lc, g, _ecart(g, lt)) for (lt, lc, g) in basis]
    while not h.is_zero:
        _check_cap(h, cap)
        budget.spend(len(h.terms))
        lm, lc = h.leading_term(LOCAL_ORDER)
        divisors = [entry for entry in pool if monomial_divides(entry[0], lm)]
        if not divisors:
            return h
        best = min(divisors, key=lambda e: e[3])
        h_ecart = _ecart(h, lm)
        if best[3] > h_ecart:
            pool.append((lm, lc, h, h_ecart))
        h = h - best[2].term_mul(monomial_quotient(lm, best[0]), Fraction(lc, best[1]))
    return h


# ---------------------------------------------------------------------------
# basis completion


def _spoly(f_lt, f, g_lt, g):
    lcm = monomial_lcm(f_lt, g_lt)
    a = f.term_mul(monomial_quotient(lcm, f_lt), 1)
    b = g.term_mul(monomial_quotient(lcm, g_lt), 1)
    return a - b


class StandardBasis:
    """Computed minimal standard basis under ``LOCAL_ORDER``; leading
    coefficients are normalized to 1."""

    __slots__ = ("elements", "ideal")

    def __init__(self, elements, ideal):
        object.__setattr__(self, "elements", tuple(elements))
        object.__setattr__(self, "ideal", ideal)

    def __setattr__(self, *a):
        raise AttributeError("StandardBasis is immutable")

    def leading_monomials(self):
        return [g.leading_term(LOCAL_ORDER)[0] for g in self.elements]


def _completion(generators, degree_cap, budget):
    """Mora's pair-completion loop, every weak normal form charged to the
    work budget.

    S-pairs are processed by minimal lcm total degree with a
    deterministic tie-break on generator indices so runs are
    byte-for-byte reproducible.  Returns the minimalized monic basis.
    """
    basis = []
    for g in generators:
        if g.is_zero:
            continue
        g = g.monic(LOCAL_ORDER)
        if g not in basis:
            basis.append(g)
    lead = [(g.leading_term(LOCAL_ORDER)[0], 1, g) for g in basis]

    pairs = {(i, j) for i in range(len(basis)) for j in range(i)}

    def pair_key(pair):
        i, j = pair
        lcm = monomial_lcm(lead[i][0], lead[j][0])
        return (monomial_degree(lcm), j, i)

    while pairs:
        i, j = min(pairs, key=pair_key)
        pairs.discard((i, j))
        s = _spoly(lead[i][0], basis[i], lead[j][0], basis[j])
        h = _normal_form_mora(s, lead, degree_cap, budget)
        if h.is_zero:
            continue
        h = h.monic(LOCAL_ORDER)
        basis.append(h)
        lead.append((h.leading_term(LOCAL_ORDER)[0], 1, h))
        k = len(basis) - 1
        pairs.update((k, t) for t in range(k))

    # minimalize: drop elements whose leading term is divisible by another's
    keep = []
    for idx in range(len(lead)):
        lt = lead[idx][0]
        redundant = any(
            other != idx
            and monomial_divides(lead[other][0], lt)
            and (lead[other][0] != lt or other < idx)
            for other in range(len(lead))
        )
        if not redundant:
            keep.append(idx)
    return [basis[i] for i in keep]


def standard_basis(ideal, degree_cap=DEFAULT_DEGREE_CAP):
    """Compute a minimal standard basis of the germ ideal by Mora's
    algorithm under ``LOCAL_ORDER``, in one completion bounded by the
    degree cap and by ``MORA_WORK`` reduced terms.

    A completed run is a standard basis, finite staircase or not.
    DegreeCapError when an intermediate degree passes the cap or the run
    spends its work budget.
    """
    minimal = _completion(ideal.generators, degree_cap, _WorkBudget(MORA_WORK))
    minimal = sorted(minimal, key=lambda g: LOCAL_ORDER.key(g.leading_term(LOCAL_ORDER)[0]))
    return StandardBasis(minimal, ideal)


# ---------------------------------------------------------------------------
# staircases and colength


def is_zero_dimensional(sb):
    """True when the leading terms contain a pure power of every variable,
    i.e. the staircase is finite."""
    lead = sb.leading_monomials()
    return all(_pure_power_bound(lead, i) is not None for i in range(len(sb.ideal.context)))


def _pure_power_bound(lead, var):
    best = None
    for lt in lead:
        if all(e == 0 for k, e in enumerate(lt) if k != var):
            if best is None or lt[var] < best:
                best = lt[var]
    return best


def staircase_monomials(sb):
    """Monomials outside the leading-term ideal, or INFINITE."""
    n = len(sb.ideal.context)
    lead = sb.leading_monomials()
    bounds = [_pure_power_bound(lead, i) for i in range(n)]
    if any(b is None for b in bounds):
        return INFINITE
    out = []

    def walk(prefix, i):
        if i == n:
            mono = tuple(prefix)
            if not any(monomial_divides(lt, mono) for lt in lead):
                out.append(mono)
            return
        for e in range(bounds[i]):
            walk(prefix + [e], i + 1)

    walk([], 0)
    out.sort(key=GLOBAL_ORDER.key)
    return out


# The benchmark's traced run (perfbench/spans.py) wraps this name, which
# was deepening's staircase count, and adds its time to the staircase
# layer; it stays bound to the staircase until the benchmark drops it.
_staircase_count_below = staircase_monomials


# ---------------------------------------------------------------------------
# witnesses that the zero set holds a curve


def _axis(generators):
    """The index i of a coordinate axis on which every generator, none
    of them a unit, vanishes, or None.  When no generator has a term
    that is a pure power x_i^k, every generator vanishes on the x_i
    axis.  One pass over the terms collects the covered axes and stops
    once all are covered."""
    n = len(generators[0].context)
    covered = set()
    for g in generators:
        for m in g.terms:
            if m.count(0) == n - 1:
                covered.add(m.index(max(m)))
                if len(covered) == n:
                    return None
    return min(set(range(n)) - covered)


def _common_factor(generators):
    """A common factor of the generators, none of them a unit, as (f,
    quotients), or None.  A primitive PRS gcd over the integers
    (:func:`_gcd`) proposes f, exact division gives each quotient, and
    :func:`_certified_factor` checks the proposal exactly.  Then O/I
    maps onto O/(f), which is infinite-dimensional.  A gcd that spends
    ``GCD_WORK`` proposes nothing, and a proposal that fails the check
    is no witness."""
    context = generators[0].context
    scaled = []
    for g in generators:
        scale = lcm(*(c.denominator for c in g.terms.values()))
        scaled.append(({m: int(c * scale) for m, c in g.terms.items()}, scale))
    budget = _WorkBudget(GCD_WORK)
    try:
        f = None
        for terms, _ in sorted(scaled, key=lambda entry: len(entry[0])):
            f = terms if f is None else _gcd(f, terms, budget)
            if not any(map(any, f)):
                return None
        quotients = [_exact_quotient(terms, f, budget) for terms, _ in scaled]
    except DegreeCapError:
        return None
    if None in quotients:
        return None
    quotients = [
        Polynomial._make(context, {m: Fraction(c, scale) for m, c in q.items()})
        for q, (_, scale) in zip(quotients, scaled)
    ]
    f = Polynomial._make(context, f)
    return (f, quotients) if _certified_factor(generators, f, quotients) else None


def _certified_factor(generators, f, quotients):
    """Whether f with its quotients proves the colength infinite: two or
    more variables, f not constant, f(0) = 0, and f * q_i = g_i exactly
    for every generator g_i.  (In one variable the gcd x^2 of x^2 and
    x^3 leaves colength 2.)"""
    return (
        len(f.context) >= 2
        and f.degree() > 0
        and not f.constant_term()
        and len(quotients) == len(generators)
        and all(f * q == g for q, g in zip(quotients, generators))
    )


def _gcd(p, q, budget):
    """gcd over the integers of two polynomials given as {monomial: int},
    by the primitive PRS (Knuth, TAOCP vol. 2, 4.6.1) in the last
    variable either one holds, with the contents' gcd taken recursively
    in the others; normalized to a positive lex-leading coefficient.
    Every coefficient product and division step is charged to the work
    budget, since the contents of large polynomials can grow steeply.
    It only proposes: a witness is checked by multiplication."""
    v = max(max((i for i, e in enumerate(m) if e), default=-1) for m in (*p, *q))
    if v < 0:
        zero = next(iter(p))
        return {zero: gcd(p[zero], q[zero])}
    a, a_content = _primitive(_split(p, v), budget)
    b, b_content = _primitive(_split(q, v), budget)
    content = _gcd(a_content, b_content, budget)
    if max(a) < max(b):
        a, b = b, a
    while max(b) > 0:
        r = _pseudo_remainder(a, b, budget)
        if not r:
            break
        a, (b, _) = b, _primitive(r, budget)
    else:
        # a primitive b free of x_v is a unit: the gcd is the content
        return content
    g = _mul(content, {m[:v] + (e,) + m[v + 1 :]: c for e, part in b.items() for m, c in part.items()}, budget)
    return g if g[max(g)] > 0 else {m: -c for m, c in g.items()}


def _split(p, v):
    """p as {e: the coefficient of x_v^e}, each coefficient free of x_v."""
    out = {}
    for m, c in p.items():
        out.setdefault(m[v], {})[m[:v] + (0,) + m[v + 1 :]] = c
    return out


def _primitive(parts, budget):
    """(the primitive part, the content) of a split polynomial."""
    content = None
    for part in parts.values():
        content = part if content is None else _gcd(content, part, budget)
        if len(content) == 1 and abs(next(iter(content.values()))) == 1 and not any(next(iter(content))):
            break
    return {e: _exact_quotient(part, content, budget) for e, part in parts.items()}, content


def _pseudo_remainder(a, b, budget):
    """The pseudo-remainder of split polynomials a by b, deg a >= deg b:
    each step multiplies by the leading coefficient of b and cancels the
    leading coefficient of the result."""
    top = max(b)
    lead = b[top]
    r = a
    while r and max(r) >= top:
        d = max(r)
        out = {e: _mul(lead, part, budget) for e, part in r.items() if e != d}
        for e, part in b.items():
            if e != top:
                k = e + d - top
                diff = dict(out.get(k, {}))
                for m, c in _mul(r[d], part, budget).items():
                    diff[m] = diff.get(m, 0) - c
                diff = {m: c for m, c in diff.items() if c}
                if diff:
                    out[k] = diff
                else:
                    out.pop(k, None)
        r = out
    return r


def _mul(p, q, budget):
    budget.spend(len(p) * len(q) * _words(p, q))
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _words(p, q):
    """64-bit words in the largest coefficient of p times that of q."""
    return (max(map(int.bit_length, p.values())) + max(map(int.bit_length, q.values()))) // 64 + 1


def _exact_quotient(p, q, budget):
    """p / q when q divides p over the integers, else None: division by
    the lex-leading term, which ends since lex is a well order."""
    top = max(q)
    lead = q[top]
    r = dict(p)
    out = {}
    while r:
        m = max(r)
        budget.spend(len(q) * _words(q, {m: r[m]}))
        e = tuple(a - b for a, b in zip(m, top))
        t, rest = divmod(r[m], lead)
        if rest or min(e) < 0:
            return None
        out[e] = t
        for mq, c in q.items():
            k = tuple(a + b for a, b in zip(e, mq))
            value = r.get(k, 0) - t * c
            if value:
                r[k] = value
            else:
                del r[k]
    return out


def _local_dual(ideal, degree_cap):
    """The certified dual basis of the ideal (see ``singindex.dual``), or
    INFINITE.  A degree_cap below 1 is refused.  The steps, in order:

    1. unit: a generator with a non-zero constant term makes the ideal
       the unit ideal, whose dual basis is empty;
    2. Krull: fewer generators than variables give INFINITE, since by
       Krull's height theorem the germ of their zero set has positive
       dimension;
    3. axis: a coordinate axis on which every generator vanishes (no
       generator has a pure power of its variable, :func:`_axis`) gives
       INFINITE;
    4. probe: ``dual.dual_basis`` answers when it certifies a basis;
    5. common factor: a non-constant f with f(0) = 0 that divides every
       generator, checked by multiplication (:func:`_common_factor`),
       gives INFINITE in two or more variables;
    6. Mora: a standard basis with an infinite staircase gives INFINITE;
    7. route: a finite staircase, or a completion that does not finish,
       goes to the integration route, which raises DegreeCapError when
       the local dual still grows at the degree cap."""
    if degree_cap < 1:
        raise RejectedInputError("degree_cap must be a positive integer")
    gens = ideal.generators
    if any(g.constant_term() for g in gens):
        return DualBasis([], {})
    if len(gens) < len(ideal.context) or _axis(gens) is not None:
        return INFINITE
    dual = dual_basis(gens, degree_cap)
    if dual is not None:
        return dual
    if _common_factor(gens) is not None:
        return INFINITE
    try:
        if not is_zero_dimensional(standard_basis(ideal, degree_cap=degree_cap)):
            return INFINITE
    except DegreeCapError:
        pass
    return integrated_dual_basis(gens, degree_cap)


def colength(ideal, degree_cap=DEFAULT_DEGREE_CAP):
    """dim of the local quotient by the ideal, as a rational vector space;
    INFINITE when the ideal is not zero-dimensional.

    A generator with a non-zero constant term gives 0.  Otherwise
    INFINITE comes from Krull's height theorem (fewer generators than
    variables), or from a coordinate axis on which every generator
    vanishes: no generator has a term that is a pure power x_i^k.  Then
    ``dual.dual_basis`` answers: the mu vectors, mu proposed by a
    modular rank, of an exact rational dual basis of the Macaulay matrix
    at the first plateau D0.  The certificate proves
    dim_Q(D0) >= mu >= dim_Q(D0+1) for the quotients by I + m^(D+1);
    they never shrink as D grows, so both equal mu, and by Nakayama mu
    is the colength.  When that probe certifies nothing, a common factor
    f of the generators gives INFINITE, certified by the exact products
    f * q_i = g_i with f not constant, f(0) = 0 and two or more
    variables; failing that, Mora's standard basis alone returns
    INFINITE.  Every finite colength is the size of a dual basis that
    the probe or ``dual.integrated_dual_basis`` certifies; the route
    raises DegreeCapError when the local dual still grows at the degree
    cap.
    """
    dual = _local_dual(ideal, degree_cap)
    return INFINITE if dual is INFINITE else len(dual.vectors)


# ---------------------------------------------------------------------------
# quotient algebras


class QuotientAlgebra:
    """Finite dimensional local algebra O/I with a certified monomial
    basis, built on a certified dual basis (see ``singindex.dual``).

    The basis monomials are the free columns of the dual basis, sorted
    ascending, and the class of 1 is the unit (for the unit ideal the
    basis is empty and the algebra is zero).  The dual vectors span the
    functionals that vanish on I, so the coordinates of the class of a
    monomial with a column are the values of the dual vectors there, and
    any other monomial has class 0.  A polynomial lies in I exactly when
    its coordinates all vanish.  Each dual vector holds its non-zero
    integer numerators by column, over one positive denominator; a
    column without an entry reads 0.  ``coords`` reads every dual vector
    at once, ``dual_vector`` one of them; the residue functional phi of
    ``smooth.elk_form`` is plus or minus one certified dual vector, and
    the signature it gives does not depend on that choice.  Every column
    has degree at most ``top_degree`` (-1 for the zero algebra), so every
    monomial of higher degree has class 0.
    """

    def __init__(self, ideal, dual):
        self.ideal = ideal
        self.context = ideal.context
        self._columns = dual.columns
        self._column = {m: k for k, m in enumerate(dual.columns)}
        # the columns run from the largest monomial under LOCAL_ORDER
        # down, so the last has the largest degree
        self.top_degree = sum(dual.columns[-1]) if dual.columns else -1
        self.basis = tuple(sorted((dual.columns[f] for f in dual.vectors), key=GLOBAL_ORDER.key))
        self.dimension = len(self.basis)
        self._vectors = [dual.vectors[self._column[m]] for m in self.basis]
        if self.basis and self.basis[0] != (0,) * len(self.context):
            raise InternalCheckError("unit monomial missing from quotient basis")

    def coords(self, poly):
        """Coordinates of the class of poly in the monomial basis."""
        if poly.context != self.context:
            raise RejectedInputError("context mismatch in quotient reduction")
        terms = []
        for m, c in poly.terms.items():
            k = self._column.get(m)
            if k is not None:
                terms.append((k, c))
        scale = lcm(*(c.denominator for _, c in terms))
        terms = [(k, c.numerator * (scale // c.denominator)) for k, c in terms]
        return [
            Fraction(sum(a * nums.get(k, 0) for k, a in terms), scale * den)
            for nums, den in self._vectors
        ]

    def dual_vector(self, k):
        """Dual vector k, the functional p -> coords(p)[k], as (support,
        denominator): support maps each monomial where the vector is not
        0 to its integer numerator, over the positive integer
        denominator; the vector is 0 at every other monomial."""
        nums, den = self._vectors[k]
        columns = self._columns
        return {columns[c]: v for c, v in nums.items()}, den


def quotient_algebra(ideal, degree_cap=DEFAULT_DEGREE_CAP):
    """Quotient algebra with a certified monomial basis and exact
    multiplication.

    The dual basis is that of :func:`colength`: the probe's, or past its
    bound the integration route's, after neither witness held and Mora's
    standard basis found the staircase finite or did not finish.  Its certificate proves the
    dimension and makes every coordinate exact.  NotIsolatedError when
    the colength is infinite; the unit ideal gives the zero algebra.
    """
    dual = _local_dual(ideal, degree_cap)
    if dual is INFINITE:
        raise NotIsolatedError("ideal is not zero-dimensional: singular point not isolated")
    return QuotientAlgebra(ideal, dual)
