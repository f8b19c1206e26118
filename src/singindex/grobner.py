"""Standard bases, colengths and quotient algebras in the local ring at the
origin.

Every index this library computes is an invariant of a germ at an isolated
singular point, so every ideal lives in the ring of germs at the origin.
Standard bases are computed under the negative-degree reverse-lexicographic
order (``LOCAL_ORDER``) with Mora's ecart-controlled weak normal form and
the normal selection strategy (minimal lcm degree first, deterministic
tie-break).
The weak normal form decides membership (it returns zero exactly on
elements of the localized ideal) but only determines classes up to a unit
factor.  Exact class representatives come from the strong normal form
taken modulo ``I + m^(T+1)``, T the top staircase degree: the local order
refines the degree filtration, so ``m^(T+1)`` is contained in the
localized ideal, the truncation is faithful, and the reduction lands on
the staircase monomials (Greuel-Pfister, *A Singular Introduction to
Commutative Algebra*, the chapters on Mora's normal form and the
Hilbert-Samuel function).

Colengths take another route first.  :func:`colength` hands the ideal to
``singindex.dual``: a modular rank of Macaulay matrices proposes the
colength mu at the first plateau D0 of the truncated dimensions, and an
exact rational dual basis certifies dim_Q(D0) >= mu >= dim_Q(D0+1), which
with monotonicity and Nakayama makes mu the colength.  Mora's standard
basis is only the fallback, for ideals that route cannot certify:
germs that are not isolated, and germs past its size bound.
"""

from __future__ import annotations

from fractions import Fraction

from .dual import dual_colength
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
    monomial_mul,
    monomial_quotient,
    monomials_up_to_degree,
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

    def __bool__(self):
        return True


INFINITE = _Infinite()

# work budget of colength's plain reruns with a doubled degree cap (see
# standard_basis), in terms of the polynomials under weak normal form
# reduction, summed over the reduction steps of all reruns; CPython 3.11
# on one x86-64 core reduces about 100000 terms a second
PLAIN_RERUN_WORK = 20_000


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


def _truncate(poly, bound):
    """Drop all terms of total degree above the bound (reduction modulo
    the corresponding power of the maximal ideal)."""
    if poly.degree() <= bound:
        return poly
    return Polynomial(
        poly.context,
        {m: c for m, c in poly.terms.items() if monomial_degree(m) <= bound},
    )


def _strong_normal_form(p, basis, truncation):
    """Strong normal form modulo the power of the maximal ideal above the
    truncation bound: no monomial of the result is divisible by a basis
    leading term.

    Terms of total degree above the bound are dropped after every step.
    The local order refines the degree, so each step lowers the leading
    monomial within the finite set of monomials of degree at most the
    bound, and the reduction terminates.
    """
    ctx = p.context
    remainder = {}
    work = _truncate(p, truncation)
    while not work.is_zero:
        m, c = work.leading_term(LOCAL_ORDER)
        hit = next((b for b in basis if monomial_divides(b[0], m)), None)
        if hit is None:
            remainder[m] = c
            work = work - Polynomial(ctx, {m: c})
        else:
            lt, lc, g = hit
            work = _truncate(work - g.term_mul(monomial_quotient(m, lt), c / lc), truncation)
    return Polynomial(ctx, remainder)


class _WorkBudget:
    """Terms a run of weak normal forms may still reduce; spending past
    zero raises DegreeCapError."""

    def __init__(self, terms):
        self.left = terms

    def spend(self, terms):
        self.left -= terms
        if self.left < 0:
            raise DegreeCapError("plain completion spent its work budget")


def _normal_form_mora(p, basis, cap, truncation=None, budget=None):
    """Mora's weak normal form with ecart control.

    Returns h with leading monomial not divisible by any basis leading
    term; h is u*p reduced for some unit u of the local ring, so h == 0
    exactly when p lies in the localized ideal.  With a truncation bound,
    arithmetic happens modulo the corresponding power of the maximal
    ideal, which bounds every intermediate degree.  A work budget is
    charged the terms of h at every step.
    """
    h = p if truncation is None else _truncate(p, truncation)
    pool = [(lt, lc, g, _ecart(g, lt)) for (lt, lc, g) in basis]
    while not h.is_zero:
        if truncation is None:
            _check_cap(h, cap)
        if budget is not None:
            budget.spend(len(h.terms))
        lm, lc = h.leading_term(LOCAL_ORDER)
        divisors = [entry for entry in pool if monomial_divides(entry[0], lm)]
        if not divisors:
            return h
        best = min(divisors, key=lambda e: e[3])
        h_ecart = _ecart(h, lm)
        if best[3] > h_ecart:
            pool.append((lm, lc, h, h_ecart))
        h = h - best[2].term_mul(monomial_quotient(lm, best[0]), lc / best[1])
        if truncation is not None:
            h = _truncate(h, truncation)
    return h


# ---------------------------------------------------------------------------
# basis completion


def _spoly(f_lt, f, g_lt, g):
    lcm = monomial_lcm(f_lt, g_lt)
    a = f.term_mul(monomial_quotient(lcm, f_lt), Fraction(1))
    b = g.term_mul(monomial_quotient(lcm, g_lt), Fraction(1))
    return a - b


class StandardBasis:
    """Computed minimal standard basis under ``LOCAL_ORDER``; leading
    coefficients are normalized to 1."""

    __slots__ = ("elements", "ideal", "_lead")

    def __init__(self, elements, ideal):
        object.__setattr__(self, "elements", tuple(elements))
        object.__setattr__(self, "ideal", ideal)
        object.__setattr__(
            self,
            "_lead",
            tuple(g.leading_term(LOCAL_ORDER) + (g,) for g in elements),
        )

    def __setattr__(self, *a):
        raise AttributeError("StandardBasis is immutable")

    def leading_monomials(self):
        return [lt for lt, _, _ in self._lead]

    def normal_form(self, p, degree_cap=DEFAULT_DEGREE_CAP):
        """Mora's weak normal form: zero exactly when p is a member of the
        localized ideal."""
        if p.context != self.ideal.context:
            raise RejectedInputError("context mismatch in normal form")
        return _normal_form_mora(p, self._lead, degree_cap)

    def contains(self, p, degree_cap=DEFAULT_DEGREE_CAP):
        return self.normal_form(p, degree_cap).is_zero


def _completion(generators, degree_cap, truncation=None, budget=None):
    """Mora's pair-completion loop.

    S-pairs are processed by minimal lcm total degree with a
    deterministic tie-break on generator indices so reruns are
    byte-for-byte reproducible.  Returns the minimalized monic basis.
    """
    basis = []
    for g in generators:
        if truncation is not None:
            g = _truncate(g, truncation)
        if g.is_zero:
            continue
        g = g.monic(LOCAL_ORDER)
        if g not in basis:
            basis.append(g)
    lead = [(g.leading_term(LOCAL_ORDER)[0], Fraction(1), g) for g in basis]

    pairs = {(i, j) for i in range(len(basis)) for j in range(i)}

    def pair_key(pair):
        i, j = pair
        lcm = monomial_lcm(lead[i][0], lead[j][0])
        return (monomial_degree(lcm), j, i)

    while pairs:
        i, j = min(pairs, key=pair_key)
        pairs.discard((i, j))
        s = _spoly(lead[i][0], basis[i], lead[j][0], basis[j])
        h = _normal_form_mora(s, lead, degree_cap, truncation, budget)
        if h.is_zero:
            continue
        h = h.monic(LOCAL_ORDER)
        basis.append(h)
        lead.append((h.leading_term(LOCAL_ORDER)[0], Fraction(1), h))
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


def _staircase_count_below(lead_monomials, nvars, bound):
    """Number of monomials of degree <= bound outside the given leading
    terms; equals dim of the quotient by (ideal + m^(bound+1))."""
    count = 0
    for mono in monomials_up_to_degree(nvars, bound + 1):
        if not any(monomial_divides(lt, mono) for lt in lead_monomials):
            count += 1
    return count


def _deepened_local_basis(ideal, degree_cap):
    """Local standard basis via Mora completion truncated modulo rising
    powers of the maximal ideal.

    Truncation at bound B computes a standard basis of I + m^(B+1); the
    staircase count below B is the dimension of that quotient.  Two
    consecutive equal counts force (Nakayama) m^B into the localized
    ideal, so the truncated basis, extended by the degree-B boundary
    monomials outside its leading terms, is a genuine standard basis of
    the germ ideal.  No stabilization below the degree cap means the run
    is abandoned; this path never guesses INFINITE.
    """
    ctx = ideal.context
    nvars = len(ctx)
    previous = None
    for bound in range(1, degree_cap + 1):
        elements = _completion(ideal.generators, degree_cap, truncation=bound)
        if not elements:
            previous = None
            continue
        if any(e.min_degree() == 0 for e in elements):
            # a unit appeared: the ideal is the whole local ring
            return elements
        lead = [e.leading_term(LOCAL_ORDER)[0] for e in elements]
        count = _staircase_count_below(lead, nvars, bound)
        if previous is not None and count == previous:
            boundary = [
                Polynomial(ctx, {mono: Fraction(1)})
                for mono in _monomials_of_exact_degree(nvars, bound)
                if not any(monomial_divides(lt, mono) for lt in lead)
            ]
            return elements + boundary
        previous = count
    raise DegreeCapError(
        f"local basis did not stabilize below the degree cap {degree_cap}"
    )


def _monomials_of_exact_degree(nvars, degree):
    return [
        m for m in monomials_up_to_degree(nvars, degree + 1) if monomial_degree(m) == degree
    ]


def standard_basis(ideal, degree_cap=DEFAULT_DEGREE_CAP, rerun_work=0):
    """Compute a minimal standard basis of the germ ideal by Mora's
    algorithm under ``LOCAL_ORDER``.

    When the plain run overshoots its degree budget, the computation
    restarts truncated modulo powers of the maximal ideal with iterative
    deepening, which returns exactly the same leading-term data for the
    germ whenever it stabilizes (and aborts with DEGREE_CAP otherwise).
    Deepening never finds an infinite staircase.  With a positive
    `rerun_work`, the plain run is first repeated with its cap doubled,
    up to the degree cap, until a run completes or the reruns have
    reduced that many terms in all (see ``PLAIN_RERUN_WORK``): a completed
    run is a standard basis whatever its cap, finite staircase or not.
    """
    max_degree = max(g.degree() for g in ideal.generators)
    soft_cap = min(degree_cap, max(12, 2 * max_degree + 4))
    try:
        minimal = _completion(ideal.generators, soft_cap)
    except DegreeCapError:
        minimal = _plain_reruns(ideal.generators, soft_cap, degree_cap, rerun_work)
        if minimal is None:
            minimal = _deepened_local_basis(ideal, degree_cap)
    minimal = sorted(minimal, key=lambda g: LOCAL_ORDER.key(g.leading_term(LOCAL_ORDER)[0]))
    return StandardBasis(minimal, ideal)


def _plain_reruns(generators, cap, degree_cap, work):
    """Plain completion with the cap doubled after each failed run, up to
    the degree cap, under one work budget for all runs; None when no run
    completes."""
    budget = _WorkBudget(work)
    while 0 < work and cap < degree_cap:
        cap = min(2 * cap, degree_cap)
        try:
            return _completion(generators, cap, budget=budget)
        except DegreeCapError:
            if budget.left < 0:
                return None
    return None


# ---------------------------------------------------------------------------
# staircases and colength


def is_zero_dimensional(sb):
    """True when the leading terms contain a pure power of every variable,
    i.e. the staircase is finite."""
    n = len(sb.ideal.context)
    return all(_pure_power_bound(sb, i) is not None for i in range(n))


def _pure_power_bound(sb, var):
    best = None
    for lt in sb.leading_monomials():
        if all(e == 0 for k, e in enumerate(lt) if k != var):
            if best is None or lt[var] < best:
                best = lt[var]
    return best


def staircase_monomials(sb):
    """Monomials outside the leading-term ideal, or INFINITE."""
    n = len(sb.ideal.context)
    bounds = [_pure_power_bound(sb, i) for i in range(n)]
    if any(b is None for b in bounds):
        return INFINITE
    lead = sb.leading_monomials()
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


def colength(ideal, degree_cap=DEFAULT_DEGREE_CAP):
    """dim of the local quotient by the ideal, as a rational vector space;
    INFINITE when the ideal is not zero-dimensional.

    ``dual.dual_colength`` answers first: 0 when a generator has a
    non-zero constant term, and otherwise the colength mu proposed by a
    modular rank and certified by an exact rational dual basis of the
    Macaulay matrix at the first plateau D0.  The certificate proves
    dim_Q(D0) >= mu >= dim_Q(D0+1) for the quotients by I + m^(D+1); they
    never shrink as D grows, so both equal mu, and by Nakayama mu is the
    colength.  Only when that route certifies nothing does Mora's
    standard basis count the staircase, with plain reruns at doubled caps
    before deepening (``PLAIN_RERUN_WORK``).  That fallback alone returns
    INFINITE, and raises DegreeCapError when it completes nothing below
    the degree cap.
    """
    value = dual_colength(ideal.generators, degree_cap)
    if value is not None:
        return value
    sb = standard_basis(ideal, degree_cap=degree_cap, rerun_work=PLAIN_RERUN_WORK)
    stairs = staircase_monomials(sb)
    if stairs is INFINITE:
        return INFINITE
    return len(stairs)


def localized_colength(ideal, point, degree_cap=DEFAULT_DEGREE_CAP):
    """Colength of the ideal in the local ring at `point`."""
    moved = Ideal([g.translate(point) for g in ideal.generators])
    return colength(moved, degree_cap)


# ---------------------------------------------------------------------------
# quotient algebras


class QuotientAlgebra:
    """Finite dimensional algebra O/I with a monomial basis.

    basis monomials are the standard monomials of the computed standard
    basis, sorted ascending; the class of 1 is the unit (for the unit
    ideal the basis is empty and the algebra is zero).  Classes are read
    off the strong normal form modulo ``m^(truncation+1)``.
    Multiplication is looked up from a table of reduced basis products,
    so it is exact, commutative, and associative by construction of the
    reduction.
    """

    def __init__(self, sb, basis, truncation):
        self.ideal = sb.ideal
        self.standard_basis = sb
        self.context = sb.ideal.context
        self.basis = tuple(basis)
        self.dimension = len(basis)
        self.truncation = truncation
        self._index = {m: i for i, m in enumerate(self.basis)}
        self._table = {}
        if self.basis and (0,) * len(self.context) not in self._index:
            raise InternalCheckError("unit monomial missing from quotient basis")

    def _normal_form(self, poly):
        """Strong normal form of poly, supported on the basis monomials."""
        return _strong_normal_form(poly, self.standard_basis._lead, self.truncation)

    def coords(self, poly):
        """Coordinates of the class of poly in the monomial basis."""
        if poly.context != self.context:
            raise RejectedInputError("context mismatch in quotient reduction")
        terms = self._normal_form(poly).terms
        return [terms.get(m, Fraction(0)) for m in self.basis]

    def reduce(self, poly):
        """Canonical representative supported on the basis monomials."""
        cs = self.coords(poly)
        return Polynomial(self.context, dict(zip(self.basis, cs)))

    def basis_product_coords(self, i, j):
        if i > j:
            i, j = j, i
        key = (i, j)
        if key not in self._table:
            prod = Polynomial(self.context, {monomial_mul(self.basis[i], self.basis[j]): Fraction(1)})
            self._table[key] = tuple(self.coords(prod))
        return self._table[key]

    def multiply_coords(self, u, v):
        """Product of two classes given by coordinate vectors."""
        out = [Fraction(0)] * self.dimension
        for i, a in enumerate(u):
            if a == 0:
                continue
            for j, b in enumerate(v):
                if b == 0:
                    continue
                for k, c in enumerate(self.basis_product_coords(i, j)):
                    if c != 0:
                        out[k] += a * b * c
        return out


def _certify_truncated_basis(algebra):
    """Buchberger's criterion modulo ``m^(T+1)``, T the truncation bound.

    Every ideal generator and every S-polynomial of the basis must have
    truncated strong normal form zero.  Then I + m^(T+1) lies in the
    ideal generated by the basis and m^(T+1), and the staircase below T+1
    is a vector space basis of the quotient by the latter: a basis
    element missing from the computation is caught.  A basis element
    outside I would pass unnoticed; it only shrinks the staircase.
    """
    lead = algebra.standard_basis._lead
    checks = list(algebra.ideal.generators)
    for i in range(len(lead)):
        for j in range(i):
            checks.append(_spoly(lead[i][0], lead[i][2], lead[j][0], lead[j][2]))
    for p in checks:
        if not algebra._normal_form(p).is_zero:
            raise InternalCheckError(
                "standard basis fails Buchberger's criterion modulo "
                f"m^{algebra.truncation + 1}"
            )


def quotient_algebra(ideal, degree_cap=DEFAULT_DEGREE_CAP):
    """Quotient algebra with basis and exact multiplication.

    Raises NotIsolatedError when the colength is infinite; the unit ideal
    gives the zero algebra.  Classes are computed modulo ``I + m^(T+1)``
    with T the top staircase degree: every monomial of degree T+1 is a
    leading monomial, so m^(T+1) lies in the localized ideal and the
    truncation is exact.  The algebra certifies itself by Buchberger's
    criterion modulo m^(T+1).
    """
    sb = standard_basis(ideal, degree_cap=degree_cap)
    basis = staircase_monomials(sb)
    if basis is INFINITE:
        raise NotIsolatedError(
            "ideal is not zero-dimensional: singular point not isolated"
        )
    truncation = max((monomial_degree(m) for m in basis), default=0)
    algebra = QuotientAlgebra(sb, basis, truncation)
    _certify_truncated_basis(algebra)
    return algebra
