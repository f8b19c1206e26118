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
coordinates of every class in the local algebra.  When that probe
certifies nothing (germs that are not isolated, and germs past its size
bound), Mora's standard basis only decides whether the colength is
infinite, in one completion bounded by the degree cap and by
``MORA_WORK`` reduced terms; every finite colength and every algebra
comes from a certified dual basis, past the probe's bound from the
integration route of ``singindex.dual``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .dual import dual_basis, integrated_dual_basis
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
    """Terms a run of weak normal forms may still reduce; spending past
    zero raises DegreeCapError."""

    def __init__(self, terms):
        self.left = terms

    def spend(self, terms):
        self.left -= terms
        if self.left < 0:
            raise DegreeCapError("Mora's completion spent its work budget")


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


def _local_dual(ideal, degree_cap):
    """The certified dual basis of the ideal (see ``singindex.dual``), or
    INFINITE.  Fewer generators than variables, none of them a unit, give
    INFINITE at once: by Krull's height theorem the germ of their zero
    set has positive dimension.  Otherwise the probe answers first.  When
    it certifies nothing, Mora's standard basis decides only whether the
    staircase is infinite; a finite one, or a completion that does not
    finish, goes to the integration route, which raises DegreeCapError
    when the local dual still grows at the degree cap."""
    gens = ideal.generators
    if len(gens) < len(ideal.context) and not any(g.constant_term() for g in gens):
        return INFINITE
    dual = dual_basis(gens, degree_cap)
    if dual is not None:
        return dual
    try:
        if not is_zero_dimensional(standard_basis(ideal, degree_cap=degree_cap)):
            return INFINITE
    except DegreeCapError:
        pass
    return integrated_dual_basis(gens, degree_cap)


def colength(ideal, degree_cap=DEFAULT_DEGREE_CAP):
    """dim of the local quotient by the ideal, as a rational vector space;
    INFINITE when the ideal is not zero-dimensional.

    Fewer generators than variables, none of them a unit, give INFINITE
    by Krull's height theorem.  Otherwise ``dual.dual_basis`` answers
    first: empty when a generator has a non-zero constant term, and
    otherwise the mu vectors, mu proposed by a modular rank, of an exact
    rational dual basis of the Macaulay matrix at the first plateau D0.
    The certificate proves dim_Q(D0) >= mu >= dim_Q(D0+1) for the
    quotients by I + m^(D+1); they never shrink as D grows, so both equal
    mu, and by Nakayama mu is the colength.  When that probe certifies
    nothing, Mora's standard basis alone returns INFINITE, and every
    finite colength is the size of a dual basis that
    ``dual.integrated_dual_basis`` certifies; it raises DegreeCapError
    when the local dual still grows at the degree cap.
    """
    dual = _local_dual(ideal, degree_cap)
    return INFINITE if dual is INFINITE else len(dual.vectors)


def localized_colength(ideal, point, degree_cap=DEFAULT_DEGREE_CAP):
    """Colength of the ideal in the local ring at `point`."""
    moved = Ideal([g.translate(point) for g in ideal.generators])
    return colength(moved, degree_cap)


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
    bound the integration route's, after Mora's standard basis has found
    the staircase finite or not finished.  Its certificate proves the
    dimension and makes every coordinate exact.  NotIsolatedError when
    the colength is infinite; the unit ideal gives the zero algebra.
    """
    dual = _local_dual(ideal, degree_cap)
    if dual is INFINITE:
        raise NotIsolatedError("ideal is not zero-dimensional: singular point not isolated")
    return QuotientAlgebra(ideal, dual)
