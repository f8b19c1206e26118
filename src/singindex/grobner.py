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
factor (Greuel-Pfister, *A Singular Introduction to Commutative Algebra*,
the chapter on Mora's normal form).

Colengths and classes take another route.  :func:`colength` and
:func:`quotient_algebra` hand the ideal to ``singindex.dual``: a modular
rank of Macaulay matrices proposes the colength mu at the first plateau
D0 of the truncated dimensions, and an exact rational dual basis
certifies dim_Q(D0) >= mu >= dim_Q(D0+1), which with monotonicity and
Nakayama makes mu the colength.  The same dual basis gives the
coordinates of every class in the local algebra.  When that probe
certifies nothing (germs that are not isolated, and germs past its size
bound), Mora's standard basis only decides whether the colength is
infinite; every finite colength and every algebra comes from a
certified dual basis, past the probe's bound from the integration route
of ``singindex.dual``.
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
    as_polynomial,
    monomial_degree,
    monomial_divides,
    monomial_lcm,
    monomial_quotient,
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

# work budget of the plain reruns with a doubled degree cap (see
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
        return cls([as_polynomial(t, variables) for t in texts])

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
            raise DegreeCapError("plain completion spent its work budget")


def _normal_form_mora(p, basis, cap, budget=None):
    """Mora's weak normal form with ecart control.

    Returns h with leading monomial not divisible by any basis leading
    term; h is u*p reduced for some unit u of the local ring, so h == 0
    exactly when p lies in the localized ideal.  A work budget is
    charged the terms of h at every step.
    """
    h = p
    pool = [(lt, lc, g, _ecart(g, lt)) for (lt, lc, g) in basis]
    while not h.is_zero:
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


def _completion(generators, degree_cap, budget=None):
    """Mora's pair-completion loop.

    S-pairs are processed by minimal lcm total degree with a
    deterministic tie-break on generator indices so reruns are
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
    algorithm under ``LOCAL_ORDER``.

    When the plain run overshoots its soft degree cap, it is repeated
    with the cap doubled, up to the degree cap, until a run completes or
    the reruns have reduced ``PLAIN_RERUN_WORK`` terms in all: a
    completed run is a standard basis whatever its cap, finite staircase
    or not.  When no run completes, DegreeCapError is raised.
    """
    max_degree = max(g.degree() for g in ideal.generators)
    soft_cap = min(degree_cap, max(12, 2 * max_degree + 4))
    try:
        minimal = _completion(ideal.generators, soft_cap)
    except DegreeCapError:
        minimal = _plain_reruns(ideal.generators, soft_cap, degree_cap)
    minimal = sorted(minimal, key=lambda g: LOCAL_ORDER.key(g.leading_term(LOCAL_ORDER)[0]))
    return StandardBasis(minimal, ideal)


def _plain_reruns(generators, cap, degree_cap):
    """Plain completion with the cap doubled after each failed run, up to
    the degree cap, under one work budget for all runs; DegreeCapError
    when no run completes."""
    budget = _WorkBudget(PLAIN_RERUN_WORK)
    while cap < degree_cap:
        cap = min(2 * cap, degree_cap)
        try:
            return _completion(generators, cap, budget=budget)
        except DegreeCapError:
            if budget.left < 0:
                raise
    raise DegreeCapError(f"plain completion did not finish below the degree cap {degree_cap}")


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


# The benchmark's traced run (perfbench/spans.py) wraps this name, which
# was deepening's staircase count, and adds its time to the staircase
# layer; it stays bound to the staircase until the benchmark drops it.
_staircase_count_below = staircase_monomials


def _local_dual(ideal, degree_cap):
    """The certified dual basis of the ideal (see ``singindex.dual``), or
    INFINITE.  The probe answers first.  When it certifies nothing,
    Mora's standard basis decides only whether the staircase is infinite;
    a finite one, or a completion that does not finish, goes to the
    integration route, which raises DegreeCapError when the local dual
    still grows at the degree cap."""
    dual = dual_basis(ideal.generators, degree_cap)
    if dual is not None:
        return dual
    try:
        if not is_zero_dimensional(standard_basis(ideal, degree_cap=degree_cap)):
            return INFINITE
    except DegreeCapError:
        pass
    return integrated_dual_basis(ideal.generators, degree_cap)


def colength(ideal, degree_cap=DEFAULT_DEGREE_CAP):
    """dim of the local quotient by the ideal, as a rational vector space;
    INFINITE when the ideal is not zero-dimensional.

    ``dual.dual_basis`` answers first: empty when a generator has a
    non-zero constant term, and otherwise the mu vectors, mu proposed by
    a modular rank, of an exact rational dual basis of the Macaulay
    matrix at the first plateau D0.  The certificate proves
    dim_Q(D0) >= mu >= dim_Q(D0+1) for the quotients by I + m^(D+1); they
    never shrink as D grows, so both equal mu, and by Nakayama mu is the
    colength.  When that probe certifies nothing, Mora's standard basis
    alone returns INFINITE, and every finite colength is the size of a
    dual basis that ``dual.integrated_dual_basis`` certifies; it raises
    DegreeCapError when the local dual still grows at the degree cap.
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
    its coordinates all vanish.
    """

    def __init__(self, ideal, dual):
        self.ideal = ideal
        self.context = ideal.context
        self._column = {m: k for k, m in enumerate(dual.columns)}
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
            Fraction(sum(a * nums[k] for k, a in terms), scale * den)
            for nums, den in self._vectors
        ]

    def reduce(self, poly):
        """Canonical representative supported on the basis monomials."""
        cs = self.coords(poly)
        return Polynomial(self.context, dict(zip(self.basis, cs)))

    def functional(self, weights):
        """The functional phi(p) = sum_k weights[k] * coords(p)[k], for
        rational weights, as (scaled, scale): a positive integer scale
        and a function of a monomial m whose value is the integer
        scale * phi(m).  The weights fold once into one integer vector
        over the columns, scale times the sum of weights[k] times dual
        vector k; scaled at a column monomial is one entry of it, and 0
        at any other monomial."""
        terms = [(Fraction(w), nums, den) for w, (nums, den) in zip(weights, self._vectors) if w]
        scale = lcm(*(w.denominator * den for w, _, den in terms))
        folded = [0] * len(self._column)
        for w, nums, den in terms:
            factor = w.numerator * (scale // (w.denominator * den))
            for k, v in enumerate(nums):
                if v:
                    folded[k] += factor * v
        column = self._column

        def scaled(m):
            k = column.get(m)
            return 0 if k is None else folded[k]

        return scaled, scale


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
