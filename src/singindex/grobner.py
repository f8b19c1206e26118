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

Colengths and classes take another route first.  :func:`colength` and
:func:`quotient_algebra` hand the ideal to ``singindex.dual``: a modular
rank of Macaulay matrices proposes the colength mu at the first plateau
D0 of the truncated dimensions, and an exact rational dual basis
certifies dim_Q(D0) >= mu >= dim_Q(D0+1), which with monotonicity and
Nakayama makes mu the colength.  The same dual basis gives the
coordinates of every class in the local algebra.  Mora's standard basis
is only the fallback, for ideals the probe cannot certify: germs that
are not isolated, and germs past its size bound.  There the classes
come from a sparse Macaulay matrix of standard basis multiples, as
many rows as the border of the staircase needs.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .dual import DualBasis, certified_dual_basis, dual_basis
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
    monomial_mul,
    monomial_quotient,
    monomials_up_to_degree,
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


def _truncate(poly, bound):
    """Drop all terms of total degree above the bound (reduction modulo
    the corresponding power of the maximal ideal)."""
    if poly.degree() <= bound:
        return poly
    return Polynomial(
        poly.context,
        {m: c for m, c in poly.terms.items() if monomial_degree(m) <= bound},
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
        h = h - best[2].term_mul(monomial_quotient(lm, best[0]), Fraction(lc, best[1]))
        if truncation is not None:
            h = _truncate(h, truncation)
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
        h = _normal_form_mora(s, lead, degree_cap, truncation, budget)
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
                Polynomial(ctx, {mono: 1})
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


def standard_basis(ideal, degree_cap=DEFAULT_DEGREE_CAP):
    """Compute a minimal standard basis of the germ ideal by Mora's
    algorithm under ``LOCAL_ORDER``.

    When the plain run overshoots its soft degree cap, it is repeated
    with the cap doubled, up to the degree cap, until a run completes or
    the reruns have reduced ``PLAIN_RERUN_WORK`` terms in all: a
    completed run is a standard basis whatever its cap, finite staircase
    or not.  Past that, the computation restarts truncated modulo powers
    of the maximal ideal with iterative deepening, which returns exactly
    the same leading-term data for the germ whenever it stabilizes (and
    aborts with DEGREE_CAP otherwise).  Deepening never finds an infinite
    staircase.
    """
    max_degree = max(g.degree() for g in ideal.generators)
    soft_cap = min(degree_cap, max(12, 2 * max_degree + 4))
    try:
        minimal = _completion(ideal.generators, soft_cap)
    except DegreeCapError:
        minimal = _plain_reruns(ideal.generators, soft_cap, degree_cap)
        if minimal is None:
            minimal = _deepened_local_basis(ideal, degree_cap)
    minimal = sorted(minimal, key=lambda g: LOCAL_ORDER.key(g.leading_term(LOCAL_ORDER)[0]))
    return StandardBasis(minimal, ideal)


def _plain_reruns(generators, cap, degree_cap):
    """Plain completion with the cap doubled after each failed run, up to
    the degree cap, under one work budget for all runs; None when no run
    completes."""
    budget = _WorkBudget(PLAIN_RERUN_WORK)
    while cap < degree_cap:
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

    ``dual.dual_basis`` answers first: empty when a generator has a
    non-zero constant term, and otherwise the mu vectors, mu proposed by
    a modular rank, of an exact rational dual basis of the Macaulay
    matrix at the first plateau D0.  The certificate proves
    dim_Q(D0) >= mu >= dim_Q(D0+1) for the quotients by I + m^(D+1); they
    never shrink as D grows, so both equal mu, and by Nakayama mu is the
    colength.  Only when that route certifies nothing does Mora's
    standard basis count the staircase.  That fallback alone returns
    INFINITE, and raises DegreeCapError when it completes nothing below
    the degree cap.
    """
    dual = dual_basis(ideal.generators, degree_cap)
    if dual is not None:
        return len(dual.vectors)
    sb = standard_basis(ideal, degree_cap=degree_cap)
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
    """Finite dimensional local algebra O/I with a certified monomial
    basis, built on a certified dual basis (see ``singindex.dual``).

    The basis monomials are the free columns of the dual basis, sorted
    ascending, and the class of 1 is the unit (for the unit ideal the
    basis is empty and the algebra is zero).  The coordinates of the
    class of a column monomial are the values of the dual vectors there.
    Every monomial above the top column degree D0 lies in I.  A monomial
    of degree at most D0 without a column is x_i*u, and its class is the
    sum over the basis monomials b of class(u)_b * class(x_i*b).  The
    columns of the Macaulay probe are all the monomials of degree at most
    D0; those of the Mora fallback (see :func:`quotient_algebra`) are the
    basis and its border, which holds every x_i*b of degree at most D0.
    A polynomial lies in I exactly when its coordinates all vanish.
    """

    def __init__(self, ideal, dual):
        self.ideal = ideal
        self.context = ideal.context
        self._column = {m: k for k, m in enumerate(dual.columns)}
        self._top = max(map(monomial_degree, dual.columns), default=-1)
        n = len(self.context)
        self._variables = [tuple(int(k == i) for k in range(n)) for i in range(n)]
        self.basis = tuple(sorted((dual.columns[f] for f in dual.vectors), key=GLOBAL_ORDER.key))
        self.dimension = len(self.basis)
        self._vectors = [dual.vectors[self._column[m]] for m in self.basis]
        self._products = {}
        if self.basis and self.basis[0] != (0,) * len(self.context):
            raise InternalCheckError("unit monomial missing from quotient basis")

    def coords(self, poly):
        """Coordinates of the class of poly in the monomial basis."""
        if poly.context != self.context:
            raise RejectedInputError("context mismatch in quotient reduction")
        terms, products = [], []
        for m, c in poly.terms.items():
            k = self._column.get(m)
            if k is not None:
                terms.append((k, c))
            elif monomial_degree(m) <= self._top:
                products.append((m, c))
        scale = lcm(*(c.denominator for _, c in terms))
        terms = [(k, c.numerator * (scale // c.denominator)) for k, c in terms]
        out = [
            Fraction(sum(a * nums[k] for k, a in terms), scale * den)
            for nums, den in self._vectors
        ]
        for m, c in products:
            for k, v in enumerate(self._monomial_coords(m)):
                out[k] += c * v
        return out

    def reduce(self, poly):
        """Canonical representative supported on the basis monomials."""
        cs = self.coords(poly)
        return Polynomial(self.context, dict(zip(self.basis, cs)))

    def _monomial_coords(self, m):
        k = self._column.get(m)
        if k is not None:
            return tuple(Fraction(nums[k], den) for nums, den in self._vectors)
        if monomial_degree(m) > self._top:
            return (Fraction(0),) * self.dimension
        out = self._products.get(m)
        if out is None:
            x = self._variables[next(i for i, e in enumerate(m) if e)]
            out = [Fraction(0)] * self.dimension
            for a, b in zip(self._monomial_coords(monomial_quotient(m, x)), self.basis):
                if a:
                    for k, v in enumerate(self._monomial_coords(monomial_mul(x, b))):
                        out[k] += a * v
            out = self._products[m] = tuple(out)
        return out

    def functional(self, weights):
        """The functional phi(p) = sum_k weights[k] * coords(p)[k], for
        rational weights, as (scaled, scale): a positive integer scale
        and a memoized function of a monomial m whose value is
        scale * phi(m).  The weights fold once into one integer vector
        over the columns, scale times the sum of weights[k] times dual
        vector k; scaled at a column monomial is one entry of it, an
        int, and 0 above the top column degree.  Only a monomial of
        degree at most the top without a column (one of the Mora
        fallback's) goes through its coordinates; its value is exact but
        need not be an integer."""
        terms = [(Fraction(w), nums, den) for w, (nums, den) in zip(weights, self._vectors) if w]
        scale = lcm(*(w.denominator * den for w, _, den in terms))
        folded = [0] * len(self._column)
        for w, nums, den in terms:
            factor = w.numerator * (scale // (w.denominator * den))
            for k, v in enumerate(nums):
                if v:
                    folded[k] += factor * v
        values = {}

        def scaled(m):
            value = values.get(m)
            if value is None:
                k = self._column.get(m)
                if k is not None:
                    value = folded[k]
                elif monomial_degree(m) > self._top:
                    value = 0
                else:
                    coords = self._monomial_coords(m)
                    value = scale * sum((w * c for w, c in zip(weights, coords) if w), Fraction(0))
                values[m] = value
            return value

        return scaled, scale

    def _certify_multiplication(self):
        """Check exactly that the classes come from a quotient of O/I:
        multiplication by a variable raises the degree of every basis
        monomial (so it is nilpotent), multiplications by two variables
        commute, and every generator of I has class 0.  Then taking
        coordinates is a map of O-modules from O/I onto Q^dimension, which
        sends the basis monomials to the unit vectors.  Images are kept
        sparse, {coordinate: non-zero value}."""
        times = [
            [
                {t: v for t, v in enumerate(self._monomial_coords(monomial_mul(x, b))) if v}
                for b in self.basis
            ]
            for x in self._variables
        ]
        degree = [monomial_degree(b) for b in self.basis]
        if any(
            degree[t] <= degree[s]
            for column in times
            for s, image in enumerate(column)
            for t in image
        ):
            raise InternalCheckError("multiplication by a variable keeps a degree")

        def apply(column, vec):
            out = {}
            for s, a in vec.items():
                for t, v in column[s].items():
                    out[t] = out.get(t, 0) + a * v
            return {t: v for t, v in out.items() if v}

        if any(
            apply(ti, tj[s]) != apply(tj, ti[s])
            for i, ti in enumerate(times)
            for tj in times[:i]
            for s in range(self.dimension)
        ):
            raise InternalCheckError("multiplications by two variables do not commute")
        if any(any(self.coords(g)) for g in self.ideal.generators):
            raise InternalCheckError("a generator of the ideal has a non-zero class")


def quotient_algebra(ideal, degree_cap=DEFAULT_DEGREE_CAP):
    """Quotient algebra with a certified monomial basis and exact
    multiplication.

    The dual probe goes first, as in :func:`colength`; its certificate
    proves the dimension and makes every coordinate exact.  When it
    certifies nothing, Mora's standard basis decides: NotIsolatedError
    when the colength is infinite.  Otherwise its staircase S is the
    basis, m^(T+1) lies in I for the top staircase degree T, and
    :func:`_border_dual_basis` gives the classes of S and of its border.
    The dimension is then Mora's, as in :func:`colength`, and the classes
    are certified to be those of a quotient of O/I of that dimension.
    The unit ideal gives the zero algebra.
    """
    dual = dual_basis(ideal.generators, degree_cap)
    if dual is not None:
        return QuotientAlgebra(ideal, dual)
    sb = standard_basis(ideal, degree_cap=degree_cap)
    stairs = staircase_monomials(sb)
    if stairs is INFINITE:
        raise NotIsolatedError("ideal is not zero-dimensional: singular point not isolated")
    algebra = QuotientAlgebra(ideal, _border_dual_basis(sb, stairs))
    algebra._certify_multiplication()
    return algebra


def _border_dual_basis(sb, stairs):
    """Certified dual basis of the staircase and its border, of degree at
    most the top staircase degree T.

    The border monomials seed a sparse Macaulay matrix: every monomial u
    of degree at most T outside the staircase that it reaches gets one
    row, the multiple of a standard basis element (the shortest one) with
    leading monomial u, truncated above T, whose other monomials it
    reaches in turn.  Under ``LOCAL_ORDER`` from the largest down the
    pivot of each row is its first column, and the staircase monomials
    are the free columns.  The cost follows the rows that the border
    needs, not the number of monomials of degree at most T."""
    top = max(map(monomial_degree, stairs))
    n = len(sb.ideal.context)
    wanted = set(stairs) | {
        monomial_mul(s, tuple(int(k == i) for k in range(n))) for s in stairs for i in range(n)
    }
    lead = sorted(zip(sb.leading_monomials(), sb.elements), key=lambda e: len(e[1].terms))
    reached = set(stairs)
    rows = []
    todo = list(wanted)
    while todo:
        u = todo.pop()
        if u in reached or monomial_degree(u) > top:
            continue
        reached.add(u)
        lt, g = next(e for e in lead if monomial_divides(e[0], u))
        row = _truncate(g.term_mul(monomial_quotient(u, lt), 1), top)
        rows.append(row)
        todo.extend(row.terms)
    columns = LOCAL_ORDER.sorted_descending(reached)
    index = {m: k for k, m in enumerate(columns)}
    matrix = []
    for row in rows:
        scale = lcm(*(c.denominator for c in row.terms.values()))
        matrix.append({index[m]: int(c * scale) for m, c in row.terms.items()})
    dual = certified_dual_basis(matrix, columns)
    if dual is None:
        raise InternalCheckError("no dual basis certifies the standard basis staircase")
    keep = [k for k, m in enumerate(columns) if m in wanted]
    position = {k: i for i, k in enumerate(keep)}
    vectors = {
        position[f]: ([nums[k] for k in keep], den) for f, (nums, den) in dual.vectors.items()
    }
    return DualBasis([columns[k] for k in keep], vectors)
