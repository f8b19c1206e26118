"""The local algebra by the Macaulay inverse system: a modular rank
proposes the colength, an exact rational dual basis certifies it and
gives the coordinates of every class.

For a bound D let M_D be the Macaulay matrix of the ideal: its columns
are the N_D monomials of degree at most D, sorted by ``LOCAL_ORDER``
from the largest down (so by ascending degree), and its rows are the
products m*g truncated above degree D, for every generator g and every
monomial m.  Its null vectors are the functionals on polynomials of
degree at most D that vanish on I + m^(D+1), so

    dim(D) = dim R/(I + m^(D+1)) = N_D - rank M_D,

a non-decreasing sequence.  Once dim(D0) = dim(D0+1), Nakayama puts
m^(D0+1) inside the localized ideal and dim(D0) is the colength
(Marinari-Moeller-Mora, ISSAC 1995; Mourrain, JPAA 117-118, 1997).

* **Probe.**  ``grobner._local_dual`` answers the unit ideal itself and
  hands the probe only non-unit generators.  They are scaled to integer
  coefficients and M_B is brought to echelon form modulo the first of
  ``PRIMES``, each pivot at the first column of its row, for B = B1,
  B1 + 2, B1 + 4, ... up to the degree cap and ``MAX_COLUMNS``.  M_D is
  M_B with the columns above degree D dropped, so its rank mod p is the
  number of pivots of degree at most D: one echelon form gives dim_p(D)
  for every D <= B, and the certificate cuts the rows of M_D0 out of M_B
  (a row whose multiplier lies above degree D0 is left empty and dropped).
  With n generators in n variables of orders d_1, ..., d_n, B1 = 1 + s
  for s = (d_1 - 1) + ... + (d_n - 1): for a finite map germ the
  Jacobian determinant J spans the socle of O/I (Scheja-Storch, 1975;
  Eisenbud-Levine, Ann. Math. 106, 1977), so J is not in I, and J lies
  in m^s, so D0 >= s.  Any other number of
  generators starts at B1 = 2.  B1 only decides the work spent before
  the first plateau, not the plateau found: had a germ D0 < s, the scan
  of every D < B would still find it.  B grows by 2, not by doubling,
  because the last elimination dominates and a doubled B can have
  several times the columns that the plateau needs.  The column layout
  of M_B (the monomials, their keys and the column count per degree)
  depends only on the number of variables and B: it is built once per
  pair per process.  Elimination walks the non-zero entries of each
  row, smallest column first, so its cost follows the row's support,
  not the matrix's width.
* **Certificate.**  At the first plateau dim_p(D0) = dim_p(D0+1) = mu,
  the mu null vectors of M_D0 mod p that are the identity on the free
  (non-pivot) columns are lifted to the rationals by rational
  reconstruction modulo p alone (Wang, SYMSAC 1981).  The primes are
  the four Mersenne primes of ``PRIMES``, 2^61 - 1 to 2^11213 - 1,
  tried in turn: the first reuses the probe's echelon form, each later
  one echelons M_D0 afresh, and a wider prime reconstructs larger
  entries.  :func:`certify_dual_basis` checks exactly that they are the
  identity on the free columns and that each has integer dot product 0
  with every row of M_D0.  That proves dim_Q(D0) >= mu.  The rank of an
  integer matrix modulo a prime never exceeds its rational rank, so
  dim_Q(D0+1) <= dim_p(D0+1) = mu, and by monotonicity
  dim_Q(D0) = dim_Q(D0+1) = mu: the colength is mu.
  Each pivot row's tail lies above its pivot, so the null vector of a
  free column f is 0 at every column above f, and most of its entries
  below f are 0 too.  The vectors are kept as their non-zero entries
  only, from the back-substitution through the lift to the check: each
  step walks what the vectors hold, not mu times the width of M_D0, and
  the check still reads every row.
* **Classes.**  The certified vectors then span the functionals on the
  polynomials of degree at most D0 that vanish on I, and m^(D0+1) lies
  in I: a polynomial is in I exactly when all of them vanish on its
  terms, and its class is the combination of the free monomials with
  those values as coefficients.  A monomial without a column, or one
  where every vector is 0, has class 0.  The free columns of the
  vectors reduced over the columns in ascending ``LOCAL_ORDER`` are
  the pivots of that reduction, so for all but finitely many primes
  they are the staircase of Mora's standard basis of I.  The
  certificate proves that they are a basis of the local algebra, not
  that they are that staircase.

* **Integration.**  Past ``MAX_COLUMNS`` the probe stops, and
  :func:`integrated_dual_basis` builds the local dual I^perp order by
  order (Mourrain, JPAA 117-118, 1997; Mantzaflaris-Mourrain,
  ISSAC 2011).  A functional L is fixed by L(1) and its shifts
  L|x_i : p -> L(x_i p), and L lies in I^perp exactly when it vanishes
  on every generator and its shifts lie in I^perp.  So with a basis of
  the functionals of order below k, those of order k are the solutions
  of a linear system in 1 + n * dim unknowns, L(1) and the coefficients
  of each L|x_i in that basis: the shifts commute,
  (L|x_a)|x_b = (L|x_b)|x_a, and L vanishes on every generator.  Mod
  the prime, the new functionals are the solutions that vanish at the
  free columns found so far; each is reduced to a new free column of
  degree k, and the basis only grows.  The first order that adds
  nothing ends the run; an order at the degree cap that still adds one
  raises DegreeCapError.  Then the union of the supports, closed under
  division (by construction), is the column set C, and the proposal is
  certified over C:
  1. the rows m*g that meet C are those with m in C, because C is
     closed under division; the vectors are lifted as for the probe, and
     the exact check that they annihilate those rows puts their span W
     inside I^perp, so the colength is at least mu;
  2. the nullity of those rows mod p is mu, so W is their whole rational
     null space; a shift of a vector of W is supported on C and
     annihilates the rows, so W is closed under shifts;
  3. one more integration step over the vectors of W, scaled to
     integers, has nullity mu mod p, so its rational solutions, the
     functionals of I^perp whose shifts lie in W, are W alone (its
     commutation rows are read at the free columns only, which by 2
     suffices; a rank mod p never exceeds the rational rank).  A
     functional of I^perp outside W of minimal order would have all
     its shifts in W, so there is none: W = I^perp and the colength
     is mu.
  Like the probe's certificate, this proves the colength from both
  sides and every class exactly.  A proposal that fails goes to the
  next prime, and past the last one the run stops with an internal
  error.

An unlucky prime or a wrong reconstruction can only make the check
fail.  Then the next prime is tried; past the last one, which
reconstructs entries of up to 5606 bits, the probe returns None.  The
caller then tries the common-factor witness first, then Mora's standard
basis, before it integrates.  Nothing here decides INFINITE.  This
route shares no code with ``oracles.macaulay_colength``, which
recomputes the same dimensions over the rationals for the tests.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from heapq import heappop, heappush
from math import comb, isqrt, lcm
from typing import NamedTuple

from .errors import DegreeCapError, InternalCheckError
from .poly import LOCAL_ORDER, monomials_up_to_degree

# the Mersenne primes 2^e - 1 the certificate climbs, one per attempt:
# the first runs the probe, and a rung reconstructs entries of up to
# (e - 1)/2 bits, 30, 260, 2211 and 5606; a rung at 2^127 - 1 made
# dense germs with entries of about 135 bits slower, since each failed
# rung costs an echelon form
PRIMES = tuple(2**e - 1 for e in (61, 521, 4423, 11213))

# largest Macaulay matrix the probe builds, in columns (monomials of
# degree <= B): B = 23 in two variables, 10 in three, 6 in four
MAX_COLUMNS = 300

# column layouts kept per process, one per (variables, bound): the
# benchmark's four streams build 19 over seeds 1 to 3
LAYOUTS = 64


class DualBasis(NamedTuple):
    """A certified dual basis.  `columns` are monomials sorted by
    ``LOCAL_ORDER`` from the largest down: those of degree at most D0 for
    the probe, the supports of the vectors closed under division for the
    integration route; `vectors` maps the index f of each free column to
    its vector, as ({column index: non-zero integer numerator}, positive
    denominator), the columns ascending and none above f.  Every vector
    is 0 at a column without an entry and at a monomial without a
    column.  The colength is len(vectors)."""

    columns: list
    vectors: dict


def dual_basis(generators, degree_cap):
    """Certified dual basis of the germ ideal spanned by the non-unit
    generators that ``grobner._local_dual`` hands it (they share one
    context), or None when the probe finds no plateau within its bounds
    or the certificate fails at every prime."""
    gens = [_integer_terms(g) for g in generators if not g.is_zero]
    if not gens:
        return None
    nvars = len(generators[0].context)
    # D0 >= s: the Jacobian determinant of n generators is in m^s, not in I
    first = 1 + sum(terms[0][0] - 1 for terms in gens) if len(gens) == nvars else 2
    for bound in _probe_bounds(nvars, degree_cap, first):
        columns, index, ends = _layout(nvars, bound)
        rows = _macaulay_rows(gens, columns, bound, index)
        pivots = _echelon(rows, len(columns), PRIMES[0])
        dims = _dimensions(ends, pivots)
        for d0 in range(bound):
            if dims[d0] == dims[d0 + 1]:
                # M_D0 is M_B cut to its first ends[d0] columns; entries run
                # by ascending degree, so a row that starts past them has none left
                end = ends[d0]
                rows = [{k: v for k, v in row.items() if k < end} for row in rows if next(iter(row)) < end]
                return _certified(rows, list(columns[:end]), dims[d0], pivots)
    return None


def integrated_dual_basis(generators, degree_cap):
    """Certified dual basis of the germ ideal spanned by the non-unit
    generators, built by integration order by order (see the module
    docstring); for germs past the probe's bound.  Its columns are the
    supports of the vectors closed under division.  Each prime of ``PRIMES`` in turn
    proposes the functionals, and each proposal is lifted as the probe's
    is, up the same primes.  Raises DegreeCapError when the local
    dual still grows at the degree cap, and InternalCheckError when no
    prime certifies it, as for entries past the last prime's reach."""
    gens = [_integer_terms(g) for g in generators if not g.is_zero]
    nvars = len(generators[0].context)
    for p in PRIMES:
        dual = _certified_integration(gens, nvars, _integrate(gens, nvars, degree_cap, p), p)
        if dual is not None:
            return dual
    raise InternalCheckError("no prime certifies the integrated local dual")


def _integrate(gens, nvars, degree_cap, p):
    """The local dual mod p, order by order: functionals as dicts
    monomial -> non-zero residue, each 1 at its free column and 0 at the
    free columns of the others.  Raises DegreeCapError when the order of
    the degree cap still adds functionals."""
    zero = (0,) * nvars
    basis, free = [{zero: 1}], [zero]
    for order in range(1, degree_cap + 1):
        ncols = 1 + nvars * len(basis)
        rows = _integration_rows(gens, basis, free, nvars, p, free)
        nulls = _null_vectors(_echelon(rows, ncols, p), ncols, p)
        if not nulls:
            return basis
        # the new functionals vanish at the old free columns; each gets
        # its own at the smallest monomial of its support under
        # LOCAL_ORDER, of degree `order`, which no older one reaches
        added = []
        for vector in nulls.values():
            f = _integral(vector, basis, nvars, p)
            for q, g in added:
                f = _eliminate(f, q, g, p)
            q = min(f, key=LOCAL_ORDER.key)
            inv = pow(f[q], -1, p)
            f = {m: v * inv % p for m, v in f.items()}
            added = [(r, _eliminate(g, q, f, p)) for r, g in added]
            added.append((q, f))
        free += [q for q, _ in added]
        basis += [f for _, f in added]
    raise DegreeCapError(
        f"the local dual did not stabilize below the degree cap {degree_cap}: "
        f"order {degree_cap} still added functionals, to dimension {len(basis)} (mod p)"
    )


def _integration_rows(gens, basis, free, nvars, p, vanish=()):
    """Rows mod p, as sparse dicts, of the integration system over
    `basis`: functionals as dicts monomial -> non-zero residue, each
    non-zero at its own monomial of `free` and 0 at the others'.  With d
    functionals, unknown 0 is L(1) and unknown 1 + i*d + j the coefficient
    of basis[j] in the shift L|x_i; L(x^a) for a != 0 is the value of
    L|x_i at x^a/x_i for the first variable x_i of x^a.  The rows say that
    the shifts commute, that L vanishes on every generator, and that L
    vanishes at every monomial of `vanish`.  When the span of the basis
    is closed under shifts, both sides of (L|x_a)|x_b = (L|x_b)|x_a lie
    in it, so they agree when they agree at the monomials of `free`:
    the commutation rows are read there only."""
    d = len(basis)
    at = {}
    for j, f in enumerate(basis):
        for m, v in f.items():
            at.setdefault(m, []).append((j, v))

    def value(m):
        # L(m) as (first unknown, [(j, coefficient)]): unknown 0 at m = 1
        for i, e in enumerate(m):
            if e:
                return 1 + i * d, at.get(m[:i] + (e - 1,) + m[i + 1:], ())
        return 0, ((0, 1),)

    rows = []
    for terms in gens:
        row = {}
        for _, m, c in terms:
            base, entries = value(m)
            for j, v in entries:
                row[base + j] = (row.get(base + j, 0) + c * v) % p
        rows.append({k: v for k, v in row.items() if v})
    for m in vanish:
        base, entries = value(m)
        rows.append({base + j: v for j, v in entries})
    # (L|x_a)|x_b - (L|x_b)|x_a at q: sum over j of the coefficient of
    # basis[j] in L|x_a times basis[j](x_b q), minus the same with a, b
    # swapped; the entries of the basis are non-zero residues
    for a in range(nvars):
        for b in range(a + 1, nvars):
            for q in free:
                row = {}
                base = 1 + a * d
                for j, v in at.get(q[:b] + (q[b] + 1,) + q[b + 1:], ()):
                    row[base + j] = v
                base = 1 + b * d
                for j, v in at.get(q[:a] + (q[a] + 1,) + q[a + 1:], ()):
                    row[base + j] = p - v
                rows.append(row)
    return [row for row in rows if row]


def _integral(vector, basis, nvars, p):
    """The functional L of a solution of the integration system over
    `basis` (see :func:`_integration_rows`), given as {unknown: non-zero
    residue}, as a dict monomial -> non-zero residue."""
    d = len(basis)
    out = {}
    for u, c in sorted(vector.items()):
        if not u:
            out[(0,) * nvars] = c
            continue
        i, j = divmod(u - 1, d)
        for m, v in basis[j].items():
            if not any(m[:i]):
                a = m[:i] + (m[i] + 1,) + m[i + 1:]
                out[a] = (out.get(a, 0) + c * v) % p
    return {m: v for m, v in out.items() if v}


def _eliminate(f, q, g, p):
    """f minus f(q) times g, where g is 1 at q, mod p, without zero
    entries."""
    c = f.get(q)
    if not c:
        return f
    out = dict(f)
    for m, v in g.items():
        w = (out.get(m, 0) - c * v) % p
        if w:
            out[m] = w
        else:
            del out[m]
    return out


def _certified_integration(gens, nvars, functionals, p):
    """The certified dual basis of the integrated functionals (mod p),
    or None; the three checks are those of the module docstring."""
    closed = set()
    todo = [m for f in functionals for m in f]
    while todo:
        m = todo.pop()
        if m not in closed:
            closed.add(m)
            todo += (m[:i] + (e - 1,) + m[i + 1:] for i, e in enumerate(m) if e)
    columns = LOCAL_ORDER.sorted_descending(closed)
    bound = sum(columns[-1])
    rows = _macaulay_rows(gens, columns, bound, {_key(m, bound + 1): i for i, m in enumerate(columns)})
    dual = _certified(rows, columns, len(functionals), _echelon(rows, len(columns), PRIMES[0]))
    if dual is None or not _plateau(gens, nvars, dual, p):
        return None
    return dual


def _plateau(gens, nvars, dual, p):
    """True when one more integration step over the certified vectors,
    their integer numerators mod p, has nullity mod p equal to their
    number: then no functional outside their span has all its shifts in
    it."""
    columns = dual.columns
    free = [columns[f] for f in dual.vectors]
    basis = [
        {columns[k]: v % p for k, v in nums.items() if v % p} for nums, _ in dual.vectors.values()
    ]
    ncols = 1 + nvars * len(basis)
    pivots = _echelon(_integration_rows(gens, basis, free, nvars, p), ncols, p)
    return ncols - len(pivots) == len(basis)


def _probe_bounds(nvars, degree_cap, first):
    """The probe's bounds: the first one given (1 + s from the orders of
    n generators, by the socle fact of the module docstring, else 2), then
    each two more than the last; each at most the degree cap and lowered
    to the largest bound whose matrix has at most MAX_COLUMNS columns, for
    as long as they grow."""
    bound, nxt = 0, first
    while True:
        nxt = min(nxt, degree_cap)
        while nxt > bound and comb(nxt + nvars, nvars) > MAX_COLUMNS:
            nxt -= 1
        if nxt <= bound:
            return
        yield nxt
        bound = nxt
        nxt = bound + 2


def _integer_terms(poly):
    """Terms (monomial, degree, coefficient) of a rational multiple of
    poly with integer coefficients, by ascending degree."""
    scale = lcm(*(c.denominator for c in poly.terms.values()))
    return sorted((sum(m), m, int(c * scale)) for m, c in poly.terms.items())


@lru_cache(maxsize=LAYOUTS)
def _layout(nvars, bound):
    """The column layout of M_bound in nvars variables, built once per
    process: the columns, a tuple of the exponents of degree at most the
    bound, degree-lexicographic and each reversed, so sorted by
    ``LOCAL_ORDER`` from the largest down; the index {key: column} of
    :func:`_macaulay_rows`, in column order; and `ends`, where ends[d] is
    the number of columns of degree at most d.  Callers share the index
    and must not change it."""
    columns = tuple(m[::-1] for m in monomials_up_to_degree(nvars, bound + 1))
    index = {_key(m, bound + 1): i for i, m in enumerate(columns)}
    ends = tuple(comb(d + nvars, nvars) for d in range(bound + 1))
    return columns, index, ends


def _key(m, base):
    """The exponents of m read as digits in the base, the first variable
    last: the key of a product is the sum of the keys when every exponent
    of the product stays below the base."""
    k = 0
    for e in reversed(m):
        k = k * base + e
    return k


def _macaulay_rows(gens, columns, bound, index):
    """Rows of the Macaulay matrix as sparse dicts column -> integer
    coefficient, the entries by ascending degree: the products m*g with m
    a column, truncated above the bound and restricted to the columns,
    which are monomials of degree at most the bound; rows that restrict
    to zero are left out.  `index` maps the key of each column in base
    bound + 1 (see :func:`_key`) to its position, in column order."""
    base = bound + 1
    gens = [[(d, _key(m, base), c) for d, m, c in terms] for terms in gens]
    rows = []
    for mk, i in index.items():
        room = bound - sum(columns[i])
        for terms in gens:
            row = {}
            for d, k, c in terms:
                if d > room:
                    break
                try:
                    row[index[mk + k]] = c
                except KeyError:
                    pass  # a product without a column
            if row:
                rows.append(row)
    return rows


def _echelon(rows, ncols, p):
    """Row echelon form mod p, of a matrix of ncols columns, with the
    pivot of each row at its first column.  Returns {pivot column:
    [(column, value), ...]}, the entries of the pivot row after its pivot,
    normalized so that the pivot is 1.  A row is reduced as a dict of its
    entries, smallest column first, skipping those that vanish mod p."""
    pivots = {}
    for row in rows:
        c = min(row)
        if c not in pivots and row[c] % p:
            # a new pivot at the first column: nothing to eliminate
            inv = pow(row[c], -1, p)
            pivots[c] = [(k, v * inv % p) for k, v in sorted(row.items()) if k > c and v % p]
            continue
        vec = dict(row)
        while vec:
            c = min(vec)
            x = vec.pop(c) % p
            if not x:
                continue
            tail = pivots.get(c)
            if tail is None:
                inv = pow(x, -1, p)
                pivots[c] = [(k, v * inv % p) for k, v in sorted(vec.items()) if v % p]
                break
            for k, v in tail:
                vec[k] = vec.get(k, 0) - x * v
    return pivots


def _dimensions(ends, pivots):
    """dim_p(D) = N_D - #(pivots of degree <= D), for D = 0 .. bound: the
    columns of degree at most D are the first ends[D]."""
    pivots = sorted(pivots)
    return [n - bisect_left(pivots, n) for n in ends]


def _certified(rows, columns, mu, pivots):
    """The dual basis of the rows, over the given columns, when its mu
    vectors lift and certify at one of ``PRIMES``, else None.  `pivots`
    is the echelon form of the rows modulo the first prime."""
    ncols = len(columns)
    for i, p in enumerate(PRIMES):
        if i:
            pivots = _echelon(rows, ncols, p)
        basis = _null_vectors(pivots, ncols, p)
        if len(basis) < mu:
            # nullity mod p bounds the rational nullity from above
            return None
        if len(basis) > mu:
            continue  # this prime loses rank
        vectors = _reconstruct(basis, p)
        if vectors is None:
            continue
        try:
            certify_dual_basis(rows, ncols, sorted(basis), vectors)
        except InternalCheckError:
            continue
        return DualBasis(columns, vectors)
    return None


def _null_vectors(pivots, ncols, p):
    """Null vectors of the echelon rows (projected on the first ncols
    columns) mod p, one per free column f, with 1 at f and 0 at the other
    free columns.  Every pivot's tail lies above it, so the vector of f is
    0 above f: it is back-substituted from f downwards, each new entry
    pushed through the pivots whose tails hold its column.  Returns {f:
    {column: non-zero residue}}."""
    users = {}  # column k -> [(pivot c, entry of c's tail at k)]
    for c, tail in pivots.items():
        if c < ncols:
            for k, t in tail:
                if k >= ncols:
                    break
                users.setdefault(k, []).append((c, t))
    out = {}
    for f in range(ncols):
        if f in pivots:
            continue
        # sums[c] is minus the entry at c, once every column above c is done
        vec, sums, todo = {}, {f: -1}, [-f]
        while todo:
            c = -heappop(todo)
            x = -sums.pop(c) % p
            if not x:
                continue
            vec[c] = x
            for k, t in users.get(c, ()):
                if k in sums:
                    sums[k] += t * x
                else:
                    sums[k] = t * x
                    heappush(todo, -k)
        out[f] = vec
    return out


def _reconstruct(residues, modulus):
    """Rational vectors with the given residues, numerators and
    denominators below sqrt(modulus / 2), as ({column: non-zero integer
    numerator}, denominator) per free column; None when some entry has no
    such preimage.  The entries are read by ascending column, which fixes
    the order in which the common denominator grows."""
    half = modulus >> 1
    limit = isqrt(half)
    out = {}
    for f, res in residues.items():
        den = 1
        nums = {}
        for k in sorted(res):
            x = res[k] * den % modulus
            if x > half:
                x -= modulus
            if -limit <= x <= limit:
                if x:
                    nums[k] = x
                continue
            # r*den = a/b: the common denominator grows by b
            q = _rational(x % modulus, modulus, limit)
            if q is None:
                return None
            a, b = q
            den *= b
            if den > limit:
                return None
            nums = {j: n * b for j, n in nums.items()}
            if a:
                nums[k] = a
        out[f] = (nums, den)
    return out


def _rational(r, modulus, limit):
    """a/b with a = b*r mod modulus, |a| <= limit, 0 < b <= limit, or None
    (Wang's half-extended Euclidean algorithm)."""
    r0, r1 = modulus, r % modulus
    t0, t1 = 0, 1
    while r1 > limit:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > limit:
        return None
    if t1 < 0:
        r1, t1 = -r1, -t1
    return r1, t1


def certify_dual_basis(rows, ncols, free, vectors):
    """Check exactly that the vectors are a dual basis of the Macaulay
    matrix with the given rows: the vector of each free column is 1 there
    and 0 at the other free columns, and its dot product with every row is
    0.  `vectors` maps each free column to ({column: integer numerator},
    denominator), every column in range(ncols) and no other free column
    among them; a column without an entry is 0.  Raises
    InternalCheckError otherwise; on success the rational null space of
    the rows has dimension at least len(free)."""
    if sorted(vectors) != list(free):
        raise InternalCheckError("dual basis does not match the free columns")
    isfree = set(free)
    top = 0
    for f in free:
        nums, den = vectors[f]
        if den <= 0 or not nums or min(nums) < 0 or max(nums) >= ncols:
            raise InternalCheckError("malformed dual basis vector")
        if nums.get(f) != den or len(isfree.intersection(nums)) != 1:
            raise InternalCheckError("dual basis is not the identity on the free columns")
        top = max(top, max(map(abs, nums.values())))
    # The dot products of a row with all the vectors at once: the
    # numerators sit side by side in one integer per column, vector i in
    # bits [i*width, (i+1)*width).  Every dot product d of a row obeys
    # |d| <= (sum of the row's |entries|) * top < 2^(width-2), so the
    # packed sum is 0 exactly when every dot product is 0.
    reach = max((sum(map(abs, row.values())) for row in rows), default=0)
    width = (top * reach).bit_length() + 2
    packed = [0] * ncols
    for i, f in enumerate(free):
        shift = i * width
        for k, n in vectors[f][0].items():
            packed[k] += n << shift
    for row in rows:
        if sum(v * packed[k] for k, v in row.items()):
            raise InternalCheckError("dual basis vector does not annihilate a Macaulay row")
