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

* **Probe.**  A generator with a non-zero constant term is a unit, and
  the colength is 0.  Otherwise the generators are scaled to integer
  coefficients and M_B is brought to echelon form modulo the first of
  ``PRIMES``, each pivot at the first column of its row, for
  B = 2, 4, 6, ... up to the degree cap and ``MAX_COLUMNS``.  M_D is M_B
  with the columns above degree D dropped, so its rank mod p is the
  number of pivots of degree at most D: one echelon form gives dim_p(D)
  for every D <= B.  B grows by 2, not by doubling, because the last
  elimination dominates and a doubled B can have several times the
  columns that the plateau needs.
* **Certificate.**  At the first plateau dim_p(D0) = dim_p(D0+1) = mu,
  the mu null vectors of M_D0 mod p that are the identity on the free
  (non-pivot) columns are lifted to the rationals by Chinese remaindering
  and rational reconstruction over ``PRIMES``.  :func:`certify_dual_basis`
  checks exactly that they are the identity on the free columns and
  that each has integer dot product 0 with every row of M_D0.  That
  proves dim_Q(D0) >= mu.  The rank of an integer matrix modulo a prime
  never exceeds its rational rank, so dim_Q(D0+1) <= dim_p(D0+1) = mu,
  and by monotonicity dim_Q(D0) = dim_Q(D0+1) = mu: the colength is mu.
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
  sides and every class exactly; the Mora fallback it replaces took the
  dimension from a standard basis that nothing checked, and could only
  check that its classes came from some quotient of O/I.  A proposal
  that fails goes to the next prime, and past the last one the run
  stops with an internal error.

An unlucky prime or a wrong reconstruction can only make the check
fail.  Then the next prime is tried; past the last one the probe
returns None, and the caller asks Mora's standard basis whether the
colength is infinite before it integrates.  Nothing here decides
INFINITE.  This route shares no code with ``oracles.macaulay_colength``,
which recomputes the same dimensions over the rationals for the tests.
"""

from __future__ import annotations

from math import comb, isqrt, lcm
from typing import NamedTuple

from .errors import DegreeCapError, InternalCheckError
from .poly import LOCAL_ORDER, monomials_up_to_degree

# 61-bit primes, 2^61 - 1 and the five below it; the first one runs the
# probe, the certificate uses as many as the reconstruction needs
PRIMES = (
    2305843009213693951,
    2305843009213693921,
    2305843009213693907,
    2305843009213693723,
    2305843009213693693,
    2305843009213693669,
)

# largest Macaulay matrix the probe builds, in columns (monomials of
# degree <= B): B = 23 in two variables, 10 in three, 6 in four
MAX_COLUMNS = 300


class DualBasis(NamedTuple):
    """A certified dual basis.  `columns` are monomials sorted by
    ``LOCAL_ORDER`` from the largest down: those of degree at most D0 for
    the probe, the supports of the vectors closed under division for the
    integration route; `vectors` maps the index of each free column to
    its vector, as (integer numerators, one per column, positive
    denominator).  Every vector is 0 at a monomial without a column.
    The colength is len(vectors)."""

    columns: list
    vectors: dict


def dual_basis(generators, degree_cap):
    """Certified dual basis of the germ ideal spanned by the generators
    (which share one context), or None when the probe finds no plateau
    within its bounds or the certificate fails at every prime.  A
    generator with a non-zero constant term is a unit: the basis is
    empty."""
    if any(g.constant_term() != 0 for g in generators):
        return DualBasis([], {})
    gens = [_integer_terms(g) for g in generators if not g.is_zero]
    if not gens:
        return None
    nvars = len(generators[0].context)
    for bound in _probe_bounds(nvars, degree_cap):
        # degree-lexicographic exponents, each reversed: sorted by
        # LOCAL_ORDER from the largest down
        columns = [m[::-1] for m in monomials_up_to_degree(nvars, bound + 1)]
        pivots = _echelon(_macaulay_rows(gens, columns, bound), len(columns), PRIMES[0])
        dims = _dimensions(columns, pivots, bound)
        for d0 in range(bound):
            if dims[d0] == dims[d0 + 1]:
                ncols = sum(1 for m in columns if sum(m) <= d0)
                rows = _macaulay_rows(gens, columns[:ncols], d0)
                return _certified(rows, columns[:ncols], dims[d0], pivots)
    return None


def integrated_dual_basis(generators, degree_cap):
    """Certified dual basis of the germ ideal spanned by the generators,
    built by integration order by order (see the module docstring); for
    germs past the probe's bound.  Its columns are the supports of the
    vectors closed under division.  Raises DegreeCapError when the local
    dual still grows at the degree cap, and InternalCheckError when no
    prime certifies it."""
    if any(g.constant_term() != 0 for g in generators):
        return DualBasis([], {})
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
    `basis` (see :func:`_integration_rows`), as a dict monomial -> non-zero
    residue."""
    d = len(basis)
    out = {(0,) * nvars: vector[0]}
    for i in range(nvars):
        for j, f in enumerate(basis):
            c = vector[1 + i * d + j]
            if c:
                for m, v in f.items():
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
    rows = _macaulay_rows(gens, columns, sum(columns[-1]))
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
        {columns[k]: v % p for k, v in enumerate(nums) if v % p} for nums, _ in dual.vectors.values()
    ]
    ncols = 1 + nvars * len(basis)
    pivots = _echelon(_integration_rows(gens, basis, free, nvars, p), ncols, p)
    return ncols - len(pivots) == len(basis)


def _probe_bounds(nvars, degree_cap):
    """The probe's bounds: each two more than the last, at most the degree
    cap, and lowered to the largest bound whose matrix has at most
    MAX_COLUMNS columns, for as long as they grow."""
    bound = 0
    while True:
        nxt = min(bound + 2, degree_cap)
        while nxt > bound and comb(nxt + nvars, nvars) > MAX_COLUMNS:
            nxt -= 1
        if nxt <= bound:
            return
        yield nxt
        bound = nxt


def _integer_terms(poly):
    """Terms (monomial, degree, coefficient) of a rational multiple of
    poly with integer coefficients, by ascending degree."""
    scale = lcm(*(c.denominator for c in poly.terms.values()))
    return sorted((sum(m), m, int(c * scale)) for m, c in poly.terms.items())


def _macaulay_rows(gens, columns, bound):
    """Rows of the Macaulay matrix as sparse dicts column -> integer
    coefficient: the products m*g with m a column, truncated above the
    bound and restricted to the columns, which are monomials of degree at
    most the bound; rows that restrict to zero are left out.

    Monomials of degree <= bound are keyed by their exponents read as
    digits in base bound + 1, so the key of a product is the sum of the
    keys."""
    base = bound + 1

    def key(m):
        k = 0
        for e in reversed(m):
            k = k * base + e
        return k

    index = {key(m): i for i, m in enumerate(columns)}
    gens = [[(d, key(m), c) for d, m, c in terms] for terms in gens]
    rows = []
    for mult in columns:
        room = bound - sum(mult)
        mk = key(mult)
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
    """Row echelon form mod p with the pivot of each row at its first
    column.  Returns {pivot column: [(column, value), ...]}, the entries of
    the pivot row after its pivot, normalized so that the pivot is 1."""
    pivots = {}
    for row in rows:
        c = min(row)
        if c not in pivots and row[c] % p:
            # a new pivot at the first column: nothing to eliminate
            inv = pow(row[c], -1, p)
            pivots[c] = [(k, v * inv % p) for k, v in sorted(row.items()) if k > c and v % p]
            continue
        vec = [0] * ncols
        for k, v in row.items():
            vec[k] = v
        c, hi = min(row), max(row)
        while c <= hi:
            x = vec[c] % p
            if x:
                tail = pivots.get(c)
                if tail is None:
                    inv = pow(x, -1, p)
                    pivots[c] = [
                        (k, vec[k] * inv % p) for k in range(c + 1, hi + 1) if vec[k] % p
                    ]
                    break
                for k, v in tail:
                    vec[k] -= x * v
                if tail and tail[-1][0] > hi:
                    hi = tail[-1][0]
            c += 1
    return pivots


def _dimensions(columns, pivots, bound):
    """dim_p(D) = N_D - #(pivots of degree <= D), for D = 0 .. bound."""
    per_degree = [0] * (bound + 1)
    for m in columns:
        per_degree[sum(m)] += 1
    for c in pivots:
        per_degree[sum(columns[c])] -= 1
    dims, total = [], 0
    for free in per_degree:
        total += free
        dims.append(total)
    return dims


def _certified(rows, columns, mu, pivots):
    """The dual basis of the rows, over the given columns, when its mu
    vectors lift and certify, else None.  `pivots` is the echelon form
    of the rows modulo the first prime."""
    ncols = len(columns)
    free = residues = None
    for i, p in enumerate(PRIMES):
        if i:
            pivots = _echelon(rows, ncols, p)
        basis = _null_vectors(pivots, ncols, p)
        cols = sorted(basis)
        if len(cols) < mu:
            # nullity mod p bounds the rational nullity from above
            return None
        if len(cols) > mu:
            continue  # this prime loses rank
        if cols != free:
            free, modulus, residues = cols, 1, None
        residues = _combine(residues, modulus, basis, p)
        modulus *= p
        vectors = _reconstruct(residues, modulus)
        if vectors is None:
            continue
        try:
            certify_dual_basis(rows, ncols, free, vectors)
        except InternalCheckError:
            continue
        return DualBasis(columns, vectors)
    return None


def _null_vectors(pivots, ncols, p):
    """Null vectors of the echelon rows (projected on the first ncols
    columns) mod p, one per free column f, with 1 at f and 0 at the other
    free columns.  Returns {f: vector as a list of ncols residues}."""
    free = [c for c in range(ncols) if c not in pivots]
    vec = {f: [0] * ncols for f in free}
    for f in free:
        vec[f][f] = 1
    for c in sorted((c for c in pivots if c < ncols), reverse=True):
        tail = [(k, v) for k, v in pivots[c] if k < ncols]
        for f in free:
            v_f = vec[f]
            s = 0
            for k, t in tail:
                s += t * v_f[k]
            v_f[c] = -s % p
    return vec


def _combine(residues, modulus, basis, p):
    """Chinese remaindering of the running residues mod `modulus` with the
    null vectors mod p."""
    if residues is None:
        return basis
    inv = pow(modulus, -1, p)
    out = {}
    for f, old in residues.items():
        new = basis[f]
        out[f] = [a + modulus * ((b - a) * inv % p) for a, b in zip(old, new)]
    return out


def _reconstruct(residues, modulus):
    """Rational vectors with the given residues, numerators and
    denominators below sqrt(modulus / 2), as (integer vector, denominator)
    per free column; None when some entry has no such preimage."""
    half = modulus >> 1
    limit = isqrt(half)
    out = {}
    for f, res in residues.items():
        den = 1
        nums = []
        for r in res:
            x = r * den % modulus
            if x > half:
                x -= modulus
            if -limit <= x <= limit:
                nums.append(x)
                continue
            # r*den = a/b: the common denominator grows by b
            q = _rational(x % modulus, modulus, limit)
            if q is None:
                return None
            a, b = q
            den *= b
            if den > limit:
                return None
            nums = [n * b for n in nums]
            nums.append(a)
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
    0.  `vectors` maps each free column to (integer vector, denominator).
    Raises InternalCheckError otherwise; on success the rational null
    space of the rows has dimension at least len(free)."""
    if sorted(vectors) != list(free):
        raise InternalCheckError("dual basis does not match the free columns")
    for f in free:
        nums, den = vectors[f]
        if len(nums) != ncols or den <= 0:
            raise InternalCheckError("malformed dual basis vector")
        for g in free:
            if nums[g] != (den if g == f else 0):
                raise InternalCheckError("dual basis is not the identity on the free columns")
    # The dot products of a row with all the vectors at once: the
    # numerators sit side by side in one integer per column, vector i in
    # bits [i*width, (i+1)*width).  Every dot product d of a row obeys
    # |d| <= (sum of the row's |entries|) * top < 2^(width-2), so the
    # packed sum is 0 exactly when every dot product is 0.
    top = max((abs(n) for f in free for n in vectors[f][0]), default=0)
    reach = max((sum(abs(v) for v in row.values()) for row in rows), default=0)
    width = (top * reach).bit_length() + 2
    packed = [0] * ncols
    for i, f in enumerate(free):
        for k, n in enumerate(vectors[f][0]):
            if n:
                packed[k] += n << (i * width)
    for row in rows:
        if sum(v * packed[k] for k, v in row.items()):
            raise InternalCheckError("dual basis vector does not annihilate a Macaulay row")
