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
  terms of degree at most D0, and its class is the combination of the
  free monomials with those values as coefficients.  The pivot of each
  echelon row sits at its leading monomial under ``LOCAL_ORDER``, so
  for all but finitely many primes the free monomials are the staircase
  of Mora's standard basis of I.  The certificate proves that they are
  a basis of the local algebra, not that they are that staircase.

* **Sparse matrices.**  :func:`certified_dual_basis` lifts and checks
  the dual basis of any sparse matrix in echelon form the same way.
  Mora's fallback in ``grobner.quotient_algebra`` hands it the rows
  that the border of a standard basis staircase needs, not the whole
  Macaulay matrix.

An unlucky prime or a wrong reconstruction can only make the check
fail; then the next prime is tried, and past the last one the caller
falls back to Mora's standard basis (or, in that fallback, stops with
an internal error).  Nothing here guesses INFINITE.
This route shares no code with ``oracles.macaulay_colength``, which
recomputes the same dimensions over the rationals for the tests.
"""

from __future__ import annotations

from math import comb, isqrt, lcm
from typing import NamedTuple

from .errors import InternalCheckError
from .poly import monomials_up_to_degree

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
    """A certified dual basis.  `columns` are monomials in column order:
    those of degree at most D0 for M_D0, fewer for a sparse matrix;
    `vectors` maps the index of each free column to its vector, as
    (integer numerators, one per column, positive denominator).  The
    colength is len(vectors)."""

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


def certified_dual_basis(rows, columns):
    """Certified dual basis of a sparse matrix in echelon form: `rows` are
    dicts column index -> non-zero integer, the first column of each row
    is its pivot, and no two rows share one, so the rank is the number of
    rows.  The free columns are the columns without a pivot; None when
    the vectors do not lift and certify."""
    pivots = _echelon(rows, len(columns), PRIMES[0])
    return _certified(rows, columns, len(columns) - len(rows), pivots)


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
    """Rows of M_bound as sparse dicts column -> integer coefficient;
    rows that truncate to zero are left out.

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
                row[index[mk + k]] = c
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
