"""Exact dense linear algebra over the rationals.

Every function takes a matrix as a list of rows of exact rationals (ints
and Fractions).  :func:`symmetric_signature` yields the inertia (pos,
neg, zero) of a symmetric matrix without ever computing eigenvalues: it
scales the matrix to integers and runs a fraction-free (Bareiss)
symmetric elimination, so its inner loop is plain ``int`` arithmetic
with one exact division per entry.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import RejectedInputError


def rref(rows):
    """Reduced row echelon form.  Returns (reduced_rows, pivot_columns)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def symmetric_signature(matrix):
    """Inertia (pos, neg, zero) of a symmetric rational matrix, given as
    a list of rows.

    Congruences preserve inertia (Sylvester's law), and so does scaling
    by a positive number, so the matrix is first multiplied by the lcm
    of its denominators.  A symmetric permutation is a congruence too:
    the inertia is the sum of those of the blocks that the connected
    components of the non-zero pattern cut out (Gram matrices of local
    algebras pair few basis monomials, and most blocks have one or two
    rows).  Each block goes to :func:`_bareiss_inertia`.
    """
    n = len(matrix)
    if any(len(r) != n for r in matrix):
        raise RejectedInputError("signature needs a square matrix")
    if all(type(x) is int for row in matrix for x in row):
        a = [list(row) for row in matrix]
    else:
        a = [[Fraction(x) for x in row] for row in matrix]
        scale = lcm(*(x.denominator for row in a for x in row))
        a = [[x.numerator * (scale // x.denominator) for x in row] for row in a]
    if any(list(column) != row for row, column in zip(a, zip(*a))):
        raise RejectedInputError("signature needs a symmetric matrix")
    inertia = [0, 0, 0]
    left = set(range(n))
    while left:
        todo = [left.pop()]
        block = []
        while todo:
            i = todo.pop()
            block.append(i)
            linked = [j for j in left if a[i][j]]
            left.difference_update(linked)
            todo.extend(linked)
        block.sort()
        for k, count in enumerate(_bareiss_inertia([[a[i][j] for j in block] for i in block])):
            inertia[k] += count
    return tuple(inertia)


def _bareiss_inertia(a):
    """Inertia (pos, neg, zero) of a symmetric integer matrix, given as
    rows that this function may overwrite.

    Symmetric elimination runs fraction-free (Bareiss, "Sylvester's
    identity and multistep integer-preserving Gaussian elimination",
    Math. Comp. 22, 1968) on the trailing block only: with the pivot d
    at the front of the block and the previous pivot p (1 at the start),
    every entry becomes (d*a_ij - a_i0*a_0j) // p.  The division is
    exact, because each entry of the block is a minor of the integer
    matrix by Sylvester's identity.  The pivots are the leading principal
    minors d_1, d_2, ... of the matrix as permuted and transformed below,
    so the k-th pivot of its LDL^T factorisation is d_k/d_(k-1), of sign
    sign(d_k)*sign(d_(k-1)).  A non-zero diagonal entry of the block is
    moved to the front by a symmetric swap.  When the diagonal of the
    block is zero but an entry a_ij is not, the congruence that adds row
    and column j to row and column i makes a_ii = 2*a_ij a usable pivot.
    It has integer entries and leaves the eliminated rows alone, so the
    block it produces is the Bareiss block of the transformed integer
    matrix, and every later division stays exact.  A zero block counts
    its size as zero eigenvalues.  No float and no modulus is involved.
    """
    pos = neg = zero = 0
    previous = 1
    while a:
        pivot = next((i for i, row in enumerate(a) if row[i]), None)
        if pivot is None:
            pair = next(
                ((i, j) for i, row in enumerate(a) for j in range(i + 1, len(a)) if row[j]),
                None,
            )
            if pair is None:
                zero += len(a)
                break
            i, j = pair
            a[i] = [x + y for x, y in zip(a[i], a[j])]
            for row in a:
                row[i] += row[j]
            pivot = i
        if pivot:
            a[0], a[pivot] = a[pivot], a[0]
            for row in a:
                row[0], row[pivot] = row[pivot], row[0]
        top = a[0]
        d = top[0]
        if (d > 0) == (previous > 0):
            pos += 1
        else:
            neg += 1
        top = top[1:]
        a = [[(d * x - row[0] * y) // previous for x, y in zip(row[1:], top)] for row in a[1:]]
        previous = d
    return pos, neg, zero
