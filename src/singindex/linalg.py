"""Exact dense linear algebra over the rationals.

Everything here works on lists of lists of Fractions.  A thin
RationalMatrix wrapper is provided for the public surface; the free
functions accept either form.  The one non-textbook routine is
:func:`symmetric_signature`, an exact congruent diagonalization that
yields the inertia (pos, neg, zero) of a symmetric matrix without ever
computing eigenvalues.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import RejectedInputError


def _rows_of(m):
    if isinstance(m, RationalMatrix):
        return [list(r) for r in m.entries]
    return [[Fraction(x) for x in r] for r in m]


class RationalMatrix:
    """Immutable rectangular matrix of Fractions."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        entries = tuple(tuple(Fraction(x) for x in row) for row in entries)
        if not entries or not entries[0]:
            raise RejectedInputError("matrix must be non-empty")
        ncols = len(entries[0])
        if any(len(r) != ncols for r in entries):
            raise RejectedInputError("ragged matrix")
        object.__setattr__(self, "rows", len(entries))
        object.__setattr__(self, "cols", ncols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, *a):
        raise AttributeError("RationalMatrix is immutable")

    @classmethod
    def identity(cls, n):
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    def transpose(self):
        return RationalMatrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def mul(self, other):
        if isinstance(other, RationalMatrix):
            o = other.entries
        else:
            o = [list(r) for r in other]
        if self.cols != len(o):
            raise RejectedInputError("matrix shapes do not match")
        ocols = len(o[0])
        return RationalMatrix(
            [
                [
                    sum((self.entries[i][k] * o[k][j] for k in range(self.cols)), Fraction(0))
                    for j in range(ocols)
                ]
                for i in range(self.rows)
            ]
        )

    def __eq__(self, other):
        return isinstance(other, RationalMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"RationalMatrix({[list(map(str, r)) for r in self.entries]!r})"


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
    """Inertia (pos, neg, zero) of a symmetric rational matrix.

    Exact symmetric Gaussian elimination: congruence transformations
    preserve inertia (Sylvester), so we diagonalize with simultaneous
    row/column operations and count signs.  A zero diagonal with a
    non-zero off-diagonal entry is repaired by the standard congruence
    that adds the partner row/column, turning the hyperbolic pair into a
    usable pivot.
    """
    a = _rows_of(matrix)
    n = len(a)
    if any(len(r) != n for r in a):
        raise RejectedInputError("signature needs a square matrix")
    for i in range(n):
        for j in range(i):
            if a[i][j] != a[j][i]:
                raise RejectedInputError("signature needs a symmetric matrix")
    pos = neg = zero = 0
    start = 0
    while start < n:
        pivot = next((i for i in range(start, n) if a[i][i] != 0), None)
        if pivot is None:
            pair = next(
                (
                    (i, j)
                    for i in range(start, n)
                    for j in range(i + 1, n)
                    if a[i][j] != 0
                ),
                None,
            )
            if pair is None:
                zero += n - start
                break
            i, j = pair
            for k in range(n):
                a[i][k] += a[j][k]
            for k in range(n):
                a[k][i] += a[k][j]
            pivot = i
        if pivot != start:
            a[start], a[pivot] = a[pivot], a[start]
            for row in a:
                row[start], row[pivot] = row[pivot], row[start]
        d = a[start][start]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for i in range(start + 1, n):
            if a[i][start] != 0:
                f = a[i][start] / d
                for k in range(n):
                    a[i][k] -= f * a[start][k]
                for k in range(n):
                    a[k][i] -= f * a[k][start]
        start += 1
    return pos, neg, zero
