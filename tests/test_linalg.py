import random
from fractions import Fraction

import pytest

from singindex.errors import RejectedInputError
from singindex.linalg import rref, symmetric_signature
from singindex.oracles import signature_by_charpoly

from helpers import random_unimodular


def _mul(a, b):
    return [[sum((x * y for x, y in zip(row, column)), Fraction(0)) for column in zip(*b)] for row in a]


def _transpose(a):
    return [list(column) for column in zip(*a)]


def test_signature_examples():
    assert symmetric_signature([[1, 0], [0, -1]]) == (1, 1, 0)
    assert symmetric_signature([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == (3, 0, 0)
    assert symmetric_signature([[0, 1], [1, 0]]) == (1, 1, 0)


def test_signature_rejects_asymmetric():
    with pytest.raises(RejectedInputError):
        symmetric_signature([[0, 1], [2, 0]])


def test_signature_degenerate_counted():
    assert symmetric_signature([[0, 0], [0, 0]]) == (0, 0, 2)
    assert symmetric_signature([[1, 1], [1, 1]]) == (1, 0, 1)


def test_signature_congruence_invariance():
    rng = random.Random(17)
    base = [
        [Fraction(2), Fraction(1), Fraction(0)],
        [Fraction(1), Fraction(-3), Fraction(2)],
        [Fraction(0), Fraction(2), Fraction(0)],
    ]
    expected = symmetric_signature(base)
    for _ in range(12):
        u = random_unimodular(3, rng)
        congruent = _mul(_mul(_transpose(u), base), u)
        assert symmetric_signature(congruent) == expected


def test_rref_pivots():
    rows = [[Fraction(x) for x in r] for r in [[1, 2, 3], [2, 4, 6], [0, 1, 1]]]
    reduced, pivots = rref(rows)
    assert pivots == [0, 1]
    assert len(reduced) == 2


def _random_symmetric(rng, n, low=-3, high=3):
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            a[i][j] = a[j][i] = rng.randint(low, high)
    return a


def _signature_cases():
    """About 300 symmetric matrices, n <= 10: dense and sparse integer
    ones, zero diagonals (also one reached only after some elimination),
    sums of hyperbolic blocks under a congruence, rank-deficient ones and
    rational ones."""
    rng = random.Random(2029)
    cases = []
    for _ in range(80):
        cases.append(_random_symmetric(rng, rng.randint(1, 10)))
    for _ in range(30):
        a = _random_symmetric(rng, rng.randint(1, 10))
        for i in range(len(a)):
            for j in range(i):
                if rng.random() < 0.7:
                    a[i][j] = a[j][i] = 0
        cases.append(a)
    for _ in range(40):
        a = _random_symmetric(rng, rng.randint(2, 10))
        for i in range(len(a)):
            a[i][i] = 0
        cases.append(a)
    for _ in range(30):
        # hyperbolic pairs [[0, c], [c, 0]], a zero block, then a
        # congruence by a unimodular matrix
        pairs = rng.randint(1, 4)
        n = min(10, 2 * pairs + rng.randint(0, 2))
        a = [[Fraction(0)] * n for _ in range(n)]
        for k in range(pairs):
            c = rng.choice([-3, -2, -1, 1, 2, 3])
            a[2 * k][2 * k + 1] = a[2 * k + 1][2 * k] = Fraction(c)
        u = random_unimodular(n, rng)
        cases.append(_mul(_mul(_transpose(u), a), u))
    for _ in range(40):
        # L diag(D, H) L^T with L = [[I, 0], [X, I]]: once the definite
        # part D is eliminated the trailing block is H, with zero diagonal
        k = rng.randint(1, 4)
        h = _random_symmetric(rng, rng.randint(2, 10 - k))
        for i in range(len(h)):
            h[i][i] = 0
        n = k + len(h)
        block = [[0] * n for _ in range(n)]
        for i in range(k):
            block[i][i] = rng.choice([-3, -2, -1, 1, 2, 3])
        for i, row in enumerate(h):
            block[k + i][k:] = row
        low = [[int(i == j) for j in range(n)] for i in range(n)]
        for i in range(k, n):
            for j in range(k):
                low[i][j] = rng.randint(-2, 2)
        cases.append(_mul(_mul(low, block), _transpose(low)))
    for _ in range(50):
        # B^T D B with B of k < n rows: rank at most k
        n = rng.randint(2, 10)
        k = rng.randint(0, n - 1)
        b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
        d = [rng.choice([-2, -1, 1, 3]) for _ in range(k)]
        cases.append([[sum(b[t][i] * d[t] * b[t][j] for t in range(k)) for j in range(n)] for i in range(n)])
    for _ in range(30):
        a = _random_symmetric(rng, rng.randint(1, 10))
        for i in range(len(a)):
            for j in range(i + 1):
                if rng.random() < 0.4:
                    a[i][j] = a[j][i] = Fraction(a[i][j], rng.randint(2, 7))
        cases.append(a)
    return cases


def test_signature_matches_the_charpoly_oracle():
    cases = _signature_cases()
    assert len(cases) == 300
    inertias = set()
    for a in cases:
        expected = signature_by_charpoly(a)
        assert symmetric_signature(a) == expected, a
        inertias.add(expected)
    # the set reaches degenerate and indefinite matrices of every kind
    assert any(z > 0 and p > 0 and n > 0 for p, n, z in inertias)
    assert any(z == 0 and p == 0 for p, n, z in inertias)


def test_signature_oracle_examples():
    assert signature_by_charpoly([[1, 0], [0, -1]]) == (1, 1, 0)
    assert signature_by_charpoly([[0, 1], [1, 0]]) == (1, 1, 0)
    assert signature_by_charpoly([[1, 1], [1, 1]]) == (1, 0, 1)
    assert signature_by_charpoly([[Fraction(1, 2), 0], [0, 0]]) == (1, 0, 1)
    with pytest.raises(RejectedInputError):
        signature_by_charpoly([[0, 1], [2, 0]])
