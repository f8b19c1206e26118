import random
from fractions import Fraction

import pytest

from singindex.errors import RejectedInputError
from singindex.linalg import RationalMatrix, rref, symmetric_signature

from helpers import random_unimodular


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
        ut = u.transpose()
        congruent = ut.mul(RationalMatrix(base)).mul(u)
        assert symmetric_signature(congruent) == expected


def test_rref_pivots():
    rows = [[Fraction(x) for x in r] for r in [[1, 2, 3], [2, 4, 6], [0, 1, 1]]]
    reduced, pivots = rref(rows)
    assert pivots == [0, 1]
    assert len(reduced) == 2
