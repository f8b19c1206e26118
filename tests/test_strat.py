import random

import pytest

from singindex.errors import RejectedInputError
from singindex.strat import (
    IndexVector,
    SliceData,
    StratPoset,
    det_m,
    det_n,
    eu_from_radial,
    mobius_inverse,
    phn_from_radial,
    proportionality_check,
    radial_from_eu,
    radial_from_phn,
)


def random_poset(rng, max_size=7, force_top=False):
    n = rng.randint(1, max_size)
    covers = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
    if force_top and n > 1:
        covers += [(i, n - 1) for i in range(n - 1)]
    return StratPoset([f"s{i}" for i in range(n)], covers)


def random_slice_data(poset, rng, bound=5):
    entries = {}
    for i in range(poset.size):
        for j in range(poset.size):
            if i != j and poset.leq(i, j):
                entries[(i, j)] = rng.randint(-bound, bound)
    return SliceData(poset, entries)


def test_antichain_inverts_to_identity():
    poset = StratPoset(["a", "b", "c"], [])
    data = SliceData(poset, {})
    inverse = mobius_inverse(data)
    assert inverse == {(i, i): 1 for i in range(3)}


def test_two_chain():
    poset = StratPoset(["a", "b"], [(0, 1)])
    data = SliceData(poset, {(0, 1): 7})
    inverse = mobius_inverse(data)
    assert inverse[(0, 1)] == -7


def test_diagonal_must_be_one():
    poset = StratPoset(["a"], [])
    with pytest.raises(RejectedInputError):
        SliceData(poset, {(0, 0): 2})


def test_entries_off_cone_rejected():
    poset = StratPoset(["a", "b"], [])
    with pytest.raises(RejectedInputError):
        SliceData(poset, {(0, 1): 1})


def test_mobius_product_identity_randomized():
    rng = random.Random(101)
    for _ in range(50):
        poset = random_poset(rng)
        data = random_slice_data(poset, rng)
        inverse = mobius_inverse(data)
        for i in range(poset.size):
            for k in range(poset.size):
                if not poset.leq(i, k):
                    assert inverse.get((i, k), 0) == 0
                    continue
                left = sum(
                    data.value(i, j) * inverse.get((j, k), 0)
                    for j in poset.interval(i, k)
                )
                right = sum(
                    inverse.get((i, j), 0) * data.value(j, k)
                    for j in poset.interval(i, k)
                )
                want = 1 if i == k else 0
                assert left == want and right == want


def test_determinantal_binomial_pair():
    assert det_n(2, 2, 1, 1) == 1
    assert det_n(2, 2, 1, 2) == 1
    assert det_n(2, 3, 1, 2) == -1
    assert det_m(2, 2, 1, 2) == -1
    for m in range(1, 6):
        for n in range(1, 6):
            t = min(m, n)
            for i in range(1, t + 1):
                assert det_n(m, n, i, i) == 1
                for k in range(i, t + 1):
                    total = sum(
                        det_n(m, n, i, j) * det_m(m, n, j, k) for j in range(i, k + 1)
                    )
                    assert total == (1 if i == k else 0)


def test_det_range_rejected():
    with pytest.raises(RejectedInputError):
        det_n(2, 2, 2, 1)
    with pytest.raises(RejectedInputError):
        det_n(2, 3, 0, 1)
    with pytest.raises(RejectedInputError):
        det_m(2, 2, 1, 3)


def test_radial_from_eu_examples():
    single = StratPoset(["v"], [])
    data = SliceData(single, {})
    assert radial_from_eu(data, IndexVector([5], "Eu")) == 5
    two = StratPoset(["o", "v"], [(0, 1)])
    data = SliceData(two, {(0, 1): 1})
    assert radial_from_eu(data, IndexVector([3, 4], "Eu")) == 7


def test_tag_mismatch_rejected():
    poset = StratPoset(["v"], [])
    data = SliceData(poset, {})
    with pytest.raises(RejectedInputError):
        radial_from_eu(data, IndexVector([1], "radial"))
    with pytest.raises(RejectedInputError):
        eu_from_radial(data, IndexVector([1], "PHN"))


def test_eu_from_radial_single_stratum_identity():
    poset = StratPoset(["v"], [])
    data = SliceData(poset, {})
    assert eu_from_radial(data, IndexVector([9], "radial")) == 9


def test_eu_radial_round_trip():
    rng = random.Random(57)
    for _ in range(10):
        poset = random_poset(rng, max_size=6, force_top=True)
        data = random_slice_data(poset, rng, bound=4)
        eu = IndexVector([rng.randint(-6, 6) for _ in range(poset.size)], "Eu")
        # assemble the radial index of each stratum closure, then invert
        rad = IndexVector(
            [radial_from_eu(data, eu, target=j) for j in range(poset.size)],
            "radial",
        )
        assert eu_from_radial(data, rad) == eu.values[poset.top()]


def test_no_top_rejected():
    poset = StratPoset(["a", "b"], [])
    data = SliceData(poset, {})
    with pytest.raises(RejectedInputError):
        eu_from_radial(data, IndexVector([1, 2], "radial"))


def test_radial_from_phn_examples():
    assert radial_from_phn(1, [1], IndexVector([4], "PHN"), 1, 0) == 4
    # one smoothable stratum: radial = phn + (-1)^(dim-1) chibar
    assert radial_from_phn(1, [1], IndexVector([4], "PHN"), 2, 3) == 4 - 3
    # symbolic (2,2) chain instance
    n12 = det_n(2, 2, 1, 2)
    value = radial_from_phn(2, [n12, 1], IndexVector([5, 7], "PHN"), 3, 2)
    assert value == n12 * 5 + 7 + 2


def test_phn_from_radial_examples():
    assert phn_from_radial(1, [1], IndexVector([4], "radial"), [3], [2]) == 7
    # vanishing chibar data reduces to the plain weighted sum
    assert phn_from_radial(2, [2, -1], IndexVector([1, 1], "radial"), [0, 0], [1, 1]) == 1


def test_phn_radial_round_trip():
    rng = random.Random(91)
    for m, n in [(2, 2), (2, 3), (3, 3), (4, 5), (5, 5)]:
        t = min(m, n)
        rads = [rng.randint(-9, 9) for _ in range(t)]
        chis = [rng.randint(-9, 9) for _ in range(t)]
        dims = [rng.randint(0, 6) for _ in range(t)]
        phn_values = []
        for target in range(1, t + 1):
            mcol = [det_m(m, n, i, target) for i in range(1, target + 1)]
            phn_values.append(
                phn_from_radial(
                    target,
                    mcol,
                    IndexVector(rads[:target], "radial"),
                    chis[:target],
                    dims[:target],
                )
            )
        ncol = [det_n(m, n, i, t) for i in range(1, t + 1)]
        back = radial_from_phn(
            t, ncol, IndexVector(phn_values, "PHN"), dims[t - 1], chis[t - 1]
        )
        assert back == rads[t - 1]


def test_proportionality():
    assert proportionality_check(1, 4, 4)
    assert proportionality_check(2, 3, 6)
    assert not proportionality_check(2, 3, 5)


def test_both_conversions_refuse_a_poset_without_a_unique_top():
    data = SliceData(StratPoset(["a", "b", "c"], [(0, 1), (0, 2)]), {(0, 1): 2})
    with pytest.raises(RejectedInputError, match="^poset has no unique top stratum$"):
        radial_from_eu(data, IndexVector([1, 1, 1], "Eu"))
    with pytest.raises(RejectedInputError, match="^poset has no unique top stratum$"):
        eu_from_radial(data, IndexVector([1, 1, 1], "radial"))
    # a given target needs no top
    assert radial_from_eu(data, IndexVector([1, 1, 1], "Eu"), 1) == 3
    assert eu_from_radial(data, IndexVector([1, 1, 1], "radial"), 1) == -1


def test_linear_extension_deterministic():
    poset = StratPoset(["beta", "alpha", "gamma"], [(1, 0), (0, 2)])
    assert poset.linear_extension() == [1, 0, 2]


def test_cycle_rejected():
    with pytest.raises(RejectedInputError):
        StratPoset(["a", "b"], [(0, 1), (1, 0)])
