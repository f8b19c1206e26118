"""Integer calculus on stratification posets.

A variety stratified by V_0, ..., V_q carries a partial order (i precedes
j when V_i lies in the closure of V_j) and, for comparable pairs, integer
slice data n_ij normalized by n_ii = 1.  The operations here convert
between the radial index, the Euler obstruction, and the Nash-bundle
index of a 1-form by Moebius inversion of that data, and provide the
closed binomial form of the slice numbers on generic determinantal
varieties.

All topology (Euler characteristics of Milnor fibres, obstruction values
on strata) enters as user-supplied integers; everything computed here is
exact integer arithmetic, checkable in itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import RejectedInputError


class StratPoset:
    """Finite poset of strata given by labels and covering pairs.

    The strict order is the transitive closure of the covers; i < j reads
    "stratum i lies in the closure of stratum j".  Incomparable pairs
    carry value 0 in every matrix built on the poset.
    """

    def __init__(self, labels, covers):
        self.labels = [str(x) for x in labels]
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise RejectedInputError("stratum labels must be distinct", field="strata")
        below = [set() for _ in range(n)]  # below[j] = {i : i < j}
        for i, j in covers:
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise RejectedInputError(f"bad cover pair ({i}, {j})", field="covers")
            below[j].add(i)
        # transitive closure
        changed = True
        while changed:
            changed = False
            for j in range(n):
                extra = set()
                for i in below[j]:
                    extra |= below[i]
                if not extra <= below[j]:
                    below[j] |= extra
                    changed = True
        for j in range(n):
            if j in below[j]:
                raise RejectedInputError("order relation has a cycle", field="covers")
        self._below = below

    @property
    def size(self):
        return len(self.labels)

    def less(self, i, j):
        return i in self._below[j]

    def leq(self, i, j):
        return i == j or self.less(i, j)

    def interval(self, i, k):
        """All j with i <= j <= k."""
        return [j for j in range(self.size) if self.leq(i, j) and self.leq(j, k)]

    def top(self):
        """The unique maximal stratum, or None if there is more than one."""
        maximal = [
            j
            for j in range(self.size)
            if not any(self.less(j, k) for k in range(self.size))
        ]
        return maximal[0] if len(maximal) == 1 else None

    def linear_extension(self):
        """Deterministic topological order: ready strata by label."""
        remaining = set(range(self.size))
        order = []
        while remaining:
            # __init__ refuses every cycle, so some stratum is ready
            done = set(order)
            ready = min((j for j in remaining if self._below[j] <= done), key=self.labels.__getitem__)
            order.append(ready)
            remaining.discard(ready)
        return order


class SliceData:
    """Integer function n_ij on comparable pairs with unit diagonal."""

    def __init__(self, poset, entries):
        self.poset = poset
        data = {}
        for (i, j), v in dict(entries).items():
            if not poset.leq(i, j):
                raise RejectedInputError(
                    f"entry ({i}, {j}) given on an incomparable pair"
                )
            data[(i, j)] = int(v)
        for i in range(poset.size):
            if data.setdefault((i, i), 1) != 1:
                raise RejectedInputError("diagonal entries must all be 1")
        self.entries = data

    def value(self, i, j):
        return self.entries.get((i, j), 0)


@dataclass(frozen=True)
class IndexVector:
    """Per-stratum integers tagged by which index they represent."""

    values: tuple
    tag: str

    TAGS = ("radial", "Eu", "PHN")

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))
        if self.tag not in self.TAGS:
            raise RejectedInputError(f"unknown index tag {self.tag!r}")


def _require_tag(vec, tag, length):
    if not isinstance(vec, IndexVector) or vec.tag != tag:
        raise RejectedInputError(f"index vector must be tagged {tag!r}")
    if len(vec.values) != length:
        raise RejectedInputError(
            f"index vector length {len(vec.values)} does not match {length}"
        )


def mobius_inverse(data):
    """The unique integer matrix m with sum over i <= j <= k of
    n_ij m_jk = delta_ik; exists because n is unitriangular on any linear
    extension, and inherits support on comparable pairs only."""
    poset = data.poset
    order = poset.linear_extension()
    result = {}
    for pos_k, k in enumerate(order):
        for pos_i in range(pos_k, -1, -1):
            i = order[pos_i]
            if not poset.leq(i, k):
                continue
            if i == k:
                result[(i, k)] = 1
                continue
            acc = 0
            for j in poset.interval(i, k):
                if j != i:
                    acc += data.value(i, j) * result.get((j, k), 0)
            # n_ii = 1 and i != k force m_ik = -sum
            result[(i, k)] = -acc
    return result


def _target(poset, target):
    """The target stratum: the given one, else the unique top stratum."""
    target = poset.top() if target is None else target
    if target is None:
        raise RejectedInputError("poset has no unique top stratum")
    return target


def radial_from_eu(data, eu, target=None):
    """Radial index of a 1-form on the closure of the target stratum as
    the n-weighted sum of Euler obstructions over the strata below it."""
    poset = data.poset
    target = _target(poset, target)
    _require_tag(eu, "Eu", poset.size)
    return sum(
        data.value(i, target) * eu.values[i]
        for i in range(poset.size)
        if poset.leq(i, target)
    )


def eu_from_radial(data, rad, target=None):
    """Euler obstruction on the closure of the target stratum from the
    radial indices of the stratum closures, by Moebius inversion."""
    poset = data.poset
    target = _target(poset, target)
    _require_tag(rad, "radial", poset.size)
    inverse = mobius_inverse(data)
    return sum(
        inverse.get((i, target), 0) * rad.values[i]
        for i in range(poset.size)
        if poset.leq(i, target)
    )


# ---------------------------------------------------------------------------
# generic determinantal varieties: closed binomial slice data


def _det_range_check(m, n, i, j):
    if not (1 <= i <= j <= min(m, n)):
        raise RejectedInputError(
            f"need 1 <= i <= j <= min(m, n); got i={i}, j={j}, m={m}, n={n}"
        )


def det_n(m, n, i, j):
    """Radial index of a generic linear differential on the rank < j-i+1
    locus inside (m-i+1) x (n-i+1) matrices: (-1)^((m+n)(j-i)) C(m-i, m-j)."""
    _det_range_check(m, n, i, j)
    return (-1) ** ((m + n) * (j - i)) * math.comb(m - i, m - j)


def det_m(m, n, i, j):
    """Moebius inverse partner of det_n on the rank stratification chain:
    (-1)^((m+n+1)(j-i)) C(m-i, m-j)."""
    _det_range_check(m, n, i, j)
    return (-1) ** ((m + n + 1) * (j - i)) * math.comb(m - i, m - j)


# ---------------------------------------------------------------------------
# Nash-bundle index conversions on determinantal chains


def radial_from_phn(t, nvals, phn, dim_v, chibar):
    """Radial index from the Nash-bundle indices on the chain of rank
    strata: sum of n_it phn_i plus (-1)^(dim V - 1) chibar, where chibar
    is the reduced Euler characteristic of the essential smoothing."""
    t = int(t)
    _require_tag(phn, "PHN", t)
    nvals = [int(v) for v in nvals]
    if len(nvals) != t:
        raise RejectedInputError(f"need {t} slice numbers, got {len(nvals)}")
    total = sum(nvals[i] * phn.values[i] for i in range(t))
    sign = -1 if (int(dim_v) - 1) % 2 else 1
    return total + sign * int(chibar)


def phn_from_radial(t, mvals, rad, chibars, dims):
    """Nash-bundle index from radial data on the chain: the m-weighted sum
    of rad_i + (-1)^(dim V_i) chibar_i over the strata."""
    t = int(t)
    _require_tag(rad, "radial", t)
    mvals = [int(v) for v in mvals]
    chibars = [int(c) for c in chibars]
    dims = [int(d) for d in dims]
    if not (len(mvals) == len(chibars) == len(dims) == t):
        raise RejectedInputError("all chain vectors must have length t")
    return sum(
        mvals[i] * (rad.values[i] + (-1 if dims[i] % 2 else 1) * chibars[i])
        for i in range(t)
    )


def proportionality_check(eu_variety, local_index, claimed_eu):
    """True when the claimed obstruction equals the obstruction of the
    variety times the local index, the relation satisfied by radial
    extensions from a stratum."""
    return int(claimed_eu) == int(eu_variety) * int(local_index)
