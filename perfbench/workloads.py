"""Seeded job streams, each job carrying an answer known from its
construction.

A stream is a list of rounds.  Every round of a workload has the same
slots in the same order (the same families at the same sizes); the seed
only picks signs, coefficients, higher-order terms, coordinate changes
and relabellings inside each slot.  That keeps the cost of a round
nearly the same from seed to seed, so a run's numbers depend on the
program rather than on the draw.

Nothing here imports the program under test.  The closed forms behind
each known answer are given next to the family that uses them;
``selfcheck.py`` cross-checks the families against the independent
oracles on small seeds.
"""

from __future__ import annotations

import copy
import math
import random

import polys as P

class Job:
    """One job document and what its report must say."""

    __slots__ = ("doc", "expect", "family", "targets")

    def __init__(self, doc, expect, family, targets=()):
        self.doc = doc
        self.expect = expect
        self.family = family
        # schema paths a mutation may break (small-jobs only)
        self.targets = list(targets)


def _doc(command, payload, op=""):
    return {
        "command": command,
        "op": op,
        "payload": payload,
        "options": {"seed": 0, "degree_cap": 40},
    }


# ---------------------------------------------------------------------------
# semi-quasi-homogeneous germs
#
# With weights w_i = 1 / e_i, the principal parts c_i x_i^e_i all have
# weighted degree 1 and an isolated common zero.  Adding to component i
# only monomials of weighted degree > 1 leaves the germ finitely
# determined by its principal part: the local algebra keeps dimension
# prod(e_i) and a real germ keeps the local degree of (x_1^e_1, ...),
# which is the sign product when every e_i is odd and 0 otherwise.


def _higher_monomials(exps, max_degree):
    lcm = math.lcm(*exps)
    out = []
    n = len(exps)

    def walk(prefix, left):
        if len(prefix) == n:
            if sum(m * (lcm // e) for m, e in zip(prefix, exps)) > lcm:
                out.append(tuple(prefix))
            return
        for k in range(left + 1):
            walk(prefix + [k], left - k)

    walk([], max_degree)
    return out


def _sqh_components(rng, exps, signs=None, hot_terms=2):
    n = len(exps)
    candidates = _higher_monomials(exps, max(exps) + 1)
    comps = []
    for i, e in enumerate(exps):
        sign = signs[i] if signs else 1
        lead = [0] * n
        lead[i] = e
        comp = P.mono(lead, sign * rng.choice((1, 2, 3)))
        for m in rng.sample(candidates, min(hot_terms, len(candidates))):
            comp = P.add(comp, P.mono(m, rng.choice((-3, -2, -1, 1, 2, 3))))
        comps.append(comp)
    return comps


def _dense_unimodular(rng, n=3):
    """Signed permutation followed by three unit shears: determinant +-1,
    and every new coordinate mixes old ones, so generators come out dense."""
    perm = list(range(n))
    rng.shuffle(perm)
    m = [[rng.choice((-1, 1)) if perm[i] == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        j = (i + 1) % n
        c = rng.choice((-1, 1))
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return m


def _mild_unimodular(rng, n=3):
    """Permutation plus one unit shear."""
    perm = list(range(n))
    rng.shuffle(perm)
    m = [[1 if perm[i] == j else 0 for j in range(n)] for i in range(n)]
    i, j = rng.sample(range(n), 2)
    c = rng.choice((-1, 1))
    m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return m


# ---------------------------------------------------------------------------
# elk-signature


def _elk_doc(names, comps, action=None):
    payload = {
        "field": "R",
        "variables": list(names),
        "kind": "vector_field",
        "data": [P.to_text(c, names) for c in comps],
    }
    if action is not None:
        payload["action"] = action
    return _doc("elk", payload)


def _elk_diag(rng, a, b):
    """Plane germ (s1 c1 x^a + h.o.t., s2 c2 y^b + h.o.t.): local degree
    s1 s2 [a odd][b odd], algebra dimension a b."""
    s1, s2 = rng.choice((-1, 1)), rng.choice((-1, 1))
    comps = _sqh_components(rng, (a, b), (s1, s2), hot_terms=rng.choice((1, 2)))
    index = s1 * s2 * (a % 2) * (b % 2)
    return Job(
        _elk_doc(("x", "y"), comps),
        {"exit": 0, "values": {"index": index}, "certificates": {"algebra_dimension": a * b}},
        f"elk-plane-{a}x{b}",
    )


def _elk_zk(rng, k):
    """Realified c z^k + h.o.t. (or its conjugate): a holomorphic germ of
    multiplicity k has local degree k (an antiholomorphic one -k); the
    complexified ideal is (u^k, v^k) up to units, dimension k^2."""
    f = P.mono((k,), rng.choice((1, 2, 3)))
    for e in rng.sample((k + 1, k + 2), rng.choice((1, 2))):
        f = P.add(f, P.mono((e,), rng.choice((-2, -1, 1, 2))))
    re_part, im_part = P.realify([f], 1)
    conj = rng.random() < 0.5
    if conj:  # z -> conj(z) is y -> -y
        flip = lambda p: {m: (-c if m[1] % 2 else c) for m, c in p.items()}
        re_part, im_part = flip(re_part), flip(im_part)
    return Job(
        _elk_doc(("x", "y"), [re_part, im_part]),
        {"exit": 0, "values": {"index": -k if conj else k}, "certificates": {"algebra_dimension": k * k}},
        f"elk-zk-{k}",
    )


def _elk_real4(rng, a, b):
    """Realified holomorphic germ (c1 z1^a + h.o.t., c2 z2^b + h.o.t.) in
    four real variables: local degree = complex colength a b, algebra
    dimension (a b)^2."""
    signs = (rng.choice((-1, 1)), rng.choice((-1, 1)))
    comps = _sqh_components(rng, (a, b), signs, hot_terms=1)
    real = P.realify(comps, 2)
    return Job(
        _elk_doc(("x1", "y1", "x2", "y2"), real),
        {"exit": 0, "values": {"index": a * b}, "certificates": {"algebra_dimension": (a * b) ** 2}},
        f"elk-real4-{a}x{b}",
    )


def _elk_action(rng, a, b, eps):
    """Monomial germ (s1 c1 x^a, s2 c2 y^b) under the sign action
    diag(eps).  The algebra has basis x^i y^j and the group multiplies
    it by eps_x^i eps_y^j.  The pairing pairs x^i y^j with
    x^(a-1-i) y^(b-1-j), so on the invariant monomials it splits into
    hyperbolic planes plus the self-paired middle monomial when a, b are
    odd and it is invariant; that one carries the sign s1 s2.  The
    action must fix the Jacobian class, eps_x^(a-1) eps_y^(b-1) = 1, or
    the averaged functional vanishes on it."""
    s1, s2 = rng.choice((-1, 1)), rng.choice((-1, 1))
    comps = [P.mono((a, 0), s1 * rng.choice((1, 2, 3))), P.mono((0, b), s2 * rng.choice((1, 2, 3)))]
    ex, ey = eps
    inv_dim = sum(1 for i in range(a) for j in range(b) if ex**i * ey**j == 1)
    middle = a % 2 == 1 and b % 2 == 1 and ex ** ((a - 1) // 2) * ey ** ((b - 1) // 2) == 1
    action = [[[ex, 0], [0, ey]]]
    return Job(
        _elk_doc(("x", "y"), comps, action),
        {
            "exit": 0,
            "values": {
                "index": s1 * s2 * (a % 2) * (b % 2),
                "invariant_dimension": inv_dim,
                "invariant_signature": s1 * s2 * int(middle),
            },
            "certificates": {"algebra_dimension": a * b},
        },
        f"elk-action-{a}x{b}",
    )


def elk_round(rng, r):
    """Algebra dimensions 9 to 25, in fixed slots so that every round
    costs about the same: the eleven base slots twice, one more mid-size
    algebra and one large one.  Ten of the 24 jobs cost 0.07-0.1 s and
    span the median; the large algebra is 1 in 24, so the 90th
    percentile falls inside the 0.2-0.3 s group rather than on its edge."""
    plane = lambda *shapes: _elk_diag(rng, *rng.choice(shapes))

    def base():
        return [
            _elk_zk(rng, 3),
            plane((3, 4)),
            _elk_real4(rng, 1, 3),
            _elk_action(rng, 3, 3, rng.choice(((-1, 1), (-1, -1)))),
            plane((4, 3)),
            _elk_real4(rng, 3, 1),
            plane((4, 4)),
            _elk_zk(rng, 4),
            _elk_real4(rng, 2, 2),
            _elk_action(rng, *rng.choice(((3, 5, (1, -1)), (5, 3, (-1, 1))))),
            plane((3, 4), (4, 3)),
        ]

    return base() + [plane((3, 5), (5, 3))] + base() + [plane((5, 5), (4, 6), (6, 4))]


# ---------------------------------------------------------------------------
# local-colength

_XYZ = ("x", "y", "z")


def _colength_job(rng, exps, dense, kind):
    """Semi-quasi-homogeneous germ pulled back along a unimodular linear
    map: an automorphism of the local ring, so the colength stays
    prod(exps)."""
    comps = _sqh_components(rng, exps, [rng.choice((-1, 1)) for _ in exps])
    m = _dense_unimodular(rng) if dense else _mild_unimodular(rng)
    comps = P.linear_change(comps, m)
    value = math.prod(exps)
    payload = {"variables": list(_XYZ), "kind": kind, "data": [P.to_text(c, _XYZ) for c in comps]}
    return Job(
        _doc("smooth-index", payload),
        {"exit": 0, "values": {"index": value}},
        f"colength-{kind}-{'dense' if dense else 'mild'}-{'x'.join(map(str, exps))}",
    )


def _collection_job(rng, exps, partition):
    """Rank-2 section collection whose minors ideal is a semi-quasi-
    homogeneous germ.  Each 2x2 matrix is [[f + p q, p], [q, 1]], which
    has determinant f; a 2x1 block lists two generators directly."""
    comps = _sqh_components(rng, exps, hot_terms=1)
    comps = P.linear_change(comps, _mild_unimodular(rng))
    n = 3
    small = lambda: P.add(
        P.mono([rng.randint(0, 1) for _ in range(n)], rng.choice((-2, -1, 1, 2))),
        P.var(n, rng.randrange(n)),
    )
    text = lambda p: P.to_text(p, _XYZ)
    matrices = []
    rest = list(comps)
    for k in partition:
        if k == 1:
            f = rest.pop(0)
            p, q = small(), small()
            matrices.append([[text(P.add(f, P.mul(p, q))), text(p)], [text(q), "1"]])
        else:
            f, g = rest.pop(0), rest.pop(0)
            matrices.append([[text(f)], [text(g)]])
    payload = {
        "variables": list(_XYZ),
        "kind": "collection",
        "data": {"rank": 2, "partition": list(partition), "matrices": matrices},
    }
    return Job(
        _doc("collection", payload),
        {"exit": 0, "values": {"index": math.prod(exps)}},
        f"collection-{'-'.join(map(str, partition))}",
    )


def _icis_job(rng, variables, equations, form_var, values, family):
    form = ["1" if v == form_var else "0" for v in variables]
    payload = {
        "variables": list(variables),
        "equations": equations,
        "form": form,
        "want": ["gsv", "milnor", "radial"],
    }
    return Job(_doc("icis", payload), {"exit": 0, "values": values}, family)


def _icis_brieskorn(rng, a, b, c):
    """x^a + y^b + z^c with the form dz: mu = (a-1)(b-1)(c-1); the slice
    z = 0 is the curve x^a + y^b with mu = (a-1)(b-1), so by Le-Greuel
    gsv(dz) = (a-1)(b-1)c and radial = gsv - mu = (a-1)(b-1)."""
    names = list(_XYZ)
    rng.shuffle(names)
    x, y, z = names
    coeff = lambda: rng.choice((1, 2, 3))
    eq = f"{coeff()}*{x}^{a} + {coeff()}*{y}^{b} + {coeff()}*{z}^{c}"
    mu = (a - 1) * (b - 1) * (c - 1)
    gsv = (a - 1) * (b - 1) * c
    return _icis_job(rng, _XYZ, [eq], z, {"gsv": gsv, "milnor": mu, "radial": gsv - mu}, f"icis-bp-{a}{b}{c}")


def _icis_tpqr(rng, p, q, r):
    """T_{p,q,r}: x^p + y^q + z^r + c x y z with 1/p + 1/q + 1/r < 1 has
    mu = p + q + r - 1; the slice z = 0 is x^p + y^q, so gsv(dz) =
    mu + (p-1)(q-1)."""
    x, y, z = _XYZ
    c = rng.choice((-2, -1, 1, 2))
    eq = f"{x}^{p} + {y}^{q} + {z}^{r} + {c}*{x}*{y}*{z}"
    mu = p + q + r - 1
    gsv = mu + (p - 1) * (q - 1)
    return _icis_job(rng, _XYZ, [eq], z, {"gsv": gsv, "milnor": mu, "radial": gsv - mu}, f"icis-t-{p}{q}{r}")


def _icis_curve(rng, a, b):
    """Space curve {z = al x + be y, x^a + y^b = 0}, isomorphic to the
    plane curve x^a + y^b (mu = (a-1)(b-1)).  The slice y = 0 has
    multiplicity a, so gsv(dy) = (a-1)(b-1) + (a-1) = (a-1) b."""
    al, be = rng.choice((-2, -1, 1, 2)), rng.choice((-2, -1, 1, 2))
    eqs = [f"z - ({al})*x - ({be})*y", f"x^{a} + {rng.choice((1, 2, 3))}*y^{b}"]
    mu = (a - 1) * (b - 1)
    gsv = (a - 1) * b
    return _icis_job(rng, _XYZ, eqs, "y", {"gsv": gsv, "milnor": mu, "radial": gsv - mu}, f"icis-curve-{a}{b}")


def _non_isolated_job(rng):
    """Monomial generators all inside (x, y) (up to relabelling): the
    z-axis lies in the zero set, so the colength is INFINITE (exit 3).
    Monomials already form a standard basis."""
    names = list(_XYZ)
    rng.shuffle(names)
    gens = [
        P.mono((rng.randint(1, 3), 0, 0), rng.choice((1, 2))),
        P.mono((0, rng.randint(1, 3), 0), rng.choice((1, 2))),
        P.mono((rng.randint(0, 1), 1, rng.randint(1, 2)), rng.choice((1, 2))),
    ]
    payload = {"variables": list(_XYZ), "kind": "vector_field", "data": [P.to_text(g, names) for g in gens]}
    return Job(_doc("smooth-index", payload), {"exit": 3, "values": {"index": "INFINITE"}}, "colength-non-isolated")


def _unit_job(rng, exps):
    """A component with a non-zero constant term: the ideal is the whole
    local ring, index 0 with the NONSINGULAR flag."""
    comps = _sqh_components(rng, exps)
    comps[0] = P.add(comps[0], P.const(3, rng.choice((-3, -1, 1, 2))))
    comps = P.linear_change(comps, _mild_unimodular(rng))
    payload = {"variables": list(_XYZ), "kind": "vector_field", "data": [P.to_text(c, _XYZ) for c in comps]}
    return Job(
        _doc("smooth-index", payload),
        {"exit": 0, "values": {"index": 0}, "flags": ["NONSINGULAR"]},
        "colength-unit",
    )


def local_round(rng, r):
    """Twenty-one slots, so that every round costs about the same.  Nine
    cheap collection and non-isolated slots and the unit germ make up
    about the lower two fifths; three ICIS slots of steady cost (the
    curve x^2 + y^3 twice, Brieskorn-Pham 3,3,3) come next and span the
    median; the other ICIS shapes and the smooth jobs fill the costly
    half, and three T_pqr slots the top seventh, so that neither
    percentile sits on the edge between two groups of unlike cost."""
    def exps(*shapes):
        e = list(rng.choice(shapes))
        rng.shuffle(e)
        return tuple(e)

    return [
        _colength_job(rng, (2, 2, 2), True, "vector_field"),
        _icis_brieskorn(rng, 3, 3, 3),
        _colength_job(rng, exps((2, 2, 3)), True, "one_form"),
        _collection_job(rng, exps((2, 2, 2), (2, 2, 3)), (1, 1, 1)),
        _non_isolated_job(rng),
        _icis_tpqr(rng, 4, 4, 4),
        _collection_job(rng, exps((2, 2, 4), (2, 2, 5)), (1, 1, 1)),
        _icis_curve(rng, 2, 3),
        _collection_job(rng, exps((2, 2, 2)), (2, 1)),
        _icis_brieskorn(rng, *rng.choice(((2, 3, 4), (3, 3, 4)))),
        _colength_job(rng, (2, 2, 2), True, "one_form"),
        _collection_job(rng, exps((2, 2, 2)), (2, 1)),
        _unit_job(rng, exps((2, 2, 2), (2, 2, 3))),
        _non_isolated_job(rng),
        _icis_curve(rng, *rng.choice(((3, 4), (3, 5)))),
        _collection_job(rng, (2, 2, 2), (1, 1, 1)),
        _icis_curve(rng, 2, 3),
        _collection_job(rng, exps((2, 2, 3), (2, 2, 4)), (1, 1, 1)),
        _collection_job(rng, exps((2, 2, 3)), (2, 1)),
        _icis_tpqr(rng, 3, 4, 4),
        _icis_tpqr(rng, *rng.choice(((4, 4, 4), (3, 4, 4)))),
    ]


# ---------------------------------------------------------------------------
# permutation groups with closed-form subgroup class data
#
# A group is a dict: name, degree, generators in one-line 1-based form,
# the sorted orders of its conjugacy classes of subgroups (the last is
# the group order), whether it is abelian, and some proper subgroups
# with their own class orders.  Classes are reported sorted by order,
# so a class whose order occurs once in the list has a known index.


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _rot(n, k=1, offset=0, degree=None):
    degree = degree or n
    g = list(range(1, degree + 1))
    for i in range(n):
        g[offset + i] = offset + (i + k) % n + 1
    return g


def _group(name, degree, gens, orders, subs=(), abelian=False):
    return {"name": name, "degree": degree, "gens": gens, "orders": orders,
            "subs": [{"name": n, "gens": g, "orders": o} for n, g, o in subs], "abelian": abelian}


def _dihedral_orders(n):
    """D_n of order 2n: the cyclic <r^d> (order n/d) for each d | n, and
    the reflection subgroups <r^d, r^i s> (order 2n/d), one class when d
    is odd and two when d is even."""
    orders = [n // d for d in _divisors(n)]
    for d in _divisors(n):
        orders += [2 * n // d] * (1 if d % 2 else 2)
    return sorted(orders)


def _elementary_orders(k):
    """C2^k: subgroups of order 2^j number the Gaussian binomial [k, j]_2."""
    orders = []
    for j in range(k + 1):
        num = den = 1
        for t in range(j):
            num *= 2 ** (k - t) - 1
            den *= 2 ** (t + 1) - 1
        orders += [2**j] * (num // den)
    return orders


def cyclic(n):
    """C_n acting regularly, with its cyclic subgroups C_d."""
    subs = [(f"C{d}", [_rot(n, n // d)], _divisors(d)) for d in _divisors(n)[1:-1]]
    return _group(f"C{n}", n, [_rot(n)], _divisors(n), subs, abelian=True)


def dihedral(n):
    """D_n on the n-gon, with <r> = C_n, <s> = C2 and, for even n,
    <r^2, s> = D_(n/2)."""
    r, s = _rot(n), [(-i) % n + 1 for i in range(n)]
    subs = [(f"C{n}", [r], _divisors(n)), ("C2", [s], [1, 2])]
    if n % 2 == 0 and n >= 4:
        subs.append((f"D{n // 2}", [_rot(n, 2), s], _dihedral_orders(n // 2)))
    return _group(f"D{n}", n, [r, s], _dihedral_orders(n), subs)


def elementary_abelian(k):
    """C2^k on 2k points, with C2^j on its first j factors."""
    gens = []
    for i in range(k):
        g = list(range(1, 2 * k + 1))
        g[2 * i], g[2 * i + 1] = g[2 * i + 1], g[2 * i]
        gens.append(g)
    subs = [(f"C2^{j}", gens[:j], _elementary_orders(j)) for j in range(1, k)]
    return _group(f"C2^{k}", 2 * k, gens, _elementary_orders(k), subs, abelian=True)


def cp_squared(p):
    """C_p x C_p on 2p points (p prime): the trivial group, p + 1 lines
    of order p, and the whole group."""
    a, b = _rot(p, degree=2 * p), _rot(p, offset=p, degree=2 * p)
    return _group(f"C{p}xC{p}", 2 * p, [a, b], [1] + [p] * (p + 1) + [p * p],
                  [(f"C{p}", [a], [1, p])], abelian=True)


_S3_ORDERS = [1, 2, 3, 6]
_A4_ORDERS = [1, 2, 3, 4, 12]
_V4_ORDERS = [1, 2, 2, 2, 4]
S3 = _group("S3", 3, [[2, 1, 3], [2, 3, 1]], _S3_ORDERS, [("C3", [[2, 3, 1]], [1, 3])])
V4 = _group("V4", 4, [[2, 1, 4, 3], [3, 4, 1, 2]], _V4_ORDERS, [("C2", [[2, 1, 4, 3]], [1, 2])], abelian=True)
A4 = _group("A4", 4, [[2, 3, 1, 4], [2, 1, 4, 3]], _A4_ORDERS, [("V4", [[2, 1, 4, 3], [3, 4, 1, 2]], _V4_ORDERS)])
S4 = _group("S4", 4, [[2, 1, 3, 4], [2, 3, 4, 1]], [1, 2, 2, 3, 4, 4, 4, 6, 8, 12, 24], [
    ("A4", [[2, 3, 1, 4], [2, 1, 4, 3]], _A4_ORDERS),
    ("D4", [[2, 3, 4, 1], [3, 2, 1, 4]], _dihedral_orders(4)),
    ("S3", [[2, 3, 1, 4], [2, 1, 3, 4]], _S3_ORDERS),
    ("V4", [[2, 1, 4, 3], [3, 4, 1, 2]], _V4_ORDERS),
])
A5 = _group("A5", 5, [[2, 3, 1, 4, 5], [2, 3, 4, 5, 1]], [1, 2, 3, 4, 5, 6, 10, 12, 60], [
    ("A4", [[2, 3, 1, 4, 5], [2, 1, 4, 3, 5]], _A4_ORDERS),
    ("D5", [[2, 3, 4, 5, 1], [1, 5, 4, 3, 2]], _dihedral_orders(5)),
    ("S3", [[2, 3, 1, 4, 5], [2, 1, 3, 5, 4]], _S3_ORDERS),
])


def _relabel(rng, group):
    """Conjugate the group and its subgroups by a random relabelling of
    the points."""
    d = group["degree"]
    pi = list(range(1, d + 1))
    rng.shuffle(pi)

    def conj(g):
        out = [0] * d
        for i in range(d):
            out[pi[i] - 1] = pi[g[i] - 1]
        return out

    subs = [dict(s, gens=[conj(g) for g in s["gens"]]) for s in group["subs"]]
    return dict(group, gens=[conj(g) for g in group["gens"]], subs=subs)


def _unique_index(orders, order):
    """Class index of the only class of this order, or None."""
    return orders.index(order) if orders.count(order) == 1 else None


def _element(d):
    return {str(k): v for k, v in sorted(d.items()) if v != 0}


def _coef(rng):
    return rng.choice((-3, -2, -1, 1, 2, 3))


def _isotropy_choices(group):
    """Isotropy data whose class index is known: an index, the identity
    (trivial class 0), the whole group (last class), or a subgroup whose
    order is unique among the classes."""
    n = len(group["orders"])
    d = group["degree"]
    out = [(0, [list(range(1, d + 1))]), (n - 1, group["gens"])]
    for s in group["subs"]:
        idx = _unique_index(group["orders"], s["orders"][-1])
        if idx is not None:
            out.append((idx, s["gens"]))
    return out


def burnside_job(rng, group, op):
    group = _relabel(rng, group)
    subs = group["subs"]
    orders = group["orders"]
    n = len(orders)
    order = orders[-1]
    payload = {"group": {"degree": group["degree"], "generators": group["gens"]}}
    cert = {"group_order": order}
    family = f"burnside-{op}-{group['name']}"

    def unit_or_free():
        """c0 [G/1] + cG [G/G]; times [G/K] gives c0 |G|/|K| [G/1] + cG [G/K]
        (G/1 x G/K is |G|/|K| free orbits)."""
        return _coef(rng), _coef(rng)

    if op == "classes":
        return Job(_doc("burnside", payload, op), {"exit": 0, "classes": orders, "certificates": cert}, family)
    if op == "marks":
        return Job(
            _doc("burnside", payload, op),
            {"exit": 0, "marks": {"orders": orders, "normal": group["abelian"]}, "certificates": cert},
            family,
        )
    if op == "mul":
        c0, cg = unit_or_free()
        b = {rng.randrange(n): _coef(rng) for _ in range(rng.randint(1, 3))}
        prod = {}
        for j, bj in b.items():
            prod[0] = prod.get(0, 0) + c0 * bj * (order // orders[j])
            prod[j] = prod.get(j, 0) + cg * bj
        payload["a"] = _element({0: c0, n - 1: cg})
        payload["b"] = _element(b)
        return Job(_doc("burnside", payload, op), {"exit": 0, "values": {"product": _element(prod)}, "certificates": cert}, family)
    if op == "restrict":
        sub = rng.choice(subs)
        c0, cg = unit_or_free()
        payload["a"] = _element({0: c0, n - 1: cg})
        payload["subgroup"] = sub["gens"]
        # [G/1] restricts to |G|/|H| copies of H/1; the point G/G to H/H
        want = _element({0: c0 * (order // sub["orders"][-1]), len(sub["orders"]) - 1: cg})
        return Job(
            _doc("burnside", payload, op),
            {"exit": 0, "values": {"restriction": want}, "subgroup_classes": sub["orders"], "certificates": cert},
            family,
        )
    if op == "induce":
        sub = rng.choice(subs)
        c0 = _coef(rng)
        a = {0: c0}
        want = {0: c0}
        idx = _unique_index(orders, sub["orders"][-1])
        if idx is not None:
            # [H/H] induces to [G/H]
            ch = _coef(rng)
            a[len(sub["orders"]) - 1] = ch
            want[idx] = want.get(idx, 0) + ch
        payload["a"] = _element(a)
        payload["subgroup"] = sub["gens"]
        return Job(_doc("burnside", payload, op), {"exit": 0, "values": {"induction": _element(want)}, "certificates": cert}, family)
    if op in ("euler", "radial"):
        choices = _isotropy_choices(group)
        records, total = [], {}
        for _ in range(rng.randint(2, 4)):
            if rng.random() < 0.5:
                idx = rng.randrange(n)
                iso = idx
            else:
                idx, gens = rng.choice(choices)
                iso = gens
            c = _coef(rng)
            total[idx] = total.get(idx, 0) + c
            records.append({"isotropy": iso, "chiOrbit" if op == "euler" else "index": c})
        if op == "euler":
            payload["strata"] = records
            return Job(_doc("burnside", payload, op), {"exit": 0, "values": {"chi": _element(total)}, "certificates": cert}, family)
        payload["orbits"] = records
        return Job(_doc("equivariant", payload, op), {"exit": 0, "values": {"radial": _element(total)}}, family)
    if op == "ph-check":
        d = group["degree"]
        options = [s["gens"] for s in subs] + [group["gens"], [list(range(1, d + 1))]]
        records, total = [], 0
        for _ in range(rng.randint(1, 3)):
            c = _coef(rng)
            total += c
            # c [H/1] induces to c [G/1]
            records.append({"subgroup": rng.choice(options), "index": {"0": c}})
        holds = rng.random() < 0.7
        chi = {0: total} if holds else {0: total, n - 1: _coef(rng)}
        payload["orbit_indices"] = records
        payload["chi"] = _element(chi)
        return Job(_doc("equivariant", payload, op), {"exit": 0, "values": {"holds": holds}}, family)
    if op == "gsv-from-radial":
        rad = {rng.randrange(n): _coef(rng) for _ in range(rng.randint(1, 3))}
        chibar = {rng.randrange(n): _coef(rng) for _ in range(rng.randint(1, 3))}
        total = dict(rad)
        for k, v in chibar.items():
            total[k] = total.get(k, 0) + v
        payload["radial"] = _element(rad)
        payload["chibar"] = _element(chibar)
        return Job(_doc("equivariant", payload, op), {"exit": 0, "values": {"gsv": _element(total)}}, family)
    raise ValueError(op)


LATTICE_OPS = ("classes", "marks", "mul", "restrict", "induce", "euler", "radial", "ph-check", "gsv-from-radial")


def burnside_round(rng, r):
    """Two passes over eleven groups of order 12 to 49, then A5 once.  An
    A5 job costs about five C7xC7 jobs; at 1 in 23 the A5 jobs sit above
    the 90th percentile, which then falls inside the C7xC7 jobs (2 in
    23) rather than on the edge between the two."""
    groups = [dihedral(8), dihedral(12), S4, elementary_abelian(4), dihedral(15), A4,
              cyclic(24), S4, cp_squared(7), dihedral(10), dihedral(6)]
    slots = groups + groups + [A5]
    ops = [LATTICE_OPS[(s + r) % len(LATTICE_OPS)] for s in range(len(slots))]
    # A5 carries two fifths of a round; keep it on ops of like cost
    ops[-1] = ("marks", "restrict", "euler", "ph-check")[r % 4]
    # ph-check costs twice the other ops on D15 and C7xC7, whose jobs sit
    # near the 90th percentile; keep those slots on ops of like cost
    for s, group in enumerate(slots):
        if group["name"] in ("D15", "C7xC7") and ops[s] == "ph-check":
            ops[s] = "classes"
    return [burnside_job(rng, group, op) for group, op in zip(slots, ops)]


# ---------------------------------------------------------------------------
# small-jobs: strat, tiny groups, tiny germs, and mutations

_OPT_TARGETS = (
    ("type", ("options", "degree_cap"), "forty"),
    ("type", ("options", "seed"), "seed"),
    ("drop", ("command",), None),
    ("drop", ("payload",), None),
)


def _random_poset(rng):
    """Strata 0..n-1 listed along a linear extension, with a unique top."""
    n = rng.randint(3, 6)
    covers = set()
    for j in range(1, n - 1):
        for i in rng.sample(range(j), rng.randint(1, min(2, j))):
            covers.add((i, j))
    for i in range(n - 1):
        covers.add((i, n - 1))
    below = [set() for _ in range(n)]
    for i, j in sorted(covers, key=lambda c: c[1]):
        below[j] |= {i} | below[i]
    return n, sorted(covers), below


def _unitriangular_inverse(nmat):
    """Inverse of an integer unitriangular matrix (upper, in the listed
    order), by back substitution column by column."""
    n = len(nmat)
    inv = [[0] * n for _ in range(n)]
    for k in range(n):
        inv[k][k] = 1
        for i in range(k - 1, -1, -1):
            inv[i][k] = -sum(nmat[i][j] * inv[j][k] for j in range(i + 1, k + 1))
    return inv


def strat_job(rng, op):
    if op == "det-n":
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        i = rng.randint(1, min(m, n))
        j = rng.randint(i, min(m, n))
        c = math.comb(m - i, m - j)
        payload = {"m": m, "n": n, "i": i, "j": j}
        values = {"n": (-1) ** ((m + n) * (j - i)) * c, "m": (-1) ** ((m + n + 1) * (j - i)) * c}
        targets = [("drop", ("payload", "m"), None), ("type", ("payload", "n"), "2"), ("range", ("payload", "i"), 0)]
        return Job(_doc("strat", payload, op), {"exit": 0, "values": values}, "strat-det-n", targets)
    if op == "proportionality":
        eu, local = rng.randint(-5, 5), rng.randint(-5, 5)
        holds = rng.random() < 0.5
        claimed = eu * local + (0 if holds else rng.choice((-1, 1)))
        payload = {"eu_variety": eu, "local_index": local, "claimed_eu": claimed}
        targets = [("drop", ("payload", "claimed_eu"), None), ("type", ("payload", "local_index"), "3")]
        return Job(_doc("strat", payload, op), {"exit": 0, "values": {"proportional": holds}}, "strat-proportionality", targets)
    if op in ("radial-from-phn", "phn-from-radial"):
        t = rng.randint(1, 5)
        vec = lambda: [rng.randint(-4, 4) for _ in range(t)]
        if rng.random() < 0.5:
            m, n = rng.randint(t, t + 3), rng.randint(t, t + 3)
            payload = {"t": t, "m": m, "n": n}
            sign_exp = (m + n) if op == "radial-from-phn" else (m + n + 1)
            # det_n / det_m of (m, n, i, t), i = 1..t
            weights = [(-1) ** (sign_exp * (t - i)) * math.comb(m - i, m - t) for i in range(1, t + 1)]
        else:
            weights = vec()
            payload = {"t": t, ("nvals" if op == "radial-from-phn" else "mvals"): weights}
        if op == "radial-from-phn":
            phn, dim_v, chibar = vec(), rng.randint(0, 4), rng.randint(-3, 3)
            payload.update({"phn": phn, "dim_v": dim_v, "chibar": chibar})
            value = sum(w * p for w, p in zip(weights, phn)) + (1 if dim_v % 2 else -1) * chibar
            values = {"radial": value}
            targets = [("range", ("payload", "t"), 0), ("drop", ("payload", "phn"), None), ("type", ("payload", "dim_v"), "1")]
        else:
            rad, chibars, dims = vec(), vec(), [rng.randint(0, 4) for _ in range(t)]
            payload.update({"radial": rad, "chibars": chibars, "dims": dims})
            value = sum(w * (r + (-1) ** d * c) for w, r, c, d in zip(weights, rad, chibars, dims))
            values = {"phn": value}
            targets = [("drop", ("payload", "dims"), None), ("type", ("payload", "radial"), "1 2")]
        return Job(_doc("strat", payload, op), {"exit": 0, "values": values}, f"strat-{op}", targets)

    n, covers, below = _random_poset(rng)
    nmat = [[int(i == j) for j in range(n)] for i in range(n)]
    entries = {}
    for j in range(n):
        for i in sorted(below[j]):
            v = rng.randint(-3, 3)
            nmat[i][j] = v
            entries[f"{i},{j}"] = v
    payload = {"strata": [f"s{k}" for k in range(n)], "covers": [list(c) for c in covers], "n": entries}
    top = n - 1
    targets = [
        ("drop", ("payload", "strata"), None),
        ("type", ("payload", "strata"), "s0"),
        ("range", ("payload", "covers"), [[0, 99]]),
        ("range", ("payload", "n"), {"0,99": 1}),
    ]
    if op == "mobius":
        inv = _unitriangular_inverse(nmat)
        values = {"m": {f"{i},{k}": inv[i][k] for i in range(n) for k in range(n) if i == k or i in below[k]}}
    elif op == "radial-from-eu":
        eu = [rng.randint(-3, 3) for _ in range(n)]
        payload["vectors"] = {"eu": eu}
        values = {"radial": sum(nmat[i][top] * eu[i] for i in range(n))}
        targets.append(("range", ("payload", "vectors", "eu"), eu[:-1]))
    else:
        inv = _unitriangular_inverse(nmat)
        rad = [rng.randint(-3, 3) for _ in range(n)]
        payload["vectors"] = {"radial": rad}
        values = {"eu": sum(inv[i][top] * rad[i] for i in range(n))}
        targets.append(("range", ("payload", "vectors", "radial"), rad[:-1]))
    return Job(_doc("strat", payload, op), {"exit": 0, "values": values}, f"strat-{op}", targets)


def tiny_group_job(rng, op):
    group = rng.choice((cyclic(2), cyclic(3), cyclic(4), S3, V4, dihedral(4)))
    n = len(group["orders"])
    group_targets = [
        ("drop", ("payload", "group"), None),
        ("type", ("payload", "group", "degree"), str(group["degree"])),
        ("range", ("payload", "group", "generators"), [[1] * group["degree"]]),
    ]
    if op == "r0":
        a = {rng.randrange(n): _coef(rng) for _ in range(rng.randint(1, 3))}
        payload = {"group": {"degree": group["degree"], "generators": group["gens"]}, "a": _element(a)}
        targets = group_targets + [
            ("drop", ("payload", "a"), None),
            ("type", ("payload", "a"), {"x": 1}),
            ("range", ("payload", "a"), {"99": 1}),
        ]
        return Job(_doc("burnside", payload, op), {"exit": 0, "values": {"r0": sum(a.values())}}, "tiny-r0", targets)
    job = burnside_job(rng, group, op)
    job.family = "tiny-" + op
    keys = {"mul": "a", "radial": "orbits", "ph-check": "chi", "gsv-from-radial": "radial"}
    job.targets = group_targets + [("drop", ("payload", keys[op]), None)]
    if op in ("mul", "ph-check", "gsv-from-radial"):
        job.targets.append(("type", ("payload", keys[op]), {"x": 1}))
        job.targets.append(("range", ("payload", keys[op]), {"99": 1}))
    return job


def tiny_germ_job(rng, kind):
    if kind == "elk":
        a, eps = rng.choice(((3, (-1, 1)), (1, (1, -1)), (3, (-1, -1))))
        job = _elk_action(rng, a, 1, eps)
        job.family = "tiny-elk-action"
        job.targets = [
            ("type", ("payload", "action"), [[["a", "0"], ["0", "1"]]]),
            ("range", ("payload", "action"), [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]]),
            ("range", ("payload", "field"), "C"),
        ]
        return job
    a, b = rng.randint(1, 3), rng.randint(1, 3)
    comps = _sqh_components(rng, (a, b), hot_terms=1)
    payload = {"variables": ["x", "y"], "kind": kind, "data": [P.to_text(c, ("x", "y")) for c in comps]}
    targets = [
        ("drop", ("payload", "variables"), None),
        ("type", ("payload", "data"), 7),
        ("range", ("payload", "data"), payload["data"][:1]),
        ("type", ("payload", "data"), ["x^^2", "y"]),
        ("range", ("payload", "kind"), "two_form"),
    ]
    return Job(_doc("smooth-index", payload), {"exit": 0, "values": {"index": a * b}}, f"tiny-{kind}", targets)


def _mutate(rng, job):
    """Break one documented rule of the schema.  The document is then
    rejected input, whose documented outcome is exit 2."""
    targets = job.targets if rng.random() < 0.75 else _OPT_TARGETS
    kind, path, bad = rng.choice(targets)
    doc = copy.deepcopy(job.doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if kind == "drop":
        del node[path[-1]]
    else:
        node[path[-1]] = copy.deepcopy(bad)
    return Job(doc, {"exit": 2, "status": "rejected"}, f"mutation-{kind}-{'.'.join(path)}")


_STRAT_OPS = ("mobius", "radial-from-eu", "eu-from-radial", "det-n", "radial-from-phn", "phn-from-radial", "proportionality", "mobius")
_TINY_GROUP_OPS = ("r0", "mul", "radial", "gsv-from-radial", "ph-check")
_TINY_GERMS = ("vector_field", "one_form", "elk")


def small_round(rng, r):
    jobs = [strat_job(rng, op) for op in _STRAT_OPS]
    jobs += [tiny_group_job(rng, op) for op in _TINY_GROUP_OPS]
    jobs += [tiny_germ_job(rng, k) for k in _TINY_GERMS]
    bases = list(jobs)
    jobs += [_mutate(rng, rng.choice(bases)) for _ in range(4)]
    # interleave so that any prefix of a round has a similar mix
    rng.shuffle(jobs)
    return jobs


ROUND_MAKERS = {
    "elk-signature": elk_round,
    "local-colength": local_round,
    "burnside-lattice": burnside_round,
    "small-jobs": small_round,
}
WORKLOADS = tuple(ROUND_MAKERS)


def make_stream(workload, seed, rounds):
    """`rounds` rounds of jobs, a pure function of (workload, seed)."""
    rng = random.Random(f"{workload}:{seed}")
    make = ROUND_MAKERS[workload]
    return [make(rng, r) for r in range(rounds)]


# ---------------------------------------------------------------------------
# answer checks


def check(expect, code, report):
    """Compare one serialised report with its known answer.

    Returns (exit_ok, problems): exit_ok is False when the exit code
    differs from the expected one; problems lists wrong values in a
    report whose exit code was right."""
    if code != expect["exit"]:
        return False, [f"exit {code}, expected {expect['exit']}"]
    problems = []
    if "status" in expect and report.get("status") != expect["status"]:
        problems.append(f"status {report.get('status')!r}, expected {expect['status']!r}")
    values = report.get("values", {})
    for key, want in expect.get("values", {}).items():
        if values.get(key) != want:
            problems.append(f"values.{key} = {values.get(key)!r}, expected {want!r}")
    certs = report.get("certificates", {})
    for key, want in expect.get("certificates", {}).items():
        if certs.get(key) != want:
            problems.append(f"certificates.{key} = {certs.get(key)!r}, expected {want!r}")
    for flag in expect.get("flags", ()):
        if flag not in report.get("flags", ()):
            problems.append(f"flag {flag} missing")
    if "classes" in expect:
        got = values.get("classes", [])
        if [c.get("order") for c in got] != expect["classes"] or [c.get("index") for c in got] != list(range(len(got))):
            problems.append(f"classes {got!r}, expected orders {expect['classes']!r}")
    if "subgroup_classes" in expect:
        got = [c.get("order") for c in values.get("subgroup_classes", [])]
        if got != expect["subgroup_classes"]:
            problems.append(f"subgroup class orders {got!r}, expected {expect['subgroup_classes']!r}")
    if "marks" in expect:
        problems += _check_marks(values.get("marks"), **expect["marks"])
    return True, problems


def _check_marks(matrix, orders, normal):
    """Closed-form facts of a table of marks with classes sorted by
    order: square of the class count, lower triangular, mark of the
    trivial group on G/K is |G|/|K|, every subgroup fixes the point G/G,
    and for normal subgroups the diagonal |N(K)|/|K| is |G|/|K|."""
    n, order = len(orders), orders[-1]
    if not isinstance(matrix, list) or len(matrix) != n or any(len(row) != n for row in matrix):
        return [f"marks matrix is not {n} x {n}"]
    problems = []
    for i, row in enumerate(matrix):
        if row[0] != order // orders[i]:
            problems.append(f"marks[{i}][0] = {row[0]}, expected {order // orders[i]}")
        if any(row[j] != 0 for j in range(i + 1, n)):
            problems.append(f"marks row {i} is not lower triangular")
        if not row[i] >= 1 or (order // orders[i]) % row[i]:
            problems.append(f"marks[{i}][{i}] = {row[i]} does not divide |G|/|K|")
        if normal and row[i] != order // orders[i]:
            problems.append(f"marks[{i}][{i}] = {row[i]}, expected {order // orders[i]}")
    if matrix[n - 1] != [1] * n:
        problems.append("the point G/G is not fixed by every subgroup")
    return problems
