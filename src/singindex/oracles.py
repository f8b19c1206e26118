"""Independent cross-check implementations.

Each routine here recomputes a quantity of the main pipeline by a
different method: colengths by Macaulay-style truncated linear algebra
with no standard bases anywhere, local degrees of plane and space germs
by explicit boundary-surface winding counts in exact rational arithmetic,
Burnside products by orbit counting on explicit product G-sets, the
subgroup lattice by closing every extension of every subgroup, the
table of marks by counting fixed cosets, and the inertia of a symmetric
matrix from the signs of its characteristic polynomial.
They back the test suite and the CLI's --oracle mode.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .burnside import BurnsideElement
from .errors import InternalCheckError, OracleBudgetError, RejectedInputError
from .grobner import INFINITE
from .poly import (
    GLOBAL_ORDER,
    monomial_degree,
    monomials_up_to_degree,
    parse_polynomial,
)

# ---------------------------------------------------------------------------
# Macaulay truncation colength

# steps after which macaulay_colength gives up; a step is a column
# monomial listed, a generator term multiplied into a row, or a row entry
# touched by the elimination.  10^7 steps take 10 to 30 s of CPython 3.11
# on one x86-64 core.
MACAULAY_BUDGET = 10_000_000


def macaulay_colength(generators, variables=None, max_truncation=32):
    """Local colength by truncated linear algebra.

    For truncation degree T, the dimension of the span of monomials of
    degree < T modulo the truncated multiples of the generators computes
    dim of the quotient by (I + m^T).  The sequence is non-decreasing in
    T and, once two consecutive values agree, Nakayama pins it there
    forever, so that value is the local colength.  Returns INFINITE when
    no stabilization happens up to max_truncation, and raises
    OracleBudgetError after MACAULAY_BUDGET steps.
    """
    if variables is not None:
        gens = [parse_polynomial(g, variables) for g in generators]
    else:
        gens = list(generators)
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return INFINITE
    ctx = gens[0].context
    if any(g.min_degree() == 0 for g in gens):
        return 0
    nvars = len(ctx)
    work = 0

    def spend(units):
        nonlocal work
        work += units
        if work > MACAULAY_BUDGET:
            raise OracleBudgetError(
                f"Macaulay oracle passed its budget of {MACAULAY_BUDGET} steps"
            )

    def corank(truncation):
        cols = monomials_up_to_degree(nvars, truncation)
        spend(len(cols))
        cols.sort(key=GLOBAL_ORDER.key, reverse=True)
        index = {m: i for i, m in enumerate(cols)}
        pivots = {}  # position -> sparse row {position: coeff}, leading 1

        def insert(vec):
            while vec:
                lead = min(vec)
                row = pivots.get(lead)
                if row is None:
                    inv = Fraction(1) / vec[lead]
                    pivots[lead] = {k: v * inv for k, v in vec.items()}
                    return
                spend(len(vec) + len(row))
                f = vec[lead]
                for k, v in row.items():
                    s = vec.get(k, Fraction(0)) - f * v
                    if s == 0:
                        vec.pop(k, None)
                    else:
                        vec[k] = s
        for g in gens:
            room = truncation - g.min_degree()
            for m in monomials_up_to_degree(nvars, room):
                spend(len(g.terms))
                vec = {}
                for mono, c in g.term_mul(m, Fraction(1)).terms.items():
                    if monomial_degree(mono) < truncation:
                        vec[index[mono]] = c
                insert(vec)
        return len(cols) - len(pivots)

    previous = corank(1)
    for truncation in range(2, max_truncation + 1):
        current = corank(truncation)
        if current == previous:
            return current
        previous = current
    return INFINITE


# ---------------------------------------------------------------------------
# winding-number degree of a plane germ


def _circle_points(radius, samples):
    """Rational points exactly on the circle of rational radius, via the
    half-angle parametrization, closed up through (-radius, 0)."""
    pts = []
    span = 24
    for i in range(samples):
        t = Fraction(-span, 1) + Fraction(2 * span * i, samples)
        denom = 1 + t * t
        pts.append((radius * (1 - t * t) / denom, radius * 2 * t / denom))
    pts.append((-radius, Fraction(0)))
    return pts


def winding_degree(components, variables=None, radius=Fraction(1, 4), samples=720):
    """Local degree of a plane map germ as the winding number of its image
    curve along a small circle, computed exactly.

    The circle is sampled at rational points lying exactly on it;
    parameter intervals are bisected until consecutive image vectors stay
    within a quarter turn of each other, and the winding number of the
    resulting polygon is counted by signed crossings of the positive
    horizontal axis.
    """
    if variables is not None:
        comps = [parse_polynomial(c, variables) for c in components]
    else:
        comps = list(components)
    if len(comps) != 2 or len(comps[0].context) != 2:
        raise RejectedInputError("winding degree needs a plane map germ")

    def image(pt):
        v = (comps[0].evaluate(pt), comps[1].evaluate(pt))
        if v == (0, 0):
            raise RejectedInputError(
                "map vanishes on the sample circle; shrink the radius"
            )
        return v

    points = _circle_points(radius, samples)
    points.append(points[0])  # close the cycle
    values = [image(p) for p in points]

    # refine until every consecutive pair is within a quarter turn
    for _round in range(24):
        stable = True
        new_points = []
        new_values = []
        for k in range(len(points) - 1):
            new_points.append(points[k])
            new_values.append(values[k])
            a, b = values[k], values[k + 1]
            if a[0] * b[0] + a[1] * b[1] <= 0:
                stable = False
                mid = (
                    (points[k][0] + points[k + 1][0]) / 2,
                    (points[k][1] + points[k + 1][1]) / 2,
                )
                # project the chord midpoint back onto the circle exactly
                mid = _reproject(mid, radius)
                new_points.append(mid)
                new_values.append(image(mid))
        new_points.append(points[-1])
        new_values.append(values[-1])
        points, values = new_points, new_values
        if stable:
            break
    else:
        raise RejectedInputError("winding refinement failed to converge")

    # count signed crossings of the positive horizontal axis; points with
    # second coordinate 0 count as the upper side (the crossing abscissa
    # has the sign of the edge cross product, exact in rationals)
    winding = 0
    for k in range(len(values) - 1):
        (x1, y1), (x2, y2) = values[k], values[k + 1]
        if (y1 < 0) == (y2 < 0):
            continue
        cross = x1 * y2 - x2 * y1
        if cross == 0:
            raise RejectedInputError("polygon edge passed through the origin")
        if y1 < 0:
            if cross > 0:
                winding += 1
        else:
            if cross < 0:
                winding -= 1
    return winding


def _reproject(pt, radius):
    """A rational point on the circle near pt, again via half angles."""
    x, y = pt
    if x == -radius and y == 0:
        return (-radius, Fraction(0))
    t = y / (x + radius)  # tan of the half angle
    denom = 1 + t * t
    return (radius * (1 - t * t) / denom, radius * 2 * t / denom)


# ---------------------------------------------------------------------------
# boundary degree of a space germ


def boundary_degree_3d(
    components, variables=None, radius=Fraction(1, 4), grid=8
):
    """Local degree of a germ R^3 -> R^3 as the degree of its restriction
    to the boundary of a small cube: the image triangles are tested for
    covering a fixed generic ray, each pierced triangle contributing its
    orientation sign.  All arithmetic is exact; degenerate ray positions
    are retried with other fixed directions."""
    if variables is not None:
        comps = [parse_polynomial(c, variables) for c in components]
    else:
        comps = list(components)
    if len(comps) != 3 or len(comps[0].context) != 3:
        raise RejectedInputError("boundary degree needs a three-variable germ")

    h = radius

    def cube_faces():
        # (axis, sign): outward normal along +-axis
        for axis in range(3):
            for sign in (1, -1):
                yield axis, sign

    def face_point(axis, sign, u, v):
        pt = [Fraction(0)] * 3
        pt[axis] = h * sign
        others = [a for a in range(3) if a != axis]
        pt[others[0]] = -h + 2 * h * u
        pt[others[1]] = -h + 2 * h * v
        return tuple(pt)

    triangles = []
    for axis, sign in cube_faces():
        for i in range(grid):
            for j in range(grid):
                u0, u1 = Fraction(i, grid), Fraction(i + 1, grid)
                v0, v1 = Fraction(j, grid), Fraction(j + 1, grid)
                a = face_point(axis, sign, u0, v0)
                b = face_point(axis, sign, u1, v0)
                c = face_point(axis, sign, u1, v1)
                d = face_point(axis, sign, u0, v1)
                # orient counter-clockwise as seen from outside
                others = [ax for ax in range(3) if ax != axis]
                flip = (sign < 0) ^ ((axis, others[0], others[1]) not in (
                    (0, 1, 2),
                    (1, 2, 0),
                    (2, 0, 1),
                ))
                if flip:
                    triangles.append((a, c, b))
                    triangles.append((a, d, c))
                else:
                    triangles.append((a, b, c))
                    triangles.append((a, c, d))

    def image(pt):
        v = tuple(c.evaluate(pt) for c in comps)
        if v == (0, 0, 0):
            raise RejectedInputError(
                "map vanishes on the sample cube; shrink the radius"
            )
        return v

    images = {}

    def img(pt):
        if pt not in images:
            images[pt] = image(pt)
        return images[pt]

    rays = [
        (Fraction(1), Fraction(1, 3), Fraction(1, 7)),
        (Fraction(2, 5), Fraction(1), Fraction(1, 11)),
        (Fraction(1, 13), Fraction(3, 7), Fraction(1)),
        (Fraction(-1), Fraction(1, 5), Fraction(2, 9)),
    ]
    for ray in rays:
        total = 0
        degenerate = False
        for tri in triangles:
            a, b, c = (img(p) for p in tri)
            det = _det3(a, b, c)
            sol = _solve3(a, b, c, ray)
            if sol is None:
                # singular matrix: degenerate only if the ray lies in the span
                if _in_degenerate_cone(a, b, c, ray):
                    degenerate = True
                    break
                continue
            l1, l2, l3 = sol
            if l1 > 0 and l2 > 0 and l3 > 0:
                total += 1 if det > 0 else -1
            elif l1 >= 0 and l2 >= 0 and l3 >= 0:
                degenerate = True
                break
        if not degenerate:
            return total
    raise RejectedInputError("all ray directions were degenerate; refine the grid")


def _det3(a, b, c):
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - b[0] * (a[1] * c[2] - a[2] * c[1])
        + c[0] * (a[1] * b[2] - a[2] * b[1])
    )


def _solve3(a, b, c, r):
    """Solve x*a + y*b + z*c = r; None when the columns are dependent."""
    det = _det3(a, b, c)
    if det == 0:
        return None
    x = _det3(r, b, c) / det
    y = _det3(a, r, c) / det
    z = _det3(a, b, r) / det
    return x, y, z


def _in_degenerate_cone(a, b, c, ray):
    """Conservative test: the ray could meet a degenerate (flat) image
    triangle, so the caller should pick another ray."""
    # ray lies in the span of a, b, c when the 4-point configuration is flat
    return _det3(a, b, ray) == 0 and _det3(a, c, ray) == 0 and _det3(b, c, ray) == 0


# ---------------------------------------------------------------------------
# permutations and cosets, apart from the burnside module they check


def _compose(p, q):
    """(p . q)(i) = p(q(i))."""
    return tuple(p[i] for i in q)


def _inverse(p):
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def _cosets(group, subgroup):
    """Left cosets gK of the subgroup K, each a frozenset, in the order of
    their first element in the group."""
    seen = set()
    out = []
    for g in group.elements:
        if g not in seen:
            coset = frozenset(_compose(g, k) for k in subgroup)
            seen |= coset
            out.append(coset)
    return out


# ---------------------------------------------------------------------------
# orbit-counting Burnside product


def burnside_mul_by_orbits(group, class_a, class_b):
    """Product [G/A][G/B] by decomposing the explicit product set of
    cosets into orbits and classifying each stabilizer."""
    classes = group.classes()
    a_sub = classes[class_a].representative
    b_sub = classes[class_b].representative
    cosets_a = _cosets(group, a_sub)
    cosets_b = _cosets(group, b_sub)

    def act(g, pair):
        ca, cb = pair
        return (
            frozenset(_compose(g, x) for x in ca),
            frozenset(_compose(g, x) for x in cb),
        )

    points = [(ca, cb) for ca in cosets_a for cb in cosets_b]
    unseen = set(range(len(points)))
    position = {p: i for i, p in enumerate(points)}
    coeffs = {}
    while unseen:
        start = unseen.pop()
        orbit = {start}
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for g in group.generators:
                nxt = position[act(g, points[current])]
                if nxt not in orbit:
                    orbit.add(nxt)
                    frontier.append(nxt)
        unseen -= orbit
        stab = frozenset(
            g for g in group.elements if act(g, points[start]) == points[start]
        )
        idx = group.class_of(stab)
        coeffs[idx] = coeffs.get(idx, 0) + 1
    return BurnsideElement(group, coeffs)


def restriction_by_orbits(group, class_index, subgroup):
    """H-orbit decomposition of G/K computed on the explicit coset set;
    independent route for checking restriction followed by induction."""
    from .burnside import subgroup_as_group

    h_group = subgroup_as_group(group, subgroup)
    k_sub = group.classes()[class_index].representative
    cosets = _cosets(group, k_sub)
    position = {c: i for i, c in enumerate(cosets)}
    unseen = set(range(len(cosets)))
    coeffs = {}
    while unseen:
        start = unseen.pop()
        orbit = {start}
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for h in h_group.elements:
                nxt = position[frozenset(_compose(h, x) for x in cosets[current])]
                if nxt not in orbit:
                    orbit.add(nxt)
                    frontier.append(nxt)
        unseen -= orbit
        stab = frozenset(
            h
            for h in h_group.elements
            if frozenset(_compose(h, x) for x in cosets[start]) == cosets[start]
        )
        idx = h_group.class_of(stab)
        coeffs[idx] = coeffs.get(idx, 0) + 1
    return BurnsideElement(h_group, coeffs), h_group


# ---------------------------------------------------------------------------
# subgroup lattice and table of marks by brute force


def _generated(generators, degree):
    """The subgroup generated by a list of permutations, by a frontier
    closure from the identity: each new element is multiplied by each
    generator once (inverses are positive powers in a finite group)."""
    identity = tuple(range(degree))
    found = {identity}
    frontier = [identity]
    while frontier:
        fresh = []
        for a in frontier:
            for g in generators:
                b = _compose(a, g)
                if b not in found:
                    found.add(b)
                    fresh.append(b)
        frontier = fresh
    return frozenset(found)


def subgroups_by_closure(degree, elements):
    """Every subgroup of the group with the given elements, found by
    closing each known subgroup together with each element in turn.
    Each subgroup keeps the generators it was first found with, so a
    closure costs its order times the number of generators."""
    trivial = frozenset([tuple(range(degree))])
    found = {trivial: []}
    frontier = [trivial]
    while frontier:
        fresh = []
        for sub in frontier:
            for g in elements:
                if g in sub:
                    continue
                generators = found[sub] + [g]
                bigger = _generated(generators, degree)
                if bigger not in found:
                    found[bigger] = generators
                    fresh.append(bigger)
        frontier = fresh
    return set(found)


def marks_by_cosets(group):
    """Table of marks over the group's subgroup classes, each entry
    |(G/K)^H| counted as the left cosets gK with g^-1 H g inside K."""
    classes = group.classes()
    matrix = []
    for row_class in classes:
        k_sub = row_class.representative
        cosets = _cosets(group, k_sub)
        row = []
        for col_class in classes:
            count = 0
            for coset in cosets:
                g = next(iter(coset))
                ginv = _inverse(g)
                if all(
                    _compose(_compose(ginv, h), g) in k_sub
                    for h in col_class.representative
                ):
                    count += 1
            row.append(count)
        matrix.append(tuple(row))
    return tuple(matrix)


# ---------------------------------------------------------------------------
# inertia of a symmetric matrix from its characteristic polynomial


def signature_by_charpoly(matrix):
    """Inertia (pos, neg, zero) of a symmetric rational matrix, read off
    its characteristic polynomial det(tI - A).

    The matrix is first multiplied by the lcm of its denominators, which
    changes the sign of no eigenvalue.  The Faddeev-LeVerrier recursion
    M_1 = I, c_(n-k) = -tr(A M_k) / k, M_(k+1) = A M_k + c_(n-k) I gives
    the coefficients c_n = 1, c_(n-1), ..., c_0; those of an integer
    matrix are integers, and M_(n+1) = p(A) is 0 (Cayley-Hamilton), both
    of which are checked.  A symmetric matrix has only
    real eigenvalues, so Descartes' rule of signs is exact: the sign
    changes of the coefficients count the positive eigenvalues, those of
    p(-t) the negative ones, and the lowest power of t with a non-zero
    coefficient is the number of zero eigenvalues."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    n = len(rows)
    if any(len(row) != n for row in rows) or any(
        rows[i][j] != rows[j][i] for i in range(n) for j in range(i)
    ):
        raise RejectedInputError("the signature oracle needs a symmetric matrix")
    scale = lcm(*(x.denominator for row in rows for x in row))
    a = [[(x * scale).numerator for x in row] for row in rows]
    nonzero = [[(k, x) for k, x in enumerate(row) if x] for row in a]
    coefficients = [1]  # of t^n, t^(n-1), ..., t^0
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        am = []
        for entries in nonzero:
            row = [0] * n
            for l, x in entries:
                row = [r + x * y for r, y in zip(row, m[l])]
            am.append(row)
        c = Fraction(-sum(am[i][i] for i in range(n)), k)
        if c.denominator != 1:
            raise InternalCheckError("characteristic polynomial of an integer matrix is not integral")
        coefficients.append(c.numerator)
        m = [[x + c.numerator * (i == j) for j, x in enumerate(row)] for i, row in enumerate(am)]
    if any(any(row) for row in m):
        # M_(n+1) = p(A) = 0 by Cayley-Hamilton
        raise InternalCheckError("characteristic polynomial does not annihilate the matrix")
    zero = n - max(k for k, c in enumerate(coefficients) if c)

    def sign_changes(signs):
        return sum(1 for s, t in zip(signs, signs[1:]) if s != t)

    pos = sign_changes([c > 0 for c in coefficients if c])
    neg = sign_changes([(c > 0) == ((n - k) % 2 == 0) for k, c in enumerate(coefficients) if c])
    if pos + neg + zero != n:
        raise InternalCheckError("characteristic polynomial has non-real roots")
    return pos, neg, zero
