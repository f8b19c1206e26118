"""Finite permutation groups and their Burnside rings.

A group comes in as permutation generators on {1..d}; elements are
enumerated by closure.  The Burnside ring is realized concretely through
the table of marks: the matrix of fixed-point counts |(G/K)^H| over
conjugacy classes of subgroups, lower triangular with positive diagonal
|N_G(K)| / |K| once classes are sorted by ascending order.  Products and
restrictions go through marks and one triangular back-solve, quadratic
in the number of classes: marks multiply componentwise, and res(a) to H
has at each subgroup of H the mark of a at its class in G (tom Dieck,
LNM 766, 1979).  Orbit-counting routes in the oracles module check both.

The subgroup lattice is built up to conjugacy by cyclic extension
(Neubüser 1960; Pfeiffer, "The subgroups of M24, or how to compute the
table of marks of a finite group", Experimental Math. 6, 1997): only
class representatives are extended, each by one generator of every
cyclic subgroup it misses, and every new class is filled as an orbit
under conjugation by the non-central generators (see
PermutationGroup.subgroups for why this finds every subgroup).  An
extension that Lagrange decides is not closed: when a known subgroup K
contains H with prime index, <H, c> = K for every c in K \\ H, so such
c find nothing new.  It runs on one multiplication table
over the sorted elements' indices: each extension is closed coset by
coset (Dimino; Butler, "Fundamental Algorithms for Permutation Groups",
LNCS 559, 1991), and a subgroup is an int bitmask.  The marks are then
read off the class members: |(G/K)^H| = |G| / (|K| |class(K)|) times
the number of conjugates of K that contain H, one bitmask test each.
The oracles module keeps the brute force versions of both, closure of
every extension and coset counting.

Geometric inputs (Euler characteristics of orbit spaces, local indices,
isotropy assignments) are always user supplied; this module never
computes topology.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from itertools import accumulate

from .errors import InternalCheckError, RejectedInputError

DEFAULT_GROUP_CAP = 128

# the lattice enumeration stops with RejectedInputError past this many
# subgroups: the group cap bounds the order, not the lattice (C2^6, of
# order 64, has 2825 subgroups and C2^7 has 29212 classes)
MAX_SUBGROUPS = 512


def _compose(p, q):
    """(p . q)(i) = p(q(i))."""
    return tuple(map(p.__getitem__, q))


def _closure(degree, perms):
    """(elements, images): the group generated by perms, and for each
    generator g the dict sending every element x to g . x, kept as the
    closure composes it so that the multiplication table reads it."""
    identity = tuple(range(degree))
    elements = {identity}
    frontier = [identity]
    gens = [tuple(g) for g in perms]
    images = [{} for _ in gens]
    while frontier:
        current = frontier.pop()
        for g, image in zip(gens, images):
            nxt = image[current] = _compose(g, current)
            if nxt not in elements:
                if len(elements) >= DEFAULT_GROUP_CAP:
                    raise RejectedInputError(
                        f"group order exceeds the configured cap {DEFAULT_GROUP_CAP}"
                    )
                elements.add(nxt)
                frontier.append(nxt)
    return elements, images


def _mask(points):
    """The bitmask of a set of element indices."""
    out = 0
    for i in points:
        out |= 1 << i
    return out


def _dimino(rows, elems, mask, gens, c):
    """<H, c> for H = <gens>, given by its element indices and bitmask,
    closed coset by coset (Dimino; Butler, LNCS 559, 1991).  The result
    is kept a union of right cosets H.r: when a representative r times a
    generator s falls outside it, the whole coset H.(r.s) joins by
    lookups.  Once no such product falls outside, the union is closed
    under right multiplication by gens + [c], so it is <H, c>."""
    hrows = [rows[h] for h in elems]
    elems = list(elems)
    gens = gens + [c]
    reps = [0]
    for r in reps:
        row = rows[r]
        for s in gens:
            x = row[s]
            if not mask >> x & 1:
                coset = [h_row[x] for h_row in hrows]
                elems += coset
                mask |= _mask(coset)
                reps.append(x)
    return elems, mask


def _conjugations(rows, gens):
    """The index maps x -> g x g^-1, one per generator g that is not
    central.  A central generator's map is the identity and moves no
    subgroup, so it is left out: an abelian group has none."""
    out = []
    for g in gens:
        g_inv = rows[g].index(0)
        conjugation = [rows[x][g_inv] for x in rows[g]]
        if conjugation != rows[0]:
            out.append(conjugation)
    return out


class PermutationGroup:
    """A finite permutation group with enumerated elements.

    Generators may be given 0-based; :meth:`from_one_based` accepts the
    wire format where permutations act on {1..d}.
    """

    # computed on first use, once per group; _lattice is (classes,
    # lookup, masks), all three built by subgroups()
    _table = _lattice = _subgroup_cache = _marks_cache = None
    # the generators' images from _closure, read once by _indexed
    _images = None

    def __init__(self, degree, generators):
        self.degree = int(degree)
        gens = []
        for g in generators:
            g = tuple(int(x) for x in g)
            if sorted(g) != list(range(self.degree)):
                raise RejectedInputError(
                    f"{g} is not a permutation of 0..{self.degree - 1}"
                )
            gens.append(g)
        self.generators = gens
        elements, self._images = _closure(self.degree, gens)
        self.elements = sorted(elements)
        self.identity = tuple(range(self.degree))

    @classmethod
    def from_one_based(cls, degree, generators):
        return cls(degree, [[x - 1 for x in g] for g in generators])

    @classmethod
    def from_elements(cls, degree, elements):
        g = cls.__new__(cls)
        g.degree = degree
        g.generators = g.elements = sorted(elements)
        g.identity = tuple(range(degree))
        if g.identity not in g.elements:
            raise RejectedInputError("element set does not contain the identity")
        return g

    @property
    def order(self):
        return len(self.elements)

    def element_set(self):
        return frozenset(self.elements)

    def _indexed(self):
        """(index, rows, gens): index i stands for self.elements[i], so
        sorted index lists order like sorted element lists and the identity
        is 0; rows[a][b] is the index of elements[a] . elements[b]; gens
        indexes generators.  Only their rows are built from the elements,
        read off the closure's images (composed here for a group made by
        from_elements, which takes no closure): the row of g.x is the row
        of x looked up in the row of g."""
        if self._table is None:
            els = self.elements
            images = self._images
            index = {g: i for i, g in enumerate(els)}
            rows = [None] * len(els)
            rows[0] = list(range(len(els)))
            reached, gens, gen_rows = [0], [], []
            for i, p in enumerate(self.generators):
                if rows[index[p]] is not None:
                    continue
                gens.append(index[p])
                image = images[i].__getitem__ if images else partial(_compose, p)
                gen_rows.append(list(map(index.__getitem__, map(image, els))))
                for x in reached:
                    for g_row in gen_rows:
                        y = g_row[x]
                        if rows[y] is None:
                            rows[y] = [g_row[v] for v in rows[x]]
                            reached.append(y)
            self._table = (index, rows, gens)
            self._images = None
        return self._table

    # -- subgroup machinery

    def subgroup_generated_by(self, generators):
        """The subgroup generated by elements of this group.  A generator
        outside the group is rejected before any closure is taken, so the
        work stays bounded by the group order.  It is closed by one
        Dimino step per generator not yet in it."""
        index, rows, _ = self._indexed()
        points = [index.get(tuple(g)) for g in generators]
        if None in points:
            raise RejectedInputError("not a subgroup of this group")
        elems, mask, gens = [0], 1, []
        for g in points:
            if not mask >> g & 1:
                elems, mask = _dimino(rows, elems, mask, gens, g)
                gens.append(g)
        return frozenset(map(self.elements.__getitem__, elems))

    def subgroups(self):
        """Every subgroup, as a frozenset of elements, sorted by order and
        then by sorted element list.

        Cyclic extension (Neubüser 1960; Pfeiffer, Experimental Math. 6,
        1997): starting from the trivial group, each conjugacy-class
        representative H, with its short generator list, is extended by
        each chosen cyclic generator c outside H, closing gens(H) + [c].
        A result not seen before opens a new class, filled at once as its
        orbit under conjugation by the group's non-central generators (a
        central one fixes every subgroup), and its representative is
        extended in turn.

        Every subgroup is found: a subgroup K > 1 has a maximal subgroup
        M < K, and K = <M, c> for any c in K \\ M.  Conjugating by x with
        xMx^-1 = H, the representative of M's class, gives xKx^-1 =
        <H, xcx^-1> = <H, c'>, where c' is the chosen generator of the
        cyclic group <xcx^-1>, and c' lies outside H.  By induction on the
        order, H is found and extended, so K's class is reached and K lies
        in the orbit that fills it.

        Two rules skip a c whose extension is already known, which keeps
        that step.  First, <H, x> = <H, c> for x in the coset Hc, which
        the closure of <H, c> adds first.  Second, Lagrange: if a known
        subgroup K contains H with prime index p, then H < <H, c> <= K
        leaves <H, c> = K for every c in K \\ H.  So before H is extended,
        the known members of order |H| p that contain H are marked, for
        each prime p dividing |G|, and so are the members of each class
        that a closure of prime index over H opens.  A skipped c' thus
        gives a subgroup already found, and xKx^-1 = <H, c'> is reached
        either way.

        It runs on element indices (see _indexed): cyclic generators from
        power chains, <H, c> closed by _dimino from the elements of H,
        subgroups as bitmasks, members listed by order for the prime-index
        rule, one conjugation map per non-central generator.  The same
        pass records the classes, each subgroup's class index and the
        bitmasks that table_of_marks reads, as _lattice.

        Representatives are extended breadth first, small subgroups with
        cheap closures before large ones, so a group with more than
        MAX_SUBGROUPS subgroups is rejected after little work.
        """
        if self._subgroup_cache is not None:
            return self._subgroup_cache
        n = self.order
        _, rows, gens = self._indexed()
        conjugations = _conjugations(rows, gens)
        primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]
        cyclic, seen = [], set()
        for g in range(1, n):
            power, mask = g, 0
            while power:
                mask |= 1 << power
                power = rows[power][g]
            if mask not in seen:
                seen.add(mask)
                cyclic.append(g)
        members = {1: [0]}
        by_order = {1: [1]}
        orbits = [[1]]
        todo = deque([([0], 1, [])])
        while todo:
            elems, mask, extended = todo.popleft()
            h = len(elems)
            # <H, x> = K for x in K \ H when [K : H] is prime
            done = mask
            for p in primes:
                for k in by_order.get(h * p, ()):
                    if k & mask == mask:
                        done |= k
            for c in cyclic:
                if done >> c & 1:
                    continue
                bigger, big = _dimino(rows, elems, mask, extended, c)
                # <H, x> = <H, c> for x in Hc, the coset _dimino adds first
                done |= _mask(bigger[h:2 * h])
                if n % len(bigger) != 0:
                    raise InternalCheckError("closure violated Lagrange")
                if big in members:
                    continue
                orbit = {big: bigger}
                frontier = [bigger]
                for current in frontier:
                    for conj in conjugations:
                        image = [conj[e] for e in current]
                        image_mask = _mask(image)
                        if image_mask not in orbit:
                            orbit[image_mask] = image
                            frontier.append(image)
                members.update(orbit)
                if len(members) > MAX_SUBGROUPS:
                    raise RejectedInputError(
                        f"the subgroup lattice has more than {MAX_SUBGROUPS} subgroups"
                    )
                by_order.setdefault(len(bigger), []).extend(orbit)
                if len(bigger) // h in primes:
                    for k in orbit:
                        if k & mask == mask:
                            done |= k
                orbits.append(list(orbit))
                todo.append((bigger, big, extended + [c]))
        key = {m: (len(e), sorted(e)) for m, e in members.items()}
        as_set = {m: frozenset(map(self.elements.__getitem__, e)) for m, e in members.items()}
        masks = sorted(((min(orbit, key=key.get), orbit) for orbit in orbits), key=lambda c: key[c[0]])
        classes = [
            SubgroupClass(i, as_set[rep], len(as_set[rep]), frozenset(map(as_set.get, orbit)))
            for i, (rep, orbit) in enumerate(masks)
        ]
        lookup = {as_set[k]: i for i, (_, orbit) in enumerate(masks) for k in orbit}
        self._lattice = (classes, lookup, masks)
        self._subgroup_cache = [as_set[m] for m in sorted(members, key=key.get)]
        return self._subgroup_cache

    def subgroup_classes(self):
        """(classes, lookup): the conjugacy classes of subgroups, sorted by
        ascending order with ties broken by the canonical (minimal) sorted
        element list, and each subgroup's class index, as subgroups()
        found them."""
        if self._lattice is None:
            self.subgroups()
        return self._lattice[:2]

    def classes(self):
        return self.subgroup_classes()[0]

    def class_of(self, subgroup):
        subgroup = frozenset(subgroup)
        classes, lookup = self.subgroup_classes()
        if subgroup not in lookup:
            raise RejectedInputError("not a subgroup of this group")
        return lookup[subgroup]

    def table_of_marks(self):
        """The table as a tuple of rows: rows indexed by the G-set class
        G/K, columns by the fixing subgroup class H, entry |(G/K)^H|.
        Lower triangular for the sorted class list; diagonal
        |N_G(K)| / |K| > 0.

        A coset gK is fixed by H exactly when H lies in gKg^-1, and each
        conjugate of K arises from |N_G(K)| = |G| / |class(K)| elements g,
        so |(G/K)^H| = |G| / (|K| |class(K)|) times the number of class
        members containing H.  Each column H is filled in one pass, one
        subset test per member of H's class and of the classes after
        it."""
        if self._marks_cache is not None:
            return self._marks_cache
        classes = self.classes()
        masks = self._lattice[2]
        n = len(classes)
        weights = []
        for row_class in classes:
            normalizer_index, rest = divmod(
                self.order, row_class.order * len(row_class.members)
            )
            if rest:
                raise InternalCheckError("class size does not divide |G| / |K|")
            weights.append(normalizer_index)
        # H lies in no subgroup of a class sorted before its own, so column
        # j reads only the members of classes j, j + 1, ...
        members = [(i, k) for i, (_, orbit) in enumerate(masks) for k in orbit]
        starts = list(accumulate((len(orbit) for _, orbit in masks), initial=0))
        matrix = [[0] * n for _ in range(n)]
        for j, (rep, _) in enumerate(masks):
            for i, k in members[starts[j]:]:
                if rep & ~k == 0:
                    matrix[i][j] += weights[i]
        self._marks_cache = tuple(map(tuple, matrix))
        return self._marks_cache

    def __eq__(self, other):
        return (
            isinstance(other, PermutationGroup)
            and self.degree == other.degree
            and self.elements == other.elements
        )

    def __hash__(self):
        return hash((self.degree, tuple(self.elements)))

    def __repr__(self):
        return f"PermutationGroup(degree={self.degree}, order={self.order})"


class SubgroupClass:
    """One conjugacy class of subgroups, with all its members."""

    __slots__ = ("index", "representative", "order", "members")

    def __init__(self, index, representative, order, members):
        self.index = index
        self.representative = representative
        self.order = order
        self.members = members

    def __repr__(self):
        return f"SubgroupClass(index={self.index}, order={self.order})"


# ---------------------------------------------------------------------------
# Burnside ring elements


class BurnsideElement:
    """Integer combination of the transitive G-set classes [G/H]."""

    def __init__(self, group, coefficients=None):
        self.group = group
        coeffs = {}
        for idx, c in (coefficients or {}).items():
            idx = int(idx)
            c = int(c)
            if not (0 <= idx < len(group.classes())):
                raise RejectedInputError(f"no subgroup class with index {idx}")
            if c != 0:
                coeffs[idx] = c
        self.coefficients = coeffs

    @classmethod
    def basis(cls, group, class_index):
        return cls(group, {class_index: 1})

    @classmethod
    def zero(cls, group):
        return cls(group, {})

    @classmethod
    def unit(cls, group):
        """[G/G], the class of the one-point set."""
        full = group.class_of(group.element_set())
        return cls(group, {full: 1})

    def _check_same_group(self, other):
        if self.group != other.group:
            raise RejectedInputError("Burnside elements over different groups")

    def __add__(self, other):
        self._check_same_group(other)
        out = dict(self.coefficients)
        for k, v in other.coefficients.items():
            out[k] = out.get(k, 0) + v
        return BurnsideElement(self.group, out)

    def scale(self, c):
        return BurnsideElement(
            self.group, {k: int(c) * v for k, v in self.coefficients.items()}
        )

    def __eq__(self, other):
        return (
            isinstance(other, BurnsideElement)
            and self.group == other.group
            and self.coefficients == other.coefficients
        )

    def __hash__(self):
        return hash((self.group, tuple(sorted(self.coefficients.items()))))

    def marks(self):
        """The vector of fixed-point counts over subgroup classes."""
        table = self.group.table_of_marks()
        n = len(table)
        out = [0] * n
        for row, c in self.coefficients.items():
            for j in range(n):
                out[j] += c * table[row][j]
        return out

    def class_label(self, idx):
        cls = self.group.classes()[idx]
        if cls.order == 1:
            return "e"
        if cls.order == self.group.order:
            return "G"
        return f"H{idx}"

    def __str__(self):
        if not self.coefficients:
            return "0"
        parts = []
        for idx in sorted(self.coefficients):
            c = self.coefficients[idx]
            label = f"[G/{self.class_label(idx)}]"
            if c == 1:
                parts.append(label)
            elif c == -1:
                parts.append(f"-{label}")
            else:
                parts.append(f"{c}·{label}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"BurnsideElement({self.coefficients!r})"


def _back_solve(group, target):
    """The element of A(group) with the mark vector target.  The table of
    marks is lower triangular with a positive diagonal, so coefficients
    come out from the last class down by exact integer division.  The
    solve is integral for genuine mark vectors; a non-zero remainder
    indicates a marks bug and is reported as such."""
    table = group.table_of_marks()
    out = {}
    for i in range(len(table) - 1, -1, -1):
        if table[i][i] == 0:
            raise InternalCheckError("table of marks has a zero diagonal")
        c, rest = divmod(target[i] - sum(c * table[j][i] for j, c in out.items()), table[i][i])
        if rest:
            raise InternalCheckError(
                "marks back-solve produced a non-integral coefficient"
            )
        if c:
            out[i] = c
    return BurnsideElement(group, out)


def burnside_mul(a, b):
    """Product in the Burnside ring via the marks homomorphism: marks
    multiply componentwise and _back_solve returns the coefficients."""
    a._check_same_group(b)
    if not a.coefficients or not b.coefficients:
        # zero needs no lattice of G, which may be past MAX_SUBGROUPS
        return BurnsideElement.zero(a.group)
    return _back_solve(a.group, [x * y for x, y in zip(a.marks(), b.marks())])


def r0(a):
    """Sum of the coefficients: the additive homomorphism sending every
    [G/H] to 1."""
    return sum(a.coefficients.values())


# ---------------------------------------------------------------------------
# restriction and induction


def subgroup_as_group(group, subgroup):
    """The subgroup as a PermutationGroup of the same degree."""
    subgroup = frozenset(subgroup)
    # subgroup_generated_by refuses an element outside the group itself
    if group.subgroup_generated_by(subgroup) != subgroup:
        raise RejectedInputError("not a subgroup of this group")
    return PermutationGroup.from_elements(group.degree, subgroup)


def restriction(a, subgroup):
    """Restrict a G-element to a subgroup H, given by its elements, as an
    element over H (its own PermutationGroup).  A subgroup L of H fixes
    the same points of a G-set read in H or in G, so res(a) has at L the
    mark of a at L's class in G, and marks determine an element."""
    group = a.group
    h_group = subgroup_as_group(group, subgroup)
    if not a.coefficients:
        # zero needs no lattice of G, which may be past MAX_SUBGROUPS
        return BurnsideElement.zero(h_group)
    marks = a.marks()
    return _back_solve(
        h_group, [marks[group.class_of(c.representative)] for c in h_group.classes()]
    )


def induction(a, group):
    """Induce an element over a subgroup H up to G: [H/K] goes to [G/K]."""
    h_group = a.group
    if h_group.degree != group.degree or not (
        h_group.element_set() <= group.element_set()
    ):
        raise RejectedInputError("element is not over a subgroup of the target group")
    out = BurnsideElement.zero(group)
    for class_index, coeff in a.coefficients.items():
        k_sub = h_group.classes()[class_index].representative
        out = out + BurnsideElement(group, {group.class_of(k_sub): coeff})
    return out


# ---------------------------------------------------------------------------
# equivariant Euler characteristics and indices


def equivariant_euler(group, strata):
    """Equivariant Euler characteristic from stratum records: the sum of
    chi(orbit space of the stratum) times [G/isotropy class].  Records
    are (isotropy, chi) pairs; isotropy is a class index or an iterable
    of subgroup elements."""
    out = BurnsideElement.zero(group)
    for isotropy, chi in strata:
        if not isinstance(isotropy, int):
            isotropy = group.class_of(group.subgroup_generated_by(isotropy))
        # BurnsideElement refuses a class index the group does not have
        out = out + BurnsideElement(group, {isotropy: int(chi)})
    return out


def equivariant_radial_index(group, orbit_records):
    """Class of the singular set with multiplicities: sum over orbit
    records of localIndex times [G/isotropy]; the same sum as
    :func:`equivariant_euler` with the local indices as weights."""
    return equivariant_euler(group, orbit_records)


def equivariant_ph_check(group, local_indices, chi_g):
    """Check the equivariant Poincare-Hopf identity: the sum over singular
    orbits of the inductions of their local equivariant indices, each an
    element over its isotropy subgroup, must be the equivariant Euler
    characteristic of the manifold."""
    if chi_g.group != group:
        raise RejectedInputError("Euler characteristic is over the wrong group")
    total = BurnsideElement.zero(group)
    for local_element in local_indices:
        total = total + induction(local_element, group)
    return total == chi_g


def equivariant_gsv_from_radial(rad, chibar_g):
    """Equivariant GSV index from the radial one: their difference is the
    reduced equivariant Euler characteristic of the Milnor fibre."""
    rad._check_same_group(chibar_g)
    return rad + chibar_g
