"""Finite permutation groups and their Burnside rings.

A group comes in as permutation generators on {1..d}; elements are
enumerated by closure.  The Burnside ring is realized concretely through
the table of marks: the matrix of fixed-point counts |(G/K)^H| over
conjugacy classes of subgroups, lower triangular with positive diagonal
|N_G(K)| / |K| once classes are sorted by ascending order.  Products are
computed through marks (componentwise product, triangular back-solve),
which is quadratic in the number of classes; a direct orbit-counting
route ships in the oracles module to validate it.

The subgroup lattice is built up to conjugacy by cyclic extension
(Neubüser 1960; Pfeiffer, "The subgroups of M24, or how to compute the
table of marks of a finite group", Experimental Math. 6, 1997): only
class representatives are extended, each by one generator of every
cyclic subgroup it misses, and every new class is filled as an orbit
under conjugation by the generators (see PermutationGroup.subgroups for
why this finds every subgroup).  The marks are then read off the class
members: |(G/K)^H| = |G| / (|K| |class(K)|) times the number of
conjugates of K that contain H.  The oracles module keeps the brute
force versions of both, closure of every extension and coset counting.

Geometric inputs (Euler characteristics of orbit spaces, local indices,
isotropy assignments) are always user supplied; this module never
computes topology.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

from .errors import InternalCheckError, RejectedInputError

DEFAULT_GROUP_CAP = 128

# the lattice enumeration stops with RejectedInputError past this many
# subgroups: the group cap bounds the order, not the lattice (C2^6, of
# order 64, has 2825 subgroups and C2^7 has 29212 classes)
MAX_SUBGROUPS = 512


def _compose(p, q):
    """(p . q)(i) = p(q(i))."""
    return tuple(map(p.__getitem__, q))


def _inverse(p):
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def _closure(degree, perms, cap=None):
    identity = tuple(range(degree))
    elements = {identity}
    frontier = [identity]
    gens = [tuple(g) for g in perms]
    while frontier:
        current = frontier.pop()
        for g in gens:
            nxt = _compose(g, current)
            if nxt not in elements:
                if cap is not None and len(elements) >= cap:
                    raise RejectedInputError(
                        f"group order exceeds the configured cap {cap}"
                    )
                elements.add(nxt)
                frontier.append(nxt)
    return frozenset(elements)


class PermutationGroup:
    """A finite permutation group with enumerated elements.

    Generators may be given 0-based; :meth:`from_one_based` accepts the
    wire format where permutations act on {1..d}.
    """

    def __init__(self, degree, generators, cap=DEFAULT_GROUP_CAP):
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
        self.elements = sorted(_closure(self.degree, gens, cap))
        self.identity = tuple(range(self.degree))
        self._subgroup_cache = None
        self._subgroup_orbits = None
        self._class_cache = None
        self._marks_cache = None

    @classmethod
    def from_one_based(cls, degree, generators, cap=DEFAULT_GROUP_CAP):
        return cls(degree, [[x - 1 for x in g] for g in generators], cap)

    @classmethod
    def from_elements(cls, degree, elements):
        g = cls.__new__(cls)
        g.degree = degree
        g.generators = sorted(elements)
        g.elements = sorted(elements)
        g.identity = tuple(range(degree))
        g._subgroup_cache = None
        g._subgroup_orbits = None
        g._class_cache = None
        g._marks_cache = None
        if g.identity not in set(elements):
            raise RejectedInputError("element set does not contain the identity")
        return g

    @property
    def order(self):
        return len(self.elements)

    def element_set(self):
        return frozenset(self.elements)

    def is_subgroup(self, subset):
        subset = frozenset(subset)
        if not subset <= self.element_set():
            return False
        return _closure(self.degree, subset) == subset

    # -- subgroup machinery

    def subgroup_generated_by(self, generators):
        """The subgroup generated by elements of this group.  A generator
        outside the group is rejected before any closure is taken, so the
        work stays bounded by the group order."""
        gens = [tuple(g) for g in generators]
        members = self.element_set()
        if not all(g in members for g in gens):
            raise RejectedInputError("not a subgroup of this group")
        return _closure(self.degree, gens)

    def _cyclic_generators(self):
        """One generator of each cyclic subgroup, in element order."""
        seen = set()
        out = []
        for g in self.elements:
            cyclic = _closure(self.degree, [g])
            if cyclic not in seen:
                seen.add(cyclic)
                out.append(g)
        return out

    def _conjugacy_orbit(self, sub):
        """The conjugacy class of a subgroup, as its orbit under
        conjugation by the generators."""
        orbit = {sub}
        frontier = [sub]
        while frontier:
            current = frontier.pop()
            for g in self.generators:
                image = self.conjugate_subgroup(current, g)
                if image not in orbit:
                    orbit.add(image)
                    frontier.append(image)
        return frozenset(orbit)

    def subgroups(self):
        """Every subgroup, as a frozenset of elements, sorted by order and
        then by sorted element list.

        Cyclic extension (Neubüser 1960; Pfeiffer, Experimental Math. 6,
        1997): starting from the trivial group, each conjugacy-class
        representative H, with its short generator list, is extended by
        each chosen cyclic generator c outside H, closing gens(H) + [c].
        A result not seen before opens a new class, filled at once as its
        orbit under conjugation by the group's generators, and its
        representative is extended in turn.

        Every subgroup is found: a subgroup K > 1 has a maximal subgroup
        M < K, and K = <M, c> for any c in K \\ M.  Conjugating by x with
        xMx^-1 = H, the representative of M's class, gives xKx^-1 =
        <H, xcx^-1> = <H, c'>, where c' is the chosen generator of the
        cyclic group <xcx^-1>, and c' lies outside H.  By induction on the
        order, H is found and extended, so K's class is reached and K lies
        in the orbit that fills it.

        Representatives are extended breadth first, small subgroups with
        cheap closures before large ones, so a group with more than
        MAX_SUBGROUPS subgroups is rejected after little work.
        """
        if self._subgroup_cache is not None:
            return self._subgroup_cache
        n = self.order
        cyclic = self._cyclic_generators()
        trivial = frozenset([self.identity])
        known = {trivial}
        orbits = [frozenset([trivial])]
        todo = deque([(trivial, [])])
        while todo:
            rep, gens = todo.popleft()
            for c in cyclic:
                if c in rep:
                    continue
                extended = gens + [c]
                bigger = _closure(self.degree, extended)
                if n % len(bigger) != 0:
                    raise InternalCheckError("closure violated Lagrange")
                if bigger in known:
                    continue
                orbit = self._conjugacy_orbit(bigger)
                known.update(orbit)
                if len(known) > MAX_SUBGROUPS:
                    raise RejectedInputError(
                        f"the subgroup lattice has more than {MAX_SUBGROUPS} subgroups"
                    )
                orbits.append(orbit)
                todo.append((bigger, extended))
        self._subgroup_orbits = orbits
        self._subgroup_cache = sorted(known, key=lambda s: (len(s), sorted(s)))
        return self._subgroup_cache

    def conjugate_subgroup(self, sub, g):
        ginv = _inverse(g)
        return frozenset(_compose(_compose(g, h), ginv) for h in sub)

    def subgroup_classes(self):
        """Conjugacy classes of subgroups, sorted by ascending order with
        ties broken by the canonical (minimal) sorted element list."""
        if self._class_cache is not None:
            return self._class_cache
        self.subgroups()
        classes = [
            (min(members, key=lambda s: sorted(s)), members)
            for members in self._subgroup_orbits
        ]
        classes.sort(key=lambda pair: (len(pair[0]), sorted(pair[0])))
        result = []
        lookup = {}
        for index, (canonical, members) in enumerate(classes):
            result.append(
                SubgroupClass(
                    index=index,
                    representative=canonical,
                    order=len(canonical),
                    members=members,
                )
            )
            for m in members:
                lookup[m] = index
        self._class_cache = (result, lookup)
        return self._class_cache

    def classes(self):
        return self.subgroup_classes()[0]

    def class_of(self, subgroup):
        subgroup = frozenset(subgroup)
        classes, lookup = self.subgroup_classes()
        if subgroup not in lookup:
            raise RejectedInputError("not a subgroup of this group")
        return lookup[subgroup]

    def cosets(self, subgroup):
        """Left cosets gK, each a frozenset, deterministic order."""
        subgroup = frozenset(subgroup)
        seen = set()
        out = []
        for g in self.elements:
            if g in seen:
                continue
            coset = frozenset(_compose(g, k) for k in subgroup)
            seen |= coset
            out.append(coset)
        return out

    def table_of_marks(self):
        """Rows indexed by the G-set class G/K, columns by the fixing
        subgroup class H: entry |(G/K)^H|.  Lower triangular for the
        sorted class list; diagonal |N_G(K)| / |K| > 0.

        A coset gK is fixed by H exactly when H lies in gKg^-1, and each
        conjugate of K arises from |N_G(K)| = |G| / |class(K)| elements g,
        so |(G/K)^H| = |G| / (|K| |class(K)|) times the number of class
        members containing H: one subset test per member."""
        if self._marks_cache is not None:
            return self._marks_cache
        classes = self.classes()
        matrix = []
        for row_class in classes:
            normalizer_index, rest = divmod(
                self.order, row_class.order * len(row_class.members)
            )
            if rest:
                raise InternalCheckError("class size does not divide |G| / |K|")
            matrix.append(
                tuple(
                    normalizer_index
                    * sum(1 for k in row_class.members if col_class.representative <= k)
                    for col_class in classes
                )
            )
        self._marks_cache = TableOfMarks(self, tuple(matrix))
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


class TableOfMarks:
    def __init__(self, group, matrix):
        self.group = group
        self.matrix = matrix

    def __repr__(self):
        return f"TableOfMarks({self.matrix!r})"


def subgroup_classes(group):
    """Complete duplicate-free classification of subgroups up to
    conjugacy."""
    return group.classes()


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

    def __sub__(self, other):
        self._check_same_group(other)
        out = dict(self.coefficients)
        for k, v in other.coefficients.items():
            out[k] = out.get(k, 0) - v
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
        table = self.group.table_of_marks().matrix
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


def burnside_mul(a, b):
    """Product in the Burnside ring via the marks homomorphism: marks
    multiply componentwise and the triangular table of marks back-solves
    to coefficients.  The solve is integral for genuine mark vectors; a
    non-integral solve indicates a marks bug and is reported as such."""
    a._check_same_group(b)
    group = a.group
    table = group.table_of_marks().matrix
    n = len(table)
    target = [x * y for x, y in zip(a.marks(), b.marks())]
    coeffs = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = Fraction(target[i])
        for j in range(i + 1, n):
            acc -= coeffs[j] * table[j][i]
        if table[i][i] == 0:
            raise InternalCheckError("table of marks has a zero diagonal")
        coeffs[i] = acc / table[i][i]
    out = {}
    for i, c in enumerate(coeffs):
        if c.denominator != 1:
            raise InternalCheckError(
                "marks back-solve produced a non-integral coefficient"
            )
        if c != 0:
            out[i] = int(c)
    return BurnsideElement(group, out)


def r0(a):
    """Sum of the coefficients: the additive homomorphism sending every
    [G/H] to 1."""
    return sum(a.coefficients.values())


# ---------------------------------------------------------------------------
# restriction and induction


def subgroup_as_group(group, subgroup):
    """The subgroup as a PermutationGroup of the same degree."""
    subgroup = frozenset(subgroup)
    if not group.is_subgroup(subgroup):
        raise RejectedInputError("not a subgroup of this group")
    return PermutationGroup.from_elements(group.degree, subgroup)


def restriction(a, subgroup):
    """Restrict a G-element to a subgroup H: decompose each G/K into
    H-orbits with their stabilizers H meet gKg^{-1}.  Returns the element
    over the subgroup (as its own PermutationGroup)."""
    group = a.group
    h_group = (
        subgroup
        if isinstance(subgroup, PermutationGroup)
        else subgroup_as_group(group, subgroup)
    )
    h_set = h_group.element_set()
    if not h_set <= group.element_set():
        raise RejectedInputError("not a subgroup of this group")
    out = BurnsideElement.zero(h_group)
    for class_index, coeff in a.coefficients.items():
        k_sub = group.classes()[class_index].representative
        cosets = group.cosets(k_sub)
        unseen = set(range(len(cosets)))
        position = {coset: i for i, coset in enumerate(cosets)}
        while unseen:
            start = unseen.pop()
            orbit = {start}
            frontier = [start]
            while frontier:
                current = frontier.pop()
                rep = next(iter(cosets[current]))
                for h in h_group.generators:
                    image = position[
                        frozenset(_compose(h, _compose(rep, k)) for k in k_sub)
                    ]
                    if image not in orbit:
                        orbit.add(image)
                        frontier.append(image)
            unseen -= orbit
            rep = next(iter(cosets[start]))
            stabilizer = frozenset(
                h
                for h in h_set
                if frozenset(_compose(h, _compose(rep, k)) for k in k_sub)
                == cosets[start]
            )
            out = out + BurnsideElement(
                h_group, {h_group.class_of(stabilizer): coeff}
            )
    return out


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
        idx = _isotropy_index(group, isotropy)
        out = out + BurnsideElement(group, {idx: int(chi)})
    return out


def equivariant_radial_index(group, orbit_records):
    """Class of the singular set with multiplicities: sum over orbit
    records of localIndex times [G/isotropy]."""
    out = BurnsideElement.zero(group)
    for isotropy, local_index in orbit_records:
        idx = _isotropy_index(group, isotropy)
        out = out + BurnsideElement(group, {idx: int(local_index)})
    return out


def _isotropy_index(group, isotropy):
    if isinstance(isotropy, int):
        if not (0 <= isotropy < len(group.classes())):
            raise RejectedInputError(f"no subgroup class with index {isotropy}")
        return isotropy
    return group.class_of(group.subgroup_generated_by(isotropy))


def equivariant_ph_check(group, orbit_indices, chi_g):
    """Check the equivariant Poincare-Hopf identity: the sum over singular
    orbits of the inductions of their local equivariant indices must be
    the equivariant Euler characteristic of the manifold."""
    if chi_g.group != group:
        raise RejectedInputError("Euler characteristic is over the wrong group")
    total = BurnsideElement.zero(group)
    for local_element, _subgroup in orbit_indices:
        total = total + induction(local_element, group)
    return total == chi_g


def equivariant_gsv_from_radial(rad, chibar_g):
    """Equivariant GSV index from the radial one: their difference is the
    reduced equivariant Euler characteristic of the Milnor fibre."""
    rad._check_same_group(chibar_g)
    return rad + chibar_g
