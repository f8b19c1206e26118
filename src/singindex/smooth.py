"""Indices of singular points on smooth ambient space.

Three families of indices live here, all read off finite dimensional
quotient algebras:

* the colength index of a holomorphic vector field (the local index at an
  algebraically isolated zero equals the dimension of the local algebra);
* the signature index of a real analytic vector field or 1-form: the
  local degree is the signature of <a, b> = phi(ab) on the local algebra
  for any functional phi vanishing on the ideal and positive on the
  Jacobian class (Eisenbud-Levine 1977, Khimshiashvili 1977); phi is plus
  or minus one certified dual vector, and the Gram matrix is filled from
  that vector's support alone;
* the colength index of a collection of sections of a trivial bundle,
  computed from the ideal of maximal minors of the section matrices.

Finite linear group actions on the variables act on the quotient algebra;
the dimension of the invariant subspace and the signature of the pairing
restricted to it are the equivariant quantities exposed here.  Both come
from the group sums T_b = sum over g of b(g x) of the basis monomials b:
the invariant dimension is 1/|G| times the sum of the coordinates of
T_b at b, read off dual vector b, and the restricted pairing is
[phi(T_a T_b)], filled from the support of phi's dual vector like the
form's Gram matrix.  The public entry point :func:`invariant_values`
gives both from one set of sums.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import sub

from .errors import InternalCheckError, NotIsolatedError, RejectedInputError
from .grobner import (
    DEFAULT_DEGREE_CAP,
    Ideal,
    colength,
    quotient_algebra,
)
from .linalg import rref, symmetric_signature
from .poly import (
    GLOBAL_ORDER,
    Polynomial,
    jacobian_det,
    minors,
    monomial_degree,
    parse_polynomial,
)


class VectorFieldGerm:
    """Vector field germ at the origin: one component per variable."""

    def __init__(self, variables, components, field="C"):
        self.variables = tuple(variables)
        self.components = tuple(parse_polynomial(c, self.variables) for c in components)
        if len(self.components) != len(self.variables):
            raise RejectedInputError(
                "component count must equal the variable count"
            )
        if field not in ("R", "C"):
            raise RejectedInputError("ground field tag must be 'R' or 'C'")
        self.field = field

    def ideal(self):
        return Ideal(self.components)


class OneFormGerm:
    """1-form germ at the origin: one coefficient polynomial per variable."""

    def __init__(self, variables, coefficients):
        self.variables = tuple(variables)
        self.coefficients = tuple(parse_polynomial(c, self.variables) for c in coefficients)
        if len(self.coefficients) != len(self.variables):
            raise RejectedInputError("coefficient count must equal the variable count")

    def ideal(self):
        return Ideal(self.coefficients)


class SectionCollection:
    """Collection of polynomial sections of a trivial rank-m bundle.

    The i-th group carries m - k_i + 1 sections, stored as the columns of
    an m x (m - k_i + 1) matrix; the partition (k_1, ..., k_s) must sum
    to the number of variables.
    """

    def __init__(self, variables, rank, partition, matrices):
        self.variables = tuple(variables)
        self.rank = int(rank)
        self.partition = tuple(int(k) for k in partition)
        n = len(self.variables)
        if sum(self.partition) != n:
            raise RejectedInputError(
                f"partition {self.partition} must sum to the variable count {n}"
            )
        if any(k < 1 for k in self.partition):
            raise RejectedInputError("partition entries must be positive")
        if len(matrices) != len(self.partition):
            raise RejectedInputError("need one section matrix per partition entry")
        parsed = []
        for k, mat in zip(self.partition, matrices):
            want_cols = self.rank - k + 1
            if want_cols < 1:
                raise RejectedInputError(
                    f"partition entry {k} exceeds the bundle rank {self.rank}"
                )
            rows = [[parse_polynomial(e, self.variables) for e in row] for row in mat]
            if len(rows) != self.rank or any(len(r) != want_cols for r in rows):
                raise RejectedInputError(
                    f"group matrix must be {self.rank} x {want_cols}"
                )
            parsed.append(rows)
        self.matrices = parsed

    def minors_ideal(self):
        gens = []
        for k, mat in zip(self.partition, self.matrices):
            size = self.rank - k + 1
            gens.extend(minors(mat, size))
        nonzero = [g for g in gens if not g.is_zero]
        if not nonzero:
            nonzero = [Polynomial.zero(self.variables)]
        return Ideal(nonzero)


# ---------------------------------------------------------------------------
# colength indices


def palamodov_index(vf, degree_cap=DEFAULT_DEGREE_CAP):
    """Index of a holomorphic vector field at the origin: the colength of
    the ideal of its components in the local ring.  INFINITE means the
    singular point is not algebraically isolated; 0 means the field does
    not vanish at the origin at all."""
    return colength(vf.ideal(), degree_cap)


def complex_form_index(form, degree_cap=DEFAULT_DEGREE_CAP):
    """Index of a holomorphic 1-form: the colength of its coefficient
    ideal.  By the orientation convention for complex 1-forms this equals
    (-1)^n times the index of the real part of the form on R^{2n}.
    A value of 0 means the form has no zero at the origin (the
    NONSINGULAR situation), INFINITE that the zero is not isolated."""
    return colength(form.ideal(), degree_cap)


def collection_index(coll, degree_cap=DEFAULT_DEGREE_CAP):
    """Index of a section collection: colength of the ideal generated by
    the maximal minors of every group matrix."""
    return colength(coll.minors_ideal(), degree_cap)


# ---------------------------------------------------------------------------
# the signature index of a real germ


class ELKForm:
    """The residue-pairing data of a real germ with algebraically isolated
    zero: the local algebra, the coordinates of the Jacobian class, the
    weights of a functional phi positive on that class, and the Gram
    matrix [phi(b_i b_j)] on the basis monomials, as a dense list of
    integer rows `gram` over one positive `denominator`.  phi is plus or
    minus one certified dual vector, so `functional` is a signed one-hot
    list of ints, and `gram` is filled from that vector's support.  Any
    phi vanishing on the ideal and positive on the Jacobian class gives
    a nondegenerate form whose signature is the local degree, so the
    signature does not depend on that choice."""

    def __init__(self, algebra, jacobian_coords, functional, gram, denominator):
        self.algebra = algebra
        self.jacobian_coords = tuple(jacobian_coords)
        self.functional = tuple(functional)
        self.gram = gram
        self.denominator = denominator

    def signature(self):
        pos, neg, zero = symmetric_signature(self.gram)
        if zero != 0:
            raise InternalCheckError(
                "residue pairing degenerated; input is inconsistent"
            )
        return pos - neg


def _choose_functional(algebra, jac_coords):
    """(star, sign) of the deterministic functional phi = sign times the
    coordinate at star, one certified dual vector: star is the largest
    basis monomial appearing in the Jacobian class, and the sign makes
    phi positive on that class.  Scaling phi by a positive factor, say
    to the residue normalization phi(Jac) = dim Q, changes no signature."""
    candidates = [i for i, c in enumerate(jac_coords) if c != 0]
    if not candidates:
        raise RejectedInputError(
            "Jacobian class vanishes in the local algebra; "
            "inconsistent input for a finite map germ"
        )
    star = max(
        candidates,
        key=lambda i: (monomial_degree(algebra.basis[i]), GLOBAL_ORDER.key(algebra.basis[i])),
    )
    return star, 1 if jac_coords[star] > 0 else -1


def elk_form(vf, degree_cap=DEFAULT_DEGREE_CAP):
    """Build the residue-pairing form of a real vector field germ.

    The Jacobian class is read off the determinant truncated at the
    algebra's top column degree: every monomial above it has class 0.
    phi is plus or minus one certified dual vector (_choose_functional);
    any functional positive on the Jacobian class gives the same
    signature.  Each Gram entry is the sign times the vector's integer
    entry at the product monomial, 0 off its support, so the Gram matrix
    is integral over the vector's positive denominator; it is filled
    from the support alone (:func:`_pairing`).
    """
    if vf.field != "R":
        raise RejectedInputError("the signature index needs the real ground field tag")
    try:
        algebra = quotient_algebra(vf.ideal(), degree_cap)
    except NotIsolatedError:
        raise NotIsolatedError(
            "complexified zero set is positive dimensional: "
            "the germ is not algebraically isolated"
        )
    if algebra.dimension == 0:
        # the germ does not vanish at the origin: the algebra is zero and
        # the residue pairing is the empty form, of signature 0
        return ELKForm(algebra, [], [], [], 1)
    jac_coords = algebra.coords(jacobian_det(vf.components, algebra.top_degree))
    star, sign = _choose_functional(algebra, jac_coords)
    support, denominator = algebra.dual_vector(star)
    gram = _pairing([{b: 1} for b in algebra.basis], support, sign)
    functional = [sign * (k == star) for k in range(algebra.dimension)]
    return ELKForm(algebra, jac_coords, functional, gram, denominator)


def _pairing(polys, support, sign):
    """The Gram matrix [sign * phi(P_i P_j)] of integer polynomials P_i,
    each a dict {monomial: int}, where phi has the integer numerators
    `support` ({monomial: non-zero int}, 0 elsewhere).  Only the support
    is read: for each term m of P_i and each support monomial s, the
    terms of the P_j at s / m add to row i; when m does not divide s,
    the quotient has a negative exponent and finds no term."""
    owners = {}
    for j, p in enumerate(polys):
        for m, c in p.items():
            owners.setdefault(m, []).append((j, c))
    support = [(s, sign * v) for s, v in support.items()]
    gram = []
    for p in polys:
        row = [0] * len(polys)
        for m, c in p.items():
            for s, v in support:
                for j, d in owners.get(tuple(map(sub, s, m)), ()):
                    row[j] += c * d * v
        gram.append(row)
    return gram


def elk_index(vf, degree_cap=DEFAULT_DEGREE_CAP):
    """Local degree of a real analytic germ with algebraically isolated
    zero: the signature of the residue pairing."""
    return elk_form(vf, degree_cap).signature()


# ---------------------------------------------------------------------------
# finite linear group actions


MAX_ACTION_ORDER = 512


class GroupAction:
    """A finite group of exact rational matrices acting on the variables.

    Generators and elements are n x n matrices, each a tuple of rows of
    Fractions.  The closure of the generators is enumerated explicitly,
    and a closure past ``MAX_ACTION_ORDER`` elements is refused, so every
    element has finite order by construction.
    """

    def __init__(self, variables, generators):
        self.variables = tuple(variables)
        n = len(self.variables)
        mats = []
        for g in generators:
            m = tuple(tuple(Fraction(x) for x in row) for row in g)
            if len(m) != n or any(len(row) != n for row in m):
                raise RejectedInputError(
                    f"action matrices must be {n} x {n} for this context"
                )
            if len(rref(m)[1]) != n:
                raise RejectedInputError("action matrices must be invertible")
            mats.append(m)
        identity = tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))
        elements = {identity: None}
        frontier = [identity]
        while frontier:
            columns = tuple(zip(*frontier.pop()))
            for g in mats:
                nxt = tuple(
                    tuple(sum(a * b for a, b in zip(row, column)) for column in columns)
                    for row in g
                )
                if nxt not in elements:
                    if len(elements) >= MAX_ACTION_ORDER:
                        raise RejectedInputError(
                            f"group closure exceeded the cap of {MAX_ACTION_ORDER} elements; "
                            "the action is not (verifiably) finite"
                        )
                    elements[nxt] = None
                    frontier.append(nxt)
        self.elements = tuple(elements)
        self.generators = tuple(mats)

    @property
    def order(self):
        return len(self.elements)


def _image(memo, rows, m):
    """The image x^m(g x) of a monomial under one group element, from
    the memo of the images of monomials, which it extends: a linear
    action keeps degrees, so the image of x^m is the image of x^m / x_i
    times the image of x_i, for the first variable x_i that x^m has."""
    chain = []
    while m not in memo:
        i = next(i for i, e in enumerate(m) if e)
        chain.append((m, i))
        m = m[:i] + (m[i] - 1,) + m[i + 1 :]
    image = memo[m]
    for m, i in reversed(chain):
        image = memo[m] = image * rows[i]
    return image


def _reynolds(algebra, action):
    """The group sums T_b = sum over g of b(g x) of the basis monomials
    b, and the dimension of the invariant subspace, after checking that
    the action acts on the algebra's variables and that the ideal is
    invariant: f(g x), the sum of c * x^m(g x) over the terms c * x^m of
    f, has class 0 for each ideal generator f and group generator g.
    The Reynolds operator sends b to R(b) = T_b / |G|; it is idempotent,
    so its trace, (1/|G|) times the sum over b of the coordinate of T_b
    at b (dual vector b), is the dimension of its image.  Each element
    memoises its monomial images (the basis need not be closed under
    division); the check and the sums share the generators' memos."""
    if action.variables != algebra.context:
        raise RejectedInputError(
            f"action variables {action.variables!r} are not the algebra's {algebra.context!r}"
        )
    ctx = algebra.context
    n = len(ctx)
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]

    def fresh(g):
        # the variable images of x -> g x, and a new memo for _image
        return [Polynomial(ctx, dict(zip(units, row))) for row in g], {(0,) * n: Polynomial.one(ctx)}

    images = {g: fresh(g) for g in dict.fromkeys(action.generators)}
    for g in action.generators:
        rows, memo = images[g]
        for f in algebra.ideal.generators:
            image = sum((_image(memo, rows, m) * c for m, c in f.terms.items()), Polynomial.zero(ctx))
            if any(algebra.coords(image)):
                raise RejectedInputError("ideal is not invariant under the action")
    sums = [Polynomial.zero(ctx)] * algebra.dimension
    for g in action.elements:
        rows, memo = images.get(g) or fresh(g)
        sums = [total + _image(memo, rows, b) for total, b in zip(sums, algebra.basis)]
    trace = 0
    for k, total in enumerate(sums):
        support, den = algebra.dual_vector(k)
        trace += Fraction(sum(c * support.get(m, 0) for m, c in total.terms.items()), den)
    trace = Fraction(trace, action.order)
    if trace.denominator != 1:
        raise InternalCheckError("trace average failed to be an integer")
    return sums, int(trace)


def invariant_dimension(algebra, action):
    """Dimension of the subspace of the quotient algebra fixed by the
    action: the trace of the Reynolds operator, which is 1/|G| times the
    sum of the traces of the group elements."""
    return _reynolds(algebra, action)[1]


def invariant_signature(form, action):
    """Signature of the residue pairing restricted to the invariant part
    of the algebra (see :func:`invariant_values`)."""
    return invariant_values(form, action)[1]


def invariant_values(form, action):
    """(invariant dimension, invariant signature) of the form's algebra
    under the action, from one invariance check and one set of group
    sums (:func:`_reynolds`).

    With the group sums T_b of the basis monomials, the matrix
    [phi(T_a T_b)] is |G|^2 [phi(R a * R b)], the Gram matrix of the
    form's functional phi pulled back from the invariant subspace along
    the Reynolds operator R.  The averaged functional phi o R is
    admissible when phi(R Jac) > 0 (checked), and it equals phi on
    products of invariants, so this matrix is the Gram matrix of an
    invariant pairing.  An invariant pairing keeps the trivial isotypic
    component orthogonal to the rest, so it is nondegenerate there and
    its signature does not depend on the admissible functional chosen.
    The check that its inertia counts exactly n - (invariant dimension)
    zeros is that nondegeneracy.  The sums are scaled to integers first,
    and phi is the sign times the form's dual vector, so each entry is
    formed in ints from that vector's support (:func:`_pairing`);
    positive scales change no sign.
    """
    sums, dimension = _reynolds(form.algebra, action)
    n = form.algebra.dimension
    if n == 0:
        return dimension, 0
    ((star, sign),) = [(k, w) for k, w in enumerate(form.functional) if w]
    support = form.algebra.dual_vector(star)[0]
    # denominator * |G| times the averaged functional at each basis monomial
    averaged = [sign * sum(c * support.get(m, 0) for m, c in total.terms.items()) for total in sums]
    if sum(a * j for a, j in zip(averaged, form.jacobian_coords)) <= 0:
        raise RejectedInputError(
            "averaged functional is not positive on the Jacobian class; "
            "the form data is not compatible with the action"
        )
    scale = lcm(*(c.denominator for total in sums for c in total.terms.values()))
    scaled = [
        {m: c.numerator * (scale // c.denominator) for m, c in total.terms.items()}
        for total in sums
    ]
    pos, neg, zero = symmetric_signature(_pairing(scaled, support, sign))
    if zero != n - dimension:
        raise InternalCheckError("pairing degenerated on the invariant subspace")
    return dimension, pos - neg


# ---------------------------------------------------------------------------
# realification helper


def realify(variables, components):
    """Turn a holomorphic square system into the underlying real system.

    Each complex variable z splits into two real ones (z_re, z_im) and
    each component f into (Re f, Im f), expanded exactly over the
    Gaussian rationals.  The returned component order interleaves real
    and imaginary parts, which matches the complex orientation, so the
    local degree of the real system equals the complex colength.
    """
    variables = tuple(variables)
    components = [parse_polynomial(c, variables) for c in components]
    real_vars = []
    for v in variables:
        real_vars.extend((f"{v}_re", f"{v}_im"))
    # substitute z = x + i y with i a reserved auxiliary variable, then
    # fold i^2 -> -1 and split by parity of the power of i
    aux = tuple(real_vars) + ("_i",)
    images = {}
    for v in variables:
        images[v] = (
            Polynomial.variable(aux, f"{v}_re")
            + Polynomial.variable(aux, f"{v}_im") * Polynomial.variable(aux, "_i")
        )
    out = []
    for f in components:
        expanded = f.substitute(images)
        re_terms = {}
        im_terms = {}
        for mono, coeff in expanded.terms.items():
            base, ipow = mono[:-1], mono[-1]
            sign = -1 if (ipow // 2) % 2 else 1
            target = re_terms if ipow % 2 == 0 else im_terms
            target[base] = target.get(base, 0) + sign * coeff
        out.append(Polynomial(tuple(real_vars), re_terms))
        out.append(Polynomial(tuple(real_vars), im_terms))
    return tuple(real_vars), out
