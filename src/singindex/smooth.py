"""Indices of singular points on smooth ambient space.

Three families of indices live here, all read off finite dimensional
quotient algebras:

* the colength index of a holomorphic vector field (the local index at an
  algebraically isolated zero equals the dimension of the local algebra);
* the signature index of a real analytic vector field or 1-form: the
  local degree is the signature of <a, b> = phi(ab) on the local algebra
  for any functional phi vanishing on the ideal and positive on the
  Jacobian class (Eisenbud-Levine 1977, Khimshiashvili 1977); phi is one
  vector over the dual basis columns, so a Gram entry is one lookup;
* the colength index of a collection of sections of a trivial bundle,
  computed from the ideal of maximal minors of the section matrices.

Finite linear group actions on the variables act on the quotient algebra;
the dimension of the invariant subspace and the signature of the pairing
restricted to it are the equivariant quantities exposed here.  Both come
from one Reynolds projector, the coordinates of the group averages of
the basis monomials.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import InternalCheckError, NotIsolatedError, RejectedInputError
from .grobner import (
    DEFAULT_DEGREE_CAP,
    Ideal,
    colength,
    quotient_algebra,
)
from .linalg import RationalMatrix, rref, symmetric_signature
from .poly import (
    GLOBAL_ORDER,
    Polynomial,
    as_polynomial,
    jacobian_det,
    minors,
    monomial_degree,
    monomial_mul,
)


class VectorFieldGerm:
    """Vector field germ at the origin: one component per variable."""

    def __init__(self, variables, components, field="C"):
        self.variables = tuple(variables)
        self.components = tuple(as_polynomial(c, self.variables) for c in components)
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

    def __init__(self, variables, coefficients, field="C"):
        self.variables = tuple(variables)
        self.coefficients = tuple(as_polynomial(c, self.variables) for c in coefficients)
        if len(self.coefficients) != len(self.variables):
            raise RejectedInputError(
                "coefficient count must equal the variable count"
            )
        if field not in ("R", "C"):
            raise RejectedInputError("ground field tag must be 'R' or 'C'")
        self.field = field

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
            rows = [[as_polynomial(e, self.variables) for e in row] for row in mat]
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
    zero: the local algebra, the coordinates of the Jacobian class, a
    linear functional phi on the coordinates, positive on that class, and
    the Gram matrix [phi(b_i b_j)] of the induced symmetric bilinear form
    on the basis monomials, as an integer matrix `gram` over one positive
    `denominator`.  Any such phi vanishes on the ideal, so the form is
    nondegenerate and its signature is the local degree; the positive
    denominator does not change the signature."""

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
    """Deterministic functional: extract the coefficient of the largest
    basis monomial appearing in the Jacobian class, scaled so the
    Jacobian class maps to dim Q (the residue normalization)."""
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
    functional = [Fraction(0)] * algebra.dimension
    functional[star] = Fraction(algebra.dimension) / jac_coords[star]
    return functional


def elk_form(vf, degree_cap=DEFAULT_DEGREE_CAP, functional=None):
    """Build the residue-pairing form of a real vector field germ.

    The functional may be overridden by any linear functional on the
    coordinates with a positive value on the Jacobian class; the
    signature does not depend on the choice.  Either one is folded once
    into an integer vector over the dual basis columns, scale times phi
    (``QuotientAlgebra.functional``), and each Gram entry is a lookup at
    the column of the product monomial, or 0 without one: the Gram
    matrix is integral over the positive denominator scale.
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
    jac = jacobian_det(list(vf.components))
    jac_coords = algebra.coords(jac)
    if functional is None:
        functional = _choose_functional(algebra, jac_coords)
    else:
        functional = [Fraction(f) for f in functional]
        if sum(f * c for f, c in zip(functional, jac_coords)) <= 0:
            raise RejectedInputError(
                "functional must be positive on the Jacobian class"
            )
    scaled, scale = algebra.functional(functional)
    basis = algebra.basis
    gram = [[scaled(monomial_mul(a, b)) for b in basis] for a in basis]
    return ELKForm(algebra, jac_coords, functional, gram, scale)


def elk_index(vf, degree_cap=DEFAULT_DEGREE_CAP, functional=None):
    """Local degree of a real analytic germ with algebraically isolated
    zero: the signature of the residue pairing."""
    if isinstance(vf, ELKForm):
        return vf.signature()
    return elk_form(vf, degree_cap, functional).signature()


# ---------------------------------------------------------------------------
# finite linear group actions


class GroupAction:
    """A finite group of exact rational matrices acting on the variables.

    The closure of the generators is enumerated explicitly, with a cap
    guarding against non-finite input; every element therefore has finite
    order by construction.
    """

    def __init__(self, variables, generators, cap=512):
        self.variables = tuple(variables)
        n = len(self.variables)
        mats = []
        for g in generators:
            m = RationalMatrix(g)
            if m.rows != n or m.cols != n:
                raise RejectedInputError(
                    f"action matrices must be {n} x {n} for this context"
                )
            if len(rref(m.entries)[1]) != n:
                raise RejectedInputError("action matrices must be invertible")
            mats.append(m)
        identity = RationalMatrix.identity(n)
        elements = {identity.entries: identity}
        frontier = [identity]
        while frontier:
            current = frontier.pop()
            for g in mats:
                nxt = g.mul(current)
                if nxt.entries not in elements:
                    if len(elements) >= cap:
                        raise RejectedInputError(
                            f"group closure exceeded the cap of {cap} elements; "
                            "the action is not (verifiably) finite"
                        )
                    elements[nxt.entries] = nxt
                    frontier.append(nxt)
        self.elements = list(elements.values())
        self.generators = mats

    @property
    def order(self):
        return len(self.elements)

    def substitution(self, matrix):
        """Variable images of x -> M x as polynomials."""
        images = {}
        for i, name in enumerate(self.variables):
            p = Polynomial.zero(self.variables)
            for j, other in enumerate(self.variables):
                c = matrix.entries[i][j]
                if c != 0:
                    p = p + Polynomial.variable(self.variables, other) * c
            images[name] = p
        return images

    def transform(self, poly, matrix):
        return poly.substitute(self.substitution(matrix))


def ideal_is_invariant(algebra, action):
    """Check invariance of the algebra's ideal: every transformed
    generator has class 0; enough to check the generators of the group."""
    return not any(
        any(algebra.coords(action.transform(f, g)))
        for g in action.generators
        for f in algebra.ideal.generators
    )


def _reynolds(algebra, action):
    """The Reynolds projector of the action on the algebra, by columns,
    and its trace, after checking that the ideal is invariant.  Column b
    holds the coordinates of R(b) = (1/|G|) * sum over g of b(g x), for
    each basis monomial b: one coordinate computation per basis
    monomial, on the sum over g, which keeps integer coefficients
    integers.  R is idempotent, so its trace is the dimension of its
    image, the invariant subspace."""
    if not ideal_is_invariant(algebra, action):
        raise RejectedInputError("ideal is not invariant under the action")
    ctx = algebra.context
    images = [action.substitution(g) for g in action.elements]
    columns = []
    for b in algebra.basis:
        mono = Polynomial(ctx, {b: 1})
        total = sum((mono.substitute(i) for i in images), Polynomial.zero(ctx))
        columns.append([Fraction(c, action.order) for c in algebra.coords(total)])
    trace = sum((column[j] for j, column in enumerate(columns)), Fraction(0))
    if trace.denominator != 1:
        raise InternalCheckError("trace average failed to be an integer")
    return columns, int(trace)


def invariant_dimension(algebra, action):
    """Dimension of the subspace of the quotient algebra fixed by the
    action: the trace of the Reynolds projector, which is 1/|G| times the
    sum of the traces of the group elements."""
    return _reynolds(algebra, action)[1]


def invariant_signature(form, action):
    """Signature of the residue pairing restricted to the invariant part
    of the algebra.

    With the Reynolds projector P and the Gram matrix G of the form's
    functional phi, P^T G P is [phi(R b_i * R b_j)].  The averaged
    functional phi o R is admissible when phi(R Jac) > 0 (checked), and
    it equals phi on products of invariants, so this matrix is the Gram
    matrix of an invariant pairing, pulled back from the invariant
    subspace along P.  An invariant pairing keeps the trivial isotypic
    component orthogonal to the rest, so it is nondegenerate there and
    its signature does not depend on the admissible functional chosen.
    The check that the inertia of P^T G P counts exactly
    n - (invariant dimension) zeros is that nondegeneracy.  P is scaled
    to integers first, and G is an integer matrix, so the product is
    formed in ints; the positive square of the scale changes no sign.
    """
    return _invariant_signature(form, *_reynolds(form.algebra, action))


def _invariant_signature(form, columns, dimension):
    """invariant_signature from the Reynolds projector's columns and
    trace, as :func:`_reynolds` gives them."""
    n = form.algebra.dimension
    if n == 0:
        return 0
    averaged = [sum(f * c for f, c in zip(form.functional, column)) for column in columns]
    if sum(a * j for a, j in zip(averaged, form.jacobian_coords)) <= 0:
        raise RejectedInputError(
            "averaged functional is not positive on the Jacobian class; "
            "the form data is not compatible with the action"
        )
    g = form.gram
    scale = lcm(*(c.denominator for column in columns for c in column))
    sparse = [
        [(k, c.numerator * (scale // c.denominator)) for k, c in enumerate(column) if c]
        for column in columns
    ]
    g_p = [[sum(row[l] * c for l, c in col) for row in g] for col in sparse]
    restricted = [[sum(c * gp[k] for k, c in col) for gp in g_p] for col in sparse]
    pos, neg, zero = symmetric_signature(restricted)
    if zero != n - dimension:
        raise InternalCheckError("pairing degenerated on the invariant subspace")
    return pos - neg


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
    components = [as_polynomial(c, variables) for c in components]
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
