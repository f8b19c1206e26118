"""Indices on isolated complete intersection singularities.

For a germ V cut out by f_1, ..., f_{N-n} in N variables and a
holomorphic 1-form w, the index of w on V is the colength of the ideal
generated by the f_r together with the maximal minors of the matrix
stacking the differentials df_1, ..., df_{N-n} and the coefficient row of
w.  Collections of 1-forms work the same way group by group.

The Milnor number is computed by slicing: cutting V with a generic
hyperplane H = l^{-1}(0) satisfies

    mu(V) + mu(V . H) = colength(f, maximal minors of (df, dl)),

so a chain of generic linear forms descends to dimension zero, where the
Milnor number is the multiplicity minus one.  The linear forms are the
only random choices; results are certified seed independent by running
the chain twice.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import GenericityError, NotIsolatedError, RejectedInputError
from .grobner import (
    DEFAULT_DEGREE_CAP,
    INFINITE,
    Ideal,
    colength,
)
from .poly import Polynomial, as_polynomial, jacobian_matrix, minors
from .smooth import OneFormGerm


class ICISGerm:
    """Complete intersection germ: ambient dimension N, N - n equations.

    The smooth case (no equations) is allowed so that statements about
    collections on V specialize to the smooth ambient ones.  Whether the
    germ really is an ICIS is certified a posteriori by finiteness of the
    singular-locus ideal; see :func:`isolatedness_certificate`.
    """

    def __init__(self, variables, equations):
        self.variables = tuple(variables)
        self.equations = tuple(as_polynomial(e, self.variables) for e in equations)
        self.ambient_dim = len(self.variables)
        if len(self.equations) > self.ambient_dim:
            raise RejectedInputError("more equations than ambient variables")
        self.dim = self.ambient_dim - len(self.equations)
        for e in self.equations:
            if not e.is_zero and e.constant_term() != 0:
                raise RejectedInputError("equations must vanish at the origin")

    def gradient_rows(self):
        """Rows of the differentials df_r."""
        if not self.equations:
            return []
        return jacobian_matrix(list(self.equations))


def _stacked_minors_ideal(germ, extra_rows):
    """Ideal of the equations plus the maximal minors of the matrix whose
    rows are the equation differentials followed by `extra_rows`."""
    rows = germ.gradient_rows() + [list(r) for r in extra_rows]
    size = len(rows)
    gens = list(germ.equations)
    if size > 0:
        if size > germ.ambient_dim:
            raise RejectedInputError("more forms than ambient dimension")
        gens.extend(m for m in minors(rows, size) if not m.is_zero)
    if not gens:
        raise RejectedInputError("empty ideal: no equations and no forms")
    return Ideal(gens)


def isolatedness_certificate(germ, degree_cap=DEFAULT_DEGREE_CAP):
    """Colength of (f, maximal minors of the Jacobian of f): finite exactly
    when the complete intersection has an isolated singular point (or is
    smooth, where the value is 0 or the critical locus is empty)."""
    if not germ.equations:
        return 0
    return colength(_stacked_minors_ideal(germ, []), degree_cap)


def gsv_index_1form(germ, form, degree_cap=DEFAULT_DEGREE_CAP):
    """GSV index of a holomorphic 1-form on the complete intersection:
    colength of the equations plus the maximal minors of the stacked
    matrix of equation differentials and the form's coefficient row."""
    form = _as_form(germ, form)
    ideal = _stacked_minors_ideal(germ, [list(form.coefficients)])
    return colength(ideal, degree_cap)


def gsv_index_collection(germ, partition, groups, degree_cap=DEFAULT_DEGREE_CAP):
    """GSV index of a collection of holomorphic 1-forms on the germ.

    partition (k_1, ..., k_s) must sum to dim V; group i supplies
    dim V - k_i + 1 forms.  Each group contributes the maximal minors of
    the matrix stacking the equation differentials and its forms.
    """
    partition = [int(k) for k in partition]
    if sum(partition) != germ.dim:
        raise RejectedInputError(
            f"partition {partition} must sum to dim V = {germ.dim}"
        )
    if any(k < 1 for k in partition):
        raise RejectedInputError("partition entries must be positive")
    if len(groups) != len(partition):
        raise RejectedInputError("need one group of forms per partition entry")
    gens = list(germ.equations)
    for k, group in zip(partition, groups):
        forms = [_as_form(germ, f) for f in group]
        if len(forms) != germ.dim - k + 1:
            raise RejectedInputError(
                f"group for partition entry {k} needs {germ.dim - k + 1} forms"
            )
        rows = germ.gradient_rows() + [list(f.coefficients) for f in forms]
        gens.extend(m for m in minors(rows, len(rows)) if not m.is_zero)
    if not gens:
        raise RejectedInputError("empty ideal: no equations and no forms")
    return colength(Ideal(gens), degree_cap)


def _as_form(germ, form):
    if isinstance(form, OneFormGerm):
        if form.variables != germ.variables:
            raise RejectedInputError("form and germ contexts differ")
        return form
    return OneFormGerm(germ.variables, form)


# ---------------------------------------------------------------------------
# Milnor numbers by slicing


def _random_linear(ctx, rng):
    while True:
        coeffs = [rng.randint(-9, 9) for _ in ctx]
        if any(coeffs):
            break
    p = Polynomial.zero(ctx)
    for c, name in zip(coeffs, ctx):
        if c:
            p = p + Polynomial.variable(ctx, name) * c
    return p


class _SliceRetry(Exception):
    pass


def _milnor_chain(equations, ctx, rng, dim, degree_cap, retries=5):
    """mu via the slicing recursion; raises _SliceRetry when a linear form
    fails to be generic so the caller can redraw."""
    if dim == 0:
        c = colength(Ideal(list(equations)), degree_cap)
        if c is INFINITE:
            raise _SliceRetry
        return c - 1
    for _ in range(retries):
        ell = _random_linear(ctx, rng)
        grad = [[ell.derivative(j) for j in range(len(ctx))]]
        rows = (
            jacobian_matrix(list(equations)) if equations else []
        ) + grad
        gens = list(equations) + [
            m for m in minors(rows, len(rows)) if not m.is_zero
        ]
        lg = colength(Ideal(gens), degree_cap)
        if lg is INFINITE:
            continue
        try:
            sub = _milnor_chain(
                list(equations) + [ell], ctx, rng, dim - 1, degree_cap, retries
            )
        except _SliceRetry:
            continue
        return lg - sub
    raise _SliceRetry


def milnor_number(germ, seed=0, degree_cap=DEFAULT_DEGREE_CAP, certify=True):
    """Milnor number of the complete intersection germ.

    Randomness enters only through generic linear slices drawn from the
    seeded generator; with `certify` the chain runs again from a second
    seed and the two values must agree.
    """
    if not germ.equations:
        return 0
    if germ.dim == 0:
        c = colength(Ideal(list(germ.equations)), degree_cap)
        if c is INFINITE:
            raise NotIsolatedError("zero-dimensional germ has infinite multiplicity")
        return c - 1

    def run(s):
        rng = random.Random(s)
        try:
            return _milnor_chain(
                list(germ.equations), germ.variables, rng, germ.dim, degree_cap
            )
        except _SliceRetry:
            raise GenericityError(
                "no generic linear form found after repeated draws"
            )

    value = run(seed)
    if certify:
        other = run(seed + 1)
        if other != value:
            raise GenericityError(
                f"slice chain is seed dependent: {value} vs {other}"
            )
    return value


# ---------------------------------------------------------------------------
# radial and homological indices


def radial_index_1form(germ, form, seed=0, degree_cap=DEFAULT_DEGREE_CAP):
    """Radial index of a 1-form on the germ: GSV index minus the Milnor
    number.  Returns INFINITE when the GSV side is not isolated."""
    gsv = gsv_index_1form(germ, form, degree_cap)
    if gsv is INFINITE:
        return INFINITE
    return gsv - milnor_number(germ, seed, degree_cap)


def radial_index_vf_from_gsv(gsv, mu, n):
    """Conversion identity for vector fields on an n-dimensional germ:
    radial index = GSV index - (-1)^n mu.  The GSV index of a vector
    field is not computed algebraically here (no colength formula exists
    for it); this is arithmetic on certified inputs."""
    sign = -1 if int(n) % 2 else 1
    return int(gsv) - sign * int(mu)


def homological_index_1form(germ, form, degree_cap=DEFAULT_DEGREE_CAP):
    """Homological index of a holomorphic 1-form on the germ.  On a
    complete intersection it equals the GSV index, which realizes the
    Euler characteristic of the contraction complex of differential
    forms; the value is computed through the minors ideal."""
    return gsv_index_1form(germ, form, degree_cap)


# ---------------------------------------------------------------------------
# assembled reports


@dataclass
class ICISIndexReport:
    """All requested indices of one germ/form pair with the colength
    certificates that back them."""

    gsv: object = None
    milnor: object = None
    radial: object = None
    homological: object = None
    certificates: dict = field(default_factory=dict)

    def check_invariants(self):
        if (
            self.milnor is not None
            and self.gsv is not None
            and self.radial is not None
            and self.gsv is not INFINITE
        ):
            if self.radial != self.gsv - self.milnor:
                raise RejectedInputError(
                    "report violates radial = gsv - milnor"
                )
        if (
            self.homological is not None
            and self.gsv is not None
            and self.homological != self.gsv
        ):
            raise RejectedInputError("report violates homological = gsv")


def icis_report(
    germ,
    form,
    want=("gsv", "milnor", "radial", "homological"),
    seed=0,
    degree_cap=DEFAULT_DEGREE_CAP,
):
    """Compute the requested indices of a 1-form on the germ, recording
    every intermediate colength so results are auditable."""
    want = set(want)
    unknown = want - {"gsv", "milnor", "radial", "homological"}
    if unknown:
        raise RejectedInputError(f"unknown report fields {sorted(unknown)}")
    report = ICISIndexReport()
    report.certificates["isolated_singularity_colength"] = isolatedness_certificate(
        germ, degree_cap
    )
    need_gsv = want & {"gsv", "radial", "homological"}
    if need_gsv:
        gsv = gsv_index_1form(germ, form, degree_cap)
        report.certificates["gsv_minors_colength"] = gsv
        if "gsv" in want:
            report.gsv = gsv
    if want & {"milnor", "radial"}:
        mu = milnor_number(germ, seed, degree_cap)
        report.certificates["milnor_number"] = mu
        if "milnor" in want:
            report.milnor = mu
    if "radial" in want:
        report.radial = INFINITE if gsv is INFINITE else gsv - mu
    if "homological" in want:
        report.homological = gsv
    if report.gsv is None and "gsv" not in want and need_gsv:
        # keep the invariant checkable even when gsv itself was not asked for
        report.gsv = gsv
    report.check_invariants()
    return report
