"""Indices on isolated complete intersection singularities.

For a germ V cut out by f_1, ..., f_{N-n} in N variables and a
holomorphic 1-form w, the index of w on V is the colength of the ideal
generated by the f_r together with the maximal minors of the matrix
stacking the differentials df_1, ..., df_{N-n} and the coefficient row of
w.  Collections of 1-forms work the same way group by group.

The Milnor number comes from the Le-Greuel formula (Le, Funct. Anal.
Appl. 8, 1974; Greuel, Math. Ann. 214, 1975): if V is an ICIS of
dimension n >= 1 and l is a linear form whose restriction to V has an
isolated critical point, then V . H, H = l^{-1}(0), is again an ICIS and

    mu(V) + mu(V . H) = colength(f, maximal minors of (df, dl)).

No other genericity is needed.  A finite colength on the right is that
hypothesis, certified: the critical points of l on V, and so the
singular points of V, are then isolated.  A chain of linear forms
l_1, ..., l_n whose colengths are all finite, ending at the
zero-dimensional complete intersection V . H_1 ... H_n of finite
multiplicity m (Milnor number m - 1), therefore meets the hypotheses at
every step, and its alternating sum is exactly mu(V), whatever forms
were drawn.  The linear forms are the only random choices; a draw whose
colength is INFINITE is redrawn.
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

# linear forms drawn for one slice before the chain gives up
SLICE_DRAWS = 5


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
        return jacobian_matrix(self.equations)


def _stacked_minors_ideal(germ, *row_groups):
    """Ideal of the equations plus, for each group of extra rows, the
    non-zero maximal minors of the matrix whose rows are the equation
    differentials followed by that group."""
    gens = list(germ.equations)
    gradient = germ.gradient_rows()
    for extra_rows in row_groups:
        rows = gradient + list(extra_rows)
        if len(rows) > germ.ambient_dim:
            raise RejectedInputError("more forms than ambient dimension")
        gens.extend(m for m in minors(rows, len(rows)) if not m.is_zero)
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
    row_groups = []
    for k, group in zip(partition, groups):
        forms = [_as_form(germ, f) for f in group]
        if len(forms) != germ.dim - k + 1:
            raise RejectedInputError(
                f"group for partition entry {k} needs {germ.dim - k + 1} forms"
            )
        row_groups.append([list(f.coefficients) for f in forms])
    return colength(_stacked_minors_ideal(germ, *row_groups), degree_cap)


def _as_form(germ, form):
    if isinstance(form, OneFormGerm):
        if form.variables != germ.variables:
            raise RejectedInputError("form and germ contexts differ")
        return form
    return OneFormGerm(germ.variables, form)


# ---------------------------------------------------------------------------
# Milnor numbers by slicing


def _random_linear(ctx, rng):
    """A non-zero linear form with coefficients drawn from [-9, 9]."""
    while True:
        coeffs = [rng.randint(-9, 9) for _ in ctx]
        if any(coeffs):
            units = [tuple(int(i == j) for j in range(len(ctx))) for i in range(len(ctx))]
            return Polynomial(ctx, dict(zip(units, coeffs)))


class _SliceRetry(Exception):
    pass


def _milnor_chain(germ, rng, degree_cap):
    """mu of the germ by the slicing recursion; raises _SliceRetry when
    every draw at some level meets an infinite colength."""
    if germ.dim == 0:
        c = colength(Ideal(list(germ.equations)), degree_cap)
        if c is INFINITE:
            raise _SliceRetry
        return c - 1
    for _ in range(SLICE_DRAWS):
        ell = _random_linear(germ.variables, rng)
        dl = [ell.derivative(j) for j in range(germ.ambient_dim)]
        both = colength(_stacked_minors_ideal(germ, [dl]), degree_cap)
        if both is INFINITE:
            continue
        sliced = ICISGerm(germ.variables, germ.equations + (ell,))
        try:
            return both - _milnor_chain(sliced, rng, degree_cap)
        except _SliceRetry:
            continue
    raise _SliceRetry


def milnor_number(germ, seed=0, degree_cap=DEFAULT_DEGREE_CAP):
    """Milnor number of the complete intersection germ.

    One slice chain from ``random.Random(seed)``: by the Le-Greuel
    formula (see the module docstring) mu(V) = colength(f, maximal minors
    of (df, dl)) - mu(V . H) for every linear form l whose colength there
    is finite, and that finite colength certifies the hypothesis, so the
    value does not depend on the seed.  A draw with an INFINITE colength
    is redrawn, up to SLICE_DRAWS times per slice.  When every draw
    fails, raises NotIsolatedError if the singular-locus colength is
    INFINITE (no linear form then has isolated critical points on V),
    else GenericityError.
    """
    if not germ.equations:
        return 0
    try:
        return _milnor_chain(germ, random.Random(seed), degree_cap)
    except _SliceRetry:
        if germ.dim == 0:
            raise NotIsolatedError("zero-dimensional germ has infinite multiplicity")
        if isolatedness_certificate(germ, degree_cap) is INFINITE:
            raise NotIsolatedError(
                "singular locus is not isolated: the colength of the equations "
                "and the maximal minors of their Jacobian is INFINITE"
            )
        raise GenericityError("no generic linear form found after repeated draws")


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
