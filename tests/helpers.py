"""Shared helpers for the test suite: random exact objects and
coordinate-change utilities."""

from fractions import Fraction

from singindex.poly import Polynomial


def random_polynomial(ctx, rng, max_degree=4, terms=4, coeff_bound=5):
    out = {}
    n = len(ctx)
    for _ in range(terms):
        while True:
            mono = tuple(rng.randint(0, max_degree) for _ in range(n))
            if sum(mono) <= max_degree:
                break
        c = rng.randint(-coeff_bound, coeff_bound)
        if c:
            out[mono] = out.get(mono, Fraction(0)) + c
    return Polynomial(ctx, out)


def random_unimodular(n, rng, steps=6, bound=2):
    """Integer matrix of determinant +-1, as a tuple of rows of Fractions:
    a product of shear and swap moves."""
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        if n > 1 and rng.random() < 0.3:
            i, j = rng.sample(range(n), 2)
            m[i], m[j] = m[j], m[i]
        else:
            i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
            if i == j:
                continue
            c = rng.randint(-bound, bound)
            for k in range(n):
                m[i][k] += c * m[j][k]
    return tuple(tuple(row) for row in m)


def linear_substitution(ctx, matrix):
    """Variable images of x -> M x."""
    images = {}
    for i, name in enumerate(ctx):
        p = Polynomial.zero(ctx)
        for j, other in enumerate(ctx):
            c = matrix[i][j]
            if c != 0:
                p = p + Polynomial.variable(ctx, other) * c
        images[name] = p
    return images


def substitute_all(polys, ctx, matrix):
    images = linear_substitution(ctx, matrix)
    return [p.substitute(images) for p in polys]


def pullback_one_form(coefficients, ctx, matrix):
    """Coefficients of the 1-form pulled back along x -> M x: the new
    j-th coefficient is sum_i A_i(Mx) M_ij."""
    images = linear_substitution(ctx, matrix)
    composed = [a.substitute(images) for a in coefficients]
    out = []
    for j in range(len(ctx)):
        p = Polynomial.zero(ctx)
        for i, a in enumerate(composed):
            c = matrix[i][j]
            if c != 0:
                p = p + a * c
        out.append(p)
    return out


def plus_one_at(nums, k):
    """A sparse dual vector's numerators {column: non-zero integer} with 1
    added at column k, which may hold no entry; an entry that becomes 0
    is dropped."""
    out = dict(nums)
    out[k] = out.get(k, 0) + 1
    if not out[k]:
        del out[k]
    return out
