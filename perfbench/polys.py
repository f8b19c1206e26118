"""Small exact polynomial arithmetic for building benchmark inputs.

The benchmark builds its job documents without importing the program
under test, so that a known answer never depends on the code it checks.
A polynomial is a dict from exponent tuples to integers; only the
operations the generators need are here.
"""

from __future__ import annotations


def var(nvars, i):
    return {tuple(int(k == i) for k in range(nvars)): 1}


def const(nvars, c):
    return {(0,) * nvars: c} if c else {}


def mono(exps, c=1):
    return {tuple(exps): c}


def add(*polys):
    out = {}
    for p in polys:
        for m, c in p.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def scale(p, c):
    return {m: c * v for m, v in p.items()} if c else {}


def mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            s = out.get(m, 0) + c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def power(p, e, nvars):
    out = const(nvars, 1)
    for _ in range(e):
        out = mul(out, p)
    return out


def substitute(p, images, nvars_out):
    """p(images[0], ..., images[n-1]) for polynomial images."""
    out = {}
    cache = {}
    for m, c in p.items():
        term = const(nvars_out, c)
        for i, e in enumerate(m):
            if e:
                key = (i, e)
                if key not in cache:
                    cache[key] = power(images[i], e, nvars_out)
                term = mul(term, cache[key])
        out = add(out, term)
    return out


def linear_change(polys, matrix):
    """Pull back along x -> M x (x_i becomes sum_j M[i][j] x_j)."""
    n = len(matrix)
    images = [
        add(*(scale(var(n, j), matrix[i][j]) for j in range(n))) for i in range(n)
    ]
    return [substitute(p, images, n) for p in polys]


def realify(polys, ncomplex):
    """Real and imaginary parts of holomorphic polynomials with integer
    coefficients, in 2 * ncomplex real variables (z_j = x_j + i y_j,
    variable order x_1, y_1, x_2, y_2, ...).  The output interleaves
    (Re f, Im f) per input, which keeps the complex orientation."""
    n = 2 * ncomplex
    # the last variable stands for i; fold i^2 = -1 afterwards
    images = [
        add(var(n + 1, 2 * j), mul(var(n + 1, 2 * j + 1), var(n + 1, n)))
        for j in range(ncomplex)
    ]
    out = []
    for p in polys:
        expanded = substitute(p, images, n + 1)
        re_part, im_part = {}, {}
        for m, c in expanded.items():
            base, ipow = m[:-1], m[-1]
            sign = -1 if (ipow // 2) % 2 else 1
            target = re_part if ipow % 2 == 0 else im_part
            s = target.get(base, 0) + sign * c
            if s:
                target[base] = s
            else:
                target.pop(base, None)
        out.append(re_part)
        out.append(im_part)
    return out


def to_text(p, names):
    """Wire-format string, terms in a fixed (sorted) order."""
    if not p:
        return "0"
    parts = []
    for m in sorted(p, key=lambda m: (sum(m), m)):
        c = p[m]
        factors = [
            name if e == 1 else f"{name}^{e}" for name, e in zip(names, m) if e
        ]
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)
