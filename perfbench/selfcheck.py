"""Cross-check the benchmark's known answers against singindex.oracles.

    python3 perfbench/selfcheck.py

Run from the repository root.  For seeds 0 and 1, each family the
workloads draw from is rebuilt and its recorded answer is recomputed by
an independent route:

* colengths (smooth, collection, ICIS minors ideals, Milnor numbers as
  Jacobian-ideal colengths) by ``oracles.macaulay_colength``, on small
  exponents only, since Macaulay truncation grows fast;
* local degrees of plane ELK germs by ``oracles.winding_degree``;
* Burnside products by ``oracles.burnside_mul_by_orbits`` and
  restrictions by ``oracles.restriction_by_orbits``;
* subgroup class orders by joining cyclic subgroups until the lattice
  closes, then sorting conjugacy classes, which shares nothing with
  ``PermutationGroup.subgroups``.

This is a check of the benchmark's constructions, not a timed run.
Exits 1 if any recorded answer disagrees.
"""

from __future__ import annotations

import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import polys as P  # noqa: E402
import workloads as W  # noqa: E402
from singindex import oracles  # noqa: E402
from singindex.burnside import BurnsideElement, PermutationGroup  # noqa: E402
from singindex.poly import jacobian_matrix, minors, parse_polynomial  # noqa: E402

SEEDS = 2
FAILED = []


def expect_equal(what, got, want):
    status = "ok" if got == want else "MISMATCH"
    print(f"{status:8s} {what}: got {got!r}, recorded {want!r}")
    if got != want:
        FAILED.append(what)


def colength_of(texts, names):
    return oracles.macaulay_colength([parse_polynomial(t, names) for t in texts])


def check_smooth(rng):
    for exps in ((2, 2, 2), (2, 2, 3)):
        for dense in (False, True):
            job = W._colength_job(rng, exps, dense, "vector_field")
            expect_equal(job.family, colength_of(job.doc["payload"]["data"], W._XYZ), job.expect["values"]["index"])
    for partition in ((1, 1, 1), (2, 1)):
        job = W._collection_job(rng, (2, 2, 2), partition)
        gens = []
        for mat in job.doc["payload"]["data"]["matrices"]:
            rows = [[parse_polynomial(e, W._XYZ) for e in row] for row in mat]
            gens += minors(rows, len(rows[0]))
        expect_equal(job.family, oracles.macaulay_colength(gens), job.expect["values"]["index"])
    job = W._non_isolated_job(rng)
    expect_equal(job.family, str(colength_of(job.doc["payload"]["data"], W._XYZ)), "INFINITE")
    job = W._unit_job(rng, (2, 2, 2))
    expect_equal(job.family, colength_of(job.doc["payload"]["data"], W._XYZ), 0)


def check_icis(rng):
    jobs = [W._icis_brieskorn(rng, 2, 3, 3), W._icis_brieskorn(rng, 3, 3, 4),
            W._icis_tpqr(rng, 3, 3, 5), W._icis_tpqr(rng, 4, 4, 4),
            W._icis_curve(rng, 2, 5), W._icis_curve(rng, 3, 5)]
    for job in jobs:
        pay = job.doc["payload"]
        names = pay["variables"]
        eqs = [parse_polynomial(e, names) for e in pay["equations"]]
        form = [parse_polynomial(c, names) for c in pay["form"]]
        rows = jacobian_matrix(eqs) + [form]
        gens = eqs + [m for m in minors(rows, len(rows)) if not m.is_zero]
        expect_equal(job.family + " gsv", oracles.macaulay_colength(gens), job.expect["values"]["gsv"])
        if len(eqs) == 1:
            # Milnor number of a hypersurface: colength of its Jacobian ideal
            mu = oracles.macaulay_colength(jacobian_matrix(eqs)[0])
        else:
            # z = al x + be y: the curve is the plane curve of the second equation
            plane = parse_polynomial(pay["equations"][1], ("x", "y"))
            mu = oracles.macaulay_colength(jacobian_matrix([plane])[0])
        expect_equal(job.family + " milnor", mu, job.expect["values"]["milnor"])


def check_elk(rng):
    jobs = [W._elk_diag(rng, 3, 3), W._elk_diag(rng, 3, 4), W._elk_diag(rng, 3, 5),
            W._elk_zk(rng, 3), W._elk_zk(rng, 4), W._elk_action(rng, 3, 3, (-1, 1))]
    for job in jobs:
        got = oracles.winding_degree(job.doc["payload"]["data"], ("x", "y"))
        expect_equal(job.family + " degree", got, job.expect["values"]["index"])
        dim = colength_of(job.doc["payload"]["data"], ("x", "y"))
        expect_equal(job.family + " dimension", dim, job.expect["certificates"]["algebra_dimension"])
    # realified germs: the complex germ's colength is the recorded degree
    for a, b in ((1, 3), (2, 2)):
        signs = (rng.choice((-1, 1)), rng.choice((-1, 1)))
        comps = W._sqh_components(rng, (a, b), signs, hot_terms=1)
        got = colength_of([P.to_text(c, ("z1", "z2")) for c in comps], ("z1", "z2"))
        expect_equal(f"elk-real4-{a}x{b} complex colength", got, a * b)
    job = W._elk_real4(rng, 1, 3)
    dim = colength_of(job.doc["payload"]["data"], ("x1", "y1", "x2", "y2"))
    expect_equal(job.family + " dimension", dim, job.expect["certificates"]["algebra_dimension"])


def lattice_orders(degree, gens):
    """Subgroup class orders by joining cyclic subgroups."""
    group = PermutationGroup.from_one_based(degree, gens)
    elements = group.elements

    def close(seed):
        out = {group.identity} | set(seed)
        frontier = list(out)
        while frontier:
            g = frontier.pop()
            for h in list(out):
                for p in (tuple(g[i] for i in h), tuple(h[i] for i in g)):
                    if p not in out:
                        out.add(p)
                        frontier.append(p)
        return frozenset(out)

    subs = {close([g]) for g in elements}
    fresh = set(subs)
    while fresh:
        new = set()
        for a in fresh:
            for b in list(subs):
                j = close(a | b)
                if j not in subs and j not in new:
                    new.add(j)
        subs |= new
        fresh = new

    def inverse(g):
        inv = [0] * len(g)
        for i, x in enumerate(g):
            inv[x] = i
        return tuple(inv)

    seen, orders = set(), []
    for s in sorted(subs, key=len):
        if s in seen:
            continue
        cls = {frozenset(tuple(g[h[inverse(g)[i]]] for i in range(degree)) for h in s) for g in elements}
        seen |= cls
        orders.append(len(s))
    return sorted(orders)


def check_burnside(rng):
    groups = [W.dihedral(n) for n in (4, 5, 6, 8, 9, 10, 12, 14, 15, 16, 20)] + [
        W.cyclic(12), W.cyclic(18), W.cyclic(20), W.cyclic(24), W.cyclic(30), W.elementary_abelian(3), W.elementary_abelian(4),
        W.cp_squared(5), W.cp_squared(7), W.S4, W.A4, W.A5, W.S3, W.V4]
    for g in groups:
        expect_equal(f"{g['name']} class orders", lattice_orders(g["degree"], g["gens"]), g["orders"])
        for s in g["subs"]:
            expect_equal(f"{g['name']} > {s['name']} class orders", lattice_orders(g["degree"], s["gens"]), s["orders"])
    for g in (W.dihedral(6), W.S4, W.cyclic(12), W.elementary_abelian(3)):
        for op in ("mul", "restrict"):
            job = W.burnside_job(rng, g, op)
            pay = job.doc["payload"]
            group = PermutationGroup.from_one_based(pay["group"]["degree"], pay["group"]["generators"])
            a = {int(k): v for k, v in pay["a"].items()}
            if op == "mul":
                total = BurnsideElement.zero(group)
                for i, ca in a.items():
                    for j, cb in pay["b"].items():
                        total = total + oracles.burnside_mul_by_orbits(group, i, int(j)).scale(ca * cb)
                got, want = total, job.expect["values"]["product"]
            else:
                sub = [tuple(x - 1 for x in gen) for gen in pay["subgroup"]]
                subset = PermutationGroup(group.degree, sub).elements
                total = None
                for i, c in a.items():
                    part, h_group = oracles.restriction_by_orbits(group, i, subset)
                    part = part.scale(c)
                    total = part if total is None else total + part
                got, want = total, job.expect["values"]["restriction"]
            got = {str(k): v for k, v in sorted(got.coefficients.items())}
            expect_equal(job.family, got, want)


def main():
    for seed in range(SEEDS):
        rng = random.Random(f"selfcheck:{seed}")
        print(f"-- seed {seed}")
        for check in (check_smooth, check_icis, check_elk, check_burnside):
            check(rng)
    if FAILED:
        print(f"{len(FAILED)} mismatches", file=sys.stderr)
        return 1
    print("all recorded answers agree with the oracles")
    return 0


if __name__ == "__main__":
    sys.exit(main())
