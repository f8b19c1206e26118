"""The dual route for colengths and quotient algebras: a mod-p Macaulay
probe proposes, an exact rational dual basis certifies, and Mora's
standard basis is only the fallback."""

import random
from fractions import Fraction

import pytest

from singindex import dual, grobner, icis
from singindex.errors import InternalCheckError
from singindex.grobner import (
    INFINITE,
    Ideal,
    colength,
    staircase_monomials,
    standard_basis,
)
from singindex.icis import ICISGerm, _stacked_minors_ideal, milnor_number
from singindex.jobs import run_job
from singindex.oracles import macaulay_colength
from singindex.poly import LOCAL_ORDER, Polynomial, parse_polynomial
from singindex.smooth import SectionCollection

from helpers import random_unimodular, substitute_all

XYZ = ("x", "y", "z")
CTX = ("x", "y")
# germ that is not isolated (the ideal lies in (x)) and whose plain Mora
# run overshoots the soft cap
EXIT_4_GERM = ["2*x*z^2 + 2*x^2*y^2*z", "3*x*z^5", "0"]


def _ideal(texts, variables=XYZ):
    return Ideal([parse_polynomial(t, variables) for t in texts])


def _pullback(rng, exps):
    """Semi-quasi-homogeneous germ (c_i x_i^e_i + terms of degree above
    max e) pulled back along a unimodular linear map: colength prod(e)."""
    top = max(exps)
    gens = []
    for i, e in enumerate(exps):
        terms = {tuple(e if j == i else 0 for j in range(3)): Fraction(rng.choice((-2, -1, 1, 2)))}
        for _ in range(2):
            d = rng.randint(top + 1, top + 2)
            a = rng.randint(0, d)
            b = rng.randint(0, d - a)
            terms[(a, b, d - a - b)] = Fraction(rng.randint(-3, 3))
        gens.append(Polynomial(XYZ, terms))
    return Ideal(substitute_all(gens, XYZ, random_unimodular(3, rng)))


def _chain_ideals(germ):
    """The ideals whose colengths the Milnor slice chain of the germ takes."""
    seen = []
    real = icis.colength

    def record(ideal, degree_cap=grobner.DEFAULT_DEGREE_CAP):
        seen.append(ideal)
        return real(ideal, degree_cap)

    icis.colength = record
    try:
        milnor_number(germ)
    finally:
        icis.colength = real
    return seen


def _dual_count(ideal):
    """The colength certified by the dual probe, or None."""
    basis = dual.dual_basis(ideal.generators, grobner.DEFAULT_DEGREE_CAP)
    return None if basis is None else len(basis.vectors)


def _mora_count(ideal, degree_cap=grobner.DEFAULT_DEGREE_CAP):
    stairs = staircase_monomials(standard_basis(ideal, degree_cap))
    return INFINITE if stairs is INFINITE else len(stairs)


def _seeded_ideals():
    rng = random.Random(6)
    out = [_pullback(rng, exps) for exps in ((2, 2, 2), (2, 2, 2), (2, 3, 2))]
    f, g, h = _pullback(rng, (2, 2, 2)).generators
    text = [str(p) for p in (f, g, h)]
    out.append(
        SectionCollection(
            XYZ, 2, (2, 1), [[[text[0]], [text[1]]], [[f"{text[2]} + x*(y + 1)", "x"], ["y + 1", "1"]]]
        ).minors_ideal()
    )
    out += _chain_ideals(ICISGerm(XYZ, ["x^3 + 2*y^3 + z^3"]))
    out += _chain_ideals(ICISGerm(XYZ, ["z - 2*x + y", "x^2 + 3*y^3"]))
    # the Tjurina ideal of T_{4,4,4}: colength 10, below mu = 11
    out.append(_stacked_minors_ideal(ICISGerm(XYZ, ["x^4 + y^4 + z^4 + 2*x*y*z"]), []))
    return out


def test_three_routes_agree_on_isolated_germs():
    ideals = _seeded_ideals()
    assert len(ideals) > 10
    for ideal in ideals:
        columns = dual.dual_basis(ideal.generators, grobner.DEFAULT_DEGREE_CAP).columns
        assert columns == LOCAL_ORDER.sorted_descending(columns)
        certified = _dual_count(ideal)
        assert certified is not None, ideal
        assert certified == _mora_count(ideal) == macaulay_colength(list(ideal.generators))
        assert colength(ideal) == certified


def test_routes_agree_on_unit_and_non_isolated_germs():
    unit = _ideal(["x^2 + 1", "y", "z^3"])
    assert colength(unit) == _mora_count(unit) == macaulay_colength(list(unit.generators)) == 0
    for texts in (["x^2", "y^3", "x*y*z^2"], ["x*y", "x*z"], EXIT_4_GERM):
        ideal = _ideal(texts)
        assert dual.dual_basis(ideal.generators, grobner.DEFAULT_DEGREE_CAP) is None
        assert _mora_count(ideal) is INFINITE
        assert macaulay_colength(list(ideal.generators), max_truncation=10) is INFINITE
        assert colength(ideal) is INFINITE


@pytest.mark.parametrize("cap", [24, 40, 80])
def test_exit_4_germ_is_infinite_at_every_cap(cap):
    # the same situation exits the same way in both commands
    reports = {}
    for command in ("smooth-index", "elk"):
        doc = {
            "command": command,
            "payload": {"variables": list(XYZ), "data": EXIT_4_GERM},
            "options": {"degree_cap": cap},
        }
        report, code = run_job(doc)
        assert code == 3, (command, report.values)
        assert report.status == "non-isolated"
        reports[command] = report
    assert reports["smooth-index"].values["index"] is INFINITE


@pytest.mark.parametrize(
    "names, k, index", [(XYZ, 11, 1), (("x", "y", "z", "w", "v"), 40, 0), (("x", "y", "z", "w"), 40, 0)]
)
def test_isolated_germ_past_the_probe_bound_goes_through_mora(monkeypatch, names, k, index):
    # D0 = k - 1 needs more than MAX_COLUMNS columns: Mora gives the
    # staircase 1, x, ..., x^(k-1), and the sparse matrix of its border has
    # one row y*x^i, z*x^i, ... per border monomial of degree below k, not
    # one column per monomial of degree at most k
    data = [f"x^{k}"] + list(names[1:])
    assert dual.dual_basis(_ideal(data, names).generators, grobner.DEFAULT_DEGREE_CAP) is None
    calls = _count_mora(monkeypatch)
    shapes = []
    real = grobner.certified_dual_basis

    def spy(rows, columns):
        shapes.append((len(rows), len(columns)))
        return real(rows, columns)

    monkeypatch.setattr(grobner, "certified_dual_basis", spy)
    report, code = run_job({"command": "elk", "payload": {"variables": list(names), "data": data}})
    assert code == 0
    assert report.values == {"index": index}
    assert report.certificates == {
        "algebra_dimension": k,
        "algebra_basis": ["1", "x"] + [f"x^{e}" for e in range(2, k)],
    }
    border = (len(names) - 1) * (k - 1)
    assert len(calls) == 1 and shapes == [(border, k + border)]


def _certificate_of(ideal, monkeypatch):
    """The arguments of the first successful certificate check."""
    seen = []
    real = dual.certify_dual_basis

    def spy(rows, ncols, free, vectors):
        real(rows, ncols, free, vectors)
        seen.append((rows, ncols, free, vectors))

    monkeypatch.setattr(dual, "certify_dual_basis", spy)
    assert _dual_count(ideal) is not None
    monkeypatch.undo()
    return seen[0]


def test_certificate_refuses_a_tampered_dual_basis(monkeypatch):
    ideal = _pullback(random.Random(3), (2, 2, 2))
    rows, ncols, free, vectors = _certificate_of(ideal, monkeypatch)
    dual.certify_dual_basis(rows, ncols, free, vectors)
    changed = 0
    for f in free:
        nums, den = vectors[f]
        for k in range(ncols):
            if k in free:
                continue
            tampered = dict(vectors)
            tampered[f] = (nums[:k] + [nums[k] + 1] + nums[k + 1:], den)
            with pytest.raises(InternalCheckError):
                dual.certify_dual_basis(rows, ncols, free, tampered)
            changed += 1
    assert changed > 50
    tampered = dict(vectors)
    f = free[0]
    tampered[f] = (vectors[f][0][:f] + [0] + vectors[f][0][f + 1:], vectors[f][1])
    with pytest.raises(InternalCheckError):
        dual.certify_dual_basis(rows, ncols, free, tampered)


def _count_mora(monkeypatch):
    calls = []
    real = grobner.standard_basis

    def spy(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(grobner, "standard_basis", spy)
    return calls


@pytest.mark.parametrize(
    "texts, value, certified",
    [
        # mod 7 the pivot of x + 7y moves from y to x: the first prime's
        # free columns are wrong, the next prime's are right
        (["x + 7*y", "y^2"], 2, True),
        # mod 7 the ideal is (y^2, x^2) of colength 4, so the probe
        # proposes too much and the certificate cannot hold
        (["7*x + y^2", "x^2 + y^3"], 3, False),
    ],
)
def test_unlucky_first_prime_keeps_the_value(monkeypatch, texts, value, certified):
    ideal = _ideal(texts, CTX)
    assert colength(ideal) == value
    monkeypatch.setattr(dual, "PRIMES", (7,) + dual.PRIMES)
    calls = _count_mora(monkeypatch)
    assert colength(ideal) == value
    assert (not calls) == certified


def test_small_first_prime_needs_more_primes(monkeypatch):
    # the dual basis has the entry 123456789, which residues mod 10007
    # cannot carry
    ideal = _ideal(["x - 123456789*y^2", "y^3"], CTX)
    assert colength(ideal) == 3
    monkeypatch.setattr(dual, "PRIMES", (10007,) + dual.PRIMES)
    moduli = []
    real = dual._reconstruct

    def spy(residues, modulus):
        moduli.append(modulus)
        return real(residues, modulus)

    monkeypatch.setattr(dual, "_reconstruct", spy)
    calls = _count_mora(monkeypatch)
    assert colength(ideal) == 3
    assert not calls
    assert moduli[0] == 10007 and len(moduli) > 1


def _workload_documents():
    rng = random.Random(11)
    germs = [_pullback(rng, (2, 2, 2)), _pullback(rng, (2, 2, 3))]
    docs = [
        {"command": "smooth-index", "payload": {"variables": list(XYZ), "kind": kind, "data": [str(g) for g in ideal.generators]}}
        for ideal, kind in zip(germs, ("vector_field", "one_form"))
    ]
    docs.append({"command": "smooth-index", "payload": {"variables": list(XYZ), "data": ["x^2 + 3", "y^2", "z^3"]}})
    docs.append({"command": "elk", "payload": {"variables": list(XYZ), "data": [str(g) for g in germs[1].generators]}})
    swap = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    docs.append(
        {
            "command": "elk",
            "payload": {"variables": list(XYZ), "data": ["x^3 + y*z^2", "y^3 + x*z^2", "z^3"], "action": [swap]},
        }
    )
    for equations, form in (
        (["x^4 + y^4 + z^4 + 2*x*y*z"], ["0", "0", "1"]),
        (["x^3 + 2*y^3 + 3*z^3"], ["0", "0", "1"]),
        (["z - 2*x - y", "x^2 + 2*y^3"], ["0", "1", "0"]),
    ):
        docs.append(
            {
                "command": "icis",
                "payload": {"variables": list(XYZ), "equations": equations, "form": form, "want": ["gsv", "milnor", "radial"]},
            }
        )
    return docs


def test_isolated_workload_germs_never_reach_mora(monkeypatch):
    calls = _count_mora(monkeypatch)
    for doc in _workload_documents():
        report, code = run_job(doc)
        assert code == 0, report.to_json()
    assert calls == []


def test_non_isolated_germs_reach_mora(monkeypatch):
    calls = _count_mora(monkeypatch)
    for data in (["x^2", "2*y^3", "y*z^2"], ["2*x^2", "z", "2*x*y^2*z"]):
        report, code = run_job({"command": "smooth-index", "payload": {"variables": list(XYZ), "data": data}})
        assert code == 3
    assert len(calls) == 2
