"""The dual route for colengths and quotient algebras: a mod-p Macaulay
probe proposes and an exact rational dual basis certifies; past the
probe's bound the integration route does, and Mora's standard basis only
decides INFINITE."""

import json
import random
from collections import Counter
from fractions import Fraction
from itertools import accumulate, product
from math import comb, isqrt
from pathlib import Path

import pytest

from singindex import dual, grobner, icis
from singindex.cli import main
from singindex.errors import DegreeCapError, InternalCheckError
from singindex.grobner import (
    INFINITE,
    Ideal,
    colength,
    staircase_monomials,
    standard_basis,
)
from singindex.icis import ICISGerm, _stacked_minors_ideal
from singindex.jobs import run_job
from singindex.oracles import macaulay_colength
from singindex.poly import LOCAL_ORDER, Polynomial, parse_polynomial
from singindex.smooth import SectionCollection

from helpers import plus_one_at, random_unimodular, substitute_all

XYZ = ("x", "y", "z")
CTX = ("x", "y")
# germ that is not isolated (the ideal lies in (x)) and whose Mora
# completion reaches intermediate degree 17 before it finishes
EXIT_4_GERM = ["2*x*z^2 + 2*x^2*y^2*z", "3*x*z^5", "0"]
# smooth-index documents whose generators share the factor x + y + z + x^2
# or x + y + z + w + x^2; CI runs them through the command line too
COMMON_FACTOR_JOBS = sorted((Path(__file__).resolve().parent / "jobs").glob("common_factor_*.json"))


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
    """The ideals whose colengths the Milnor slice chains of the germ from
    seeds 0 and 1 take (walked directly: a hypersurface's Milnor number
    takes only its Jacobian colength)."""
    seen = []
    real = icis.colength

    def record(ideal, degree_cap=grobner.DEFAULT_DEGREE_CAP):
        seen.append(ideal)
        return real(ideal, degree_cap)

    icis.colength = record
    try:
        for seed in (0, 1):
            icis._milnor_chain(germ, random.Random(seed), grobner.DEFAULT_DEGREE_CAP)
    finally:
        icis.colength = real
    return seen


def _dual_count(ideal):
    """The colength certified by the dual probe, or None."""
    basis = dual.dual_basis(ideal.generators, grobner.DEFAULT_DEGREE_CAP)
    return None if basis is None else len(basis.vectors)


def _integrated_count(ideal):
    """The colength certified by the integration route."""
    return len(dual.integrated_dual_basis(ideal.generators, grobner.DEFAULT_DEGREE_CAP).vectors)


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
    # the probe, the integration route and the Macaulay oracle (Mora's
    # standard basis no longer counts a finite staircase)
    ideals = _seeded_ideals()
    assert len(ideals) == 15
    for ideal in ideals:
        columns = dual.dual_basis(ideal.generators, grobner.DEFAULT_DEGREE_CAP).columns
        assert columns == LOCAL_ORDER.sorted_descending(columns)
        certified = _dual_count(ideal)
        assert certified is not None, ideal
        assert certified == _integrated_count(ideal) == macaulay_colength(list(ideal.generators))
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
def test_isolated_germ_past_the_probe_bound_goes_through_the_integration_route(
    monkeypatch, names, k, index
):
    # D0 = k - 1 needs more than MAX_COLUMNS columns: Mora only finds the
    # staircase finite, and the integration route's columns are the
    # supports 1, x, ..., x^(k-1) of its functionals, where no product
    # m*g lands: no Macaulay row at all, not one column per monomial of
    # degree at most k
    data = [f"x^{k}"] + list(names[1:])
    assert dual.dual_basis(_ideal(data, names).generators, grobner.DEFAULT_DEGREE_CAP) is None
    calls = _count_mora(monkeypatch)
    shapes = []
    real = dual._certified

    def spy(rows, columns, mu, pivots):
        shapes.append((len(rows), len(columns), mu))
        return real(rows, columns, mu, pivots)

    monkeypatch.setattr(dual, "_certified", spy)
    report, code = run_job({"command": "elk", "payload": {"variables": list(names), "data": data}})
    assert code == 0
    assert report.values == {"index": index}
    assert report.certificates == {
        "algebra_dimension": k,
        "algebra_basis": ["1", "x"] + [f"x^{e}" for e in range(2, k)],
    }
    assert len(calls) == 1 and shapes == [(0, k, k)]


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
    # every column that is not free, of every vector, whether or not the
    # sparse vector holds an entry there
    changed = absent = 0
    for f in free:
        nums, den = vectors[f]
        for k in range(ncols):
            if k in free:
                continue
            tampered = {**vectors, f: (plus_one_at(nums, k), den)}
            with pytest.raises(InternalCheckError):
                dual.certify_dual_basis(rows, ncols, free, tampered)
            changed += 1
            absent += k not in nums
    assert changed > 50 and 0 < absent < changed
    f = free[0]
    nums, den = vectors[f]
    tampered = {**vectors, f: ({k: n for k, n in nums.items() if k != f}, den)}
    with pytest.raises(InternalCheckError):
        dual.certify_dual_basis(rows, ncols, free, tampered)
    # the sum of two certified vectors annihilates every row, and only
    # its entry at the other free column gives it away
    g = free[1]
    (a, da), (b, db) = vectors[f], vectors[g]
    both = {k: a.get(k, 0) * db + b.get(k, 0) * da for k in a.keys() | b.keys()}
    tampered = {**vectors, f: ({k: n for k, n in both.items() if n}, da * db)}
    with pytest.raises(InternalCheckError, match="identity"):
        dual.certify_dual_basis(rows, ncols, free, tampered)


def test_certificate_refuses_a_numerator_outside_the_columns(monkeypatch):
    # a key at ncols or at -1 names no column, whatever its value
    ideal = _pullback(random.Random(3), (2, 2, 2))
    rows, ncols, free, vectors = _certificate_of(ideal, monkeypatch)
    f = free[-1]
    nums, den = vectors[f]
    for k in (ncols, -1):
        for value in (1, 0):
            tampered = {**vectors, f: ({**nums, k: value}, den)}
            with pytest.raises(InternalCheckError, match="malformed"):
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


LARGE_COEFFICIENTS = ["x^2 + {C}*y^3 + x*y*z", "y^2 - {C}*z^3 + 3*x*z", "z^2 + x^3 - {C}*x*y"]


def _large_coefficient_document(exponent):
    data = [t.format(C=10**exponent + 7) for t in LARGE_COEFFICIENTS]
    assert macaulay_colength([parse_polynomial(t, XYZ) for t in data]) == 8
    return {"command": "smooth-index", "payload": {"variables": list(XYZ), "data": data}}


@pytest.mark.parametrize("exponent, rung", [(30, 521), (200, 4423), (300, 4423), (500, 11213)])
def test_large_coefficients_certify_at_the_first_rung_wide_enough(monkeypatch, exponent, rung):
    # with C = 10^e + 7 the dual basis has numerators up to about C^2, of
    # 6.6*e bits: each narrower rung fails to reconstruct them, and the
    # first one wide enough certifies
    document = _large_coefficient_document(exponent)
    moduli = []
    real = dual._reconstruct

    def spy(residues, modulus):
        moduli.append(modulus)
        return real(residues, modulus)

    monkeypatch.setattr(dual, "_reconstruct", spy)
    calls = _count_mora(monkeypatch)
    report, code = run_job(document)
    assert (code, report.values["index"]) == (0, 8)
    assert not calls
    certifying = dual.PRIMES.index(2**rung - 1)
    assert moduli == list(dual.PRIMES[: certifying + 1])


def test_large_coefficients_past_the_top_rung_are_an_internal_error(tmp_path, capsys):
    # with C = 10^1000 + 7 the numerators of about 6640 bits outgrow
    # 2^11213 - 1, which reconstructs up to 5606 bits: the run stops
    # cleanly, though the colength is 8
    document = _large_coefficient_document(1000)
    with pytest.raises(InternalCheckError, match="no prime certifies the integrated local dual"):
        run_job(document)
    path = tmp_path / "large.json"
    path.write_text(json.dumps(document))
    assert main(["smooth-index", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("internal error: ")
    assert "Traceback" not in captured.out + captured.err


def _lucas_lehmer(e):
    """True when 2^e - 1 is prime, for an odd prime e.  Since 2^e = 1 mod
    2^e - 1, a number is reduced by adding its high bits to its low ones."""
    m = 2**e - 1
    s = 4
    for _ in range(e - 2):
        s = s * s - 2
        s = (s & m) + (s >> e)
        if s >= m:
            s -= m
    return s % m == 0


def test_the_certificate_primes_are_mersenne_primes():
    def prime(e):
        return e > 1 and all(e % d for d in range(2, isqrt(e) + 1))

    exponents = [p.bit_length() for p in dual.PRIMES]
    assert list(dual.PRIMES) == [2**e - 1 for e in exponents]
    assert exponents == sorted(exponents) and exponents[0] == 61
    assert all(prime(e) and _lucas_lehmer(e) for e in exponents)
    # 2^67 - 1 = 193707721 * 761838257287 (Cole, 1903), and 4421 is a
    # prime exponent whose Mersenne number is composite
    assert prime(67) and prime(4421)
    assert not _lucas_lehmer(67) and not _lucas_lehmer(4421)


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


def test_fewer_generators_than_variables_reach_neither_probe_nor_mora(monkeypatch):
    # one of four components is 0: three generators in four variables,
    # where Mora runs out of work and the integration route reaches the
    # degree cap (exit 4) unless the height bound answers first
    assert colength(_ideal(["x*y + 1", "z"])) == 0  # a unit is not bounded
    calls = _count_mora(monkeypatch)
    probes = []
    monkeypatch.setattr(grobner, "dual_basis", lambda *args: probes.append(args))
    data = [
        "x1 - 2*y1^4 + 12*x1^2*y1^2 - 2*x1^4",
        "0",
        "-6*x2*y2^2 + 2*x2^3 - 2*y1*x2*y2 - x1*y2^2 + x1*x2^2",
        "-2*y2^3 + 6*x2^2*y2 - y1*y2^2 + y1*x2^2 + 2*x1*x2*y2",
    ]
    report, code = run_job({"command": "elk", "payload": {"variables": ["x1", "y1", "x2", "y2"], "data": data}})
    assert (code, report.status) == (3, "non-isolated")
    assert colength(_ideal(["x*y*z", "x^2 + y^2"])) is INFINITE
    assert calls == [] and probes == []


# non-isolated germs that neither witness covers: every variable has a
# pure power and the generators share no factor.  The zero set of the
# first holds the line x = y = z; the second is the stream's
# non-isolated family after x -> x + z, y -> y + z
MORA_GERMS = [["x^2 - y*z", "y^2 - x*z", "z^2 - x*y"], ["(x + z)^2", "2*(y + z)^3", "(y + z)*z^2"]]


def test_non_isolated_germs_reach_mora(monkeypatch):
    calls = _count_mora(monkeypatch)
    for data in MORA_GERMS:
        report, code = run_job({"command": "smooth-index", "payload": {"variables": list(XYZ), "data": data}})
        assert code == 3
    assert len(calls) == 2


def _spy_witness(monkeypatch):
    """The witnesses that grobner._axis and grobner._common_factor find,
    in order."""
    found = []
    for name in ("_axis", "_common_factor"):
        real = getattr(grobner, name)

        def spy(generators, real=real):
            out = real(generators)
            if out is not None:
                found.append(out)
            return out

        monkeypatch.setattr(grobner, name, spy)
    return found


@pytest.mark.parametrize(
    "data, axis",
    [(["x^2", "2*y^3", "y*z^2"], 2), (["2*x^2", "z", "2*x*y^2*z"], 1), (["x*y", "y*z", "x*z"], 0)],
)
def test_a_coordinate_axis_decides_before_the_probe(monkeypatch, data, axis):
    # no generator has a pure power of the axis variable, so every
    # generator vanishes on that axis
    calls = _count_mora(monkeypatch)
    probes = []
    monkeypatch.setattr(grobner, "dual_basis", lambda *args: probes.append(args))
    found = _spy_witness(monkeypatch)
    report, code = run_job({"command": "smooth-index", "payload": {"variables": list(XYZ), "data": data}})
    assert (code, report.values) == (3, {"index": INFINITE})
    assert found == [axis] and calls == [] and probes == []


PAST_THE_PROBE = [
    ("smooth-index", XYZ, ["x^4 + y*z^2 - y", "4*x*y^2*z + y^3 - 5*z", "-2*x*y^2*z + z^2"]),
    ("smooth-index", XYZ, ["x^4 + 2*x^2*z^2 + 5*x*z^3", "y^4 - 2*x^2 - 5*x*y", "-2*y^2*z + z^3"]),
    ("smooth-index", XYZ, ["x^4 - x*y - 4*y*z", "x^4 + y^4", "z^3 + 4*x"]),
    ("elk", XYZ, ["x^11", "y", "z"]),
    ("elk", ("x", "y", "z", "w"), ["x^40", "y", "z", "w"]),
    ("elk", ("x", "y", "z", "w", "v"), ["x^40", "y", "z", "w", "v"]),
]


@pytest.fixture(scope="module")
def stream_run():
    """One pass over the documents of the dual-heavy streams (3 rounds of
    seeds 1-3), a round of small jobs, the germs past the probe's bound,
    the non-isolated germs that reach Mora and the common-factor germs,
    spying on where each dual basis comes from.  Returns the local duals
    as (ideal, result, the certified dual bases, the standard bases and
    the witnesses found for it), and the generators of every ideal the
    probe was asked for with its basis (or None) and degree cap."""
    duals, probed = [], {}
    seen = {"certified": [], "mora": [], "witnesses": []}
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        from workloads import make_stream

        real_probe, real_route = grobner.dual_basis, grobner.integrated_dual_basis
        real_mora, real_local = grobner.standard_basis, grobner._local_dual

        def probe(generators, degree_cap):
            out = real_probe(generators, degree_cap)
            probed[tuple(generators)] = (out, degree_cap)
            seen["certified"].append(out)
            return out

        def route(generators, degree_cap):
            seen["certified"].append(real_route(generators, degree_cap))
            return seen["certified"][-1]

        def mora(ideal, degree_cap=grobner.DEFAULT_DEGREE_CAP):
            seen["mora"].append(real_mora(ideal, degree_cap))
            return seen["mora"][-1]

        def witness(real):
            def spy(generators):
                out = real(generators)
                if out is not None:
                    seen["witnesses"].append(out)
                return out

            return spy

        def local(ideal, degree_cap):
            seen["certified"], seen["mora"], seen["witnesses"] = [], [], []
            out = real_local(ideal, degree_cap)
            duals.append((ideal, out, seen["certified"], seen["mora"], seen["witnesses"]))
            return out

        patch.setattr(grobner, "dual_basis", probe)
        patch.setattr(grobner, "integrated_dual_basis", route)
        patch.setattr(grobner, "standard_basis", mora)
        patch.setattr(grobner, "_local_dual", local)
        patch.setattr(grobner, "_axis", witness(grobner._axis))
        patch.setattr(grobner, "_common_factor", witness(grobner._common_factor))
        patch.setattr(grobner, "staircase_monomials", None)
        documents = [
            job.doc
            for workload, rounds in (("local-colength", 3), ("elk-signature", 3), ("small-jobs", 1))
            for seed in (1, 2, 3)
            for rnd in make_stream(workload, seed, rounds)
            for job in rnd
        ]
        documents += [
            {"command": command, "payload": {"variables": list(names), "data": data}}
            for command, names, data in PAST_THE_PROBE
        ]
        documents += [{"command": "smooth-index", "payload": {"variables": list(XYZ), "data": data}} for data in MORA_GERMS]
        documents += [json.loads(path.read_text()) for path in COMMON_FACTOR_JOBS]
        for document in documents:
            run_job(document)
    return duals, probed


def test_mora_only_decides_infinite(stream_run):
    # every finite colength and algebra is the size or the basis of the
    # last dual basis that the probe or the integration route certified,
    # but for the unit ideal, whose empty basis comes before the probe;
    # INFINITE follows exactly one verdict: Krull's count, one witness,
    # or one standard basis with an infinite staircase, and the
    # staircase itself is never listed
    duals, _ = stream_run
    routed = 0
    verdicts = Counter()
    for ideal, out, certified, mora, witnesses in duals:
        if out is not INFINITE:
            if certified:
                assert out is certified[-1]
            else:
                assert any(g.constant_term() for g in ideal.generators)
                assert out == dual.DualBasis([], {})
            assert witnesses == []
            routed += len(certified) == 2
        elif len(ideal.generators) < len(ideal.context):
            assert witnesses == mora == []
            verdicts["krull"] += 1
        elif witnesses:
            assert len(witnesses) == 1 and mora == []
            verdicts["axis" if isinstance(witnesses[0], int) else "factor"] += 1
        else:
            assert [grobner.is_zero_dimensional(sb) for sb in mora] == [False]
            verdicts["mora"] += 1
    assert verdicts["axis"] > 5
    assert verdicts["factor"] == len(COMMON_FACTOR_JOBS) and verdicts["mora"] == len(MORA_GERMS)
    assert len(duals) > 300 and routed == len(PAST_THE_PROBE)


def test_integration_route_matches_the_probe_on_the_stream_ideals(stream_run):
    # every ideal the probe certifies in the streams, through the
    # integration route instead: the same colength, the same free
    # columns, and the same non-zero vector values at the same monomials
    # (the route's columns are the supports closed under division)
    _, probed = stream_run
    certified = {generators: found for generators, found in probed.items() if found[0] is not None}
    assert len(certified) > 300
    for generators, (probe, cap) in certified.items():
        route = dual.integrated_dual_basis(list(generators), cap)
        assert len(route.vectors) == len(probe.vectors)
        assert {route.columns[f] for f in route.vectors} == {probe.columns[f] for f in probe.vectors}
        index = {m: k for k, m in enumerate(route.columns)}
        for f, (nums, den) in probe.vectors.items():
            got, got_den = route.vectors[index[probe.columns[f]]]
            assert got_den == den
            at = {probe.columns[k]: n for k, n in nums.items()}
            assert at == {route.columns[k]: n for k, n in got.items()}
            assert all(nums.values())


# realified (z1^2 + z1^3, z2^2) in four real variables, shaped like the
# benchmark's elk-real4 germs: orders 2, 2, 2, 2 and colength 16
REAL4 = (
    ("x1", "y1", "x2", "y2"),
    ["x1^2 - y1^2 + x1^3 - 3*x1*y1^2", "2*x1*y1 + 3*x1^2*y1 - y1^3", "x2^2 - y2^2", "2*x2*y2"],
)


def _echelon_widths(monkeypatch):
    """The column counts of every echelon form the dual module takes."""
    widths = []
    real = dual._echelon

    def spy(rows, ncols, p):
        widths.append(ncols)
        return real(rows, ncols, p)

    monkeypatch.setattr(dual, "_echelon", spy)
    return widths


def _order(poly):
    return min(sum(m) for m in poly.terms)


@pytest.mark.parametrize(
    "names, texts, mu, width",
    [(CTX, ["x^3 + y^5", "y^4 + x^7"], 12, 28), (*REAL4, 16, 126)],
)
def test_the_plateau_at_the_jacobian_order_takes_one_echelon_form(monkeypatch, names, texts, mu, width):
    # s = 5 puts the first bound at 6 (28 columns); the real germ has
    # s = 4 and D0 = 4, so bound 5 (126 columns) replaces bounds 2, 4, 6
    widths = _echelon_widths(monkeypatch)
    generators = [parse_polynomial(t, names) for t in texts]
    basis = dual.dual_basis(generators, grobner.DEFAULT_DEGREE_CAP)
    assert widths == [width]
    assert len(basis.vectors) == mu == macaulay_colength(generators)
    assert max(sum(m) for m in basis.columns) == sum(_order(g) - 1 for g in generators)


def test_a_plateau_above_the_jacobian_order_steps_by_two(monkeypatch):
    # s = 2 but the socle x*y^2 has degree 3: bound 3 shows no plateau
    # below it, bound 5 finds D0 = 3, and M_3 is cut out of M_5 for the
    # certificate, not rebuilt
    widths = _echelon_widths(monkeypatch)
    bounds = []
    real = dual._macaulay_rows

    def spy(gens, columns, bound, index):
        bounds.append(bound)
        return real(gens, columns, bound, index)

    monkeypatch.setattr(dual, "_macaulay_rows", spy)
    generators = [parse_polynomial(t, CTX) for t in ("x^2", "x^2 + y^3")]
    basis = dual.dual_basis(generators, grobner.DEFAULT_DEGREE_CAP)
    assert bounds == [3, 5] and widths == [10, 21]
    assert len(basis.vectors) == 6 == macaulay_colength(generators)


CAP_GERMS = [
    (CTX, ["x^3 + y^5", "y^4 + x^7"]),
    (CTX, ["x^2", "x^2 + y^3"]),
    (CTX, ["x^2", "x*y", "y^3"]),
    REAL4,
    (XYZ, ["x^3 + y*z^2", "y^3 + x*z^2", "z^3"]),
    (XYZ, ["x^2", "y^3", "x*y*z^2"]),
]


def test_the_certificate_reads_m_d0_cut_out_of_m_b(stream_run, monkeypatch):
    # the rows of M_D0 that _certified receives, cut out of M_B, are those
    # of a fresh build at D0, in row order and entry order, over the
    # columns of degree at most D0
    _, probed = stream_run
    asked = [(list(ideal.generators), grobner.DEFAULT_DEGREE_CAP) for ideal in _seeded_ideals()]
    asked += [([parse_polynomial(t, names) for t in texts], cap) for names, texts in CAP_GERMS for cap in range(1, 13)]
    asked += [(list(generators), cap) for generators, (_, cap) in probed.items()]
    seen = []
    real = dual._certified

    def spy(rows, columns, mu, pivots):
        seen.append((rows, columns))
        return real(rows, columns, mu, pivots)

    monkeypatch.setattr(dual, "_certified", spy)
    checked = 0
    for generators, cap in asked:
        del seen[:]
        dual.dual_basis(generators, cap)
        if not seen:
            continue
        [(rows, columns)] = seen
        d0 = sum(columns[-1])
        layout, index, _ = dual._layout(len(generators[0].context), d0)
        gens = [dual._integer_terms(g) for g in generators if not g.is_zero]
        fresh = dual._macaulay_rows(gens, layout, d0, index)
        assert columns == list(layout)
        assert [list(row.items()) for row in rows] == [list(row.items()) for row in fresh]
        checked += 1
    assert checked > 300


def _layout_bounds(nvars):
    """Every bound up to MAX_COLUMNS, 0 included."""
    bound = 0
    while comb(bound + 1 + nvars, nvars) <= dual.MAX_COLUMNS:
        bound += 1
    return range(bound + 1)


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_a_cached_layout_is_a_fresh_build(nvars):
    # the columns are every exponent of degree <= B sorted by LOCAL_ORDER
    # from the largest down, keyed by their digits in base B + 1 in column
    # order; the layout of a lower bound is a prefix of the columns
    top = max(_layout_bounds(nvars))
    columns_top = dual._layout(nvars, top)[0]
    for bound in _layout_bounds(nvars):
        columns, index, ends = dual._layout(nvars, bound)
        fresh = LOCAL_ORDER.sorted_descending(
            [m for m in product(range(bound + 1), repeat=nvars) if sum(m) <= bound]
        )
        assert isinstance(columns, tuple) and list(columns) == fresh
        digits = [sum(e * (bound + 1) ** i for i, e in enumerate(m)) for m in fresh]
        assert list(index.items()) == [(k, i) for i, k in enumerate(digits)]
        per_degree = Counter(sum(m) for m in fresh)
        assert list(ends) == list(accumulate(per_degree[d] for d in range(bound + 1)))
        assert columns == columns_top[: ends[-1]]


def test_a_second_probe_of_the_same_shape_builds_no_columns(monkeypatch):
    # the same orders give the same bounds: the second probe reads every
    # layout from the cache, and its columns are its own list
    built = []
    real = dual.monomials_up_to_degree

    def spy(nvars, bound):
        built.append((nvars, bound))
        return real(nvars, bound)

    monkeypatch.setattr(dual, "monomials_up_to_degree", spy)
    dual._layout.cache_clear()
    first, second = ([parse_polynomial(t, CTX) for t in texts] for texts in (["x^2", "x^2 + y^3"], ["y^2", "x^3 + y^2"]))
    basis = dual.dual_basis(first, grobner.DEFAULT_DEGREE_CAP)
    assert built
    del built[:]
    again = dual.dual_basis(second, grobner.DEFAULT_DEGREE_CAP)
    assert built == []
    assert len(basis.vectors) == len(again.vectors) == 6 == macaulay_colength(second)
    kept = list(basis.columns)
    basis.columns.reverse()
    basis.columns.append((9, 9))
    assert dual.dual_basis(first, grobner.DEFAULT_DEGREE_CAP).columns == kept


def _dense_echelon(rows, ncols, p):
    """The echelon form of ``dual._echelon``, by a dense scan of each row
    over its columns: the reference for the sparse walk."""
    pivots = {}
    for row in rows:
        c = min(row)
        if c not in pivots and row[c] % p:
            inv = pow(row[c], -1, p)
            pivots[c] = [(k, v * inv % p) for k, v in sorted(row.items()) if k > c and v % p]
            continue
        vec = [0] * ncols
        for k, v in row.items():
            vec[k] = v
        c, hi = min(row), max(row)
        while c <= hi:
            x = vec[c] % p
            if x:
                tail = pivots.get(c)
                if tail is None:
                    inv = pow(x, -1, p)
                    pivots[c] = [(k, vec[k] * inv % p) for k in range(c + 1, hi + 1) if vec[k] % p]
                    break
                for k, v in tail:
                    vec[k] -= x * v
                if tail and tail[-1][0] > hi:
                    hi = tail[-1][0]
            c += 1
    return pivots


def _seeded_rows(rng, ncols, p):
    """Sparse integer rows with entries that vanish mod p, negative ones
    and ones above p; duplicates and integer combinations of earlier rows,
    which reduce to zero; rows whose every entry vanishes mod p."""
    values = [lambda: rng.randrange(1, p), lambda: -rng.randrange(1, 3 * p), lambda: rng.randrange(p, 3 * p),
              lambda: p * rng.randrange(-2, 3), lambda: rng.randrange(-3, 4)]
    rows = []
    for _ in range(3 * ncols):
        pick = rng.random()
        if rows and pick < 0.15:
            rows.append(dict(rng.choice(rows)))
        elif len(rows) > 1 and pick < 0.35:
            a, b = rng.sample(rows, 2)
            s, t = rng.randrange(-3, 4), rng.randrange(-3, 4)
            rows.append({k: s * a.get(k, 0) + t * b.get(k, 0) for k in a.keys() | b.keys()})
        elif pick < 0.4:
            rows.append({k: p * rng.randrange(-2, 3) for k in rng.sample(range(ncols), 2)})
        else:
            width = rng.randrange(1, 6)
            rows.append({k: rng.choice(values)() for k in rng.sample(range(ncols), width)})
    return rows


@pytest.mark.parametrize("p", [dual.PRIMES[0], 7])
def test_the_sparse_echelon_matches_a_dense_scan(monkeypatch, p):
    # seeded rows, then every echelon input of the probe on CAP_GERMS at
    # caps 1-12, over the prime that took it and over 7
    rng = random.Random(20)
    zero = 0
    for _ in range(40):
        ncols = rng.randrange(6, 30)
        rows = _seeded_rows(rng, ncols, p)
        pivots = dual._echelon(rows, ncols, p)
        assert pivots == _dense_echelon(rows, ncols, p)
        zero += len(rows) - len(pivots)
    assert zero > 1000
    taken = []
    real = dual._echelon

    def spy(rows, ncols, q):
        taken.append((rows, ncols, q))
        return real(rows, ncols, q)

    monkeypatch.setattr(dual, "_echelon", spy)
    for names, texts in CAP_GERMS:
        for cap in range(1, 13):
            dual.dual_basis([parse_polynomial(t, names) for t in texts], cap)
    monkeypatch.undo()
    assert len(taken) > 40
    for rows, ncols, q in taken:
        assert real(rows, ncols, q) == _dense_echelon(rows, ncols, q)
        assert real(rows, ncols, p) == _dense_echelon(rows, ncols, p)


def _dense_null_vectors(pivots, ncols, p):
    """The null vectors of ``dual._null_vectors``, by a dense
    back-substitution of each over every pivot below ncols, largest
    first: the reference for the sparse walk."""
    below = sorted((c for c in pivots if c < ncols), reverse=True)
    out = {}
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [0] * ncols
        vec[f] = 1
        for c in below:
            vec[c] = -sum(t * vec[k] for k, t in pivots[c] if k < ncols) % p
        out[f] = {k: v for k, v in enumerate(vec) if v}
    return out


@pytest.mark.parametrize("p", [dual.PRIMES[0], 7])
def test_the_sparse_null_vectors_match_a_dense_back_substitution(monkeypatch, p):
    # seeded echelon forms, then every echelon form of the probe on
    # CAP_GERMS at caps 1-12, over the prime that took it and over 7;
    # each at its own width and projected on fewer columns, as the probe
    # projects M_B on the columns of M_D0
    rng = random.Random(21)
    forms = []
    for _ in range(40):
        ncols = rng.randrange(6, 30)
        forms.append(((_seeded_rows(rng, ncols, p), ncols), p))
    taken = []
    real = dual._echelon

    def spy(rows, ncols, q):
        taken.append((rows, ncols))
        return real(rows, ncols, q)

    monkeypatch.setattr(dual, "_echelon", spy)
    for names, texts in CAP_GERMS:
        for cap in range(1, 13):
            dual.dual_basis([parse_polynomial(t, names) for t in texts], cap)
    monkeypatch.undo()
    assert len(taken) > 40
    forms += [(form, q) for form in taken for q in (dual.PRIMES[0], p)]
    vectors = below = 0
    for (rows, ncols), q in forms:
        pivots = real(rows, ncols, q)
        for width in (ncols, rng.randrange(1, ncols + 1)):
            found = dual._null_vectors(pivots, width, q)
            assert found == _dense_null_vectors(pivots, width, q)
            # 1 at the free column, and 0 above it
            assert all(max(vec) == f and vec[f] == 1 for f, vec in found.items())
            vectors += len(found)
            below += sum(len(vec) > 1 for vec in found.values())
    assert vectors > 4000 and below > 400


def test_the_first_bound_changes_no_dual_basis(stream_run, monkeypatch):
    # the first plateau and its mod-p dimensions do not depend on the
    # bound, so starting at 2 finds the same columns and vectors, or None
    _, probed = stream_run
    asked = [(list(generators), cap) for generators, (_, cap) in probed.items()]
    asked += [([parse_polynomial(t, names) for t in texts], cap) for names, texts in CAP_GERMS for cap in range(1, 13)]
    found = [dual.dual_basis(generators, cap) for generators, cap in asked]
    assert found[: len(probed)] == [out for out, _ in probed.values()]
    assert None in found and sum(basis is not None for basis in found) > 300
    real = dual._probe_bounds
    monkeypatch.setattr(dual, "_probe_bounds", lambda nvars, degree_cap, first: real(nvars, degree_cap, 2))
    for (generators, cap), basis in zip(asked, found):
        assert dual.dual_basis(generators, cap) == basis, (generators, cap)


def test_no_certified_plateau_lies_below_the_jacobian_order(stream_run, monkeypatch):
    # D0 >= s = sum(ord g_i - 1) for n generators in n variables, with the
    # order read off the lowest term; the probe starts at exactly 1 + s
    _, probed = stream_run
    firsts = []
    real = dual._probe_bounds

    def spy(nvars, degree_cap, first):
        firsts.append(first)
        return real(nvars, degree_cap, first)

    monkeypatch.setattr(dual, "_probe_bounds", spy)
    checked = 0
    for generators, (basis, cap) in probed.items():
        nonzero = [g for g in generators if not g.is_zero]
        if basis is None or not basis.columns or len(nonzero) != len(generators[0].context):
            continue
        del firsts[:]
        assert dual.dual_basis(list(generators), cap) == basis
        s = sum(_order(g) - 1 for g in nonzero)
        assert firsts == [1 + s]
        assert max(sum(m) for m in basis.columns) >= s, generators
        checked += 1
    assert checked > 300


# a dense germ that is not isolated: the factor x + y + z + x^2 makes its
# zero set a surface, and Mora's completion does not finish
SURFACE_GERM = [
    "(x + y + z + x^2)*(-3*x^2*z - 4*x*y*z + 5*x + 2*y*z + x)",
    "(x + y + z + x^2)*(4*y^2*z - x^2*z^2 - 4*x - 5*x^2*y^2 + y)",
    "(x + y + z + x^2)*(-4*x^2*z + z)",
]


# x_i^2 + (x_0 + ... + x_5)^2 + x_(i+1)*x_(i+2), indices mod 6: not
# isolated, yet it has neither witness, and Mora's completion does not
# finish, so the integration route runs to the cap
SIX_QUADRICS = (
    [f"x{i}" for i in range(6)],
    [f"x{i}^2 + (x0 + x1 + x2 + x3 + x4 + x5)^2 + x{(i + 1) % 6}*x{(i + 2) % 6}" for i in range(6)],
)


def test_a_local_dual_that_still_grows_at_the_cap_says_where(tmp_path, capsys):
    names, data = SIX_QUADRICS
    document = {
        "command": "smooth-index",
        "payload": {"variables": names, "data": data},
        "options": {"degree_cap": 6},
    }
    report, code = run_job(document)
    assert code == 4 and report.status == "aborted"
    assert report.values["error"] == (
        "the local dual did not stabilize below the degree cap 6: "
        "order 6 still added functionals, to dimension 66 (mod p)"
    )
    path = tmp_path / "six_quadrics.json"
    path.write_text(json.dumps(document))
    assert main(["smooth-index", str(path), "--format", "json"]) == 4
    captured = capsys.readouterr()
    assert json.loads(captured.out)["values"] == report.values
    assert "Traceback" not in captured.out + captured.err


# a germ that is not isolated: Mora's completion on it reduces about
# 400 000 terms before an intermediate degree passes 30
WORK_GERM = [
    "(x + 2*y - z + x*y + y*z^2)^3*(x^2 + y^3 - z)",
    "(x + 2*y - z + x*y + y*z^2)^3*(y^2 - x*z + z^4)",
    "(x + 2*y - z + x*y + y*z^2)^3*(z^2 + x*y^2 + 3*x)",
]


class _Tally:
    """A work budget that records the terms of every step charged to it
    and passes them on to an inner budget, if any."""

    def __init__(self, steps, inner=None):
        self.steps = steps
        self.inner = inner

    def spend(self, terms):
        self.steps.append(terms)
        if self.inner is not None:
            self.inner.spend(terms)


def test_mora_stops_within_its_work_budget(monkeypatch):
    # the spy counts the terms of every weak normal form step, with or
    # without a budget; the run may pass the budget by its last step only
    steps = []
    real = grobner._normal_form_mora

    def spy(p, basis, cap, budget=None):
        return real(p, basis, cap, _Tally(steps, budget))

    monkeypatch.setattr(grobner, "_normal_form_mora", spy)
    with pytest.raises(DegreeCapError):
        standard_basis(_ideal(WORK_GERM))
    assert sum(steps) <= grobner.MORA_WORK + max(steps)


def _verdict(ideal, minimal):
    return "finite" if grobner.is_zero_dimensional(grobner.StandardBasis(minimal, ideal)) else INFINITE


def _ladder_verdict(ideal, degree_cap):
    """Reference: the verdict of a first completion at a soft cap with no
    work bound, then of completions at twice the cap, up to the degree
    cap, that share a budget of MORA_WORK terms; and the terms that the
    first completion reduced."""
    generators = ideal.generators
    cap = min(degree_cap, max(12, 2 * max(g.degree() for g in generators) + 4))
    first = []
    try:
        return _verdict(ideal, grobner._completion(generators, cap, _Tally(first))), sum(first)
    except DegreeCapError:
        pass
    budget = grobner._WorkBudget(grobner.MORA_WORK)
    while cap < degree_cap and budget.left >= 0:
        cap = min(2 * cap, degree_cap)
        try:
            return _verdict(ideal, grobner._completion(generators, cap, budget)), sum(first)
        except DegreeCapError:
            pass
    return DegreeCapError, sum(first)


def _through_origin(rng, top, terms):
    out = {}
    for _ in range(terms):
        d = rng.randint(1, top)
        a = rng.randint(0, d)
        b = rng.randint(0, d - a)
        out[(a, b, d - a - b)] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
    return Polynomial(XYZ, out)


def _seeded_products(seed):
    """Products f * g_i with f a common factor through the origin: germs
    that are not isolated, some of which Mora completes."""
    rng = random.Random(seed)
    out = []
    for _ in range(20):
        f = _through_origin(rng, 3, 4)
        out.append(Ideal([f * _through_origin(rng, 3, 3) for _ in range(3)]))
    return out


def test_one_bounded_completion_keeps_the_ladder_verdicts():
    # the single run follows the ladder's first run until it raises, so
    # it keeps the ladder's verdict unless that first run, which had no
    # work bound, reduced more than MORA_WORK terms; then it raises
    cases = [(_ideal(EXIT_4_GERM), cap) for cap in (24, 40, 80)]
    cases.append((_ideal(SURFACE_GERM), 6))
    cases += [(_ideal(data, names), grobner.DEFAULT_DEGREE_CAP) for _, names, data in PAST_THE_PROBE]
    cases += [(ideal, grobner.DEFAULT_DEGREE_CAP) for ideal in _seeded_products(22)]
    verdicts = []
    for ideal, cap in cases:
        try:
            verdict = _verdict(ideal, standard_basis(ideal, cap).elements)
        except DegreeCapError:
            verdict = DegreeCapError
        reference, first_run = _ladder_verdict(ideal, cap)
        if first_run > grobner.MORA_WORK:
            assert verdict is DegreeCapError, (ideal, cap)
            verdicts.append("over budget")
        else:
            assert verdict == reference, (ideal, cap)
            verdicts.append(verdict)
    assert {"finite", INFINITE, DegreeCapError, "over budget"} <= set(verdicts)


# the germs _seeded_products(seed)[k] whose first completion at the old
# soft cap finished with an infinite staircase after more than MORA_WORK
# reduced terms, so one bounded completion stops on them
OVER_BUDGET_PRODUCTS = [
    (22, 11), (23, 1), (23, 5), (24, 4), (24, 8), (29, 1), (29, 4), (32, 6),
    (35, 2), (41, 15), (43, 11), (46, 13), (49, 11), (51, 9), (56, 15),
]


def test_germs_with_a_common_factor_end_at_a_witness(monkeypatch):
    documents = [json.loads(path.read_text()) for path in COMMON_FACTOR_JOBS]
    for seed, k in OVER_BUDGET_PRODUCTS:
        generators = _seeded_products(seed)[k].generators
        # both witnesses hold here; the axis answers first
        assert grobner._axis(generators) is not None
        assert grobner._common_factor(generators) is not None
        data = [str(g) for g in generators]
        documents.append({"command": "smooth-index", "payload": {"variables": list(XYZ), "data": data}})
    calls = _count_mora(monkeypatch)
    routes = []
    monkeypatch.setattr(grobner, "integrated_dual_basis", lambda *args: routes.append(args))
    found = _spy_witness(monkeypatch)
    for document in documents:
        report, code = run_job(document)
        assert (code, report.values) == (3, {"index": INFINITE})
    assert calls == [] and routes == [] and len(found) == len(documents)
    assert [str(f) for f, _ in found[: len(COMMON_FACTOR_JOBS)]] == ["x^2 + x + y + z + w", "x^2 + x + y + z"]


def test_a_tampered_common_factor_is_refused():
    generators = _ideal(SURFACE_GERM).generators
    f, quotients = grobner._common_factor(generators)
    assert grobner._certified_factor(generators, f, quotients)
    x, one = Polynomial.variable(XYZ, "x"), Polynomial.one(XYZ)
    assert not grobner._certified_factor(generators, f, [quotients[0] + x, *quotients[1:]])
    assert not grobner._certified_factor(generators, f, quotients[1:])
    # a constant f divides everything
    assert not grobner._certified_factor(generators, one, list(generators))
    # f(0) != 0: 1 + x divides every generator, but it is a unit at 0
    ideal = _ideal(["(1 + x)*x^2", "(1 + x)*y^3", "(1 + x)*z^2"])
    quotients = [parse_polynomial(t, XYZ) for t in ("x^2", "y^3", "z^2")]
    assert not grobner._certified_factor(ideal.generators, one + x, quotients)
    assert grobner._common_factor(ideal.generators) is None
    assert colength(ideal) == 12


def test_in_one_variable_a_common_factor_is_no_witness():
    # O/(x^2) is finite: the gcd x^2 of x^2 and x^3 leaves colength 2
    ideal = _ideal(["x^2", "x^3"], ("x",))
    quotients = [Polynomial.one(("x",)), Polynomial.variable(("x",), "x")]
    assert not grobner._certified_factor(ideal.generators, ideal.generators[0], quotients)
    assert grobner._common_factor(ideal.generators) is None
    assert colength(ideal) == 2


def test_the_gcd_finds_no_factor_that_kronecker_images_share():
    # x, y, z -> t, t^4, t^16 sends x + y and z - y to t + t^4 and
    # t^16 - t^4, which share t*(1 + t^3); the polynomials share nothing
    budget = grobner._WorkBudget(grobner.GCD_WORK)
    assert grobner._gcd({(1, 0, 0): 1, (0, 1, 0): 1}, {(0, 0, 1): 1, (0, 1, 0): -1}, budget) == {(0, 0, 0): 1}
    ideal = _ideal(["(x + y)*(x^2 + z)", "(z - y)*(y^2 + x)", "(x + y)*(z - y)*z"])
    assert grobner._common_factor(ideal.generators) is None


def test_unit_germs_stay_nonsingular(monkeypatch):
    # no generator has a pure power of any variable, but one is a unit
    found = _spy_witness(monkeypatch)
    probes, routes = [], []
    monkeypatch.setattr(grobner, "dual_basis", lambda *args: probes.append(args))
    monkeypatch.setattr(grobner, "integrated_dual_basis", lambda *args: routes.append(args))
    for command in ("smooth-index", "elk"):
        payload = {"variables": list(XYZ), "data": ["1 + x*y", "x*y*z", "y*z"]}
        report, code = run_job({"command": command, "payload": payload})
        assert code == 0 and "NONSINGULAR" in report.flags, report.to_json()
    assert found == probes == routes == []


def test_every_axis_verdict_is_infinite_for_the_macaulay_oracle():
    rng = random.Random(13)
    verdicts = Counter()
    for _ in range(80):
        ideal = Ideal([_through_origin(rng, 3, rng.randint(1, 2)) for _ in range(3)])
        if len(ideal.generators) < 3:
            continue
        axis = grobner._axis(ideal.generators)
        if axis is not None:
            assert macaulay_colength(list(ideal.generators), max_truncation=8) is INFINITE, ideal
        verdicts[axis is None] += 1
    assert verdicts[False] > 10 and verdicts[True] > 10


def test_the_gcd_gives_up_within_its_work_budget(monkeypatch):
    # dense cofactors of degree 5: the contents of the remainders grow
    # steeply, so the proposal stops and Mora decides
    rng = random.Random(1)
    f = _through_origin(rng, 2, 3)
    generators = [f * _through_origin(rng, 5, 20) for _ in range(3)]
    steps = []
    real = grobner._WorkBudget
    monkeypatch.setattr(grobner, "_WorkBudget", lambda work: _Tally(steps, real(work)))
    assert grobner._common_factor(generators) is None
    assert grobner.GCD_WORK < sum(steps) <= grobner.GCD_WORK + max(steps)
