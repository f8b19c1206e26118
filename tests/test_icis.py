import copy
import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import pytest

from singindex import icis, jobs
from singindex import smooth as sm
from singindex.errors import NotIsolatedError, RejectedInputError
from singindex.grobner import DEFAULT_DEGREE_CAP, INFINITE, Ideal
from singindex.jobs import ICIS_RULES, Report, _macaulay_oracle, run_job
from singindex.icis import (
    ICISGerm,
    gsv_index_1form,
    gsv_index_collection,
    homological_index_1form,
    isolatedness_certificate,
    milnor_number,
    radial_index_1form,
    radial_index_vf_from_gsv,
)
from singindex.oracles import macaulay_colength
from singindex.poly import Polynomial, jacobian_matrix
from singindex.smooth import OneFormGerm, complex_form_index, collection_index, SectionCollection

from helpers import pullback_one_form, random_unimodular, substitute_all

SPACE = ("x", "y", "z")
A1_CONE = ICISGerm(SPACE, ["x^2 + y^2 + z^2"])
A2_CONE = ICISGerm(SPACE, ["x^2 + y^2 + z^3"])
SMOOTH_PLANE = ICISGerm(("z1", "z2", "z3"), ["z3"])


def test_gsv_on_quadric_cone():
    assert gsv_index_1form(A1_CONE, ["0", "0", "1"]) == 2


def test_gsv_on_smooth_hypersurface():
    assert gsv_index_1form(SMOOTH_PLANE, ["z1", "z2", "0"]) == 1
    assert gsv_index_1form(SMOOTH_PLANE, ["z1", "z2^2", "0"]) == 2


def test_gsv_non_isolated():
    # dz restricted to {z=0} vanishes identically on the surface
    assert gsv_index_1form(ICISGerm(SPACE, ["z"]), ["0", "0", "1"]) is INFINITE


def test_gsv_invariant_under_coordinate_changes():
    rng = random.Random(19)
    cases = [
        (A1_CONE, ["0", "0", "1"], 2),
        (SMOOTH_PLANE, ["z1", "z2^2", "0"], 2),
    ]
    for germ, form, expected in cases:
        ctx = germ.variables
        coeffs = [OneFormGerm(ctx, form).coefficients[i] for i in range(len(ctx))]
        for _ in range(10):
            u = random_unimodular(3, rng)
            new_eqs = substitute_all(list(germ.equations), ctx, u)
            new_form = pullback_one_form(coeffs, ctx, u)
            moved = ICISGerm(ctx, new_eqs)
            assert gsv_index_1form(moved, new_form) == expected


def test_gsv_matches_smooth_index_in_adapted_coordinates():
    # on the smooth hypersurface {z3 = 0} the restricted form in the
    # coordinates (z1, z2) is z1 dz1 + z2^2 dz2
    restricted = OneFormGerm(("z1", "z2"), ["z1", "z2^2"])
    assert complex_form_index(restricted) == 2
    assert gsv_index_1form(SMOOTH_PLANE, ["z1", "z2^2", "0"]) == 2


def test_milnor_examples():
    assert milnor_number(A1_CONE) == 1
    assert milnor_number(ICISGerm(SPACE, ["x^3 + y^3 + z^3"])) == 8
    assert milnor_number(ICISGerm(SPACE, ["x^2 + y^2 + z^2", "x"])) == 1


def test_milnor_deterministic_across_seeds():
    values = {milnor_number(A2_CONE, seed=s) for s in (0, 1, 7, 123)}
    assert values == {2}


def _chain_agrees_with_the_gradient_oracle(germ):
    """The slice chain at seeds 0, 1 and 7 against the Macaulay colength
    of the gradient of the hypersurface; returns that colength."""
    (f,) = germ.equations
    oracle = macaulay_colength([f.derivative(i) for i in range(len(germ.variables))])
    for seed in (0, 1, 7):
        assert icis._milnor_chain(germ, random.Random(seed), DEFAULT_DEGREE_CAP) == oracle
    return oracle


def test_milnor_agrees_with_jacobian_ideal_for_hypersurfaces():
    # milnor_number takes the Jacobian colength itself, so the slice chain
    # and the Macaulay oracle check it
    hypersurfaces = [
        "x^2 + y^2 + z^2",
        "x^3 + y^3 + z^3",
        "x^2 + y^2 + z^3",
        "x^2 + y^3 + z^4",
        "x^2 + y^2 + z^5",
        "x^3 + y^2 + z^2",
    ]
    for f in hypersurfaces:
        germ = ICISGerm(SPACE, [f])
        assert milnor_number(germ) == _chain_agrees_with_the_gradient_oracle(germ)


def test_milnor_of_smooth_germ_is_zero():
    assert milnor_number(ICISGerm(SPACE, [])) == 0


NOT_ISOLATED = (
    "singular locus is not isolated: the colength of the equations "
    "and the maximal minors of their Jacobian is INFINITE"
)


@pytest.mark.parametrize("f", ["x*y", "x^2", "0"])
def test_milnor_genericity_failure_on_non_icis(f):
    # these are singular along a line, a plane and all of C^3, so the
    # Jacobian colength, and with it the singular-locus colength, is INFINITE
    with pytest.raises(NotIsolatedError) as err:
        milnor_number(ICISGerm(SPACE, [f]))
    assert str(err.value) == NOT_ISOLATED


def test_milnor_of_a_zero_dimensional_non_isolated_germ():
    with pytest.raises(NotIsolatedError) as err:
        milnor_number(ICISGerm(("x",), ["0"]))
    assert str(err.value) == "zero-dimensional germ has infinite multiplicity"


def _milnor_document(f, cap):
    return {
        "command": "icis",
        "op": "",
        "payload": {"variables": list(SPACE), "equations": [f], "form": ["0", "0", "1"], "want": ["milnor"]},
        "options": {"seed": 0, "degree_cap": cap},
    }


def test_non_isolated_hypersurface_document_exits_3():
    report, code = run_job(_milnor_document("x*y", 40))
    assert code == 3
    assert json.loads(report.to_json()) == {
        "certificates": {},
        "command": "icis",
        "flags": [],
        "op": "",
        "options": {"degree_cap": 40, "seed": 0},
        "oracle": {},
        "rules": {},
        "status": "non-isolated",
        "values": {"error": NOT_ISOLATED},
    }


def _spy_colength(monkeypatch):
    seen = []
    real = icis.colength

    def spy(ideal, degree_cap=DEFAULT_DEGREE_CAP):
        seen.append(ideal)
        return real(ideal, degree_cap)

    monkeypatch.setattr(icis, "colength", spy)
    return seen


@pytest.mark.parametrize(
    "equations, calls", [(["x^3 + y^3 + z^3"], 1), (["z - 2*x + y", "x^2 + 3*y^3"], 2)]
)
def test_milnor_number_runs_one_slice_chain(monkeypatch, equations, calls):
    # a hypersurface takes its Jacobian colength; a curve one colength per
    # slice plus one at dimension zero
    seen = _spy_colength(monkeypatch)
    milnor_number(ICISGerm(SPACE, equations), seed=0)
    assert len(seen) == calls


def test_milnor_number_of_a_hypersurface_is_its_jacobian_colength(monkeypatch):
    seen = _spy_colength(monkeypatch)
    assert milnor_number(ICISGerm(SPACE, ["x^3 + y^3 + z^3"]), seed=0) == 8
    (ideal,) = seen
    assert ideal.generators == Ideal.from_strings(["3*x^2", "3*y^2", "3*z^2"], SPACE).generators


def test_slice_chain_of_a_hypersurface_takes_one_colength_per_slice(monkeypatch):
    # two slices of the surface plus one at dimension zero
    seen = _spy_colength(monkeypatch)
    germ = ICISGerm(SPACE, ["x^3 + y^3 + z^3"])
    assert icis._milnor_chain(germ, random.Random(0), DEFAULT_DEGREE_CAP) == 8
    assert len(seen) == 3


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_milnor_number_of_the_benchmark_germs_at_two_seeds(monkeypatch, seed):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import make_stream

    jobs = [
        job
        for rnd in make_stream("local-colength", seed, 3)
        for job in rnd
        if job.doc["command"] == "icis"
    ]
    assert len(jobs) == 24
    for job in jobs:
        payload = job.doc["payload"]
        germ = ICISGerm(payload["variables"], payload["equations"])
        mu = job.expect["values"]["milnor"]
        assert milnor_number(germ, seed=0) == milnor_number(germ, seed=1) == mu
        if len(germ.equations) == 1:
            assert _chain_agrees_with_the_gradient_oracle(germ) == mu


SWEEP_GERMS = [
    "x^3+y^3+z^3",
    "x^2*y+y^4+z^2",
    "x^4+y^4+z^4+2*x*y*z",
    "x^3+y^4+z^5",
    "x^2*y^2+x^5+y^5+z^2",
    "x^3*y+y^3*z+z^3*x",
    "x^2+y^2+z^13",
]
# the Jacobian colength of each germ fits under this cap, one below the
# lowest at which the slice chain fits
LOWEST_JACOBIAN_CAP = {
    "x^3+y^3+z^3": (4, 8),
    "x^2*y+y^4+z^2": (4, 5),
    "x^4+y^4+z^4+2*x*y*z": (5, 11),
    "x^3+y^4+z^5": (7, 24),
    "x^2*y^2+x^5+y^5+z^2": (6, 11),
    "x^3*y+y^3*z+z^3*x": (7, 27),
}


@pytest.mark.parametrize("f", SWEEP_GERMS)
def test_degree_cap_sweep_of_hypersurfaces(monkeypatch, f):
    germ = ICISGerm(SPACE, [f])
    for cap in range(3, 16):
        report, code = run_job(_milnor_document(f, cap))
        with monkeypatch.context() as patch:
            patch.setattr(
                icis, "milnor_number", lambda g, seed, c: icis._milnor_chain(g, random.Random(seed), c)
            )
            chain_report, chain_code = run_job(_milnor_document(f, cap))
        if chain_code == 0:
            mu = json.loads(chain_report.to_json())["values"]["milnor"]
            assert milnor_number(germ, degree_cap=cap) == mu
            assert (report.to_json(), code) == (chain_report.to_json(), 0)
        else:
            assert chain_code == 4
            assert code in (0, 4)
    if f in LOWEST_JACOBIAN_CAP:
        cap, mu = LOWEST_JACOBIAN_CAP[f]
        report, code = run_job(_milnor_document(f, cap))
        assert code == 0 and json.loads(report.to_json())["values"]["milnor"] == mu


def test_radial_examples():
    assert radial_index_1form(A1_CONE, ["0", "0", "1"]) == 1
    # smooth variety: radial equals gsv
    assert radial_index_1form(SMOOTH_PLANE, ["z1", "z2^2", "0"]) == gsv_index_1form(
        SMOOTH_PLANE, ["z1", "z2^2", "0"]
    )


def test_radial_of_generic_linear_form_is_one_on_cones():
    rng = random.Random(29)
    for germ in (A1_CONE, A2_CONE):
        for _ in range(3):
            coeffs = [rng.randint(1, 9), rng.randint(-9, -1), rng.randint(1, 9)]
            form = [str(c) for c in coeffs]
            assert radial_index_1form(germ, form) == 1


def test_radial_vf_conversion_identity():
    assert radial_index_vf_from_gsv(2, 1, 2) == 1
    assert radial_index_vf_from_gsv(7, 0, 4) == 7
    assert radial_index_vf_from_gsv(0, 1, 3) == 1


def test_homological_equals_gsv():
    assert homological_index_1form(A1_CONE, ["0", "0", "1"]) == 2
    assert homological_index_1form(SMOOTH_PLANE, ["z1", "z2", "0"]) == 1
    form = ["x", "y^2", "z"]
    assert homological_index_1form(A1_CONE, form) == gsv_index_1form(A1_CONE, form)


def test_isolatedness_certificate():
    assert isolatedness_certificate(A1_CONE) == 1
    assert isolatedness_certificate(ICISGerm(SPACE, ["x*y"])) is INFINITE


def test_gsv_oracle_cross_check():
    from singindex.icis import _stacked_minors_ideal

    form = OneFormGerm(SPACE, ["0", "0", "1"])
    ideal = _stacked_minors_ideal(A1_CONE, [list(form.coefficients)])
    assert macaulay_colength(list(ideal.generators)) == 2


# -- collections on complete intersections


def test_collection_single_group_matches_single_form():
    form = ["x", "y^2", "z"]
    # one group with dim V forms of partition (dim V) is the single-form case
    assert gsv_index_collection(A1_CONE, [2], [[form]]) == gsv_index_1form(
        A1_CONE, form
    )


def test_collection_on_smooth_hypersurface():
    # two groups cutting independent conditions meet only at the origin
    value = gsv_index_collection(
        SMOOTH_PLANE,
        [1, 1],
        [
            [["1", "0", "0"], ["0", "z1", "0"]],
            [["0", "1", "0"], ["z2", "0", "0"]],
        ],
    )
    assert value == 1


def test_collection_with_constant_frames_is_nonsingular():
    # constant independent forms restrict to a frame: no special point,
    # the minors ideal contains a unit and the index is 0
    value = gsv_index_collection(
        SMOOTH_PLANE,
        [1, 1],
        [
            [["1", "0", "0"], ["0", "1", "0"]],
            [["1", "1", "0"], ["1", "-1", "0"]],
        ],
    )
    assert value == 0


def test_collection_without_equations_matches_smooth_collection():
    germ = ICISGerm(("z1", "z2"), [])
    value = gsv_index_collection(
        germ,
        [1, 1],
        [
            [["z1", "0"], ["0", "1"]],
            [["1", "0"], ["0", "z2"]],
        ],
    )
    coll = SectionCollection(
        ("z1", "z2"),
        rank=2,
        partition=[1, 1],
        matrices=[[["z1", "0"], ["0", "1"]], [["1", "0"], ["0", "z2"]]],
    )
    assert value == collection_index(coll) == 1


def test_collection_partition_checked():
    with pytest.raises(RejectedInputError):
        gsv_index_collection(A1_CONE, [1], [[["1", "0", "0"], ["0", "1", "0"]]])
    # an empty partition sums to dim V = 0, but is no collection: the
    # value would be the colength of the equations alone
    point = ICISGerm(SPACE, ["x^2 + y^3", "y^2 + z^3", "z^2 + x^3"])
    with pytest.raises(RejectedInputError, match="partition"):
        gsv_index_collection(point, [], [])


# -- the icis job against the report object it replaced
#
# ICISIndexReport, icis_report and the job runner that used them, as they
# were before the runner computed each value itself; only the module
# prefix of the runner's calls differs.


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


def reference_run_icis(report, job, run_oracle):
    germ = icis.ICISGerm(job.variables, job.equations)
    want, seed, cap = job.want, job.seed, job.cap
    if job.groups is not None:
        if set(want) & {"radial", "homological"}:
            raise RejectedInputError(
                "radial and homological indices are defined for single "
                "1-forms, not collections"
            )
        value = icis.gsv_index_collection(germ, job.partition, job.groups, cap)
        report.put("gsv", value, ICIS_RULES["gsv"])
        if "milnor" in want:
            report.put("milnor", icis.milnor_number(germ, seed, cap), ICIS_RULES["milnor"])
        report.certificates["isolated_singularity_colength"] = (
            icis.isolatedness_certificate(germ, cap)
        )
        return
    res = icis_report(germ, job.form, want=want, seed=seed, degree_cap=cap)
    for name in want:
        report.put(name, getattr(res, name), ICIS_RULES[name])
    report.certificates.update(res.certificates)
    if run_oracle and "gsv" in want:
        form = sm.OneFormGerm(job.variables, job.form)
        ideal = icis._stacked_minors_ideal(germ, [list(form.coefficients)])
        report.oracle = _macaulay_oracle(list(ideal.generators), res.gsv)


def _reference(document, run_oracle=False):
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(jobs._HANDLERS, "icis", (jobs._parse_icis, reference_run_icis))
        return run_job(document, run_oracle)


def _outcome(run):
    report, code = run
    return report.to_json(), code


WANTS = [
    list(names)
    for size in range(1, 5)
    for names in itertools.combinations(("gsv", "milnor", "radial", "homological"), size)
]
# isolated and non-isolated germs, of dimension 2 and 1
EQUATIONS = [
    ["x^2 + y^2 + z^2"],
    ["x^2 + y^3 + z^4"],
    ["x^3 + y^3 + z^3"],
    ["x*y"],
    ["x^2 + y^2 + z^2", "x + y^2"],
    ["x^2 + y^2", "z^2"],
    ["x^2 + y^3 + z^5", "y*z + x^3"],
]
TERMS = ["0", "1", "x", "y", "z", "x^2", "y^2", "z^2", "x*y", "y*z", "x*z", "x^3", "z^3"]


def _random_form(rng):
    return [
        " + ".join(f"{rng.randint(1, 3)}*{t}" for t in rng.sample(TERMS, rng.randint(1, 2)))
        for _ in SPACE
    ]


def _icis_document(rng, want, body):
    # caps 4 and 6 abort some colengths (exit 4); cap 40 is the default
    return {
        "command": "icis",
        "payload": {"variables": list(SPACE), **body, "want": want},
        "options": {"degree_cap": rng.choice((4, 6, 40))},
    }


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_icis_job_matches_the_reference_on_the_stream(monkeypatch, seed):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import make_stream

    documents = [
        job.doc
        for rnd in make_stream("local-colength", seed, 20)
        for job in rnd
        if job.doc["command"] == "icis"
    ]
    assert len(documents) == 160
    for document in documents:
        assert _outcome(run_job(document)) == _outcome(_reference(document))


def test_the_icis_job_matches_the_reference_on_forms_for_every_want():
    rng = random.Random(15)
    codes = set()
    for want in WANTS:
        for _ in range(6):
            document = _icis_document(
                rng, want, {"equations": rng.choice(EQUATIONS), "form": _random_form(rng)}
            )
            new = _outcome(run_job(document))
            assert new == _outcome(_reference(document)), document
            codes.add(new[1])
    assert codes == {0, 3, 4}


COLLECTION_REFUSAL = (
    "radial and homological indices are defined for single 1-forms, not collections"
)


def _forms(rng, count):
    # a zero form leaves its group no minors: the GSV index is INFINITE
    return [["0"] * 3 if rng.random() < 0.2 else _random_form(rng) for _ in range(count)]


def _collection(rng, equations):
    dim = len(SPACE) - len(equations)
    partition = rng.choice([[dim], [1] * dim])
    groups = [_forms(rng, dim - k + 1) for k in partition]
    return {"equations": equations, "collection": {"partition": partition, "groups": groups}}


def test_a_collection_differs_from_the_reference_only_in_what_want_selects():
    # the job computes a collection as it does a form: the certificate
    # of isolatedness first, the GSV index only when `want` asks for it,
    # the certificates of the values computed, the values once all are
    # known.  Past the degree cap the first colength to hit it names the
    # error, so exit-4 messages are not compared.
    rng = random.Random(16)
    seen = set()
    for want in WANTS:
        for _ in range(12):
            document = _icis_document(rng, want, _collection(rng, rng.choice(EQUATIONS)))
            report, code = run_job(document)
            if set(want) & {"radial", "homological"}:
                # refused by the parse now, so before a polynomial over the cap aborts
                diagnostic = {"path": "$.payload.want", "message": COLLECTION_REFUSAL}
                assert (code, report.values) == (2, {"diagnostics": [diagnostic]})
                job = jobs._Job(document)
                if job.over_cap is None:
                    with pytest.raises(RejectedInputError) as refused:
                        reference_run_icis(Report("icis"), job, False)
                    assert str(refused.value) == COLLECTION_REFUSAL
                continue
            reference, ref_code = _reference(document)
            seen.add((tuple(want), ref_code, code))
            if ref_code == 4:
                assert code == 4 or want == ["milnor"]
                continue
            expected = copy.deepcopy(reference)
            if "error" in reference.values:
                expected.values = {"error": reference.values["error"]}
                expected.rules, expected.certificates = {}, {}
            else:
                expected.values = {name: reference.values[name] for name in want}
                expected.rules = {name: ICIS_RULES[name] for name in want}
                if "gsv" in want:
                    expected.certificates["gsv_minors_colength"] = reference.values["gsv"]
                if "milnor" in want:
                    expected.certificates["milnor_number"] = reference.values["milnor"]
                if INFINITE not in expected.values.values():
                    expected.status, ref_code = "ok", 0
            assert (report.to_json(), code) == (expected.to_json(), ref_code), document
    # the milnor-only collections whose GSV index is INFINITE now exit 0
    assert (("milnor",), 3, 0) in seen
