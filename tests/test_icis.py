import random
from fractions import Fraction
from pathlib import Path

import pytest

from singindex import icis
from singindex.errors import RejectedInputError
from singindex.grobner import DEFAULT_DEGREE_CAP, INFINITE, Ideal, colength
from singindex.icis import (
    ICISGerm,
    gsv_index_1form,
    gsv_index_collection,
    homological_index_1form,
    icis_report,
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


def test_milnor_agrees_with_jacobian_ideal_for_hypersurfaces():
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
        poly = germ.equations[0]
        jac = [poly.derivative(i) for i in range(3)]
        oracle = colength(Ideal(jac))
        assert milnor_number(germ) == oracle


def test_milnor_of_smooth_germ_is_zero():
    assert milnor_number(ICISGerm(SPACE, [])) == 0


def test_milnor_genericity_failure_on_non_icis():
    from singindex.errors import NotIsolatedError

    # the surface xy = 0 has a whole singular line, so every slice chain
    # hits an infinite colength; the singular-locus colength then says why
    with pytest.raises(NotIsolatedError):
        milnor_number(ICISGerm(SPACE, ["x*y"]))


@pytest.mark.parametrize(
    "equations, calls", [(["x^3 + y^3 + z^3"], 3), (["z - 2*x + y", "x^2 + 3*y^3"], 2)]
)
def test_milnor_number_runs_one_slice_chain(monkeypatch, equations, calls):
    # one colength per slice plus one at dimension zero
    seen = []
    real = icis.colength

    def spy(ideal, degree_cap=DEFAULT_DEGREE_CAP):
        seen.append(ideal)
        return real(ideal, degree_cap)

    monkeypatch.setattr(icis, "colength", spy)
    milnor_number(ICISGerm(SPACE, equations), seed=0)
    assert len(seen) == calls


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
            (f,) = germ.equations
            assert macaulay_colength([f.derivative(i) for i in range(3)]) == mu


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


def test_report_invariants_and_certificates():
    report = icis_report(A1_CONE, ["0", "0", "1"])
    assert report.gsv == 2
    assert report.milnor == 1
    assert report.radial == 1
    assert report.homological == 2
    assert report.certificates["isolated_singularity_colength"] == 1
    report.check_invariants()
    with pytest.raises(RejectedInputError):
        bad = icis_report(A1_CONE, ["0", "0", "1"])
        bad.radial = 5
        bad.check_invariants()


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
