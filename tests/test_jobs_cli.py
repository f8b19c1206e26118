import copy
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from singindex import burnside, jobs, oracles, poly, smooth
from fractions import Fraction

from singindex.cli import main
from singindex.errors import DigitLimitError
from singindex.grobner import INFINITE
from singindex.jobs import Report, run_job, validate


def doc(command, payload, op="", options=None):
    return {"command": command, "op": op, "payload": payload, "options": options or {}}


def test_report_writes_infinite_as_a_string():
    report = Report(
        command="icis",
        values={"gsv": 2, "radial": INFINITE},
        flags=["NONSINGULAR"],
        rules={"gsv": "minors-ideal-colength"},
        certificates={"milnor_number": 1},
        options={"seed": 0, "degree_cap": 40},
    )
    data = json.loads(report.to_json())
    assert data["values"] == {"gsv": 2, "radial": "INFINITE"}
    assert data["certificates"] == {"milnor_number": 1}
    assert data["flags"] == ["NONSINGULAR"]


def test_validate_missing_variables():
    diagnostics = validate(doc("smooth-index", {"kind": "vector_field", "data": ["x"]}))
    assert any(d["path"] == "$.payload.variables" for d in diagnostics)


def test_validate_partition_mismatch():
    payload = {
        "variables": ["x", "y"],
        "kind": "collection",
        "data": {
            "rank": 2,
            "partition": [1, 2],
            "matrices": [
                [["x", "0"], ["0", "1"]],
                [["1"], ["y"]],
            ],
        },
    }
    diagnostics = validate(doc("smooth-index", payload))
    assert any(
        d["path"] == "$.payload.data.partition" and "sum" in d["message"]
        for d in diagnostics
    )


def test_validate_clean_job():
    payload = {
        "variables": ["z1", "z2"],
        "kind": "vector_field",
        "data": ["z1^2", "z2^3"],
    }
    assert validate(doc("smooth-index", payload)) == []


def test_run_smooth_index():
    report, code = run_job(
        doc(
            "smooth-index",
            {"variables": ["z1", "z2"], "kind": "vector_field", "data": ["z1^2", "z2^3"]},
        )
    )
    assert code == 0
    assert report.values["index"] == 6


def test_run_rejected_input_exit_2():
    report, code = run_job(doc("smooth-index", {"variables": ["x"], "data": ["x"]}))
    # kind defaults to vector_field; data has right length, so force a bad payload
    report, code = run_job(
        doc("smooth-index", {"variables": ["x", "y"], "kind": "vector_field", "data": ["x"]})
    )
    assert code == 2
    assert report.status == "rejected"


def test_run_non_isolated_exit_3():
    report, code = run_job(
        doc(
            "smooth-index",
            {"variables": ["z1", "z2"], "kind": "one_form", "data": ["z1", "0"]},
        )
    )
    assert code == 3
    assert report.status == "non-isolated"
    assert report.values["index"] is INFINITE


def test_run_nonsingular_flag():
    report, code = run_job(
        doc(
            "smooth-index",
            {"variables": ["z1", "z2"], "kind": "one_form", "data": ["1", "0"]},
        )
    )
    assert code == 0
    assert report.values["index"] == 0
    assert "NONSINGULAR" in report.flags


@pytest.mark.parametrize("action", [None, [[[0, 1], [1, 0]]]])
@pytest.mark.parametrize("command", ["elk", "smooth-index"])
def test_unit_ideal_is_nonsingular(command, action):
    payload = {"variables": ["x", "y"], "data": ["1+x", "y"]}
    if action is not None:
        payload["action"] = action
    report, code = run_job(doc(command, payload))
    assert code == 0
    assert report.values["index"] == 0
    assert "NONSINGULAR" in report.flags
    if command == "elk" and action is not None:
        assert report.values["invariant_dimension"] == 0
        assert report.values["invariant_signature"] == 0


def test_run_degree_cap_exit_4():
    report, code = run_job(
        doc(
            "smooth-index",
            {"variables": ["x", "y"], "kind": "vector_field", "data": ["x^2 + y^3", "x*y"]},
            options={"degree_cap": 2},
        )
    )
    assert code == 4
    assert report.status == "aborted"


def test_run_elk_with_action():
    payload = {
        "field": "R",
        "variables": ["x", "y"],
        "kind": "vector_field",
        "data": ["x^3", "y^3"],
        "action": [[[0, 1], [1, 0]]],
    }
    report, code = run_job(doc("elk", payload))
    assert code == 0
    assert report.values["index"] == 1
    assert report.values["invariant_dimension"] == 6
    assert report.values["invariant_signature"] == 2


@pytest.mark.parametrize("data", [["x^3", "y^3"], ["x^2 - y^2", "2*x*y"], ["x*y", "x^2 - y^2"]])
def test_an_empty_action_is_the_trivial_group(data):
    payload = {"field": "R", "variables": ["x", "y"], "data": data, "action": []}
    report, code = run_job(doc("elk", payload))
    assert code == 0
    assert report.values["invariant_dimension"] == report.certificates["algebra_dimension"]
    assert report.values["invariant_signature"] == report.values["index"]
    assert report.rules["invariant_dimension"] == "trace-average-over-group"


ACTION_REFUSALS = {
    "not-invertible": (["x^2", "y^3"], [[1, 0], [0, 0]], "action matrices must be invertible"),
    "not-finite": (
        ["x^3", "y^3"],
        [[1, 1], [0, 1]],
        "group closure exceeded the cap of 512 elements; the action is not (verifiably) finite",
    ),
    "ideal-not-invariant": (["x^2", "y^3"], [[0, 1], [1, 0]], "ideal is not invariant under the action"),
    "functional-not-positive": (
        ["x^2", "y^2"],
        [[-1, 0], [0, 1]],
        "averaged functional is not positive on the Jacobian class; "
        "the form data is not compatible with the action",
    ),
}


@pytest.mark.parametrize("case", sorted(ACTION_REFUSALS))
def test_elk_action_refusals_carry_their_path_and_no_values(monkeypatch, case):
    data, matrix, message = ACTION_REFUSALS[case]
    built = []
    real = smooth.elk_form
    monkeypatch.setattr(smooth, "elk_form", lambda *args: built.append(args) or real(*args))
    payload = {"field": "R", "variables": ["x", "y"], "data": data, "action": [matrix]}
    report, code = run_job(doc("elk", payload))
    assert code == 2
    assert report.status == "rejected"
    assert report.values == {"diagnostics": [{"path": "$.payload.action", "message": message}]}
    assert report.certificates == {} and report.flags == [] and report.rules == {}
    # the group is closed before the local algebra is built
    assert len(built) == (case not in ("not-invertible", "not-finite"))


def test_run_strat_mobius_determinantal():
    # the rank stratification of 2x2 matrices: chain of two strata
    payload = {
        "strata": ["rank<2", "rank<3"],
        "covers": [[0, 1]],
        "n": {"0,1": 1},
    }
    report, code = run_job(doc("strat", payload, op="mobius"), run_oracle=True)
    assert code == 0
    assert report.values["m"] == {"0,0": 1, "0,1": -1, "1,1": 1}
    assert report.oracle["match"]


def test_run_burnside_euler():
    payload = {
        "group": {"degree": 2, "generators": [[2, 1]]},
        "strata": [{"isotropy": 1, "chiOrbit": 2}, {"isotropy": 0, "chiOrbit": 0}],
    }
    report, code = run_job(doc("burnside", payload, op="euler"))
    assert code == 0
    assert report.values["pretty"] == "2·[G/G]"


def test_run_burnside_mul_with_oracle():
    payload = {
        "group": {"degree": 3, "generators": [[2, 1, 3], [2, 3, 1]]},
        "a": {"1": 1},
        "b": {"2": 1},
    }
    report, code = run_job(doc("burnside", payload, op="mul"), run_oracle=True)
    assert code == 0
    assert report.oracle["match"]


MACAULAY_CHECKED = [
    doc("smooth-index", {"variables": ["x", "y"], "data": ["x^2 + y^3", "x*y"]}),
    doc("icis", {"variables": ["x", "y", "z"], "equations": ["x^2 + y^2 + z^2"],
                 "form": ["0", "0", "1"], "want": ["gsv"]}),
    doc("icis", {"variables": ["x", "y", "z"], "equations": ["x^2 + y^2 + z^2"],
                 "collection": {"partition": [1, 1], "groups": [[["x", "y", "0"], ["0", "z", "y"]],
                                                                [["1", "0", "0"], ["0", "0", "1"]]]},
                 "want": ["gsv"]}),
]


@pytest.mark.parametrize(
    "document", MACAULAY_CHECKED, ids=["smooth-index", "icis", "icis-collection"]
)
def test_macaulay_oracle_past_its_budget_is_unsupported(document, monkeypatch):
    report, code = run_job(document, run_oracle=True)
    assert code == 0
    assert report.oracle["kind"] == "macaulay-truncation" and report.oracle["match"]
    monkeypatch.setattr(oracles, "MACAULAY_BUDGET", 10)
    capped, code = run_job(document, run_oracle=True)
    assert code == 0
    assert capped.oracle == {"kind": "macaulay-truncation", "supported": False}
    assert capped.values == report.values


def test_run_equivariant_ph_check():
    payload = {
        "group": {"degree": 2, "generators": [[2, 1]]},
        "orbit_indices": [
            {"subgroup": [[2, 1]], "index": {"1": 1}},
            {"subgroup": [[2, 1]], "index": {"1": 1}},
        ],
        "chi": {"1": 2},
    }
    report, code = run_job(doc("equivariant", payload, op="ph-check"))
    assert code == 0
    assert report.values["holds"] is True


def test_run_icis_report():
    payload = {
        "variables": ["x", "y", "z"],
        "equations": ["x^2 + y^2 + z^2"],
        "form": ["0", "0", "1"],
        "want": ["gsv", "milnor", "radial", "homological"],
    }
    report, code = run_job(doc("icis", payload))
    assert code == 0
    assert report.values == {"gsv": 2, "milnor": 1, "radial": 1, "homological": 2}
    assert report.rules == {
        "gsv": "minors-ideal-colength",
        "milnor": "slice-recursion",
        "radial": "gsv-minus-milnor",
        "homological": "equals-gsv-on-complete-intersections",
    }
    assert report.certificates == {
        "isolated_singularity_colength": 1,
        "gsv_minors_colength": 2,
        "milnor_number": 1,
    }


CONE_COLLECTION = {
    "variables": ["x", "y", "z"],
    "equations": ["x^2+y^2+z^2"],
    "collection": {
        "partition": [1, 1],
        "groups": [[["x", "y", "z"], ["y", "z", "x"]], [["z", "x", "y"], ["x", "x", "z"]]],
    },
}


def test_a_collection_computes_only_what_want_asks_for():
    # the GSV index of this collection is INFINITE; asked only for mu,
    # the job computes no GSV index and exits 0, as a form does
    report, code = run_job(doc("icis", {**CONE_COLLECTION, "want": ["milnor"]}))
    assert code == 0
    assert report.values == {"milnor": 1}
    assert report.certificates == {"isolated_singularity_colength": 1, "milnor_number": 1}
    report, code = run_job(doc("icis", {**CONE_COLLECTION, "want": ["gsv", "milnor"]}))
    assert code == 3
    assert report.values == {"gsv": INFINITE, "milnor": 1}
    assert report.certificates == {
        "isolated_singularity_colength": 1,
        "gsv_minors_colength": INFINITE,
        "milnor_number": 1,
    }


@pytest.mark.parametrize("want", [["radial"], ["homological"], ["gsv", "radial"]])
def test_radial_or_homological_on_a_collection_is_refused_at_parse_time(want):
    document = doc("icis", {**CONE_COLLECTION, "want": want})
    report, code = run_job(document)
    assert code == 2
    assert report.values == {
        "diagnostics": [
            {
                "path": "$.payload.want",
                "message": "radial and homological indices are defined for single 1-forms, "
                "not collections",
            }
        ]
    }
    assert validate(document) == report.values["diagnostics"]


def test_an_empty_partition_is_refused():
    payload = {
        "variables": ["x", "y", "z"],
        "equations": ["x^2+y^3", "y^2+z^3", "z^2+x^3"],
        "collection": {"partition": [], "groups": []},
    }
    report, code = run_job(doc("icis", payload))
    assert code == 2
    assert report.values == {
        "diagnostics": [
            {
                "path": "$.payload.collection.partition",
                "message": "partition must be a list of positive integers",
            }
        ]
    }
    # the `collection` command refuses an empty partition with the same words
    sections = {"variables": ["x"], "data": {"rank": 1, "partition": [], "matrices": []}}
    assert validate(doc("collection", sections)) == [
        {"path": "$.payload.data.partition", "message": "partition must be a list of positive integers"}
    ]


def test_icis_equation_off_the_origin_is_a_path_diagnostic():
    payload = {
        "variables": ["x", "y", "z"],
        "equations": ["x^2 + y^2 + z^2", "x - y + 1"],
        "form": ["0", "0", "1"],
    }
    report, code = run_job(doc("icis", payload))
    assert code == 2
    assert report.status == "rejected"
    assert report.values == {
        "diagnostics": [
            {"path": "$.payload.equations[1]", "message": "equations must vanish at the origin"}
        ]
    }
    assert validate(doc("icis", payload)) == report.values["diagnostics"]


@pytest.mark.parametrize("equations", [["x*y"], ["0"], ["x^2+y^2", "z^2"]])
@pytest.mark.parametrize(
    "want", [["gsv"], ["milnor"], ["gsv", "milnor"], ["radial"], ["homological"]]
)
def test_a_germ_with_a_non_isolated_singular_locus_exits_3_for_every_want(equations, want):
    payload = {"variables": ["x", "y", "z"], "equations": equations, "form": ["x", "y", "z"], "want": want}
    report, code = run_job(doc("icis", payload))
    assert code == 3, report.values
    assert report.status == "non-isolated"


@pytest.mark.parametrize("want", [["gsv"], ["radial"], ["homological"], ["milnor", "gsv"]])
def test_a_1_form_index_on_a_zero_dimensional_germ_is_refused_at_parse_time(want):
    payload = {"variables": ["x", "y"], "equations": ["x^2 - y^3", "y^2 + x^3"], "form": ["1", "0"], "want": want}
    report, code = run_job(doc("icis", payload))
    assert code == 2
    assert [d["path"] for d in report.values["diagnostics"]] == ["$.payload.equations"]
    assert validate(doc("icis", payload)) == report.values["diagnostics"]


def test_the_milnor_number_of_a_zero_dimensional_germ_still_runs():
    payload = {"variables": ["x", "y"], "equations": ["x^2 - y^3", "y^2 + x^3"], "form": ["1", "0"], "want": ["milnor"]}
    report, code = run_job(doc("icis", payload))
    assert code == 0
    assert report.values == {"milnor": 3}


def test_an_elk_document_parses_each_polynomial_once(monkeypatch):
    # every parse of text starts in the tokenizer; parse_polynomial hands
    # a Polynomial over the same variables back without one
    texts = []
    real = poly._tokenize

    def spy(text):
        texts.append(text)
        return real(text)

    monkeypatch.setattr(poly, "_tokenize", spy)
    payload = {
        "field": "R",
        "variables": ["x", "y"],
        "kind": "vector_field",
        "data": ["x^3 + x*y^2", "y^3 - 2*x^2*y"],
        "action": [[[-1, 0], [0, -1]]],
    }
    report, code = run_job(doc("elk", payload))
    assert code == 0
    assert texts == payload["data"]


def test_exit_codes_stable_across_runs(tmp_path):
    job = tmp_path / "job.json"
    job.write_text(
        json.dumps(
            {
                "variables": ["x", "y", "z"],
                "equations": ["x^2 + y^2 + z^2"],
                "form": ["0", "0", "1"],
                "want": ["gsv", "milnor", "radial"],
            }
        )
    )
    outputs = []
    for _ in range(2):
        code = main(["icis", str(job), "--seed", "5", "--format", "json"])
        outputs.append(code)
    assert outputs == [0, 0]


def test_cli_validate(tmp_path, capsys):
    job = tmp_path / "bad.json"
    job.write_text(json.dumps({"command": "icis", "payload": {"variables": ["x"]}}))
    code = main(["validate", str(job)])
    captured = capsys.readouterr()
    assert code == 2
    assert "$.payload" in captured.out


def test_cli_full_document(tmp_path, capsys):
    job = tmp_path / "full.json"
    job.write_text(
        json.dumps(
            {
                "command": "smooth-index",
                "payload": {
                    "variables": ["z1", "z2"],
                    "kind": "vector_field",
                    "data": ["z1^2", "z2^3"],
                },
            }
        )
    )
    code = main(["smooth-index", str(job), "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    data = json.loads(captured.out)
    assert data["values"]["index"] == 6


def test_cli_command_mismatch_rejected(tmp_path):
    job = tmp_path / "full.json"
    job.write_text(json.dumps({"command": "elk", "payload": {}}))
    with pytest.raises(SystemExit):
        main(["icis", str(job)])


def _options_job(tmp_path, options):
    job = tmp_path / "options.json"
    payload = {"variables": ["x", "y"], "kind": "vector_field", "data": ["x^7", "y^7"]}
    job.write_text(json.dumps({"command": "smooth-index", "payload": payload, "options": options}))
    return str(job)


@pytest.mark.parametrize("flag, name, stated, given", [("--seed", "seed", 5, 7), ("--degree-cap", "degree_cap", 40, 3)])
def test_a_flag_that_differs_from_the_job_file_is_refused(tmp_path, flag, name, stated, given):
    job = _options_job(tmp_path, {name: stated})
    with pytest.raises(SystemExit) as err:
        main(["smooth-index", job, flag, str(given)])
    assert err.value.code == f"job file says {name} {stated} but {given} was requested"


@pytest.mark.parametrize("flag, name, given, default", [("--seed", "seed", 7, 0), ("--degree-cap", "degree_cap", 30, 40)])
def test_a_flag_sets_what_the_job_file_does_not_state(tmp_path, capsys, flag, name, given, default):
    job = _options_job(tmp_path, {})
    assert main(["smooth-index", job, flag, str(given), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["options"][name] == given and report["values"]["index"] == 49
    # the same value as the file's is no conflict
    job = _options_job(tmp_path, {name: given})
    assert main(["smooth-index", job, flag, str(given), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["options"][name] == given
    # without the flag, the default
    job = _options_job(tmp_path, {})
    assert main(["smooth-index", job, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["options"][name] == default


@pytest.mark.parametrize("flag, name, stated", [("--seed", "seed", 5), ("--degree-cap", "degree_cap", 3)])
def test_a_flag_not_given_leaves_the_job_files_value(tmp_path, capsys, flag, name, stated):
    job = _options_job(tmp_path, {name: stated})
    code = main(["smooth-index", job, "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert report["options"][name] == stated
    # the cap of 3 lies below x^7: the job aborts at it
    assert code == (4 if name == "degree_cap" else 0)
    # options that are not an object are the job's to refuse
    job = _options_job(tmp_path, [stated])
    assert main(["smooth-index", job, flag, str(stated), "--format", "json"]) == 2
    assert json.loads(capsys.readouterr().out)["values"]["diagnostics"][0]["path"] == "$.options"


SEEDED_ICIS = {"variables": ["x", "y", "z"], "equations": ["x^2 + y^2 + z^3"], "form": ["0", "0", "1"], "seed": 5}
PAYLOAD_SEED = [{"path": "$.payload.seed", "message": "the seed is an option: give it as options.seed"}]


@pytest.mark.parametrize("flags, options", [(["--seed", "7"], {}), ([], {"seed": 5}), (["--seed", "5"], {"seed": 5}), ([], {})])
def test_a_seed_in_the_payload_is_refused_at_its_path(tmp_path, capsys, flags, options):
    # options.seed is the one seed: a payload seed is refused whatever
    # the file's options and the --seed flag say
    job = tmp_path / "icis.json"
    job.write_text(json.dumps({"command": "icis", "payload": SEEDED_ICIS, "options": options}))
    assert main(["icis", str(job), "--format", "json", *flags]) == 2
    assert json.loads(capsys.readouterr().out)["values"]["diagnostics"] == PAYLOAD_SEED
    assert main(["validate", str(job)]) == 2
    assert capsys.readouterr().out == f"$.payload.seed: {PAYLOAD_SEED[0]['message']}\n"
    document = doc("icis", SEEDED_ICIS, options=options)
    assert run_job(document) == (Report("icis", "", "rejected", {"diagnostics": PAYLOAD_SEED}), 2)
    # without it the same document runs, with the seed of its options
    payload = {k: v for k, v in SEEDED_ICIS.items() if k != "seed"}
    report, code = run_job(doc("icis", payload, options=options))
    assert code == 0 and report.options["seed"] == options.get("seed", 0)


def test_an_integer_too_long_to_read_is_invalid_json(tmp_path):
    job = tmp_path / "long.json"
    digits = "7" * (sys.get_int_max_str_digits() + 700)
    job.write_text('{"command": "strat", "op": "det-n", "payload": {"m": ' + digits + "}}")
    with pytest.raises(SystemExit) as err:
        main(["strat", str(job)])
    assert str(err.value.code).startswith("job file is not valid JSON: ")


@pytest.mark.parametrize("command", ["smooth-index", "validate"])
def test_a_job_file_nested_past_the_recursion_limit_is_invalid_json(tmp_path, command):
    job = tmp_path / "deep.json"
    job.write_text("[" * 100_000 + "]" * 100_000)
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-m", "singindex.cli", command, str(job)],
        capture_output=True, env=env, timeout=60,
    )
    assert done.returncode == 1
    assert done.stderr.startswith(b"job file is not valid JSON: ")
    assert b"Traceback" not in done.stderr, done.stderr


def test_the_digit_limit_is_exact():
    limit = sys.get_int_max_str_digits()
    group = burnside.PermutationGroup(2, [[1, 0]])
    jobs._check_digits(
        10**limit - 1,
        -(10**limit - 1),
        Fraction(1, 10**limit - 1),
        [{"a": (1, 2)}],
        burnside.BurnsideElement(group, {0: 10**limit - 1}),
        ((1, (2, [10**limit - 1])),),
    )
    for value in (
        10**limit,
        -(10**limit),
        Fraction(1, 10**limit),
        [{"a": (1, 10**limit)}],
        burnside.BurnsideElement(group, {1: -(10**limit)}),
        ((1, (2, [10**limit])),),
    ):
        with pytest.raises(DigitLimitError) as err:
            jobs._check_digits(value)
        assert str(err.value) == (
            f"a result has more than {limit} decimal digits, more than this Python converts to text"
        )


def _too_long_to_print():
    nines = int("9" * (sys.get_int_max_str_digits() * 3 // 4))
    chain = {f"{i},{i + 1}": 10 ** (sys.get_int_max_str_digits() // 4) for i in range(5)}
    return {
        "mul": doc("burnside", {"group": {"degree": 2, "generators": [[2, 1]]}, "a": {"0": nines}, "b": {"0": nines}}, op="mul"),
        "mobius": doc("strat", {"strata": list("abcdef"), "covers": [[i, i + 1] for i in range(5)], "n": chain}, op="mobius"),
    }


@pytest.mark.parametrize("name", ["mul", "mobius"])
def test_a_result_too_long_to_print_ends_in_exit_4(name):
    report, code = run_job(_too_long_to_print()[name])
    assert (code, report.status) == (4, "aborted")
    limit = sys.get_int_max_str_digits()
    assert report.values == {
        "error": f"a result has more than {limit} decimal digits, more than this Python converts to text"
    }
    assert json.loads(report.to_json())["certificates"] == {}
    report.to_text()


def test_a_certificate_too_long_to_print_ends_in_exit_4(monkeypatch):
    monkeypatch.setattr(jobs.ic, "isolatedness_certificate", lambda germ, cap: 10**5000)
    payload = {"variables": ["x", "y", "z"], "equations": ["x^2 + y^2 + z^2"], "form": ["0", "0", "1"]}
    report, code = run_job(doc("icis", {**payload, "want": ["milnor"]}))
    assert (code, report.status) == (4, "aborted")
    assert report.certificates == {} and list(report.values) == ["error"]
    report.to_json()


def test_an_integer_is_read_only_when_str_can_print_it():
    default = sys.get_int_max_str_digits()
    try:
        # 640 is the least limit Python takes, where the bit-length test ends
        for limit in (640, 641, default):
            sys.set_int_max_str_digits(limit)
            assert jobs._is_int(10**limit - 1) and jobs._is_int(-(10**limit - 1))
            assert not jobs._is_int(10**limit) and not jobs._is_int(-(10**limit))
    finally:
        sys.set_int_max_str_digits(default)


_GROUP = {"degree": 2, "generators": [[2, 1]]}
_CHAIN = {"strata": ["a", "b"], "covers": [[0, 1]]}
_ICIS = {"variables": ["x", "y", "z"], "equations": ["x^2 + y^2 + z^2"]}


def _too_long_to_read(name):
    """A dict document with an integer that str() cannot print at one
    field, with the path and message of its diagnostic."""
    big = 10 ** sys.get_int_max_str_digits()
    det_n = {"m": 5, "n": 5, "i": 1, "j": 1}
    square = [["x", "y"], ["y", "x"]]
    sections = {"rank": 2, "partition": [1, 1], "matrices": [square, square]}
    forms = [[["1", "0", "0"], ["0", "1", "0"]]]
    cases = {
        "det-n i": (
            doc("strat", {**det_n, "i": big}, op="det-n"), "$.payload.i", "expected an integer"
        ),
        "radial-from-phn t": (
            doc("strat", {"t": big, "m": 5, "n": 5, "phn": [1], "dim_v": 2, "chibar": 0}, op="radial-from-phn"),
            "$.payload.t",
            "t must be a positive integer",
        ),
        "covers pair": (
            doc("strat", {**_CHAIN, "covers": [[0, big]]}, op="mobius"),
            "$.payload.covers",
            "expected a list of [i, j] index pairs",
        ),
        "collection partition": (
            doc("collection", {"variables": ["x", "y"], "data": {**sections, "partition": [big, 1]}}),
            "$.payload.data.partition",
            "partition must be a list of positive integers",
        ),
        "icis partition": (
            doc("icis", {**_ICIS, "collection": {"partition": [big], "groups": forms}}),
            "$.payload.collection.partition",
            "partition must be a list of positive integers",
        ),
        "element key": (
            doc("burnside", {"group": _GROUP, "a": {big: 1}}, op="r0"),
            "$.payload.a[<long integer>]",
            "class index must be an integer",
        ),
        "euler isotropy": (
            doc("burnside", {"group": _GROUP, "strata": [{"isotropy": big, "chiOrbit": 1}]}, op="euler"),
            "$.payload.strata[0].isotropy",
            "expected a class index or a list of permutations of 1..2",
        ),
        "group degree": (
            doc("burnside", {"group": {**_GROUP, "degree": big}}, op="classes"),
            "$.payload.group.degree",
            "degree must be a positive integer",
        ),
        "seed": (
            doc("strat", det_n, op="det-n", options={"seed": big}),
            "$.options.seed",
            "seed must be an integer",
        ),
        "slice value": (
            doc("strat", {**_CHAIN, "n": {"0,1": big}}, op="mobius"),
            "$.payload.n['0,1']",
            "expected an integer",
        ),
        "slice key": (
            doc("strat", {**_CHAIN, "n": {big: 1}}, op="mobius"),
            "$.payload.n[<long integer>]",
            "keys must look like 'i,j'",
        ),
        "section entry": (
            doc("collection", {"variables": ["x", "y"], "data": {**sections, "matrices": [[[big, "y"], ["y", "x"]], square]}}),
            "$.payload.data.matrices[0][0][0]",
            "integer in polynomial text is too long",
        ),
        "command": (
            doc(big, {}),
            "$.command",
            f"command must be one of {', '.join(jobs.COMMANDS)}",
        ),
        "smooth-index op": (
            doc("smooth-index", {"variables": ["x", "y"], "data": ["x", "y"]}, op=big),
            "$.op",
            "op holds an integer too long to print",
        ),
        "elk op": (
            doc("elk", {"variables": ["x", "y"], "data": ["x", "y"]}, op={"a": [big]}),
            "$.op",
            "op holds an integer too long to print",
        ),
        "stratum label": (
            doc("strat", {**_CHAIN, "strata": ["a", big]}, op="mobius"),
            "$.payload.strata[1]",
            "stratum label holds an integer too long to print",
        ),
        "stratum label key": (
            doc("strat", {**_CHAIN, "strata": [[{big: 1}], "b"]}, op="mobius"),
            "$.payload.strata[0]",
            "stratum label holds an integer too long to print",
        ),
    }
    return cases[name]


@pytest.mark.parametrize(
    "name",
    [
        "det-n i",
        "radial-from-phn t",
        "covers pair",
        "collection partition",
        "icis partition",
        "element key",
        "euler isotropy",
        "group degree",
        "seed",
        "slice value",
        "slice key",
        "section entry",
        "command",
        "smooth-index op",
        "elk op",
        "stratum label",
        "stratum label key",
    ],
)
def test_an_input_integer_too_long_to_print_is_refused_at_its_path(name):
    document, path, message = _too_long_to_read(name)
    report, code = run_job(document)
    assert (code, report.status) == (2, "rejected")
    assert report.values == {"diagnostics": [{"path": path, "message": message}]}
    if path in ("$.command", "$.op"):  # the report echoes a placeholder
        assert getattr(report, path[2:]) == jobs.LONG_INTEGER
    report.to_json()
    report.to_text()


@pytest.mark.parametrize(
    "op, payload, paths",
    [
        ("det-n", {"m": 20000, "n": 20000, "i": 1, "j": 10000}, ["$.payload.m", "$.payload.n"]),
        ("det-n", {"m": 3 * 10**6, "n": 3 * 10**6, "i": 1, "j": 15 * 10**5}, ["$.payload.m", "$.payload.n"]),
        ("det-n", {"m": 10001, "n": 5, "i": 1, "j": 2}, ["$.payload.m"]),
        ("radial-from-phn", {"t": 1, "m": 5, "n": 20000, "phn": [1], "dim_v": 2, "chibar": 0}, ["$.payload.n"]),
        ("phn-from-radial", {"t": 1, "m": 20000, "n": 5, "radial": [1], "chibars": [0], "dims": [2]}, ["$.payload.m"]),
    ],
)
def test_matrix_sizes_above_the_bound_are_refused(op, payload, paths):
    document = doc("strat", payload, op=op)
    # validate first: past the bound, run_job would spend minutes in
    # math.comb on the second det-n
    diagnostics = validate(document)
    assert [d["path"] for d in diagnostics] == paths
    assert {d["message"] for d in diagnostics} <= {
        f"{key} must be at most {jobs.MAX_MATRIX_SIZE}" for key in "mn"
    }
    assert run_job(document) == (Report("strat", op, "rejected", {"diagnostics": diagnostics}), 2)


def test_matrix_sizes_at_the_bound_run():
    report, code = run_job(doc("strat", {"m": 10000, "n": 10000, "i": 1, "j": 5000}, op="det-n"))
    assert code == 0
    assert abs(report.values["n"]) == math.comb(9999, 4999)


GROUP = {"degree": 2, "generators": [[2, 1]]}
DET_N = {"m": 2, "n": 3, "i": 1, "j": 2}
POSET = {"strata": ["a", "b"], "covers": [[0, 1]], "n": {"0,1": 2}}
PLANE_GERM = {"variables": ["x", "y"], "data": ["x", "y"]}

REJECTED = {
    "options-not-object": ("strat", "det-n", DET_N, [1]),
    "options-seed-string": ("strat", "det-n", DET_N, {"seed": "a"}),
    "options-cap-string": ("strat", "det-n", DET_N, {"degree_cap": "a"}),
    "options-cap-negative": ("strat", "det-n", DET_N, {"degree_cap": -3}),
    "action-entry-string": ("elk", "", {**PLANE_GERM, "action": [[["a", "0"], ["0", "1"]]]}, {}),
    "action-entry-exponent": ("elk", "", {**PLANE_GERM, "action": [[["1e999999999", "0"], ["0", "1"]]]}, {}),
    "action-entry-singular": ("elk", "", {**PLANE_GERM, "action": [[[0, 0], [0, 1]]]}, {}),
    "class-key-string": ("burnside", "r0", {"group": GROUP, "a": {"x": 1}}, {}),
    "coefficient-string": ("burnside", "mul", {"group": GROUP, "a": {"0": "x"}, "b": {"0": 1}}, {}),
    "chi-class-key": ("equivariant", "gsv-from-radial", {"group": GROUP, "radial": {"x": 1}, "chibar": {"0": 1}}, {}),
    "group-degree-string": ("burnside", "classes", {"group": {"degree": "2", "generators": [[2, 1]]}}, {}),
    "permutation-entry-string": ("burnside", "classes", {"group": {"degree": 2, "generators": [[2, "1"]]}}, {}),
    "isotropy-string": ("equivariant", "radial", {"group": GROUP, "orbits": [{"isotropy": "99", "index": 1}]}, {}),
    "chi-orbit-list": ("burnside", "euler", {"group": GROUP, "strata": [{"isotropy": 0, "chiOrbit": []}]}, {}),
    "slice-key-outside-poset": ("strat", "mobius", {**POSET, "n": {"0,99": 1}}, {}),
    "slice-value-string": ("strat", "mobius", {**POSET, "n": {"0,1": "x"}}, {}),
    "target-outside-poset": ("strat", "radial-from-eu", {**POSET, "vectors": {"eu": [1, 2]}, "target": 5}, {}),
    "icis-seed-string": ("icis", "", {"variables": ["x", "y"], "equations": ["x"], "form": ["0", "1"], "seed": "a"}, {}),
    "icis-want-unhashable": ("icis", "", {"variables": ["x", "y"], "equations": ["x"], "form": ["0", "1"], "want": [[1]]}, {}),
    "group-degree-bool": ("burnside", "classes", {"group": {"degree": True, "generators": [[1]]}}, {}),
    "coefficient-bool": ("burnside", "r0", {"group": GROUP, "a": {"0": True}}, {}),
    "options-cap-bool": ("strat", "det-n", DET_N, {"degree_cap": True}),
    "class-key-space": ("burnside", "r0", {"group": GROUP, "a": {" 1": 1}}, {}),
    "polynomial-nesting": ("smooth-index", "", {**PLANE_GERM, "data": ["(" * 3000 + "x" + ")" * 3000, "y"]}, {}),
    "polynomial-long-integer": ("smooth-index", "", {**PLANE_GERM, "data": ["1" * 5000, "y"]}, {}),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_bad_payload_is_rejected_not_raised(case):
    command, op, payload, options = REJECTED[case]
    report, code = run_job({"command": command, "op": op, "payload": payload, "options": options})
    assert code == 2
    assert report.status == "rejected"


def test_cli_rejects_options_that_are_not_an_object(tmp_path, capsys):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"command": "strat", "op": "det-n", "payload": DET_N, "options": [1]}))
    assert main(["strat", str(job), "--format", "json"]) == 2
    diagnostics = json.loads(capsys.readouterr().out)["values"]["diagnostics"]
    assert diagnostics == [{"path": "$.options", "message": "options must be a JSON object"}]


DUPLICATE_VARIABLES = {
    "smooth-index": {"variables": ["x", "x"], "data": ["x", "x"]},
    "elk": {"variables": ["x", "x"], "data": ["x", "x"]},
    "collection": {
        "variables": ["x", "x"],
        "data": {"rank": 1, "partition": [1, 1], "matrices": [[["x"]], [["x"]]]},
    },
    "icis": {"variables": ["x", "x", "y"], "equations": ["x"], "form": ["0", "0", "1"]},
}


@pytest.mark.parametrize("command", sorted(DUPLICATE_VARIABLES))
def test_duplicate_variable_names_are_rejected(command):
    report, code = run_job(doc(command, DUPLICATE_VARIABLES[command]))
    assert code == 2
    assert report.values["diagnostics"] == [
        {"path": "$.payload.variables", "message": "variable names must be distinct"}
    ]


BAD_POSETS = {
    "cover-outside-the-poset": (["a", "b"], [[0, 5]], {}, "$.payload.covers", "bad cover pair (0, 5)"),
    "cyclic-covers": (["a", "b", "c"], [[0, 1], [1, 2], [2, 0]], {}, "$.payload.covers", "order relation has a cycle"),
    "repeated-label": (["a", "a"], [[0, 1]], {}, "$.payload.strata", "stratum labels must be distinct"),
    "slice-on-incomparable-pair": (
        ["a", "b"], [], {"0,1": 2}, "$.payload.n", "entry (0, 1) given on an incomparable pair"
    ),
    "slice-diagonal-not-1": (["a", "b"], [[0, 1]], {"0,0": 2}, "$.payload.n", "diagonal entries must all be 1"),
}


@pytest.mark.parametrize("case", sorted(BAD_POSETS))
def test_poset_refusals_carry_a_path(case):
    strata, covers, n, path, message = BAD_POSETS[case]
    payload = {"strata": strata, "covers": covers, "n": n}
    report, code = run_job({"command": "strat", "op": "mobius", "payload": payload})
    assert code == 2
    assert report.values == {"diagnostics": [{"path": path, "message": message}]}


# C2 on 8 points; (1 2) and (1 ... 8) generate all of S8
C2_OF_DEGREE_8 = {"degree": 8, "generators": [[2, 1, 3, 4, 5, 6, 7, 8]]}
OUTSIDE_C2 = [[2, 1, 3, 4, 5, 6, 7, 8], [2, 3, 4, 5, 6, 7, 8, 1]]
OUTSIDE_SUBGROUP = {
    "restrict": ("burnside", {"a": {"0": 1}, "subgroup": OUTSIDE_C2}),
    "induce": ("burnside", {"a": {"0": 1}, "subgroup": OUTSIDE_C2}),
    "euler": ("burnside", {"strata": [{"isotropy": OUTSIDE_C2, "chiOrbit": 1}]}),
    "radial": ("equivariant", {"orbits": [{"isotropy": OUTSIDE_C2, "index": 1}]}),
    "ph-check": (
        "equivariant",
        {"orbit_indices": [{"subgroup": OUTSIDE_C2, "index": {"0": 1}}], "chi": {"0": 1}},
    ),
}


@pytest.mark.parametrize("op", sorted(OUTSIDE_SUBGROUP))
def test_subgroup_outside_the_group_is_rejected_before_closure(monkeypatch, op):
    closed = []
    real_closure = burnside._closure

    def spy(degree, perms):
        elements, images = real_closure(degree, perms)
        closed.append(len(elements))
        return elements, images

    monkeypatch.setattr(burnside, "_closure", spy)
    command, payload = OUTSIDE_SUBGROUP[op]
    report, code = run_job(doc(command, {"group": C2_OF_DEGREE_8, **payload}, op=op))
    assert code == 2
    assert report.values["error"] == "not a subgroup of this group"
    assert closed and max(closed) <= 2


# S3 has four subgroup classes and its subgroup <(1 2)> two
S3_GROUP = {"degree": 3, "generators": [[2, 1, 3], [2, 3, 1]]}
ISOTROPY_99 = [{"isotropy": 0, "chiOrbit": 1}, {"isotropy": 99, "chiOrbit": 1}]
BAD_CLASS_INDEX = {
    "a": ("burnside", "mul", {"a": {"99": 1}, "b": {"0": 1}}, "$.payload.a['99']"),
    "b": ("burnside", "mul", {"a": {"0": 1}, "b": {"0": 2, "99": 1}}, "$.payload.b['99']"),
    "chi": ("equivariant", "ph-check", {"orbit_indices": [], "chi": {"99": 1}}, "$.payload.chi['99']"),
    "radial": (
        "equivariant", "gsv-from-radial", {"radial": {"99": 1}, "chibar": {}}, "$.payload.radial['99']"
    ),
    "chibar": (
        "equivariant",
        "gsv-from-radial",
        {"radial": {"0": 1}, "chibar": {"99": 1}},
        "$.payload.chibar['99']",
    ),
    "strata-isotropy": ("burnside", "euler", {"strata": ISOTROPY_99}, "$.payload.strata[1].isotropy"),
    "orbits-isotropy": (
        "equivariant", "radial", {"orbits": [{"isotropy": 99, "index": 1}]}, "$.payload.orbits[0].isotropy"
    ),
    "orbit-index": (
        "equivariant",
        "ph-check",
        {"orbit_indices": [{"subgroup": [[2, 1, 3]], "index": {"99": 1}}], "chi": {"0": 1}},
        "$.payload.orbit_indices[0].index['99']",
    ),
}


@pytest.mark.parametrize("field", sorted(BAD_CLASS_INDEX))
def test_class_index_refusals_carry_a_path(field):
    command, op, payload, path = BAD_CLASS_INDEX[field]
    report, code = run_job(doc(command, {"group": S3_GROUP, **payload}, op=op))
    assert code == 2
    assert report.status == "rejected"
    assert report.values == {
        "diagnostics": [{"path": path, "message": "no subgroup class with index 99"}]
    }


def test_orbit_index_is_checked_against_the_subgroup_classes():
    # class 3 exists in S3 but not in its subgroup <(1 2)>
    orbit = {"subgroup": [[2, 1, 3]], "index": {"3": 1}}
    payload = {"group": S3_GROUP, "orbit_indices": [orbit], "chi": {"0": 1}}
    report, code = run_job(doc("equivariant", payload, op="ph-check"))
    assert code == 2
    assert report.values["diagnostics"] == [
        {"path": "$.payload.orbit_indices[0].index['3']", "message": "no subgroup class with index 3"}
    ]


PLANE = ["x", "y"]
BOUNDED_PARSE = {
    "x^100000000000": (PLANE, 4),
    "x^1000000": (PLANE, 4),
    "x^41": (PLANE, 4),
    "x^40*x^40*0": (PLANE, 4),
    "(1+x+y+z)^80": (["x", "y", "z"], 4),
    "(1+x+y+z)^30": (["x", "y", "z"], 2),
    "((((9)^40)^40)^40)^40": (PLANE, 2),
}


@pytest.mark.parametrize("text", sorted(BOUNDED_PARSE))
def test_polynomials_are_bounded_before_they_are_expanded(text):
    variables, exit_code = BOUNDED_PARSE[text]
    data = [text] + variables[1:]
    start = time.perf_counter()
    report, code = run_job(doc("smooth-index", {"variables": variables, "data": data}))
    assert time.perf_counter() - start < 1
    assert code == exit_code


def test_polynomial_text_faults_are_path_diagnostics():
    payload = {"variables": ["x", "y"], "data": ["x +", "y"], "field": "Q"}
    report, code = run_job(doc("smooth-index", payload))
    assert code == 2
    assert report.values["diagnostics"] == [
        {"path": "$.payload.data[0]", "message": "unexpected token None in polynomial text"},
        {"path": "$.payload.field", "message": "ground field tag must be 'R' or 'C'"},
    ]
    # polynomial text is judged only on a document of the right shape
    payload["action"] = "x"
    assert validate(doc("smooth-index", payload)) == [
        {"path": "$.payload.action", "message": "expected a list of 2 x 2 matrices"}
    ]


def test_a_long_integer_in_polynomial_text_is_a_path_diagnostic():
    payload = {"variables": ["x", "y"], "data": ["9" * 5000 + "*x", "y"]}
    report, code = run_job(doc("smooth-index", payload))
    assert code == 2
    assert report.values["diagnostics"] == [
        {"path": "$.payload.data[0]", "message": "integer in polynomial text is too long"}
    ]
    assert "Traceback" not in report.to_json()


def test_the_polynomials_of_one_document_share_one_term_budget(monkeypatch):
    # each component has 1771 terms, inside MAX_TERMS; twelve of them are
    # past the document's budget, which refuses them before any colength
    colengths = []
    for name, module in list(sys.modules.items()):
        real = getattr(module, "colength", None)
        if name.startswith("singindex") and callable(real):
            monkeypatch.setattr(module, "colength", lambda *a, real=real: colengths.append(a) or real(*a))
    names = [f"x{i}" for i in range(12)]
    payload = {"variables": names, "data": ["(1+x0+x1+x2)^20"] * 12}
    start = time.perf_counter()
    report, code = run_job(doc("smooth-index", payload))
    assert time.perf_counter() - start < 1
    assert code == 2
    [diagnostic] = report.values["diagnostics"]
    k = jobs.MAX_DOCUMENT_TERMS // 1771
    assert diagnostic == {
        "path": f"$.payload.data[{k}]",
        "message": f"the document's polynomials have more than {jobs.MAX_DOCUMENT_TERMS} terms in all",
    }
    assert colengths == []
    # the same budget holds across the fields of a document: equations
    # and form of an icis document together
    payload = {
        "variables": ["x", "y", "z"],
        "equations": ["x*(1+x+y+z)^19"],
        "form": ["(1+x+y+z)^20", "(1+x+y+z)^20", "x"],
        "want": ["milnor"],
    }
    report, code = run_job(doc("icis", payload))
    assert code == 2
    assert [d["path"] for d in report.values["diagnostics"]] == ["$.payload.form[1]"]


@pytest.mark.parametrize("k", [6, 7])
def test_subgroup_lattice_is_bounded(k):
    # C2^6 and C2^7 lie inside the group cap but have 2825 and more subgroups
    swaps = []
    for t in range(k):
        perm = list(range(1, 2 * k + 1))
        perm[2 * t], perm[2 * t + 1] = perm[2 * t + 1], perm[2 * t]
        swaps.append(perm)
    group = {"degree": 2 * k, "generators": swaps}
    start = time.perf_counter()
    report, code = run_job(doc("burnside", {"group": group}, op="marks"))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert "subgroup lattice" in report.values["error"]


VALID = [
    doc("smooth-index", {"variables": ["z1", "z2"], "kind": "vector_field", "data": ["z1^2", "z2^3"]}),
    doc("smooth-index", {"variables": ["z1", "z2"], "kind": "one_form", "data": ["z1", "0"]}),
    doc("elk", {"field": "R", "variables": ["x", "y"], "data": ["x^3", "y^3"], "action": [[[0, 1], [1, 0]]]}),
    doc("collection", {"variables": ["x", "y"], "data": {"rank": 1, "partition": [1, 1], "matrices": [[["x"]], [["y^2"]]]}}),
    doc("icis", {"variables": ["x", "y", "z"], "equations": ["x^2 + y^2 + z^2"], "form": ["0", "0", "1"], "want": ["gsv", "milnor", "radial"]}),
    doc("icis", {"variables": ["x", "y", "z"], "equations": ["x^2 + y^3 + z^2"], "collection": {"partition": [2], "groups": [[["0", "0", "1"]]]}}),
    doc("strat", DET_N, op="det-n"),
    doc("strat", {"eu_variety": 2, "local_index": 3, "claimed_eu": 6}, op="proportionality"),
    doc("strat", POSET, op="mobius"),
    doc("strat", {**POSET, "vectors": {"eu": [1, 2]}, "target": 1}, op="radial-from-eu"),
    doc("strat", {**POSET, "vectors": {"radial": [1, 2]}}, op="eu-from-radial"),
    doc("strat", {"t": 2, "m": 2, "n": 3, "phn": [1, 2], "dim_v": 3, "chibar": 1}, op="radial-from-phn"),
    doc("strat", {"t": 2, "mvals": [1, -1], "radial": [1, 2], "chibars": [0, 1], "dims": [0, 2]}, op="phn-from-radial"),
    doc("burnside", {"group": {"degree": 3, "generators": [[2, 1, 3], [2, 3, 1]]}, "a": {"1": 1}, "b": {"2": 1}}, op="mul"),
    doc("burnside", {"group": GROUP, "a": {"0": 2, "1": -1}, "subgroup": [[1, 2]]}, op="restrict", options={"seed": 1}),
    doc("burnside", {"group": GROUP, "a": {"0": 1}, "subgroup": [[2, 1]]}, op="induce"),
    doc("burnside", {"group": GROUP, "strata": [{"isotropy": 1, "chiOrbit": 2}, {"isotropy": [[1, 2]], "chiOrbit": 0}]}, op="euler"),
    doc("burnside", {"group": GROUP}, op="marks"),
    doc("equivariant", {"group": GROUP, "orbits": [{"isotropy": [[2, 1]], "index": 1}]}, op="radial"),
    doc("equivariant", {"group": GROUP, "orbit_indices": [{"subgroup": [[2, 1]], "index": {"1": 1}}] * 2, "chi": {"1": 2}}, op="ph-check"),
    doc("equivariant", {"group": GROUP, "radial": {"0": 1}, "chibar": {"1": -1}}, op="gsv-from-radial"),
]

BAD_VALUES = [None, True, -1, "x", [], {}, 10**12, [[1, [2]]]]


def _paths(node, prefix=()):
    """Every (container, key) location below the document root."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


def test_mutated_documents_never_raise():
    rng = random.Random(2021)
    for _ in range(4000):
        document = copy.deepcopy(rng.choice(VALID))
        path = rng.choice(list(_paths(document)))
        node = document
        for key in path[:-1]:
            node = node[key]
        if rng.random() < 0.2:
            del node[path[-1]]
        else:
            node[path[-1]] = copy.deepcopy(rng.choice(BAD_VALUES))
        report, code = run_job(document)
        assert code in (0, 2, 3, 4), (document, report.to_json())


class _Watched(dict):
    """A JSON object that records reads once `sealed` holds."""

    def __init__(self, data, reads):
        super().__init__({k: _watch(v, reads) for k, v in data.items()})
        self.reads = reads

    def _read(self):
        if self.reads["sealed"]:
            self.reads["after"] += 1

    def __getitem__(self, key):
        self._read()
        return super().__getitem__(key)

    def get(self, key, default=None):
        self._read()
        return super().get(key, default)

    def __contains__(self, key):
        self._read()
        return super().__contains__(key)

    def items(self):
        self._read()
        return super().items()


def _watch(value, reads):
    if isinstance(value, dict):
        return _Watched(value, reads)
    if isinstance(value, list):
        return [_watch(v, reads) for v in value]
    return value


@pytest.mark.parametrize("document", VALID, ids=lambda d: f"{d['command']}-{d['op']}")
def test_runners_never_read_the_document(monkeypatch, document):
    reads = {"sealed": False, "after": 0}
    parse = jobs._Job.__init__

    def parse_then_seal(self, document):
        parse(self, document)
        reads["sealed"] = True

    monkeypatch.setattr(jobs._Job, "__init__", parse_then_seal)
    report, code = run_job(_watch(document, reads))
    assert code in (0, 3)
    assert reads["sealed"] and reads["after"] == 0


@pytest.mark.parametrize("command", ["smooth-index", "validate"])
def test_a_closed_output_pipe_exits_1_without_a_traceback(command):
    # the reader closes its end before the command prints: the report
    # and the validation message alike end in a clean exit 1
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    child = subprocess.Popen(
        [sys.executable, "-m", "singindex.cli", command, str(root / "tests" / "jobs" / "mora_three_lines.json")],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    child.stdout.close()
    stderr = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=60) == 1
    assert b"Traceback" not in stderr and b"BrokenPipe" not in stderr, stderr
