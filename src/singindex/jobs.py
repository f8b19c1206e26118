"""Job documents: validation, dispatch, and reports.

A job document is JSON of the shape

    { "command": "...", "op": "...", "payload": {...}, "options": {...} }

where the payload schema depends on the command (see README).  Validation
produces diagnostics with JSON paths and performs no computation.
Reports carry the requested values, the flags, an auditable set of
certificates (intermediate colengths, basis sizes, marks matrices), and a
rule tag per value naming the identity that produced it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from . import burnside as br
from . import icis as ic
from . import oracles
from . import smooth as sm
from . import strat as st
from .errors import (
    DegreeCapError,
    GenericityError,
    NotIsolatedError,
    RejectedInputError,
)
from .grobner import DEFAULT_DEGREE_CAP, INFINITE, Ideal, colength

COMMANDS = (
    "smooth-index",
    "elk",
    "collection",
    "icis",
    "strat",
    "burnside",
    "equivariant",
)

STRAT_OPS = (
    "mobius",
    "radial-from-eu",
    "eu-from-radial",
    "det-n",
    "radial-from-phn",
    "phn-from-radial",
    "proportionality",
)

BURNSIDE_OPS = ("classes", "marks", "mul", "restrict", "induce", "r0", "euler")

EQUIVARIANT_OPS = ("radial", "ph-check", "gsv-from-radial")


@dataclass
class Report:
    """Result document; serializes losslessly to JSON and back."""

    command: str
    op: str = ""
    status: str = "ok"
    values: dict = field(default_factory=dict)
    flags: list = field(default_factory=list)
    rules: dict = field(default_factory=dict)
    certificates: dict = field(default_factory=dict)
    options: dict = field(default_factory=dict)
    oracle: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "command": self.command,
            "op": self.op,
            "status": self.status,
            "values": _encode(self.values),
            "flags": list(self.flags),
            "rules": dict(self.rules),
            "certificates": _encode(self.certificates),
            "options": dict(self.options),
            "oracle": _encode(self.oracle),
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data):
        return cls(
            command=data["command"],
            op=data.get("op", ""),
            status=data.get("status", "ok"),
            values=_decode(data.get("values", {})),
            flags=list(data.get("flags", [])),
            rules=dict(data.get("rules", {})),
            certificates=_decode(data.get("certificates", {})),
            options=dict(data.get("options", {})),
            oracle=_decode(data.get("oracle", {})),
        )

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))

    def to_text(self):
        lines = [f"command: {self.command}" + (f" {self.op}" if self.op else "")]
        lines.append(f"status: {self.status}")
        for key in sorted(self.values):
            rule = self.rules.get(key)
            suffix = f"    [{rule}]" if rule else ""
            lines.append(f"  {key} = {_pretty(self.values[key])}{suffix}")
        if self.flags:
            lines.append("flags: " + ", ".join(self.flags))
        for key in sorted(self.certificates):
            lines.append(f"  certificate {key}: {_pretty(self.certificates[key])}")
        if self.oracle:
            lines.append(f"oracle: {_pretty(_encode(self.oracle))}")
        return "\n".join(lines)


def _encode(value):
    if value is INFINITE:
        return "INFINITE"
    if isinstance(value, Fraction):
        return str(value) if value.denominator != 1 else value.numerator
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, br.BurnsideElement):
        return {str(k): v for k, v in sorted(value.coefficients.items())}
    return value


def _decode(value):
    if value == "INFINITE":
        return INFINITE
    if isinstance(value, dict):
        return {k: _decode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode(v) for v in value]
    return value


def _pretty(value):
    if value is INFINITE:
        return "INFINITE"
    if isinstance(value, dict):
        return json.dumps(_encode(value), sort_keys=True)
    if isinstance(value, (list, tuple)):
        return json.dumps(_encode(value))
    return str(value)


# ---------------------------------------------------------------------------
# validation


class Diagnostics:
    def __init__(self):
        self.items = []

    def add(self, path, message):
        self.items.append({"path": path, "message": message})

    def require(self, condition, path, message):
        if not condition:
            self.add(path, message)
        return condition


def _check_polys(diag, value, path, count=None):
    if not isinstance(value, list) or not all(
        isinstance(x, str) for x in value
    ):
        diag.add(path, "expected a list of polynomial strings")
        return False
    if count is not None and len(value) != count:
        diag.add(path, f"expected {count} entries, found {len(value)}")
        return False
    return True


def _is_permutation(value, degree):
    """A permutation of 1..degree in one-line notation."""
    return (
        isinstance(value, list)
        and all(isinstance(x, int) for x in value)
        and sorted(value) == list(range(1, degree + 1))
    )


def _is_rational(value):
    """Accepted as an exact rational by ``Fraction(str(value))``.  Strings
    in exponent notation are refused: "1e999999999" would expand to a
    billion-digit integer."""
    if isinstance(value, str) and "e" in value.lower():
        return False
    try:
        Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        return False
    return True


def _check_group(diag, value, path):
    if not isinstance(value, dict):
        diag.add(path, "expected a group object {degree, generators}")
        return False
    d = value.get("degree", 0)
    ok = diag.require(
        isinstance(d, int) and d >= 1,
        path + ".degree",
        "degree must be a positive integer",
    )
    gens = value.get("generators")
    if not isinstance(gens, list) or not gens:
        diag.add(path + ".generators", "expected a non-empty list of permutations")
        return False
    if not isinstance(d, int):
        return False
    for i, g in enumerate(gens):
        if not _is_permutation(g, d):
            diag.add(
                f"{path}.generators[{i}]",
                f"expected a permutation of 1..{d} in one-line notation",
            )
            ok = False
    return ok


def validate(document):
    """Schema diagnostics for a job document; no computation performed."""
    diag = Diagnostics()
    if not isinstance(document, dict):
        diag.add("$", "job document must be a JSON object")
        return diag.items
    command = document.get("command")
    if command not in COMMANDS:
        diag.add("$.command", f"command must be one of {', '.join(COMMANDS)}")
        return diag.items
    payload = document.get("payload")
    if not isinstance(payload, dict):
        diag.add("$.payload", "payload must be a JSON object")
        return diag.items
    op = document.get("op", "")
    _validate_options(diag, document.get("options", {}))

    if command in ("smooth-index", "elk", "collection"):
        _validate_smooth(diag, command, payload)
    elif command == "icis":
        _validate_icis(diag, payload)
    elif command == "strat":
        _validate_strat(diag, op, payload)
    elif command == "burnside":
        _validate_burnside(diag, op, payload)
    elif command == "equivariant":
        _validate_equivariant(diag, op, payload)
    return diag.items


def _validate_options(diag, options):
    if not isinstance(options, dict):
        diag.add("$.options", "options must be a JSON object")
        return
    if "seed" in options:
        diag.require(
            isinstance(options["seed"], int), "$.options.seed", "seed must be an integer"
        )
    if "degree_cap" in options:
        cap = options["degree_cap"]
        diag.require(
            isinstance(cap, int) and cap >= 1,
            "$.options.degree_cap",
            "degree_cap must be a positive integer",
        )


def _validate_smooth(diag, command, payload):
    variables = payload.get("variables")
    if not diag.require(
        isinstance(variables, list) and variables and all(isinstance(v, str) for v in variables),
        "$.payload.variables",
        "expected a non-empty list of variable names",
    ) or not diag.require(
        len(set(variables)) == len(variables),
        "$.payload.variables",
        "variable names must be distinct",
    ):
        return
    n = len(variables)
    kind = payload.get("kind", "vector_field" if command != "collection" else "collection")
    if command == "collection":
        kind = "collection"
    if kind in ("vector_field", "one_form"):
        _check_polys(diag, payload.get("data"), "$.payload.data", count=n)
        if command == "elk" and payload.get("field", "R") != "R":
            diag.add("$.payload.field", "the signature index needs field 'R'")
    elif kind == "collection":
        data = payload.get("data")
        if not isinstance(data, dict):
            diag.add("$.payload.data", "expected {rank, partition, matrices}")
            return
        rank = data.get("rank")
        partition = data.get("partition")
        if not diag.require(
            isinstance(rank, int) and rank >= 1,
            "$.payload.data.rank",
            "rank must be a positive integer",
        ):
            return
        if not diag.require(
            isinstance(partition, list)
            and partition
            and all(isinstance(k, int) and k >= 1 for k in partition),
            "$.payload.data.partition",
            "partition must be a list of positive integers",
        ):
            return
        diag.require(
            sum(partition) == n,
            "$.payload.data.partition",
            f"partition must sum to the variable count {n} "
            "(the hypothesis of the collection index formula)",
        )
        matrices = data.get("matrices")
        if not isinstance(matrices, list) or len(matrices) != len(partition):
            diag.add(
                "$.payload.data.matrices",
                "expected one section matrix per partition entry",
            )
            return
        for i, (k, mat) in enumerate(zip(partition, matrices)):
            want_cols = rank - k + 1
            path = f"$.payload.data.matrices[{i}]"
            if want_cols < 1:
                diag.add(path, f"partition entry {k} exceeds the rank {rank}")
                continue
            if not isinstance(mat, list) or len(mat) != rank or any(
                not isinstance(row, list) or len(row) != want_cols for row in mat
            ):
                diag.add(path, f"expected a {rank} x {want_cols} matrix of polynomials")
    else:
        diag.add("$.payload.kind", "kind must be vector_field, one_form or collection")
    action = payload.get("action")
    if action is not None:
        if not isinstance(action, list) or not all(
            isinstance(m, list) and len(m) == n and all(
                isinstance(r, list) and len(r) == n for r in m
            )
            for m in action
        ):
            diag.add("$.payload.action", f"expected a list of {n} x {n} matrices")
            return
        for k, m in enumerate(action):
            for i, r in enumerate(m):
                for j, x in enumerate(r):
                    if not _is_rational(x):
                        diag.add(
                            f"$.payload.action[{k}][{i}][{j}]", "expected a rational number"
                        )


def _validate_icis(diag, payload):
    variables = payload.get("variables")
    if not diag.require(
        isinstance(variables, list) and variables and all(isinstance(v, str) for v in variables),
        "$.payload.variables",
        "expected a non-empty list of variable names",
    ) or not diag.require(
        len(set(variables)) == len(variables),
        "$.payload.variables",
        "variable names must be distinct",
    ):
        return
    n = len(variables)
    equations = payload.get("equations")
    if not isinstance(equations, list) or not all(isinstance(e, str) for e in equations):
        diag.add("$.payload.equations", "expected a list of polynomial strings")
        return
    diag.require(
        len(equations) <= n,
        "$.payload.equations",
        "cannot have more equations than variables",
    )
    dim = n - len(equations)
    has_form = "form" in payload
    has_coll = "collection" in payload
    if has_form == has_coll:
        diag.add("$.payload", "provide exactly one of 'form' or 'collection'")
        return
    if has_form:
        _check_polys(diag, payload.get("form"), "$.payload.form", count=n)
    else:
        coll = payload.get("collection")
        if not isinstance(coll, dict):
            diag.add("$.payload.collection", "expected {partition, groups}")
            return
        partition = coll.get("partition")
        groups = coll.get("groups")
        if not diag.require(
            isinstance(partition, list)
            and all(isinstance(k, int) and k >= 1 for k in partition),
            "$.payload.collection.partition",
            "partition must be a list of positive integers",
        ):
            return
        diag.require(
            sum(partition) == dim,
            "$.payload.collection.partition",
            f"partition must sum to dim V = {dim} "
            "(the hypothesis of the collection index formula)",
        )
        if not isinstance(groups, list) or len(groups) != len(partition):
            diag.add("$.payload.collection.groups", "expected one group per partition entry")
            return
        for i, (k, group) in enumerate(zip(partition, groups)):
            want = dim - k + 1
            if not isinstance(group, list) or len(group) != want:
                diag.add(
                    f"$.payload.collection.groups[{i}]",
                    f"expected {want} forms for partition entry {k}",
                )
                continue
            for j, form in enumerate(group):
                _check_polys(
                    diag, form, f"$.payload.collection.groups[{i}][{j}]", count=n
                )
    if "seed" in payload:
        diag.require(isinstance(payload["seed"], int), "$.payload.seed", "seed must be an integer")
    want = payload.get("want", ["gsv"])
    if not isinstance(want, list) or not all(
        w in ("gsv", "milnor", "radial", "homological") for w in want
    ):
        diag.add("$.payload.want", "want entries must be gsv, milnor, radial, homological")


def _validate_strat(diag, op, payload):
    if op not in STRAT_OPS:
        diag.add("$.op", f"strat op must be one of {', '.join(STRAT_OPS)}")
        return
    if op == "det-n":
        for key in ("m", "n", "i", "j"):
            diag.require(
                isinstance(payload.get(key), int),
                f"$.payload.{key}",
                "expected an integer",
            )
        return
    if op == "proportionality":
        for key in ("eu_variety", "local_index", "claimed_eu"):
            diag.require(
                isinstance(payload.get(key), int),
                f"$.payload.{key}",
                "expected an integer",
            )
        return
    if op in ("radial-from-phn", "phn-from-radial"):
        if not diag.require(
            isinstance(payload.get("t"), int) and payload.get("t", 0) >= 1,
            "$.payload.t",
            "t must be a positive integer",
        ):
            return
        t = payload["t"]
        explicit = "nvals" if op == "radial-from-phn" else "mvals"
        if explicit not in payload and not (
            isinstance(payload.get("m"), int) and isinstance(payload.get("n"), int)
        ):
            diag.add(
                f"$.payload.{explicit}",
                f"provide {explicit} (length {t}) or integers m and n "
                "to derive them from the binomial formulas",
            )
        elif explicit in payload:
            vals = payload[explicit]
            if not (
                isinstance(vals, list)
                and len(vals) == t
                and all(isinstance(v, int) for v in vals)
            ):
                diag.add(f"$.payload.{explicit}", f"expected {t} integers")

        def want_int_list(name, length):
            vals = payload.get(name)
            if not (
                isinstance(vals, list)
                and len(vals) == length
                and all(isinstance(v, int) for v in vals)
            ):
                diag.add(f"$.payload.{name}", f"expected {length} integers")

        if op == "radial-from-phn":
            want_int_list("phn", t)
            diag.require(
                isinstance(payload.get("dim_v"), int),
                "$.payload.dim_v",
                "expected an integer",
            )
            diag.require(
                isinstance(payload.get("chibar"), int),
                "$.payload.chibar",
                "expected an integer",
            )
        else:
            want_int_list("radial", t)
            want_int_list("chibars", t)
            want_int_list("dims", t)
        return
    strata = payload.get("strata")
    if not diag.require(
        isinstance(strata, list) and strata,
        "$.payload.strata",
        "expected a non-empty list of stratum labels",
    ):
        return
    covers = payload.get("covers", [])
    if not isinstance(covers, list) or not all(
        isinstance(c, list) and len(c) == 2 and all(isinstance(x, int) for x in c)
        for c in covers
    ):
        diag.add("$.payload.covers", "expected a list of [i, j] index pairs")
    nmap = payload.get("n", {})
    if not isinstance(nmap, dict):
        diag.add("$.payload.n", "expected an object with 'i,j' keys")
    else:
        for key, value in nmap.items():
            parts = key.split(",")
            if len(parts) != 2 or not all(p.strip().isdecimal() for p in parts):
                diag.add(f"$.payload.n[{key!r}]", "keys must look like 'i,j'")
            elif not all(int(p) < len(strata) for p in parts):
                diag.add(
                    f"$.payload.n[{key!r}]",
                    f"stratum indices must be below the stratum count {len(strata)}",
                )
            elif not isinstance(value, int):
                diag.add(f"$.payload.n[{key!r}]", "expected an integer")
    if op in ("radial-from-eu", "eu-from-radial"):
        name = "eu" if op == "radial-from-eu" else "radial"
        vectors = payload.get("vectors", {})
        vec = vectors.get(name) if isinstance(vectors, dict) else None
        if not (
            isinstance(vec, list)
            and len(vec) == len(strata)
            and all(isinstance(x, int) for x in vec)
        ):
            diag.add(
                f"$.payload.vectors.{name}",
                f"expected {len(strata)} integers (one per stratum)",
            )
        target = payload.get("target")
        if target is not None and not (isinstance(target, int) and 0 <= target < len(strata)):
            diag.add("$.payload.target", f"expected a stratum index below {len(strata)}")


def _check_perm_list(diag, value, path, degree):
    if not isinstance(value, list) or not value:
        diag.add(path, "expected a non-empty list of permutations")
        return False
    ok = True
    for i, g in enumerate(value):
        if not _is_permutation(g, degree):
            diag.add(
                f"{path}[{i}]",
                f"expected a permutation of 1..{degree} in one-line notation",
            )
            ok = False
    return ok


def _check_element(diag, value, path, message="expected {classIndex: coefficient}"):
    """A Burnside element: integer class indices mapped to integers."""
    if not isinstance(value, dict):
        diag.add(path, message)
        return
    for key, coeff in value.items():
        try:
            int(key)
        except (TypeError, ValueError):
            diag.add(f"{path}[{key!r}]", "class index must be an integer")
            continue
        if not isinstance(coeff, int):
            diag.add(f"{path}[{key!r}]", "coefficient must be an integer")


def _check_isotropy_records(diag, records, path, kind, value_key, degree):
    """Records {isotropy, value}: the isotropy is a subgroup class index or
    a list of generating permutations, the value an integer."""
    if not isinstance(records, list):
        diag.add(path, f"expected a list of {kind} records")
        return
    for i, rec in enumerate(records):
        if not isinstance(rec, dict) or "isotropy" not in rec or value_key not in rec:
            diag.add(f"{path}[{i}]", f"expected {{isotropy, {value_key}}}")
            continue
        isotropy = rec["isotropy"]
        if not isinstance(isotropy, int) and not (
            isinstance(isotropy, list) and all(_is_permutation(g, degree) for g in isotropy)
        ):
            diag.add(
                f"{path}[{i}].isotropy",
                f"expected a class index or a list of permutations of 1..{degree}",
            )
        if not isinstance(rec[value_key], int):
            diag.add(f"{path}[{i}].{value_key}", "expected an integer")


def _validate_burnside(diag, op, payload):
    if op not in BURNSIDE_OPS:
        diag.add("$.op", f"burnside op must be one of {', '.join(BURNSIDE_OPS)}")
        return
    if not _check_group(diag, payload.get("group"), "$.payload.group"):
        return
    degree = payload["group"]["degree"]
    if op == "mul":
        for name in ("a", "b"):
            _check_element(diag, payload.get(name), f"$.payload.{name}")
    elif op == "r0":
        _check_element(diag, payload.get("a"), "$.payload.a")
    elif op in ("restrict", "induce"):
        _check_element(diag, payload.get("a"), "$.payload.a")
        _check_perm_list(diag, payload.get("subgroup"), "$.payload.subgroup", degree)
    elif op == "euler":
        _check_isotropy_records(
            diag, payload.get("strata"), "$.payload.strata", "stratum", "chiOrbit", degree
        )


def _validate_equivariant(diag, op, payload):
    if op not in EQUIVARIANT_OPS:
        diag.add("$.op", f"equivariant op must be one of {', '.join(EQUIVARIANT_OPS)}")
        return
    if not _check_group(diag, payload.get("group"), "$.payload.group"):
        return
    degree = payload["group"]["degree"]
    if op == "radial":
        _check_isotropy_records(
            diag, payload.get("orbits"), "$.payload.orbits", "orbit", "index", degree
        )
    elif op == "ph-check":
        records = payload.get("orbit_indices")
        if not isinstance(records, list):
            diag.add("$.payload.orbit_indices", "expected a list of {subgroup, index}")
        else:
            for i, rec in enumerate(records):
                if not isinstance(rec, dict) or "subgroup" not in rec or "index" not in rec:
                    diag.add(
                        f"$.payload.orbit_indices[{i}]", "expected {subgroup, index}"
                    )
                    continue
                _check_perm_list(
                    diag,
                    rec["subgroup"],
                    f"$.payload.orbit_indices[{i}].subgroup",
                    degree,
                )
                _check_element(
                    diag,
                    rec["index"],
                    f"$.payload.orbit_indices[{i}].index",
                    "expected {classIndex: coefficient} over the subgroup",
                )
        _check_element(diag, payload.get("chi"), "$.payload.chi")
    elif op == "gsv-from-radial":
        for name in ("radial", "chibar"):
            _check_element(diag, payload.get(name), f"$.payload.{name}")


# ---------------------------------------------------------------------------
# execution


def run_job(document, run_oracle=False):
    """Execute a validated job document and return (report, exit_code)."""
    diagnostics = validate(document)
    if diagnostics:
        report = Report(
            command=str(document.get("command", "")),
            op=str(document.get("op", "")),
            status="rejected",
            values={"diagnostics": diagnostics},
        )
        return report, 2

    command = document["command"]
    op = document.get("op", "")
    payload = document["payload"]
    options = dict(document.get("options", {}))
    seed = int(options.get("seed", 0))
    cap = int(options.get("degree_cap", DEFAULT_DEGREE_CAP))
    report = Report(command=command, op=op, options={"seed": seed, "degree_cap": cap})

    try:
        if command in ("smooth-index", "elk", "collection"):
            _run_smooth(report, command, payload, cap, run_oracle)
        elif command == "icis":
            _run_icis(report, payload, seed, cap, run_oracle)
        elif command == "strat":
            _run_strat(report, op, payload, run_oracle)
        elif command == "burnside":
            _run_burnside(report, op, payload, run_oracle)
        elif command == "equivariant":
            _run_equivariant(report, op, payload)
    except RejectedInputError as err:
        report.status = "rejected"
        report.values["error"] = str(err)
        return report, 2
    except NotIsolatedError as err:
        report.status = "non-isolated"
        report.values["error"] = str(err)
        return report, 3
    except (DegreeCapError, GenericityError) as err:
        report.status = "aborted"
        report.values["error"] = str(err)
        return report, 4

    if report.oracle and not report.oracle.get("match", True):
        return report, 1
    if any(v is INFINITE for v in report.values.values()):
        report.status = "non-isolated"
        return report, 3
    return report, 0


def _make_action(payload, variables):
    matrices = payload.get("action")
    if not matrices:
        return None
    parsed = [
        [[Fraction(str(x)) for x in row] for row in matrix] for matrix in matrices
    ]
    return sm.GroupAction(variables, parsed)


def _run_smooth(report, command, payload, cap, run_oracle):
    variables = tuple(payload["variables"])
    kind = payload.get("kind", "collection" if command == "collection" else "vector_field")
    if command == "collection":
        kind = "collection"

    if command == "elk":
        germ = sm.VectorFieldGerm(variables, payload["data"], field="R")
        form = sm.elk_form(germ, cap)
        report.values["index"] = form.signature()
        report.rules["index"] = "signature-of-residue-pairing"
        report.certificates["algebra_dimension"] = form.algebra.dimension
        from .poly import Polynomial as _P

        report.certificates["algebra_basis"] = [
            str(_P(variables, {m: 1})) for m in form.algebra.basis
        ]
        if form.algebra.dimension == 0:
            report.flags.append("NONSINGULAR")
        action = _make_action(payload, variables)
        if action is not None:
            report.values["invariant_dimension"] = sm.invariant_dimension(
                form.algebra, action, cap
            )
            report.rules["invariant_dimension"] = "trace-average-over-group"
            report.values["invariant_signature"] = sm.invariant_signature(
                form, action, cap
            )
            report.rules["invariant_signature"] = "signature-on-invariant-subspace"
        if run_oracle:
            if len(variables) == 2:
                got = oracles.winding_degree(payload["data"], variables)
            elif len(variables) == 3:
                got = oracles.boundary_degree_3d(payload["data"], variables)
            else:
                report.oracle = {"supported": False}
                return
            report.oracle = {
                "kind": "boundary-degree",
                "value": got,
                "match": got == report.values["index"],
            }
        return

    if kind == "vector_field":
        germ = sm.VectorFieldGerm(variables, payload["data"], field=payload.get("field", "C"))
        value = sm.palamodov_index(germ, cap)
        report.values["index"] = value
        report.rules["index"] = "colength-of-component-ideal"
        gens = list(germ.components)
    elif kind == "one_form":
        germ = sm.OneFormGerm(variables, payload["data"], field=payload.get("field", "C"))
        value = sm.complex_form_index(germ, cap)
        report.values["index"] = value
        report.rules["index"] = "colength-of-coefficient-ideal"
        report.values["real_part_relation"] = (
            f"(-1)^{len(variables)} * index of the real part on R^{2 * len(variables)}"
        )
        gens = list(germ.coefficients)
    else:
        data = payload["data"]
        coll = sm.SectionCollection(
            variables, data["rank"], data["partition"], data["matrices"]
        )
        value = sm.collection_index(coll, cap)
        report.values["index"] = value
        report.rules["index"] = "minors-ideal-colength"
        gens = list(coll.minors_ideal().generators)
    if value == 0:
        report.flags.append("NONSINGULAR")
    if run_oracle:
        got = oracles.macaulay_colength(gens)
        report.oracle = {
            "kind": "macaulay-truncation",
            "value": got,
            "match": got == value,
        }
    report.certificates["ideal_generators"] = len(gens)


def _run_icis(report, payload, seed, cap, run_oracle):
    variables = tuple(payload["variables"])
    germ = ic.ICISGerm(variables, payload["equations"])
    want = payload.get("want", ["gsv"])
    if "seed" in payload:
        seed = int(payload["seed"])
        report.options["seed"] = seed
    if "collection" in payload:
        if set(want) & {"radial", "homological"}:
            raise RejectedInputError(
                "radial and homological indices are defined for single "
                "1-forms, not collections"
            )
        coll = payload["collection"]
        value = ic.gsv_index_collection(
            germ, coll["partition"], coll["groups"], cap
        )
        report.values["gsv"] = value
        report.rules["gsv"] = "minors-ideal-colength"
        if "milnor" in want:
            report.values["milnor"] = ic.milnor_number(germ, seed, cap)
            report.rules["milnor"] = "slice-recursion"
        report.certificates["isolated_singularity_colength"] = (
            ic.isolatedness_certificate(germ, cap)
        )
        return
    res = ic.icis_report(germ, payload["form"], want=want, seed=seed, degree_cap=cap)
    rules = {
        "gsv": "minors-ideal-colength",
        "milnor": "slice-recursion",
        "radial": "gsv-minus-milnor",
        "homological": "equals-gsv-on-complete-intersections",
    }
    for name in want:
        report.values[name] = getattr(res, name)
        report.rules[name] = rules[name]
    report.certificates.update(res.certificates)
    if run_oracle and "gsv" in want:
        form = sm.OneFormGerm(variables, payload["form"])
        ideal = ic._stacked_minors_ideal(germ, [list(form.coefficients)])
        got = oracles.macaulay_colength(list(ideal.generators))
        report.oracle = {
            "kind": "macaulay-truncation",
            "value": got,
            "match": got == res.gsv,
        }


def _parse_poset(payload):
    poset = st.StratPoset(payload["strata"], [tuple(c) for c in payload.get("covers", [])])
    entries = {}
    for key, value in payload.get("n", {}).items():
        i, j = (int(p) for p in key.split(","))
        entries[(i, j)] = value
    return poset, st.SliceData(poset, entries)


def _run_strat(report, op, payload, run_oracle):
    if op == "det-n":
        m, n, i, j = payload["m"], payload["n"], payload["i"], payload["j"]
        report.values["n"] = st.det_n(m, n, i, j)
        report.values["m"] = st.det_m(m, n, i, j)
        report.rules["n"] = "binomial-slice-formula"
        report.rules["m"] = "binomial-slice-formula-inverse"
        return
    if op == "proportionality":
        report.values["proportional"] = st.proportionality_check(
            payload["eu_variety"], payload["local_index"], payload["claimed_eu"]
        )
        report.rules["proportional"] = "obstruction-proportional-to-radial-index"
        return
    if op == "radial-from-phn":
        nvals = payload.get("nvals")
        if nvals is None:
            m, n = payload["m"], payload["n"]
            nvals = [st.det_n(m, n, i, payload["t"]) for i in range(1, payload["t"] + 1)]
        report.values["radial"] = st.radial_from_phn(
            payload["t"],
            nvals,
            st.IndexVector(payload["phn"], "PHN"),
            payload["dim_v"],
            payload["chibar"],
        )
        report.rules["radial"] = "nash-index-weighted-sum"
        return
    if op == "phn-from-radial":
        mvals = payload.get("mvals")
        if mvals is None:
            m, n = payload["m"], payload["n"]
            mvals = [st.det_m(m, n, i, payload["t"]) for i in range(1, payload["t"] + 1)]
        report.values["phn"] = st.phn_from_radial(
            payload["t"],
            mvals,
            st.IndexVector(payload["radial"], "radial"),
            payload["chibars"],
            payload["dims"],
        )
        report.rules["phn"] = "mobius-weighted-radial-sum"
        return

    poset, data = _parse_poset(payload)
    if op == "mobius":
        inverse = st.mobius_inverse(data)
        report.values["m"] = {f"{i},{j}": v for (i, j), v in sorted(inverse.items())}
        report.rules["m"] = "mobius-inversion"
        if run_oracle:
            ok = True
            for i in range(poset.size):
                for k in range(poset.size):
                    if poset.leq(i, k):
                        s = sum(
                            data.value(i, j) * inverse.get((j, k), 0)
                            for j in poset.interval(i, k)
                        )
                        ok = ok and s == (1 if i == k else 0)
            report.oracle = {"kind": "product-identity", "match": ok}
        return
    vectors = payload.get("vectors", {})
    if op == "radial-from-eu":
        eu = st.IndexVector(vectors["eu"], "Eu")
        report.values["radial"] = st.radial_from_eu(data, eu, payload.get("target"))
        report.rules["radial"] = "slice-weighted-obstruction-sum"
    else:
        rad = st.IndexVector(vectors["radial"], "radial")
        report.values["eu"] = st.eu_from_radial(data, rad, payload.get("target"))
        report.rules["eu"] = "mobius-weighted-radial-sum"


def _load_group(payload):
    g = payload["group"]
    return br.PermutationGroup.from_one_based(g["degree"], g["generators"])


def _element(group, data):
    return br.BurnsideElement(group, {int(k): int(v) for k, v in data.items()})


def _subgroup_from_generators(group, gens):
    return group.subgroup_generated_by([tuple(x - 1 for x in g) for g in gens])


def _run_burnside(report, op, payload, run_oracle):
    group = _load_group(payload)
    report.certificates["group_order"] = group.order
    if op == "classes":
        report.values["classes"] = [
            {"index": c.index, "order": c.order} for c in group.classes()
        ]
        report.rules["classes"] = "subgroup-conjugacy-classification"
        return
    if op == "marks":
        report.values["marks"] = [list(r) for r in group.table_of_marks().matrix]
        report.rules["marks"] = "fixed-point-counts"
        return
    if op == "mul":
        a = _element(group, payload["a"])
        b = _element(group, payload["b"])
        product = br.burnside_mul(a, b)
        report.values["product"] = product
        report.values["pretty"] = str(product)
        report.rules["product"] = "marks-product"
        if run_oracle:
            total = br.BurnsideElement.zero(group)
            for i, ca in a.coefficients.items():
                for j, cb in b.coefficients.items():
                    total = total + oracles.burnside_mul_by_orbits(group, i, j).scale(
                        ca * cb
                    )
            report.oracle = {
                "kind": "orbit-counting",
                "value": {str(k): v for k, v in total.coefficients.items()},
                "match": total == product,
            }
        return
    if op == "r0":
        report.values["r0"] = br.r0(_element(group, payload["a"]))
        report.rules["r0"] = "coefficient-sum"
        return
    if op == "restrict":
        sub = _subgroup_from_generators(group, payload["subgroup"])
        restricted = br.restriction(_element(group, payload["a"]), sub)
        report.values["restriction"] = restricted
        report.values["pretty"] = str(restricted)
        report.values["subgroup_classes"] = [
            {"index": c.index, "order": c.order} for c in restricted.group.classes()
        ]
        report.rules["restriction"] = "coset-orbit-decomposition"
        return
    if op == "induce":
        sub = _subgroup_from_generators(group, payload["subgroup"])
        h_group = br.subgroup_as_group(group, sub)
        induced = br.induction(_element(h_group, payload["a"]), group)
        report.values["induction"] = induced
        report.values["pretty"] = str(induced)
        report.rules["induction"] = "subgroup-class-transport"
        return
    if op == "euler":
        strata = [
            (
                rec["isotropy"]
                if isinstance(rec["isotropy"], int)
                else [tuple(x - 1 for x in g) for g in rec["isotropy"]],
                rec["chiOrbit"],
            )
            for rec in payload["strata"]
        ]
        chi = br.equivariant_euler(group, strata)
        report.values["chi"] = chi
        report.values["pretty"] = str(chi)
        report.rules["chi"] = "orbit-space-weighted-sum"
        return


def _run_equivariant(report, op, payload):
    group = _load_group(payload)
    if op == "radial":
        records = [
            (
                rec["isotropy"]
                if isinstance(rec["isotropy"], int)
                else [tuple(x - 1 for x in g) for g in rec["isotropy"]],
                rec["index"],
            )
            for rec in payload["orbits"]
        ]
        value = br.equivariant_radial_index(group, records)
        report.values["radial"] = value
        report.values["pretty"] = str(value)
        report.rules["radial"] = "orbit-sum-with-multiplicities"
        return
    if op == "ph-check":
        orbit_indices = []
        for rec in payload["orbit_indices"]:
            sub = _subgroup_from_generators(group, rec["subgroup"])
            h_group = br.subgroup_as_group(group, sub)
            orbit_indices.append((_element(h_group, rec["index"]), h_group))
        chi = _element(group, payload["chi"])
        ok = br.equivariant_ph_check(group, orbit_indices, chi)
        report.values["holds"] = ok
        report.rules["holds"] = "equivariant-poincare-hopf"
        return
    if op == "gsv-from-radial":
        rad = _element(group, payload["radial"])
        chibar = _element(group, payload["chibar"])
        value = br.equivariant_gsv_from_radial(rad, chibar)
        report.values["gsv"] = value
        report.values["pretty"] = str(value)
        report.rules["gsv"] = "radial-plus-reduced-euler"
