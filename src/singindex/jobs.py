"""Job documents: parsing, dispatch, and reports.

A job document is JSON of the shape

    { "command": "...", "op": "...", "payload": {...}, "options": {...} }

where the payload schema depends on the command (see README).  Each
document is read once: one walk per command records the diagnostics,
with JSON paths, and yields the typed arguments of the command's runner
(polynomials, fractions, 0-based permutations, class indices, slice
keys, defaults filled in).  The runner never reads the document itself.
Parsing expands polynomials under the job's degree cap and one term
budget per document (``poly.MAX_DOCUMENT_TERMS``) but computes nothing
else: no group closure, no basis.  ``validate`` is that parse,
returning only the diagnostics.

Reports carry the requested values, the flags, an auditable set of
certificates (intermediate colengths, basis sizes, marks matrices), and a
rule tag per value naming the identity that produced it.  ``_encode`` is
the one place that writes INFINITE, fractions and Burnside elements as
JSON values, and ``Report.to_json`` writes the result with one recursive
writer whose bytes equal ``json.dumps(..., indent=2, sort_keys=True)``.
On CPython 3.10 to 3.13 the stdlib's C encoder takes no indent, so that
call runs the generator-based pure-Python encoder, which took 11% of
the time of a Burnside job and 22% of a small one.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction

from . import burnside as br
from . import icis as ic
from . import oracles
from . import smooth as sm
from . import strat as st
from .errors import (
    DegreeCapError,
    DigitLimitError,
    GenericityError,
    NotIsolatedError,
    OracleBudgetError,
    RejectedInputError,
)
from .grobner import DEFAULT_DEGREE_CAP, INFINITE
from .poly import MAX_DOCUMENT_TERMS, monomial_text, parse_polynomial

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

# largest m and n of the determinantal ops: C(9999, 4999), the largest
# binomial they then reach, has 3008 digits and takes 4 ms
MAX_MATRIX_SIZE = 10_000

# what a report or a JSON path shows for an input integer that str()
# cannot print
LONG_INTEGER = "<long integer>"


@dataclass
class Report:
    """Result document; ``to_json`` and ``to_text`` write it, and
    INFINITE is written as the string "INFINITE"."""

    command: str
    op: str = ""
    status: str = "ok"
    values: dict = field(default_factory=dict)
    flags: list = field(default_factory=list)
    rules: dict = field(default_factory=dict)
    certificates: dict = field(default_factory=dict)
    options: dict = field(default_factory=dict)
    oracle: dict = field(default_factory=dict)

    def put(self, name, value, rule):
        """Record a value with the rule that produced it; one too long to
        print is refused first (see _check_digits)."""
        _check_digits(value)
        self.values[name] = value
        self.rules[name] = rule

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
        out = []
        _write(self.to_dict(), out, "\n")
        return "".join(out)

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
            lines.append(f"oracle: {_pretty(self.oracle)}")
        return "\n".join(lines)


def _encode(value):
    """The value as JSON data, with dict keys as strings; INFINITE,
    Fractions and Burnside elements are written here and nowhere else.
    Exact ints, strings, dicts, lists and tuples are told apart by their
    type first, subclasses by isinstance after."""
    kind = type(value)
    if kind is int or kind is str:
        return value
    if kind is dict:
        return {str(k): _encode(v) for k, v in value.items()}
    if kind is list or kind is tuple:
        return [_encode(v) for v in value]
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


_quote = json.encoder.encode_basestring_ascii


def _write(value, out, newline):
    """Append to out the text of value as json.dumps(value, indent=2,
    sort_keys=True) writes it, with newline the line break and indent of
    the line value starts on (see the module docstring).  Strings and
    ints are written here, any other leaf by json.dumps, so its text and
    its errors are the stdlib's."""
    kind = type(value)
    if kind is str:
        out.append(_quote(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write(item, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            # a key that is no string takes the stdlib's text or TypeError
            out.append(sep + (_quote(key) if type(key) is str else json.dumps({key: 0})[1:-4]) + ": ")
            _write(item, out, inner)
            sep = "," + inner
        out.append(newline + "}")
    else:
        out.append(json.dumps(value))


def _too_long(value, limit):
    """Whether str() cannot print the integer under a limit of decimal
    digits, 0 for none; one below 2^(3 * limit) < 10^limit needs no exact
    test."""
    return 0 < limit and value.bit_length() > 3 * limit and abs(value) >= 10**limit


def _check_digits(*values):
    """Raise DigitLimitError when the values hold an integer that str()
    cannot print (see _unprintable)."""
    if _unprintable(values):
        raise DigitLimitError(
            f"a result has more than {sys.get_int_max_str_digits()} decimal digits, "
            "more than this Python converts to text"
        )


def _pretty(value):
    if value is INFINITE:
        return "INFINITE"
    if isinstance(value, dict):
        return json.dumps(_encode(value), sort_keys=True)
    if isinstance(value, (list, tuple)):
        return json.dumps(_encode(value))
    return str(value)


# ---------------------------------------------------------------------------
# parsing: one walk over the document


def _is_int(value):
    """A JSON integer that str() can print; booleans are not integers
    here.  The digit limit is sys.get_int_max_str_digits, 0 for none
    (Pythons before 3.10.7 have none), and it is 0 or at least 640, so an
    integer below 2^(3 * 640) needs no look at it."""
    if type(value) is not int and (not isinstance(value, int) or isinstance(value, bool)):
        return False
    return value.bit_length() <= 3 * 640 or not _too_long(
        value, getattr(sys, "get_int_max_str_digits", int)()
    )


def _unprintable(value):
    """Whether str() cannot print the value: it is an integer with more
    digits than the limit, or a list, tuple, object, Fraction or Burnside
    element that holds one."""
    if type(value) is str:  # the common case, on every document
        return False
    stack = [value]
    while stack:
        value = stack.pop()
        kind = type(value)
        if kind is int:
            if value.bit_length() > 3 * 640 and not _is_int(value):
                return True
        elif kind is list or kind is tuple:
            stack += value
        elif kind is dict:
            stack += value
            stack += value.values()
        elif kind is Fraction:
            stack += value.numerator, value.denominator
        elif kind is br.BurnsideElement:
            stack += value.coefficients.values()
    return False


def _key_path(path, key):
    """The JSON path of a key of the object at path; an integer key that
    str() cannot print is not formatted."""
    if _unprintable(key):
        return f"{path}[{LONG_INTEGER}]"
    return f"{path}[{key!r}]"


def _decimal(text):
    """The value of a string of decimal digits, else None."""
    if isinstance(text, str) and text.isdecimal():
        try:
            return int(text)
        except ValueError:  # more digits than int() reads
            return None
    return None


def _is_permutation(value, degree):
    """A permutation of 1..degree in one-line notation."""
    return (
        isinstance(value, list)
        and len(value) == max(degree, 0)
        and all(map(_is_int, value))
        and sorted(value) == list(range(1, degree + 1))
    )


def _zero_based(perm):
    return tuple(x - 1 for x in perm)


class _Job:
    """A job document, read once.

    Reading records diagnostics with JSON paths, in the order the fields
    are met, and leaves the typed arguments of the command's runner as
    attributes: polynomials, fractions, 0-based permutations, integer
    class indices, (i, j) slice keys, with defaults filled in.  Nothing is
    computed: no group closure, no basis.

    Faults in polynomial text and field tags are ``late``: they are
    reported only when the document has the right shape.  A polynomial
    above the degree cap is kept in ``over_cap`` and aborts the job only
    when there is nothing to reject.  ``terms`` counts the terms of the
    polynomials parsed so far; the first polynomial that takes it past
    ``MAX_DOCUMENT_TERMS`` is refused, and no later one is parsed.
    """

    def __init__(self, document):
        self.shape, self.late = [], []
        self.over_cap = None
        self.terms = 0
        self.seed, self.cap = 0, DEFAULT_DEGREE_CAP
        self.command, self.op, self.runner = "", "", None
        if not isinstance(document, dict):
            self.add("$", "job document must be a JSON object")
            return
        self.command, self.op = document.get("command", ""), document.get("op", "")
        # the report echoes both: a value that holds an integer str()
        # cannot print is replaced, and refused at its path
        if _unprintable(self.op):
            self.op = LONG_INTEGER
            self.add("$.op", "op holds an integer too long to print")
        if _unprintable(self.command):
            self.command = LONG_INTEGER
        if self.command not in COMMANDS:
            self.add("$.command", f"command must be one of {', '.join(COMMANDS)}")
            return
        payload = document.get("payload")
        if not isinstance(payload, dict):
            self.add("$.payload", "payload must be a JSON object")
            return
        self._read_options(document.get("options", {}))
        parse, self.runner = _HANDLERS[self.command]
        parse(self, payload)

    @property
    def diagnostics(self):
        return self.shape or self.late

    def add(self, path, message, late=False):
        (self.late if late else self.shape).append({"path": path, "message": message})

    def require(self, condition, path, message, late=False):
        if not condition:
            self.add(path, message, late)
        return condition

    def _read_options(self, options):
        if not isinstance(options, dict):
            self.add("$.options", "options must be a JSON object")
            return
        if "seed" in options:
            self.seed = self.integer(options["seed"], "$.options.seed", "seed must be an integer")
        if "degree_cap" in options:
            cap = self.integer(
                options["degree_cap"],
                "$.options.degree_cap",
                "degree_cap must be a positive integer",
                low=1,
            )
            self.cap = DEFAULT_DEGREE_CAP if cap is None else cap

    # -- typed readers: each records a diagnostic per fault and returns the
    # typed value, None where there is none; a job with a diagnostic never
    # runs, so only a parse function that stops early looks at the None

    def integer(self, value, path, message="expected an integer", low=None):
        ok = _is_int(value) and (low is None or value >= low)
        return value if self.require(ok, path, message) else None

    def integers(self, value, path, length, message=None):
        ok = isinstance(value, list) and len(value) == length and all(map(_is_int, value))
        return value if self.require(ok, path, message or f"expected {length} integers") else None

    def permutations(self, value, path, degree):
        if not isinstance(value, list) or not value:
            self.add(path, "expected a non-empty list of permutations")
            return None
        ok = True
        for i, g in enumerate(value):
            ok &= self.require(
                _is_permutation(g, degree),
                f"{path}[{i}]",
                f"expected a permutation of 1..{degree} in one-line notation",
            )
        return [_zero_based(g) for g in value] if ok else None

    def element(self, value, path, message="expected {classIndex: coefficient}"):
        """A Burnside element: (JSON path, class index, integer
        coefficient) per key.  Whether the group has that class is known
        only once the job runs (see _element)."""
        if not isinstance(value, dict):
            self.add(path, message)
            return None
        out = []
        for key, coeff in value.items():
            index = key if _is_int(key) else _decimal(key)
            key_path = _key_path(path, key)
            if index is None:
                self.add(key_path, "class index must be an integer")
            elif self.require(_is_int(coeff), key_path, "coefficient must be an integer"):
                out.append((key_path, index, coeff))
        return out

    def polynomials(self, value, path, count=None):
        if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
            self.add(path, "expected a list of polynomial strings")
            return None
        if count is not None and len(value) != count:
            self.add(path, f"expected {count} entries, found {len(value)}")
            return None
        return [self.polynomial(text, f"{path}[{i}]") for i, text in enumerate(value)]

    def polynomial(self, text, path):
        if self.terms > MAX_DOCUMENT_TERMS:
            return None
        if _unprintable(text):
            self.add(path, "integer in polynomial text is too long", late=True)
            return None
        try:
            p = parse_polynomial(text, self.variables, self.cap)
        except RejectedInputError as err:
            self.add(path, str(err), late=True)
            return None
        except DegreeCapError as err:
            self.over_cap = self.over_cap or err
            return None
        self.terms += len(p.terms)
        if self.terms > MAX_DOCUMENT_TERMS:
            self.add(
                path,
                f"the document's polynomials have more than {MAX_DOCUMENT_TERMS} terms in all",
                late=True,
            )
            return None
        return p

    def rational(self, value, path):
        """An exact rational.  Strings in exponent notation are refused:
        "1e999999999" would expand to a billion-digit integer."""
        if not (isinstance(value, str) and "e" in value.lower()):
            try:
                return Fraction(str(value))
            except (ValueError, ZeroDivisionError):
                pass
        self.add(path, "expected a rational number")
        return None

    def read_variables(self, payload):
        value = payload.get("variables")
        if not self.require(
            isinstance(value, list) and value and all(isinstance(v, str) for v in value),
            "$.payload.variables",
            "expected a non-empty list of variable names",
        ) or not self.require(
            len(set(value)) == len(value), "$.payload.variables", "variable names must be distinct"
        ):
            return False
        self.variables = tuple(value)
        return True

    def read_op(self, ops):
        return self.require(
            self.op in ops, "$.op", f"{self.command} op must be one of {', '.join(ops)}"
        )


def validate(document):
    """Diagnostics of a job document: it is parsed, polynomials expanded
    under the degree cap, but nothing is computed."""
    return _Job(document).diagnostics


def _parse_smooth(job, payload):
    if not job.read_variables(payload):
        return
    n = len(job.variables)
    elk = job.command == "elk"
    job.kind = payload.get("kind", "vector_field")
    if job.command == "collection":
        job.kind = "collection"
    job.action = None
    if job.kind in ("vector_field", "one_form"):
        job.data = job.polynomials(payload.get("data"), "$.payload.data", n)
        job.field = payload.get("field", "R" if elk else "C")
        if elk:
            job.require(
                job.field == "R", "$.payload.field", "the signature index needs field 'R'"
            )
        else:
            job.require(
                job.field in ("R", "C"),
                "$.payload.field",
                "ground field tag must be 'R' or 'C'",
                late=True,
            )
    elif job.kind == "collection":
        if not _parse_sections(job, payload.get("data"), n):
            return
        job.require(
            not elk,
            "$.payload.kind",
            "the signature index needs kind vector_field or one_form",
            late=True,
        )
    else:
        job.add("$.payload.kind", "kind must be vector_field, one_form or collection")
    action = payload.get("action")
    if action is None:
        return
    if not isinstance(action, list) or not all(
        isinstance(m, list)
        and len(m) == n
        and all(isinstance(r, list) and len(r) == n for r in m)
        for m in action
    ):
        job.add("$.payload.action", f"expected a list of {n} x {n} matrices")
        return
    job.action = [
        [
            [job.rational(x, f"$.payload.action[{k}][{i}][{j}]") for j, x in enumerate(r)]
            for i, r in enumerate(m)
        ]
        for k, m in enumerate(action)
    ]


def _parse_sections(job, data, n):
    """The rank, partition and section matrices of a collection; False
    when the rest of the payload is not worth reading."""
    if not isinstance(data, dict):
        job.add("$.payload.data", "expected {rank, partition, matrices}")
        return False
    job.rank = job.integer(
        data.get("rank"), "$.payload.data.rank", "rank must be a positive integer", low=1
    )
    if job.rank is None:
        return False
    matrices = _read_partition(
        job, data, "$.payload.data", n, f"the variable count {n}", "matrices", "section matrix"
    )
    if matrices is None:
        return False
    job.matrices = []
    for i, (k, mat) in enumerate(zip(job.partition, matrices)):
        cols = job.rank - k + 1
        path = f"$.payload.data.matrices[{i}]"
        if cols < 1:
            job.add(path, f"partition entry {k} exceeds the rank {job.rank}")
        elif not isinstance(mat, list) or len(mat) != job.rank or any(
            not isinstance(row, list) or len(row) != cols for row in mat
        ):
            job.add(path, f"expected a {job.rank} x {cols} matrix of polynomials")
        else:
            job.matrices.append([
                [job.polynomial(e, f"{path}[{a}][{b}]") for b, e in enumerate(row)]
                for a, row in enumerate(mat)
            ])
    return True


def _parse_icis(job, payload):
    if not job.read_variables(payload):
        return
    n = len(job.variables)
    job.equations = job.polynomials(payload.get("equations"), "$.payload.equations")
    if job.equations is None:
        return
    for i, equation in enumerate(job.equations):
        job.require(
            equation is None or equation.constant_term() == 0,
            f"$.payload.equations[{i}]",
            "equations must vanish at the origin",
            late=True,
        )
    job.require(
        len(job.equations) <= n,
        "$.payload.equations",
        "cannot have more equations than variables",
    )
    dim = n - len(job.equations)
    job.form = job.groups = None
    if ("form" in payload) == ("collection" in payload):
        job.add("$.payload", "provide exactly one of 'form' or 'collection'")
        return
    if "form" in payload:
        job.form = job.polynomials(payload["form"], "$.payload.form", n)
    elif not _parse_form_groups(job, payload["collection"], n, dim):
        return
    job.require(
        "seed" not in payload, "$.payload.seed", "the seed is an option: give it as options.seed"
    )
    job.want = payload.get("want", ["gsv"])
    if job.require(
        isinstance(job.want, list)
        and all(w in ("gsv", "milnor", "radial", "homological") for w in job.want),
        "$.payload.want",
        "want entries must be gsv, milnor, radial, homological",
    ):
        needs_gsv = set(job.want) & {"gsv", "radial", "homological"}
        job.require(
            not (dim == 0 and job.form is not None and needs_gsv),
            "$.payload.equations",
            "the GSV index of a 1-form needs a germ of positive dimension: "
            f"{n} equations in {n} variables leave dim V = 0",
        )
        job.require(
            job.form is not None or not set(job.want) & {"radial", "homological"},
            "$.payload.want",
            "radial and homological indices are defined for single 1-forms, not collections",
        )


def _read_partition(job, data, path, total, total_name, key, noun):
    """Read job.partition, positive integers summing to total, and return
    data[key], one entry per part; None when the rest is not worth reading."""
    job.partition = data.get("partition")
    if not job.require(
        isinstance(job.partition, list)
        and job.partition
        and all(_is_int(k) and k >= 1 for k in job.partition),
        f"{path}.partition",
        "partition must be a list of positive integers",
    ):
        return None
    job.require(
        sum(job.partition) == total,
        f"{path}.partition",
        f"partition must sum to {total_name} (the hypothesis of the collection index formula)",
    )
    entries = data.get(key)
    if not isinstance(entries, list) or len(entries) != len(job.partition):
        job.add(f"{path}.{key}", f"expected one {noun} per partition entry")
        return None
    return entries


def _parse_form_groups(job, coll, n, dim):
    if not isinstance(coll, dict):
        job.add("$.payload.collection", "expected {partition, groups}")
        return False
    groups = _read_partition(
        job, coll, "$.payload.collection", dim, f"dim V = {dim}", "groups", "group"
    )
    if groups is None:
        return False
    job.groups = []
    for i, (k, group) in enumerate(zip(job.partition, groups)):
        want = dim - k + 1
        if job.require(
            isinstance(group, list) and len(group) == want,
            f"$.payload.collection.groups[{i}]",
            f"expected {want} forms for partition entry {k}",
        ):
            job.groups.append([
                job.polynomials(form, f"$.payload.collection.groups[{i}][{j}]", n)
                for j, form in enumerate(group)
            ])
    return True


def _parse_strat(job, payload):
    if not job.read_op(STRAT_OPS):
        return
    op = job.op
    if op == "det-n":
        job.ints = [job.integer(payload.get(key), f"$.payload.{key}") for key in "mnij"]
        _check_sizes(job, job.ints[:2])
    elif op == "proportionality":
        names = ("eu_variety", "local_index", "claimed_eu")
        job.ints = [job.integer(payload.get(key), f"$.payload.{key}") for key in names]
    elif op in ("radial-from-phn", "phn-from-radial"):
        _parse_chain(job, payload)
    else:
        _parse_poset(job, payload)


def _parse_chain(job, payload):
    """A chain of rank strata: t, its slice numbers (given, or integers m
    and n for the binomial formulas) and the per-stratum vectors."""
    t = job.t = job.integer(payload.get("t"), "$.payload.t", "t must be a positive integer", low=1)
    if t is None:
        return
    explicit = "nvals" if job.op == "radial-from-phn" else "mvals"
    job.slices = job.mn = None
    if explicit in payload:
        job.slices = job.integers(payload[explicit], f"$.payload.{explicit}", t)
    elif _is_int(payload.get("m")) and _is_int(payload.get("n")):
        job.mn = payload["m"], payload["n"]
        _check_sizes(job, job.mn)
    else:
        job.add(
            f"$.payload.{explicit}",
            f"provide {explicit} (length {t}) or integers m and n "
            "to derive them from the binomial formulas",
        )
    if job.op == "radial-from-phn":
        job.phn = job.integers(payload.get("phn"), "$.payload.phn", t)
        job.dim_v = job.integer(payload.get("dim_v"), "$.payload.dim_v")
        job.chibar = job.integer(payload.get("chibar"), "$.payload.chibar")
    else:
        job.radial, job.chibars, job.dims = (
            job.integers(payload.get(name), f"$.payload.{name}", t)
            for name in ("radial", "chibars", "dims")
        )


def _check_sizes(job, mn):
    """Refuse matrix sizes m and n above MAX_MATRIX_SIZE at their paths."""
    for key, size in zip("mn", mn):
        job.require(
            size is None or size <= MAX_MATRIX_SIZE,
            f"$.payload.{key}",
            f"{key} must be at most {MAX_MATRIX_SIZE}",
        )


def _parse_poset(job, payload):
    strata = payload.get("strata")
    if not job.require(
        isinstance(strata, list) and strata,
        "$.payload.strata",
        "expected a non-empty list of stratum labels",
    ):
        return
    printable = [
        job.require(
            not _unprintable(x), f"$.payload.strata[{i}]", "stratum label holds an integer too long to print"
        )
        for i, x in enumerate(strata)
    ]
    covers = payload.get("covers", [])
    if all(printable) and job.require(
        isinstance(covers, list)
        and all(isinstance(c, list) and len(c) == 2 and all(map(_is_int, c)) for c in covers),
        "$.payload.covers",
        "expected a list of [i, j] index pairs",
    ):
        try:
            job.poset = st.StratPoset(strata, [tuple(c) for c in covers])
        except RejectedInputError as err:
            job.add(f"$.payload.{err.field}", str(err))
    nmap = payload.get("n", {})
    entries = {}
    if not isinstance(nmap, dict):
        job.add("$.payload.n", "expected an object with 'i,j' keys")
        nmap = {}
    for key, value in nmap.items():
        ij = [_decimal(p.strip()) for p in key.split(",")] if isinstance(key, str) else []
        path = _key_path("$.payload.n", key)
        if len(ij) != 2 or None in ij:
            job.add(path, "keys must look like 'i,j'")
        elif job.require(
            max(ij) < len(strata),
            path,
            f"stratum indices must be below the stratum count {len(strata)}",
        ) and job.integer(value, path) is not None:
            entries[tuple(ij)] = value
    if not job.shape:
        try:
            job.slice_data = st.SliceData(job.poset, entries)
        except RejectedInputError as err:
            job.add("$.payload.n", str(err), late=True)
    if job.op == "mobius":
        return
    name = "eu" if job.op == "radial-from-eu" else "radial"
    vectors = payload.get("vectors", {})
    job.vector = job.integers(
        vectors.get(name) if isinstance(vectors, dict) else None,
        f"$.payload.vectors.{name}",
        len(strata),
        f"expected {len(strata)} integers (one per stratum)",
    )
    job.target = payload.get("target")
    if job.target is not None:
        job.require(
            _is_int(job.target) and 0 <= job.target < len(strata),
            "$.payload.target",
            f"expected a stratum index below {len(strata)}",
        )


def _parse_group(job, payload, ops):
    """The op and the group {degree, generators} of a Burnside-ring job."""
    if not job.read_op(ops):
        return False
    group = payload.get("group")
    if not isinstance(group, dict):
        job.add("$.payload.group", "expected a group object {degree, generators}")
        return False
    degree = group.get("degree", 0)
    ok = job.require(
        _is_int(degree) and degree >= 1,
        "$.payload.group.degree",
        "degree must be a positive integer",
    )
    generators = group.get("generators")
    if not isinstance(generators, list) or not generators:
        job.add("$.payload.group.generators", "expected a non-empty list of permutations")
        return False
    if not _is_int(degree):
        return False
    job.degree = degree
    job.generators = job.permutations(generators, "$.payload.group.generators", degree)
    return ok and job.generators is not None


def _parse_isotropy(job, records, path, kind, value_key):
    """Records {isotropy, value}: the isotropy is a subgroup class index or
    a list of generating permutations, the value an integer.  Each record
    keeps the JSON path of its isotropy."""
    if not isinstance(records, list):
        job.add(path, f"expected a list of {kind} records")
        return None
    out = []
    for i, rec in enumerate(records):
        if not isinstance(rec, dict) or "isotropy" not in rec or value_key not in rec:
            job.add(f"{path}[{i}]", f"expected {{isotropy, {value_key}}}")
            continue
        isotropy = rec["isotropy"]
        if isinstance(isotropy, list) and all(_is_permutation(g, job.degree) for g in isotropy):
            isotropy = [_zero_based(g) for g in isotropy]
        else:
            job.require(
                _is_int(isotropy),
                f"{path}[{i}].isotropy",
                f"expected a class index or a list of permutations of 1..{job.degree}",
            )
        value = job.integer(rec[value_key], f"{path}[{i}].{value_key}")
        out.append((isotropy, value, f"{path}[{i}].isotropy"))
    return out


def _parse_burnside(job, payload):
    """Both Burnside-ring commands, burnside and equivariant: the group,
    then what the op needs."""
    ops = BURNSIDE_OPS if job.command == "burnside" else EQUIVARIANT_OPS
    if not _parse_group(job, payload, ops):
        return
    op = job.op
    if op in ("mul", "r0", "restrict", "induce"):
        job.a = job.element(payload.get("a"), "$.payload.a")
    if op == "mul":
        job.b = job.element(payload.get("b"), "$.payload.b")
    elif op in ("restrict", "induce"):
        job.subgroup = job.permutations(
            payload.get("subgroup"), "$.payload.subgroup", job.degree
        )
    elif op == "euler":
        job.records = _parse_isotropy(
            job, payload.get("strata"), "$.payload.strata", "stratum", "chiOrbit"
        )
    elif op == "radial":
        job.records = _parse_isotropy(
            job, payload.get("orbits"), "$.payload.orbits", "orbit", "index"
        )
    elif op == "ph-check":
        records = payload.get("orbit_indices")
        job.orbit_indices = []
        if not isinstance(records, list):
            job.add("$.payload.orbit_indices", "expected a list of {subgroup, index}")
            records = []
        for i, rec in enumerate(records):
            path = f"$.payload.orbit_indices[{i}]"
            if job.require(
                isinstance(rec, dict) and "subgroup" in rec and "index" in rec,
                path,
                "expected {subgroup, index}",
            ):
                job.orbit_indices.append((
                    job.permutations(rec["subgroup"], path + ".subgroup", job.degree),
                    job.element(
                        rec["index"],
                        path + ".index",
                        "expected {classIndex: coefficient} over the subgroup",
                    ),
                ))
        job.chi = job.element(payload.get("chi"), "$.payload.chi")
    elif op == "gsv-from-radial":
        job.radial = job.element(payload.get("radial"), "$.payload.radial")
        job.chibar = job.element(payload.get("chibar"), "$.payload.chibar")


# ---------------------------------------------------------------------------
# execution


def run_job(document, run_oracle=False):
    """Parse a job document, run it and return (report, exit_code)."""
    job = _Job(document)
    if job.diagnostics:
        report = Report(
            command=str(job.command),
            op=str(job.op),
            status="rejected",
            values={"diagnostics": job.diagnostics},
        )
        return report, 2

    report = Report(
        command=job.command, op=job.op, options={"seed": job.seed, "degree_cap": job.cap}
    )
    try:
        if job.over_cap is not None:
            raise job.over_cap
        job.runner(report, job, run_oracle)
        _check_digits(report.certificates, report.oracle)
    except RejectedInputError as err:
        report.status = "rejected"
        if err.field is None:
            report.values["error"] = str(err)
        else:  # found at run time, with the JSON path of the input at fault
            report.values["diagnostics"] = [{"path": err.field, "message": str(err)}]
        return report, 2
    except NotIsolatedError as err:
        report.status = "non-isolated"
        report.values["error"] = str(err)
        return report, 3
    except (DegreeCapError, GenericityError) as err:
        report.status = "aborted"
        report.values["error"] = str(err)
        return report, 4
    except DigitLimitError as err:
        # nothing of the run stays: it may hold the integer at fault
        report.status = "aborted"
        report.values, report.certificates, report.oracle = {"error": str(err)}, {}, {}
        return report, 4

    if report.oracle and not report.oracle.get("match", True):
        return report, 1
    if any(v is INFINITE for v in report.values.values()):
        report.status = "non-isolated"
        return report, 3
    return report, 0


def _run_smooth(report, job, run_oracle):
    variables, cap = job.variables, job.cap
    if job.command == "elk":
        germ = sm.VectorFieldGerm(variables, job.data, field="R")
        action = None
        if job.action is not None:  # an empty list generates the trivial group
            with _refused_at("$.payload.action"):
                action = sm.GroupAction(variables, job.action)
        form = sm.elk_form(germ, cap)
        if action:
            with _refused_at("$.payload.action"):
                dimension, invariant = sm.invariant_values(form, action)
        report.put("index", form.signature(), "signature-of-residue-pairing")
        report.certificates["algebra_dimension"] = form.algebra.dimension
        report.certificates["algebra_basis"] = [
            monomial_text(variables, m) for m in form.algebra.basis
        ]
        if form.algebra.dimension == 0:
            report.flags.append("NONSINGULAR")
        if action:
            report.put("invariant_dimension", dimension, "trace-average-over-group")
            report.put("invariant_signature", invariant, "signature-on-invariant-subspace")
        if run_oracle:
            if len(variables) == 2:
                got = oracles.winding_degree(germ.components)
            elif len(variables) == 3:
                got = oracles.boundary_degree_3d(germ.components)
            else:
                report.oracle = {"supported": False}
                return
            report.oracle = {
                "kind": "boundary-degree",
                "value": got,
                "match": got == report.values["index"],
            }
        return

    if job.kind == "vector_field":
        germ = sm.VectorFieldGerm(variables, job.data, field=job.field)
        value = sm.palamodov_index(germ, cap)
        report.put("index", value, "colength-of-component-ideal")
        gens = list(germ.components)
    elif job.kind == "one_form":
        germ = sm.OneFormGerm(variables, job.data)
        value = sm.complex_form_index(germ, cap)
        report.put("index", value, "colength-of-coefficient-ideal")
        report.values["real_part_relation"] = (
            f"(-1)^{len(variables)} * index of the real part on R^{2 * len(variables)}"
        )
        gens = list(germ.coefficients)
    else:
        coll = sm.SectionCollection(variables, job.rank, job.partition, job.matrices)
        value = sm.collection_index(coll, cap)
        report.put("index", value, "minors-ideal-colength")
        gens = list(coll.minors_ideal().generators)
    if value == 0:
        report.flags.append("NONSINGULAR")
    if run_oracle:
        report.oracle = _macaulay_oracle(gens, value)
    report.certificates["ideal_generators"] = len(gens)


@contextmanager
def _refused_at(path):
    """Refuse what the body refuses at the JSON path of the input at fault."""
    try:
        yield
    except RejectedInputError as err:
        raise RejectedInputError(str(err), field=path) from err


def _macaulay_oracle(generators, value):
    """Cross-check a colength by the Macaulay oracle; past the oracle's
    work budget the check is reported as unsupported, not as a mismatch."""
    try:
        got = oracles.macaulay_colength(generators)
    except OracleBudgetError:
        return {"kind": "macaulay-truncation", "supported": False}
    return {"kind": "macaulay-truncation", "value": got, "match": got == value}


ICIS_RULES = {
    "gsv": "minors-ideal-colength",
    "milnor": "slice-recursion",
    "radial": "gsv-minus-milnor",
    "homological": "equals-gsv-on-complete-intersections",
}


def _run_icis(report, job, run_oracle):
    germ = ic.ICISGerm(job.variables, job.equations)
    want, cap = set(job.want), job.cap
    # a single form is the collection of partition (dim V) with one group
    partition, groups = (job.partition, job.groups) if job.form is None else ([germ.dim], [[job.form]])
    # values and certificates reach the report only once every one is known
    certificates = {"isolated_singularity_colength": ic.isolatedness_certificate(germ, cap)}
    gsv = mu = None
    if want & {"gsv", "radial", "homological"}:
        gsv = ic.gsv_index_collection(germ, partition, groups, cap)
        certificates["gsv_minors_colength"] = gsv
    if want & {"milnor", "radial"}:
        mu = ic.milnor_number(germ, job.seed, cap)
        certificates["milnor_number"] = mu
    values = {"gsv": gsv, "milnor": mu, "homological": gsv}
    if "radial" in want:
        values["radial"] = INFINITE if gsv is INFINITE else gsv - mu
    for name in job.want:
        report.put(name, values[name], ICIS_RULES[name])
    report.certificates.update(certificates)
    if run_oracle and "gsv" in want:
        report.oracle = _macaulay_oracle(list(ic.gsv_ideal(germ, partition, groups).generators), gsv)


def _run_strat(report, job, run_oracle):
    op = job.op
    if op == "det-n":
        report.put("n", st.det_n(*job.ints), "binomial-slice-formula")
        report.put("m", st.det_m(*job.ints), "binomial-slice-formula-inverse")
        return
    if op == "proportionality":
        report.put(
            "proportional",
            st.proportionality_check(*job.ints),
            "obstruction-proportional-to-radial-index",
        )
        return
    if op in ("radial-from-phn", "phn-from-radial"):
        t = job.t
        det = st.det_n if op == "radial-from-phn" else st.det_m
        slices = job.slices if job.mn is None else [det(*job.mn, i, t) for i in range(1, t + 1)]
        if op == "radial-from-phn":
            phn = st.IndexVector(job.phn, "PHN")
            value = st.radial_from_phn(t, slices, phn, job.dim_v, job.chibar)
            report.put("radial", value, "nash-index-weighted-sum")
        else:
            rad = st.IndexVector(job.radial, "radial")
            value = st.phn_from_radial(t, slices, rad, job.chibars, job.dims)
            report.put("phn", value, "mobius-weighted-radial-sum")
        return

    data = job.slice_data
    poset = data.poset
    if op == "mobius":
        inverse = st.mobius_inverse(data)
        report.put(
            "m", {f"{i},{j}": v for (i, j), v in sorted(inverse.items())}, "mobius-inversion"
        )
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
    elif op == "radial-from-eu":
        eu = st.IndexVector(job.vector, "Eu")
        value = st.radial_from_eu(data, eu, job.target)
        report.put("radial", value, "slice-weighted-obstruction-sum")
    else:
        rad = st.IndexVector(job.vector, "radial")
        report.put("eu", st.eu_from_radial(data, rad, job.target), "mobius-weighted-radial-sum")


def _class_index(group, index, path):
    """A class index read at a JSON path; one the group has no class for
    is refused with that path."""
    if not 0 <= index < len(group.classes()):
        raise RejectedInputError(f"no subgroup class with index {index}", field=path)
    return index


def _element(group, entries):
    """The Burnside element of parsed (path, class index, coefficient)
    entries, checked in document order."""
    return br.BurnsideElement(group, {_class_index(group, i, path): c for path, i, c in entries})


def _isotropy(group, records):
    """Parsed isotropy records as (isotropy, value), class indices checked."""
    return [
        (_class_index(group, iso, path) if _is_int(iso) else iso, value)
        for iso, value, path in records
    ]


def _run_burnside(report, job, run_oracle):
    """Both Burnside-ring commands."""
    op = job.op
    group = br.PermutationGroup(job.degree, job.generators)
    if job.command == "burnside":
        report.certificates["group_order"] = group.order
    if op == "classes":
        classes = [{"index": c.index, "order": c.order} for c in group.classes()]
        report.put("classes", classes, "subgroup-conjugacy-classification")
        return
    if op == "marks":
        marks = [list(r) for r in group.table_of_marks()]
        report.put("marks", marks, "fixed-point-counts")
        return
    if op == "r0":
        report.put("r0", br.r0(_element(group, job.a)), "coefficient-sum")
        return
    if op == "ph-check":
        local_indices = []
        for generators, index in job.orbit_indices:
            h_group = br.subgroup_as_group(group, group.subgroup_generated_by(generators))
            local_indices.append(_element(h_group, index))
        chi = _element(group, job.chi)
        holds = br.equivariant_ph_check(group, local_indices, chi)
        report.put("holds", holds, "equivariant-poincare-hopf")
        return
    if op == "mul":
        a = _element(group, job.a)
        b = _element(group, job.b)
        name, value, rule = "product", br.burnside_mul(a, b), "marks-product"
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
                "match": total == value,
            }
    elif op == "restrict":
        sub = group.subgroup_generated_by(job.subgroup)
        value = br.restriction(_element(group, job.a), sub)
        name, rule = "restriction", "coset-orbit-decomposition"
        report.values["subgroup_classes"] = [
            {"index": c.index, "order": c.order} for c in value.group.classes()
        ]
    elif op == "induce":
        h_group = br.subgroup_as_group(group, group.subgroup_generated_by(job.subgroup))
        value = br.induction(_element(h_group, job.a), group)
        name, rule = "induction", "subgroup-class-transport"
    elif op == "euler":
        value = br.equivariant_euler(group, _isotropy(group, job.records))
        name, rule = "chi", "orbit-space-weighted-sum"
    elif op == "radial":
        value = br.equivariant_radial_index(group, _isotropy(group, job.records))
        name, rule = "radial", "orbit-sum-with-multiplicities"
    else:
        radial = _element(group, job.radial)
        value = br.equivariant_gsv_from_radial(radial, _element(group, job.chibar))
        name, rule = "gsv", "radial-plus-reduced-euler"
    report.put(name, value, rule)
    report.values["pretty"] = str(value)


# command -> (parse function, runner)
_HANDLERS = {
    "smooth-index": (_parse_smooth, _run_smooth),
    "elk": (_parse_smooth, _run_smooth),
    "collection": (_parse_smooth, _run_smooth),
    "icis": (_parse_icis, _run_icis),
    "strat": (_parse_strat, _run_strat),
    "burnside": (_parse_burnside, _run_burnside),
    "equivariant": (_parse_burnside, _run_burnside),
}

COMMANDS = tuple(_HANDLERS)
