"""Command line front end.

Usage:

    singindex <command> [op] <jobfile> [--seed N] [--degree-cap N]
              [--format json|text] [--oracle]
    singindex validate <jobfile>

Commands are smooth-index, elk, collection, icis, strat, burnside and
equivariant; strat, burnside and equivariant take an op before the job
file (or read it from the job document).  Job files may be bare payloads
(when the command is given on the command line) or full documents with
"command", "op", "payload" and "options" keys.

Exit codes: 0 success; 2 rejected input; 3 a value came out INFINITE
(non-isolated finding; the report is still emitted); 4 the degree cap or
a genericity retry limit was hit, or a result has more digits than
Python converts to text; 1 internal error, oracle mismatch, or a reader
that closed the output pipe (no traceback).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import SingindexError
from .grobner import DEFAULT_DEGREE_CAP
from .jobs import COMMANDS, run_job, validate


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="singindex",
        description="Exact indices of singular points of vector fields and 1-forms.",
    )
    parser.add_argument(
        "command",
        choices=list(COMMANDS) + ["validate"],
        help="what to run (or 'validate' for schema diagnostics only)",
    )
    parser.add_argument(
        "rest",
        nargs="+",
        help="optional op followed by the job file path",
    )
    parser.add_argument("--seed", type=int, help="seed for generic choices (default 0)")
    parser.add_argument(
        "--degree-cap",
        type=int,
        help=f"abort basis computations beyond this total degree (default {DEFAULT_DEGREE_CAP})",
    )
    parser.add_argument(
        "--format", choices=["json", "text"], default="text", help="report format"
    )
    parser.add_argument(
        "--oracle",
        action="store_true",
        help="rerun supported computations against the independent oracles and diff",
    )
    return parser


def _load_document(args):
    if len(args.rest) == 1:
        op, path = "", args.rest[0]
    elif len(args.rest) == 2:
        op, path = args.rest
    else:
        raise SystemExit("expected: singindex <command> [op] <jobfile>")
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as err:
        raise SystemExit(f"cannot read job file: {err}")
    except (ValueError, RecursionError) as err:  # bad JSON, too long an integer, too deep a nesting
        raise SystemExit(f"job file is not valid JSON: {err}")

    if isinstance(data, dict) and "payload" in data:
        document = dict(data)
    else:
        document = {"payload": data}
    if args.command != "validate":
        stated = document.get("command")
        if stated is not None and stated != args.command:
            raise SystemExit(
                f"job file says command {stated!r} but {args.command!r} was requested"
            )
        document["command"] = args.command
    if op:
        stated = document.get("op")
        if stated and stated != op:
            raise SystemExit(f"job file says op {stated!r} but {op!r} was requested")
        document["op"] = op
    document.setdefault("op", "")
    options = document.setdefault("options", {})
    for name, given in (("seed", args.seed), ("degree_cap", args.degree_cap)):
        # only a flag given is written: the job reader owns the defaults
        if given is not None and isinstance(options, dict) and options.setdefault(name, given) != given:
            raise SystemExit(f"job file says {name} {options[name]!r} but {given} was requested")
    return document


def main(argv=None):
    args = _build_parser().parse_args(argv)
    document = _load_document(args)

    if args.command == "validate":
        diagnostics = validate(document)
        if args.format == "json":
            text = json.dumps({"diagnostics": diagnostics}, indent=2)
        else:
            lines = [f"{item['path']}: {item['message']}" for item in diagnostics]
            text = "\n".join(lines or ["job file is well-formed"])
        code = 2 if diagnostics else 0
    else:
        try:
            report, code = run_job(document, run_oracle=args.oracle)
        except SingindexError as err:
            print(f"internal error: {err}", file=sys.stderr)
            return 1
        text = report.to_json() if args.format == "json" else report.to_text()
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader closed stdout: the flush at exit now writes to os.devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
