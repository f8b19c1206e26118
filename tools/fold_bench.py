"""Fold paired benchmark runs into the ``workloads`` block of a BENCH file.

Input is a JSON Lines file with one object per run of
``perfbench/run.py``:

    {"side": "parent" or "change", "pair": k, "workload": name,
     "seed": n, "result": the last line that run.py printed, as an object}

A pair is one run of each side on the same workload and seed.  The
metrics and their bounds are those of ``BENCHMARK.json`` at the root of
the repository.  The output, printed as JSON, has one entry per
workload, in the order of first appearance:

* ``pairs`` and ``seeds`` (by pair);
* ``failed`` and ``correct`` per side: the most documents that failed in
  one run, and whether every run was correct;
* per end-to-end metric of ``BENCHMARK.json``, its ``unit``, ``better``
  and ``bound``; per side the ``median``, the quartiles ``q1`` and ``q3``
  (``statistics.quantiles`` with ``n=4``, inclusive) and the ``runs`` by
  pair; ``change_vs_parent``, the change's median over the parent's,
  minus 1; ``change_better_in_pairs``, the pairs in which the change
  reads strictly better; and ``within_bound``, whether the change's
  median is no worse than the parent's by more than the bound.

Values are rounded to 4 decimals.  Run from any directory:

    python3 tools/fold_bench.py runs.jsonl
"""

from __future__ import annotations

import argparse
import json
import os
import statistics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def fold(records, end_to_end):
    """The workloads block of the records (dicts as read from the input)
    over the end-to-end metric entries of BENCHMARK.json."""
    by_workload = {}
    for record in records:
        pairs = by_workload.setdefault(record["workload"], {})
        pairs.setdefault(record["pair"], {})[record["side"]] = record
    out = {}
    for workload, pairs in by_workload.items():
        runs = [pairs[k] for k in sorted(pairs)]
        if any(set(pair) != set(SIDES) or pair["parent"]["seed"] != pair["change"]["seed"] for pair in runs):
            raise ValueError(f"{workload}: every pair needs one run of each side, on one seed")
        results = {side: [pair[side]["result"] for pair in runs] for side in SIDES}
        entry = {
            "pairs": len(runs),
            "seeds": [pair["change"]["seed"] for pair in runs],
            "failed": {side: max(r["failed"] for r in results[side]) for side in SIDES},
            "correct": {side: all(r["correct"] for r in results[side]) for side in SIDES},
            "metrics": {},
        }
        for metric in end_to_end:
            name = metric["name"]
            values = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
            entry["metrics"][name] = _compare(metric, values)
        out[workload] = entry
    return out


def _compare(metric, values):
    sign = 1 if metric["better"] == "higher" else -1
    parent, change = (statistics.median(values[side]) for side in SIDES)
    entry = {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"]}
    for side in SIDES:
        q1, _, q3 = statistics.quantiles(values[side], n=4, method="inclusive")
        entry[side] = {
            "median": round(statistics.median(values[side]), 4),
            "q1": round(q1, 4),
            "q3": round(q3, 4),
            "runs": [round(v, 4) for v in values[side]],
        }
    entry["change_vs_parent"] = round(change / parent - 1, 4) if parent else 0.0
    entry["change_better_in_pairs"] = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
    entry["within_bound"] = sign * (change - parent) >= -metric["bound"] * abs(parent)
    return entry


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("runs", help="JSON Lines file, one object per run")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        end_to_end = json.load(handle)["end_to_end"]
    with open(args.runs) as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    print(json.dumps(fold(records, end_to_end), indent=1))


if __name__ == "__main__":
    main()
