"""Digest of the reports on the benchmark's job streams.

For each workload of ``perfbench/workloads.py``, every document of
``make_stream(workload, seed, rounds)``, for each given seed, is run
through ``run_job``.  One line per workload gives the document count and
one SHA-256 over each report's ``to_json()`` and exit code, so two
checkouts that print the same lines give byte-identical reports and exit
codes on those streams.  Run from any directory:

    python3 tools/stream_digest.py [--seeds 1 2 3] [--rounds 20]

``tools/stream_digest.txt`` holds the lines of ``--seeds 1 2 3``, the
default, which CI compares with the tool's output.

The program is imported from the checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402
from singindex.jobs import run_job  # noqa: E402


def digest(workload, seeds, rounds):
    """(document count, hex SHA-256 over each exit code and report)."""
    sha = hashlib.sha256()
    count = 0
    for seed in seeds:
        for jobs in workloads.make_stream(workload, seed, rounds):
            for job in jobs:
                report, code = run_job(job.doc)
                sha.update(f"{code}\n{report.to_json()}\n".encode())
                count += 1
    return count, sha.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args(argv)
    for workload in workloads.WORKLOADS:
        count, hexdigest = digest(workload, args.seeds, args.rounds)
        print(f"{workload:16s} {count:5d} {hexdigest}")


if __name__ == "__main__":
    main()
