"""Run one seeded job stream through singindex and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.
One process, one thread, one closed-loop client: the next document goes
into ``run_job`` only after the previous report has been serialised by
``Report.to_json``.  Every report is checked against the answer its
document was built with (see ``workloads.py``).

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs the stream untraced for half the time, then replays
the same jobs with spans at the module boundaries (see ``spans.py``) and
reports the per-layer metrics, each as a mean per job.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A job fails when
``run_job`` raises or its exit code differs from the known one; a report
with the right exit code but a wrong value makes ``correct`` false.
``attempted`` and ``failed`` count distinct documents, not plays, and
``small-jobs`` plays its whole stream at least once, so neither count
grows with the program's speed.  The full record (environment, one entry
per failing document with its traceback, per-layer shares) goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
from array import array
import json
import os
import platform
import resource
import statistics
import sys
import threading
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# rounds generated per run: the three heavy workloads never revisit a
# document; small-jobs cycles its 8000 about four times in a 20 s run,
# since generating more would dominate the set-up time
ROUNDS = {"elk-signature": 60, "local-colength": 60, "burnside-lattice": 60, "small-jobs": 400}
# workloads whose every document is played at least once per run, so that
# the distinct documents attempted, and those failing, are a fixed set
FULL_PASS = {"small-jobs"}
MIN_JOBS = 100  # so that ten latencies lie above the 90th percentile
SETUP_REPEATS = 7


def load_program():
    """Import singindex from the checkout's src/, afresh."""
    for name in [m for m in sys.modules if m == "singindex" or m.startswith("singindex.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import singindex
    import singindex.jobs  # noqa: F401

    if not os.path.abspath(singindex.__file__).startswith(SRC + os.sep):
        raise ImportError(f"singindex was imported from {singindex.__file__}, not from {SRC}")
    return singindex


def setup(workload, seed):
    """Returns (set-up seconds, of which import seconds, program, stream, warm-up round)."""
    t0 = perf_counter()
    si = load_program()
    imported = perf_counter() - t0
    stream = workloads.make_stream(workload, seed, ROUNDS[workload])
    warmup = workloads.make_stream(workload, f"warmup-{seed}", 1)[0]
    return perf_counter() - t0, imported, si, stream, warmup


def rss_mb():
    """Current resident set size of this process."""
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_jobs(si, jobs, on_result, tracer=None, gauge=None):
    """Closed loop over `jobs`, one job at a time.  Each time the gauge
    samples the host's speed, the resident memory is sampled too."""
    run_job = si.jobs.run_job
    for job in jobs:
        if tracer is not None:
            tracer.job_id += 1
        t0 = perf_counter()
        try:
            report, code = run_job(job.doc)
            text = report.to_json()
            outcome = (code, text)
        except Exception:
            outcome = (None, traceback.format_exc())
        on_result(job, t0, perf_counter() - t0, outcome)
        if gauge is not None and gauge.maybe_sample():
            on_result.peak_rss_mb = max(on_result.peak_rss_mb, rss_mb())


def run_stream(si, stream, seconds, min_jobs, min_rounds, tally, gauge=None):
    """Whole rounds, cycling through the stream, until `seconds` have
    passed, at least `min_jobs` ran and at least `min_rounds` rounds.
    Returns per round (first job, end job, correct jobs); round r played
    stream[r % len(stream)]."""
    rounds = []
    start = perf_counter()
    while True:
        batch = stream[len(rounds) % len(stream)]
        first = rounds[-1][1] if rounds else 0
        before = tally.correct
        run_jobs(si, batch, tally, gauge=gauge)
        rounds.append((first, first + len(batch), tally.correct - before))
        if perf_counter() - start >= seconds and first + len(batch) >= min_jobs and len(rounds) >= min_rounds:
            return rounds


class Tally:
    """Outcome of every job against its known answer.  Latencies,
    `correct` and `raised` count every play; failures and wrong answers are kept once
    per distinct document (a job object is one document of the stream).
    Per-play records are packed arrays, so that the benchmark's own
    memory barely grows with the number of plays."""

    def __init__(self):
        self.starts = array("d")
        self.latencies = array("d")
        self.correct = 0
        self.raised = 0
        self.seen = set()
        self.failures = {}
        self.wrong = {}
        self.peak_rss_mb = 0.0

    def __call__(self, job, start, latency, outcome):
        self.starts.append(start)
        self.latencies.append(latency)
        self.seen.add(id(job))
        code, text = outcome
        if code is None:
            self.raised += 1
            self.failures.setdefault(id(job), {"family": job.family, "kind": "raised", "document": job.doc,
                                               "traceback": text})
            return
        exit_ok, problems = workloads.check(job.expect, code, json.loads(text))
        if not exit_ok:
            self.failures.setdefault(id(job), {"family": job.family, "kind": "exit", "document": job.doc,
                                               "detail": problems[0], "report": json.loads(text)})
        elif problems:
            self.wrong.setdefault(id(job), {"family": job.family, "document": job.doc, "problems": problems})
        else:
            self.correct += 1

    def ok_ratio(self):
        """Distinct documents whose every play was correct, over those played."""
        return 1 - len(self.failures.keys() | self.wrong.keys()) / len(self.seen)

    def grouped_failures(self):
        """Failures grouped by family and error: every document, and the
        traceback (or report) of the first one."""
        groups = {}
        for f in self.failures.values():
            error = (f.get("traceback") or f.get("detail")).strip().splitlines()[-1]
            key = (f["family"], f["kind"], error)
            if key not in groups:
                groups[key] = {"family": f["family"], "kind": f["kind"], "error": error,
                               "traceback": f.get("traceback"), "report": f.get("report"), "documents": []}
            groups[key]["documents"].append(f["document"])
        return list(groups.values())


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, -(-q * len(ordered) // 100) - 1))
    return ordered[int(k)]


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def single_thread_single_process():
    """True when this process runs one thread and has no children."""
    if threading.active_count() != 1:
        return False
    try:
        if len(os.listdir("/proc/self/task")) != 1:
            return False
    except OSError:
        pass
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    gauge = hostspeed.Gauge()
    setups, raw_setups, imports = [], [], []
    for _ in range(SETUP_REPEATS):
        si = stream = warmup = None  # so that one set-up's objects do not outlive the next
        gc.collect()
        gauge.sample()
        elapsed, imported, si, stream, warmup = setup(args.workload, args.seed)
        gauge.sample()
        scale = hostspeed.NOMINAL_S * 2 / (gauge.durations[-1] + gauge.durations[-2])
        raw_setups.append(elapsed)
        setups.append(elapsed * scale)
        imports.append(imported * scale)
    run_jobs(si, warmup, lambda *a: None)

    tally = Tally()
    min_rounds = len(stream) if args.workload in FULL_PASS else 1
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "setup_import_s": statistics.median(imports)}
    if not args.trace:
        rounds = run_stream(si, stream, args.seconds, MIN_JOBS, min_rounds, tally, gauge)
        gauge.sample()
        raw = tally.latencies
        scaled = [lat * gauge.scale(t0 + lat / 2) for t0, lat in zip(tally.starts, raw)]

        def summary(lat):
            """Median over rounds of correct jobs per busy second (every round
            has the same slots), and latency percentiles in ms."""
            rates = [c / sum(lat[a:b]) for a, b, c in rounds]
            ms = [x * 1000 for x in lat]
            return statistics.median(rates), percentile(ms, 50), percentile(ms, 90)

        jobs_per_s, p50, p90 = summary(scaled)
        metrics = {
            "jobs_per_s": (jobs_per_s, "1/s"),
            "job_p50_ms": (p50, "ms"),
            "job_p90_ms": (p90, "ms"),
            "ok_ratio": (tally.ok_ratio(), "1"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (max(tally.peak_rss_mb, rss_mb()), "MB"),
        }
        raw_rate, raw_p50, raw_p90 = summary(raw)
        record["wall_clock"] = {"jobs_per_s": raw_rate, "job_p50_ms": raw_p50, "job_p90_ms": raw_p90,
                                "setup_s": statistics.median(raw_setups)}
    else:
        plain = Tally()
        rounds = run_stream(si, stream, args.seconds / 2, 1, min_rounds, plain, gauge)
        done = [job for r in range(len(rounds)) for job in stream[r % len(stream)]]
        n = len(done)
        tracer = spans.Tracer()
        tracer.install(si)
        run_jobs(si, done, tally, tracer, gauge)
        gauge.sample()
        plain_busy, traced_busy = (sum(lat * gauge.scale(t0 + lat / 2) for t0, lat in zip(t.starts, t.latencies))
                                   for t in (plain, tally))
        totals = tracer.layer_totals()
        tracer.counts["jobs.raised"] = tally.raised
        metrics = {name: (totals[name] / n, "s/job") for name in spans.TIME_METRICS}
        for name in spans.COUNT_METRICS:
            metrics[name] = (tracer.counts[name] / n, "B/job" if name == "jobs.report_bytes" else "1/job")
        metrics["trace.overhead_s"] = ((traced_busy - plain_busy) / n, "s/job")
        metrics["setup.import_s"] = (record["setup_import_s"], "s")
        traced_total = sum(totals.values())
        shares = {name: totals[name] / traced_total for name in spans.TIME_METRICS} if traced_total else {}
        modules = {}
        for name, share in shares.items():
            modules[name.split(".")[0]] = modules.get(name.split(".")[0], 0.0) + share
        dominant = max(shares, key=shares.get) if shares else "none"
        record["layer_shares"] = shares
        record["module_shares"] = modules
        record["dominant_layer"] = dominant
        print(f"dominant layer: {dominant} ({100 * shares.get(dominant, 0):.1f}% of traced time); by module: "
              + ", ".join(f"{m} {100 * v:.1f}%" for m, v in sorted(modules.items(), key=lambda kv: -kv[1])))
        os.makedirs(OUT, exist_ok=True)
        tracer.write_spans(os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.tsv.gz"))

    isolated = single_thread_single_process()
    record["env"] = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "seed": args.seed,
        "workload": args.workload,
        "jobs": rounds[-1][1],
        "documents_attempted": len(tally.seen),
        "rounds_generated": len(stream),
        "distinct_documents": sum(len(r) for r in stream),
        "stream_cycled": len(rounds) > len(stream),
        "single_thread_no_children": isolated,
        "host_speed": gauge.speed(),
    }
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record["failures"] = tally.grouped_failures()
    record["wrong"] = list(tally.wrong.values())
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)

    for group in record["failures"]:
        print(f"failed x{len(group['documents'])} [{group['kind']}] {group['family']}: {group['error']}",
              file=sys.stderr)
    for w in record["wrong"]:
        print(f"WRONG {w['family']}: {'; '.join(w['problems'])}", file=sys.stderr)
    if not isolated:
        print("the run started another thread or process", file=sys.stderr)
    print("env " + json.dumps(record["env"], sort_keys=True))
    print(json.dumps({
        "correct": not tally.wrong and isolated,
        "attempted": len(tally.seen),
        "failed": len(tally.failures),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
