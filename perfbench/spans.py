"""Spans at the module boundaries of singindex, recorded from outside.

``Tracer.install`` replaces selected public functions and methods with
wrappers that record a span (name, start, end, parent span, job id).  A
function is replaced where it is defined and in every singindex module
that imported it by name, so calls through ``from .grobner import
colength`` are seen too.  The program's files are not touched.

Hot helpers (monomial arithmetic, Polynomial methods) are not wrapped:
a span per call would cost more than the work it times.  Whatever is
not inside a wrapped call counts as self time of the nearest wrapped
caller, and the roots are ``run_job`` and ``Report.to_json``.
"""

from __future__ import annotations

import gzip
import sys
from time import perf_counter

# span name -> per-layer time metric that receives its self time
SPAN_METRIC = {
    "jobs.run_job": "jobs.dispatch_self_s",
    "jobs.validate": "jobs.validate_s",
    "jobs.Report.to_json": "jobs.serialize_s",
    "poly.parse_polynomial": "poly.parse_s",
    "poly.minors": "poly.minors_s",
    "poly.jacobian_matrix": "poly.minors_s",
    "poly.jacobian_det": "poly.minors_s",
    "grobner.standard_basis": "grobner.standard_basis_s",
    "grobner.staircase_monomials": "grobner.staircase_s",
    "grobner._staircase_count_below": "grobner.staircase_s",
    "grobner.quotient_algebra": "grobner.quotient_algebra_s",
    "grobner.QuotientAlgebra.coords": "grobner.coords_s",
    "smooth.elk_form": "smooth.elk_form_self_s",
    "smooth.invariant_dimension": "smooth.invariant_s",
    "smooth.invariant_signature": "smooth.invariant_s",
    "linalg.symmetric_signature": "linalg.signature_s",
    "linalg.rref": "linalg.rref_s",
    "icis.milnor_number": "icis.milnor_s",
    "burnside.PermutationGroup.__init__": "burnside.group_build_s",
    "burnside.PermutationGroup.from_elements": "burnside.group_build_s",
    "burnside.PermutationGroup.subgroups": "burnside.subgroups_s",
    "burnside.PermutationGroup.subgroup_classes": "burnside.classes_s",
    "burnside.PermutationGroup.table_of_marks": "burnside.marks_s",
}
for _name in ("burnside_mul", "r0", "restriction", "induction", "subgroup_as_group",
              "equivariant_euler", "equivariant_radial_index", "equivariant_ph_check",
              "equivariant_gsv_from_radial"):
    SPAN_METRIC[f"burnside.{_name}"] = "burnside.ring_ops_s"
for _name in ("mobius_inverse", "radial_from_eu", "eu_from_radial", "det_n", "det_m",
              "radial_from_phn", "phn_from_radial", "proportionality_check",
              "StratPoset.__init__", "SliceData.__init__"):
    SPAN_METRIC[f"strat.{_name}"] = "strat.s"

TIME_METRICS = sorted(set(SPAN_METRIC.values()))

# counters; each is reported per job
COUNT_METRICS = (
    "grobner.standard_basis_calls",
    "grobner.basis_size_sum",
    "grobner.coords_calls",
    "grobner.algebra_dim_sum",
    "icis.milnor_calls",
    "icis.colength_calls",
    "poly.parse_calls",
    "burnside.subgroups_found",
    "jobs.report_bytes",
    "jobs.exit_0",
    "jobs.exit_2",
    "jobs.exit_3",
    "jobs.exit_4",
    "jobs.raised",
    "strat.calls",
)

# span name -> counter incremented once per call
CALL_COUNTERS = {
    "grobner.standard_basis": "grobner.standard_basis_calls",
    "grobner.QuotientAlgebra.coords": "grobner.coords_calls",
    "icis.milnor_number": "icis.milnor_calls",
    "poly.parse_polynomial": "poly.parse_calls",
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job id]
        self.stack = []
        self.job_id = -1
        self.counts = dict.fromkeys(COUNT_METRICS, 0)

    # -- wrappers

    def _wrap(self, fn, name, after=None, before=None):
        spans, stack, counts = self.spans, self.stack, self.counts
        counter = CALL_COUNTERS.get(name)
        if name.startswith("strat."):
            counter = "strat.calls"

        def wrapper(*args, **kwargs):
            token = before(args) if before else None
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job_id]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if counter:
                counts[counter] += 1
            if after:
                after(args, result, token)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_only(self, fn, counter):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    @staticmethod
    def _rebind(original, replacement):
        """Replace `original` in every singindex module namespace."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "singindex" or modname.startswith("singindex.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)

    def install(self, si):
        """Wrap the boundaries of the imported package `si`."""
        counts = self.counts

        def add(key, n):
            counts[key] += n

        after = {
            "grobner.standard_basis": lambda a, r, t: add("grobner.basis_size_sum", len(r.elements)),
            "grobner.quotient_algebra": lambda a, r, t: add("grobner.algebra_dim_sum", r.dimension),
            "jobs.Report.to_json": lambda a, r, t: add("jobs.report_bytes", len(r.encode())),
            "jobs.run_job": lambda a, r, t: add(f"jobs.exit_{r[1]}", 1) if f"jobs.exit_{r[1]}" in counts else None,
            # the subgroup list is cached on the group; count it when computed
            "burnside.PermutationGroup.subgroups": lambda a, r, t: add("burnside.subgroups_found", len(r)) if t else None,
        }
        before = {
            "burnside.PermutationGroup.subgroups": lambda a: a[0]._subgroup_cache is None,
        }
        # colength calls made from the icis module, the slice chain's
        # among them: counted, not spanned
        icis = si.icis
        icis.colength = self._count_only(icis.colength, "icis.colength_calls")

        for name in SPAN_METRIC:
            modname, _, attr = name.partition(".")
            module = getattr(si, modname)
            if "." in attr:
                clsname, meth = attr.split(".")
                cls = getattr(module, clsname)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self._wrap(raw.__func__, name, after.get(name), before.get(name))))
                else:
                    setattr(cls, meth, self._wrap(raw, name, after.get(name), before.get(name)))
            else:
                original = getattr(module, attr)
                self._rebind(original, self._wrap(original, name, after.get(name), before.get(name)))

    # -- aggregation

    def self_times(self):
        """Self time per span: its duration minus its direct children's."""
        spans = self.spans
        self_time = [rec[2] - rec[1] for rec in spans]
        for rec in spans:
            parent = rec[3]
            if parent >= 0:
                self_time[parent] -= rec[2] - rec[1]
        return self_time

    def layer_totals(self):
        totals = dict.fromkeys(TIME_METRICS, 0.0)
        for rec, own in zip(self.spans, self.self_times()):
            totals[SPAN_METRIC[rec[0]]] += own
        return totals

    def write_spans(self, path):
        with gzip.open(path, "wt") as fh:
            fh.write("name\tstart\tend\tparent\tjob\n")
            for name, start, end, parent, job in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{job}\n")
