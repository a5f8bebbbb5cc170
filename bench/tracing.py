"""Span tracing of bpcentre's public functions, from outside the package.

Run as a child process in place of ``python -m bpcentre``::

    python3 bench/tracing.py SPANS_OUT eta-table --p 3 --max-weight 8 ...

It imports the package, wraps every traced function at every name that is
bound to it (``from .x import y`` copies a name into each importing module,
so patching the defining module alone would miss calls), runs
``cli_report.main(argv)`` and, at exit, writes the recorded spans and size
counts as JSON to SPANS_OUT.  The exit code is the command's own.

The parent process turns span files into per-layer metrics with
:func:`layer_metrics`.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time

# Traced callables by module, as dotted attribute paths within the module
# that defines them.  Each becomes the metric prefix ``<module>.<path>``.
TRACED = {
    "bp_hopf": (
        "EtaRTable.populate", "EtaRTable.eta", "EtaRTable.save", "EtaRTable.load",
        "EtaRTable.fingerprint", "GradedPoly.__mul__", "hazewinkel_m",
        "substitute_m", "check_integrality",
    ),
    "op_calculus": (
        "mu_matrix", "elementary_realize", "functional_matrix", "action_matrix",
    ),
    "truncation_centre": (
        "block_split", "projected_elementary", "centre_commutant",
        "diagonal_window_lattice",
    ),
    "dvr_arith": (
        "integral_kernel", "commutant", "echelon_lattice", "lattice_membership",
    ),
    "ktheory_lattice": ("sg_window", "compare_with_diagonal_window", "sg_membership"),
    "monomial_order": ("enumerate_weight",),
    "cli_report": (
        "main", "load_or_build_table", "suite_etaR", "suite_triangular",
        "suite_realize", "suite_centre", "suite_congruence", "lattice_report",
        "render_report",
    ),
}

# Per-layer metrics reported by the benchmark: span statistics
# (``calls``, ``total_s``, ``self_s``) and size counts recorded by the
# wrappers (``bytes``, ``rows``, ``cols``, ``terms``).
LAYER_METRICS = (
    "bp_hopf.EtaRTable.populate.total_s",
    "bp_hopf.EtaRTable.eta.calls",
    "bp_hopf.EtaRTable.eta.self_s",
    "bp_hopf.GradedPoly.__mul__.calls",
    "bp_hopf.GradedPoly.__mul__.self_s",
    "bp_hopf.hazewinkel_m.calls",
    "bp_hopf.hazewinkel_m.total_s",
    "bp_hopf.substitute_m.calls",
    "bp_hopf.substitute_m.total_s",
    "bp_hopf.check_integrality.calls",
    "bp_hopf.check_integrality.total_s",
    "bp_hopf.EtaRTable.save.total_s",
    "bp_hopf.EtaRTable.save.bytes",
    "bp_hopf.EtaRTable.load.total_s",
    "bp_hopf.EtaRTable.load.bytes",
    "bp_hopf.EtaRTable.fingerprint.calls",
    "bp_hopf.EtaRTable.fingerprint.total_s",
    "bp_hopf.table.terms",
    "op_calculus.mu_matrix.calls",
    "op_calculus.mu_matrix.total_s",
    "op_calculus.elementary_realize.calls",
    "op_calculus.elementary_realize.total_s",
    "op_calculus.functional_matrix.calls",
    "op_calculus.functional_matrix.total_s",
    "op_calculus.action_matrix.calls",
    "op_calculus.action_matrix.total_s",
    "truncation_centre.block_split.calls",
    "truncation_centre.projected_elementary.calls",
    "truncation_centre.projected_elementary.self_s",
    "truncation_centre.centre_commutant.calls",
    "truncation_centre.centre_commutant.self_s",
    "truncation_centre.centre_commutant.total_s",
    "truncation_centre.diagonal_window_lattice.calls",
    "truncation_centre.diagonal_window_lattice.self_s",
    "truncation_centre.diagonal_window_lattice.total_s",
    "dvr_arith.integral_kernel.calls",
    "dvr_arith.integral_kernel.total_s",
    "dvr_arith.integral_kernel.rows",
    "dvr_arith.integral_kernel.cols",
    "dvr_arith.commutant.calls",
    "dvr_arith.commutant.self_s",
    "dvr_arith.echelon_lattice.calls",
    "dvr_arith.echelon_lattice.total_s",
    "dvr_arith.lattice_membership.calls",
    "dvr_arith.lattice_membership.total_s",
    "ktheory_lattice.sg_window.calls",
    "ktheory_lattice.sg_window.self_s",
    "ktheory_lattice.compare_with_diagonal_window.calls",
    "ktheory_lattice.compare_with_diagonal_window.total_s",
    "ktheory_lattice.sg_membership.calls",
    "monomial_order.enumerate_weight.calls",
    "monomial_order.enumerate_weight.total_s",
    "cli_report.main.total_s",
    "cli_report.load_or_build_table.total_s",
    "cli_report.suite_etaR.total_s",
    "cli_report.suite_triangular.total_s",
    "cli_report.suite_realize.total_s",
    "cli_report.suite_centre.total_s",
    "cli_report.suite_congruence.total_s",
    "cli_report.lattice_report.total_s",
    "cli_report.render_report.total_s",
)


def metric_unit(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    return {"total_s": "s", "self_s": "s", "bytes": "bytes",
            "overhead_ratio": "ratio"}.get(stat, "count")


# ---------------------------------------------------------------------------
# recording (child side)
# ---------------------------------------------------------------------------

class Recorder:
    """Spans as parallel lists: name index, start, end, parent (-1 at top)."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self.sizes: dict[str, int] = {}
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def add_size(self, name: str, amount: int) -> None:
        self.sizes[name] = self.sizes.get(name, 0) + amount

    def wrap(self, fn, name: str, after=None):
        """A wrapper recording one span per call; ``after(args, result)``
        may record size counts once the call returns."""
        nid = self.name_id(name)
        clock = time.perf_counter
        stack, names = self._stack, self.span_name
        starts, ends, parents = self.span_start, self.span_end, self.span_parent

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def dump(self) -> dict:
        return {
            "names": self.names,
            "spans": [list(s) for s in zip(self.span_name, self.span_start,
                                           self.span_end, self.span_parent)],
            "sizes": self.sizes,
        }


def _table_terms(table) -> int:
    return sum(len(poly.terms) for poly in table._cache.values())


def install(recorder: Recorder) -> None:
    """Wrap every traced callable at every bpcentre name bound to it."""
    modules = {name: importlib.import_module(f"bpcentre.{name}") for name in TRACED}
    package = importlib.import_module("bpcentre")
    sites = list(modules.values()) + [package]

    afters = {
        "bp_hopf.EtaRTable.save":
            lambda args, _r: recorder.add_size("bp_hopf.EtaRTable.save.bytes",
                                               os.path.getsize(args[-1])),
        "bp_hopf.EtaRTable.load":
            lambda args, _r: recorder.add_size("bp_hopf.EtaRTable.load.bytes",
                                               os.path.getsize(args[-1])),
        "dvr_arith.integral_kernel":
            lambda args, _r: (recorder.add_size("dvr_arith.integral_kernel.rows",
                                                len(args[0])),
                              recorder.add_size("dvr_arith.integral_kernel.cols",
                                                args[1])),
        "cli_report.load_or_build_table":
            lambda _a, result: recorder.add_size("bp_hopf.table.terms",
                                                 _table_terms(result[0])),
    }

    for mod_name, paths in TRACED.items():
        module = modules[mod_name]
        for path in paths:
            name = f"{mod_name}.{path}"
            after = afters.get(name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(recorder.wrap(raw.__func__, name, after))
                else:
                    wrapped = recorder.wrap(raw, name, after)
                # Aliases such as ``__rmul__ = __mul__`` share the function.
                for key, value in list(cls.__dict__.items()):
                    if value is raw:
                        setattr(cls, key, wrapped)
                continue
            original = getattr(module, path)
            wrapped = recorder.wrap(original, name, after)
            for site in sites:
                for key, value in list(vars(site).items()):
                    if value is original:
                        setattr(site, key, wrapped)


# ---------------------------------------------------------------------------
# aggregation (parent side)
# ---------------------------------------------------------------------------

def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def span_stats(names, spans) -> dict[str, dict[str, float]]:
    """calls, total_s and self_s per span name.

    ``spans`` holds (name index, start, end, parent index) with parents
    listed before their children.  Self time is a span's duration minus the
    time its child spans cover.  Total time counts only spans with no
    ancestor of the same name, so recursion is not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for nid, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    stats: dict[str, dict[str, float]] = {}
    for idx, (nid, start, end, parent) in enumerate(spans):
        name = names[nid]
        entry = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        duration = end - start
        entry["calls"] += 1
        entry["self_s"] += duration - _covered(children.get(idx, ()))
        anc = parent
        while anc >= 0 and names[spans[anc][0]] != name:
            anc = spans[anc][3]
        if anc < 0:
            entry["total_s"] += duration
    return stats


def layer_metrics(dumps) -> dict[str, float]:
    """Every metric of LAYER_METRICS summed over the given span files."""
    totals = {name: 0.0 for name in LAYER_METRICS}
    for dump in dumps:
        for name, entry in span_stats(dump["names"], dump["spans"]).items():
            for stat, value in entry.items():
                key = f"{name}.{stat}"
                if key in totals:
                    totals[key] += value
        for key, value in dump["sizes"].items():
            if key in totals:
                totals[key] += value
    return totals


def main(argv) -> int:
    out_path, cli_argv = argv[0], argv[1:]
    recorder = Recorder()
    install(recorder)
    cli_report = sys.modules["bpcentre.cli_report"]
    try:
        code = cli_report.main(cli_argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(recorder.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
