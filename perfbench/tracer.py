"""Outside-in span recorder for figplane, and the traced child process.

The recorder wraps public functions of the figplane modules from outside
the package: nothing in ``src/figplane`` changes.  Each span records its
name, start, end, parent span and the run id; spans stay in memory and
are written as JSONL when the run ends.

Run as a script, this file is the traced child of ``run.py``:

    python3 perfbench/tracer.py --out SPANS.jsonl --run-id ID -- verify --q 4 ...

It installs the wrappers, calls ``figplane.cli.main`` in-process under a
root span and exits with the CLI's exit code.
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import sys
import time
from collections import defaultdict

# (module, function), traced as span "module.function".  Scalar hot paths
# such as FieldContext.mul, canonical or point_type are deliberately absent:
# at q = 5 they run millions of times and a span each would swamp the trace.
FUNCTIONS = [
    ("field", "context_for_q"),
    ("plane", "lines_through_point"),
    ("collineation", "point_types_table"),
    ("collineation", "line_types_table"),
    ("collineation", "partition_orbits"),
    ("linear_sets", "plane_from_rep"),
    ("linear_sets", "t_plane"),
    ("maps", "vertex_census"),
    ("maps", "mu_fixed_planes"),
    ("maps", "phi_fixed_planes"),
    ("figueroa", "build_fig_plane"),
    ("figueroa", "pg_incidence"),
    ("figueroa", "check_axioms"),
    ("figueroa", "characterize_fig_points"),
    ("suites", "census_checks"),
    ("suites", "maps_checks"),
    ("suites", "figueroa_checks"),
]


# What a span keeps of its call, read from the arguments and the result:
# a key naming the object worked on (for useful ratios) or counts.
RECORD = {
    "plane.points_on": lambda args, result: {"key": list(args[1])},
    "linear_sets.t_plane": lambda args, result: {"key": args[1]},
    "maps.vertex_census": lambda args, result: {
        "key": hash(args[1].points),
        "vertices_scanned": sum(map(len, result.by_class.values())) + result.club + result.other},
    "collineation.partition_orbits": lambda args, result: {"classes": len(result)},
    "figueroa.check_axioms": lambda args, result: {
        "checked_pairs": result.checked_pairs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0},
    "report.render": lambda args, result: {"bytes": len(result.encode())},
}


class SpanRecorder:
    """In-memory spans with parent links; single-threaded by design."""

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, record=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"run": self.run_id, "id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = self.clock()
                self._stack.pop()
            if record is not None:
                span.update(record(args, result))
            return result
        return traced

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def instrument(rec: SpanRecorder) -> None:
    """Wrap figplane's layer functions wherever a module bound them.

    Methods are wrapped on their class, so every holder of the class sees
    them.  A function imported by name into another module (for example
    ``vertex_census`` into ``figplane.maps`` and the package, or
    ``point_types_table`` into ``figplane.suites``) is replaced in every
    figplane namespace that holds the original object.
    """
    import figplane.cli  # noqa: F401  imports every figplane module
    from figplane import plane, report

    plane.ProjectivePlane.__init__ = rec.wrap("plane.enumerate",
                                              plane.ProjectivePlane.__init__)
    plane.ProjectivePlane.points_on = rec.wrap("plane.points_on",
                                               plane.ProjectivePlane.points_on,
                                               RECORD["plane.points_on"])
    report.Report.render = rec.wrap("report.render", report.Report.render,
                                    RECORD["report.render"])

    namespaces = [m for name, m in sys.modules.items()
                  if m is not None and (name == "figplane" or name.startswith("figplane."))]
    for module, fname in FUNCTIONS:
        original = getattr(sys.modules[f"figplane.{module}"], fname)
        span = f"{module}.{fname}"
        wrapped = rec.wrap(span, original, RECORD.get(span))
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, attr, wrapped)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children.

    Spans nest strictly (one thread, no overlap), so the children's
    durations are exactly the part of the parent's interval they cover.
    """
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: (s["end"] - s["start"]) - covered[s["id"]] for s in spans}


def layer_seconds(spans: list[dict]) -> dict[str, float]:
    """Self time summed per layer, the module part of the span name."""
    selfs = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s["name"].split(".")[0]] += selfs[s["id"]]
    return dict(out)


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """The per-layer metrics of one traced run, keyed by metric name."""
    selfs = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    keys: dict[str, set] = defaultdict(set)
    for s in spans:
        self_s[s["name"]] += selfs[s["id"]]
        calls[s["name"]] += 1
        if "key" in s:
            keys[s["name"]].add(json.dumps(s["key"]))

    def useful(name):
        return len(keys[name]) / calls[name] if calls[name] else 0.0

    def summed(name, field):
        return sum(s[field] for s in spans if s["name"] == name)

    return {
        "field.context_for_q_s": self_s["field.context_for_q"],
        "plane.enumerate_s": self_s["plane.enumerate"],
        "plane.points_on_s": self_s["plane.points_on"],
        "plane.points_on_calls": calls["plane.points_on"],
        "plane.points_on_useful_ratio": useful("plane.points_on"),
        "plane.lines_through_point_s": self_s["plane.lines_through_point"],
        "plane.lines_through_point_calls": calls["plane.lines_through_point"],
        "collineation.point_types_table_s": self_s["collineation.point_types_table"],
        "collineation.line_types_table_s": self_s["collineation.line_types_table"],
        "collineation.partition_orbits_s": self_s["collineation.partition_orbits"],
        "collineation.classes": summed("collineation.partition_orbits", "classes"),
        "linear_sets.plane_from_rep_s": self_s["linear_sets.plane_from_rep"],
        "linear_sets.plane_from_rep_calls": calls["linear_sets.plane_from_rep"],
        "linear_sets.t_plane_calls": calls["linear_sets.t_plane"],
        "linear_sets.t_plane_useful_ratio": useful("linear_sets.t_plane"),
        "maps.vertex_census_s": self_s["maps.vertex_census"],
        "maps.vertex_census_calls": calls["maps.vertex_census"],
        "maps.vertex_census_useful_ratio": useful("maps.vertex_census"),
        "maps.vertices_scanned": summed("maps.vertex_census", "vertices_scanned"),
        "maps.mu_fixed_planes_s": self_s["maps.mu_fixed_planes"],
        "maps.phi_fixed_planes_s": self_s["maps.phi_fixed_planes"],
        "figueroa.build_fig_plane_s": self_s["figueroa.build_fig_plane"],
        "figueroa.pg_incidence_s": self_s["figueroa.pg_incidence"],
        "figueroa.check_axioms_s": self_s["figueroa.check_axioms"],
        "figueroa.check_axioms_calls": calls["figueroa.check_axioms"],
        "figueroa.checked_pairs": summed("figueroa.check_axioms", "checked_pairs"),
        "figueroa.check_axioms_peak_rss_mb": max(
            (s["peak_rss_mb"] for s in spans if s["name"] == "figueroa.check_axioms"),
            default=0.0),
        "figueroa.characterize_fig_points_s": self_s["figueroa.characterize_fig_points"],
        "suites.census_checks_self_s": self_s["suites.census_checks"],
        "suites.maps_checks_self_s": self_s["suites.maps_checks"],
        "suites.figueroa_checks_self_s": self_s["suites.figueroa_checks"],
        "report.render_s": self_s["report.render"],
        "report.bytes": summed("report.render", "bytes"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="run figplane's CLI in-process, traced")
    ap.add_argument("--out", required=True, help="JSONL file for the spans")
    ap.add_argument("--run-id", required=True)
    ap.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    rec = SpanRecorder(args.run_id)
    instrument(rec)
    from figplane import cli
    code = rec.wrap("cli.main", cli.main)(cli_args)
    sys.stdout.flush()
    rec.write_jsonl(args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
