"""Self-tests of the benchmark: output check, self-time arithmetic, tracer.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import EXPECTED, WORKLOADS, Tally, check_report  # noqa: E402
from tracer import SpanRecorder, layer_metrics, self_times  # noqa: E402


def _report(workload: str) -> dict:
    """A passing report carrying the workload's stored invariant entries."""
    checks = [{"id": cid, "claim": "", "status": "pass", "counts": dict(counts),
               "witnesses": []} for cid, counts in EXPECTED[workload].items()]
    checks.append({"id": "fig.axioms", "claim": "", "status": "pass",
                   "counts": {"mode": "full", "checked_pairs": 1}, "witnesses": []})
    return {"header": {"q": WORKLOADS[workload][0]}, "checks": checks, "status": "pass"}


def test_check_accepts_passing_report():
    assert check_report("all-q4", 0, json.dumps(_report("all-q4"))) == []


def test_check_ignores_sampled_fields():
    doc = _report("all-q4")
    doc["checks"][-1]["counts"] = {"mode": "sampled", "checked_pairs": 2_000_000}
    assert check_report("all-q4", 0, json.dumps(doc)) == []


def test_flipped_entry_and_wrong_count_both_fail():
    flipped = _report("all-q4")
    flipped["checks"][0]["status"] = "fail"
    wrong = _report("all-q4")
    cats = next(e for e in wrong["checks"] if e["id"] == "census.categories")
    cats["counts"]["plane_III_III"] += 1
    tally = Tally("all-q4")
    outcomes = [tally.record(0, json.dumps(d)) for d in (_report("all-q4"), flipped, wrong)]
    assert outcomes == [True, False, False]
    assert (tally.failed, tally.attempted) == (2, 3)


@pytest.mark.parametrize("code,text", [(1, None), (0, "not json"), (0, "[]"),
                                       (0, '{"header": {"q": 4}}')])
def test_exit_code_and_malformed_reports_fail(code, text):
    text = json.dumps(_report("all-q4")) if text is None else text
    assert check_report("all-q4", code, text)


def test_missing_invariant_entry_fails():
    doc = _report("maps-q7")
    doc["checks"] = [e for e in doc["checks"] if e["id"] != "vertices.census"]
    assert check_report("maps-q7", 0, json.dumps(doc)) == ["vertices.census: missing"]


def _closed_forms(q: int) -> dict:
    n = q ** 6 + q ** 3 + 1
    s = q * q + q + 1
    type2 = (q ** 3 - q) * s
    types = {"I": s, "II": type2, "III": n - s - type2}
    cats = {"vertex": 3, "sls_II": 3, "sls_III": 3 * (q - 2), "plane_I_I": 1,
            "plane_II_III": q ** 3 - q - 3, "plane_III_II": q ** 3 - q - 3,
            "plane_III_III": q ** 4 - 3 * q ** 3 + q + 6}
    cats["total_orbits"] = sum(cats.values())
    # projection vertices of the fixed subplane per norm class: one class
    # holds 1 (even q) or s + 1 and another 0 (odd q); every other class s
    classes = sorted([1] + [s] * (q - 2) if q % 2 == 0 else [0, s + 1] + [s] * (q - 3))
    vertices = q ** 3 - q ** 2 - q - 1
    fixed = math.gcd(3, q - 1)   # collineation-fixed subplanes; two of them also involution-fixed
    return {"census.categories": cats, "census.point-types": types,
            "census.line-types": types,
            "fixed.collineation": {"found": fixed, "expected": fixed},
            "fixed.involution": {"found": fixed - 1, "expected": fixed - 1},
            "vertices.census": {"total": vertices, "expected_total": vertices,
                                "classes": classes},
            "fig.build": {"blocks": n, "line_I": s, "line_II": type2,
                          "fig": n - s - type2},
            "fig.characterization": {"vertices": vertices, "expected": vertices}}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_stored_invariants_are_the_closed_forms(workload):
    want = _closed_forms(WORKLOADS[workload][0])
    for cid, counts in EXPECTED[workload].items():
        counts = dict(counts)
        if cid == "vertices.census":
            counts["classes"] = sorted(v for k, v in counts.items() if k.startswith("class_"))
        for key, value in want[cid].items():
            assert counts[key] == value, (cid, key)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_times_on_nested_calls():
    clock = FakeClock()
    rec = SpanRecorder("synthetic", clock)

    def work(dt):
        clock.now += dt

    grandchild = rec.wrap("grandchild", lambda: work(1.0))

    def child_body():
        work(2.0)
        grandchild()
        work(0.5)

    child = rec.wrap("child", child_body)

    def parent_body():
        work(3.0)
        for _ in range(3):
            child()
        work(0.25)

    rec.wrap("parent", parent_body)()
    selfs = self_times(rec.spans)
    by_name = {}
    for s in rec.spans:
        by_name.setdefault(s["name"], []).append(selfs[s["id"]])
    assert by_name == {"parent": [3.25], "child": [2.5] * 3, "grandchild": [1.0] * 3}
    root = next(s for s in rec.spans if s["parent"] is None)
    assert sum(selfs.values()) == root["end"] - root["start"] == 13.75
    for s in rec.spans:
        kids = [k for k in rec.spans if k["parent"] == s["id"]]
        assert selfs[s["id"]] == (s["end"] - s["start"]) - sum(k["end"] - k["start"] for k in kids)
    assert {s["run"] for s in rec.spans} == {"synthetic"}


def test_self_times_sum_to_root_with_real_clock():
    rec = SpanRecorder("real")
    leaf = rec.wrap("leaf", lambda n: sum(range(n)))
    mid = rec.wrap("mid", lambda: [leaf(20_000) for _ in range(4)])
    rec.wrap("root", lambda: (mid(), leaf(50_000), mid()))()
    selfs = self_times(rec.spans)
    root = rec.spans[0]
    assert all(v >= 0 for v in selfs.values())
    assert sum(selfs.values()) == pytest.approx(root["end"] - root["start"], abs=1e-9)


def test_useful_ratio_counts_distinct_keys():
    spans = [{"id": i, "parent": None, "name": "plane.points_on", "start": i, "end": i + 1,
              "key": key} for i, key in enumerate([[1, 0, 0], [1, 0, 0], [0, 1, 0]])]
    m = layer_metrics(spans)
    assert m["plane.points_on_calls"] == 3
    assert m["plane.points_on_useful_ratio"] == pytest.approx(2 / 3)
    assert m["plane.points_on_s"] == 3
    assert m["maps.vertex_census_useful_ratio"] == 0.0


def test_traced_cli_run_records_every_layer(tmp_path):
    """A traced q = 3 run: wrappers reach names bound in other modules."""
    out = tmp_path / "spans.jsonl"
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    proc = subprocess.run(
        [sys.executable, str(HERE / "tracer.py"), "--out", str(out), "--run-id", "t",
         "--", "verify", "--q", "3", "--suite", "all", "--format", "json"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    spans = [json.loads(line) for line in out.read_text().splitlines()]
    calls = {}
    for s in spans:
        calls[s["name"]] = calls.get(s["name"], 0) + 1
    for name in ("field.context_for_q", "plane.enumerate", "plane.points_on",
                 "plane.lines_through_point", "collineation.point_types_table",
                 "collineation.line_types_table", "collineation.partition_orbits",
                 "linear_sets.plane_from_rep", "linear_sets.t_plane", "maps.mu_fixed_planes",
                 "maps.phi_fixed_planes", "figueroa.build_fig_plane", "figueroa.pg_incidence",
                 "figueroa.check_axioms", "figueroa.characterize_fig_points",
                 "suites.census_checks", "suites.maps_checks", "suites.figueroa_checks",
                 "report.render"):
        assert calls.get(name, 0) >= 1, name
    # bound in figplane.maps and looked up again from figplane.figueroa
    assert calls["maps.vertex_census"] == 2
    assert [s["name"] for s in spans if s["parent"] is None] == ["cli.main"]
    m = layer_metrics(spans)
    assert m["report.bytes"] == len(proc.stdout.encode())
    assert m["collineation.classes"] == _closed_forms(3)["census.categories"]["total_orbits"]
    assert m["maps.vertex_census_useful_ratio"] == 0.5
