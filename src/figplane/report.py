"""Machine-readable verification reports.

A report is a header (tool, field data, run configuration) plus one
entry per check.  Rendering is deterministic: with the same
configuration and seed two runs produce byte-identical output.  Timing
is therefore excluded unless explicitly requested.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

from . import __version__ as TOOL_VERSION

TOOL_NAME = "figplane"


@dataclass
class CheckEntry:
    id: str
    claim: str
    status: str                       # "pass" | "fail"
    counts: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)
    elapsed_ms: float | None = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def entry(id: str, claim: str, ok: bool, counts: dict | None = None,
          witnesses: list | None = None) -> CheckEntry:
    return CheckEntry(id, claim, "pass" if ok else "fail", counts or {}, witnesses or [])


@dataclass
class Report:
    header: dict
    entries: list[CheckEntry]
    elapsed_ms: dict[str, float] = field(default_factory=dict)   # stage -> ms of its build

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def exit_code(self) -> int:
        return 0 if self.passed else 1

    def to_json(self, timings: bool = False) -> str:
        checks = []
        for e in self.entries:
            d = {"id": e.id, "claim": e.claim, "status": e.status,
                 "counts": e.counts, "witnesses": e.witnesses}
            if timings:
                d["elapsed_ms"] = round(e.elapsed_ms, 3) if e.elapsed_ms is not None else None
            checks.append(d)
        doc = {"header": self.header, "checks": checks,
               "status": "pass" if self.passed else "fail"}
        if timings:
            doc["stages"] = [{"id": name, "elapsed_ms": round(ms, 3)}
                             for name, ms in self.elapsed_ms.items()]
        return json.dumps(doc, indent=2) + "\n"

    def to_csv(self) -> str:
        out = io.StringIO()
        rows = csv.writer(out, lineterminator="\n")
        rows.writerow(["check", "status", "detail"])
        for e in self.entries:
            rows.writerow([e.id, e.status, ";".join(f"{k}={v}" for k, v in e.counts.items())])
        return out.getvalue()

    def to_text(self, timings: bool = False) -> str:
        lines = [f"{TOOL_NAME} {TOOL_VERSION}  q={self.header.get('q')}"]
        if timings:
            lines.extend(f"STAGE {name}  [{ms:.0f} ms]" for name, ms in self.elapsed_ms.items())
        for e in self.entries:
            mark = "PASS" if e.passed else "FAIL"
            t = f"  [{e.elapsed_ms:.0f} ms]" if timings and e.elapsed_ms is not None else ""
            lines.append(f"{mark}  {e.id}: {e.claim}{t}")
            for key, val in e.counts.items():
                lines.append(f"      {key} = {val}")
            for w in e.witnesses:
                lines.append(f"      witness: {w}")
        lines.append("overall: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines) + "\n"

    def render(self, fmt: str, timings: bool = False) -> str:
        if fmt == "json":
            return self.to_json(timings)
        if fmt == "csv":
            return self.to_csv()
        return self.to_text(timings)
