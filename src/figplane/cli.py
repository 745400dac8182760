"""Command line front end.

Subcommands
-----------
verify    run whole suites (census, maps, figueroa, or all)
census    orbit partition census; csv format emits the category table
maps      one group of map checks, named by --check
figueroa  one group of block checks, named by --check
sls       print the points of one side linear set
tplane    print the points of one side subplane

verify, census, maps and figueroa write reports, all through one
runner.  What runs at an order q is read from the check table in
figplane.suites: each check carries the gates on q it needs, and a
requested suite or --check group none of whose checks runs at q is
refused with the reason of the gate that fails.  The default selection,
verify --suite all, shows FIG(q^3) a plane from table premises and the
rows at one point of each orbit of a group that preserves it (mode
equivariant), and leaves out the checks that pass over every FIG row,
their exhaustive controls: naming --suite figueroa or --check axioms
runs them.  No check samples; --seed is only recorded in the report
header.

Exit codes: 0 all checks pass, 1 a check failed, 2 a refused command
(q not a prime power, a failing gate, bulk tables estimated larger than
the host's physical memory, counting the torus and Dickson tables when
a selected check reads them and the FIG row lookup tables when one
passes over every FIG row or --emit-plane is set, an --emit-plane file
that cannot be written, a --theta out of range; all refused before any
check runs, and all from q alone, before the field tower is built)
or a geometry or kernel error during a run, reported as one
"figplane: ..." line.  Output is byte-identical across runs with the
same configuration; pass --timings to include (nondeterministic) timings
of each check and, apart, of each shared stage built for them, once and
before them, such as the premises of the FIG checks or the one FIG row
pass of the named row checks.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import figueroa as fg
from . import linear_sets as ls
from .arrays import KernelError
from .collineation import CATEGORIES, CATEGORY_TYPES, TYPE_NAMES
from .field import FieldError, context_for_q, order_of, table_bytes
from .plane import GeometryError, ProjectivePlane, format_point
from .report import Report, TOOL_NAME, TOOL_VERSION
from .suites import (SUITES, Session, census_checks, check_groups, figueroa_checks,
                     maps_checks, refusal, selected)

USAGE_ERROR = 2


def _add_common(p: argparse.ArgumentParser, report: bool = True):
    """--q, and the options of a command that writes a report."""
    p.add_argument("--q", type=int, required=True,
                   help="order of the middle field; a prime power")
    if report:
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")
        p.add_argument("--seed", type=int, default=0,
                       help="recorded in the report header; no check samples")
        p.add_argument("--timings", action="store_true",
                       help="include per-check and per-stage timings (breaks byte determinism)")


class _Groups:
    """The ``--check`` groups of a suite, read from its check table only
    when argparse tests a value against them or lists them, so building
    the parser imports no check module.  ``add_argument`` lists its
    ``choices`` to format the usage, so the groups are set on the action
    it returns."""

    def __init__(self, suite: str):
        self.suite = suite

    def __iter__(self):
        return iter(check_groups(self.suite))


def build_parser() -> argparse.ArgumentParser:
    """The parser of the figplane command, described by this module's
    docstring; it imports no check module (``_Groups``)."""
    ap = argparse.ArgumentParser(prog=TOOL_NAME, description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run verification suites")
    _add_common(p)
    p.add_argument("--suite", choices=SUITES + ("all",), default="all")
    p.add_argument("--emit-plane", metavar="FILE",
                   help="write the block structure as point index rows")

    p = sub.add_parser("census", help="orbit partition census")
    _add_common(p)

    p = sub.add_parser("maps", help="checks for the involution, projection and splash")
    _add_common(p)
    p.add_argument("--check", required=True).choices = _Groups("maps")

    p = sub.add_parser("figueroa", help="block construction and structure checks")
    _add_common(p)
    p.add_argument("--check", required=True).choices = _Groups("figueroa")
    p.add_argument("--emit-plane", metavar="FILE")

    p = sub.add_parser("sls", help="print one side linear set")
    _add_common(p, report=False)
    p.add_argument("--theta", type=int, required=True,
                   help="norm class index, 0 .. q-2")
    p.add_argument("--side", type=int, choices=(0, 1, 2), default=0)

    p = sub.add_parser("tplane", help="print one side subplane")
    _add_common(p, report=False)
    p.add_argument("--theta", type=int, required=True)
    return ap


class UsageError(Exception):
    """A refused command line: exit 2 with one line saying why."""


def _require_writable(path: str):
    """Refuse an --emit-plane target that cannot be written, before any work."""
    folder = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        problem = "it is a directory"
    elif os.path.exists(path) and not os.access(path, os.W_OK):
        problem = "it is not writable"
    elif not os.path.isdir(folder):
        problem = f"directory {folder} does not exist"
    elif not os.access(folder, os.W_OK):
        problem = f"directory {folder} is not writable"
    else:
        return
    raise UsageError(f"cannot write --emit-plane file {path}: {problem}")


def physical_memory() -> int:
    """Bytes of physical memory of the host."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _header(ctx, args, extra: dict) -> dict:
    header = {
        "tool": TOOL_NAME,
        "version": TOOL_VERSION,
        "q": ctx.q,
        "field": ctx.describe(),
        "config": {
            "command": args.command,
            "format": args.format,
            "seed": args.seed,
            **extra,
        },
    }
    if not fg.FIGUEROA.holds(ctx):
        header["warnings"] = [
            f"q = {ctx.q} < 3: Figueroa construction is unavailable at this order"]
    return header


def _census_csv(sess: Session) -> str:
    cen = sess.census
    size = sess.ctx.sub_order
    lines = ["category,count,orbit_size,point_type,line_type"]
    for cat, (pt, lt) in CATEGORY_TYPES.items():
        orbit_size = 1 if cat == "vertex" else size
        lines.append(f"{cat},{cen.orbit_counts[cat]},{orbit_size},"
                     f"{TYPE_NAMES[pt]},{TYPE_NAMES.get(lt, '')}")
    return "\n".join(lines) + "\n"


def run_report(args) -> int:
    """verify, census, maps and figueroa: select the checks, refuse a
    selection where none runs at q, run them in one Session and report."""
    order = order_of(args.q)    # the guards read q alone: no field is built before them
    suite = args.suite if args.command == "verify" else args.command
    group = getattr(args, "check", None)
    emit = getattr(args, "emit_plane", None)
    suites = SUITES if suite == "all" else (suite,)
    by_default = suite == "all"   # the default selection; naming runs the row checks too
    if suite != "all" and (reason := refusal(order, suite, group)):
        raise UsageError(reason)
    if emit:    # the file is the FIG that the figueroa suite streams
        if reason := refusal(order, "figueroa"):
            raise UsageError(reason)
        _require_writable(emit)
    picked = [c for name in suites for c in selected(order, name, group, by_default)]
    fig = any(c.readers or "equivariance" in c.reads for c in picked)
    rows = bool(emit) or any(c.readers for c in picked)
    need, have = table_bytes(order.q, fig, rows), physical_memory()
    if need > have:     # fail fast, not out of memory part-way
        raise UsageError(f"q = {order.q} needs about {need / 1e9:.3g} GB for its tables, "
                         f"more than the {have / 1e9:.3g} GB of physical memory")
    ctx = context_for_q(args.q)
    sess = Session(ctx)
    entries = []
    for name in suites:
        # looked up when called, so a rebound suite function is the one run
        checks = {"census": census_checks, "maps": maps_checks,
                  "figueroa": figueroa_checks}[name]
        entries.extend(checks(sess, group) if group else checks(sess, by_default=by_default))
    header = _header(ctx, args, {"check": group} if group else {"suite": suite})
    report = Report(header, entries, sess.elapsed_ms)
    if args.command == "census" and args.format == "csv":
        sys.stdout.write(_census_csv(sess))
        return report.exit_code()
    if args.command == "census" and args.format == "json":
        report.header["summary"] = {cat: sess.census.orbit_counts[cat]
                                    for cat in CATEGORIES}
    if emit:
        fg.emit_plane(sess.fig_structure, emit)
    sys.stdout.write(report.render(args.format, timings=args.timings))
    return report.exit_code()


def print_points(args) -> int:
    """sls and tplane: the points of one side linear set or subplane."""
    q = order_of(args.q).q      # refused from q alone, before the field tower is built
    if not 0 <= args.theta <= q - 2:
        raise UsageError(f"--theta must be a norm class index 0 .. {q - 2}")
    ctx = context_for_q(args.q)
    theta = ctx.norm_class_rep(args.theta)
    row = (ls.sls_points(ctx, theta, args.side) if args.command == "sls"
           else ls.t_plane(ctx, theta).points)
    for P in sorted(map(ProjectivePlane(ctx).point, row)):
        print(format_point(P))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return (print_points if args.command in ("sls", "tplane") else run_report)(args)
    except (UsageError, FieldError, GeometryError, KernelError) as exc:
        print(f"{TOOL_NAME}: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
