"""Command line front end.

Subcommands
-----------
verify    run whole suites (census, maps, figueroa, or all)
census    orbit partition census; csv format emits the category table
maps      one group of map checks, named by --check
figueroa  one group of block checks, named by --check
sls       print the points of one side linear set
tplane    print the points of one side subplane

The --check groups come from the check table in figplane.suites.  Every
check is exhaustive; --seed is only recorded in the report header.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage or configuration
error, or a geometry or kernel error during a run.  Output is
byte-identical across runs with the same configuration; pass --timings
to include (nondeterministic) per-check timings.
"""

from __future__ import annotations

import argparse
import sys

from . import figueroa as fg
from . import linear_sets as ls
from .arrays import KernelError
from .collineation import CATEGORIES, CATEGORY_TYPES, TYPE_NAMES
from .field import FieldError, context_for_q
from .plane import GeometryError, format_point
from .report import Report, TOOL_NAME, TOOL_VERSION
from .suites import (Session, census_checks, check_groups, figueroa_checks,
                     maps_checks)

USAGE_ERROR = 2

def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--q", type=int, required=True,
                   help="order of the middle field; a prime power")
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p.add_argument("--seed", type=int, default=0,
                   help="recorded in the report header; no check samples")
    p.add_argument("--timings", action="store_true",
                   help="include per-check timings (breaks byte determinism)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog=TOOL_NAME, description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run verification suites")
    _add_common(p)
    p.add_argument("--suite", choices=("census", "maps", "figueroa", "all"),
                   default="all")
    p.add_argument("--emit-plane", metavar="FILE",
                   help="write the block structure as point index rows")

    p = sub.add_parser("census", help="orbit partition census")
    _add_common(p)

    p = sub.add_parser("maps", help="checks for the involution, projection and splash")
    _add_common(p)
    p.add_argument("--check", choices=check_groups("maps"), required=True)

    p = sub.add_parser("figueroa", help="block construction and structure checks")
    _add_common(p)
    p.add_argument("--check", choices=check_groups("figueroa"), required=True)
    p.add_argument("--emit-plane", metavar="FILE")

    p = sub.add_parser("sls", help="print one side linear set")
    _add_common(p)
    p.add_argument("--theta", type=int, required=True,
                   help="norm class index, 0 .. q-2")
    p.add_argument("--side", type=int, choices=(0, 1, 2), default=0)

    p = sub.add_parser("tplane", help="print one side subplane")
    _add_common(p)
    p.add_argument("--theta", type=int, required=True)
    return ap


def _context(args):
    try:
        ctx = context_for_q(args.q)
    except FieldError as exc:
        print(f"{TOOL_NAME}: {exc}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)
    return ctx


def _require_figueroa(ctx):
    if not ctx.figueroa_ok:
        print(f"{TOOL_NAME}: the Figueroa construction needs q a prime power, q > 2 "
              f"(got q = {ctx.q})", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _require_writable(path: str | None):
    """Refuse an --emit-plane target that cannot be written, before any work."""
    import os
    if path is None:
        return
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
    print(f"{TOOL_NAME}: cannot write --emit-plane file {path}: {problem}",
          file=sys.stderr)
    raise SystemExit(USAGE_ERROR)


def _header(ctx, args, extra: dict | None = None) -> dict:
    header = {
        "tool": TOOL_NAME,
        "version": TOOL_VERSION,
        "q": ctx.q,
        "field": ctx.describe(),
        "config": {
            "command": args.command,
            "format": args.format,
            "seed": args.seed,
        },
    }
    if extra:
        header["config"].update(extra)
    if ctx.warnings:
        header["warnings"] = list(ctx.warnings)
    return header


def _emit(report: Report, args) -> int:
    sys.stdout.write(report.render(args.format, timings=args.timings))
    return report.exit_code()


def cmd_verify(args) -> int:
    ctx = _context(args)
    suite = args.suite
    if suite == "figueroa" or args.emit_plane:
        _require_figueroa(ctx)
    _require_writable(args.emit_plane)
    sess = Session(ctx)
    entries = []
    note = None
    run_maps = suite in ("maps", "all")
    run_fig = suite in ("figueroa", "all")
    if suite == "all" and ctx.q >= 9:
        run_maps = run_fig = False   # desk-scale default; request suites explicitly
        note = "maps and figueroa suites skipped by default at q >= 9"
    if suite in ("census", "all"):
        entries.extend(census_checks(sess))
    if run_maps:
        entries.extend(maps_checks(sess))
    if run_fig and ctx.figueroa_ok:
        entries.extend(figueroa_checks(sess))
    header = _header(ctx, args, {"suite": suite})
    if note:
        header["note"] = note
    report = Report(header, entries)
    if args.emit_plane:
        fg.emit_plane(sess.fig_structure, args.emit_plane)
    return _emit(report, args)


def _census_csv(sess: Session) -> str:
    cen = sess.census
    size = sess.ctx.sub_order
    lines = ["category,count,orbit_size,point_type,line_type"]
    for cat, (pt, lt) in CATEGORY_TYPES.items():
        orbit_size = 1 if cat == "vertex" else size
        lines.append(f"{cat},{cen.orbit_counts[cat]},{orbit_size},"
                     f"{TYPE_NAMES[pt]},{TYPE_NAMES.get(lt, '')}")
    return "\n".join(lines) + "\n"


def cmd_census(args) -> int:
    ctx = _context(args)
    sess = Session(ctx)
    entries = census_checks(sess)
    report = Report(_header(ctx, args, {"suite": "census"}), entries)
    if args.format == "csv":
        sys.stdout.write(_census_csv(sess))
        return report.exit_code()
    if args.format == "json":
        report.header["summary"] = {cat: sess.census.orbit_counts[cat]
                                    for cat in CATEGORIES}
    return _emit(report, args)


def cmd_maps(args) -> int:
    ctx = _context(args)
    sess = Session(ctx)
    entries = maps_checks(sess, which=args.check)
    report = Report(_header(ctx, args, {"check": args.check}), entries)
    return _emit(report, args)


def cmd_figueroa(args) -> int:
    ctx = _context(args)
    _require_figueroa(ctx)
    if args.check == "even-structure" and ctx.q % 2:
        print(f"{TOOL_NAME}: the even-order structure check needs q even "
              f"(got q = {ctx.q})", file=sys.stderr)
        return USAGE_ERROR
    _require_writable(args.emit_plane)
    sess = Session(ctx)
    entries = figueroa_checks(sess, which=args.check)
    report = Report(_header(ctx, args, {"check": args.check}), entries)
    if args.emit_plane:
        fg.emit_plane(sess.fig_structure, args.emit_plane)
    return _emit(report, args)


def _print_points(points) -> None:
    for P in sorted(points):
        print(format_point(P))


def cmd_sls(args) -> int:
    ctx = _context(args)
    if not 0 <= args.theta <= ctx.q - 2:
        print(f"{TOOL_NAME}: --theta must be a norm class index 0 .. {ctx.q - 2}",
              file=sys.stderr)
        return USAGE_ERROR
    _print_points(ls.sls_points(ctx, ctx.norm_class_rep(args.theta), args.side))
    return 0


def cmd_tplane(args) -> int:
    ctx = _context(args)
    if not 0 <= args.theta <= ctx.q - 2:
        print(f"{TOOL_NAME}: --theta must be a norm class index 0 .. {ctx.q - 2}",
              file=sys.stderr)
        return USAGE_ERROR
    _print_points(ls.t_plane(ctx, ctx.norm_class_rep(args.theta)).points)
    return 0


COMMANDS = {
    "verify": cmd_verify,
    "census": cmd_census,
    "maps": cmd_maps,
    "figueroa": cmd_figueroa,
    "sls": cmd_sls,
    "tplane": cmd_tplane,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (FieldError, GeometryError, KernelError) as exc:
        print(f"{TOOL_NAME}: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
