"""The census suite: the orbit partition of the triangle stabilizer, its
category and type counts, and the collineation's action on it.

Importing this module registers its checks in the check table of
:mod:`figplane.suites`, in report order.
"""

from __future__ import annotations

import itertools
from functools import partial

import numpy as np

from .arrays import chunks
from .collineation import (TYPE_NAMES, CATEGORIES, VERTEX, expected_type_counts,
                           line_types_table, point_types_table, tally_types)
from .plane import format_point
from .report import CheckEntry, entry
from .suites import Session, check


@check("census", reads=("census",))
def categories(sess: Session) -> CheckEntry:
    cen = sess.census
    ok = cen.matches_expected() and cen.total_points == sess.plane.size
    want = cen.expected()
    witnesses = [f"category {cat}: {cen.orbit_counts[cat]} classes, expected {want[cat]}"
                 for cat in CATEGORIES if cen.orbit_counts[cat] != want[cat]]
    counts = dict(cen.orbit_counts)
    counts["total_orbits"] = cen.total_orbits
    return entry("census.categories",
                 "stabilizer orbit classes realize the seven closed-form category counts",
                 ok, counts, witnesses)


WINDOW = 1 << 21     # points per pass of census.orbit-sizes: a bool mask of 2 MiB


@check("census", reads=("classes",))
def orbit_sizes(sess: Session) -> CheckEntry:
    # the member rows and the three vertex classes cover every point once:
    # they hold n entries and reach every point, marked WINDOW points at a
    # time, one pass over the rows a window; else count the points' classes
    classes, n, s = sess.classes, sess.plane.size, sess.ctx.sub_order
    at_vertex = classes.categories == VERTEX
    vertex_reps, full = classes.reps[at_vertex], np.flatnonzero(~at_vertex)
    once = len(full) * s + len(vertex_reps) == n
    for lo in range(0, n, WINDOW):
        if not once:
            break
        seen = np.zeros(min(WINDOW, n - lo), dtype=bool)
        for rows in itertools.chain([vertex_reps], (classes.members(full[j])
                                                   for j in chunks(len(full), s))):
            seen[rows[(rows >= lo) & (rows < lo + len(seen))] - lo] = True
        once = seen.all()
    bad = []
    if not once:
        cover = np.bincount(np.concatenate([classes.members(full[j]).ravel()
                                            for j in chunks(len(full), s)] + [vertex_reps]),
                            minlength=n)
        bad = [f"{format_point(sess.plane.point(i))} lies in {int(cover[i])} classes"
               for i in np.flatnonzero(cover != 1)[:5]]
    if len(vertex_reps) != 3:
        bad.insert(0, f"{len(vertex_reps)} vertex classes, and classes of {s} points")
    return entry("census.orbit-sizes",
                 "every class is one fixed vertex or has q^2+q+1 points, and the classes partition the plane",
                 not bad, {"classes": len(classes), "points": n}, bad[:5])


def type_tally(sess: Session, kind: str) -> CheckEntry:
    table = point_types_table if kind == "point" else line_types_table
    tally = tally_types(table(sess.plane))
    want = expected_type_counts(sess.ctx.q)
    return entry(f"census.{kind}-types",
                 f"{kind} counts per type match the closed forms",
                 tally == want,
                 {TYPE_NAMES[t]: tally[t] for t in sorted(tally)},
                 [f"type {TYPE_NAMES[t]}: {tally[t]} {kind}s, expected {want[t]}"
                  for t in sorted(tally) if tally[t] != want[t]])


check("census", reads=("tables",))(partial(type_tally, kind="point"))
check("census", reads=("tables",))(partial(type_tally, kind="line"))


@check("census", reads=("tables", "classes"))
def collineation_permutes(sess: Session) -> CheckEntry:
    # a class maps onto a class of its category exactly when the class of
    # phi[i] is the same for every member i, and the class of phi[r], r its
    # representative, has its category; that class is found by a search of
    # the sorted reps, and an index that is no representative has category -1
    orbit, phi = sess.plane.tables.orbit, sess.plane.tables.phi
    reps, cats = sess.classes.reps, sess.classes.categories
    image = orbit[phi[reps]]
    at = np.minimum(np.searchsorted(reps, image), len(reps) - 1)
    least = reps[np.where(reps[at] == image, cats[at], -1) != cats][:5]
    for s in chunks(sess.plane.size):       # the least five moved class reps
        rep = orbit[s]
        moved = rep[orbit[phi[s]] != orbit[phi[rep]]]
        if moved.size:
            least = np.sort(np.concatenate((least, moved)))
            least = least[np.diff(least, prepend=-1) != 0][:5]
    bad = [format_point(sess.plane.point(r)) for r in least]
    return entry("census.collineation-permutes",
                 "the collineation permutes the orbit classes within their categories",
                 not bad, {"classes": len(sess.classes)}, bad)


@check("census", reads=("tables",))
def norm_det_relation(sess: Session) -> CheckEntry:
    bad = sess.plane.tables.norm_det_mismatches()[:5]
    return entry("census.norm-det-identity",
                 "the norm and determinant relation holds on every point off the triangle sides",
                 not bad.size, {"points": (sess.ctx.q3 - 1) ** 2, "mode": "exhaustive"},
                 [format_point(sess.plane.point(i)) for i in bad])
