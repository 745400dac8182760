"""The census suite: the orbit partition of the triangle stabilizer, its
category and type counts, and the collineation's action on it.

Importing this module registers its checks in the check table of
:mod:`figplane.suites`, in report order.
"""

from __future__ import annotations

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


@check("census", reads=("tables", "classes"))
def orbit_sizes(sess: Session) -> CheckEntry:
    # the orbit labels certify the cover: with distinct reps, the vertices
    # labelled themselves and every member row s distinct points labelled
    # with its rep, the rows and vertices are disjoint, and they cover the
    # plane once when they hold n points; else count the points' classes
    classes, n, s = sess.classes, sess.plane.size, sess.ctx.sub_order
    orbit, reps = sess.plane.tables.orbit, classes.reps
    at_vertex = classes.categories == VERTEX
    vertex_reps, full = reps[at_vertex], np.flatnonzero(~at_vertex)
    once = (len(vertex_reps) + s * len(full) == n and (reps[1:] > reps[:-1]).all()
            and (orbit[vertex_reps] == vertex_reps).all())
    for j in chunks(len(full), s):
        if not once:
            break
        rows = classes.members(full[j])
        once = (rows.shape[1] == s and (rows[:, 1:] > rows[:, :-1]).all()
                and (rows >= 0).all() and (rows < n).all()
                and (orbit[rows] == reps[full[j], None]).all())
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
    # a class maps onto a class of its category exactly when phi does not
    # split it and the class of phi[r], r its rep, found by a search of the
    # sorted reps, has its category; a label that is no rep has category -1
    orbit, phi = sess.plane.tables.orbit, sess.plane.tables.phi
    reps, cats = sess.classes.reps, sess.classes.categories
    image = orbit[phi[reps]]
    at = np.minimum(np.searchsorted(reps, image), len(reps) - 1)
    moved = np.where(reps[at] == image, cats[at], -1) != cats
    bad = [format_point(sess.plane.point(r))      # the least five moved reps
           for r in reps[moved | sess.classes.split_by(phi)][:5]]
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
