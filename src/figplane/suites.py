"""Named verification checks, composed from the library operations.

Each check is a function of a :class:`Session` returning a
:class:`figplane.report.CheckEntry` with counts and witnesses in
deterministic order, registered once in the ordered table ``CHECKS``
with its gates, the conditions on q it needs to run, and the ``STAGES``
of the Session it reads; ``refusal`` says why a selection has nothing to
run at q.  Every check is exhaustive.  ``run_checks`` builds each stage
a selection reads once, before its checks.
"""

from __future__ import annotations

import dataclasses
import math
import time
from functools import cached_property, partial
from typing import Callable, NamedTuple

import numpy as np

from . import figueroa as fg
from . import linear_sets as ls
from . import maps as gm
from .arrays import PlaneTables, chunks, span
from .collineation import (TYPE_II, TYPE_III, TYPE_NAMES, CATEGORIES, VERTEX,
                           OrbitClasses, census_of, line_types_table,
                           partition_orbits, point_type, point_types_table,
                           expected_type_counts, tally_types)
from .field import FieldContext, Gate
from .plane import (ANCHOR, ANCHOR_1, ANCHOR_2, AXIS, GeometryError, ProjectivePlane,
                    format_line, format_point, points_on_line)
from .report import CheckEntry, entry


class Session:
    """The plane and the ``STAGES`` the checks read, each built once."""

    def __init__(self, ctx: FieldContext):
        self.ctx = ctx
        self.plane = ProjectivePlane(ctx)
        self.elapsed_ms: dict[str, float] = {}    # stage -> ms of its build

    @cached_property
    def tables(self) -> PlaneTables:
        """The plane's tables, with its four point tables built."""
        self.plane.tables.types     # one pass builds types, mu, phi and orbit
        return self.plane.tables

    @cached_property
    def classes(self) -> OrbitClasses:
        return partition_orbits(self.plane)

    @cached_property
    def census(self):
        return census_of(self.plane, self.classes)

    @cached_property
    def fixed_census(self) -> gm.VertexCensus:
        """Projection vertex census of the fixed subplane."""
        return gm.vertex_census(self.plane, ls.fixed_subplane(self.ctx))

    @cached_property
    def fig_structure(self) -> fg.IncidencePlane:
        """FIG as a row source; its rows are made when they are read."""
        return fg.build_fig_plane(self.plane)

    @cached_property
    def build_pass(self) -> tuple[np.ndarray, dict[str, bool]]:
        return fg.check_build(self.fig_structure)

    def norm_reps(self):
        return [self.ctx.norm_class_rep(j) for j in range(self.ctx.q - 1)]


class Check(NamedTuple):
    suite: str
    group: str
    run: Callable[[Session], CheckEntry]
    gates: tuple[Gate, ...]
    reads: tuple[str, ...]

    def applies(self, ctx: FieldContext, by_default: bool = False) -> bool:
        """Whether the check runs at this order: every gate holds, leaving
        out the ``default_only`` gates unless the selection is the default."""
        return all(g.holds(ctx) for g in self.gates if by_default or not g.default_only)


CHECKS: list[Check] = []

# the Session stages a check may read, in the order ``run_checks`` builds them
STAGES = ("tables", "classes", "census", "fixed_census", "fig_structure", "build_pass")

EVEN_Q = Gate(lambda ctx: ctx.q % 2 == 0, "the even-order structure check needs q even")
SUITE_GATES = {"figueroa": (fg.FIGUEROA,)}    # every check of the suite needs them

ROW_WORK = 10 ** 9      # entries n (q^3 + 1) of a pass over the FIG rows, by default


def row_work(ctx: FieldContext) -> int:
    return (ctx.q3 * ctx.q3 + ctx.q3 + 1) * (ctx.q3 + 1)


FIG_ROWS = Gate(lambda ctx: row_work(ctx) < ROW_WORK,
                lambda ctx: f"a pass over the FIG rows reads {row_work(ctx):.3g} entries at "
                            f"q = {ctx.q}, over the default bound of {ROW_WORK:.0e}",
                default_only=True)


def check(suite: str, group: str | None = None, gates: tuple[Gate, ...] = (),
          reads: tuple[str, ...] = ()):
    """Register the decorated check in ``CHECKS``, whose order is report
    order, under its suite (census, maps or figueroa), its ``--check``
    group (by default the suite), the gates, those of its suite first,
    that must hold at an order for it to run there, and the ``STAGES`` it
    reads, ``tables`` also for the plane's tables.  The build and axioms
    checks, which pass over every FIG or PG row, carry ``FIG_ROWS``; the
    build checks share one walk of the rows under phi, the stage
    ``build_pass``, which ``run_checks`` builds and times on its own."""
    def register(fn):
        CHECKS.append(Check(suite, group or suite, fn, SUITE_GATES.get(suite, ()) + gates, reads))
        return fn
    return register


def refusal(ctx: FieldContext, suite: str, group: str | None = None) -> str | None:
    """Why no check of the suite (or of one of its groups) runs at this
    order, from the first gate that fails; None when one does run."""
    picked = [c for c in CHECKS if c.suite == suite and group in (None, c.group)]
    if any(c.applies(ctx) for c in picked):
        return None
    gate = next(g for c in picked for g in c.gates
                if not g.default_only and not g.holds(ctx))
    return f"{gate.reason} (got q = {ctx.q})"


def check_groups(suite: str) -> list[str]:
    """The ``--check`` groups of a suite, in report order."""
    return list(dict.fromkeys(c.group for c in CHECKS if c.suite == suite))


def selected(ctx: FieldContext, suite: str, group: str | None = None,
             by_default: bool = False) -> list[Check]:
    """The checks of the suite (or of one of its groups) that apply at
    this order, in table order; ``by_default`` for the default selection,
    which the ``default_only`` gates bind too."""
    return [c for c in CHECKS
            if c.suite == suite and group in (None, c.group) and c.applies(ctx, by_default)]


def run_checks(sess: Session, suite: str, group: str | None = None,
               by_default: bool = False) -> list[CheckEntry]:
    """Build, in ``STAGES`` order, each stage the selected checks read that
    the Session does not hold yet, then run the checks, timing each stage
    and each check on its own."""
    picked = selected(sess.ctx, suite, group, by_default)
    for name in STAGES:
        if name not in vars(sess) and any(name in c.reads for c in picked):
            t0 = time.perf_counter()
            getattr(sess, name)
            sess.elapsed_ms[name] = (time.perf_counter() - t0) * 1000.0
    out = []
    for c in picked:
        t0 = time.perf_counter()
        e = c.run(sess)
        e.elapsed_ms = (time.perf_counter() - t0) * 1000.0
        out.append(e)
    return out


def census_checks(sess: Session, by_default: bool = False) -> list[CheckEntry]:
    return run_checks(sess, "census", by_default=by_default)


def maps_checks(sess: Session, which: str | None = None,
                by_default: bool = False) -> list[CheckEntry]:
    return run_checks(sess, "maps", which, by_default)


def figueroa_checks(sess: Session, which: str | None = None,
                    by_default: bool = False) -> list[CheckEntry]:
    return run_checks(sess, "figueroa", which, by_default)


# ---------------------------------------------------------------- census

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


@check("census", reads=("classes",))
def orbit_sizes(sess: Session) -> CheckEntry:
    # the member rows and the three vertex classes cover every point once:
    # they hold n entries and reach every point; else count the points' classes
    classes, n, s = sess.classes, sess.plane.size, sess.ctx.sub_order
    at_vertex = classes.categories == VERTEX
    vertex_reps, full = classes.reps[at_vertex], np.flatnonzero(~at_vertex)
    seen = np.zeros(n, dtype=bool)
    seen[vertex_reps] = True
    for j in chunks(len(full), s):
        seen[classes.members(full[j])] = True
    bad = []
    if len(full) * s + len(vertex_reps) != n or not seen.all():
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
    # phi[i] is the same for every member i, in the category of i's class
    orbit, phi = sess.plane.tables.orbit, sess.plane.tables.phi
    category = np.full(sess.plane.size, -1, dtype=np.int8)    # rep -> category
    category[sess.classes.reps] = sess.classes.categories
    # the least five moved class reps; a mask, since np.unique imports numpy.ma
    rep_moved = np.zeros(sess.plane.size, dtype=bool)
    for s in chunks(sess.plane.size):
        rep, image = orbit[s], orbit[phi[s]]
        moved = (image != orbit[phi[rep]]) | (category[image] != category[rep])
        rep_moved[rep[moved]] = True
    bad = [format_point(sess.plane.point(r)) for r in np.flatnonzero(rep_moved)[:5]]
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


# ------------------------------------------------------------------ maps

def _indices(sess: Session, objs) -> np.ndarray:
    """Sorted dense indices of a set of points or lines."""
    return np.array(sorted(map(sess.plane.index, objs)), dtype=np.int64)


def _same(sess: Session, image: np.ndarray, objs) -> bool:
    """Whether the index array ``image`` holds exactly the indices of the
    points or lines ``objs``, as sets."""
    return frozenset(image.tolist()) == frozenset(map(sess.plane.index, objs))


def _projection(sess: Session, B: ls.SubplaneSet) -> np.ndarray:
    """Indices of the anchor projections of the points of B."""
    return gm.anchor_projections(sess.plane.tables, _indices(sess, B.points))


def _splash(sess: Session, B: ls.SubplaneSet) -> np.ndarray:
    """Indices of the splashes of the lines of B."""
    return gm.anchor_cross(sess.plane.tables, _indices(sess, B.lines))


def _pencil_type(sess: Session, theta: int) -> int:
    """Common type of the lines joining the anchor to the axis linear set
    of theta, read from the type table; like ``pencil_type`` it raises
    when they mix types."""
    tables = sess.plane.tables
    lines = gm.anchor_cross(tables, _indices(sess, ls.sls_points(sess.ctx, theta)))
    kinds = set(tables.types[lines].tolist())
    if len(kinds) != 1:
        raise GeometryError(f"pencil of {theta} mixes line types {sorted(kinds)}")
    return kinds.pop()


@check("maps", "mu", reads=("tables",))
def involution(sess: Session) -> CheckEntry:
    # one table serves points and lines: the same coordinates give the
    # same index, and mu is both the conjugate join and the conjugate meet
    types, mu = sess.plane.tables.types, sess.plane.tables.mu
    bad, count = [], 0
    for s in chunks(len(mu)):
        i, m, type3 = span(s), mu[s], types[s] == TYPE_III
        image = np.where(type3, m, 0)
        bad.append(i[type3 & ((m < 0) | (types[image] != TYPE_III) | (mu[image] != i))])
        count += int(np.count_nonzero(type3))
    bad_idx = np.concatenate(bad)[:5].tolist()
    witnesses = ([format_point(sess.plane.point(i)) for i in bad_idx]
                 + [format_line(sess.plane.point(i)) for i in bad_idx])
    return entry("mu.involution",
                 "the conjugate join/meet maps are mutually inverse on Type III objects",
                 not witnesses,
                 {"points": count, "lines": count, "mode": "exhaustive"},
                 witnesses[:5])


@check("maps", "mu")
def rejects_fixed_objects(sess: Session) -> CheckEntry:
    bad = []
    for name in ("conjugate_join", "conjugate_meet"):
        try:
            getattr(gm, name)(sess.ctx, (1, 1, 1))  # a fixed, Type I point; a fixed-subplane line
            bad.append(f"{name} accepted the Type I object 1:1:1")
        except gm.TypeRestrictionError:
            pass
    return entry("mu.rejects-fixed-objects",
                 "applying the involution to a Type I object raises",
                 not bad, {}, bad)


@check("maps", "mu", reads=("tables",))
def plane_images(sess: Session) -> CheckEntry:
    """Table-driven: the lines of an orbit subplane with point indices P
    are the secants sec(P), so its involution images are mu[sec(P)]
    (points) and mu[P] (lines).  phi, which serves points and lines alike,
    carries P and both closed forms to each conjugate side.  A point
    without a secant or without an involution image (-1) fails the
    comparison."""
    ctx, tables = sess.ctx, sess.plane.tables
    mu, sec, phi = tables.mu, tables.sec, tables.phi

    def same_set(image, want):
        # want holds distinct indices >= 0, so equal sorted arrays are
        # equal sets and a -1 in the image never matches
        return np.array_equal(np.sort(image), np.sort(want))

    bad = []
    for th in sess.norm_reps():
        if ctx.norm(th) == 1:
            continue
        P = _indices(sess, ls.t_plane(ctx, th).points)
        want_pts = _indices(sess, ls.sls_points(ctx, ctx.neg(ctx.inv(th))))
        want_lns = gm.anchor_cross(tables, _indices(sess, ls.sls_points(ctx, ctx.inv(th))))
        for side in (0, 1, 2):
            name = f"conjugate {side} of plane {th}" if side else f"plane {th}"
            lines = sec(P)
            if not same_set(np.where(lines >= 0, mu[lines], -1), want_pts):
                bad.append(f"line image of {name}")
            if not same_set(mu[P], want_lns):
                bad.append(f"point image of {name}")
            P, want_pts, want_lns = phi[P], phi[want_pts], phi[want_lns]
    return entry("mu.plane-images",
                 "involution images of the side subplanes are the reciprocal-norm linear sets and pencils",
                 not bad, {"norm_classes": ctx.q - 2}, bad[:5])


def _one_class(rows: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """Per row: its entries are distinct and have one owner class (>= 0)."""
    own = owner[rows]
    return ((rows >= 0).all(axis=1) & (own[:, 0] >= 0) & (own == own[:, :1]).all(axis=1)
            & (np.diff(np.sort(rows, axis=1), axis=1) > 0).all(axis=1))


@check("maps", "mu", reads=("tables", "classes"))
def generic_plane(sess: Session) -> CheckEntry:
    """Every generic all-Type-III orbit subplane, one that is neither a side
    subplane nor a conjugate of one, maps onto orbit elements.

    The line set of an orbit subplane is the set of its points' secants,
    and ``sec`` is a bijection off the triangle sides, so the involution
    images of the subplane of class C are mu[sec(C)] (points) and mu[C]
    (lines).  It is its own inverse there, (1, b, c) <-> [1 : 1/b : 1/c],
    so line l is a secant of the class of sec(l), and of none when sec(l)
    is -1.  Classes have one or q^2+q+1 members, so q^2+q+1 distinct
    images with one owner are exactly one class, or one class's line set.
    """
    tables = sess.plane.tables
    classes = sess.classes
    mu, sec, phi = tables.mu, tables.sec, tables.phi
    owner = tables.orbit                                    # point -> class rep
    # the classes of the side subplanes and their two conjugates
    pts = np.concatenate([_indices(sess, ls.t_plane(sess.ctx, th).points)
                          for th in sess.norm_reps()])
    side = np.zeros(len(classes), dtype=bool)
    owners = owner[np.concatenate((pts, phi[pts], phi[phi[pts]]))]
    side[np.searchsorted(classes.reps, owners)] = True
    pick = classes.of("plane_III_III")
    pick = pick[~side[pick]]
    bad = []
    for j in chunks(len(pick), sess.ctx.sub_order):
        members = classes.members(pick[j])
        point_ok = _one_class(mu[sec(members)], owner)
        line_ok = _one_class(sec(mu[members]), owner)
        for i in np.flatnonzero(~(point_ok & line_ok)):
            rep = format_point(sess.plane.point(members[i, 0]))
            if not point_ok[i]:
                bad.append(f"line image of {rep} is no orbit class")
            if not line_ok[i]:
                bad.append(f"point image of {rep} is no orbit line set")
    return entry("mu.generic-plane",
                 "involution images of generic all-Type-III subplanes are again orbit elements",
                 not bad, {"tested": len(pick), "mode": "exhaustive"}, bad[:5])


def _block_parts(sess: Session) -> tuple[np.ndarray, np.ndarray]:
    """Point indices of the E and F parts of the anchor block: its Type II
    and its Type III entries."""
    block = fg.anchor_block(sess.plane, ANCHOR)
    kind = sess.plane.tables.types[block]
    return block[kind == TYPE_II], block[kind == TYPE_III]


@check("maps", "mu", gates=(fg.FIGUEROA,), reads=("tables",))
def block_incidence_twist(sess: Session) -> CheckEntry:
    # the incidence twist behind the third line class: a Type III point is
    # in the Type III part of the anchor block exactly when its involution
    # image passes through the anchor 0:0:1, that is, is a line [a:b:0]
    tables = sess.plane.tables
    mu, types, bad = tables.mu, tables.types, []
    part = np.sort(_block_parts(sess)[1])
    for s in chunks(len(mu)):
        # [a:b:0] is [1:b:0], index b q^3, or [0:1:0], index q^6: the indices
        # divisible by q^3 other than q^6 + q^3, the index of [0:0:1]
        through = (mu[s] % sess.ctx.q3 == 0) & (mu[s] != len(mu) - 1)
        member = np.zeros(s.stop - s.start, dtype=bool)     # the chunk's block points
        lo, hi = np.searchsorted(part, (s.start, s.stop))
        member[part[lo:hi] - s.start] = True
        bad.append(span(s)[(types[s] == TYPE_III) & (member != through)])
    bad = np.concatenate(bad)[:5]
    return entry("mu.block-incidence-twist",
                 "Type III block membership at the anchor equals anchor incidence of the involution image",
                 not bad.size, {}, [format_point(sess.plane.point(i)) for i in bad])


@check("maps", "pr-sp", reads=("tables",))
def t_plane_images(sess: Session) -> CheckEntry:
    ctx = sess.ctx
    bad = []
    for th in sess.norm_reps():
        B = ls.t_plane(ctx, th)
        th2 = ctx.mul(th, th)
        if not _same(sess, _projection(sess, B), ls.sls_points(ctx, th2)):
            bad.append(f"projection of plane {th}")
        if not _same(sess, _splash(sess, B), ls.sls_points(ctx, ctx.neg(th2))):
            bad.append(f"splash of plane {th}")
    return entry("projection.t-planes",
                 "projection and splash of each side subplane are the squared-norm linear sets",
                 not bad, {"norm_classes": ctx.q - 1}, bad[:5])


@check("maps", "pr-sp", reads=("tables",))
def parity_table(sess: Session) -> CheckEntry:
    """Types are read from the type table and involution images from mu,
    whose -1 off Type III matches no set."""
    ctx, tables = sess.ctx, sess.plane.tables
    types, mu = tables.types, tables.mu
    s1 = ls.sls_points(ctx, ctx.one)
    sm1 = ls.sls_points(ctx, ctx.neg_one)
    fixed = ls.fixed_subplane(ctx)
    checks = {}
    t_s1 = set(types[_indices(sess, s1)].tolist())
    checks["pencil_of_one_is_type_II"] = _pencil_type(sess, ctx.one) == TYPE_II
    checks["pr_fixed_is_norm_one"] = _same(sess, _projection(sess, fixed), s1)
    if ctx.q % 2 == 0:
        checks["s1_type_II"] = t_s1 == {TYPE_II}
        checks["sp_fixed_is_norm_one"] = _same(sess, _splash(sess, fixed), s1)
    else:
        m1 = ls.t_plane(ctx, ctx.neg_one)
        mu_points = mu[_indices(sess, m1.points)]           # lines
        checks["s1_type_III"] = t_s1 == {TYPE_III}
        checks["s_minus1_type_II"] = set(types[_indices(sess, sm1)].tolist()) == {TYPE_II}
        checks["pencil_of_minus_one_is_type_III"] = \
            _pencil_type(sess, ctx.neg_one) == TYPE_III
        checks["mu_line_of_minus_plane"] = _same(sess, mu[_indices(sess, m1.lines)], s1)
        checks["pr_minus_plane"] = _same(sess, _projection(sess, m1), s1)
        checks["sp_fixed"] = _same(sess, _splash(sess, fixed), sm1)
        checks["sp_minus_plane"] = _same(sess, _splash(sess, m1), sm1)
        checks["sp_of_mu_pt_minus_plane"] = bool((mu_points >= 0).all()) and _same(
            sess, gm.anchor_cross(tables, mu_points), sm1)
    bad = [k for k, v in checks.items() if not v]
    return entry("projection.parity-table",
                 "the norm-one and norm-minus-one linear sets, pencils and subplanes obey the parity table",
                 not bad, {k: str(v) for k, v in checks.items()}, bad)


@check("maps", "pr-sp", reads=("tables",))
def pencil_census(sess: Session) -> CheckEntry:
    ctx = sess.ctx
    q = ctx.q
    tys = [_pencil_type(sess, th) for th in sess.norm_reps()]
    type_ii = [j for j, t in enumerate(tys) if t == TYPE_II]
    # the pencil of the norm class of -1 is the Type II one exactly for even q
    sm1_class = ctx.norm_class(ctx.neg_one)
    want = TYPE_II if q % 2 == 0 else TYPE_III
    bad = []
    if len(type_ii) != 1 or tys.count(TYPE_III) != q - 2:
        bad.append(f"Type II pencil classes {type_ii}; expected one, the other {q - 2} Type III")
    if tys[sm1_class] != want:
        bad.append(f"pencil class {sm1_class}, the norm class of -1, is Type"
                   f" {TYPE_NAMES[tys[sm1_class]]}, expected {TYPE_NAMES[want]}")
    return entry("projection.pencil-census",
                 "exactly one pencil is Type II, and pencil versus base types follow the parity rule",
                 not bad, {"type_II": tys.count(TYPE_II), "type_III": tys.count(TYPE_III)}, bad)


@check("maps", "pr-sp", reads=("tables",))
def projection_vs_splash(sess: Session) -> CheckEntry:
    ctx = sess.ctx
    bad = []
    for th in sess.norm_reps():
        B = ls.t_plane(ctx, th)
        pr, sp = _projection(sess, B), _splash(sess, B)
        if (frozenset(pr.tolist()) == frozenset(sp.tolist())) != (ctx.q % 2 == 0):
            bad.append(f"plane {th}")
        if not _same(sess, pr, gm.project_from_vertex(ctx, ANCHOR, B).points):
            bad.append(f"anchor projection of plane {th}")
    return entry("projection.vs-splash",
                 "projection equals splash exactly for even q, and the anchor is an ordinary vertex",
                 not bad, {}, bad[:5])


def _fixed_planes(sess: Session, id: str, claim: str, found: np.ndarray, reps,
                  expected: int, ok: bool = True) -> CheckEntry:
    """Entry for an exhaustive scan that found the classes ``found``, which
    must be the ``expected`` subplanes through the closed-form ``reps``."""
    want = [frozenset(sess.plane.index(P) for P in ls.plane_from_rep(sess.ctx, R).points)
            for R in reps]
    members = sess.classes.members(found)
    got = {frozenset(row) for row in members.tolist()}
    ok = ok and len(found) == expected and got == set(want)
    missing = [f"no class is the subplane through {format_point(R)}"
               for R, points in zip(reps, want) if points not in got]
    found_reps = [format_point(sess.plane.point(i)) for i in members[:, 0]]
    return entry(id, claim, ok,
                 {"found": len(found), "expected": expected,
                  "representatives": " ".join(found_reps)},
                 [] if ok else found_reps + missing)


@check("maps", "fixed", reads=("tables", "classes"))
def collineation_fixed(sess: Session) -> CheckEntry:
    found = gm.phi_fixed_planes(sess.plane, sess.classes)
    allowed = np.concatenate([sess.classes.of(c) for c in ("plane_I_I", "plane_III_III")])
    return _fixed_planes(
        sess, "fixed.collineation",
        "exhaustive scan finds exactly gcd(3, q-1) collineation-fixed subplanes, the closed-form ones",
        found, gm.expected_phi_fixed_reps(sess.ctx), math.gcd(3, sess.ctx.q - 1),
        bool(np.isin(found, allowed).all()))


@check("maps", "fixed", reads=("tables", "classes"))
def involution_fixed(sess: Session) -> CheckEntry:
    reps = [R for R in gm.expected_phi_fixed_reps(sess.ctx) if R != (1, 1, 1)]
    return _fixed_planes(
        sess, "fixed.involution",
        "exhaustive scan finds exactly the zero or two involution-fixed subplanes",
        gm.mu_fixed_planes(sess.plane, sess.classes), reps,
        0 if math.gcd(3, sess.ctx.q - 1) == 1 else 2)


@check("maps", "vertices", reads=("fixed_census",))
def vertices_census(sess: Session) -> CheckEntry:
    ctx = sess.ctx
    q = ctx.q
    vc = sess.fixed_census
    counts = vc.counts()
    total = sum(counts.values())
    s = ctx.sub_order
    bad = []
    for j in range(q - 1):
        nt = ctx.norm(ctx.norm_class_rep(j))
        if q % 2 == 0:
            want = 1 if nt == 1 else s
        else:
            want = {ctx.neg_one: 0, 1: s + 1}.get(nt, s)
        if counts[j] != want:
            bad.append(f"norm class {j}: {counts[j]} vertices, expected {want}")
    ok = not bad and total == q ** 3 - q ** 2 - q - 1
    return entry("vertices.census",
                 "projection vertices of the fixed subplane are distributed by norm class as the parity rule dictates",
                 ok,
                 {"total": total, "expected_total": q ** 3 - q ** 2 - q - 1,
                  **{f"class_{j}": counts[j] for j in sorted(counts)},
                  "club_images": vc.club, "other_images": vc.other},
                 bad[:5])


@check("maps", "vertices", reads=("fixed_census",))
def count_spectrum(sess: Session) -> CheckEntry:
    s = sess.ctx.sub_order
    allowed = {1, s} if sess.ctx.q % 2 == 0 else {0, s, s + 1}
    bad = [f"class {j}: {c}" for j, c in sess.fixed_census.counts().items()
           if c not in allowed]
    return entry("vertices.count-spectrum",
                 "per-target vertex counts stay inside the admissible spectrum for the parity of q",
                 not bad, {"allowed": sorted(allowed)}, bad)


@check("maps", "vertices", reads=("tables",))
def cross_plane(sess: Session) -> CheckEntry:
    """Each side subplane is projected once, from the points of every
    other side subplane together; the witnesses name the first wrong
    vertex of each ordered pair, in the order of the projecting plane."""
    ctx, tables = sess.ctx, sess.plane.tables
    reps = sess.norm_reps()
    planes = [_indices(sess, ls.t_plane(ctx, th).points) for th in reps]
    first_wrong = {}            # (kappa class, theta class) -> vertex index
    for jt, theta in enumerate(reps):
        others = [jk for jk in range(len(reps)) if jk != jt]
        if not others:
            continue
        V = np.concatenate([planes[jk] for jk in others])
        kinds = tables.project(np.stack(tables.field.coords(V), axis=1),
                               ls.t_plane(ctx, theta).points)
        for jk, got in zip(others, np.split(kinds, len(others))):
            # an image is the side linear set of a norm class exactly
            # when it is classified as scattered with that class
            wrong = np.flatnonzero(got != ctx.norm_class(ctx.neg(ctx.mul(reps[jk], theta))))
            if wrong.size:
                first_wrong[jk, jt] = planes[jk][wrong[0]]
    bad = [f"vertex {format_point(sess.plane.point(first_wrong[jk, jt]))} of plane "
           f"{reps[jk]} onto plane {reps[jt]}"
           for jk in range(len(reps)) for jt in range(len(reps)) if (jk, jt) in first_wrong]
    return entry("vertices.cross-plane",
                 "from any point of one side subplane, another norm class projects onto the negated-product linear set",
                 not bad, {"pairs": (ctx.q - 1) * (ctx.q - 2)}, bad[:5])


@check("maps", "vertices", reads=("fixed_census",))
def club_images(sess: Session) -> CheckEntry:
    vc = sess.fixed_census
    sls = sum(vc.counts().values())
    return entry("vertices.club-images",
                 "club images (one point of weight two) occur among the scanned vertices",
                 vc.club > 0, {"club_images": vc.club},
                 [] if vc.club else [f"no club image among {sls + vc.other} scanned vertices:"
                                     f" {sls} side linear sets, {vc.other} other"])


# -------------------------------------------------------------- figueroa

def _axis_mismatch(image, want, prefix: str = "") -> list[str]:
    """Witnesses that the point set ``image`` is not ``want``: the points
    it misses, then those it has in excess."""
    return ([f"{prefix}missing {format_point(P)}" for P in sorted(want - image)]
            + [f"{prefix}extra {format_point(P)}" for P in sorted(image - want)])


@check("figueroa", "build", gates=(FIG_ROWS,), reads=("tables",))
def block_anatomy(sess: Session) -> CheckEntry:
    ctx, plane = sess.ctx, sess.plane
    block = fg.anchor_block(plane, ANCHOR)
    # distinct entries of the sorted row; np.unique would import numpy.ma
    size = 1 + int(np.count_nonzero(block[1:] != block[:-1]))
    f_points = set(map(plane.point, _block_parts(sess)[1]))
    want_planes = set()
    for th in sess.norm_reps():
        if ctx.norm(th) != 1:
            want_planes.update(ls.t_plane(ctx, th).points)
    conj = fg.anchor_block(plane, ANCHOR_1)
    checks = {
        "size": size == ctx.q ** 3 + 1,
        "axis_overlap": sum(P[2] == 0 for P in map(plane.point, block)) == ctx.sub_order + 2,
        "carriers": {ANCHOR_1, ANCHOR_2} <= f_points,
        "type3_part": f_points - {ANCHOR_1, ANCHOR_2} == want_planes,
        "equivariant": np.array_equal(np.sort(plane.tables.phi[block]), conj),
    }
    bad = [k for k, v in checks.items() if not v]
    return entry("fig.block",
                 "the anchor block splits into the Type II axis part plus the reciprocal subplanes and carriers",
                 not bad, {"size": size}, bad)


@check("figueroa", "build", gates=(FIG_ROWS,), reads=("tables", "build_pass"))
def block_sizes(sess: Session) -> CheckEntry:
    bad, tables = sess.build_pass[0], sess.plane.tables
    # a fig row replacing line L is the block anchored at mu[L]
    anchors = tables.mu[bad[:5]]
    return entry("fig.block-sizes",
                 "every block has exactly q^3 + 1 points, q^2 + q + 1 of them Type II and none Type I",
                 not bad.size,
                 {"anchors": int(np.count_nonzero(tables.types == TYPE_III)), "mode": "exhaustive"},
                 [format_point(sess.plane.point(a)) for a in anchors])


@check("figueroa", "build", gates=(FIG_ROWS,), reads=("tables", "fig_structure", "build_pass"))
def assembly(sess: Session) -> CheckEntry:
    count, tables = sess.fig_structure.shape[0], sess.plane.tables
    q, s = sess.ctx.q, sess.ctx.sub_order
    n_I, n_II, n_fig = np.bincount(tables.types, minlength=4)[1:].tolist()
    checks = {
        "block_count": count == sess.plane.size,
        "kept_line_counts": n_I == s and n_II == (q ** 3 - q) * s,
        **sess.build_pass[1],
    }
    bad = [k for k, v in checks.items() if not v]
    return entry("fig.build",
                 "the assembled plane keeps Type I and II lines, replaces each Type III line, and is collineation invariant",
                 not bad,
                 {"blocks": count, "line_I": n_I, "line_II": n_II, "fig": n_fig},
                 bad)


@check("figueroa", "axioms", gates=(FIG_ROWS,), reads=("tables", "fig_structure"))
def axioms(sess: Session) -> CheckEntry:
    rep = fg.check_axioms(sess.fig_structure)
    return entry("fig.axioms",
                 "every point pair lies in one block and every block pair meets in one point",
                 rep.ok,
                 {"mode": rep.mode, "checked_pairs": rep.checked_pairs,
                  "representatives": rep.representatives,
                  "block_size_ok": str(rep.block_size_ok),
                  "point_degree_ok": str(rep.point_degree_ok)},
                 rep.witnesses)


@check("figueroa", "axioms", gates=(FIG_ROWS,), reads=("tables",))
def axioms_reference(sess: Session) -> CheckEntry:
    rep = fg.check_axioms(fg.pg_incidence(sess.plane))
    return entry("fig.axioms-reference",
                 "the unmodified plane passes the same axiom checker",
                 rep.ok, {"mode": rep.mode, "representatives": rep.representatives},
                 rep.witnesses)


@check("figueroa", "axioms", gates=(FIG_ROWS,), reads=("tables", "fig_structure"))
def axioms_mutation(sess: Session) -> CheckEntry:
    i = int(np.argmax(sess.plane.tables.types == TYPE_III))
    rep = fg.check_axioms(dataclasses.replace(sess.fig_structure, kept=(i,)))
    caught = (not rep.ok) and bool(rep.witnesses)
    verdict = "accepted it" if rep.ok else "rejected it with no witness"
    return entry("fig.axioms-mutation",
                 "replacing one block by the line it displaced breaks the axioms with a witness",
                 caught, {"mode": rep.mode, "representatives": rep.representatives,
                          "witnesses": len(rep.witnesses)},
                 rep.witnesses[:2] if caught else [
                     f"block {format_line(sess.plane.point(i))} swapped back to its line: "
                     f"the axiom checker {verdict}"])


@check("figueroa", "pr", reads=("tables",))
def projection_anchor(sess: Session) -> CheckEntry:
    ctx = sess.ctx
    q = ctx.q
    img = fg.pr_fig_block(sess.plane, 0)
    want = fg.expected_pr_fig_block(ctx, 0)
    if q % 2 == 0:
        size_want = q ** 3 + 1
    else:
        size_want = 2 + (q - 1 if q % 4 == 1 else q + 1) // 2 * ctx.sub_order
    bad = _axis_mismatch(img, want)
    if len(want) != size_want:
        bad.append(f"image and closed form have {len(want)} points, not {size_want}")
    return entry("fig.projection-anchor",
                 "the anchor block projects onto the whole axis (even q) or the square-norm side (odd q)",
                 not bad, {"image_size": len(img), "expected_size": size_want}, bad[:5])


@check("figueroa", "pr", reads=("tables",))
def projection_conjugates(sess: Session) -> CheckEntry:
    images = {which: fg.pr_fig_block(sess.plane, which) for which in (1, 2)}
    bad = [w for which, img in images.items()
           for w in _axis_mismatch(img, fg.expected_pr_fig_block(sess.ctx, which),
                                   f"conjugate {which}: ")]
    return entry("fig.projection-conjugates",
                 "each conjugate block projects onto the axis minus the norm-one set and its own vertex",
                 not bad, {"image_size": len(images[1])}, bad[:5])


@check("figueroa", "arching")
def arching(sess: Session) -> CheckEntry:
    ctx = sess.ctx
    per_class = fg.arching_census(ctx)
    bad = []
    for j, c in per_class.items():
        nt = ctx.norm(ctx.norm_class_rep(j))
        want = 1 if ctx.q % 2 == 0 else (2 if ctx.is_nonzero_square(nt) else 0)
        if c != want:
            bad.append(f"pencil class {j}: arches {c}, expected {want}")
    return entry("fig.arching",
                 "pencils arch over one subplane each (even q) or two per square norm class (odd q)",
                 not bad,
                 {f"class_{j}": c for j, c in sorted(per_class.items())},
                 bad)


@check("figueroa", "characterization", reads=("tables", "fixed_census"))
def characterization(sess: Session) -> CheckEntry:
    rep = fg.characterize_fig_points(sess.plane, sess.fixed_census)
    return entry("fig.characterization",
                 "off the axis, block membership is equivalent to projecting the fixed subplane onto a side linear set",
                 rep.ok,
                 {"vertices": rep.vertex_count, "expected": rep.expected_count},
                 rep.mismatches)


@check("figueroa", "even-structure", gates=(EVEN_Q,), reads=("tables",))
def even_structure(sess: Session) -> CheckEntry:
    """Even q only: through each triangle vertex, every line carries
    exactly one point of the conjugate block's Type III part or exactly
    one point of its Type II part, never both.  The sets tested at the
    conjugate vertices are the conjugates of the anchor block's parts,
    matching the collineation equivariance of the construction."""
    plane, tables = sess.plane, sess.plane.tables
    parts = _block_parts(sess)
    counts, bad = {}, []
    for key, V in (("anchor_ok", ANCHOR), ("conjugate1_ok", ANCHOR_1),
                   ("conjugate2_ok", ANCHOR_2)):
        lines = tables.incidence_rows([plane.index(V)])[0]    # the lines through V
        rows = tables.incidence_rows(lines)
        ne, nf = (np.isin(rows, part).sum(axis=1) for part in parts)
        wrong = np.flatnonzero(ne + nf != 1)
        bad.extend(f"vertex {format_point(V)}: line {format_line(plane.point(lines[j]))}"
                   f" carries {nf[j]} Type III and {ne[j]} Type II block points"
                   for j in wrong)
        counts[key] = str(not wrong.size)
        parts = tuple(tables.phi[part] for part in parts)     # on to the next vertex
    return entry("fig.even-structure",
                 "for even q, every line through a triangle vertex carries one conjugated block point of exactly one kind",
                 not bad, counts, bad[:5])


@check("figueroa", "sp-mu", reads=("tables",))
def splash_involution(sess: Session) -> CheckEntry:
    """Splash after the involution, over the Type III part of the anchor
    block, must biject onto the axis minus the norm-one linear set, and
    hit exactly the Type III axis points iff q is even."""
    ctx = sess.ctx
    first, collisions = {}, []       # image -> the first block point splashed onto it
    for P in sorted(map(sess.plane.point, _block_parts(sess)[1])):
        I = gm.splash(ctx, gm.conjugate_join(ctx, P))
        if first.setdefault(I, P) != P:
            collisions.append(f"{format_point(first[I])} and {format_point(P)}"
                              f" both go to {format_point(I)}")
    image, axis = frozenset(first), frozenset(points_on_line(ctx, AXIS))
    want = axis - ls.sls_points(ctx, ctx.one)
    type3_axis = {P for P in axis if point_type(ctx, P) == TYPE_III}
    iff_even = (image == type3_axis) == (ctx.q % 2 == 0)
    bad = collisions + _axis_mismatch(image, want)
    if not iff_even:
        bad.append(f"at q = {ctx.q} the image {'is' if image == type3_axis else 'is not'}"
                   " the Type III axis points")
    return entry("fig.splash-involution",
                 "splash after the involution bijects the Type III block part onto the axis minus the norm-one set",
                 not bad,
                 {"image_size": len(image),
                  "injective": str(not collisions),
                  "type3_iff_even": str(iff_even)},
                 bad[:5])
