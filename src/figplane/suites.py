"""Named verification checks, composed from the library operations.

Each check is a function of a :class:`Session` returning a
:class:`figplane.report.CheckEntry` with counts and witnesses in
deterministic order, registered once in the ordered table ``CHECKS``.
Every check is exhaustive.  A Session caches the shared artifacts (plane
tables, orbit partition, FIG structure) so one run builds each once.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from functools import cached_property, partial

import numpy as np

from . import figueroa as fg
from . import linear_sets as ls
from . import maps as gm
from .arrays import chunks
from .collineation import (TYPE_I, TYPE_II, TYPE_III, TYPE_NAMES, CATEGORIES,
                           census_of, collineate_line, collineate_point,
                           line_types_table, partition_orbits, point_type,
                           point_types_table, expected_type_counts, tally_types)
from .field import FieldContext
from .plane import (ANCHOR, ANCHOR_1, ANCHOR_2, ProjectivePlane,
                    format_line, format_point)
from .report import CheckEntry, entry


class Session:
    def __init__(self, ctx: FieldContext):
        self.ctx = ctx

    @cached_property
    def plane(self) -> ProjectivePlane:
        return ProjectivePlane(self.ctx)

    @cached_property
    def classes(self):
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
        return fg.build_fig_plane(self.plane)

    def norm_reps(self):
        return [self.ctx.norm_class_rep(j) for j in range(self.ctx.q - 1)]


Check = namedtuple("Check", "suite group run applies")

CHECKS: list[Check] = []


def check(suite: str, group: str | None = None, applies=lambda ctx: True):
    """Register the decorated check in ``CHECKS``, whose order is report
    order, under its suite (census, maps or figueroa), its ``--check``
    group (by default the suite) and ``applies(ctx)``, true at the orders
    where it runs."""
    def register(fn):
        CHECKS.append(Check(suite, group or suite, fn, applies))
        return fn
    return register


def check_groups(suite: str) -> list[str]:
    """The ``--check`` groups of a suite, in report order."""
    return list(dict.fromkeys(c.group for c in CHECKS if c.suite == suite))


def run_checks(sess: Session, suite: str, group: str | None = None) -> list[CheckEntry]:
    """Run, in table order, every check of the suite (or of one of its
    groups) that applies at this order, timing each."""
    out = []
    for c in CHECKS:
        if c.suite == suite and group in (None, c.group) and c.applies(sess.ctx):
            t0 = time.perf_counter()
            e = c.run(sess)
            e.elapsed_ms = (time.perf_counter() - t0) * 1000.0
            out.append(e)
    return out


def census_checks(sess: Session) -> list[CheckEntry]:
    return run_checks(sess, "census")


def maps_checks(sess: Session, which: str | None = None) -> list[CheckEntry]:
    return run_checks(sess, "maps", which)


def figueroa_checks(sess: Session, which: str | None = None) -> list[CheckEntry]:
    return run_checks(sess, "figueroa", which)


# ---------------------------------------------------------------- census

@check("census")
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


@check("census")
def orbit_sizes(sess: Session) -> CheckEntry:
    bad = [cl for cl in sess.classes
           if len(cl.members) != (1 if cl.category == "vertex" else sess.ctx.sub_order)]
    return entry("census.orbit-sizes",
                 "every class is one fixed vertex or has q^2+q+1 points, and the classes partition the plane",
                 not bad and sum(len(c.members) for c in sess.classes) == sess.plane.size,
                 {"classes": len(sess.classes), "points": sess.plane.size},
                 [format_point(cl.rep) for cl in bad[:5]])


def type_tally(sess: Session, kind: str) -> CheckEntry:
    table = point_types_table if kind == "point" else line_types_table
    tally = tally_types(table(sess.plane))
    want = expected_type_counts(sess.ctx.q)
    return entry(f"census.{kind}-types",
                 f"{kind} counts per type match the closed forms",
                 tally == want,
                 {TYPE_NAMES[t]: tally[t] for t in sorted(tally)},
                 [] if tally == want else [f"expected {want}"])


check("census")(partial(type_tally, kind="point"))
check("census")(partial(type_tally, kind="line"))


@check("census")
def collineation_permutes(sess: Session) -> CheckEntry:
    # a class maps onto a class of its category exactly when the class of
    # phi[i] is the same for every member i, in the category of i's class
    orbit, phi = sess.plane.tables.orbit, sess.plane.tables.phi
    category = np.full(sess.plane.size, -1, dtype=np.int8)    # rep -> category
    category[[cl.members[0] for cl in sess.classes]] = \
        [CATEGORIES.index(cl.category) for cl in sess.classes]
    image = orbit[phi]
    moved = (image != image[orbit]) | (category[image] != category[orbit])
    bad = [format_point(sess.plane.point(r)) for r in np.unique(orbit[moved])[:5]]
    return entry("census.collineation-permutes",
                 "the collineation permutes the orbit classes within their categories",
                 not bad, {"classes": len(sess.classes)}, bad)


@check("census")
def norm_det_relation(sess: Session) -> CheckEntry:
    bad = sess.plane.tables.norm_det_mismatches()[:5]
    return entry("census.norm-det-identity",
                 "the norm and determinant relation holds on every point off the triangle sides",
                 not bad.size, {"points": (sess.ctx.q3 - 1) ** 2, "mode": "exhaustive"},
                 [format_point(sess.plane.point(i)) for i in bad])


# ------------------------------------------------------------------ maps

@check("maps", "mu")
def involution(sess: Session) -> CheckEntry:
    # one table serves points and lines: the same coordinates give the
    # same index, and mu is both the conjugate join and the conjugate meet
    types, mu = sess.plane.tables.types, sess.plane.tables.mu
    type3 = types == TYPE_III
    image = np.where(type3, mu, 0)
    bad = type3 & ((mu < 0) | (types[image] != TYPE_III)
                   | (mu[image] != np.arange(len(mu), dtype=np.int32)))
    bad_idx = np.flatnonzero(bad)[:5].tolist()
    witnesses = ([format_point(sess.plane.point(i)) for i in bad_idx]
                 + [format_line(sess.plane.point(i)) for i in bad_idx])
    count = int(np.count_nonzero(type3))
    return entry("mu.involution",
                 "the conjugate join/meet maps are mutually inverse on Type III objects",
                 not witnesses,
                 {"points": count, "lines": count, "mode": "exhaustive"},
                 witnesses[:5])


@check("maps", "mu")
def rejects_fixed_objects(sess: Session) -> CheckEntry:
    ok = True
    for fn in (gm.conjugate_join, gm.conjugate_meet):
        try:
            fn(sess.ctx, (1, 1, 1))     # a fixed, Type I point; a fixed-subplane line
            ok = False
        except gm.TypeRestrictionError:
            pass
    return entry("mu.rejects-fixed-objects",
                 "applying the involution to a Type I object raises",
                 ok, {}, [])


@check("maps", "mu")
def plane_images(sess: Session) -> CheckEntry:
    ctx = sess.ctx
    bad = []
    for th in sess.norm_reps():
        if ctx.norm(th) == 1:
            continue
        B = ls.t_plane(ctx, th)
        want_pts = ls.sls_points(ctx, ctx.neg(ctx.inv(th)))
        want_lns = ls.pencil_lines(ctx, ctx.inv(th))
        for side in (0, 1, 2):
            C = ls.conjugate_subplane(ctx, B, side)
            name = f"conjugate {side} of plane {th}" if side else f"plane {th}"
            if gm.involution_line_image(ctx, C) != frozenset(
                    collineate_point(ctx, P, side) for P in want_pts):
                bad.append(f"line image of {name}")
            if gm.involution_point_image(ctx, C) != frozenset(
                    collineate_line(ctx, l, side) for l in want_lns):
                bad.append(f"point image of {name}")
    return entry("mu.plane-images",
                 "involution images of the side subplanes are the reciprocal-norm linear sets and pencils",
                 not bad, {"norm_classes": ctx.q - 2}, bad[:5])


def _one_class(rows: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """Per row: its entries are distinct and have one owner class (>= 0)."""
    own = owner[rows]
    return ((rows >= 0).all(axis=1) & (own[:, 0] >= 0) & (own == own[:, :1]).all(axis=1)
            & (np.diff(np.sort(rows, axis=1), axis=1) > 0).all(axis=1))


@check("maps", "mu")
def generic_plane(sess: Session) -> CheckEntry:
    """Every generic all-Type-III orbit subplane, one that is neither a side
    subplane nor a conjugate of one, maps onto orbit elements.

    The line set of an orbit subplane is the set of its points' secants,
    and ``sec`` is a bijection off the triangle sides, so the involution
    images of the subplane of class C are mu[sec[C]] (points) and mu[C]
    (lines).  Classes have one or q^2+q+1 members, so q^2+q+1 distinct
    images with one owner are exactly one class, or one class's line set.
    """
    tables = sess.plane.tables
    mu, sec, phi = tables.mu, tables.sec, tables.phi
    owner = tables.orbit                                    # point -> class rep
    line_owner = np.full(sess.plane.size, -1, dtype=np.int32)   # line -> class rep
    off = sec >= 0                                          # the plane classes
    line_owner[sec[off]] = owner[off]
    # the side subplanes and their two conjugates
    side = set()
    for th in sess.norm_reps():
        pts = np.array([sess.plane.index(P) for P in ls.t_plane(sess.ctx, th).points])
        for members in (pts, phi[pts], phi[phi[pts]]):
            side.update(owner[members].tolist())
    generic = [cl for cl in sess.classes
               if cl.category == "plane_III_III" and cl.members[0] not in side]
    members = np.array([cl.members for cl in generic],
                       dtype=np.int32).reshape(len(generic), sess.ctx.sub_order)
    point_ok = _one_class(mu[sec[members]], owner)
    line_ok = _one_class(mu[members], line_owner)
    bad = []
    for i in np.flatnonzero(~(point_ok & line_ok)):
        rep = format_point(generic[i].rep)
        if not point_ok[i]:
            bad.append(f"line image of {rep} is no orbit class")
        if not line_ok[i]:
            bad.append(f"point image of {rep} is no orbit line set")
    return entry("mu.generic-plane",
                 "involution images of generic all-Type-III subplanes are again orbit elements",
                 not bad, {"tested": len(generic), "mode": "exhaustive"}, bad[:5])


@check("maps", "mu", applies=lambda ctx: ctx.figueroa_ok)
def block_incidence_twist(sess: Session) -> CheckEntry:
    # the incidence twist behind the third line class: a Type III point is
    # in the Type III part of the anchor block exactly when its involution
    # image passes through the anchor 0:0:1, that is, is a line [a:b:0]
    tables = sess.plane.tables
    mu = tables.mu
    member = np.zeros(len(mu), dtype=bool)
    member[[sess.plane.index(P) for P in fg.fig_block(sess.ctx, ANCHOR).f_points]] = True
    through = tables.field.coords(np.arange(len(mu)))[2] == 0
    type3 = tables.types == TYPE_III
    bad = np.flatnonzero(type3 & (member != through[mu]))[:5]
    return entry("mu.block-incidence-twist",
                 "Type III block membership at the anchor equals anchor incidence of the involution image",
                 not bad.size, {}, [format_point(sess.plane.point(i)) for i in bad])


@check("maps", "pr-sp")
def t_plane_images(sess: Session) -> CheckEntry:
    ctx = sess.ctx
    bad = []
    for th in sess.norm_reps():
        B = ls.t_plane(ctx, th)
        th2 = ctx.mul(th, th)
        if gm.pr_set(ctx, B) != ls.sls_points(ctx, th2):
            bad.append(f"projection of plane {th}")
        if gm.sp_set(ctx, B) != ls.sls_points(ctx, ctx.neg(th2)):
            bad.append(f"splash of plane {th}")
    return entry("projection.t-planes",
                 "projection and splash of each side subplane are the squared-norm linear sets",
                 not bad, {"norm_classes": ctx.q - 1}, bad[:5])


@check("maps", "pr-sp")
def parity_table(sess: Session) -> CheckEntry:
    ctx = sess.ctx
    s1 = ls.sls_points(ctx, ctx.one)
    sm1 = ls.sls_points(ctx, ctx.neg_one)
    fixed = ls.fixed_subplane(ctx)
    checks = {}
    t_s1 = {point_type(ctx, P) for P in s1}
    checks["pencil_of_one_is_type_II"] = ls.pencil_type(ctx, ctx.one) == TYPE_II
    checks["pr_fixed_is_norm_one"] = gm.pr_set(ctx, fixed) == s1
    if ctx.q % 2 == 0:
        checks["s1_type_II"] = t_s1 == {TYPE_II}
        checks["sp_fixed_is_norm_one"] = gm.sp_set(ctx, fixed) == s1
    else:
        m1 = ls.t_plane(ctx, ctx.neg_one)
        checks["s1_type_III"] = t_s1 == {TYPE_III}
        checks["s_minus1_type_II"] = {point_type(ctx, P) for P in sm1} == {TYPE_II}
        checks["pencil_of_minus_one_is_type_III"] = \
            ls.pencil_type(ctx, ctx.neg_one) == TYPE_III
        checks["mu_line_of_minus_plane"] = gm.involution_line_image(ctx, m1) == s1
        checks["pr_minus_plane"] = gm.pr_set(ctx, m1) == s1
        checks["sp_fixed"] = gm.sp_set(ctx, fixed) == sm1
        checks["sp_minus_plane"] = gm.sp_set(ctx, m1) == sm1
        checks["sp_of_mu_pt_minus_plane"] = frozenset(
            gm.splash(ctx, l) for l in gm.involution_point_image(ctx, m1)) == sm1
    bad = [k for k, v in checks.items() if not v]
    return entry("projection.parity-table",
                 "the norm-one and norm-minus-one linear sets, pencils and subplanes obey the parity table",
                 not bad, {k: str(v) for k, v in checks.items()}, bad)


@check("maps", "pr-sp")
def pencil_census(sess: Session) -> CheckEntry:
    ctx = sess.ctx
    q = ctx.q
    tys = [ls.pencil_type(ctx, th) for th in sess.norm_reps()]
    ok = tys.count(TYPE_II) == 1 and tys.count(TYPE_III) == q - 2
    # which pencils meet the axis in the Type II linear set, per parity
    sm1_class = ctx.norm_class(ctx.neg_one)
    ii_pencil_class = tys.index(TYPE_II)
    if q % 2 == 0:
        ok = ok and ii_pencil_class == sm1_class
    else:
        ok = ok and ii_pencil_class != sm1_class and tys[sm1_class] == TYPE_III
    return entry("projection.pencil-census",
                 "exactly one pencil is Type II, and pencil versus base types follow the parity rule",
                 ok, {"type_II": tys.count(TYPE_II), "type_III": tys.count(TYPE_III)}, [])


@check("maps", "pr-sp")
def projection_vs_splash(sess: Session) -> CheckEntry:
    ctx = sess.ctx
    bad = []
    for th in sess.norm_reps():
        B = ls.t_plane(ctx, th)
        pr, sp = gm.pr_set(ctx, B), gm.sp_set(ctx, B)
        if (pr == sp) != (ctx.q % 2 == 0):
            bad.append(f"plane {th}")
        if gm.project_from_vertex(ctx, ANCHOR, B).points != pr:
            bad.append(f"anchor projection of plane {th}")
    return entry("projection.vs-splash",
                 "projection equals splash exactly for even q, and the anchor is an ordinary vertex",
                 not bad, {}, bad[:5])


def _fixed_planes(sess: Session, id: str, claim: str, found, reps, expected: int,
                  ok: bool = True) -> CheckEntry:
    """Entry for an exhaustive scan that found the classes ``found``, which
    must be the ``expected`` subplanes through the closed-form ``reps``."""
    want = {frozenset(sess.plane.index(P) for P in ls.plane_from_rep(sess.ctx, R).points)
            for R in reps}
    got = {frozenset(cl.members) for cl in found}
    ok = ok and len(found) == expected and got == want
    return entry(id, claim, ok,
                 {"found": len(found), "expected": expected,
                  "representatives": " ".join(format_point(cl.rep) for cl in found)},
                 [] if ok else [format_point(cl.rep) for cl in found])


@check("maps", "fixed")
def collineation_fixed(sess: Session) -> CheckEntry:
    found = gm.phi_fixed_planes(sess.plane, sess.classes)
    return _fixed_planes(
        sess, "fixed.collineation",
        "exhaustive scan finds exactly gcd(3, q-1) collineation-fixed subplanes, the closed-form ones",
        found, gm.expected_phi_fixed_reps(sess.ctx), math.gcd(3, sess.ctx.q - 1),
        all(cl.category in ("plane_I_I", "plane_III_III") for cl in found))


@check("maps", "fixed")
def involution_fixed(sess: Session) -> CheckEntry:
    reps = [R for R in gm.expected_phi_fixed_reps(sess.ctx) if R != (1, 1, 1)]
    return _fixed_planes(
        sess, "fixed.involution",
        "exhaustive scan finds exactly the zero or two involution-fixed subplanes",
        gm.mu_fixed_planes(sess.plane, sess.classes), reps,
        0 if math.gcd(3, sess.ctx.q - 1) == 1 else 2)


@check("maps", "vertices")
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


@check("maps", "vertices")
def count_spectrum(sess: Session) -> CheckEntry:
    s = sess.ctx.sub_order
    allowed = {1, s} if sess.ctx.q % 2 == 0 else {0, s, s + 1}
    bad = [f"class {j}: {c}" for j, c in sess.fixed_census.counts().items()
           if c not in allowed]
    return entry("vertices.count-spectrum",
                 "per-target vertex counts stay inside the admissible spectrum for the parity of q",
                 not bad, {"allowed": sorted(allowed)}, bad)


@check("maps", "vertices")
def cross_plane(sess: Session) -> CheckEntry:
    ctx = sess.ctx
    bad = []
    tables = sess.plane.tables
    for jk in range(ctx.q - 1):
        kappa = ctx.norm_class_rep(jk)
        vertices = sorted(ls.t_plane(ctx, kappa).points)
        for jt in range(ctx.q - 1):
            if jt == jk:
                continue
            theta = ctx.norm_class_rep(jt)
            Bt = ls.t_plane(ctx, theta)
            # an image is the side linear set of a norm class exactly
            # when it is classified as scattered with that class
            want = ctx.norm_class(ctx.neg(ctx.mul(kappa, theta)))
            wrong = np.flatnonzero(tables.project(vertices, Bt.points) != want)
            if wrong.size:
                V = vertices[wrong[0]]
                bad.append(f"vertex {format_point(V)} of plane {kappa} onto plane {theta}")
    return entry("vertices.cross-plane",
                 "from any point of one side subplane, another norm class projects onto the negated-product linear set",
                 not bad, {"pairs": (ctx.q - 1) * (ctx.q - 2)}, bad[:5])


@check("maps", "vertices")
def club_images(sess: Session) -> CheckEntry:
    vc = sess.fixed_census
    return entry("vertices.club-images",
                 "club images (one point of weight two) occur among the scanned vertices",
                 vc.club > 0, {"club_images": vc.club}, [])


# -------------------------------------------------------------- figueroa

@check("figueroa", "build")
def block_anatomy(sess: Session) -> CheckEntry:
    ctx = sess.ctx
    block = fg.fig_block(ctx, ANCHOR)
    axis_part = {P for P in block.points if P[2] == 0}
    others = block.f_points - {ANCHOR_1, ANCHOR_2}
    want_planes = set()
    for th in sess.norm_reps():
        if ctx.norm(th) != 1:
            want_planes.update(ls.t_plane(ctx, th).points)
    conj = fg.fig_block(ctx, ANCHOR_1)
    checks = {
        "size": len(block.points) == ctx.q ** 3 + 1,
        "axis_overlap": len(axis_part) == ctx.sub_order + 2,
        "carriers": ANCHOR_1 in block.f_points and ANCHOR_2 in block.f_points,
        "type3_part": others == want_planes,
        "equivariant": conj.points == frozenset(
            collineate_point(ctx, P) for P in block.points),
    }
    bad = [k for k, v in checks.items() if not v]
    return entry("fig.block",
                 "the anchor block splits into the Type II axis part plus the reciprocal subplanes and carriers",
                 not bad, {"size": len(block.points)}, bad)


@check("figueroa", "build")
def block_sizes(sess: Session) -> CheckEntry:
    # rows are stored sorted, so a block of k distinct points in range is
    # a strictly increasing row of width k from 0 to n - 1; its E part,
    # the Type II points of the line it replaces, has q^2 + q + 1 points,
    # and a block has no Type I point
    struct, types = sess.fig_structure, sess.plane.tables.types
    fig = np.flatnonzero(np.array(struct.tags) == "fig")
    bad = []
    for L in chunks(fig, struct.blocks.shape[1]):
        rows = struct.blocks[L]
        kinds = types[np.clip(rows, 0, struct.size - 1)]
        ok = ((rows.shape[1] == sess.ctx.q3 + 1) & (rows[:, 0] >= 0)
              & (rows[:, -1] < struct.size) & (np.diff(rows, axis=1) > 0).all(axis=1)
              & (np.count_nonzero(kinds == TYPE_II, axis=1) == sess.ctx.sub_order)
              & (kinds != TYPE_I).all(axis=1))
        bad.extend(L[~ok].tolist())
    # a fig row replacing line L is the block anchored at mu[L]
    anchors = sess.plane.tables.mu[bad[:5]]
    return entry("fig.block-sizes",
                 "every block has exactly q^3 + 1 points, q^2 + q + 1 of them Type II and none Type I",
                 not bad, {"anchors": len(fig), "mode": "exhaustive"},
                 [format_point(sess.plane.point(a)) for a in anchors])


@check("figueroa", "build")
def assembly(sess: Session) -> CheckEntry:
    """Row-aligned, chunk by chunk: block L replaces line L, and phi maps
    lines by the point formula, so invariance is sort(phi[blocks[L]]) ==
    blocks[phi[L]]; a k-set is a line exactly when it is the incidence row
    of the join of its first two points."""
    struct = sess.fig_structure
    plane = sess.plane
    q, s = sess.ctx.q, sess.ctx.sub_order
    blocks, tags = struct.blocks, struct.tags
    n_I, n_II, n_fig = (tags.count(t) for t in ("line_I", "line_II", "fig"))
    F, inc, phi = plane.tables.field, plane.tables.incidence, plane.tables.phi
    fig = np.array(tags) == "fig"
    agree = fig_differ = True
    for L in chunks(np.arange(len(blocks)), blocks.shape[1]):
        rows, kept = blocks[L], ~fig[L]
        agree &= np.array_equal(rows[kept], inc[L[kept]])
        new = rows[~kept & (rows[:, 0] != rows[:, 1])]
        joins = F.index(*F.canonical(*F.cross(F.coords(new[:, 0]), F.coords(new[:, 1]))))
        fig_differ &= not (inc[joins] == new).all(axis=1).any()
    checks = {
        "block_count": len(blocks) == plane.size,
        "kept_line_counts": n_I == s and n_II == (q ** 3 - q) * s,
        "kept_lines_agree": agree,
        "blocks_differ_from_lines": fig_differ,
        "collineation_invariant": fg.first_moved_row(blocks, phi, phi) is None,
    }
    bad = [k for k, v in checks.items() if not v]
    return entry("fig.build",
                 "the assembled plane keeps Type I and II lines, replaces each Type III line, and is collineation invariant",
                 not bad,
                 {"blocks": len(blocks), "line_I": n_I, "line_II": n_II, "fig": n_fig},
                 bad)


@check("figueroa", "axioms")
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


@check("figueroa", "axioms")
def axioms_reference(sess: Session) -> CheckEntry:
    rep = fg.check_axioms(fg.pg_incidence(sess.plane))
    return entry("fig.axioms-reference",
                 "the unmodified plane passes the same axiom checker",
                 rep.ok, {"mode": rep.mode, "representatives": rep.representatives},
                 rep.witnesses)


@check("figueroa", "axioms")
def axioms_mutation(sess: Session) -> CheckEntry:
    struct = sess.fig_structure
    mutated = fg.IncidencePlane(sess.plane, struct.blocks.copy(), list(struct.tags))
    i = struct.tags.index("fig")
    mutated.blocks[i] = sess.plane.tables.incidence[i]
    rep = fg.check_axioms(mutated)
    return entry("fig.axioms-mutation",
                 "replacing one block by the line it displaced breaks the axioms with a witness",
                 (not rep.ok) and bool(rep.witnesses),
                 {"mode": rep.mode, "representatives": rep.representatives,
                  "witnesses": len(rep.witnesses)}, rep.witnesses[:2])


@check("figueroa", "pr")
def projection_anchor(sess: Session) -> CheckEntry:
    ctx = sess.ctx
    q = ctx.q
    img = fg.pr_fig_block(ctx, 0)
    want = fg.expected_pr_fig_block(ctx, 0)
    if q % 2 == 0:
        size_want = q ** 3 + 1
    else:
        size_want = 2 + (q - 1 if q % 4 == 1 else q + 1) // 2 * ctx.sub_order
    ok = img == want and len(img) == size_want
    return entry("fig.projection-anchor",
                 "the anchor block projects onto the whole axis (even q) or the square-norm side (odd q)",
                 ok, {"image_size": len(img), "expected_size": size_want},
                 [] if ok else ["image does not match the closed form"])


@check("figueroa", "pr")
def projection_conjugates(sess: Session) -> CheckEntry:
    images = {which: fg.pr_fig_block(sess.ctx, which) for which in (1, 2)}
    bad = [f"conjugate {which}" for which, img in images.items()
           if img != fg.expected_pr_fig_block(sess.ctx, which)]
    return entry("fig.projection-conjugates",
                 "each conjugate block projects onto the axis minus the norm-one set and its own vertex",
                 not bad, {"image_size": len(images[1])}, bad)


@check("figueroa", "arching")
def arching(sess: Session) -> CheckEntry:
    ctx = sess.ctx
    ac = fg.arching_census(ctx)
    bad = []
    for j, c in ac.per_class.items():
        nt = ctx.norm(ctx.norm_class_rep(j))
        want = 1 if ctx.q % 2 == 0 else (2 if ctx.is_nonzero_square(nt) else 0)
        if c != want:
            bad.append(f"pencil class {j}: arches {c}, expected {want}")
    return entry("fig.arching",
                 "pencils arch over one subplane each (even q) or two per square norm class (odd q)",
                 not bad,
                 {f"class_{j}": c for j, c in sorted(ac.per_class.items())},
                 bad)


@check("figueroa", "characterization")
def characterization(sess: Session) -> CheckEntry:
    rep = fg.characterize_fig_points(sess.plane, sess.fixed_census)
    return entry("fig.characterization",
                 "off the axis, block membership is equivalent to projecting the fixed subplane onto a side linear set",
                 rep.ok,
                 {"vertices": rep.vertex_count, "expected": rep.expected_count},
                 rep.mismatches)


@check("figueroa", "even-structure", applies=lambda ctx: ctx.q % 2 == 0)
def even_structure(sess: Session) -> CheckEntry:
    rep = fg.even_structure_check(sess.ctx)
    return entry("fig.even-structure",
                 "for even q, every line through a triangle vertex carries one conjugated block point of exactly one kind",
                 rep.ok,
                 {"anchor_ok": str(rep.per_vertex_ok[0]),
                  "conjugate1_ok": str(rep.per_vertex_ok[1]),
                  "conjugate2_ok": str(rep.per_vertex_ok[2])},
                 rep.witnesses)


@check("figueroa", "sp-mu")
def splash_involution(sess: Session) -> CheckEntry:
    rep = fg.splash_involution_check(sess.ctx)
    return entry("fig.splash-involution",
                 "splash after the involution bijects the Type III block part onto the axis minus the norm-one set",
                 rep.ok,
                 {"image_size": rep.image_size,
                  "injective": str(rep.injective),
                  "type3_iff_even": str(rep.image_all_type3_iff_even)},
                 [])
