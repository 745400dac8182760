"""Named verification checks, composed from the library operations.

Each check returns a :class:`figplane.report.CheckEntry` whose counts
and witnesses are built in deterministic order.  A :class:`Session`
caches the expensive shared artifacts (point/line type tables, the
orbit partition) so one CLI invocation classifies each object once.
"""

from __future__ import annotations

import math
import random
import time
from functools import cached_property

import numpy as np

from . import figueroa as fg
from . import linear_sets as ls
from . import maps as gm
from .collineation import (TYPE_II, TYPE_III, TYPE_NAMES, CATEGORIES,
                           census_of, collineate_line, collineate_point,
                           line_types_table, norm_det_identity,
                           partition_orbits, point_type, point_types_table,
                           expected_type_counts, tally_types)
from .field import FieldContext
from .plane import (ANCHOR, ANCHOR_1, ANCHOR_2, ProjectivePlane, canonical,
                    format_line, format_point, incident)
from .report import CheckEntry, entry


class Session:
    def __init__(self, ctx: FieldContext, seed: int = 0):
        self.ctx = ctx
        self.seed = seed

    @cached_property
    def plane(self) -> ProjectivePlane:
        return ProjectivePlane(self.ctx)

    @cached_property
    def point_types(self) -> list[int]:
        return point_types_table(self.plane)

    @cached_property
    def line_types(self) -> list[int]:
        return line_types_table(self.plane)

    @cached_property
    def classes(self):
        return partition_orbits(self.plane, self.point_types)

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


def _run(out: list, fn) -> None:
    """Time one check body and append its entry."""
    t0 = time.perf_counter()
    e = fn()
    e.elapsed_ms = (time.perf_counter() - t0) * 1000.0
    out.append(e)


# ---------------------------------------------------------------- census

def census_checks(sess: Session) -> list[CheckEntry]:
    ctx = sess.ctx
    out = []

    def categories():
        cen = sess.census
        ok = cen.matches_expected() and cen.total_points == sess.plane.size
        witnesses = []
        if not ok:
            for cat in CATEGORIES:
                got, want = cen.orbit_counts[cat], cen.expected()[cat]
                if got != want:
                    witnesses.append(f"category {cat}: {got} classes, expected {want}")
        counts = dict(cen.orbit_counts)
        counts["total_orbits"] = cen.total_orbits
        return entry("census.categories",
                     "stabilizer orbit classes realize the seven closed-form category counts",
                     ok, counts, witnesses)
    _run(out, categories)

    def sizes():
        bad = [cl for cl in sess.classes
               if len(cl.members) != (1 if cl.category == "vertex" else ctx.sub_order)]
        return entry("census.orbit-sizes",
                     "every class is one fixed vertex or has q^2+q+1 points, and the classes partition the plane",
                     not bad and sum(len(c.members) for c in sess.classes) == sess.plane.size,
                     {"classes": len(sess.classes), "points": sess.plane.size},
                     [format_point(cl.rep) for cl in bad[:5]])
    _run(out, sizes)

    for kind, table in (("point", lambda: sess.point_types),
                        ("line", lambda: sess.line_types)):
        def type_tally(kind=kind, table=table):
            tally = tally_types(table())
            want = expected_type_counts(ctx.q)
            return entry(f"census.{kind}-types",
                         f"{kind} counts per type match the closed forms",
                         tally == want,
                         {TYPE_NAMES[t]: tally[t] for t in sorted(tally)},
                         [] if tally == want else [f"expected {want}"])
        _run(out, type_tally)

    def permutes():
        perm = sess.plane.tables.phi.tolist()
        by_members = {frozenset(cl.members): cl.category for cl in sess.classes}
        bad = []
        for cl in sess.classes:
            image = frozenset(perm[i] for i in cl.members)
            if by_members.get(image) != cl.category:
                bad.append(format_point(cl.rep))
        return entry("census.collineation-permutes",
                     "the collineation permutes the orbit classes within their categories",
                     not bad, {"classes": len(sess.classes)}, bad[:5])
    _run(out, permutes)

    def identity_fuzz():
        rng = random.Random(sess.seed)
        trials = 10_000
        bad = []
        for _ in range(trials):
            P = canonical(ctx, (rng.randrange(1, ctx.q3), rng.randrange(1, ctx.q3),
                                rng.randrange(1, ctx.q3)))
            if not norm_det_identity(ctx, P):
                bad.append(format_point(P))
                if len(bad) >= 5:
                    break
        return entry("census.norm-det-identity",
                     "the norm and determinant relation holds on random points off the triangle sides",
                     not bad, {"trials": trials}, bad)
    _run(out, identity_fuzz)
    return out


# ------------------------------------------------------------------ maps

def _mu_checks(sess: Session) -> list[CheckEntry]:
    ctx = sess.ctx
    q = ctx.q
    out = []

    def involution():
        # one table serves points and lines: the same coordinates give the
        # same index, and mu is both the conjugate join and the conjugate meet
        types, mu = sess.plane.tables.types, sess.plane.tables.mu
        type3 = types == TYPE_III
        image = np.where(type3, mu, 0)
        bad = type3 & ((mu < 0) | (types[image] != TYPE_III)
                       | (mu[image] != np.arange(len(mu), dtype=np.int32)))
        bad_idx = np.flatnonzero(bad)[:5].tolist()
        witnesses = ([format_point(sess.plane.points[i]) for i in bad_idx]
                     + [format_line(sess.plane.lines[i]) for i in bad_idx])
        count = int(np.count_nonzero(type3))
        return entry("mu.involution",
                     "the conjugate join/meet maps are mutually inverse on Type III objects",
                     not witnesses,
                     {"points": count, "lines": count, "mode": "exhaustive"},
                     witnesses[:5])
    _run(out, involution)

    def rejects():
        ok = True
        try:
            gm.conjugate_join(ctx, (1, 1, 1))   # a fixed, Type I point
            ok = False
        except gm.TypeRestrictionError:
            pass
        try:
            gm.conjugate_meet(ctx, (1, 1, 1))   # a line of the fixed subplane
            ok = False
        except gm.TypeRestrictionError:
            pass
        return entry("mu.rejects-fixed-objects",
                     "applying the involution to a Type I object raises",
                     ok, {}, [])
    _run(out, rejects)

    def plane_images():
        bad = []
        for th in sess.norm_reps():
            if ctx.norm(th) == 1:
                continue
            B = ls.t_plane(ctx, th)
            want_pts = ls.sls_points(ctx, ctx.neg(ctx.inv(th)))
            want_lns = ls.pencil_lines(ctx, ctx.inv(th))
            if gm.involution_line_image(ctx, B) != want_pts:
                bad.append(f"line image of plane {th}")
            if gm.involution_point_image(ctx, B) != want_lns:
                bad.append(f"point image of plane {th}")
            for side in (1, 2):
                C = ls.conjugate_subplane(ctx, B, side)
                w_pts = frozenset(collineate_point(ctx, P, side) for P in want_pts)
                w_lns = frozenset(collineate_line(ctx, l, side) for l in want_lns)
                if gm.involution_line_image(ctx, C) != w_pts:
                    bad.append(f"line image of conjugate {side} of plane {th}")
                if gm.involution_point_image(ctx, C) != w_lns:
                    bad.append(f"point image of conjugate {side} of plane {th}")
        return entry("mu.plane-images",
                     "involution images of the side subplanes are the reciprocal-norm linear sets and pencils",
                     not bad, {"norm_classes": q - 2}, bad[:5])
    _run(out, plane_images)

    def generic_plane():
        side_sets = set()
        for th in sess.norm_reps():
            pts = ls.t_plane(ctx, th).points
            for i in range(3):
                side_sets.add(frozenset(collineate_point(ctx, P, i) for P in pts))
        idx = sess.plane.point_index
        plane_classes = [cl for cl in sess.classes if cl.category == "plane_III_III"]
        generic = [cl for cl in plane_classes
                   if frozenset(sess.plane.points[i] for i in cl.members) not in side_sets]
        point_sets = {frozenset(cl.members) for cl in sess.classes}
        # the line set of an orbit subplane is the set of its points' secants
        sec = sess.plane.tables.sec
        line_sets = {frozenset(sec[np.asarray(cl.members)].tolist())
                     for cl in sess.classes if cl.category.startswith("plane")}
        bad = []
        for cl in generic[:3]:
            B = ls.plane_from_rep(ctx, cl.rep)
            img_pts = frozenset(idx[P] for P in gm.involution_line_image(ctx, B))
            if img_pts not in point_sets:
                bad.append(f"line image of {format_point(cl.rep)} is no orbit class")
            img_lns = frozenset(idx[l] for l in gm.involution_point_image(ctx, B))
            if img_lns not in line_sets:
                bad.append(f"point image of {format_point(cl.rep)} is no orbit line set")
        return entry("mu.generic-plane",
                     "involution images of generic all-Type-III subplanes are again orbit elements",
                     not bad, {"tested": len(generic[:3])}, bad)
    _run(out, generic_plane)

    def fig_twist():
        # the incidence twist behind the third line class: a Type III point
        # belongs to the Type III part of an anchor's block exactly when
        # its involution image passes through the anchor
        block = fg.fig_block(ctx, ANCHOR)
        bad = []
        for P, t in zip(sess.plane.points, sess.point_types):
            if t != TYPE_III:
                continue
            member = P in block.f_points
            through = incident(ctx, ANCHOR, gm.conjugate_join(ctx, P))
            if member != through:
                bad.append(format_point(P))
                if len(bad) >= 5:
                    break
        return entry("mu.block-incidence-twist",
                     "Type III block membership at the anchor equals anchor incidence of the involution image",
                     not bad, {}, bad)
    if q <= 4 and ctx.figueroa_ok:
        _run(out, fig_twist)
    return out


def _pr_sp_checks(sess: Session) -> list[CheckEntry]:
    ctx = sess.ctx
    q = ctx.q
    out = []

    def theta_images():
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
                     not bad, {"norm_classes": q - 1}, bad[:5])
    _run(out, theta_images)

    def parity_table():
        s1 = ls.sls_points(ctx, ctx.one)
        sm1 = ls.sls_points(ctx, ctx.neg_one)
        fixed = ls.fixed_subplane(ctx)
        checks = {}
        t_s1 = {point_type(ctx, P) for P in s1}
        checks["pencil_of_one_is_type_II"] = ls.pencil_type(ctx, ctx.one) == TYPE_II
        checks["pr_fixed_is_norm_one"] = gm.pr_set(ctx, fixed) == s1
        if q % 2 == 0:
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
    _run(out, parity_table)

    def pencil_census():
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
    _run(out, pencil_census)

    def pr_vs_sp():
        bad = []
        for th in sess.norm_reps():
            B = ls.t_plane(ctx, th)
            pr, sp = gm.pr_set(ctx, B), gm.sp_set(ctx, B)
            if (pr == sp) != (q % 2 == 0):
                bad.append(f"plane {th}")
            if gm.project_from_vertex(ctx, ANCHOR, B).points != pr:
                bad.append(f"anchor projection of plane {th}")
        return entry("projection.vs-splash",
                     "projection equals splash exactly for even q, and the anchor is an ordinary vertex",
                     not bad, {}, bad[:5])
    _run(out, pr_vs_sp)
    return out


def _fixed_checks(sess: Session) -> list[CheckEntry]:
    ctx = sess.ctx
    q = ctx.q
    out = []
    g = math.gcd(3, q - 1)

    def phi_fixed():
        found = gm.phi_fixed_planes(sess.plane, sess.classes)
        idx = sess.plane.point_index
        want = set()
        for R in gm.expected_phi_fixed_reps(ctx):
            want.add(frozenset(idx[P] for P in ls.plane_from_rep(ctx, R).points))
        got = {frozenset(cl.members) for cl in found}
        extra_ok = all(cl.category in ("plane_I_I", "plane_III_III") for cl in found)
        ok = len(found) == g and got == want and extra_ok
        return entry("fixed.collineation",
                     "exhaustive scan finds exactly gcd(3, q-1) collineation-fixed subplanes, the closed-form ones",
                     ok, {"found": len(found), "expected": g,
                          "representatives": " ".join(format_point(cl.rep) for cl in found)},
                     [] if ok else [format_point(cl.rep) for cl in found])
    _run(out, phi_fixed)

    def mu_fixed():
        found = gm.mu_fixed_planes(sess.plane, sess.classes)
        idx = sess.plane.point_index
        want = set()
        for R in gm.expected_phi_fixed_reps(ctx):
            if R != (1, 1, 1):
                want.add(frozenset(idx[P] for P in ls.plane_from_rep(ctx, R).points))
        got = {frozenset(cl.members) for cl in found}
        expected_n = 0 if g == 1 else 2
        ok = len(found) == expected_n and got == want
        return entry("fixed.involution",
                     "exhaustive scan finds exactly the zero or two involution-fixed subplanes",
                     ok, {"found": len(found), "expected": expected_n,
                          "representatives": " ".join(format_point(cl.rep) for cl in found)},
                     [] if ok else [format_point(cl.rep) for cl in found])
    _run(out, mu_fixed)
    return out


def _vertex_checks(sess: Session) -> list[CheckEntry]:
    ctx = sess.ctx
    q = ctx.q
    out = []
    vc = sess.fixed_census

    def census_check():
        counts = vc.counts()
        total = sum(counts.values())
        s = ctx.sub_order
        bad = []
        for j in range(q - 1):
            nt = ctx.norm(ctx.norm_class_rep(j))
            if q % 2 == 0:
                want = 1 if nt == 1 else s
            elif nt == ctx.neg_one:
                want = 0
            elif nt == 1:
                want = s + 1
            else:
                want = s
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
    _run(out, census_check)

    def spectrum():
        allowed = {1, ctx.sub_order} if q % 2 == 0 else {0, ctx.sub_order, ctx.sub_order + 1}
        bad = [f"class {j}: {c}" for j, c in vc.counts().items() if c not in allowed]
        return entry("vertices.count-spectrum",
                     "per-target vertex counts stay inside the admissible spectrum for the parity of q",
                     not bad, {"allowed": sorted(allowed)}, bad)
    _run(out, spectrum)

    def cross_plane():
        bad = []
        pairs = 0
        tables = sess.plane.tables
        for jk in range(q - 1):
            kappa = ctx.norm_class_rep(jk)
            vertices = sorted(ls.t_plane(ctx, kappa).points)
            for jt in range(q - 1):
                if jt == jk:
                    continue
                theta = ctx.norm_class_rep(jt)
                Bt = ls.t_plane(ctx, theta)
                # an image is the side linear set of a norm class exactly
                # when it is classified as scattered with that class
                want = ctx.norm_class(ctx.neg(ctx.mul(kappa, theta)))
                pairs += 1
                wrong = np.flatnonzero(tables.project(vertices, Bt.points) != want)
                if wrong.size:
                    V = vertices[wrong[0]]
                    bad.append(f"vertex {format_point(V)} of plane {kappa} onto plane {theta}")
        return entry("vertices.cross-plane",
                     "from any point of one side subplane, another norm class projects onto the negated-product linear set",
                     not bad, {"pairs": pairs}, bad[:5])
    _run(out, cross_plane)

    def clubs_seen():
        return entry("vertices.club-images",
                     "club images (one point of weight two) occur among the scanned vertices",
                     vc.club > 0, {"club_images": vc.club}, [])
    _run(out, clubs_seen)
    return out


def maps_checks(sess: Session, which: str | None = None) -> list[CheckEntry]:
    out = []
    if which in (None, "mu"):
        out.extend(_mu_checks(sess))
    if which in (None, "pr-sp"):
        out.extend(_pr_sp_checks(sess))
    if which in (None, "fixed"):
        out.extend(_fixed_checks(sess))
    if which in (None, "vertices"):
        out.extend(_vertex_checks(sess))
    return out


# -------------------------------------------------------------- figueroa

def _build_checks(sess: Session) -> list[CheckEntry]:
    ctx = sess.ctx
    q = ctx.q
    out = []

    def block_anatomy():
        block = fg.fig_block(ctx, ANCHOR)
        axis_part = {P for P in block.points if P[2] == 0}
        others = block.f_points - {ANCHOR_1, ANCHOR_2}
        want_planes = set()
        for th in sess.norm_reps():
            if ctx.norm(th) != 1:
                want_planes.update(ls.t_plane(ctx, th).points)
        conj = fg.fig_block(ctx, ANCHOR_1)
        checks = {
            "size": len(block.points) == q ** 3 + 1,
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
    _run(out, block_anatomy)

    def block_sizes():
        if q == 3:
            anchors = [P for P, t in zip(sess.plane.points, sess.point_types)
                       if t == TYPE_III]
            mode = "exhaustive"
        else:
            rng = random.Random(sess.seed)
            anchors = []
            while len(anchors) < 20:
                P = sess.plane.points[rng.randrange(sess.plane.size)]
                if point_type(ctx, P) == TYPE_III:
                    anchors.append(P)
            mode = "sampled"
        bad = [format_point(A) for A in anchors
               if len(fg.fig_block(ctx, A).points) != q ** 3 + 1][:5]
        return entry("fig.block-sizes",
                     "every block has exactly q^3 + 1 points",
                     not bad, {"anchors": len(anchors), "mode": mode}, bad)
    _run(out, block_sizes)

    def assembly():
        struct = sess.fig_structure
        plane = sess.plane
        blocks = struct.blocks
        tags = struct.tags
        s = ctx.sub_order
        n_I = tags.count("line_I")
        n_II = tags.count("line_II")
        n_fig = tags.count("fig")
        inc = plane.tables.incidence
        fig = np.array(tags) == "fig"
        agree = np.array_equal(blocks[~fig], inc[~fig])
        fig_differ = not np.isin(_row_keys(blocks[fig]), _row_keys(inc)).any()
        image = np.sort(plane.tables.phi[blocks], axis=1)
        phi_invariant = bool(np.isin(_row_keys(image),
                                     _row_keys(np.sort(blocks, axis=1))).all())
        checks = {
            "block_count": len(blocks) == plane.size,
            "kept_line_counts": n_I == s and n_II == (q ** 3 - q) * s,
            "kept_lines_agree": agree,
            "blocks_differ_from_lines": fig_differ,
            "collineation_invariant": phi_invariant,
        }
        bad = [k for k, v in checks.items() if not v]
        return entry("fig.build",
                     "the assembled plane keeps Type I and II lines, replaces each Type III line, and is collineation invariant",
                     not bad,
                     {"blocks": len(blocks), "line_I": n_I,
                      "line_II": n_II, "fig": n_fig},
                     bad)
    _run(out, assembly)
    return out


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque scalar per row, equal exactly when the rows are, so that
    whole rows can be looked up with ``np.isin``."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()


def _axiom_checks(sess: Session) -> list[CheckEntry]:
    out = []

    def axioms():
        rep = fg.check_axioms(sess.fig_structure)
        return entry("fig.axioms",
                     "every point pair lies in one block and every block pair meets in one point",
                     rep.ok,
                     {"mode": rep.mode, "checked_pairs": rep.checked_pairs,
                      "block_size_ok": str(rep.block_size_ok),
                      "point_degree_ok": str(rep.point_degree_ok)},
                     rep.witnesses)
    _run(out, axioms)

    def pg_reference():
        rep = fg.check_axioms(fg.pg_incidence(sess.plane))
        return entry("fig.axioms-reference",
                     "the unmodified plane passes the same axiom checker",
                     rep.ok, {"mode": rep.mode}, rep.witnesses)
    _run(out, pg_reference)

    def mutation():
        struct = sess.fig_structure
        mutated = fg.IncidencePlane(sess.plane, struct.blocks.copy(), list(struct.tags))
        i = struct.tags.index("fig")
        mutated.blocks[i] = sorted(sess.plane.points_on(sess.plane.lines[i]))
        rep = fg.check_axioms(mutated)
        return entry("fig.axioms-mutation",
                     "replacing one block by the line it displaced breaks the axioms with a witness",
                     (not rep.ok) and bool(rep.witnesses),
                     {"witnesses": len(rep.witnesses)}, rep.witnesses[:2])
    _run(out, mutation)
    return out


def _projection_checks(sess: Session) -> list[CheckEntry]:
    ctx = sess.ctx
    q = ctx.q
    out = []

    def anchor_image():
        img = fg.pr_fig_block(ctx, 0)
        want = fg.expected_pr_fig_block(ctx, 0)
        if q % 2 == 0:
            size_want = q ** 3 + 1
        elif q % 4 == 1:
            size_want = 2 + (q - 1) // 2 * ctx.sub_order
        else:
            size_want = 2 + (q + 1) // 2 * ctx.sub_order
        ok = img == want and len(img) == size_want
        return entry("fig.projection-anchor",
                     "the anchor block projects onto the whole axis (even q) or the square-norm side (odd q)",
                     ok, {"image_size": len(img), "expected_size": size_want},
                     [] if ok else ["image does not match the closed form"])
    _run(out, anchor_image)

    def conjugate_images():
        bad = []
        for which in (1, 2):
            img = fg.pr_fig_block(ctx, which)
            if img != fg.expected_pr_fig_block(ctx, which):
                bad.append(f"conjugate {which}")
        return entry("fig.projection-conjugates",
                     "each conjugate block projects onto the axis minus the norm-one set and its own vertex",
                     not bad, {"image_size": len(fg.pr_fig_block(ctx, 1))}, bad)
    _run(out, conjugate_images)
    return out


def _arching_checks(sess: Session) -> list[CheckEntry]:
    ctx = sess.ctx
    q = ctx.q

    def arching():
        ac = fg.arching_census(ctx)
        bad = []
        for j, c in ac.per_class.items():
            nt = ctx.norm(ctx.norm_class_rep(j))
            want = 1 if q % 2 == 0 else (2 if ctx.is_nonzero_square(nt) else 0)
            if c != want:
                bad.append(f"pencil class {j}: arches {c}, expected {want}")
        return entry("fig.arching",
                     "pencils arch over one subplane each (even q) or two per square norm class (odd q)",
                     not bad,
                     {f"class_{j}": c for j, c in sorted(ac.per_class.items())},
                     bad)
    out = []
    _run(out, arching)
    return out


def _characterization_checks(sess: Session) -> list[CheckEntry]:
    def characterization():
        rep = fg.characterize_fig_points(sess.plane, sess.fixed_census)
        return entry("fig.characterization",
                     "off the axis, block membership is equivalent to projecting the fixed subplane onto a side linear set",
                     rep.ok,
                     {"vertices": rep.vertex_count, "expected": rep.expected_count},
                     rep.mismatches)
    out = []
    _run(out, characterization)
    return out


def _even_structure_checks(sess: Session) -> list[CheckEntry]:
    def even_structure():
        rep = fg.even_structure_check(sess.ctx)
        return entry("fig.even-structure",
                     "for even q, every line through a triangle vertex carries one conjugated block point of exactly one kind",
                     rep.ok,
                     {"anchor_ok": str(rep.per_vertex_ok[0]),
                      "conjugate1_ok": str(rep.per_vertex_ok[1]),
                      "conjugate2_ok": str(rep.per_vertex_ok[2])},
                     rep.witnesses)
    out = []
    _run(out, even_structure)
    return out


def _sp_mu_checks(sess: Session) -> list[CheckEntry]:
    def sp_mu():
        rep = fg.splash_involution_check(sess.ctx)
        return entry("fig.splash-involution",
                     "splash after the involution bijects the Type III block part onto the axis minus the norm-one set",
                     rep.ok,
                     {"image_size": rep.image_size,
                      "injective": str(rep.injective),
                      "type3_iff_even": str(rep.image_all_type3_iff_even)},
                     [])
    out = []
    _run(out, sp_mu)
    return out


def figueroa_checks(sess: Session, which: str | None = None) -> list[CheckEntry]:
    out = []
    if which in (None, "build"):
        out.extend(_build_checks(sess))
    if which in (None, "axioms"):
        out.extend(_axiom_checks(sess))
    if which in (None, "pr"):
        out.extend(_projection_checks(sess))
    if which in (None, "arching"):
        out.extend(_arching_checks(sess))
    if which in (None, "characterization"):
        out.extend(_characterization_checks(sess))
    if which == "even-structure" or (which is None and sess.ctx.q % 2 == 0):
        out.extend(_even_structure_checks(sess))
    if which in (None, "sp-mu"):
        out.extend(_sp_mu_checks(sess))
    return out
