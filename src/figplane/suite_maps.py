"""The maps suite: the involution mu, projection and splash from the
anchor, the subplanes fixed by the collineation and by mu, and the
projection vertices of the fixed subplane.

Importing this module registers its checks in the check table of
:mod:`figplane.suites`, in report order.
"""

from __future__ import annotations

import math

import numpy as np

from . import figueroa as fg
from . import linear_sets as ls
from . import maps as gm
from .arrays import chunks, span
from .collineation import TYPE_II, TYPE_III, TYPE_NAMES
from .plane import ANCHOR, GeometryError, format_line, format_point
from .report import CheckEntry, entry
from .suites import Session, check


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


@check("maps", "mu", gates=(fg.FIGUEROA,), reads=("tables",))
def block_incidence_twist(sess: Session) -> CheckEntry:
    # the incidence twist behind the third line class: a Type III point is
    # in the Type III part of the anchor block exactly when its involution
    # image passes through the anchor 0:0:1, that is, is a line [a:b:0]
    tables = sess.plane.tables
    mu, types, bad = tables.mu, tables.types, []
    part = np.sort(fg.anchor_parts(sess.plane)[1])
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
    must be the ``expected`` subplanes through the closed-form ``reps``;
    it names at most five representatives and five witnesses.  Member rows
    are compared only when the scan found ``expected`` classes; otherwise a
    plane is missing when the class of its representative was not found."""
    plane, classes = sess.plane, sess.classes
    found = np.asarray(found, dtype=np.intp)
    found_reps = [format_point(plane.point(i)) for i in classes.reps[found[:5]]]
    if len(found) == expected:
        want = [frozenset(plane.index(P) for P in ls.plane_from_rep(sess.ctx, R).points)
                for R in reps]
        got = {frozenset(row) for row in classes.members(found).tolist()}
        ok = ok and got == set(want)
        missing = [R for R, points in zip(reps, want) if points not in got]
    else:
        ok = False
        of_reps = plane.tables.orbit[[plane.index(R) for R in reps]]
        missing = [R for R, seen in zip(reps, np.isin(of_reps, classes.reps[found])) if not seen]
    missing = [f"no class is the subplane through {format_point(R)}" for R in missing]
    return entry(id, claim, ok,
                 {"found": len(found), "expected": expected,
                  "representatives": " ".join(found_reps)},
                 [] if ok else (found_reps + missing)[:5])


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
