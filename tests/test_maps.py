import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from figplane.collineation import (TYPE_II, TYPE_III, VERTEX, OrbitInconsistency,
                                   collineate_line, collineate_point, line_type,
                                   partition_orbits, point_type)
from figplane.field import context_for_q
from figplane.linear_sets import fixed_subplane, plane_from_rep, t_plane
from figplane.maps import (TypeRestrictionError, anchor_cross, anchor_projections,
                           axis_points, conjugate_join, conjugate_meet,
                           expected_phi_fixed_reps, mu_fixed_planes,
                           phi_fixed_planes, vertex_census)
from figplane.plane import (ANCHOR, ANCHOR_1, ANCHOR_2, AXIS, GeometryError,
                            ProjectivePlane, canonical, join)

from set_oracle import (conjugate_subplane, fixed_set, involution_line_image,
                        involution_point_image, pencil_set, plane_set, pr_set,
                        project_from_anchor, project_from_vertex, sls_set, sp_set, splash,
                        t_plane_set, triples, units)


def test_involution_frame(ctx3):
    assert conjugate_join(ctx3, ANCHOR) == AXIS
    # the line joining the anchor to its first conjugate maps to the second
    l = join(ctx3, ANCHOR, ANCHOR_1)
    assert l == (0, 1, 0)
    assert collineate_line(ctx3, l) == (0, 0, 1)
    assert collineate_line(ctx3, l, 2) == (1, 0, 0)
    assert conjugate_meet(ctx3, l) == ANCHOR_2


def test_involution_exhaustive_q3(plane3, types3):
    ctx = plane3.ctx
    lines = plane3.points   # the same triples, as lines
    line_types = [line_type(ctx, l) for l in lines]
    for P, t in zip(plane3.points, types3):
        if t == TYPE_III:
            img = conjugate_join(ctx, P)
            assert line_type(ctx, img) == TYPE_III
            assert conjugate_meet(ctx, img) == P
    for l, t in zip(lines, line_types):
        if t == TYPE_III:
            img = conjugate_meet(ctx, l)
            assert point_type(ctx, img) == TYPE_III
            assert conjugate_join(ctx, img) == l


def test_involution_type_errors(ctx3):
    with pytest.raises(TypeRestrictionError):
        conjugate_join(ctx3, (1, 1, 1))
    with pytest.raises(TypeRestrictionError):
        conjugate_meet(ctx3, (1, 1, 1))
    s = next(s for s in units(ctx3) if ctx3.norm(s) == ctx3.neg_one)
    with pytest.raises(TypeRestrictionError):
        conjugate_join(ctx3, canonical(ctx3, (s, 1, 0)))


def test_involution_on_planes(ctx3, ctx4, ctx5):
    for ctx in (ctx3, ctx4, ctx5):
        for j in range(ctx.q - 1):
            th = ctx.norm_class_rep(j)
            if ctx.norm(th) == 1:
                continue
            B = t_plane_set(ctx, th)
            assert involution_line_image(ctx, B) == \
                sls_set(ctx, ctx.neg(ctx.inv(th)))
            assert involution_point_image(ctx, B) == \
                pencil_set(ctx, ctx.inv(th))


def test_involution_on_conjugate_planes(ctx3):
    tau = 2
    B = t_plane_set(ctx3, tau)
    for side in (1, 2):
        C = conjugate_subplane(ctx3, B, side)
        want_pts = frozenset(collineate_point(ctx3, P, side)
                             for P in sls_set(ctx3, ctx3.neg(ctx3.inv(tau))))
        assert involution_line_image(ctx3, C) == want_pts
        want_lns = frozenset(collineate_line(ctx3, l, side)
                             for l in pencil_set(ctx3, ctx3.inv(tau)))
        assert involution_point_image(ctx3, C) == want_lns


def test_involution_on_generic_plane(plane4, classes4):
    ctx = plane4.ctx
    side_sets = set()
    for th in units(ctx):
        pts = t_plane_set(ctx, th).points
        for i in range(3):
            side_sets.add(frozenset(collineate_point(ctx, P, i) for P in pts))
    generic = next(members for members in classes4.members(classes4.of("plane_III_III")).tolist()
                   if frozenset(plane4.points[i] for i in members) not in side_sets)
    B = plane_set(ctx, plane4.point(generic[0]))
    img = involution_line_image(ctx, B)
    M = classes4.members(np.flatnonzero(classes4.categories != VERTEX))
    member_sets = {frozenset(members) for members in M.tolist()}
    assert frozenset(plane4.index(P) for P in img) in member_sets


def test_involution_rejects_type1_plane(ctx3):
    with pytest.raises(TypeRestrictionError):
        involution_point_image(ctx3, fixed_set(ctx3))


def test_projection_splash_point_level(ctx3):
    assert project_from_anchor(ctx3, ANCHOR_1) == ANCHOR_1
    with pytest.raises(GeometryError):
        project_from_anchor(ctx3, ANCHOR)
    with pytest.raises(GeometryError):
        splash(ctx3, AXIS)
    for l in pencil_set(ctx3, 1):
        assert splash(ctx3, l) in sls_set(ctx3, 1)


def test_axis_points_are_the_axis(plane3, plane4):
    for plane in (plane3, plane4):
        assert axis_points(plane.ctx).tolist() == sorted(
            plane.index(P) for P in plane.points if P[2] == 0)


def test_bulk_anchor_maps_match_the_scalar_maps(plane3, plane4):
    """Exhaustive: the anchor projection of every point, its join with the
    anchor and the splash of every line, each read as an index, and both
    bulk maps refuse the anchor, which is the axis read as a line."""
    for plane in (plane3, plane4):
        ctx, idx, tables = plane.ctx, plane.index, plane.tables
        rest = [T for T in plane.points if T != ANCHOR]
        i = np.array([idx(T) for T in rest])
        assert anchor_projections(tables, i).tolist() == [
            idx(project_from_anchor(ctx, P)) for P in rest]
        assert anchor_cross(tables, i).tolist() == [idx(join(ctx, ANCHOR, P)) for P in rest]
        assert anchor_cross(tables, i).tolist() == [idx(splash(ctx, l)) for l in rest]
        for bulk in (anchor_projections, anchor_cross):
            with pytest.raises(GeometryError):
                bulk(tables, [idx(ANCHOR)])


def test_projection_splash_images(ctx3, ctx4, ctx5):
    for ctx in (ctx3, ctx4, ctx5):
        for j in range(ctx.q - 1):
            th = ctx.norm_class_rep(j)
            B = t_plane_set(ctx, th)
            th2 = ctx.mul(th, th)
            assert pr_set(ctx, B) == sls_set(ctx, th2)
            assert sp_set(ctx, B) == sls_set(ctx, ctx.neg(th2))
        assert pr_set(ctx, fixed_set(ctx)) == sls_set(ctx, 1)


def test_parity_table(ctx3, ctx4, ctx5):
    for ctx in (ctx3, ctx4, ctx5):
        q = ctx.q
        s1 = sls_set(ctx, 1)
        fixed = fixed_set(ctx)
        if q % 2 == 0:
            assert {point_type(ctx, P) for P in s1} == {TYPE_II}
            assert pr_set(ctx, fixed) == s1 == sp_set(ctx, fixed)
        else:
            sm1 = sls_set(ctx, ctx.neg_one)
            m1 = t_plane_set(ctx, ctx.neg_one)
            assert {point_type(ctx, P) for P in s1} == {TYPE_III}
            assert {point_type(ctx, P) for P in sm1} == {TYPE_II}
            assert pr_set(ctx, fixed) == pr_set(ctx, m1) == s1
            assert involution_line_image(ctx, m1) == s1
            assert sp_set(ctx, fixed) == sp_set(ctx, m1) == sm1
            assert frozenset(splash(ctx, l)
                             for l in involution_point_image(ctx, m1)) == sm1


def test_project_from_vertex_examples(ctx3):
    tau = 2
    fixed = fixed_set(ctx3)
    # from a point of the other subplane family onto the negated product
    for V in sorted(t_plane_set(ctx3, tau).points)[:3]:
        img = project_from_vertex(ctx3, V, fixed)
        assert img.kind == "sls"
        assert img.points == sls_set(ctx3, ctx3.neg(tau))
    # the anchor is a vertex projecting onto the squared norm class
    for th in (1, tau):
        B = t_plane_set(ctx3, th)
        img = project_from_vertex(ctx3, ANCHOR, B)
        assert img.kind == "sls"
        assert img.points == sls_set(ctx3, ctx3.mul(th, th))
        assert img.points == pr_set(ctx3, B)


def test_project_from_vertex_cross_planes(ctx3, ctx4):
    for ctx in (ctx3, ctx4):
        for jk in range(ctx.q - 1):
            kappa = ctx.norm_class_rep(jk)
            for jt in range(ctx.q - 1):
                if jt == jk:
                    continue
                theta = ctx.norm_class_rep(jt)
                want = sls_set(ctx, ctx.neg(ctx.mul(kappa, theta)))
                B = t_plane_set(ctx, theta)
                for V in sorted(t_plane_set(ctx, kappa).points):
                    assert project_from_vertex(ctx, V, B).points == want


def test_project_from_vertex_club_found(plane3, types3):
    ctx = plane3.ctx
    fixed = fixed_set(ctx)
    found = None
    for P, t in zip(plane3.points, types3):
        if t == TYPE_II and P[2] != 0 and P not in fixed.points:
            img = project_from_vertex(ctx, P, fixed)
            if img.kind == "club":
                found = img
                break
    assert found is not None
    assert len(found.points) == 10


def test_project_from_vertex_rejections(ctx3):
    fixed = fixed_set(ctx3)
    with pytest.raises(GeometryError):
        project_from_vertex(ctx3, canonical(ctx3, (1, 1, 0)), fixed)
    with pytest.raises(GeometryError):
        project_from_vertex(ctx3, (1, 1, 1), fixed)


def test_vertex_census_distribution(plane3, plane4, plane5):
    for plane in (plane3, plane4, plane5):
        ctx = plane.ctx
        q = ctx.q
        vc = vertex_census(plane, fixed_subplane(ctx))
        counts = vc.counts()
        assert sum(counts.values()) == q ** 3 - q ** 2 - q - 1
        s = ctx.sub_order
        for j, c in counts.items():
            nt = ctx.norm(ctx.norm_class_rep(j))
            if q % 2 == 0:
                assert c == (1 if nt == 1 else s)
            elif nt == ctx.neg_one:
                assert c == 0
            elif nt == 1:
                assert c == s + 1
            else:
                assert c == s


def test_vertex_census_witness_sets_q3(plane3):
    ctx = plane3.ctx
    vc = vertex_census(plane3, fixed_subplane(ctx))
    onto_norm_one = triples(ctx, vc.by_class[ctx.norm_class(1)])
    assert onto_norm_one == {ANCHOR} | triples(ctx, t_plane(ctx, ctx.neg_one).points)
    assert vc.by_class[ctx.norm_class(ctx.neg_one)] == []


def test_vertex_census_q4_singleton(plane4):
    ctx = plane4.ctx
    vc = vertex_census(plane4, fixed_subplane(ctx))
    assert vc.by_class[ctx.norm_class(1)] == [plane4.index(ANCHOR)]


def test_fixed_planes(plane3, classes3, plane4, classes4):
    for plane, classes in ((plane3, classes3), (plane4, classes4)):
        q = plane.ctx.q
        g = math.gcd(3, q - 1)
        phif = phi_fixed_planes(plane, classes)
        muf = mu_fixed_planes(plane, classes)
        assert len(phif) == g
        assert len(muf) == (0 if g == 1 else 2)
        reps = expected_phi_fixed_reps(plane.ctx)
        assert len(reps) == g
        want = {plane_from_rep(plane.ctx, R).points for R in reps}
        assert set(map(tuple, classes.members(phif).tolist())) == want
        assert set(phif.tolist()) <= set(classes.of("plane_I_I").tolist()
                                         + classes.of("plane_III_III").tolist())


def _mu_fixed_by_class(plane, classes):
    """The per-class scan that the one array pass of ``mu_fixed_planes``
    replaced, kept as its oracle: the positions of the fixed classes."""
    mu, sec = plane.tables.mu, plane.tables.sec
    out = []
    for j in classes.of("plane_III_III").tolist():
        members = classes.members([j])[0]
        lines = np.sort(sec(members))
        if np.array_equal(np.sort(mu[members]), lines):
            if not np.array_equal(np.sort(mu[lines]), members):
                raise OrbitInconsistency(
                    f"involution fixes lines but not points at {plane.point(members[0])}")
            out.append(j)
    return out


@pytest.mark.parametrize("q", [3, 4, 5, 7])
def test_mu_fixed_planes_match_the_class_loop(q):
    plane = ProjectivePlane(context_for_q(q))
    classes = partition_orbits(plane)
    got, want = mu_fixed_planes(plane, classes), _mu_fixed_by_class(plane, classes)
    assert got.tolist() == want and len(want) == (2 if (q - 1) % 3 == 0 else 0)


def test_mu_fixed_planes_guard_names_a_one_way_class(plane4, classes4):
    # a stand-in mu sends the points of one non-fixed class onto its own
    # secant lines, while those lines still map elsewhere
    tables = plane4.tables
    fixed = mu_fixed_planes(plane4, classes4).tolist()
    j = [j for j in classes4.of("plane_III_III").tolist() if j not in fixed][-1]
    members = classes4.members([j])[0]
    mu = tables.mu.copy()
    mu[members] = tables.sec(members)
    stand_in = SimpleNamespace(tables=SimpleNamespace(mu=mu, sec=tables.sec),
                               point=plane4.point, ctx=plane4.ctx)
    message = f"involution fixes lines but not points at {plane4.point(members[0])}"
    for scan in (mu_fixed_planes, _mu_fixed_by_class):
        with pytest.raises(OrbitInconsistency, match=re.escape(message)):
            scan(stand_in, classes4)


def test_involution_check_reports_a_corrupted_table(ctx3):
    from figplane.plane import format_point
    from figplane.suites import Session, maps_checks
    sess = Session(ctx3)
    tables = sess.plane.tables
    mu = tables.mu.copy()
    type3 = [i for i, t in enumerate(tables.types.tolist()) if t == TYPE_III]
    i = type3[0]
    mu[i] = mu[type3[1]]        # no longer sent back to i
    tables.mu = mu
    (rep,) = [e for e in maps_checks(sess, which="mu") if e.id == "mu.involution"]
    assert rep.status == "fail"
    assert format_point(sess.plane.points[i]) in rep.witnesses
    assert rep.counts["mode"] == "exhaustive"
