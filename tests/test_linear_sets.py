import pytest

from figplane.collineation import TYPE_II, TYPE_III, point_type, sls_id_of_point
from figplane.field import FieldError
from figplane.linear_sets import (fixed_subplane, is_subplane_closed,
                                  pencil_lines, pencil_type, plane_from_rep,
                                  sls_points, t_plane)
from figplane.plane import (ANCHOR, ANCHOR_1, ANCHOR_2, AXIS, canonical,
                            incident, points_on_line)


def norm_reps(ctx):
    return [ctx.norm_class_rep(j) for j in range(ctx.q - 1)]


def test_sls_basics(ctx3):
    s1 = sls_points(ctx3, 1)
    assert canonical(ctx3, (1, 1, 0)) in s1
    assert len(s1) == 13
    with pytest.raises(FieldError):
        sls_points(ctx3, 0)


def test_sls_norm_keyed(ctx3):
    for th in ctx3.units():
        for kappa in ctx3.units():
            same = ctx3.norm(th) == ctx3.norm(kappa)
            assert (sls_points(ctx3, th) == sls_points(ctx3, kappa)) == same


def test_sls_types(ctx3, ctx4):
    for ctx in (ctx3, ctx4):
        for th in norm_reps(ctx):
            types = {point_type(ctx, P) for P in sls_points(ctx, th)}
            want = TYPE_II if ctx.norm(th) == ctx.neg_one else TYPE_III
            assert types == {want}


def test_slses_partition_axis(ctx3):
    pieces = [sls_points(ctx3, th) for th in norm_reps(ctx3)]
    assert len(pieces) == 2
    assert not (pieces[0] & pieces[1])
    union = pieces[0] | pieces[1]
    assert union == set(points_on_line(ctx3, AXIS)) - {ANCHOR_1, ANCHOR_2}


def test_sls_sides(ctx3):
    from figplane.collineation import collineate_point
    s = sls_points(ctx3, 2, side=1)
    assert s == frozenset(collineate_point(ctx3, P) for P in sls_points(ctx3, 2))
    for P in s:
        ident = sls_id_of_point(ctx3, P)
        assert ident.side == 1 and ident.norm_class == ctx3.norm_class(2)


def test_pencil_types(ctx3):
    assert pencil_type(ctx3, 1) == TYPE_II
    tau = 2
    assert ctx3.norm(tau) != 1
    assert pencil_type(ctx3, tau) == TYPE_III
    for l in pencil_lines(ctx3, tau):
        assert incident(ctx3, ANCHOR, l)


def test_pencil_census(ctx3, ctx4, ctx5):
    for ctx in (ctx3, ctx4, ctx5):
        kinds = [pencil_type(ctx, th) for th in norm_reps(ctx)]
        assert kinds.count(TYPE_II) == 1
        assert kinds.count(TYPE_III) == ctx.q - 2


def test_t_plane_norm_one_is_fixed_subplane(ctx3):
    from figplane.collineation import collineate_point
    B = t_plane(ctx3, 1)
    assert all(collineate_point(ctx3, P) == P for P in B.points)
    assert B.points == fixed_subplane(ctx3).points


def test_t_plane_is_built_once(ctx3):
    assert t_plane(ctx3, 2) is t_plane(ctx3, 2)
    assert t_plane(ctx3, 2) is not t_plane(ctx3, 3)
    for _ in range(2):
        with pytest.raises(FieldError):
            t_plane(ctx3, 0)


def test_t_planes_distinct(ctx3, ctx4):
    for ctx in (ctx3, ctx4):
        planes = {t_plane(ctx, th).points for th in ctx.units()}
        assert len(planes) == ctx.q - 1


def test_t_plane_all_type3(ctx3):
    from figplane.collineation import line_type
    tau = 2
    B = t_plane(ctx3, tau)
    assert {point_type(ctx3, P) for P in B.points} == {TYPE_III}
    assert {line_type(ctx3, l) for l in B.lines} == {TYPE_III}


def test_plane_from_rep_unit_point(ctx3):
    B = plane_from_rep(ctx3, (1, 1, 1))
    fixed = fixed_subplane(ctx3)
    assert B.points == fixed.points and B.lines == fixed.lines
    f = ctx3.frob
    want_lines = {canonical(ctx3, (s, f(s), f(s, 2))) for s in ctx3.units()}
    assert B.lines == frozenset(want_lines)


def test_plane_from_rep_matches_t_plane(ctx3, ctx4):
    for ctx in (ctx3, ctx4):
        for th in norm_reps(ctx):
            R = canonical(ctx, (ctx.mul(th, ctx.frob(th)), 1, th))
            C = plane_from_rep(ctx, R)
            B = t_plane(ctx, th)
            assert C.points == B.points and C.lines == B.lines


def test_plane_from_rep_rejects_side_points(ctx3):
    with pytest.raises(FieldError):
        plane_from_rep(ctx3, (1, 1, 0))


def test_subplane_closure_q3(ctx3):
    for th in norm_reps(ctx3):
        B = t_plane(ctx3, th)
        assert is_subplane_closed(ctx3, B)
        for l in B.lines:
            assert sum(1 for P in B.points if incident(ctx3, P, l)) == 4


def test_line_set_independent_of_representative(ctx3):
    B = t_plane(ctx3, 2)
    for R in sorted(B.points)[:4]:
        assert plane_from_rep(ctx3, R).lines == B.lines
