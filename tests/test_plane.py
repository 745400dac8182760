import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from figplane.plane import (ANCHOR, ANCHOR_1, ANCHOR_2, AXIS, GeometryError,
                            ProjectivePlane, canonical, format_line,
                            format_point, incident, join, lines_through_point,
                            meet)
from figplane.figueroa import check_axioms, pg_incidence

from set_oracle import points_on_line


def test_canonical_examples(ctx3):
    a, b = 5, 9
    assert canonical(ctx3, (0, a, b)) == (0, 1, ctx3.div(b, a))
    c = 17
    assert canonical(ctx3, (c, c, c)) == (1, 1, 1)
    assert canonical(ctx3, canonical(ctx3, (0, a, b))) == canonical(ctx3, (0, a, b))
    with pytest.raises(GeometryError):
        canonical(ctx3, (0, 0, 0))


@given(st.tuples(st.integers(0, 26), st.integers(0, 26), st.integers(0, 26)),
       st.integers(1, 26))
@settings(max_examples=300)
def test_canonical_scaling_invariance(t, lam):
    from figplane.field import build_field_tower
    ctx = build_field_tower(3, 1)
    if t == (0, 0, 0):
        return
    scaled = tuple(ctx.mul(lam, x) for x in t)
    assert canonical(ctx, t) == canonical(ctx, scaled)


def test_frame_incidences(ctx3):
    assert not incident(ctx3, ANCHOR, AXIS)
    assert incident(ctx3, ANCHOR_1, AXIS)
    assert incident(ctx3, ANCHOR_2, AXIS)
    assert join(ctx3, ANCHOR_1, ANCHOR_2) == AXIS


def test_join_meet(ctx3):
    assert join(ctx3, (1, 0, 0), (0, 1, 0)) == (0, 0, 1)
    assert meet(ctx3, (0, 0, 1), (0, 1, 0)) == (1, 0, 0)
    rng = random.Random(3)
    plane = ProjectivePlane(ctx3)
    for _ in range(200):
        P, Q, R = (plane.points[rng.randrange(len(plane))] for _ in range(3))
        if len({P, Q, R}) < 3:
            continue
        l = join(ctx3, P, Q)
        assert incident(ctx3, P, l) and incident(ctx3, Q, l)
        if not incident(ctx3, R, l):
            assert meet(ctx3, join(ctx3, P, Q), join(ctx3, P, R)) == P
    with pytest.raises(GeometryError):
        join(ctx3, (1, 1, 1), (1, 1, 1))


def test_enumeration_counts(plane3, plane4):
    assert len(plane3) == 757
    assert len(set(plane3.points)) == 757
    assert len(plane4) == 4161
    assert all(P == canonical(plane3.ctx, P) for P in plane3.points)


def test_closed_form_index_matches_enumeration(ctx3, ctx4):
    for ctx in (ctx3, ctx4):
        plane = ProjectivePlane(ctx)
        assert [plane.point(i) for i in range(plane.size)] == plane.points
        assert [plane.index(P) for P in plane.points] == list(range(plane.size))
        for bad in ((2, 0, 0), (0, 0, 0), (1, ctx.q3, 0)):
            with pytest.raises(GeometryError):
                plane.index(bad)
        for bad in (-1, plane.size):
            with pytest.raises(GeometryError):
                plane.point(bad)


def test_no_suite_builds_the_point_lists(ctx3):
    """Every suite reads the closed-form index, so the points list stays
    unbuilt."""
    from figplane.suites import Session, census_checks, figueroa_checks, maps_checks
    sess = Session(ctx3)
    entries = census_checks(sess) + maps_checks(sess) + figueroa_checks(sess)
    assert all(e.passed for e in entries)
    assert "points" not in vars(sess.plane)


def test_line_sizes_spot_check(plane3):
    ctx = plane3.ctx
    rng = random.Random(11)
    for _ in range(100):
        l = plane3.point(rng.randrange(len(plane3)))
        pts = points_on_line(ctx, l)
        assert len(set(pts)) == 28
        assert all(incident(ctx, P, l) for P in pts)


def test_pencil_of_lines(plane3):
    ctx = plane3.ctx
    lns = lines_through_point(ctx, ANCHOR)
    assert len(set(lns)) == 28
    assert all(incident(ctx, ANCHOR, l) for l in lns)


def test_plane_axioms_exhaustive_q3(plane3):
    rep = check_axioms(pg_incidence(plane3))
    assert rep.ok and rep.mode == "orbit-reduced"


def test_every_point_on_q3_plus_1_lines(plane3):
    ctx = plane3.ctx
    rng = random.Random(5)
    for _ in range(20):
        P = plane3.points[rng.randrange(len(plane3))]
        assert len(lines_through_point(ctx, P)) == 28


def test_format_point_and_line():
    assert format_point((0, 0, 1)) == "0:0:1"
    assert format_line(AXIS) == "[0:0:1]"
    assert format_point((1, 5, 10)) == "1:5:10"
