"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines live.
Every expected value is exact; the few runtime bounds are asserted
directly against wall-clock measurements.
"""

import math
import subprocess
import sys
import time

import pytest

from figplane.field import build_field_tower
from figplane.plane import ANCHOR_1, ANCHOR_2, AXIS, ProjectivePlane
from figplane.collineation import (TYPE_I, TYPE_II, TYPE_III, census_of,
                                   expected_type_counts, partition_orbits,
                                   tally_types)
from figplane.linear_sets import fixed_subplane
from figplane.maps import (conjugate_join, conjugate_meet, mu_fixed_planes,
                           phi_fixed_planes, vertex_census)
from figplane.figueroa import (arching_census, build_fig_plane,
                               characterize_fig_points, check_axioms,
                               pr_fig_block, expected_pr_fig_block)
from figplane.suite_figueroa import even_structure, splash_involution
from figplane.suites import Session

from conftest import HeldRows, child_env, held
from set_oracle import (fixed_set, involution_line_image, involution_point_image, pencil_set,
                        points_on_line, pr_set, project_from_vertex, sls_set, sp_set, splash,
                        t_plane_set, triples)


def _ok(label):
    print(f"ACCEPTANCE {label}: PASS")


def test_01_orbit_census(plane3, classes3, ctx5, plane5):
    t0 = time.perf_counter()
    ctx = build_field_tower(3, 1)
    plane = ProjectivePlane(ctx)
    cen = census_of(plane)
    q3_elapsed = time.perf_counter() - t0
    assert cen.total_orbits == 61
    assert list(cen.orbit_counts.values()) == [3, 3, 3, 1, 21, 21, 9]
    assert q3_elapsed < 1.0, f"census at q=3 took {q3_elapsed:.2f}s"

    cen4 = census_of(ProjectivePlane(build_field_tower(2, 2)))
    assert list(cen4.orbit_counts.values()) == [3, 3, 6, 1, 57, 57, 74]

    t0 = time.perf_counter()
    cen5 = census_of(plane5)
    q5_elapsed = time.perf_counter() - t0
    assert (cen5.orbit_counts["plane_II_III"],
            cen5.orbit_counts["plane_III_II"],
            cen5.orbit_counts["plane_III_III"]) == (117, 117, 261)
    assert q5_elapsed < 30.0, f"census at q=5 took {q5_elapsed:.2f}s"
    _ok("01 orbit-census (q=3,4,5 with runtime bounds)")


def test_02_type_counts(plane3, plane4, plane5):
    for plane in (plane3, plane4, plane5):
        q = plane.ctx.q
        want = expected_type_counts(q)
        assert tally_types(plane.tables.types) == want   # points and lines alike
        assert want[TYPE_I] == q * q + q + 1
        assert want[TYPE_II] == (q ** 3 - q) * (q * q + q + 1)
    _ok("02 point-and-line type counts (q=3,4,5)")


def test_03_norm_det_identity_exhaustive(plane3, plane4, plane5):
    # every point off the triangle sides; the array pass is pinned to the
    # scalar norm_det_identity by tests/test_arrays.py
    for plane in (plane3, plane4, plane5):
        assert plane.tables.norm_det_mismatches().size == 0
    _ok("03 norm-determinant identity, every point off the sides at q=3,4,5")


def test_04_fixed_planes():
    expected = {3: (1, 0), 4: (3, 2), 5: (1, 0), 7: (3, 2)}
    for q, (nphi, nmu) in expected.items():
        p = 2 if q == 4 else q
        k = 2 if q == 4 else 1
        plane = ProjectivePlane(build_field_tower(p, k))
        classes = partition_orbits(plane)
        phif, muf = phi_fixed_planes(plane, classes), mu_fixed_planes(plane, classes)
        assert len(phif) == nphi == math.gcd(3, q - 1)
        assert len(muf) == nmu
        # class positions; the involution fixes two of the collineation's
        assert set(muf.tolist()) <= set(phif.tolist()) < set(range(len(classes)))
    _ok("04 collineation- and involution-fixed planes (q=3,4,5,7)")


def test_05_involution_action(ctx3, ctx4, ctx5, plane3, types3):
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
    # involution property, exhaustive at q=3
    ctx = plane3.ctx
    for P, t in zip(plane3.points, types3):
        if t == TYPE_III:
            assert conjugate_meet(ctx, conjugate_join(ctx, P)) == P
    for l in plane3.points:   # the same triples, as lines
        from figplane.collineation import line_type
        if line_type(ctx, l) == TYPE_III:
            assert conjugate_join(ctx, conjugate_meet(ctx, l)) == l
    _ok("05 involution action on side subplanes; involution exhaustive at q=3")


def test_06_projection_splash(ctx3, ctx4, ctx5):
    for ctx in (ctx3, ctx4, ctx5):
        q = ctx.q
        for j in range(q - 1):
            th = ctx.norm_class_rep(j)
            B = t_plane_set(ctx, th)
            th2 = ctx.mul(th, th)
            assert pr_set(ctx, B) == sls_set(ctx, th2)
            assert sp_set(ctx, B) == sls_set(ctx, ctx.neg(th2))
        # parity table
        s1 = sls_set(ctx, 1)
        fixed = fixed_set(ctx)
        from figplane.collineation import point_type
        if q % 2 == 0:
            assert {point_type(ctx, P) for P in s1} == {TYPE_II}
            assert pr_set(ctx, fixed) == s1 == sp_set(ctx, fixed)
        else:
            sm1 = sls_set(ctx, ctx.neg_one)
            m1 = t_plane_set(ctx, ctx.neg_one)
            assert {point_type(ctx, P) for P in s1} == {TYPE_III}
            assert pr_set(ctx, fixed) == pr_set(ctx, m1) == s1
            assert involution_line_image(ctx, m1) == s1
            assert sp_set(ctx, fixed) == sp_set(ctx, m1) == sm1
            assert frozenset(splash(ctx, l)
                             for l in involution_point_image(ctx, m1)) == sm1
    _ok("06 projection and splash of side subplanes with parity table (q=3,4,5)")


def test_07_cross_plane_projection(ctx3, ctx4):
    for ctx in (ctx3, ctx4):
        for jk in range(ctx.q - 1):
            kappa = ctx.norm_class_rep(jk)
            for jt in range(ctx.q - 1):
                if jt == jk:
                    continue
                theta = ctx.norm_class_rep(jt)
                B = t_plane_set(ctx, theta)
                want = sls_set(ctx, ctx.neg(ctx.mul(kappa, theta)))
                for V in t_plane_set(ctx, kappa).points:
                    assert project_from_vertex(ctx, V, B).points == want
    _ok("07 vertex projection across norm classes, all vertices (q=3,4)")


def test_08_projection_vertex_census(plane3, plane4, plane5):
    expected_totals = {3: 14, 4: 43, 5: 94}
    for plane in (plane3, plane4, plane5):
        ctx = plane.ctx
        q = ctx.q
        vc = vertex_census(plane, fixed_subplane(ctx))
        counts = vc.counts()
        assert sum(counts.values()) == expected_totals[q] == q ** 3 - q ** 2 - q - 1
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
    _ok("08 projection-vertex census with distribution (q=3,4,5)")


def test_09_block_projections(plane3, plane4, plane5):
    ctx3, ctx4, ctx5 = plane3.ctx, plane4.ctx, plane5.ctx
    assert len(pr_fig_block(plane4, 0)) == 65
    assert triples(ctx4, pr_fig_block(plane4, 0)) == frozenset(points_on_line(ctx4, AXIS))
    assert len(pr_fig_block(plane3, 0)) == 28
    assert pr_fig_block(plane3, 0).tolist() == expected_pr_fig_block(ctx3, 0).tolist()
    assert len(pr_fig_block(plane5, 0)) == 64
    assert pr_fig_block(plane5, 0).tolist() == expected_pr_fig_block(ctx5, 0).tolist()
    for plane in (plane3, plane4):
        axis = frozenset(points_on_line(plane.ctx, AXIS))
        s1 = sls_set(plane.ctx, 1)
        assert triples(plane.ctx, pr_fig_block(plane, 1)) == axis - s1 - {ANCHOR_1}
        assert triples(plane.ctx, pr_fig_block(plane, 2)) == axis - s1 - {ANCHOR_2}
    _ok("09 block projections from the anchor (q=3,4,5; conjugates q=3,4)")


def test_10_arching_census(ctx3, ctx4, ctx5):
    assert sorted(arching_census(ctx4).values(), reverse=True) == [1, 1, 1]
    assert sorted(arching_census(ctx3).values(), reverse=True) == [2, 0]
    assert sorted(arching_census(ctx5).values(), reverse=True) == [2, 2, 0, 0]
    for ctx in (ctx3, ctx5):
        for j, c in arching_census(ctx).items():
            sq = ctx.is_nonzero_square(ctx.norm(ctx.norm_class_rep(j)))
            assert c == (2 if sq else 0)
    _ok("10 arching census (q=3,4,5)")


def test_11_figueroa_axioms(plane3, plane4):
    t0 = time.perf_counter()
    fig3 = build_fig_plane(plane3)
    rep3 = check_axioms(fig3)
    q3_elapsed = time.perf_counter() - t0
    blocks3 = held(fig3).blocks
    assert len(blocks3) == 757 and all(len(b) == 28 for b in blocks3)
    assert rep3.ok and rep3.mode == "orbit-reduced"
    assert q3_elapsed < 10.0, f"axioms at q=3 took {q3_elapsed:.1f}s"

    t0 = time.perf_counter()
    fig4 = build_fig_plane(plane4)
    rep4 = check_axioms(fig4)
    q4_elapsed = time.perf_counter() - t0
    blocks4 = held(fig4).blocks
    assert len(blocks4) == 4161 and all(len(b) == 65 for b in blocks4)
    assert rep4.ok
    assert q4_elapsed < 180.0, f"axioms at q=4 took {q4_elapsed:.1f}s"

    mutated = HeldRows(plane3, blocks3.copy())
    i = list(plane3.tables.types).index(TYPE_III)
    mutated.blocks[i] = sorted(plane3.points_on(plane3.point(i)))
    bad = check_axioms(mutated)
    assert not bad.ok and bad.witnesses
    _ok("11 projective axioms of FIG(27) and FIG(64); mutation fails with witness")


def test_12_membership_characterization(plane3, plane4):
    for plane in (plane3, plane4):
        rep = characterize_fig_points(plane)
        assert rep.ok
        assert rep.vertex_count == rep.expected_count
    _ok("12 projection criterion for block membership, exhaustive (q=3,4)")


def test_13_even_structure():
    for p, k in ((2, 2), (2, 3)):
        e = even_structure(Session(build_field_tower(p, k)))
        assert e.passed and not e.witnesses
        assert e.counts == {"anchor_ok": "True", "conjugate1_ok": "True",
                            "conjugate2_ok": "True"}
    _ok("13 even-order structure on every line through the triangle (q=4,8)")


def test_14_splash_involution_bijection(ctx3, ctx4):
    for ctx in (ctx3, ctx4):
        e = splash_involution(Session(ctx))
        assert e.passed
        assert e.counts["injective"] == e.counts["type3_iff_even"] == "True"
    _ok("14 splash-involution bijection onto the axis minus the norm-one set (q=3,4)")


def test_15_report_determinism():
    cmd = [sys.executable, "-m", "figplane.cli", "verify", "--q", "3",
           "--suite", "all", "--format", "json", "--seed", "7"]
    a = subprocess.run(cmd, env=child_env(), capture_output=True, check=True)
    b = subprocess.run(cmd, env=child_env(), capture_output=True, check=True)
    assert a.returncode == 0 and a.stdout == b.stdout and a.stdout
    _ok("15 byte-identical reports across independent runs")
