import numpy as np
import pytest

from figplane.collineation import TYPE_II, TYPE_III, collineate_point, point_type
from figplane.figueroa import (IncidencePlane, arching_census, build_fig_plane,
                               characterize_fig_points, check_axioms,
                               even_structure_check, emit_plane, fig_block,
                               pg_incidence, pr_fig_block,
                               expected_pr_fig_block, splash_involution_check)
from figplane.linear_sets import sls_points, t_plane
from figplane.maps import TypeRestrictionError
from figplane.plane import (ANCHOR, ANCHOR_1, ANCHOR_2, AXIS, GeometryError,
                            format_point, join, points_on_line)


def test_block_anatomy_q3(ctx3):
    block = fig_block(ctx3, ANCHOR)
    assert len(block.points) == 28
    assert len(block.e_points) == 13
    assert block.line == AXIS
    assert {ANCHOR_1, ANCHOR_2} <= block.f_points
    # overlap with the replaced line
    axis_pts = set(points_on_line(ctx3, AXIS))
    assert len(block.points & axis_pts) == 13 + 2
    # Type III part beyond the carriers is the union of the reciprocal planes
    rest = block.f_points - {ANCHOR_1, ANCHOR_2}
    tau = 2
    assert rest == t_plane(ctx3, tau).points
    assert {point_type(ctx3, P) for P in block.e_points} == {TYPE_II}
    assert {point_type(ctx3, P) for P in block.f_points} == {TYPE_III}
    assert ANCHOR not in block.points


def test_block_equivariance(ctx3):
    b0 = fig_block(ctx3, ANCHOR)
    b1 = fig_block(ctx3, ANCHOR_1)
    assert b1.points == frozenset(collineate_point(ctx3, P) for P in b0.points)


def test_block_rejects_bad_anchor(ctx3):
    with pytest.raises(TypeRestrictionError):
        fig_block(ctx3, (1, 1, 1))


def test_block_sizes_all_anchors_q3(plane3, types3):
    ctx = plane3.ctx
    for P, t in zip(plane3.points, types3):
        if t == TYPE_III:
            assert len(fig_block(ctx, P).points) == 28


def test_build_counts(fig3, fig4):
    assert len(fig3.blocks) == 757
    assert all(len(b) == 28 for b in fig3.blocks)
    assert fig3.tags.count("line_I") == 13
    assert fig3.tags.count("line_II") == 312
    assert fig3.tags.count("fig") == 432
    assert len(fig4.blocks) == 4161
    assert all(len(b) == 65 for b in fig4.blocks)


def test_build_agrees_with_pg_on_kept_lines(plane3, fig3):
    pg_rows = [tuple(b) for b in pg_incidence(plane3).blocks.tolist()]
    fig_rows = [tuple(b) for b in fig3.blocks.tolist()]
    pg_set = set(pg_rows)
    for i, tag in enumerate(fig3.tags):
        if tag == "fig":
            assert fig_rows[i] != pg_rows[i]
            assert fig_rows[i] not in pg_set
        else:
            assert fig_rows[i] == pg_rows[i]


def test_block_arrays_are_read_only_int32(plane3, fig3):
    for structure in (fig3, pg_incidence(plane3)):
        assert structure.blocks.shape == (757, 28)
        assert structure.blocks.dtype == np.int32
        assert not structure.blocks.flags.writeable


def test_fig_blocks_contain_triangles(plane3, fig3):
    # a block is no line: exhibit three non-collinear members
    ctx = plane3.ctx
    i = fig3.tags.index("fig")
    pts = [plane3.points[j] for j in fig3.blocks[i][:3]]
    l = join(ctx, pts[0], pts[1])
    from figplane.plane import incident
    assert not incident(ctx, pts[2], l)


def test_build_collineation_invariant(plane3, fig3):
    ctx = plane3.ctx
    perm = [plane3.point_index[collineate_point(ctx, P)] for P in plane3.points]
    block_set = {frozenset(b) for b in fig3.blocks}
    assert all(frozenset(perm[i] for i in b) in block_set for b in fig3.blocks)


def test_build_rejects_q2():
    from figplane.field import build_field_tower
    from figplane.plane import ProjectivePlane
    ctx = build_field_tower(2, 1)
    with pytest.raises(GeometryError):
        build_fig_plane(ProjectivePlane(ctx))


def test_axioms_pass(plane3, fig3, fig4):
    assert check_axioms(pg_incidence(plane3)).ok
    rep = check_axioms(fig3)
    assert rep.ok and rep.mode == "full"
    assert check_axioms(fig4).ok


def _line_mutation(plane, fig):
    """FIG with its first replaced line put back: sizes fail nowhere, but
    point degrees and pairs do."""
    mutated = IncidencePlane(plane, fig.blocks.copy(), list(fig.tags))
    i = fig.tags.index("fig")
    mutated.blocks[i] = sorted(plane.points_on(plane.lines[i]))
    return mutated


def _swap_mutation(fig):
    """Blocks b1, b2 through a common point x trade y in b1 for z in b2.

    Block sizes and point degrees are unchanged, so only the pair count
    sees it: y now shares b2 with points it already had a block with."""
    mutated = IncidencePlane(fig.plane, fig.blocks.copy(), list(fig.tags))
    b1, b2 = set(fig.blocks[0].tolist()), set(fig.blocks[1].tolist())
    (x,) = b1 & b2
    y, z = max(b1 - b2), max(b2 - b1)
    mutated.blocks[0] = sorted(b1 - {y} | {z})
    mutated.blocks[1] = sorted(b2 - {z} | {y})
    return mutated


def _brute_force_axioms(structure, max_witnesses=5):
    """Reference pair count: blocks through each point as sets."""
    n = structure.size
    k = structure.plane.ctx.q ** 3 + 1
    through = [set() for _ in range(n)]
    for bi, b in enumerate(structure.blocks):
        for P in b:
            through[P].add(bi)
    witnesses = []
    pairs_ok = True
    for P in range(n):
        for Q in range(n):
            c = len(through[P] & through[Q]) if Q != P else 1
            if c != 1:
                pairs_ok = False
                if len(witnesses) < max_witnesses:
                    witnesses.append(
                        f"point pair {format_point(structure.plane.points[P])} , "
                        f"{format_point(structure.plane.points[Q])} lies in {c} blocks")
        if len(witnesses) >= max_witnesses:
            break
    sizes_ok = len(structure.blocks) == n and all(len(b) == k for b in structure.blocks)
    degrees_ok = all(len(s) == k for s in through)
    return sizes_ok, degrees_ok, pairs_ok, witnesses


def test_axioms_mutation_fails_with_witness(plane3, fig3):
    rep = check_axioms(_line_mutation(plane3, fig3))
    assert not rep.ok and not rep.point_degree_ok
    assert rep.witnesses


def test_axioms_swap_mutation_caught_by_pairs_only(fig3):
    rep = check_axioms(_swap_mutation(fig3))
    assert rep.block_size_ok and rep.point_degree_ok
    assert not rep.point_pairs_ok and not rep.ok
    assert any(w.endswith("lies in 2 blocks") for w in rep.witnesses)


def test_axioms_reject_a_wrong_block_shape(fig3):
    """A block array with a row or a column too few fails the size check."""
    short = IncidencePlane(fig3.plane, fig3.blocks[:-1], fig3.tags[:-1])
    rep = check_axioms(short)
    assert not rep.ok and not rep.block_size_ok and not rep.point_degree_ok
    narrow = IncidencePlane(fig3.plane, fig3.blocks[:, :-1], fig3.tags)
    rep = check_axioms(narrow)
    assert not rep.ok and not rep.block_size_ok and not rep.point_degree_ok
    assert rep.witnesses


def test_axioms_match_brute_force(plane3, fig3):
    from figplane.field import build_field_tower
    from figplane.plane import ProjectivePlane
    pg8 = pg_incidence(ProjectivePlane(build_field_tower(2, 1)))
    assert pg8.size == 73
    for structure in (pg8, fig3, _line_mutation(plane3, fig3), _swap_mutation(fig3)):
        rep = check_axioms(structure)
        sizes_ok, degrees_ok, pairs_ok, witnesses = _brute_force_axioms(structure)
        assert (rep.block_size_ok, rep.point_degree_ok, rep.point_pairs_ok) == \
            (sizes_ok, degrees_ok, pairs_ok)
        assert rep.ok == (sizes_ok and degrees_ok and pairs_ok)
        assert rep.witnesses == witnesses
        assert rep.mode == "full"
        assert rep.checked_pairs == structure.size * (structure.size - 1)


def _build_failures(fig, blocks):
    """The failing sub-checks that ``fig.build`` names for a session whose
    FIG structure has the given blocks."""
    from figplane.suites import Session, figueroa_checks
    sess = Session(fig.plane.ctx)
    sess.plane = fig.plane
    sess.fig_structure = IncidencePlane(fig.plane, blocks, list(fig.tags))
    (build,) = [e for e in figueroa_checks(sess, "build") if e.id == "fig.build"]
    assert build.passed == (build.witnesses == [])
    return build.witnesses


def test_build_check_names_each_failing_subcheck(plane3, fig3):
    """Each vectorized ``fig.build`` sub-check fails alone, with its name as
    the witness, on a mutation that leaves the other sub-checks true."""
    inc, phi = plane3.tables.incidence, plane3.tables.phi
    assert _build_failures(fig3, fig3.blocks) == []
    # a whole collineation orbit of blocks put back to the lines they
    # displaced: still invariant, but some blocks are lines now
    i = fig3.tags.index("fig")
    blocks = fig3.blocks.copy()
    for j in {i, phi[i], phi[phi[i]]}:
        blocks[j] = inc[j]
    assert _build_failures(fig3, blocks) == ["blocks_differ_from_lines"]
    # one Type I line replaced by another: both are fixed by the collineation
    l1, l2 = [j for j, t in enumerate(fig3.tags) if t == "line_I"][:2]
    assert phi[l1] == l1 and phi[l2] == l2
    blocks = fig3.blocks.copy()
    blocks[l1] = inc[l2]
    assert _build_failures(fig3, blocks) == ["kept_lines_agree"]
    # one block with one point traded: a k-set that is no line and whose
    # collineation image is no block
    block = set(fig3.blocks[i].tolist())
    outside = min(set(range(plane3.size)) - block)
    blocks = fig3.blocks.copy()
    blocks[i] = sorted(block - {max(block)} | {outside})
    assert _build_failures(fig3, blocks) == ["collineation_invariant"]


def test_projection_of_anchor_block(ctx3, ctx4, ctx5):
    img3 = pr_fig_block(ctx3, 0)
    assert len(img3) == 28
    assert img3 == expected_pr_fig_block(ctx3, 0)
    img4 = pr_fig_block(ctx4, 0)
    assert len(img4) == 65
    assert img4 == frozenset(points_on_line(ctx4, AXIS))
    img5 = pr_fig_block(ctx5, 0)
    assert len(img5) == 64
    assert img5 == expected_pr_fig_block(ctx5, 0)
    # odd q: the image is the two carriers, the norm minus-one set, and
    # the sets of every theta whose norm is a square
    want5 = {ANCHOR_1, ANCHOR_2} | set(sls_points(ctx5, ctx5.neg_one))
    for theta in ctx5.units():
        if ctx5.is_nonzero_square(ctx5.norm(theta)):
            want5 |= set(sls_points(ctx5, theta))
    assert img5 == want5


def test_projection_of_conjugate_blocks(ctx3, ctx4):
    for ctx in (ctx3, ctx4):
        axis = frozenset(points_on_line(ctx, AXIS))
        s1 = sls_points(ctx, 1)
        assert pr_fig_block(ctx, 1) == axis - s1 - {ANCHOR_1}
        assert pr_fig_block(ctx, 2) == axis - s1 - {ANCHOR_2}


def test_arching_census(ctx3, ctx4, ctx5):
    assert arching_census(ctx3).sorted_counts() == (2, 0)
    assert arching_census(ctx4).sorted_counts() == (1, 1, 1)
    assert arching_census(ctx5).sorted_counts() == (2, 2, 0, 0)
    for ctx in (ctx3, ctx5):
        ac = arching_census(ctx)
        for j, c in ac.per_class.items():
            nt = ctx.norm(ctx.norm_class_rep(j))
            assert c == (2 if ctx.is_nonzero_square(nt) else 0)


def test_characterization(plane3, plane4):
    for plane in (plane3, plane4):
        rep = characterize_fig_points(plane)
        assert rep.ok
        assert rep.vertex_count == rep.expected_count


def test_characterization_witness_sets_q3(plane3):
    ctx = plane3.ctx
    block = fig_block(ctx, ANCHOR)
    off_axis = {P for P in block.points if P[2] != 0}
    assert off_axis == t_plane(ctx, ctx.neg_one).points
    assert len(off_axis) + 1 == 14


def test_even_structure(ctx4):
    rep = even_structure_check(ctx4)
    assert rep.ok and rep.per_vertex_ok == (True, True, True)


def test_even_structure_q8():
    from figplane.field import build_field_tower
    ctx = build_field_tower(2, 3)
    rep = even_structure_check(ctx)
    assert rep.ok


def test_even_structure_rejects_odd(ctx3):
    with pytest.raises(GeometryError):
        even_structure_check(ctx3)


def test_even_structure_mutation(ctx4):
    from figplane.figueroa import FigBlock
    block = fig_block(ctx4, ANCHOR)
    removed = sorted(block.f_points - {ANCHOR_1, ANCHOR_2})[0]
    mutated = FigBlock(block.anchor, block.line, block.e_points,
                       block.f_points - {removed})
    rep = even_structure_check(ctx4, mutated)
    assert not rep.ok
    # the break at the anchor shows exactly on the line joining it to the
    # removed point
    bad_line = join(ctx4, ANCHOR, removed)
    from figplane.plane import lines_through_point, points_on_line
    violations = []
    for l in lines_through_point(ctx4, ANCHOR):
        pts = points_on_line(ctx4, l)
        nf = sum(1 for P in pts if P in mutated.f_points)
        ne = sum(1 for P in pts if P in mutated.e_points)
        if (nf, ne) not in ((1, 0), (0, 1)):
            violations.append(l)
    assert violations == [bad_line]


def test_splash_involution(ctx3, ctx4):
    rep3 = splash_involution_check(ctx3)
    assert rep3.ok and rep3.image_size == 15
    axis3 = frozenset(points_on_line(ctx3, AXIS))
    assert rep3.image_size == len(axis3 - sls_points(ctx3, 1))
    rep4 = splash_involution_check(ctx4)
    assert rep4.ok and rep4.image_size == 44
    # even q: the image is exactly the Type III axis points
    type3 = {P for P in points_on_line(ctx4, AXIS)
             if point_type(ctx4, P) == TYPE_III}
    assert rep4.image_size == len(type3)


def test_emit_plane(tmp_path, fig3):
    path = tmp_path / "fig27.txt"
    emit_plane(fig3, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "FIG 27 757"
    assert len(lines) == 758
    row = list(map(int, lines[1].split()))
    assert len(row) == 28 and all(0 <= i < 757 for i in row)


GUARD_SCRIPT = """
import itertools, sys
import numpy as np
from figplane import figueroa, linear_sets
from figplane.field import build_field_tower
from figplane.plane import ANCHOR, GeometryError, ProjectivePlane

ctx = build_field_tower(3, 1)
fired = []

def attempt(name, fn, *args):
    try:
        fn(*args)
    except GeometryError:
        fired.append(name)

flip = itertools.count()
linear_sets.line_type = lambda ctx, l: 1 + next(flip) % 2
attempt("pencil_type", linear_sets.pencil_type, ctx, 1)
figueroa.points_on_line = lambda ctx, l: []
attempt("fig_block", figueroa.fig_block, ctx, ANCHOR)
plane = ProjectivePlane(ctx)
types = plane.tables.types
plane.tables.types = np.where(types == 2, 1, types)   # no Type II: short blocks
attempt("build_fig_plane", figueroa.build_fig_plane, plane)
ctx.units = lambda: range(1, 10)
attempt("sls_points", linear_sets.sls_points, ctx, 1)
attempt("t_plane", linear_sets.t_plane, ctx, 1)
attempt("plane_from_rep", linear_sets.plane_from_rep, ctx, (1, 2, 3))
print(sys.flags.optimize, *fired)
"""


def test_guards_fire_under_optimize():
    """The size and uniformity guards are raises, which ``python -O``,
    unlike ``assert``, keeps."""
    import os
    import subprocess
    import sys
    import figplane
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(figplane.__file__)))
    out = subprocess.run([sys.executable, "-O", "-c", GUARD_SCRIPT], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["1", "pencil_type", "fig_block", "build_fig_plane",
                           "sls_points", "t_plane", "plane_from_rep"]
