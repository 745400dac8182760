import math
import re

import numpy as np
import pytest

from figplane.collineation import TYPE_II, TYPE_III, collineate_point, point_type
from figplane.figueroa import (IncidencePlane, arching_census, build_fig_plane,
                               characterize_fig_points, check_axioms,
                               even_structure_check, emit_plane, fig_block,
                               orbit_representatives, pg_incidence, pr_fig_block,
                               expected_pr_fig_block, splash_involution_check)
from figplane.linear_sets import sls_points, t_plane
from figplane.maps import TypeRestrictionError
from figplane.plane import (ANCHOR, ANCHOR_1, ANCHOR_2, AXIS, GeometryError,
                            format_line, join, points_on_line)


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
    assert rep.ok and rep.mode == "orbit-reduced" and not rep.witnesses
    assert check_axioms(fig4).ok


def _line_mutation(plane, fig):
    """FIG with its first replaced line put back: sizes fail nowhere, but
    point degrees and pairs do."""
    mutated = IncidencePlane(plane, fig.blocks.copy(), list(fig.tags))
    i = fig.tags.index("fig")
    mutated.blocks[i] = sorted(plane.points_on(plane.lines[i]))
    return mutated


def _swapped(fig, swaps):
    """FIG with rows L1 and L2 trading y (of L1) and z (of L2), for each
    (L1, L2, y, z) in ``swaps``."""
    mutated = IncidencePlane(fig.plane, fig.blocks.copy(), list(fig.tags))
    for L1, L2, y, z in swaps:
        b1, b2 = set(fig.blocks[L1].tolist()), set(fig.blocks[L2].tolist())
        mutated.blocks[L1] = sorted(b1 - {y} | {z})
        mutated.blocks[L2] = sorted(b2 - {z} | {y})
    return mutated


def _swap_mutation(fig):
    """Blocks b1, b2 through a common point x trade y in b1 for z in b2.

    Block sizes and point degrees are unchanged, so only the pair count
    sees it: y now shares b2 with points it already had a block with."""
    b1, b2 = set(fig.blocks[0].tolist()), set(fig.blocks[1].tolist())
    (x,) = b1 & b2
    return _swapped(fig, [(0, 1, max(b1 - b2), max(b2 - b1))])


def _orbit(start, generators):
    """The orbit of the index tuple ``start`` under the group generated by
    ``generators``, each one index table per tuple entry."""
    seen, todo = {start}, [start]
    while todo:
        t = todo.pop()
        for tables in generators:
            u = tuple(int(g[v]) for g, v in zip(tables, t))
            if u not in seen:
                seen.add(u)
                todo.append(u)
    return sorted(seen)


def _orbit_mutation(fig):
    """FIG with one whole <phi, tau>-orbit of 3(q^2+q+1) fig rows put back
    to the lines they displaced: still invariant, so only the cover at the
    representatives can see it."""
    tables = fig.plane.tables
    gens = [(tables.phi,), (tables.tau_line,)]
    size = 3 * fig.plane.ctx.sub_order
    orbit = next(o for o in (_orbit((L,), gens) for L in range(fig.size)
                             if fig.tags[L] == "fig") if len(o) == size)
    rows = [L for (L,) in orbit]
    mutated = IncidencePlane(fig.plane, fig.blocks.copy(), list(fig.tags))
    mutated.blocks[rows] = tables.incidence[rows]
    return mutated


def _equivariant_swap_mutation(fig):
    """The swap of ``_swap_mutation`` made on two fig rows with free
    <phi, tau>-orbits and carried along both orbits: rows g(b1) and g(b2)
    trade g(y) and g(z) for every g.  Invariance and point degrees hold."""
    tables = fig.plane.tables
    size = 3 * fig.plane.ctx.sub_order
    free = [o for o in sorted({tuple(_orbit((L,), [(tables.phi,), (tables.tau_line,)]))
                               for L in range(fig.size) if fig.tags[L] == "fig"})
            if len(o) == size]
    (L1,), (L2,) = min(free[0]), min(free[1])
    b1, b2 = set(fig.blocks[L1].tolist()), set(fig.blocks[L2].tolist())
    y, z = max(b1 - b2), max(b2 - b1)
    gens = [(tables.phi,) * 4, (tables.tau_line, tables.tau_line, tables.tau, tables.tau)]
    orbit = _orbit((L1, L2, y, z), gens)
    assert len({t[0] for t in orbit} | {t[1] for t in orbit}) == 2 * size   # free, disjoint
    return _swapped(fig, orbit)


def _phi_swap_mutation(fig):
    """The swap of ``_swap_mutation`` carried along a phi-orbit only.  The
    two blocks pass through the representative 0, and they and y, z are
    chosen so that no changed row holds another representative:
    phi-invariance and the cover at the representatives hold, and only
    tau-invariance sees it."""
    B, phi = fig.blocks, fig.plane.tables.phi
    rep = np.zeros(fig.size, dtype=bool)
    rep[orbit_representatives(fig.plane)] = True
    images = lambda t: [t, tuple(phi[list(t)].tolist()), tuple(phi[phi[list(t)]].tolist())]
    L1, L2 = [L for L in np.flatnonzero((B == 0).any(axis=1)).tolist()
              if all(np.count_nonzero(rep[B[gL]]) == rep[gx]
                     for gL, gx in images((L, 0)))][:2]
    b1, b2 = set(B[L1].tolist()), set(B[L2].tolist())
    y, z = (max(v for v in part if not rep[list(images((v,)))].any())
            for part in (b1 - b2, b2 - b1))
    return _swapped(fig, images((L1, L2, y, z)))


def _brute_force_axioms(structure):
    """Reference full count over every ordered point pair, from a dense
    block-by-point incidence matrix: the three verdict halves, every pair
    that lies in other than one block (with its count), and every row
    holding both points of such a pair."""
    n = structure.size
    k = structure.plane.ctx.q ** 3 + 1
    blocks = np.asarray(structure.blocks)
    M = np.zeros((len(blocks), n))          # floats: BLAS, exact at these sizes
    for r, row in enumerate(blocks.tolist()):
        M[r, row] = 1
    count = (M.T @ M).round().astype(np.int64)
    np.fill_diagonal(count, 1)
    bad = {(P, Q): int(count[P, Q]) for P, Q in np.argwhere(count != 1).tolist()}
    rows = {r for (P, Q) in bad for r in np.flatnonzero(M[:, P] * M[:, Q]).tolist()}
    sizes_ok = blocks.shape == (n, k)
    degrees_ok = bool(np.all(M.sum(axis=0) == k))
    return sizes_ok, degrees_ok, not bad, bad, rows


PAIR_WITNESS = re.compile(r"point pair (\S+) , (\S+) lies in (\d+) blocks")
ROW_WITNESS = re.compile(r"the (phi|tau) image of block \[(\S+)\] is not block \[(\S+)\]")


def _witness_kind(plane, witness, bad, rows):
    """'pair' or 'row' when the witness names a pair (with its count) or a
    row that the brute force flags; None otherwise."""
    index = lambda text: plane.index(tuple(int(c) for c in text.split(":")))
    m = PAIR_WITNESS.fullmatch(witness)
    if m and bad.get((index(m[1]), index(m[2]))) == int(m[3]):
        return "pair"
    m = ROW_WITNESS.fullmatch(witness)
    if m and {index(m[2]), index(m[3])} & rows:
        return "row"
    return None


def test_axioms_mutation_fails_with_witness(plane3, fig3):
    rep = check_axioms(_line_mutation(plane3, fig3))
    assert not rep.ok and not rep.point_degree_ok
    assert rep.witnesses


def test_axioms_swap_mutation_caught_by_pairs_only(fig3):
    rep = check_axioms(_swap_mutation(fig3))
    assert rep.block_size_ok and rep.point_degree_ok
    assert not rep.point_pairs_ok and not rep.ok
    assert rep.witnesses[0].startswith("the phi image of block")


def test_axioms_reject_a_wrong_block_shape(fig3):
    """A block array with a row or a column too few fails the size check."""
    short = IncidencePlane(fig3.plane, fig3.blocks[:-1], fig3.tags[:-1])
    rep = check_axioms(short)
    assert not rep.ok and not rep.block_size_ok and not rep.point_degree_ok
    narrow = IncidencePlane(fig3.plane, fig3.blocks[:, :-1], fig3.tags)
    rep = check_axioms(narrow)
    assert not rep.ok and not rep.block_size_ok and not rep.point_degree_ok
    assert rep.witnesses == ["block array has shape (757, 27), not (757, 28)"]


@pytest.mark.parametrize("value", [-1, 757])
def test_axioms_range_guard(fig3, value):
    """An entry outside [0, n) fails before any gather, with a witness; -1
    would otherwise be read as the last point."""
    blocks = fig3.blocks.copy()
    blocks[5, 3] = value
    rep = check_axioms(IncidencePlane(fig3.plane, blocks, list(fig3.tags)))
    assert not rep.ok and not rep.block_size_ok
    assert not rep.point_degree_ok and not rep.point_pairs_ok
    assert rep.witnesses == [f"block {format_line(fig3.plane.point(5))} holds {value}, "
                             "outside [0, 757)"]


def test_axioms_match_brute_force(plane3, fig3):
    from figplane.field import build_field_tower
    from figplane.plane import ProjectivePlane
    pg8 = pg_incidence(ProjectivePlane(build_field_tower(2, 1)))
    assert pg8.size == 73
    for structure in (pg8, fig3, _line_mutation(plane3, fig3), _swap_mutation(fig3),
                      _orbit_mutation(fig3), _equivariant_swap_mutation(fig3),
                      _phi_swap_mutation(fig3)):
        rep = check_axioms(structure)
        sizes_ok, degrees_ok, pairs_ok, bad, rows = _brute_force_axioms(structure)
        assert (rep.block_size_ok, rep.point_degree_ok, rep.point_pairs_ok) == \
            (sizes_ok, degrees_ok, pairs_ok)
        assert rep.ok == (sizes_ok and degrees_ok and pairs_ok)
        assert bool(rep.witnesses) == (not rep.ok)
        assert all(_witness_kind(structure.plane, w, bad, rows) for w in rep.witnesses)
        assert rep.mode == "orbit-reduced"
        assert rep.checked_pairs == structure.size * (structure.size - 1)


@pytest.mark.parametrize("q", [3, 4])
def test_axioms_orbit_mutation_fails_the_cover(q, fig3, fig4):
    """Lines put back on a whole <phi, tau>-orbit of fig rows keep the
    structure invariant, so the cover half, not the invariance half,
    catches it; each pair witness holds its stated count."""
    fig = {3: fig3, 4: fig4}[q]
    mutated = _orbit_mutation(fig)
    rep = check_axioms(mutated)
    assert rep.block_size_ok and not rep.point_pairs_ok and not rep.ok
    assert rep.witnesses
    for w in rep.witnesses:
        m = PAIR_WITNESS.fullmatch(w)
        assert m, w
        P, Q = (fig.plane.index(tuple(int(c) for c in t.split(":"))) for t in m.group(1, 2))
        holds = lambda p: (mutated.blocks == p).any(axis=1)
        assert np.count_nonzero(holds(P) & holds(Q)) == int(m[3])


def test_axioms_equivariant_swap_fails_only_the_pairs(fig3):
    rep = check_axioms(_equivariant_swap_mutation(fig3))
    assert rep.block_size_ok and rep.point_degree_ok
    assert not rep.point_pairs_ok and not rep.ok
    assert rep.witnesses and all(PAIR_WITNESS.fullmatch(w) for w in rep.witnesses)


def test_axioms_phi_swap_needs_the_tau_half(fig3):
    """Without the tau half, a phi-invariant structure whose faults avoid
    every representative would pass."""
    rep = check_axioms(_phi_swap_mutation(fig3))
    assert rep.block_size_ok and rep.point_degree_ok and not rep.point_pairs_ok
    assert len(rep.witnesses) == 1 and rep.witnesses[0].startswith("the tau image")


@pytest.mark.parametrize("q", [3, 4, 5, 7])
def test_representatives_follow_the_census(q):
    """One representative for the three vertices, one per phi-orbit of
    three stabilizer classes, and one per class phi fixes, of which there
    are f = gcd(3, q - 1): 1 + (C - 3 - f)/3 + f for C classes."""
    from figplane.field import context_for_q
    from figplane.plane import ProjectivePlane
    from figplane.suites import Session, census_checks
    sess = Session(context_for_q(q))
    (cats,) = [e for e in census_checks(sess) if e.id == "census.categories"]
    C, f = cats.counts["total_orbits"], math.gcd(3, q - 1)
    want = 1 + (C - 3 - f) // 3 + f
    assert want == {3: 21, 4: 69, 5: 171, 7: 693}[q]
    assert len(orbit_representatives(sess.plane)) == want
    if q <= 5:
        assert check_axioms(pg_incidence(sess.plane)).representatives == want


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
