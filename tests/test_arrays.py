"""Differential tests: the array kernel against the scalar oracle.

Every bulk table is compared entry by entry with the scalar function it
replaces, exhaustively at q = 2, 3 and 4 and on hypothesis-drawn indices
at q = 5 and 7.  ``disagreements`` is the comparison; a corrupted table
shows that it reports a wrong entry.  The row tables (incidence, FIG
blocks) have their own row comparisons, ``incidence_disagreements`` and
``fig_disagreements``, shown able to fail in the same way.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from figplane.arrays import (CLUB, OTHER, SKIPPED, FieldArrays, KernelError,
                             PlaneTables)
from figplane.collineation import (TYPE_III, collineate_line, collineate_point,
                                   det3, line_orbit_matrix, line_type,
                                   line_types_table, norm_det_identity,
                                   partition_orbits, point_orbit_matrix,
                                   point_type, point_types_table,
                                   stabilizer_orbit)
from figplane.field import build_field_tower, context_for_q
from figplane.figueroa import build_fig_plane, fig_block
from figplane.linear_sets import fixed_subplane, plane_from_rep, t_plane
from figplane.maps import conjugate_join, conjugate_meet, project_from_vertex
from figplane.plane import (GeometryError, ProjectivePlane, canonical, cross,
                            join, lines_through_point, points_on_line)

TABLES = ("types", "mu", "sec", "phi", "orbit", "tau", "tau_line")


def oracle(plane, name, i):
    """The scalar answers for entry i of a table, in the point role and,
    where the table also serves lines, in the line role."""
    ctx, idx = plane.ctx, plane.point_index
    P = l = plane.points[i]
    if name == "types":
        return {point_type(ctx, P), line_type(ctx, l)}
    if name == "mu":
        if point_type(ctx, P) != TYPE_III:
            return {-1}
        return {idx[conjugate_join(ctx, P)], idx[conjugate_meet(ctx, l)]}
    if name == "sec":
        x, y, z = P
        if 0 in P:
            return {-1}
        return {idx[canonical(ctx, (ctx.mul(y, z), ctx.mul(x, z), ctx.mul(x, y)))]}
    if name == "orbit":
        return {min(idx[Q] for Q in stabilizer_orbit(ctx, P))}
    if name == "tau":
        return {idx[torus_step(ctx, P)]}
    if name == "tau_line":
        # the line through the torus images of two points of l
        A, B = (torus_step(ctx, Q) for Q in points_on_line(ctx, l)[:2])
        return {idx[join(ctx, A, B)]}
    return {idx[collineate_point(ctx, P)], idx[collineate_line(ctx, l)]}


def torus_step(ctx, P):
    """(g x, g^q y, g^q^2 z) for the primitive element g (code 2)."""
    return canonical(ctx, tuple(ctx.mul(ctx.frob(2, i), c) for i, c in enumerate(P)))


def disagreements(plane, name, table, indices) -> list[int]:
    """Indices at which ``table`` differs from the scalar oracle."""
    return [i for i in indices if oracle(plane, name, i) != {int(table[i])}]


def scalar_kind(ctx, V, B) -> int:
    img = project_from_vertex(ctx, V, B)
    if img.kind == "sls":
        return img.sls.norm_class
    return CLUB if img.kind == "club" else OTHER


def subplanes(ctx):
    """The fixed subplane, a side subplane of another norm class and a
    generic orbit subplane: three kinds of projected sets."""
    out = [fixed_subplane(ctx), plane_from_rep(ctx, (1, 2, 5))]
    if ctx.q > 2:
        out.append(t_plane(ctx, ctx.norm_class_rep(1)))
    return out


@pytest.fixture(scope="module", params=[(2, 1), (3, 1), (2, 2)],
                ids=["q2", "q3", "q4"])
def small_plane(request):
    return ProjectivePlane(build_field_tower(*request.param))


@pytest.fixture(scope="module", params=[5, 7], ids=["q5", "q7"])
def sampled_plane(request):
    plane = ProjectivePlane(context_for_q(request.param))
    kinds = [(B, plane.tables.vertex_kinds(B.points)) for B in subplanes(plane.ctx)]
    return plane, kinds


# ------------------------------------------------------------ arithmetic

def test_field_arrays_match_scalar_ops(small_plane):
    ctx = small_plane.ctx
    F = FieldArrays(ctx)
    a, b = (c.ravel() for c in np.meshgrid(np.arange(ctx.q3), np.arange(ctx.q3)))
    pairs = list(zip(a.tolist(), b.tolist()))
    assert F.mul(a, b).tolist() == [ctx.mul(x, y) for x, y in pairs]
    assert F.add(a, b).tolist() == [ctx.add(x, y) for x, y in pairs]
    assert F.sub(a, b).tolist() == [ctx.sub(x, y) for x, y in pairs]
    units = np.arange(1, ctx.q3)
    assert F.neg(units).tolist() == [ctx.neg(x) for x in units.tolist()]
    assert F.inv(units).tolist() == [ctx.inv(x) for x in units.tolist()]
    for i in (0, 1, 2):
        assert F.frob(units, i).tolist() == [ctx.frob(x, i) for x in units.tolist()]


def test_field_arrays_triples_and_index(small_plane):
    plane = small_plane
    ctx = plane.ctx
    F = FieldArrays(ctx)
    x, y, z = F.coords(np.arange(plane.size))
    assert list(zip(x.tolist(), y.tolist(), z.tolist())) == plane.points
    assert F.index(x, y, z).tolist() == list(range(plane.size))
    rng = np.random.default_rng(0)
    u = tuple(rng.integers(0, ctx.q3, 200) for _ in range(3))
    v = tuple(rng.integers(0, ctx.q3, 200) for _ in range(3))
    got = np.stack(F.canonical(*F.cross(u, v)), axis=1).tolist()
    for k, (U, W) in enumerate(zip(zip(*u), zip(*v))):
        w = cross(ctx, U, W)
        want = [0, 0, 0] if w == (0, 0, 0) else list(canonical(ctx, w))
        assert got[k] == want


# ---------------------------------------------------------------- tables

@pytest.mark.parametrize("name", TABLES)
def test_table_matches_oracle_exhaustive(small_plane, name):
    table = getattr(small_plane.tables, name)
    assert len(table) == small_plane.size
    assert disagreements(small_plane, name, table, range(small_plane.size)) == []


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_tables_match_oracle_sampled(sampled_plane, data):
    plane, _ = sampled_plane
    i = data.draw(st.integers(0, plane.size - 1), label="index")
    for name in TABLES:
        assert disagreements(plane, name, getattr(plane.tables, name), [i]) == []


def test_one_type_table_for_points_and_lines(small_plane):
    assert line_types_table(small_plane) is point_types_table(small_plane)


def test_secant_sets_are_orbit_plane_lines(small_plane):
    """Exhaustive over the orbit subplanes: the secants of the members are
    the line set of ``plane_from_rep``."""
    plane = small_plane
    ctx, idx, sec = plane.ctx, plane.point_index, plane.tables.sec
    checked = 0
    for cl in partition_orbits(plane):
        if cl.category.startswith("plane"):
            want = {idx[l] for l in plane_from_rep(ctx, cl.rep).lines}
            assert set(sec[list(cl.members)].tolist()) == want
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("name", TABLES)
def test_comparison_reports_a_corrupted_entry(plane3, name):
    table = getattr(plane3.tables, name).copy()
    i = next(j for j in range(plane3.size) if table[j] >= 0 and 0 not in plane3.points[j]
             and point_type(plane3.ctx, plane3.points[j]) == TYPE_III)
    table[i] = table[i] % 3 + 1 if name == "types" else (table[i] + 1) % plane3.size
    assert disagreements(plane3, name, table, range(plane3.size)) == [i]


# ------------------------------------------------------------ row tables

def incidence_disagreements(plane, table, indices) -> list[int]:
    """Rows of ``table`` that differ from the sorted points on the line, or
    the sorted lines through the point, with that index."""
    ctx, idx = plane.ctx, plane.point_index
    bad = []
    for i in indices:
        row = table[i].tolist()
        on = sorted(plane.points_on(plane.lines[i]))
        through = sorted(idx[l] for l in lines_through_point(ctx, plane.points[i]))
        if row != on or row != through:
            bad.append(i)
    return bad


def fig_disagreements(plane, blocks, indices) -> list[int]:
    """Rows of ``blocks`` that differ from the scalar FIG assembly: the
    block of the involution image of a Type III line, the points of any
    other line."""
    ctx, idx = plane.ctx, plane.point_index
    bad = []
    for i in indices:
        l = plane.lines[i]
        if line_type(ctx, l) == TYPE_III:
            want = sorted(idx[P] for P in fig_block(ctx, conjugate_meet(ctx, l)).points)
        else:
            want = sorted(plane.points_on(l))
        if blocks[i].tolist() != want:
            bad.append(i)
    return bad


@pytest.fixture(scope="module", params=[4, 5], ids=["q4", "q5"])
def sampled_fig(request):
    plane = ProjectivePlane(context_for_q(request.param))
    return plane, build_fig_plane(plane).blocks


def test_incidence_matches_oracle_exhaustive(small_plane):
    inc = small_plane.tables.incidence
    assert inc.shape == (small_plane.size, small_plane.ctx.q3 + 1)
    assert inc.dtype == np.int32
    assert incidence_disagreements(small_plane, inc, range(small_plane.size)) == []


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_incidence_matches_oracle_sampled(plane5, data):
    i = data.draw(st.integers(0, plane5.size - 1), label="index")
    assert incidence_disagreements(plane5, plane5.tables.incidence, [i]) == []


def test_fig_blocks_match_oracle_exhaustive(plane3):
    blocks = build_fig_plane(plane3).blocks
    assert fig_disagreements(plane3, blocks, range(plane3.size)) == []


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fig_blocks_match_oracle_sampled(sampled_fig, data):
    plane, blocks = sampled_fig
    i = data.draw(st.integers(0, plane.size - 1), label="line")
    assert fig_disagreements(plane, blocks, [i]) == []


@pytest.mark.parametrize("name", ("incidence", "fig"))
def test_row_comparison_reports_a_corrupted_row(plane3, name):
    if name == "incidence":
        rows, compare = plane3.tables.incidence.copy(), incidence_disagreements
    else:
        rows, compare = build_fig_plane(plane3).blocks.copy(), fig_disagreements
    i = next(j for j in range(plane3.size) if line_type(plane3.ctx, plane3.lines[j]) == TYPE_III)
    rows[i, -1] = next(P for P in range(plane3.size) if P not in rows[i])
    assert compare(plane3, rows, range(plane3.size)) == [i]


# ------------------------------------------------------------ projection

def test_vertex_kinds_match_oracle_exhaustive(small_plane):
    plane = small_plane
    ctx = plane.ctx
    for B in subplanes(ctx):
        kinds = plane.tables.vertex_kinds(B.points).tolist()
        want = [SKIPPED if V[2] == 0 or V in B.points else scalar_kind(ctx, V, B)
                for V in plane.points]
        assert kinds == want


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_projection_matches_oracle_sampled(sampled_plane, data):
    plane, kinds = sampled_plane
    ctx = plane.ctx
    B, table = data.draw(st.sampled_from(kinds), label="subplane")
    # scattered images are rare among all vertices: draw them on purpose too
    rare = np.flatnonzero(table >= 0).tolist()
    i = data.draw(st.integers(0, plane.size - 1) | st.sampled_from(rare or [0]),
                  label="vertex")
    V = plane.points[i]
    if V[2] == 0 or V in B.points:
        assert table[i] == SKIPPED
        return
    want = scalar_kind(ctx, V, B)
    assert table[i] == want
    assert plane.tables.project([V], B.points).tolist() == [want]


@pytest.mark.parametrize("q", [3, 4])
def test_norm_det_matches_oracle_exhaustive(q):
    """The array norm/determinant pass agrees with the scalar
    ``norm_det_identity`` on every point off the triangle sides, and its
    two determinants with the scalar ``det3`` of the point orbit matrix of
    P and the line orbit matrix of its unscaled secant."""
    ctx = context_for_q(q)
    plane = ProjectivePlane(ctx)
    tables, F = plane.tables, plane.tables.field
    off = [P for P in plane.points if 0 not in P]
    assert len(off) == (ctx.q3 - 1) ** 2
    assert tables.norm_det_mismatches().size == 0
    assert all(norm_det_identity(ctx, P) for P in off)
    x, y, z = (np.array(c) for c in zip(*off))
    det_p, _ = tables._orbit_det(x, y, z)
    det_l, _ = tables._orbit_det(F.mul(y, z), F.mul(z, x), F.mul(x, y))
    want_p = [det3(ctx, point_orbit_matrix(ctx, P)) for P in off]
    want_l = [det3(ctx, line_orbit_matrix(ctx, (ctx.mul(b, c), ctx.mul(c, a), ctx.mul(a, b))))
              for a, b, c in off]
    assert det_p.tolist() == want_p
    assert det_l.tolist() == want_l


def test_projection_comparison_reports_a_corrupted_entry(plane3):
    B = fixed_subplane(plane3.ctx)
    kinds = plane3.tables.vertex_kinds(B.points).copy()
    i = next(j for j, V in enumerate(plane3.points) if V[2] != 0 and V not in B.points)
    kinds[i] = OTHER if kinds[i] != OTHER else CLUB
    bad = [j for j, V in enumerate(plane3.points)
           if kinds[j] != SKIPPED and kinds[j] != scalar_kind(plane3.ctx, V, B)]
    assert bad == [i]


def test_projection_rejections_match_scalar(plane3):
    ctx = plane3.ctx
    B = fixed_subplane(ctx)
    for V in ((1, 1, 0), (1, 1, 1)):          # on the axis; in B
        with pytest.raises(GeometryError):
            project_from_vertex(ctx, V, B)
        with pytest.raises(GeometryError):
            plane3.tables.project([V], B.points)


def test_kernel_guards_raise_named_error(plane3):
    F = plane3.tables.field
    with pytest.raises(KernelError):
        F.index(np.array([2]), np.array([1]), np.array([1]))
    with pytest.raises(KernelError):
        F.index(np.array([0]), np.array([0]), np.array([0]))
    with pytest.raises(KernelError):
        plane3.tables.vertex_kinds(frozenset())
    big = build_field_tower(37, 1)            # q^6 + q^3 + 1 > 2^31 points
    with pytest.raises(KernelError):
        PlaneTables(big)                      # refused before any table exists
