"""Differential tests: the array kernel against the scalar oracle.

Every bulk table is compared entry by entry with the scalar function it
replaces, exhaustively at q = 2, 3 and 4 and on hypothesis-drawn indices
at q = 5 and 7, and at q = 8 and 9 for the point tables.  ``disagreements`` is the comparison; a corrupted table
shows that it reports a wrong entry.  The block rows (the closed-form
incidence rows and the FIG rows, both made on demand) have their own
row comparisons, ``incidence_disagreements`` and ``fig_disagreements``,
shown able to fail in the same way; the FIG rows are compared with the
closed-form incidence ``fig_incident``, not with a second assembly.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from figplane.arrays import (CHUNK, CLUB, OTHER, FieldArrays, KernelError,
                             PlaneTables)
from figplane.collineation import (CATEGORIES, TYPE_III, collineate_line, collineate_point,
                                   det3, line_orbit_matrix, line_type,
                                   line_types_table, norm_det_identity,
                                   partition_orbits, point_orbit_matrix,
                                   point_type, point_types_table)
from figplane.field import build_field_tower, context_for_q, table_bytes
from figplane.figueroa import build_fig_plane, fig_incident
from figplane.linear_sets import fixed_subplane, plane_from_rep, t_plane
from figplane.maps import VertexCensus, conjugate_join, conjugate_meet, vertex_census
from figplane.plane import (ANCHOR, ANCHOR_1, ANCHOR_2, GeometryError,
                            ProjectivePlane, canonical, cross, join,
                            lines_through_point)

from conftest import held
from set_oracle import (as_rows, as_triples, conjugate_subplane, points_on_line,
                        project_from_vertex, stabilizer_orbit)

TABLES = ("types", "mu", "sec", "phi", "orbit", "tau", "tau_line")

# the kind of a point that is no vertex for a projected set: on the axis
# or in the set; ``vertex_kinds`` lists no such point
SKIPPED = -3


def oracle(plane, name, i):
    """The scalar answers for entry i of a table, in the point role and,
    where the table also serves lines, in the line role."""
    ctx, idx = plane.ctx, plane.index
    P = l = plane.points[i]
    if name == "types":
        return {point_type(ctx, P), line_type(ctx, l)}
    if name == "mu":
        if point_type(ctx, P) != TYPE_III:
            return {-1}
        return {idx(conjugate_join(ctx, P)), idx(conjugate_meet(ctx, l))}
    if name == "sec":
        x, y, z = P
        if 0 in P:
            return {-1}
        return {idx(canonical(ctx, (ctx.mul(y, z), ctx.mul(x, z), ctx.mul(x, y))))}
    if name == "orbit":
        return {min(idx(Q) for Q in stabilizer_orbit(ctx, P))}
    if name == "tau":
        return {idx(torus_step(ctx, P))}
    if name == "tau_line":
        # the line through the torus images of two points of l
        A, B = (torus_step(ctx, Q) for Q in points_on_line(ctx, l)[:2])
        return {idx(join(ctx, A, B))}
    return {idx(collineate_point(ctx, P)), idx(collineate_line(ctx, l))}


def torus_step(ctx, P):
    """(g x, g^q y, g^q^2 z) for the primitive element g (code 2)."""
    return canonical(ctx, tuple(ctx.mul(ctx.frob(2, i), c) for i, c in enumerate(P)))


def disagreements(plane, name, table, indices) -> list[int]:
    """Indices at which ``table`` differs from the scalar oracle."""
    return [i for i in indices if oracle(plane, name, i) != {int(table[i])}]


def table_of(plane, name, indices=None) -> np.ndarray:
    """The entries of table ``name`` at ``indices``, every index by default;
    ``sec``, which no table holds, is made from its closed form there, and
    ``tau`` and ``tau_line`` are the point and line tables of tau."""
    i = np.arange(plane.size) if indices is None else np.asarray(indices)
    if name == "sec":
        return plane.tables.sec(i)
    if name in ("tau", "tau_line"):
        tau = plane.tables.tau
        return (tau.lines if name == "tau_line" else tau.points)[i]
    return getattr(plane.tables, name)[i]


def scalar_kind(ctx, V, T) -> int:
    """The kind of V as a vertex for the scalar point set T."""
    img = project_from_vertex(ctx, V, T)
    if img.kind == "sls":
        return img.sls.norm_class
    return CLUB if img.kind == "club" else OTHER


def full_scan_kinds(plane, B) -> np.ndarray:
    """Projection kind of every point, each vertex projected on its own:
    the full scan that ``vertex_kinds`` reduces to one vertex per orbit."""
    x, y, z = plane.tables.field.coords(np.arange(plane.size))
    inside = np.zeros(plane.size, dtype=bool)
    inside[list(B.points)] = True
    keep = (z != 0) & ~inside
    out = np.full(plane.size, SKIPPED, dtype=np.int32)
    out[keep] = plane.tables.project(np.flatnonzero(keep), B.points)
    return out


def kinds_by_point(plane, B) -> np.ndarray:
    """The kind of every point as a vertex for B, read from ``vertex_kinds``:
    the kind of its orbit's representative, SKIPPED on the axis and in B."""
    reps, kinds = plane.tables.vertex_kinds(B.points)
    at = np.full(plane.size, SKIPPED, dtype=np.int32)
    at[reps] = kinds
    return at[plane.tables.orbit]


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
    kinds = [(B, kinds_by_point(plane, B)) for B in subplanes(plane.ctx)]
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


def test_field_tables_peak_near_their_size():
    """At q = 7 each table has q^6 = 117,649 > ``CHUNK`` entries, and the
    build writes it in blocks of rows: its traced peak stays within twice
    the bytes it keeps, and rows on both sides of a block boundary match
    the scalar arithmetic."""
    import tracemalloc
    ctx = context_for_q(7)
    assert ctx.q3 ** 2 > CHUNK
    tracemalloc.start()
    try:
        F = FieldArrays(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * (F._add.nbytes + F._mul.nbytes)
    step, b = CHUNK // ctx.q3, np.arange(ctx.q3)
    for x in (0, 1, step - 1, step, ctx.q3 - 1):
        a = np.full(ctx.q3, x)
        assert F.add(a, b).tolist() == [ctx.add(x, y) for y in b.tolist()]
        assert F.mul(a, b).tolist() == [ctx.mul(x, y) for y in b.tolist()]


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
    table = table_of(small_plane, name)
    assert len(table) == small_plane.size
    assert disagreements(small_plane, name, table, range(small_plane.size)) == []


@pytest.fixture(scope="module", params=[5, 7, 8, 9], ids=["q5", "q7", "q8", "q9"])
def oracle_plane(request):
    """Orders past the exhaustive ones: q = 8 (p = 2, k = 3) and q = 9
    (p = 3, k = 2) bring the even and the odd extension fields into the
    closed forms of the point tables."""
    return ProjectivePlane(context_for_q(request.param))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_tables_match_oracle_sampled(oracle_plane, data):
    plane = oracle_plane
    # the q^3 + 1 points with x = 0 have closed forms of their own: draw
    # them on purpose too
    q6 = plane.ctx.q3 ** 2
    i = data.draw(st.integers(0, plane.size - 1) | st.integers(q6, plane.size - 1),
                  label="index")
    for name in TABLES:
        assert oracle(plane, name, i) == {int(table_of(plane, name, [i])[0])}, name


def test_sec_is_an_int32_closed_form(small_plane):
    """``sec`` keeps the shape of its index array, is int32, and gives -1
    at -1, as a lookup in a table whose last entry, (0, 0, 1), is -1 did;
    ``mu.generic-plane`` reads it at the -1 entries of mu."""
    plane = small_plane
    every = np.arange(-1, plane.size, dtype=np.int32)
    got = plane.tables.sec(np.stack((every, every[::-1])))
    assert got.dtype == np.int32 and got.shape == (2, plane.size + 1)
    assert got[0, 0] == got[1, -1] == -1
    assert np.array_equal(got[0, 1:], table_of(plane, "sec"))
    assert disagreements(plane, "sec", got[0, 1:], range(plane.size)) == []


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_sec_matches_oracle_sampled(oracle_plane, data):
    """Batches of indices, -1 among them, at q = 5, 7, 8 and 9."""
    plane = oracle_plane
    i = data.draw(st.lists(st.integers(-1, plane.size - 1), min_size=1, max_size=8),
                  label="indices")
    got = plane.tables.sec(np.array(i, dtype=np.int32)).tolist()
    assert got == [-1 if k < 0 else oracle(plane, "sec", k).pop() for k in i]


def test_one_type_table_for_points_and_lines(small_plane):
    assert line_types_table(small_plane) is point_types_table(small_plane)


def test_secant_sets_are_orbit_plane_lines(small_plane):
    """Exhaustive over the orbit subplanes: the secants of the members are
    the line set of ``plane_from_rep``."""
    plane = small_plane
    ctx, sec = plane.ctx, plane.tables.sec
    classes, checked = partition_orbits(plane), 0
    for cat in (c for c in CATEGORIES if c.startswith("plane")):
        for members in classes.members(classes.of(cat)).tolist():
            want = set(plane_from_rep(ctx, plane.point(members[0])).lines)
            assert set(sec(members).tolist()) == want
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("name", TABLES)
def test_comparison_reports_a_corrupted_entry(plane3, name):
    table = table_of(plane3, name).copy()
    i = next(j for j in range(plane3.size) if table[j] >= 0 and 0 not in plane3.points[j]
             and point_type(plane3.ctx, plane3.points[j]) == TYPE_III)
    table[i] = table[i] % 3 + 1 if name == "types" else (table[i] + 1) % plane3.size
    assert disagreements(plane3, name, table, range(plane3.size)) == [i]


# ------------------------------------------------------------ row tables

def incidence_disagreements(plane, table, indices) -> list[int]:
    """Rows of ``table`` (any array with one row per index) that differ from the sorted points on the line, or
    the sorted lines through the point, with that index."""
    ctx, idx = plane.ctx, plane.index
    bad = []
    for i in indices:
        row = table[i].tolist()
        on = sorted(plane.points_on(plane.point(i)))
        through = sorted(idx(l) for l in lines_through_point(ctx, plane.points[i]))
        if row != on or row != through:
            bad.append(i)
    return bad


def fig_disagreements(plane, blocks, indices) -> list[int]:
    """Rows of ``blocks`` that differ from the points that the closed form
    ``fig_incident`` puts on the line with that index, every point scanned."""
    ctx, points = plane.ctx, plane.points
    bad = []
    for i in indices:
        l = plane.point(i)
        if blocks[i].tolist() != [j for j, P in enumerate(points) if fig_incident(ctx, P, l)]:
            bad.append(i)
    return bad


@pytest.fixture(scope="module", params=[4, 5], ids=["q4", "q5"])
def sampled_fig(request):
    plane = ProjectivePlane(context_for_q(request.param))
    return plane, held(build_fig_plane(plane)).blocks


def fixed_lines(plane) -> list[int]:
    """A fixed set of lines: the first and last of the index order, one of
    each leading coordinate, the first line of each type, and the lines
    mu[A] whose rows are the blocks of the triangle vertices A
    (``anchor_block``)."""
    tables, size, q3 = plane.tables, plane.size, plane.ctx.q3
    lines = {0, 1, size // 2, size - q3 - 1, size - 2, size - 1}
    lines.update(int(np.argmax(tables.types == t)) for t in (1, 2, 3))
    lines.update(int(tables.mu[plane.index(A)]) for A in (ANCHOR, ANCHOR_1, ANCHOR_2))
    return sorted(lines)


def test_incidence_matches_oracle_exhaustive(small_plane):
    inc = small_plane.tables.incidence_rows(np.arange(small_plane.size))
    assert inc.shape == (small_plane.size, small_plane.ctx.q3 + 1)
    assert inc.dtype == np.int32
    assert incidence_disagreements(small_plane, inc, range(small_plane.size)) == []


def incidence_sample_disagreements(plane, i) -> list[int]:
    """Lines of a batch, the drawn index i and one line of each kind of
    leading coordinate (the last index is [0:0:1]), whose rows differ from
    the oracle; row i read alone must equal row i read in the batch."""
    batch = np.array([i, 0, plane.size - plane.ctx.q3 - 1, plane.size - 1])
    rows = plane.tables.incidence_rows(batch)
    assert np.array_equal(rows[0], plane.tables.incidence_rows([i])[0])
    return incidence_disagreements(plane, dict(zip(batch.tolist(), rows)), batch.tolist())


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_incidence_matches_oracle_sampled(plane5, data):
    i = data.draw(st.integers(0, plane5.size - 1), label="index")
    assert incidence_sample_disagreements(plane5, i) == []


@pytest.fixture(scope="module")
def plane7():
    return ProjectivePlane(context_for_q(7))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_incidence_matches_oracle_sampled_q7(plane7, data):
    i = data.draw(st.integers(0, plane7.size - 1), label="index")
    assert incidence_sample_disagreements(plane7, i) == []


def test_fig_blocks_match_oracle_exhaustive(plane3, fast_fig_incident):
    blocks = held(build_fig_plane(plane3)).blocks
    assert fig_disagreements(plane3, blocks, range(plane3.size)) == []


def test_fig_blocks_match_oracle_sampled(sampled_fig, fast_fig_incident):
    plane, blocks = sampled_fig
    lines = fixed_lines(plane)
    assert set(plane.tables.types[lines].tolist()) == {1, 2, 3}
    assert fig_disagreements(plane, blocks, lines) == []


@pytest.mark.parametrize("name", ("incidence", "fig"))
def test_row_comparison_reports_a_corrupted_row(plane3, name, fast_fig_incident):
    if name == "incidence":
        rows, compare = plane3.tables.incidence_rows(np.arange(plane3.size)), incidence_disagreements
    else:
        rows, compare = held(build_fig_plane(plane3)).blocks.copy(), fig_disagreements
    i = next(j for j in range(plane3.size) if line_type(plane3.ctx, plane3.point(j)) == TYPE_III)
    rows[i, -1] = next(P for P in range(plane3.size) if P not in rows[i])
    assert compare(plane3, rows, range(plane3.size)) == [i]


# ------------------------------------------------------------ projection

def test_vertex_kinds_match_oracle_exhaustive(small_plane):
    plane = small_plane
    ctx = plane.ctx
    for B in subplanes(ctx):
        kinds = kinds_by_point(plane, B).tolist()
        T = as_triples(ctx, B)
        want = [SKIPPED if V[2] == 0 or V in T.points else scalar_kind(ctx, V, T)
                for V in plane.points]
        assert kinds == want


def test_vertex_kinds_match_full_scan(sampled_plane):
    """Every norm-class side subplane, a phi-conjugate of one and a generic
    orbit subplane: one vertex per orbit gives the kinds of the full scan."""
    plane, _ = sampled_plane
    ctx = plane.ctx
    sides = [t_plane(ctx, ctx.norm_class_rep(j)) for j in range(ctx.q - 1)]
    conjugate = as_rows(ctx, conjugate_subplane(ctx, as_triples(ctx, sides[1])))
    for B in sides + [conjugate, plane_from_rep(ctx, (1, 2, 5))]:
        assert np.array_equal(kinds_by_point(plane, B), full_scan_kinds(plane, B)), min(B.points)


def test_vertex_kinds_refuse_a_set_tau_moves(plane3):
    """The fixed subplane with one point swapped for a point outside it is
    no union of stabilizer orbits, and is refused before any projection."""
    B = fixed_subplane(plane3.ctx).points
    outside = next(i for i, P in enumerate(plane3.points) if P[2] != 0 and i not in B)
    with pytest.raises(KernelError, match="tau"):
        plane3.tables.vertex_kinds(sorted(B[1:] + (outside,)))


def test_vertex_kinds_are_one_per_orbit(small_plane):
    """``vertex_kinds`` lists orbit representatives, in increasing order,
    each off the axis and outside B, and every such representative."""
    plane = small_plane
    orbit = plane.tables.orbit
    for B in subplanes(plane.ctx):
        reps, kinds = plane.tables.vertex_kinds(B.points)
        assert (np.diff(reps) > 0).all() and (orbit[reps] == reps).all()
        assert len(kinds) == len(reps)
        want = [i for i in range(plane.size) if orbit[i] == i
                and plane.points[i][2] != 0 and i not in B.points]
        assert reps.tolist() == want


def census_from_scan(plane, B) -> VertexCensus:
    """The vertex census of B from ``full_scan_kinds``, every vertex
    projected on its own."""
    kinds = full_scan_kinds(plane, B)
    return VertexCensus({j: np.flatnonzero(kinds == j).tolist()
                         for j in range(plane.ctx.q - 1)},
                        int(np.count_nonzero(kinds == CLUB)), int(np.count_nonzero(kinds == OTHER)))


def census_disagreements(plane) -> list:
    """The projected sets whose census from one vertex per orbit is not
    the census of the per-point scan: the fixed subplane, a generic orbit
    subplane and, for q > 2, a side subplane and its conjugate."""
    ctx = plane.ctx
    sets = subplanes(ctx)
    if ctx.q > 2:
        sets.append(as_rows(ctx, conjugate_subplane(ctx, as_triples(ctx, sets[-1]))))
    return [min(B.points) for B in sets if vertex_census(plane, B) != census_from_scan(plane, B)]


def test_vertex_census_matches_full_scan(small_plane):
    assert census_disagreements(small_plane) == []


def test_vertex_census_matches_full_scan_sampled(sampled_plane):
    assert census_disagreements(sampled_plane[0]) == []


def test_vertex_census_comparison_reports_a_moved_vertex(plane3):
    """A census with one vertex moved from its norm class to the club
    images differs from the per-point scan."""
    B = fixed_subplane(plane3.ctx)
    vc = vertex_census(plane3, B)
    j = next(j for j, vs in vc.by_class.items() if vs)
    moved = VertexCensus({**vc.by_class, j: vc.by_class[j][1:]}, vc.club + 1, vc.other)
    assert vc == census_from_scan(plane3, B) != moved


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
    if V[2] == 0 or i in B.points:
        assert table[i] == SKIPPED
        return
    want = scalar_kind(ctx, V, as_triples(ctx, B))
    assert table[i] == want
    assert plane.tables.project([i], B.points).tolist() == [want]


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
    T = as_triples(plane3.ctx, B)
    kinds = kinds_by_point(plane3, B)
    i = next(j for j, V in enumerate(plane3.points) if V[2] != 0 and V not in T.points)
    kinds[i] = OTHER if kinds[i] != OTHER else CLUB
    bad = [j for j, V in enumerate(plane3.points)
           if kinds[j] != SKIPPED and kinds[j] != scalar_kind(plane3.ctx, V, T)]
    assert bad == [i]


def test_projection_rejections_match_scalar(plane3):
    ctx = plane3.ctx
    B = fixed_subplane(ctx)
    for V in ((1, 1, 0), (1, 1, 1)):          # on the axis; in B
        with pytest.raises(GeometryError):
            project_from_vertex(ctx, V, as_triples(ctx, B))
        with pytest.raises(GeometryError):
            plane3.tables.project([plane3.index(V)], B.points)


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
    with pytest.raises(KernelError, match="lookup tables"):
        FieldArrays(big)                      # a q^3 + b would pass 2^31


def test_table_bytes_counts_the_lookup_and_per_point_tables():
    """``field.table_bytes`` is the size of the two field lookup tables and
    of the four point tables every census and maps run holds, with the
    torus and Dickson tables for a run of the FIG checks, and the two FIG
    row lookup tables too for a run that passes over every FIG row."""
    ctx = context_for_q(3)
    T = PlaneTables(ctx)
    field = [T.field._add, T.field._mul]
    per_point = [T.types, T.mu, T.phi, T.orbit]
    assert all(len(t) == T.size for t in per_point)
    assert sum(t.nbytes for t in per_point + field) == table_bytes(3)
    # the FIG checks add the point and line tables of the torus and Dickson
    # collineations, and a pass over every row the two lookup tables of the
    # rows, E and F
    fig, rows = [*T.tau, *T.dickson], [*T.fig_lookup]
    assert all(len(t) == T.size and t.dtype == np.int32 for t in fig + rows)
    assert sum(t.nbytes for t in per_point + fig + field) == table_bytes(3, fig=True)
    assert sum(t.nbytes for t in per_point + fig + rows + field) == table_bytes(3, True, True)
