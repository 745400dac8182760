import dataclasses
import re

import numpy as np
import pytest

from figplane.arrays import Collineation, PlaneTables, orbit_minima
from figplane.collineation import (TYPE_I, TYPE_II, TYPE_III, TYPE_NAMES,
                                   collineate_point, det3, point_type)
from figplane.figueroa import (IncidencePlane, anchor_block, arching_census,
                               build_fig_plane, characterize_fig_points, check_axioms,
                               emit_plane, pg_incidence, pr_fig_block,
                               expected_pr_fig_block)
from figplane.linear_sets import t_plane
from figplane.maps import TypeRestrictionError, conjugate_join
from figplane.plane import (ANCHOR, ANCHOR_1, ANCHOR_2, AXIS, GeometryError,
                            canonical, format_line, format_point, join)
from figplane.row_pass import moved_rows, walk
from figplane.suite_figueroa import even_structure, splash_involution
from figplane.suites import CHECKS, Session, figueroa_checks

from conftest import HeldRows, held, replaced
from set_oracle import points_on_line, sls_set, triples, units


def _first_fig_row(fig):
    """The first row of ``fig`` that replaces a line: the first Type III line."""
    return int(np.argmax(fig.plane.tables.types == TYPE_III))


def block_points(plane, anchor):
    """The anchor block as a set of triples, with its E part (Type II) and
    its F part (Type III)."""
    points = {plane.point(i) for i in anchor_block(plane, anchor)}
    e = {P for P in points if point_type(plane.ctx, P) == TYPE_II}
    return points, e, points - e


def test_block_anatomy_q3(plane3):
    ctx3 = plane3.ctx
    points, e_points, f_points = block_points(plane3, ANCHOR)
    assert len(points) == 28
    assert len(e_points) == 13
    assert conjugate_join(ctx3, ANCHOR) == AXIS
    assert {ANCHOR_1, ANCHOR_2} <= f_points
    # overlap with the replaced line: the E part lies on it
    axis_pts = set(points_on_line(ctx3, AXIS))
    assert e_points <= axis_pts and len(points & axis_pts) == 13 + 2
    # Type III part beyond the carriers is the union of the reciprocal planes
    rest = f_points - {ANCHOR_1, ANCHOR_2}
    tau = 2
    assert rest == triples(ctx3, t_plane(ctx3, tau).points)
    assert {point_type(ctx3, P) for P in f_points} == {TYPE_III}
    assert ANCHOR not in points


def test_block_equivariance(plane3):
    b0, _, _ = block_points(plane3, ANCHOR)
    b1, _, _ = block_points(plane3, ANCHOR_1)
    assert b1 == {collineate_point(plane3.ctx, P) for P in b0}


def test_block_rejects_bad_anchor(plane3):
    with pytest.raises(TypeRestrictionError):
        anchor_block(plane3, (1, 1, 1))


def test_block_sizes_all_anchors_q3(plane3, types3):
    for P, t in zip(plane3.points, types3):
        if t == TYPE_III:
            block = anchor_block(plane3, P)
            assert len(block) == 28 and np.all(np.diff(block) > 0)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_anchor_block_is_the_fig_row_of_its_involution_image(q, request):
    """The block of each triangle vertex A is row mu[A] of the FIG; those
    rows, of the axis and its conjugates, are compared with the closed form
    ``fig_incident`` in ``tests/test_arrays.py``."""
    plane = request.getfixturevalue(f"plane{q}")
    fig, mu = held(build_fig_plane(plane)), plane.tables.mu
    for A in (ANCHOR, ANCHOR_1, ANCHOR_2):
        assert np.array_equal(anchor_block(plane, A), fig.blocks[mu[plane.index(A)]])


def test_build_counts(held3, held4):
    assert len(held3.blocks) == 757
    assert all(len(b) == 28 for b in held3.blocks)
    assert np.bincount(held3.plane.tables.types).tolist() == [0, 13, 312, 432]
    assert len(held4.blocks) == 4161
    assert all(len(b) == 65 for b in held4.blocks)


def test_build_agrees_with_pg_on_kept_lines(plane3, held3):
    pg_rows = [tuple(b) for b in pg_incidence(plane3).rows(np.arange(plane3.size)).tolist()]
    fig_rows = [tuple(b) for b in held3.blocks.tolist()]
    pg_set = set(pg_rows)
    for i, t in enumerate(plane3.tables.types):
        if t == TYPE_III:
            assert fig_rows[i] != pg_rows[i]
            assert fig_rows[i] not in pg_set
        else:
            assert fig_rows[i] == pg_rows[i]


def test_block_arrays_are_read_only_int32(plane3, fig3, held3):
    """No source of figplane holds a block array: the FIG, PG and the FIG
    keeping line 5 make their rows when read, every source reads int32
    rows, and the test-side held copy is read-only."""
    assert type(fig3) is IncidencePlane and fig3.kept == () and fig3.shape == (757, 28)
    assert held3.blocks.shape == (757, 28)
    assert not held3.blocks.flags.writeable
    pg = pg_incidence(plane3)
    assert not hasattr(pg, "blocks") and pg.shape == (757, 28)
    mutated = dataclasses.replace(fig3, kept=(5,))
    assert not hasattr(mutated, "blocks") and mutated.shape == (757, 28)
    assert not hasattr(fig3, "blocks")
    L = np.array([0, 5, 756])
    for structure in (fig3, pg, mutated, held3):
        rows = structure.rows(L)
        assert rows.shape == (3, 28) and rows.dtype == np.int32
    assert np.array_equal(mutated.rows(L), np.stack([held3.blocks[0], pg.rows([5])[0],
                                                     held3.blocks[756]]))


@pytest.mark.parametrize("q", [3, 4])
def test_one_row_source_keeps_the_lines_it_names(q, request):
    """PG, FIG and the mutated FIG are one row source: PG's rows are the
    incidence rows, FIG's the assembled rows, and the FIG keeping its first
    Type III line i has FIG's rows but for row i, which is PG's, read alone
    or with the others.  ``fig_rows`` hands on the incidence rows it makes
    the FIG rows from.  Keeping a Type I or II line changes nothing."""
    plane = request.getfixturevalue(f"plane{q}")
    tables, every = plane.tables, np.arange(plane.size)
    pg, fig = pg_incidence(plane), build_fig_plane(plane)
    pg_rows, fig_rows = pg.rows(every), fig.rows(every)
    assert np.array_equal(pg_rows, tables.incidence_rows(every))
    assert all(map(np.array_equal, (fig_rows, pg_rows), tables.fig_rows(every)))
    i = _first_fig_row(fig)
    mutated = dataclasses.replace(fig, kept=(i,))
    rows, others = mutated.rows(every), every != i
    assert np.array_equal(rows[others], fig_rows[others])
    assert np.array_equal(rows[i], pg_rows[i]) and not np.array_equal(rows[i], fig_rows[i])
    assert np.array_equal(mutated.rows([i]), pg_rows[[i]])
    kept = tuple(np.flatnonzero(tables.types != TYPE_III).tolist())
    assert {int(tables.types[L]) for L in kept} == {TYPE_I, TYPE_II}
    assert np.array_equal(dataclasses.replace(fig, kept=kept).rows(every), fig_rows)
    assert np.array_equal(dataclasses.replace(mutated, kept=kept + (i,)).rows(every), rows)


def test_fig_blocks_contain_triangles(plane3, fig3):
    # a block is no line: exhibit three non-collinear members
    ctx = plane3.ctx
    i = _first_fig_row(fig3)
    pts = [plane3.points[j] for j in fig3.rows([i])[0][:3]]
    l = join(ctx, pts[0], pts[1])
    from figplane.plane import incident
    assert not incident(ctx, pts[2], l)


def test_build_collineation_invariant(plane3, held3):
    ctx = plane3.ctx
    perm = [plane3.index(collineate_point(ctx, P)) for P in plane3.points]
    block_set = {frozenset(b) for b in held3.blocks}
    assert all(frozenset(perm[i] for i in b) in block_set for b in held3.blocks)


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
    mutated = HeldRows(plane, held(fig).blocks.copy())
    i = _first_fig_row(fig)
    mutated.blocks[i] = sorted(plane.points_on(plane.point(i)))
    return mutated


def _swapped(fig, swaps):
    """FIG with rows L1 and L2 trading y (of L1) and z (of L2), for each
    (L1, L2, y, z) in ``swaps``."""
    blocks = held(fig).blocks
    mutated = HeldRows(fig.plane, blocks.copy())
    for L1, L2, y, z in swaps:
        b1, b2 = set(blocks[L1].tolist()), set(blocks[L2].tolist())
        mutated.blocks[L1] = sorted(b1 - {y} | {z})
        mutated.blocks[L2] = sorted(b2 - {z} | {y})
    return mutated


def _swap_mutation(fig):
    """Blocks b1, b2 through a common point x trade y in b1 for z in b2.

    Block sizes and point degrees are unchanged, so only the pair count
    sees it: y now shares b2 with points it already had a block with."""
    b1, b2 = (set(row.tolist()) for row in fig.rows([0, 1]))
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


def _rotated(fig, part):
    """FIG with each fig row L keeping one part of its block and taking the
    other from the row of phi(L): the Type II part for ``part`` "E", the
    Type III part for "F".  phi commutes with tau and d, so the structure
    stays invariant under both, with its block sizes and point degrees:
    only the cover can see it."""
    types, phi = fig.plane.tables.types, fig.plane.tables.phi
    L = np.flatnonzero(types == TYPE_III)
    taken = {"E": TYPE_II, "F": TYPE_III}[part]
    own, image = fig.rows(L), fig.rows(phi[L])
    parts = (own[types[own] != taken], image[types[image] == taken])
    mutated = HeldRows(fig.plane, held(fig).blocks.copy())
    mutated.blocks[L] = np.sort(np.concatenate([p.reshape(len(L), -1) for p in parts],
                                               axis=1), axis=1)
    return mutated


def _carried_swap(fig, gens):
    """The swap of ``_swap_mutation`` made on the least fig rows L1, L2 of
    the first two largest orbits of the group generated by ``gens``, each a
    (point table, line table) pair, and carried along it: rows g(L1) and
    g(L2) trade g(y) and g(z) for every g.  The changed rows are distinct,
    so the structure is invariant under ``gens`` and keeps its block sizes
    and point degrees."""
    rows = np.flatnonzero(fig.plane.tables.types == TYPE_III).tolist()
    orbits = sorted({tuple(_orbit((L,), [(gl,) for _, gl in gens])) for L in rows},
                    key=lambda o: (-len(o), o))
    (L1,), (L2,) = orbits[0][0], orbits[1][0]
    b1, b2 = (set(row.tolist()) for row in fig.rows([L1, L2]))
    y, z = max(b1 - b2), max(b2 - b1)
    orbit = _orbit((L1, L2, y, z), [(gl, gl, g, g) for g, gl in gens])
    assert len({t[0] for t in orbit} | {t[1] for t in orbit}) == 2 * len(orbit)
    return _swapped(fig, orbit)


def _generators(plane):
    """The axiom checker's generators: name -> its collineation, which
    unpacks as (point table, line table)."""
    t = plane.tables
    return {"tau": t.tau, "dickson": t.dickson}


def _brute_force_axioms(structure):
    """Reference full count over every ordered point pair: for each point
    P, every point of every block through P, counted.  Returns the three
    verdict halves, every pair that lies in other than one block (with its
    count), and every row holding both points of such a pair.  Rows are
    read once, through ``rows``, and must hold distinct points."""
    n = structure.size
    k = structure.plane.ctx.q ** 3 + 1
    blocks = structure.rows(np.arange(structure.shape[0]))
    through = [[] for _ in range(n)]
    for r, row in enumerate(blocks.tolist()):
        assert len(set(row)) == len(row)
        for P in row:
            through[P].append(r)
    bad = {}
    for P in range(n):
        count = np.bincount(blocks[through[P]].ravel(), minlength=n)
        count[P] = 1
        bad.update(((P, Q), int(count[Q])) for Q in np.flatnonzero(count != 1).tolist())
    rows = {r for (P, Q) in bad for r in set(through[P]) & set(through[Q])}
    sizes_ok = blocks.shape == (n, k)
    degrees_ok = all(len(t) == k for t in through)
    return sizes_ok, degrees_ok, not bad, bad, rows


PAIR_WITNESS = re.compile(r"point pair (\S+) , (\S+) lies in (\d+) blocks")
ROW_WITNESS = re.compile(r"the (tau|dickson) image of block \[(\S+)\] is not block \[(\S+)\]")


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
    assert ROW_WITNESS.fullmatch(rep.witnesses[0])


def test_axioms_reject_a_wrong_block_shape(held3):
    """A block array with a row or a column too few fails the size check."""
    short = HeldRows(held3.plane, held3.blocks[:-1])
    rep = check_axioms(short)
    assert not rep.ok and not rep.block_size_ok and not rep.point_degree_ok
    narrow = HeldRows(held3.plane, held3.blocks[:, :-1])
    rep = check_axioms(narrow)
    assert not rep.ok and not rep.block_size_ok and not rep.point_degree_ok
    assert rep.witnesses == ["block array has shape (757, 27), not (757, 28)"]


@pytest.mark.parametrize("value", [-1, 757])
def test_axioms_range_guard(held3, value):
    """An entry outside [0, n) fails before any gather, with a witness; -1
    would otherwise be read as the last point."""
    blocks = held3.blocks.copy()
    blocks[5, 3] = value
    rep = check_axioms(HeldRows(held3.plane, blocks))
    assert not rep.ok and not rep.block_size_ok
    assert not rep.point_degree_ok and not rep.point_pairs_ok
    assert rep.witnesses == [f"block {format_line(held3.plane.point(5))} holds {value}, "
                             "outside [0, 757)"]


def _assert_matches_brute_force(structure):
    """check_axioms agrees with the full count on the three halves, and
    every witness names a pair or a row that the full count flags."""
    rep = check_axioms(structure)
    sizes_ok, degrees_ok, pairs_ok, bad, rows = _brute_force_axioms(structure)
    assert (rep.block_size_ok, rep.point_degree_ok, rep.point_pairs_ok) == \
        (sizes_ok, degrees_ok, pairs_ok)
    assert rep.ok == (sizes_ok and degrees_ok and pairs_ok)
    assert bool(rep.witnesses) == (not rep.ok)
    assert all(_witness_kind(structure.plane, w, bad, rows) for w in rep.witnesses)
    assert rep.mode == "orbit-reduced"
    assert rep.checked_pairs == structure.size * (structure.size - 1)
    return rep


def test_axioms_match_brute_force(plane3, fig3):
    from figplane.field import build_field_tower
    from figplane.plane import ProjectivePlane
    pg8 = pg_incidence(ProjectivePlane(build_field_tower(2, 1)))
    assert pg8.size == 73
    gens = _generators(plane3)
    for structure in (pg8, fig3, _line_mutation(plane3, fig3), _swap_mutation(fig3),
                      _rotated(fig3, "E"), _rotated(fig3, "F"),
                      _carried_swap(fig3, [gens["tau"]]),
                      _carried_swap(fig3, [gens["dickson"]])):
        _assert_matches_brute_force(structure)


@pytest.mark.parametrize("q", [3, 4])
def test_axioms_match_brute_force_on_each_row_source(q, fig3, fig4):
    """The three structures of the one row source: PG, which keeps every
    line, the FIG, which keeps none, and the FIG keeping its first Type III
    line."""
    fig = {3: fig3, 4: fig4}[q]
    mutated = dataclasses.replace(fig, kept=(_first_fig_row(fig),))
    verdicts = [_assert_matches_brute_force(s).ok
                for s in (pg_incidence(fig.plane), fig, mutated)]
    assert verdicts == [True, True, False]


def _traded(structure, L1, L2):
    """``structure`` with rows L1 and L2 trading their largest points that
    the other row lacks, in a held copy: block sizes and point degrees
    hold."""
    b1, b2 = (set(structure.rows([L])[0].tolist()) for L in (L1, L2))
    y, z = max(b1 - b2), max(b2 - b1)
    return replaced(structure, {L1: sorted(b1 - {y} | {z}), L2: sorted(b2 - {z} | {y})})


def test_row_pass_fails_each_half_with_a_witness(plane3):
    """One pass over closed-form rows: an entry out of range, a wrong
    degree and a row that a generator does not carry to a row each fail
    their half, with a witness."""
    pg, n = pg_incidence(plane3), plane3.size
    row = pg.rows([5])[0].copy()
    row[3] = n
    rep = check_axioms(replaced(pg, {5: row}))
    assert not (rep.ok or rep.block_size_ok or rep.point_degree_ok or rep.point_pairs_ok)
    assert rep.witnesses == [f"block {format_line(plane3.point(5))} holds {n}, outside [0, {n})"]
    # line 5 carries the points of line 6: twice in one block, never in the other
    rep = _assert_matches_brute_force(replaced(pg, {5: pg.rows([6])[0]}))
    assert rep.block_size_ok and not rep.point_degree_ok and not rep.ok and rep.witnesses
    rep = _assert_matches_brute_force(_traded(pg, 0, 1))
    assert rep.block_size_ok and rep.point_degree_ok and not rep.point_pairs_ok
    assert rep.witnesses[0].startswith("the tau image of block [1:0:0]")


def test_invariance_witness_in_a_later_chunk(plane4):
    """At q = 4 the pass reads several chunks of rows.  Two lines past the
    first chunks of index order trade a point; each generator's witness is
    its least moved row, found here over the whole row array at once,
    whichever chunk of tau's line cycles holds it."""
    from figplane.arrays import CHUNK
    pg, n, tables = pg_incidence(plane4), plane4.size, plane4.tables
    step = CHUNK // 65
    gens = _generators(plane4)
    B = pg.rows(np.arange(n))
    for L1 in range(2 * step, n - 1):
        traded = _traded(pg, L1, L1 + 1)
        rows = traded.rows(np.arange(n))
        first = {name: int(np.argmax((np.sort(g[rows], axis=1) != rows[g_line]).any(axis=1)))
                 for name, (g, g_line) in gens.items()}
        if min(first.values()) >= 2 * step:
            break
    assert not np.array_equal(rows, B)
    rep = check_axioms(traded)
    assert rep.block_size_ok and rep.point_degree_ok and not rep.point_pairs_ok
    assert rep.witnesses[:2] == [
        f"the {name} image of block {format_line(plane4.point(L))} is not block "
        f"{format_line(plane4.point(gens[name].lines[L]))}" for name, L in first.items()]


def test_axioms_make_each_row_once_per_role(plane3):
    """A source that makes its rows when read, PG's or the FIG's, is read
    in one pass: each row once as itself, which is also the tau image of
    another row of its chunk, and once as the d image of another; the cover
    counts the rows of the blocks through the representatives that the pass
    kept, and reads none again."""
    class Counted(IncidencePlane):
        made = 0

        def rows(self, L):
            self.made += len(L)
            return super().rows(L)

    for source in (pg_incidence(plane3), build_fig_plane(plane3)):
        structure = Counted(plane3, kept=source.kept)
        rep = check_axioms(structure)
        assert rep.ok and rep.representatives == 3
        assert structure.made == 2 * plane3.size, source.kept


@pytest.mark.parametrize("q", [3, 4])
def test_axioms_orbit_mutation_fails_the_cover(q, fig3, fig4):
    """Type III parts moved along whole phi-orbits of fig rows keep the
    structure invariant under tau and d, so the cover half, not the
    invariance half, catches it; each pair witness holds its stated count."""
    fig = {3: fig3, 4: fig4}[q]
    mutated = _rotated(fig, "F")
    rep = check_axioms(mutated)
    assert rep.block_size_ok and rep.point_degree_ok and not rep.point_pairs_ok
    assert rep.witnesses and not rep.ok
    for w in rep.witnesses:
        m = PAIR_WITNESS.fullmatch(w)
        assert m, w
        P, Q = (fig.plane.index(tuple(int(c) for c in t.split(":"))) for t in m.group(1, 2))
        holds = lambda p: (mutated.blocks == p).any(axis=1)
        assert np.count_nonzero(holds(P) & holds(Q)) == int(m[3])


def test_axioms_equivariant_swap_fails_only_the_pairs(fig3):
    """Type II parts moved along whole phi-orbits: the same, for the other part."""
    rep = check_axioms(_rotated(fig3, "E"))
    assert rep.block_size_ok and rep.point_degree_ok
    assert not rep.point_pairs_ok and not rep.ok
    assert rep.witnesses and all(PAIR_WITNESS.fullmatch(w) for w in rep.witnesses)


@pytest.mark.parametrize("missing, kept", [("tau", "dickson"), ("dickson", "tau")],
                         ids=["tau", "dickson"])
def test_axioms_each_generator_half_is_needed(fig3, missing, kept):
    """A swap carried along the orbits of one generator keeps the structure
    invariant under it alone: the other generator's half names the first
    row it moves, and the kept generator's half names none."""
    gens = _generators(fig3.plane)
    rep = check_axioms(_carried_swap(fig3, [gens[kept]]))
    assert rep.block_size_ok and rep.point_degree_ok and not rep.point_pairs_ok
    assert rep.witnesses[0].startswith(f"the {missing} image of block")
    assert not any(w.startswith(f"the {kept} image") for w in rep.witnesses)


def _dickson_oracle(ctx):
    """Rows of D(1, a, b), the least (b, a) with a >= 2 and a nonzero
    determinant, by scalar arithmetic."""
    f = ctx.frob
    for b in range(ctx.q3):
        for a in range(2, ctx.q3):
            m = ((1, a, b), (f(b, 1), 1, f(a, 1)), (f(a, 2), f(b, 2), 1))
            if det3(ctx, m):
                return m


@pytest.mark.parametrize("q", [2, 3, 4])
def test_dickson_tables_match_the_matrix_action(q):
    """Every point P maps to the canonical form of the scalar product d P.
    At q >= 3, d is D(1, w, 0) with w the least code >= 2 with
    1 + N(w) != 0."""
    from figplane.field import context_for_q
    from figplane.plane import ProjectivePlane
    ctx = context_for_q(q)
    plane, m = ProjectivePlane(ctx), _dickson_oracle(ctx)
    if q > 2:
        w = next(w for w in range(2, ctx.q3) if ctx.add(1, ctx.norm(w)))
        assert m[0] == (1, w, 0) and w == (3 if q == 3 else 2)
    mul, add = ctx.mul, ctx.add
    image = [plane.index(canonical(ctx, tuple(
        add(add(mul(r[0], P[0]), mul(r[1], P[1])), mul(r[2], P[2])) for r in m)))
        for P in map(plane.point, range(plane.size))]
    assert plane.tables.dickson.points.tolist() == image


@pytest.mark.parametrize("name", ["phi", "tau", "dickson"])
@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_line_tables_match_the_point_tables(q, name):
    """Each collineation maps the points of every line L onto the points of
    line g.lines[L]: phi, which maps lines by its point formula, and tau
    and d, whose line tables are made from the cofactor matrix."""
    from figplane.field import context_for_q
    tables = PlaneTables(context_for_q(q))
    g = {**_walked(tables), "dickson": tables.dickson}[name]
    rows = tables.incidence_rows(np.arange(tables.size))
    assert np.array_equal(np.sort(g.points[rows], axis=1), tables.incidence_rows(g.lines))


@pytest.mark.parametrize("q, a, b", [(2, 4, 1), (3, 3, 0), (4, 2, 0), (5, 2, 0),
                                     (7, 2, 0), (8, 2, 0), (11, 2, 0)])
def test_dickson_matrix_is_the_first_nonsingular_one(q, a, b):
    """d is D(1, a, b) for the first nonsingular (b, a) with a >= 2, as the
    scalar oracle finds it."""
    from figplane.arrays import PlaneTables
    from figplane.field import context_for_q
    ctx = context_for_q(q)
    rows = [[int(x) for x in r] for r in PlaneTables(ctx)._dickson_rows]
    assert rows[0] == [1, a, b]
    assert rows == [list(r) for r in _dickson_oracle(ctx)]


def test_dickson_search_allocates_nothing_wide():
    """The search tries one (b, a) at a time in scalars: at q = 7 it
    allocates no array over the q^6 candidates, which would take megabytes."""
    import tracemalloc
    from figplane.arrays import PlaneTables
    from figplane.field import context_for_q
    tables = PlaneTables(context_for_q(7))
    tracemalloc.start()
    try:
        tables._dickson_rows
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak


def _walked(tables):
    """The two collineations the row pass walks: phi, which maps lines by
    its point table, and tau."""
    return {"phi": Collineation(tables.phi, tables.phi), "tau": tables.tau}


@pytest.mark.parametrize("name", ["phi", "tau"])
def test_walk_reads_each_row_once_in_closed_chunks(fig3, fig4, name):
    """The chunks of the walk under phi and tau are sorted, closed under
    each line map, and partition the lines; each holds at most ``CHUNK``
    entries or is one orbit, so q = 3 and 4 read 2 and 17 chunks; and PG
    and the FIG, both invariant, have no block that the map moves off a
    row of its chunk."""
    from figplane.arrays import CHUNK
    from figplane.row_pass import orbit_labels
    for fig, count in ((fig3, 2), (fig4, 17)):
        plane, k = fig.plane, fig.shape[1]
        g, g_line = _walked(plane.tables)[name]
        maps = list(_walked(plane.tables).values())
        orbit = orbit_labels([m.lines for m in maps])
        seen = []
        for L in walk(fig, maps):
            assert (np.diff(L) > 0).all() and np.isin(g_line[L], L).all()
            assert len(L) * k <= CHUNK or (orbit[L] == orbit[L[0]]).all()
            for structure in (pg_incidence(plane), fig):
                rows = structure.rows(L)
                assert not moved_rows(L, rows, g, rows[np.searchsorted(L, g_line[L])]).size
            seen.append(L)
        assert len(seen) == count
        assert np.array_equal(np.sort(np.concatenate(seen)), np.arange(plane.size))


@pytest.mark.parametrize("value", [-1, 757])
def test_walk_masks_an_entry_out_of_range_before_any_image(held3, value, monkeypatch):
    """A row holding an entry outside [0, n) is masked in its chunk, which
    compares no image: -1 would be read as the last point, and n would
    raise.  The build reader compares the other chunks under phi, and the
    axiom reader, which rejects the structure from the mask, no chunk."""
    import figplane.row_pass as rp
    blocks = held3.blocks.copy()
    blocks[5, 3] = value
    compared, real = [], rp.moved_rows
    monkeypatch.setattr(rp, "moved_rows", lambda L, *a: compared.append(L) or real(L, *a))
    structure = HeldRows(held3.plane, blocks)
    assert not check_axioms(structure).ok and not compared
    assert not rp.read_rows(structure, ("build",))["build"][1]["collineation_invariant"]
    assert not any(5 in L for L in compared)
    rp.read_rows(held3, ("build",))
    assert compared     # the rows in range are compared through the patched name


def test_least_row_out_of_range_is_named_whatever_the_chunk_order(plane4):
    """At q = 4 the walk reads several chunks, in the order of their least
    orbit member, not of their rows.  With entries out of range in two
    rows, the later of which a chunk read first holds, the witness names
    the least row."""
    fig, n = build_fig_plane(plane4), plane4.size
    chunks = list(walk(fig, list(_walked(plane4.tables).values())))
    assert len(chunks) > 2
    a, b = int(chunks[1][0]), int(chunks[0][-1])
    assert a < b
    rep = check_axioms(replaced(fig, {b: np.full(65, n), a: np.full(65, -1)}))
    assert rep.witnesses == [f"block {format_line(plane4.point(a))} holds -1, outside [0, {n})"]


def _reach(start, generators):
    """The points reached from ``start`` by the permutation tables, a
    frontier at a time."""
    seen = np.zeros(len(generators[0]), dtype=bool)
    seen[start] = True
    frontier = np.array([start])
    while frontier.size:
        step = np.concatenate([g[frontier] for g in generators])
        frontier = np.unique(step[~seen[step]])
        seen[frontier] = True
    return seen


@pytest.mark.parametrize("q", [3, 4, 5, 7])
def test_representatives_follow_the_census(q):
    """d commutes with phi and keeps types, and <tau, d> has three point
    orbits, reached from the three representatives, which are the three
    point types with the census counts."""
    from figplane.field import context_for_q
    from figplane.suites import Session, census_checks
    sess = Session(context_for_q(q))
    tables = sess.plane.tables
    tau, d, types = tables.tau.points, tables.dickson.points, tables.types
    assert np.array_equal(d[tables.phi], tables.phi[d])
    assert np.array_equal(types[d], types)
    reps = orbit_minima([tables.tau.points, tables.dickson.points])
    assert len(reps) == 3
    lines = orbit_minima([tables.tau.lines, tables.dickson.lines])
    assert sorted(types[lines]) == [TYPE_I, TYPE_II, TYPE_III]
    (tally,) = [e for e in census_checks(sess) if e.id == "census.point-types"]
    for P in reps:
        orbit = _reach(P, [tau, d])
        assert np.array_equal(orbit, types == types[P])
        assert np.count_nonzero(orbit) == tally.counts[TYPE_NAMES[types[P]]]
    if q <= 5:
        assert check_axioms(pg_incidence(sess.plane)).representatives == 3


def _build_failures(fig, blocks):
    """The failing sub-checks that ``fig.build-rows``, the row control of
    ``fig.build``, names for a session whose FIG structure has the given
    blocks."""
    from figplane.suite_figueroa import build_rows
    sess = Session(fig.plane.ctx)
    sess.plane = fig.plane
    sess.fig_structure = HeldRows(fig.plane, blocks)
    build = build_rows(sess)
    assert build.passed == (build.witnesses == [])
    return [w for w in build.witnesses if "_" in w]


def test_build_check_names_each_failing_subcheck(plane3, fig3):
    """Each vectorized row sub-check of ``fig.build-rows`` fails alone, with
    its name as the witness, on a mutation that leaves the other sub-checks
    true."""
    inc, phi = plane3.tables.incidence_rows(np.arange(plane3.size)), plane3.tables.phi
    fig_blocks = held(fig3).blocks
    assert _build_failures(fig3, fig_blocks) == []
    # a whole collineation orbit of blocks put back to the lines they
    # displaced: still invariant, but some blocks are lines now
    i = _first_fig_row(fig3)
    blocks = fig_blocks.copy()
    for j in {i, phi[i], phi[phi[i]]}:
        blocks[j] = inc[j]
    assert _build_failures(fig3, blocks) == ["blocks_differ_from_lines"]
    # one Type I line replaced by another: both are fixed by the collineation
    l1, l2 = np.flatnonzero(plane3.tables.types == TYPE_I)[:2]
    assert phi[l1] == l1 and phi[l2] == l2
    blocks = fig_blocks.copy()
    blocks[l1] = inc[l2]
    assert _build_failures(fig3, blocks) == ["kept_lines_agree"]
    # one block with one point traded: a k-set that is no line and whose
    # collineation image is no block
    block = set(fig_blocks[i].tolist())
    outside = min(set(range(plane3.size)) - block)
    blocks = fig_blocks.copy()
    blocks[i] = sorted(block - {max(block)} | {outside})
    assert _build_failures(fig3, blocks) == ["collineation_invariant"]


def test_projection_of_anchor_block(plane3, plane4, plane5):
    ctx3, ctx4, ctx5 = plane3.ctx, plane4.ctx, plane5.ctx
    img3 = pr_fig_block(plane3, 0)
    assert len(img3) == 28
    assert img3.tolist() == expected_pr_fig_block(ctx3, 0).tolist()
    img4 = pr_fig_block(plane4, 0)
    assert len(img4) == 65
    assert triples(ctx4, img4) == frozenset(points_on_line(ctx4, AXIS))
    img5 = pr_fig_block(plane5, 0)
    assert len(img5) == 64
    assert img5.tolist() == expected_pr_fig_block(ctx5, 0).tolist()
    # odd q: the image is the two carriers, the norm minus-one set, and
    # the sets of every theta whose norm is a square
    want5 = {ANCHOR_1, ANCHOR_2} | sls_set(ctx5, ctx5.neg_one)
    for theta in units(ctx5):
        if ctx5.is_nonzero_square(ctx5.norm(theta)):
            want5 |= sls_set(ctx5, theta)
    assert triples(ctx5, img5) == want5


def test_projection_of_conjugate_blocks(plane3, plane4):
    for plane in (plane3, plane4):
        axis = frozenset(points_on_line(plane.ctx, AXIS))
        s1 = sls_set(plane.ctx, 1)
        assert triples(plane.ctx, pr_fig_block(plane, 1)) == axis - s1 - {ANCHOR_1}
        assert triples(plane.ctx, pr_fig_block(plane, 2)) == axis - s1 - {ANCHOR_2}


def test_arching_census(ctx3, ctx4, ctx5):
    assert arching_census(ctx3) == {0: 2, 1: 0}
    assert arching_census(ctx4) == {0: 1, 1: 1, 2: 1}
    assert sorted(arching_census(ctx5).values(), reverse=True) == [2, 2, 0, 0]
    for ctx in (ctx3, ctx5):
        for j, c in arching_census(ctx).items():
            nt = ctx.norm(ctx.norm_class_rep(j))
            assert c == (2 if ctx.is_nonzero_square(nt) else 0)


def test_characterization(plane3, plane4):
    for plane in (plane3, plane4):
        rep = characterize_fig_points(plane)
        assert rep.ok
        assert rep.vertex_count == rep.expected_count


def test_characterization_witness_sets_q3(plane3):
    ctx = plane3.ctx
    points, _, _ = block_points(plane3, ANCHOR)
    off_axis = {P for P in points if P[2] != 0}
    assert off_axis == triples(ctx, t_plane(ctx, ctx.neg_one).points)
    assert len(off_axis) + 1 == 14


ALL_VERTICES_OK = {"anchor_ok": "True", "conjugate1_ok": "True", "conjugate2_ok": "True"}


def test_even_structure(ctx4):
    e = even_structure(Session(ctx4))
    assert e.passed and e.counts == ALL_VERTICES_OK and not e.witnesses


def test_even_structure_q8():
    from figplane.field import build_field_tower
    e = even_structure(Session(build_field_tower(2, 3)))
    assert e.passed and e.counts == ALL_VERTICES_OK


def test_even_structure_rejects_odd(ctx3, ctx4):
    """The check is registered for even q only, so no suite runs it at odd q."""
    (row,) = [c for c in CHECKS if c.run is even_structure]
    assert not row.applies(ctx3) and row.applies(ctx4)
    assert figueroa_checks(Session(ctx3), "even-structure") == []


def test_even_structure_mutation(plane4, monkeypatch):
    ctx4 = plane4.ctx
    block = anchor_block(plane4, ANCHOR)
    _, _, f_points = block_points(plane4, ANCHOR)
    removed = sorted(f_points - {ANCHOR_1, ANCHOR_2})[0]
    mutated = block[block != plane4.index(removed)]
    monkeypatch.setattr("figplane.figueroa.anchor_block",
                        lambda plane, anchor: mutated if anchor == ANCHOR else block)
    e = even_structure(Session(ctx4))
    assert not e.passed
    # the removed point's conjugates are missing at every vertex: the break
    # at the anchor shows exactly on the line joining it to the removed point
    bad_line = join(ctx4, ANCHOR, removed)
    assert e.counts == {key: "False" for key in ALL_VERTICES_OK}
    assert e.witnesses[0] == (f"vertex {format_point(ANCHOR)}: line {format_line(bad_line)}"
                              " carries 0 Type III and 0 Type II block points")
    assert [w for w in e.witnesses if w.startswith(f"vertex {format_point(ANCHOR)}:")] \
        == e.witnesses[:1]


def test_splash_involution(ctx3, ctx4):
    e3 = splash_involution(Session(ctx3))
    assert e3.passed and e3.counts["image_size"] == 15
    axis3 = frozenset(points_on_line(ctx3, AXIS))
    assert e3.counts["image_size"] == len(axis3 - sls_set(ctx3, 1))
    e4 = splash_involution(Session(ctx4))
    assert e4.passed and e4.counts["image_size"] == 44
    # even q: the image is exactly the Type III axis points
    type3 = {P for P in points_on_line(ctx4, AXIS)
             if point_type(ctx4, P) == TYPE_III}
    assert e4.counts["image_size"] == len(type3)
    assert e4.counts["type3_iff_even"] == "True"


def test_emit_plane(tmp_path, fig3):
    path = tmp_path / "fig27.txt"
    emit_plane(fig3, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "FIG 27 757"
    assert len(lines) == 758
    row = list(map(int, lines[1].split()))
    assert len(row) == 28 and all(0 <= i < 757 for i in row)


GUARD_SCRIPT = """
import sys
import numpy as np
from figplane import figueroa, linear_sets, suite_maps
from figplane.field import build_field_tower
from figplane.plane import ANCHOR, GeometryError
from figplane.suites import Session

ctx = build_field_tower(3, 1)
fired = []

def attempt(name, fn, *args):
    try:
        fn(*args)
    except GeometryError:
        fired.append(name)

sess = Session(ctx)
plane = sess.plane
types = plane.tables.types.copy()
types[linear_sets.pencil_lines(ctx, 1)[0]] = 3      # one pencil line of another type
plane.tables.types = types
attempt("pencil_type", suite_maps._pencil_type, sess, 1)
plane.tables.types = np.where(types == 2, 1, types)   # no Type II: short blocks
attempt("anchor_block", figueroa.anchor_block, plane, ANCHOR)
attempt("build_fig_plane", lambda p: figueroa.build_fig_plane(p).rows(np.arange(p.size)), plane)
real = linear_sets.orbit_rows

def repeated(ctx, P):                # a row with a repeated entry: too few members
    rows = real(ctx, P)
    rows[:, -1] = rows[:, 0]
    return rows

linear_sets.orbit_rows = repeated
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
    assert out.split() == ["1", "pencil_type", "anchor_block", "build_fig_plane",
                           "sls_points", "t_plane", "plane_from_rep"]


@pytest.mark.parametrize("q", [3, 4])
def test_one_row_read_leaves_the_lookup_tables_unbuilt(q):
    """A read of rows, one as ``anchor_block`` makes or every row at once,
    computes their two parts from the type and involution tables; only a
    pass over every row, such as the row pass, builds the n-entry lookup
    tables E and F, and reads gather from them then.  All give every row
    alike."""
    from figplane.field import build_field_tower
    from figplane.plane import ProjectivePlane
    from figplane.row_pass import read_rows
    plane = ProjectivePlane(build_field_tower(*{3: (3, 1), 4: (2, 2)}[q]))
    tables = plane.tables
    single = [tables.fig_rows([L])[0][0] for L in range(plane.size)]
    anchor_block(plane, ANCHOR)
    every = tables.fig_rows(np.arange(plane.size))[0]
    assert "fig_lookup" not in vars(tables)
    assert np.array_equal(np.stack(single), every)
    read_rows(build_fig_plane(plane), ("build",))
    assert "fig_lookup" in vars(tables)
    assert np.array_equal(tables.fig_rows(np.arange(plane.size))[0], every)


def test_streamed_axiom_check_holds_no_block_array(plane5):
    """At q = 5 a held block array would take 15,751 x 126 int32, 7.9 MB;
    the streamed check of FIG(125) peaks under 2 MB of traced allocations
    beyond the per-point tables it reads, which are built first."""
    import tracemalloc
    tables = plane5.tables
    for name in ("types", "mu", "tau", "dickson", "fig_lookup"):
        getattr(tables, name)
    assert plane5.size * 126 * 4 > 7_900_000
    tracemalloc.start()
    try:
        rep = check_axioms(build_fig_plane(plane5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ok and peak < 2_000_000, peak
