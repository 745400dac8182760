"""Figueroa blocks, assembly of the Figueroa plane, and its structure checks.

For a Type III point A with involution image line m, the block of A is

    E(A)  the q^2+q+1 Type II points of m,   union
    F(A)  the involution images of the Type III lines through A,

a set of q^3+1 points.  The Figueroa plane FIG(q^3) keeps every Type I
and Type II line of PG(2,q^3) and replaces each Type III line m by the
block anchored at the involution image of m.  The construction reads
only phi-equivariant data, so FIG is invariant under the centralizer of
phi, the Dickson matrices, a copy of PGL(3, q); two of them, the torus
shift tau and one Dickson matrix d, are together transitive on each point
type.  Two ways show that FIG(q^3) is a projective plane, both exact at
every order: block sizes, point degrees, and one block through every
pair of distinct points.

* ``equivariance``, ``cover_faults`` and ``rep_faults``, mode
  equivariant, for the closed-form FIG: table premises under which tau
  and d map blocks to blocks (``Collineation.premises``), then the rows
  at one point and one line of each <tau, d> orbit alone;
* ``check_axioms``, the exhaustive control for any row source: it shows
  the structure invariant row by row under tau and d, then counts pairs
  from three points only.

Every block is made by ``PlaneTables.fig_rows``, which gives the rows of
the FIG (``build_fig_plane``) and the block of one anchor (``anchor_block``);
the reference the rows are tested against is the closed form ``fig_incident``.

An ``IncidencePlane`` is a row source that holds no rows: every reader
takes blocks through ``rows(L)`` in chunks, and the rows are made when
they are read.  PG (``pg_incidence``), FIG (``build_fig_plane``) and a
mutated FIG are one source, which differ only in the Type III lines they
keep: every one, none, or one.  The row controls read the rows in one
walk (``figplane.row_pass``), which makes a FIG row once for all of
them: as itself, with the line it replaces, and once more as a Dickson
image.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .arrays import (Bits, Collineation, PlaneTables, chunks, contains, distinct, orbit_minima,
                     span)
from .field import FieldContext, Gate
from .plane import ANCHOR, GeometryError, ProjectivePlane, Triple, format_point, incident
from .collineation import TYPE_I, TYPE_II, TYPE_III, collineate_point, line_type, point_type
from .linear_sets import sls_points, t_plane
from .maps import (TypeRestrictionError, anchor_projections, axis_points, conjugate_join,
                   conjugate_meet)


def anchor_block(plane: ProjectivePlane, anchor: Triple) -> np.ndarray:
    """The block of a Type III anchor as sorted point indices: the FIG row
    of the anchor's involution image line.  Its E part is its Type II
    entries, its F part its Type III entries."""
    tables, A = plane.tables, plane.index(anchor)
    if tables.types[A] != TYPE_III:
        raise TypeRestrictionError(f"anchor {anchor} is not Type III")
    return tables.fig_rows([tables.mu[A]])[0][0]


def anchor_parts(plane: ProjectivePlane) -> tuple[np.ndarray, np.ndarray]:
    """Point indices of the E and F parts of the block of ``ANCHOR``: its
    Type II and its Type III entries."""
    block = anchor_block(plane, ANCHOR)
    kind = plane.tables.types[block]
    return block[kind == TYPE_II], block[kind == TYPE_III]


MAX_WITNESSES = 5      # witnesses a FIG plane check reports at most


def fig_incident(ctx: FieldContext, P: Triple, L: Triple) -> bool:
    """Whether point P lies on the block of FIG(q^3) that replaces line L,
    in closed form, the single-object reference for the FIG rows.

    A Type III line L is replaced by the block of A = mu(L): the Type II
    points of L, and mu(M) for the Type III lines M through A.  So a Type
    II point is on it exactly when it is on L, and a Type III point P
    exactly when A lies on mu(P).  Every other line keeps its incidence.
    """
    if line_type(ctx, L) != TYPE_III:
        return incident(ctx, P, L)
    kind = point_type(ctx, P)
    if kind == TYPE_III:
        return incident(ctx, conjugate_meet(ctx, L), conjugate_join(ctx, P))
    return kind == TYPE_II and incident(ctx, P, L)


@dataclass
class IncidencePlane:
    """Point/block incidence structure over dense point indices, read only
    through ``rows(L)``: for an index array L of blocks, a (len(L), k)
    int32 array with the sorted point indices of each.

    Block L is line L of PG(2, q^3), or, when L is a Type III line that
    ``kept`` does not name, the Figueroa block that replaces it
    (``PlaneTables.fig_rows``).  ``kept`` None keeps every line: PG."""
    plane: ProjectivePlane
    kept: tuple[int, ...] | None = field(default=None, kw_only=True)

    @property
    def size(self) -> int:
        return self.plane.size

    @property
    def shape(self) -> tuple[int, ...]:
        """(blocks, points per block)."""
        return (self.size, self.plane.ctx.q3 + 1)

    def rows(self, L: np.ndarray) -> np.ndarray:
        tables = self.plane.tables
        return tables.incidence_rows(L) if self.kept is None else tables.fig_rows(L, self.kept)[0]

    def rows_and_lines(self, L: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``rows(L)`` and the incidence rows of the lines L.  FIG's rows
        come with their lines from one ``fig_rows`` call; a source whose
        ``rows`` is its own is read through it, and the lines made apart."""
        tables = self.plane.tables
        if type(self).rows is not IncidencePlane.rows:
            return self.rows(L), tables.incidence_rows(L)
        if self.kept is None:
            lines = tables.incidence_rows(L)
            return lines, lines
        return tables.fig_rows(L, self.kept)


def pg_incidence(plane: ProjectivePlane) -> IncidencePlane:
    """PG(2, q^3) itself, as a reference structure of closed-form rows."""
    return IncidencePlane(plane)


FIGUEROA = Gate(lambda ctx: ctx.q > 2,
                "the Figueroa construction needs q a prime power, q > 2")


def good_blocks(tables: PlaneTables, blocks: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """Which rows of ``blocks``, rows that replace Type III lines, with
    ``inside`` marking those whose entries are all in [0, n), have the
    block facts: strictly increasing, with q^2 + q + 1 Type II points, its
    E part, and no Type I point."""
    kinds = tables.types[blocks if inside.all() else np.clip(blocks, 0, tables.size - 1)]
    return (inside & (blocks[:, 1:] > blocks[:, :-1]).all(axis=1)
            & (np.count_nonzero(kinds == TYPE_II, axis=1) == tables.ctx.sub_order)
            & (kinds != TYPE_I).all(axis=1))


def line_blocks(tables: PlaneTables, blocks: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """Which rows of ``blocks``, with ``inside`` as for ``good_blocks``, are
    lines.  A k-set is a line exactly when it is the incidence row of the
    join of its first two points, so only the rows whose first three points
    are collinear are compared with a line's row."""
    F, out = tables.field, np.zeros(len(blocks), dtype=bool)
    maybe = np.flatnonzero((blocks[:, 0] != blocks[:, 1]) & inside)
    rows = blocks[maybe]
    join = F.cross(F.coords(rows[:, 0]), F.coords(rows[:, 1]))
    line = F.dot(join, F.coords(rows[:, 2])) == 0    # first three points collinear
    joins = F.index(*F.canonical(*(c[line] for c in join)))
    out[maybe[line]] = (tables.incidence_rows(joins) == rows[line]).all(axis=1)
    return out


class Equivariance(NamedTuple):
    """What the equivariant FIG checks read besides the rows at the
    representatives: the witnesses of ``Collineation.premises`` of phi, tau
    and the Dickson matrix d, by name, and the least point and the least
    line of each orbit of G = <tau, d>, found only when the premises of tau
    and d hold."""
    premises: dict[str, list[str]]
    points: np.ndarray
    lines: np.ndarray

    def witnesses(self, *names: str) -> list[str]:
        """The premise witnesses of the maps ``names``, each named."""
        return [f"{name}: {w}" for name in names for w in self.premises[name]]


def equivariance(tables: PlaneTables, kept=()) -> Equivariance:
    """The premises of phi, tau and d for the closed-form FIG that keeps
    the Type III lines ``kept``, and the G-orbit representatives.

    The lemma: a map g with permutation tables that preserve incidence and
    the types, commute with mu on Type III objects and fix the kept set
    maps the block of every line L to the block of g.lines[L], since a
    block is made from types, mu and incidence alone (``fig_rows``).  Then
    g preserves the number of blocks through any points, so the facts read
    at one point or line of each G-orbit hold at all.  The premises are
    table facts; that tau and d preserve incidence comes from their
    matrices (their line tables are the cofactor action), and that phi
    does from its semilinear formula, and is not computed."""
    maps = {"phi": Collineation(tables.phi, tables.phi), "tau": tables.tau,
            "dickson": tables.dickson}
    premises = {name: g.premises(tables, kept) for name, g in maps.items()}
    if premises["tau"] or premises["dickson"]:
        none = np.zeros(0, dtype=np.int32)
        return Equivariance(premises, none, none)
    G = (tables.tau, tables.dickson)
    return Equivariance(premises, orbit_minima([g.points for g in G]),
                        orbit_minima([g.lines for g in G]))


def blocks_through(tables: PlaneTables, P: int, kept=()) -> np.ndarray:
    """The sorted lines whose blocks hold the point P in the FIG that keeps
    the Type III lines ``kept``, by the closed form of ``fig_incident``: a
    kept line (Type I, II, or in ``kept``) through P; a replaced line
    through P when P is Type II; and, when P is Type III, mu[M] for each
    Type III point M on the line mu[P], unless it is kept."""
    types, mu = tables.types, tables.mu
    lines = tables.incidence_rows([P])[0]       # the lines through P
    held = (types[lines] != TYPE_III) | (types[P] == TYPE_II)
    if kept:
        held |= np.isin(lines, kept)
    through = lines[held]
    if types[P] == TYPE_III:
        on = tables.incidence_rows([mu[P]])[0]
        far = mu[on[types[on] == TYPE_III]]
        through = np.concatenate((through, far[~np.isin(far, kept)] if kept else far))
    return np.sort(through)


def cover_faults(tables: PlaneTables, P: int, kept=()) -> list[str]:
    """Witnesses, at most ``MAX_WITNESSES``, that the blocks through the
    point P (``blocks_through``) are not k distinct blocks that each hold P
    and that together hold every other point once; none when they are.
    Their rows are made ``CHUNK // k`` at a time, and the points met as
    one set of ``Bits``: they cover every other point once exactly when no
    point is met twice and n - 1 are met.  The witnesses are the blocks
    that miss P, or else the points met twice, then those never met."""
    n, k = tables.size, tables.ctx.q3 + 1
    name = tables.label(P)
    through = blocks_through(tables, P, kept)
    if len(through) != k or np.any(through[1:] == through[:-1]):
        return [f"the closed form puts point {name} in {len(through)} blocks, "
                f"{len(set(through.tolist()))} distinct, not {k}"]
    seen, met, miss, twice = Bits(n), 0, [], []
    for s in chunks(k, k):
        L = through[s]
        rows = tables.fig_rows(L, kept)[0]
        miss.extend(L[~(rows == P).any(axis=1)].tolist())
        v = np.sort(rows[rows != P])
        head = np.flatnonzero(np.diff(v, prepend=-1))       # the first of each run
        again = (np.diff(np.append(head, v.size)) > 1) | seen.has(v[head])
        twice.extend(v[head[again]].tolist())
        met += np.count_nonzero(~seen.has(v[head]))
        seen.add(v[head])
    if miss:
        return [f"block {tables.label(L, 'line')} of the closed form through {name} "
                "does not hold it" for L in miss[:MAX_WITNESSES]]
    out = [f"point pair {name} , {tables.label(Q)} lies in more than one block"
           for Q in sorted(twice)[:MAX_WITNESSES]]
    for s in chunks(n):
        if len(out) == MAX_WITNESSES or met == n - 1:
            break
        never = np.flatnonzero(~seen.mask(s)) + s.start
        out.extend(f"point pair {name} , {tables.label(Q)} lies in no block"
                   for Q in never[never != P][:MAX_WITNESSES - len(out)])
    return out


def rep_faults(tables: PlaneTables, L: np.ndarray, kept=()) -> dict[str, np.ndarray]:
    """The lines among L whose rows, in the closed form that keeps
    ``kept``, break a build fact: ``block``, the replaced lines whose
    blocks fail ``good_blocks``; ``line``, those whose blocks are lines;
    and ``kept``, the kept lines whose rows are not their incidence rows."""
    rows, lines = tables.fig_rows(L, kept)
    new = tables.types[L] == TYPE_III
    if kept:
        new &= ~np.isin(L, kept)
    blocks, inside = rows[new], np.ones(np.count_nonzero(new), dtype=bool)
    return {"block": L[new][~good_blocks(tables, blocks, inside)],
            "line": L[new][line_blocks(tables, blocks, inside)],
            "kept": L[~new][(rows[~new] != lines[~new]).any(axis=1)]}


def build_fig_plane(plane: ProjectivePlane) -> IncidencePlane:
    """FIG(q^3) as a row source that keeps no Type III line: row L is the
    incidence row of a Type I or II line L, and the block of the involution
    image of a Type III one."""
    if not FIGUEROA.holds(plane.ctx):
        raise GeometryError(f"{FIGUEROA.reason} (got q = {plane.ctx.q})")
    return IncidencePlane(plane, kept=())


@dataclass
class AxiomReport:
    ok: bool
    mode: str                        # "orbit-reduced": pairs counted from one point per orbit
    block_size_ok: bool
    point_degree_ok: bool
    point_pairs_ok: bool
    checked_pairs: int               # n(n - 1), the ordered point pairs the verdict covers
    representatives: int             # points whose pairs were counted
    witnesses: list[str] = field(default_factory=list)


def mutated_line(tables) -> int:
    """The line whose block the mutation puts back: the first Type III line."""
    return int(np.argmax(tables.types == TYPE_III))


def check_axioms(structure: IncidencePlane) -> AxiomReport:
    """Verify exactly that an incidence structure is a projective plane.

    With k = q^3 + 1 and n = k^2 - k + 1 points, the structure passes
    when it has n blocks of k entries in [0, n), every point lies in k
    blocks, and every pair of distinct points lies in exactly one block.
    That makes it a symmetric 2-(n, k, 1) design, whose blocks meet pairwise
    in one point (Hughes & Piper, 1973), so block pairs need no check.

    Pairs are counted from one point per orbit of G = <tau, d>, the torus
    shift and the Dickson matrix of ``PlaneTables.dickson``, which lies in
    the centralizer of phi and is transitive on each point type.  Rows are
    indexed by the line they replace and the construction is equivariant,
    so G-invariance is row-aligned: sort(g[rows(L)]) == rows(g[L]), with g
    acting on L by its line table.  In an invariant structure (gP, gQ)
    lies in as many blocks as (P, Q), so the pairs of the least point of
    each G-orbit stand for all.  Those points come from the generator
    tables (``orbit_minima``), not the type table, so the reduction
    assumes nothing that it proves.

    This is the one-structure call of ``row_pass.read_rows``, whose walk
    checks per chunk: (1) the range (a wrong shape or range fails every
    half at once); (2) point degrees; (3) invariance under tau, whose
    images are rows of the chunk, and under d, whose image rows are made
    once more for every chunk; and it (4) keeps the rows of the blocks
    through each representative.  The cover counts them: every other
    point must lie in exactly one.

    ``point_pairs_ok`` holds when (3) and the cover pass, so a structure
    that is not G-invariant fails it, plane or not.  ``checked_pairs`` is
    the n(n - 1) ordered pairs the verdict covers through invariance, and
    ``representatives`` the number of points whose pairs are counted.
    Witnesses name the shape fault, or the least row out of range, or the
    least failing row per generator and then failing (representative,
    point) pairs, at most ``MAX_WITNESSES`` in all; none depends on the
    order of the chunks.
    """
    from .row_pass import read_rows     # compiled only by a run that reads rows
    return read_rows(structure, ("axioms",))["axioms"]


def pr_fig_block(plane: ProjectivePlane, which: int = 0) -> np.ndarray:
    """Projection from the anchor of the block at the anchor's conjugate
    ``which`` (0, 1 or 2), as the sorted indices of its distinct points;
    the anchor itself, a member of the conjugate blocks, is skipped since
    projection is undefined there."""
    block = anchor_block(plane, collineate_point(plane.ctx, ANCHOR, which))
    return distinct(anchor_projections(plane.tables, block[block != plane.size - 1]))


def expected_pr_fig_block(ctx: FieldContext, which: int = 0) -> np.ndarray:
    """Closed form for the projection of a block from the anchor, as sorted
    point indices.

    For the anchor's own block: the whole axis when q is even; for odd q
    the two axis vertices, the norm minus-one linear set, and the linear
    sets whose norm is a nonzero square, each keyed by a theta of that norm
    (not by the square c itself, whose norm is c^3).  For the conjugate blocks
    the image is the axis minus the norm-one linear set and minus the
    co-vertex that is the conjugate's own projection shadow.
    """
    axis = axis_points(ctx)
    if which == 0:
        if ctx.q % 2 == 0:
            return axis
        sets = [(axis[0], axis[-1]), sls_points(ctx, ctx.neg_one)]     # (1, 0, 0), (0, 1, 0)
        sets.extend(sls_points(ctx, theta) for theta in map(ctx.norm_class_rep, range(ctx.q - 1))
                    if ctx.is_nonzero_square(ctx.norm(theta)))
        return distinct(np.concatenate(sets))
    gone = np.concatenate((sls_points(ctx, ctx.one), [axis[0] if which == 1 else axis[-1]]))
    return axis[~contains(np.sort(gone), axis)]


def arching_census(ctx: FieldContext) -> dict[int, int]:
    """For each pencil, by norm class, how many of the q-1 side subplanes
    it arches over, i.e. meets once on every pencil line: the joins of the
    anchor with the subplane's q^2+q+1 points (1, y, z), [1 : -1/y : 0] of
    index q^3 times the code of -1/y, are the pencil's lines, each once."""
    from .linear_sets import pencil_lines
    n, q3 = ctx.n, ctx.q3
    thetas = [ctx.norm_class_rep(j) for j in range(ctx.q - 1)]
    joins = [np.sort(((ctx.neg_one - np.asarray(t_plane(ctx, th).points) // q3) % n + 1) * q3)
             for th in thetas]
    return {j: sum(np.array_equal(s, pencil_lines(ctx, th)) for s in joins)
            for j, th in enumerate(thetas)}


@dataclass
class CharacterizationReport:
    ok: bool
    vertex_count: int                # including the anchor
    expected_count: int
    mismatches: list[str]


def characterize_fig_points(plane: ProjectivePlane,
                            census=None) -> CharacterizationReport:
    """Exhaustive equivalence scan: a point off the axis and distinct from
    the anchor projects the fixed subplane onto a side linear set exactly
    when it belongs to the anchor's block.  ``census`` is the vertex census
    of the fixed subplane, computed here when not given."""
    from .linear_sets import fixed_subplane
    from .maps import vertex_census
    ctx, anchor = plane.ctx, plane.size - 1
    vc = census if census is not None else vertex_census(plane, fixed_subplane(ctx))
    vertices = np.sort(np.concatenate([np.asarray(vs, dtype=np.int64)
                                       for vs in vc.by_class.values()]))
    block = anchor_block(plane, ANCHOR)
    members = block[plane.tables.field.coords(block)[2] != 0]     # off the axis
    others = vertices[vertices != anchor]
    mismatches = [f"{format_point(P)} projects to a side set but is no block member"
                  for P in sorted(map(plane.point, others[~contains(members, others)]))[:5]]
    mismatches += [f"block member {format_point(P)} fails to project to a side set"
                   for P in sorted(map(plane.point, members[~contains(vertices, members)]))[:5]]
    count = len(vertices)
    expected = ctx.q ** 3 - ctx.q ** 2 - ctx.q - 1
    ok = not mismatches and bool(contains(vertices, [anchor])[0]) and count == expected
    return CharacterizationReport(ok, count, expected, mismatches)


def emit_plane(structure: IncidencePlane, path: str) -> None:
    """Write the incidence structure: header ``FIG <q^3> <npoints>``, then
    one block per line as space-separated point indices, read in chunks
    of rows, gathered from the lookup tables, as a pass over every row."""
    q3 = structure.plane.ctx.q ** 3
    if structure.kept is not None:
        structure.plane.tables.fig_lookup
    with open(path, "w") as fh:
        fh.write(f"FIG {q3} {structure.size}\n")
        for L in chunks(structure.shape[0], q3 + 1):
            fh.writelines(" ".join(map(str, b)) + "\n" for b in structure.rows(span(L)).tolist())
