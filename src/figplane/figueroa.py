"""Figueroa blocks, assembly of the Figueroa plane, and its structure checks.

For a Type III point A with involution image line m, the block of A is

    E(A)  the q^2+q+1 Type II points of m,   union
    F(A)  the involution images of the Type III lines through A,

a set of q^3+1 points.  The Figueroa plane FIG(q^3) keeps every Type I
and Type II line of PG(2,q^3) and replaces each Type III line m by the
block anchored at the involution image of m.  ``check_axioms`` verifies
exactly, at every order, that the resulting incidence structure is a
projective plane: block sizes, point degrees, and one block through
every pair of distinct points.  The construction reads only
phi-equivariant data, so FIG is invariant under the centralizer of phi,
the Dickson matrices, a copy of PGL(3, q).  The checker shows the
structure invariant, row by row, under two of them, the torus shift tau
and one Dickson matrix d, which together are transitive on each point
type; so it counts pairs from three points only.

Every block is made by ``PlaneTables.fig_rows``, which gives the rows of
the FIG (``build_fig_plane``) and the block of one anchor (``anchor_block``);
the reference the rows are tested against is the closed form ``fig_incident``.

An ``IncidencePlane`` is a row source that holds no rows: every reader
takes blocks through ``rows(L)`` in chunks, and the rows are made when
they are read.  PG (``pg_incidence``), FIG (``build_fig_plane``) and a
mutated FIG are one source, which differ only in the Type III lines they
keep: every one, none, or one.  The build and axiom checks read the rows
in one walk (``figplane.row_pass``), which makes a FIG row once for all
of them: as itself, with the line it replaces, and once more as a
Dickson image.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .arrays import chunks, span
from .field import FieldContext, Gate
from .plane import (ANCHOR, ANCHOR_1, ANCHOR_2, AXIS, GeometryError,
                    ProjectivePlane, Triple, format_point, incident, points_on_line)
from .collineation import TYPE_II, TYPE_III, collineate_point, line_type, point_type
from .linear_sets import sls_points, t_plane
from .maps import (TypeRestrictionError, conjugate_join, conjugate_meet,
                   project_from_anchor)


def anchor_block(plane: ProjectivePlane, anchor: Triple) -> np.ndarray:
    """The block of a Type III anchor as sorted point indices: the FIG row
    of the anchor's involution image line.  Its E part is its Type II
    entries, its F part its Type III entries."""
    tables, A = plane.tables, plane.index(anchor)
    if tables.types[A] != TYPE_III:
        raise TypeRestrictionError(f"anchor {anchor} is not Type III")
    return tables.fig_rows([tables.mu[A]])[0]


def anchor_parts(plane: ProjectivePlane) -> tuple[np.ndarray, np.ndarray]:
    """Point indices of the E and F parts of the block of ``ANCHOR``: its
    Type II and its Type III entries."""
    block = anchor_block(plane, ANCHOR)
    kind = plane.tables.types[block]
    return block[kind == TYPE_II], block[kind == TYPE_III]


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
        return tables.incidence_rows(L) if self.kept is None else tables.fig_rows(L, self.kept)

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
        return tables.fig_rows(L, self.kept, lines=True)


def pg_incidence(plane: ProjectivePlane) -> IncidencePlane:
    """PG(2, q^3) itself, as a reference structure of closed-form rows."""
    return IncidencePlane(plane)


FIGUEROA = Gate(lambda ctx: ctx.q > 2,
                "the Figueroa construction needs q a prime power, q > 2")


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
    checks per
    chunk: (1) the range (a wrong shape or range fails every half at
    once); (2) point degrees; (3) invariance under tau, whose images are
    rows of the chunk, and under d, whose image rows are made once more,
    in no chunk past d's least failing row; and it (4) keeps the rows of
    the blocks through each representative.  The cover counts them: every
    other point must lie in exactly one.

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


def pr_fig_block(plane: ProjectivePlane, which: int = 0) -> frozenset[Triple]:
    """Projection from the anchor of the block at the anchor's conjugate
    ``which`` (0, 1 or 2); the anchor itself, a member of the conjugate
    blocks, is skipped since projection is undefined there."""
    ctx = plane.ctx
    block = anchor_block(plane, collineate_point(ctx, ANCHOR, which))
    return frozenset(project_from_anchor(ctx, P)
                     for P in map(plane.point, block) if P != ANCHOR)


def expected_pr_fig_block(ctx: FieldContext, which: int = 0) -> frozenset[Triple]:
    """Closed form for the projection of a block from the anchor.

    For the anchor's own block: the whole axis when q is even; for odd q
    the two axis vertices, the norm minus-one linear set, and the linear
    sets whose norm is a nonzero square, each keyed by a theta of that norm
    (not by the square c itself, whose norm is c^3).  For the conjugate blocks
    the image is the axis minus the norm-one linear set and minus the
    co-vertex that is the conjugate's own projection shadow.
    """
    axis_pts = frozenset(points_on_line(ctx, AXIS))
    if which == 0:
        if ctx.q % 2 == 0:
            return axis_pts
        img = {ANCHOR_1, ANCHOR_2}
        img.update(sls_points(ctx, ctx.neg_one))
        for j in range(ctx.q - 1):
            theta = ctx.norm_class_rep(j)
            if ctx.is_nonzero_square(ctx.norm(theta)):
                img.update(sls_points(ctx, theta))
        return frozenset(img)
    s1 = sls_points(ctx, ctx.one)
    gone = {ANCHOR_1} if which == 1 else {ANCHOR_2}
    return axis_pts - s1 - gone


def arching_census(ctx: FieldContext) -> dict[int, int]:
    """For each pencil, by norm class, how many of the q-1 side subplanes
    it arches over, i.e. meets once on every pencil line."""
    from .linear_sets import pencil_lines
    q = ctx.q
    planes = [t_plane(ctx, ctx.norm_class_rep(j)).points for j in range(q - 1)]
    per_class: dict[int, int] = {}
    for j in range(q - 1):
        pencil = pencil_lines(ctx, ctx.norm_class_rep(j))
        arched = 0
        for pts in planes:
            if all(sum(1 for P in pts if incident(ctx, P, l)) == 1 for l in pencil):
                arched += 1
        per_class[j] = arched
    return per_class


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
    ctx = plane.ctx
    q = ctx.q
    vc = census if census is not None else vertex_census(plane, fixed_subplane(ctx))
    vertices = set()
    for vs in vc.by_class.values():
        vertices.update(vs)
    off_axis_members = {P for P in map(plane.point, anchor_block(plane, ANCHOR))
                        if P[2] != 0}
    mismatches = []
    for P in sorted(vertices - {ANCHOR} - off_axis_members)[:5]:
        mismatches.append(f"{format_point(P)} projects to a side set but is no block member")
    for P in sorted(off_axis_members - vertices)[:5]:
        mismatches.append(f"block member {format_point(P)} fails to project to a side set")
    count = len(vertices)
    expected = q ** 3 - q ** 2 - q - 1
    ok = not mismatches and ANCHOR in vertices and count == expected
    return CharacterizationReport(ok, count, expected, mismatches)


def emit_plane(structure: IncidencePlane, path: str) -> None:
    """Write the incidence structure: header ``FIG <q^3> <npoints>``, then
    one block per line as space-separated point indices, read in chunks
    of rows."""
    q3 = structure.plane.ctx.q ** 3
    with open(path, "w") as fh:
        fh.write(f"FIG {q3} {structure.size}\n")
        for L in chunks(structure.shape[0], q3 + 1):
            fh.writelines(" ".join(map(str, b)) + "\n" for b in structure.rows(span(L)).tolist())
