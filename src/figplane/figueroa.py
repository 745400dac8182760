"""Figueroa blocks, assembly of the Figueroa plane, and its structure checks.

For a Type III point A with involution image line m, the block of A is

    E(A)  the q^2+q+1 Type II points of m,   union
    F(A)  the involution images of the Type III lines through A,

a set of q^3+1 points.  The Figueroa plane FIG(q^3) keeps every Type I
and Type II line of PG(2,q^3) and replaces each Type III line m by the
block anchored at the involution image of m.  ``check_axioms`` verifies
exactly, at every order, that the resulting incidence structure is a
projective plane: block sizes, point degrees, and one block through
every pair of distinct points.  The pairs are orbit-reduced: the
structure is shown invariant under the collineation phi and the torus
shift tau, row by row, and the pairs are then counted only from the
least point of each <phi, tau>-orbit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .arrays import chunks
from .field import FieldContext
from .plane import (ANCHOR, ANCHOR_1, ANCHOR_2, AXIS, GeometryError,
                    ProjectivePlane, Triple, format_line, format_point,
                    lines_through_point, points_on_line)
from .collineation import (TYPE_I, TYPE_II, TYPE_III, collineate_point,
                           line_type, point_type)
from .linear_sets import sls_points, t_plane
from .maps import (TypeRestrictionError, conjugate_join, conjugate_meet,
                   project_from_anchor, splash)


@dataclass(frozen=True)
class FigBlock:
    anchor: Triple
    line: Triple                     # involution image of the anchor
    e_points: frozenset[Triple]      # Type II points on that line
    f_points: frozenset[Triple]      # involution images of Type III lines through the anchor

    @property
    def points(self) -> frozenset[Triple]:
        return self.e_points | self.f_points


def fig_block(ctx: FieldContext, anchor: Triple) -> FigBlock:
    """Construct the block of a Type III anchor point."""
    if point_type(ctx, anchor) != TYPE_III:
        raise TypeRestrictionError(f"anchor {anchor} is not Type III")
    m = conjugate_join(ctx, anchor)
    e_pts = frozenset(P for P in points_on_line(ctx, m)
                      if point_type(ctx, P) == TYPE_II)
    f_pts = frozenset(conjugate_meet(ctx, l)
                      for l in lines_through_point(ctx, anchor)
                      if line_type(ctx, l) == TYPE_III)
    block = FigBlock(anchor, m, e_pts, f_pts)
    if len(e_pts) != ctx.sub_order or len(block.points) != ctx.q ** 3 + 1:
        raise GeometryError(
            f"block of {anchor} has {len(e_pts)} Type II and {len(block.points)} "
            f"points in all, not {ctx.sub_order} and {ctx.q ** 3 + 1}")
    return block


@dataclass
class IncidencePlane:
    """Point/block incidence structure over dense point indices.

    ``blocks`` is an (n, k) int32 array with one row of sorted point
    indices per block; the builders return it read-only, so a mutation
    starts from ``blocks.copy()``."""
    plane: ProjectivePlane
    blocks: np.ndarray
    tags: list[str]                  # per block: line_I | line_II | line_III | fig

    @property
    def size(self) -> int:
        return self.plane.size


def _tags(plane: ProjectivePlane, type_iii: str) -> list[str]:
    names = {TYPE_I: "line_I", TYPE_II: "line_II", TYPE_III: type_iii}
    return [names[t] for t in plane.tables.types.tolist()]


def pg_incidence(plane: ProjectivePlane) -> IncidencePlane:
    """PG(2,q^3) itself, as a reference incidence structure: the blocks
    are the rows of the closed-form incidence table."""
    return IncidencePlane(plane, plane.tables.incidence, _tags(plane, "line_III"))


def build_fig_plane(plane: ProjectivePlane) -> IncidencePlane:
    """Assemble FIG(q^3); blocks are indexed by the line they replace.

    The Type I and II rows are the incidence table's; each Type III row is
    the block of the line's involution image, assembled from the
    incidence, type and involution tables (``PlaneTables.fig_blocks``)."""
    if not plane.ctx.figueroa_ok:
        raise GeometryError(
            f"q = {plane.ctx.q}: the Figueroa construction needs a prime power q > 2")
    return IncidencePlane(plane, plane.tables.fig_blocks(), _tags(plane, "fig"))


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


# Entries of the block rows per chunk of the degree and gather passes, and
# of the (representative, point) count array per chunk of the pair cover:
# bounds each int64 temporary to 1 MiB, which keeps it in cache.
PAIR_CHUNK = 1 << 17


def orbit_representatives(plane: ProjectivePlane) -> np.ndarray:
    """The least point index of every <phi, tau>-orbit, in increasing order.

    phi and tau commute, so the orbit of P is the union of the tau-orbits
    of P, phi(P) and phi^2(P), and its least index is the least of their
    ``orbit`` entries."""
    orbit, phi = plane.tables.orbit, plane.tables.phi
    least = np.minimum(orbit, np.minimum(orbit[phi], orbit[phi[phi]]))
    return np.flatnonzero(least == np.arange(plane.size))


def first_moved_row(blocks: np.ndarray, g: np.ndarray, g_line: np.ndarray) -> int | None:
    """The first row L with sort(g[blocks[L]]) != blocks[g_line[L]], for a
    map acting on points by ``g`` and on lines by ``g_line``, read in
    chunks of rows; None when the block array is invariant row by row."""
    for L in chunks(np.arange(len(blocks)), blocks.shape[1]):
        image, target = np.sort(g[blocks[L]], axis=1), blocks[g_line[L]]
        if not np.array_equal(image, target):
            return int(L[np.argmax((image != target).any(axis=1))])
    return None


def check_axioms(structure: IncidencePlane,
                 max_witnesses: int = 5) -> AxiomReport:
    """Verify exactly that an incidence structure is a projective plane.

    With k = q^3 + 1 and n = k^2 - k + 1 points, the structure passes
    when its block array has shape (n, k) with entries in [0, n), every
    point lies in k blocks, and every pair of distinct points lies in
    exactly one block.  Those facts make it a symmetric 2-(n, k, 1)
    design, in which any two blocks meet in exactly one point (Hughes &
    Piper, *Projective Planes*, 1973), so block pairs need no check of
    their own.

    Pairs are counted from one point per orbit of G = <phi, tau>, the
    collineation and the torus shift, which commute.  Rows are indexed by
    the line they replace, as both builders make them, and the
    construction is equivariant, so G-invariance is row-aligned:
    sort(g[blocks[L]]) == blocks[g[L]], with g acting on the line L by
    its line table.  In an invariant structure the pair (gP, gQ) lies in
    as many blocks as (P, Q), so the pairs of the least point of each
    G-orbit stand for all.  The steps, in order:

    1. shape and range, before any gather, since numpy wraps negative
       indices; a structure that fails is examined no further and fails
       every half;
    2. point degrees, one ``bincount`` per chunk of rows;
    3. invariance under phi and tau, one ``array_equal`` per chunk of rows
       (``first_moved_row``);
    4. the cover: the blocks through the representatives come from one
       gather of a position table, and for each representative P, in
       chunks whose count array has ``PAIR_CHUNK`` entries, every other
       point must lie in exactly one block through P.

    ``point_pairs_ok`` holds when steps 3 and 4 pass.  So a structure that
    is not G-invariant row by row fails it with an invariance witness,
    plane or not.  ``checked_pairs`` is n(n - 1), the ordered pairs a
    pass covers (through invariance, not one by one);
    ``representatives`` is the number of points whose pairs are counted.
    Witnesses name the shape or range fault, or the first failing row per
    generator and then the first failing (representative, point) pairs,
    at most ``max_witnesses`` in all.
    """
    plane, blocks = structure.plane, structure.blocks
    n, k = structure.size, plane.ctx.q3 + 1
    step = max(1, PAIR_CHUNK // k)
    report = partial(AxiomReport, mode="orbit-reduced", checked_pairs=n * (n - 1))
    rejected = partial(report, ok=False, block_size_ok=False, point_degree_ok=False,
                       point_pairs_ok=False, representatives=0)

    # 1 and 2: shape and range, and the point degrees
    if blocks.shape != (n, k):
        return rejected(witnesses=[f"block array has shape {blocks.shape}, not {(n, k)}"])
    degree = np.zeros(n, dtype=np.int64)
    for lo in range(0, n, step):
        rows = blocks[lo:lo + step]
        if rows.min() < 0 or rows.max() >= n:
            i, j = np.argwhere((rows < 0) | (rows >= n))[0]
            return rejected(witnesses=[f"block {format_line(plane.point(lo + i))} holds "
                                       f"{rows[i, j]}, outside [0, {n})"])
        degree += np.bincount(rows.ravel(), minlength=n)
    point_degree_ok = bool(np.all(degree == k))

    # 3: invariance, the first failing row of each generator
    tables = plane.tables
    witnesses = []
    for name, g, g_line in (("phi", tables.phi, tables.phi),
                            ("tau", tables.tau, tables.tau_line)):
        L = first_moved_row(blocks, g, g_line)
        if L is not None:
            witnesses.append(f"the {name} image of block {format_line(plane.point(L))} "
                             f"is not block {format_line(plane.point(g_line[L]))}")
    del witnesses[max_witnesses:]
    point_pairs_ok = not witnesses

    # 4: the cover at the least point of each G-orbit
    reps = orbit_representatives(plane)
    pos = np.full(n, -1, dtype=np.int32)
    pos[reps] = np.arange(len(reps), dtype=np.int32)
    owner, through = [], []           # (representative position, row) pairs
    for lo in range(0, n, step):
        hit = pos[blocks[lo:lo + step]]
        r, c = np.nonzero(hit >= 0)
        owner.append(hit[r, c])
        through.append(r + lo)
    order = np.argsort(np.concatenate(owner), kind="stable")
    owner, through = np.concatenate(owner)[order], np.concatenate(through)[order]
    start = np.searchsorted(owner, np.arange(len(reps) + 1))
    per = max(1, PAIR_CHUNK // n)
    for lo in range(0, len(reps), per):
        if not point_pairs_ok and len(witnesses) >= max_witnesses:
            break   # the verdict and the witnesses are settled
        hi = min(lo + per, len(reps))
        a, b = start[lo], start[hi]
        cells = (owner[a:b, None] - lo).astype(np.int64) * n + blocks[through[a:b]]
        count = np.bincount(cells.ravel(), minlength=(hi - lo) * n).reshape(hi - lo, n)
        count[np.arange(hi - lo), reps[lo:hi]] = 1   # P with itself
        bad = count != 1
        if bad.any():
            point_pairs_ok = False
            for i, j in np.argwhere(bad)[:max_witnesses - len(witnesses)]:
                witnesses.append(f"point pair {format_point(plane.point(reps[lo + i]))} , "
                                 f"{format_point(plane.point(j))} lies in {count[i, j]} blocks")

    return report(ok=point_degree_ok and point_pairs_ok, block_size_ok=True,
                  point_degree_ok=point_degree_ok, point_pairs_ok=point_pairs_ok,
                  representatives=len(reps), witnesses=witnesses)


def pr_fig_block(ctx: FieldContext, which: int = 0) -> frozenset[Triple]:
    """Projection from the anchor of the block at the anchor's conjugate
    ``which`` (0, 1 or 2); the anchor itself, a member of the conjugate
    blocks, is skipped since projection is undefined there."""
    block = fig_block(ctx, collineate_point(ctx, ANCHOR, which))
    return frozenset(project_from_anchor(ctx, P)
                     for P in block.points if P != ANCHOR)


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


@dataclass
class ArchingCensus:
    """For each pencil (by norm class), how many of the q-1 subplanes it
    arches over, i.e. meets once on every pencil line."""
    per_class: dict[int, int]

    def sorted_counts(self) -> tuple[int, ...]:
        return tuple(sorted(self.per_class.values(), reverse=True))


def arching_census(ctx: FieldContext) -> ArchingCensus:
    from .plane import incident
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
    return ArchingCensus(per_class)


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
    block = fig_block(ctx, ANCHOR)
    off_axis_members = {P for P in block.points if P[2] != 0}
    mismatches = []
    for P in sorted(vertices - {ANCHOR} - off_axis_members)[:5]:
        mismatches.append(f"{format_point(P)} projects to a side set but is no block member")
    for P in sorted(off_axis_members - vertices)[:5]:
        mismatches.append(f"block member {format_point(P)} fails to project to a side set")
    count = len(vertices)
    expected = q ** 3 - q ** 2 - q - 1
    ok = not mismatches and ANCHOR in vertices and count == expected
    return CharacterizationReport(ok, count, expected, mismatches)


@dataclass
class EvenStructureReport:
    ok: bool
    per_vertex_ok: tuple[bool, bool, bool]
    witnesses: list[str]


def even_structure_check(ctx: FieldContext,
                         block: FigBlock | None = None) -> EvenStructureReport:
    """Even q only: through each triangle vertex, every line carries
    exactly one point of the conjugate block's Type III part or exactly
    one point of its Type II part, never both.

    The sets tested at the conjugate vertices are the conjugates of the
    anchor block's parts, matching the collineation equivariance of the
    construction.
    """
    if ctx.q % 2:
        raise GeometryError("even-order structure check requires q even")
    if block is None:
        block = fig_block(ctx, ANCHOR)
    witnesses: list[str] = []
    vertex_ok = []
    for i, V in enumerate((ANCHOR, ANCHOR_1, ANCHOR_2)):
        e_set = {collineate_point(ctx, P, i) for P in block.e_points}
        f_set = {collineate_point(ctx, P, i) for P in block.f_points}
        good = True
        for l in lines_through_point(ctx, V):
            pts = points_on_line(ctx, l)
            nf = sum(1 for P in pts if P in f_set)
            ne = sum(1 for P in pts if P in e_set)
            if (nf, ne) not in ((1, 0), (0, 1)):
                good = False
                if len(witnesses) < 5:
                    witnesses.append(
                        f"vertex {format_point(V)}: line {format_line(l)} carries"
                        f" {nf} Type III and {ne} Type II block points")
        vertex_ok.append(good)
    return EvenStructureReport(all(vertex_ok), tuple(vertex_ok), witnesses)


@dataclass
class SplashInvolutionReport:
    ok: bool
    injective: bool
    image_matches: bool
    image_all_type3_iff_even: bool
    image_size: int


def splash_involution_check(ctx: FieldContext) -> SplashInvolutionReport:
    """Compose splash after the involution over the Type III part of the
    anchor block: the result must biject onto the axis minus the norm-one
    linear set, and hit exactly the Type III axis points iff q is even."""
    block = fig_block(ctx, ANCHOR)
    images = [splash(ctx, conjugate_join(ctx, P)) for P in sorted(block.f_points)]
    injective = len(set(images)) == len(images)
    expected = frozenset(points_on_line(ctx, AXIS)) - sls_points(ctx, ctx.one)
    image = frozenset(images)
    image_matches = image == expected
    type3_axis = frozenset(P for P in points_on_line(ctx, AXIS)
                           if point_type(ctx, P) == TYPE_III)
    iff_even = (image == type3_axis) == (ctx.q % 2 == 0)
    return SplashInvolutionReport(injective and image_matches and iff_even,
                                  injective, image_matches, iff_even, len(image))


def emit_plane(structure: IncidencePlane, path: str) -> None:
    """Write the incidence structure: header ``FIG <q^3> <npoints>``, then
    one block per line as space-separated point indices."""
    q3 = structure.plane.ctx.q ** 3
    with open(path, "w") as fh:
        fh.write(f"FIG {q3} {structure.size}\n")
        for b in structure.blocks:
            fh.write(" ".join(map(str, b)) + "\n")
