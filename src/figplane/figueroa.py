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
keep: every one, none, or one.  ``check_build`` and ``check_axioms``
walk the rows (``walk``) in chunks closed under the line cycles of phi
and tau, so the image of each row is a row the walk has made.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .arrays import chunks, fixed_points, span
from .field import FieldContext, Gate
from .plane import (ANCHOR, ANCHOR_1, ANCHOR_2, AXIS, GeometryError,
                    ProjectivePlane, Triple, format_line, format_point,
                    incident, points_on_line)
from .collineation import (TYPE_I, TYPE_II, TYPE_III, collineate_point, line_type,
                           point_type)
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


PAIR_CHUNK = 1 << 16   # entries per chunk of rows: int64 temporaries of 512 KiB
MAX_WITNESSES = 5      # witnesses an axiom check reports at most


def orbit_labels(generators) -> np.ndarray:
    """The least index of the orbit of every index under the group that the
    permutation tables ``generators`` generate, by min-label propagation: a
    label takes the least label of its point and the images, then its
    label's label, until none moves; a fixed label is constant on every
    orbit."""
    label = np.arange(len(generators[0]), dtype=np.int32)
    while True:
        least = label
        for g in generators:
            least = np.minimum(least, label[g])
        least = least[least]
        if np.array_equal(least, label):
            return label
        label = least


def orbit_minima(generators) -> np.ndarray:
    return fixed_points(orbit_labels(generators))


def chunk_rows(n: int, k: int) -> int:
    """Rows of width k in a chunk of a pass over n blocks: n / 2 entries,
    but at least ``PAIR_CHUNK / 2`` and at most ``PAIR_CHUNK``.  Small
    orders, where a pass takes a handful of chunks, keep the temporaries of
    a chunk small, and large ones the count of chunks."""
    return max(1, min(PAIR_CHUNK, max(PAIR_CHUNK // 2, n // 2)) // k)


def moved_rows(L: np.ndarray, rows: np.ndarray, g: np.ndarray,
               target: np.ndarray) -> np.ndarray:
    """The blocks of the sorted index array L, whose rows are ``rows``, with
    sort(g[rows]) != ``target``, the rows of their images, in order."""
    image = np.take(g, rows)
    image.sort(axis=1)
    return L[:0] if np.array_equal(image, target) else L[(image != target).any(axis=1)]


def walk(structure: IncidencePlane, g: np.ndarray, g_line: np.ndarray):
    """Read each row of an (n, k) ``structure`` once, in sorted chunks L of
    blocks, each a union of whole cycles of the line permutation ``g_line``,
    in the order of their least cycle minimum: ``chunk_rows`` rows, or one
    cycle when longer.  Yields (L, rows, inside, moved): the rows of L,
    whether each row lies in [0, n), found before any gather, since numpy
    wraps negative indices, and, when every row does, the blocks of L that
    g moves (``moved_rows``) against the rows of g_line[L], which are rows
    of the chunk; else none."""
    n, k = structure.size, structure.plane.ctx.q3 + 1
    label = orbit_labels([g_line])
    order = np.argsort(label, kind="stable")
    starts = np.append(np.flatnonzero(np.diff(label[order])) + 1, n)
    step, lo = chunk_rows(n, k), 0
    while lo < n:
        hi = starts[min(np.searchsorted(starts, lo + step), len(starts) - 1)]
        L = np.sort(order[lo:hi])
        rows = structure.rows(L)
        inside = (rows.min(axis=1) >= 0) & (rows.max(axis=1) < n)
        yield L, rows, inside, (moved_rows(L, rows, g, rows[np.searchsorted(L, g_line[L])])
                                if inside.all() else L[:0])
        lo = hi


def check_build(structure: IncidencePlane) -> tuple[np.ndarray, dict[str, bool]]:
    """The facts of both build checks from one ``walk`` of a FIG
    ``structure`` under phi, which makes each row once: the sorted Type III
    lines whose rows break the block-size facts (a block is a strictly
    increasing row of width k in [0, n), with q^2 + q + 1 Type II points,
    its E part, and no Type I point) and the row sub-checks of ``fig.build``.
    Block L replaces line L and phi maps lines by the point formula, so
    invariance is sort(phi[rows(L)]) == rows(phi[L]), which the walk
    compares.  A k-set is a line exactly when it is the incidence row of the
    join of its first two points, so only the rows whose first three points
    are collinear are compared with a line's row.

    A structure of the wrong shape has no row to read: every Type III
    line is bad and every sub-check fails.  A row holding an entry
    outside [0, n) is no point set, so it is no block, no line and has
    no phi image; the walk's mask finds it before any gather."""
    tables, ctx = structure.plane.tables, structure.plane.ctx
    n, k, F, types = structure.size, ctx.q3 + 1, tables.field, tables.types
    if structure.shape != (n, k):
        return np.flatnonzero(types == TYPE_III), dict.fromkeys(
            ("kept_lines_agree", "blocks_differ_from_lines", "collineation_invariant"), False)
    bad, agree, differ, invariant = [], True, True, True
    for L, rows, inside, moved in walk(structure, tables.phi, tables.phi):
        new = types[L] == TYPE_III
        blocks = rows[new]
        kinds = types[np.clip(blocks, 0, n - 1)]
        ok = (inside[new] & (np.diff(blocks, axis=1) > 0).all(axis=1)
              & (np.count_nonzero(kinds == TYPE_II, axis=1) == ctx.sub_order)
              & (kinds != TYPE_I).all(axis=1))
        bad.append(L[new][~ok])
        agree &= np.array_equal(rows[~new], tables.incidence_rows(L[~new]))
        blocks = blocks[(blocks[:, 0] != blocks[:, 1]) & inside[new]]
        join = F.cross(F.coords(blocks[:, 0]), F.coords(blocks[:, 1]))
        line = F.dot(join, F.coords(blocks[:, 2])) == 0    # first three points collinear
        joins = F.index(*F.canonical(*(c[line] for c in join)))
        differ &= not (tables.incidence_rows(joins) == blocks[line]).all(axis=1).any()
        invariant &= inside.all() and not moved.size
    return np.sort(np.concatenate(bad)), dict(
        kept_lines_agree=agree, blocks_differ_from_lines=differ, collineation_invariant=invariant)


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

    One pass walks the rows under tau (``walk``) and checks per chunk: (1)
    the range, from the walk's mask (a wrong shape or range fails every
    half at once); (2) point degrees; (3) invariance under tau, from the
    walk, and under d, whose image rows are made here, in no chunk past d's
    least failing row; and it (4) collects the blocks through each
    representative.  So each row is made twice.
    The cover reads the blocks through the representatives again: every
    other point must lie in exactly one of them.

    ``point_pairs_ok`` holds when (3) and the cover pass, so a structure
    that is not G-invariant fails it, plane or not.  ``checked_pairs`` is
    the n(n - 1) ordered pairs the verdict covers through invariance, and
    ``representatives`` the number of points whose pairs are counted.
    Witnesses name the shape or range fault, or the least failing row per
    generator and then failing (representative, point) pairs, at most
    ``MAX_WITNESSES`` in all.
    """
    plane = structure.plane
    n, k = structure.size, plane.ctx.q3 + 1
    report = partial(AxiomReport, mode="orbit-reduced", checked_pairs=n * (n - 1))
    rejected = partial(report, ok=False, block_size_ok=False, point_degree_ok=False,
                       point_pairs_ok=False, representatives=0)
    if structure.shape != (n, k):
        return rejected(witnesses=[f"block array has shape {structure.shape}, not {(n, k)}"])

    tables = plane.tables
    generators = {"tau": (tables.tau, tables.tau_line),
                  "dickson": (tables.dickson, tables.dickson_line)}
    moved = dict.fromkeys(generators)   # generator -> least failing row
    reps = orbit_minima([g for g, _ in generators.values()])
    degree = np.zeros(n, dtype=np.int64)
    through = [[] for _ in reps]        # per representative, the blocks through it
    for L, rows, inside, by_tau in walk(structure, tables.tau, tables.tau_line):
        if not inside.all():
            i = np.argmin(inside)
            j = np.argmax((rows[i] < 0) | (rows[i] >= n))
            return rejected(witnesses=[f"block {format_line(plane.point(L[i]))} holds "
                                       f"{rows[i, j]}, outside [0, {n})"])
        np.add.at(degree, rows.ravel(), 1)     # linear in the chunk, not in n
        found = {"tau": by_tau}
        if moved["dickson"] is None or L[0] < moved["dickson"]:   # else no block precedes it
            found["dickson"] = moved_rows(L, rows, tables.dickson,
                                          structure.rows(tables.dickson_line[L]))
        for name, bad in found.items():
            if bad.size and (moved[name] is None or bad[0] < moved[name]):
                moved[name] = int(bad[0])
        for blocks, P in zip(through, reps):
            blocks.append(L[(rows == P).any(axis=1)])
    point_degree_ok = bool(np.all(degree == k))
    witnesses = [f"the {name} image of block {format_line(plane.point(L))} "
                 f"is not block {format_line(plane.point(generators[name][1][L]))}"
                 for name, L in moved.items() if L is not None][:MAX_WITNESSES]
    point_pairs_ok = not witnesses

    # the cover at the least point of each G-orbit
    for P, blocks in zip(reps, through):
        if not point_pairs_ok and len(witnesses) >= MAX_WITNESSES:
            break   # the verdict and the witnesses are settled
        count = np.bincount(structure.rows(np.concatenate(blocks)).ravel(), minlength=n)
        count[P] = 1   # P with itself
        bad = np.flatnonzero(count != 1)
        if bad.size:
            point_pairs_ok = False
            witnesses.extend(f"point pair {format_point(plane.point(P))} , "
                             f"{format_point(plane.point(Q))} lies in {count[Q]} blocks"
                             for Q in bad[:MAX_WITNESSES - len(witnesses)])

    return report(ok=point_degree_ok and point_pairs_ok, block_size_ok=True,
                  point_degree_ok=point_degree_ok, point_pairs_ok=point_pairs_ok,
                  representatives=len(reps), witnesses=witnesses)


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
