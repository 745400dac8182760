"""Maps that shuffle stabilizer orbits: the Type III involution, projection
from the anchor, the splash, and projections from arbitrary vertices.

The involution pairs Type III points with Type III lines:

    point P |-> join of its two conjugates
    line  l |-> meet of its two conjugates

It is undefined on Type I and II objects, and the error it raises on
them is deliberate: a silent fallback would corrupt Figueroa block
construction downstream.

Projection sends P != anchor to (anchor P) meet axis; the splash sends a
line != axis to its meet with the axis.  Projecting an orbit subplane
from any vertex off the axis yields a rank-3 linear set on the axis,
which is a club (q^2+1 points) or scattered (q^2+q+1 points); scattered
images that coincide with a side orbit are tagged with their SlsId.
``anchor_projections`` and ``anchor_cross`` are the projection from the
anchor, the join with it and the splash on arrays of point and line
indices, one closed form each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import CLUB, OTHER, chunks
from .field import FieldContext
from .plane import (ANCHOR, ANCHOR_1, ANCHOR_2, AXIS, ProjectivePlane, Triple,
                    GeometryError, canonical, join, meet)
from .collineation import (CATEGORIES, TYPE_III, OrbitClasses,
                           OrbitInconsistency, SlsId, collineate_line,
                           collineate_point, line_type, point_type)
from .linear_sets import SubplaneSet


class TypeRestrictionError(ValueError):
    """The involution was applied to a Type I or Type II object."""


def conjugate_join(ctx: FieldContext, P: Triple) -> Triple:
    """The involution on points: the line through the two conjugates of P."""
    if point_type(ctx, P) != TYPE_III:
        raise TypeRestrictionError(f"point {P} is not Type III")
    return join(ctx, collineate_point(ctx, P), collineate_point(ctx, P, 2))


def conjugate_meet(ctx: FieldContext, l: Triple) -> Triple:
    """The involution on lines: the common point of the two conjugates of l."""
    if line_type(ctx, l) != TYPE_III:
        raise TypeRestrictionError(f"line {l} is not Type III")
    return meet(ctx, collineate_line(ctx, l), collineate_line(ctx, l, 2))


def project_from_anchor(ctx: FieldContext, P: Triple) -> Triple:
    if P == ANCHOR:
        raise GeometryError("projection from the anchor is undefined at the anchor")
    return meet(ctx, join(ctx, ANCHOR, P), AXIS)


def splash(ctx: FieldContext, l: Triple) -> Triple:
    if l == AXIS:
        raise GeometryError("splash of the axis is undefined")
    return meet(ctx, l, AXIS)


def anchor_projections(tables, P) -> np.ndarray:
    """The bulk ``project_from_anchor`` on point indices: (x, y, z) goes to
    (x, y, 0), so (1, b, c), index b q^3 + c, goes to index b q^3, and
    (0, 1, c) to (0, 1, 0), index q^6."""
    P = np.asarray(P)
    if np.any(P == tables.size - 1):
        raise GeometryError("projection from the anchor is undefined at the anchor")
    return P - P % tables.ctx.q3


def anchor_cross(tables, i) -> np.ndarray:
    """Index of (0, 0, 1) x t for the triple t of each index in i, which is
    [-y : x : 0] for t = (x, y, z): the line joining the anchor to the
    point t, equally the splash of the line t, its meet (y : -x : 0) with
    the axis.  Undefined at the anchor, which is the axis read as a line."""
    i = np.asarray(i)
    if np.any(i == tables.size - 1):
        raise GeometryError("the anchor has no join with itself, and the axis no splash")
    F = tables.field
    x, y, _ = F.coords(i)
    return F.index(*F.canonical(F.neg(y), x, np.zeros_like(x)))


@dataclass(frozen=True)
class LinearSetImage:
    vertex: Triple
    points: frozenset[Triple]
    kind: str                 # "sls" | "club" | "other"
    sls: SlsId | None


def _classify_axis_set(ctx: FieldContext, pts: frozenset[Triple],
                       vertex: Triple) -> LinearSetImage:
    sub = ctx.sub_order
    if len(pts) == ctx.q ** 2 + 1:
        return LinearSetImage(vertex, pts, "club", None)
    if len(pts) == sub and ANCHOR_1 not in pts and ANCHOR_2 not in pts:
        classes = {ctx.norm_class(ctx.div(a, b)) for a, b, _ in pts}
        if len(classes) == 1:
            return LinearSetImage(vertex, pts, "sls", SlsId(0, classes.pop()))
    return LinearSetImage(vertex, pts, "other", None)


def project_from_vertex(ctx: FieldContext, V: Triple,
                        B: SubplaneSet) -> LinearSetImage:
    """Project B from V onto the axis and classify the image.

    V must be off the axis (projection from an axis point collapses to
    that point) and outside B.
    """
    if V[2] == 0:
        raise GeometryError(f"vertex {V} lies on the axis")
    if V in B.points:
        raise GeometryError(f"vertex {V} belongs to the projected subplane")
    mul, sub = ctx.mul, ctx.sub
    v1, v2, v3 = V
    pts = set()
    for (p1, p2, p3) in B.points:
        a = sub(mul(v3, p1), mul(v1, p3))
        b = sub(mul(v3, p2), mul(v2, p3))
        pts.add(canonical(ctx, (a, b, 0)))
    return _classify_axis_set(ctx, frozenset(pts), V)


@dataclass
class VertexCensus:
    """Vertices V (off the axis, outside B) sorted by their image kind.

    ``by_class[j]`` lists the vertices whose projection image is the axis
    linear set of norm class j, in enumeration order.
    """
    by_class: dict[int, list[Triple]]
    club: int
    other: int

    def counts(self) -> dict[int, int]:
        return {j: len(v) for j, v in self.by_class.items()}


def vertex_census(plane: ProjectivePlane, B: SubplaneSet) -> VertexCensus:
    """Classify the projection of B from every point off the axis and
    outside B.  B is a union of stabilizer orbits, as every orbit subplane
    is, so one vertex per orbit is projected (``PlaneTables.vertex_kinds``):
    its kind counts for the q^2 + q + 1 points of its orbit, or for the
    anchor alone, the one triangle vertex off the axis, and the vertices of
    a norm class are the members of its orbits."""
    tables = plane.tables
    reps, kinds = tables.vertex_kinds(B.points)
    anchor = reps == plane.size - 1
    sizes = np.where(anchor, 1, plane.ctx.sub_order)
    by_class = {}
    for j in range(plane.ctx.q - 1):
        pick = kinds == j
        points = np.concatenate((reps[pick & anchor],
                                 tables.orbit_rows(reps[pick & ~anchor]).ravel()))
        by_class[j] = [plane.point(i) for i in np.sort(points)]
    return VertexCensus(by_class, int(sizes[kinds == CLUB].sum()),
                        int(sizes[kinds == OTHER].sum()))


def phi_fixed_planes(plane: ProjectivePlane, classes: OrbitClasses) -> np.ndarray:
    """Classes whose orbit subplanes the collineation fixes setwise, by
    exhaustive scan, as positions in ``classes``: those that phi does not
    split (``OrbitClasses.split_by``) and whose representative it keeps in
    the class.  No array holds an entry per point."""
    orbit, phi, reps = plane.tables.orbit, plane.tables.phi, classes.reps
    planes = classes.categories >= CATEGORIES.index("plane_I_I")    # the last four
    return np.flatnonzero(planes & ~classes.split_by(phi) & (orbit[phi[reps]] == reps))


def mu_fixed_planes(plane: ProjectivePlane, classes: OrbitClasses) -> np.ndarray:
    """Classes whose orbit subplanes map their point set onto their own
    line set under the involution, as positions in ``classes``, by
    exhaustive scan over the all-Type-III classes, as one pass over their
    member rows in chunks.

    The stabilizer commutes with the collineation, so the line set of an
    orbit subplane is the set of secant lines of its points.
    """
    tables = plane.tables
    pick = classes.of("plane_III_III")
    found = [pick[:0]]
    for j in chunks(len(pick), plane.ctx.sub_order):
        members = classes.members(pick[j])          # each row sorted
        lines, images = tables.sec(members), tables.mu[members]
        lines.sort(axis=1)
        images.sort(axis=1)
        fixed = (images == lines).all(axis=1)
        members, lines = members[fixed], lines[fixed]
        back = (np.sort(tables.mu[lines], axis=1) == members).all(axis=1)
        if not back.all():
            rep = plane.point(members[np.argmin(back), 0])
            raise OrbitInconsistency(f"involution fixes lines but not points at {rep}")
        found.append(pick[j][fixed])
    return np.concatenate(found)


def expected_phi_fixed_reps(ctx: FieldContext) -> list[Triple]:
    """Closed form: subplanes through (1,1,lam) with lam a cube root of
    unity in the middle field; gcd(3, q-1) of them in total."""
    lams = [c for c in ctx.base_units() if ctx.power(c, 3) == 1]
    return [canonical(ctx, (1, 1, lam)) for lam in sorted(lams)]
