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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import CLUB, OTHER
from .field import FieldContext
from .plane import (ANCHOR, ANCHOR_1, ANCHOR_2, AXIS, ProjectivePlane, Triple,
                    GeometryError, canonical, join, meet)
from .collineation import (TYPE_III, OrbitClass, OrbitInconsistency,
                           collineate_line, collineate_point, line_type,
                           point_type)
from .linear_sets import SlsId, SubplaneSet


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


def involution_point_image(ctx: FieldContext, B: SubplaneSet) -> frozenset[Triple]:
    """Apply the involution to every point of an all-Type-III subplane."""
    return frozenset(conjugate_join(ctx, P) for P in B.points)


def involution_line_image(ctx: FieldContext, B: SubplaneSet) -> frozenset[Triple]:
    """Apply the involution to every secant line of an all-Type-III-line subplane."""
    return frozenset(conjugate_meet(ctx, l) for l in B.lines)


def project_from_anchor(ctx: FieldContext, P: Triple) -> Triple:
    if P == ANCHOR:
        raise GeometryError("projection from the anchor is undefined at the anchor")
    return meet(ctx, join(ctx, ANCHOR, P), AXIS)


def splash(ctx: FieldContext, l: Triple) -> Triple:
    if l == AXIS:
        raise GeometryError("splash of the axis is undefined")
    return meet(ctx, l, AXIS)


def pr_set(ctx: FieldContext, B: SubplaneSet) -> frozenset[Triple]:
    return frozenset(project_from_anchor(ctx, P) for P in B.points)


def sp_set(ctx: FieldContext, B: SubplaneSet) -> frozenset[Triple]:
    return frozenset(splash(ctx, l) for l in B.lines)


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
    """Scan every point off the axis and outside B; classify its projection."""
    kinds = plane.tables.vertex_kinds(B.points)
    by_class = {j: [plane.point(i) for i in np.flatnonzero(kinds == j)]
                for j in range(plane.ctx.q - 1)}
    return VertexCensus(by_class, int(np.count_nonzero(kinds == CLUB)),
                        int(np.count_nonzero(kinds == OTHER)))


def projection_vertices(plane: ProjectivePlane, B: SubplaneSet, theta: int,
                        census: VertexCensus | None = None) -> list[Triple]:
    """All vertices projecting B onto the axis linear set of theta."""
    ctx = plane.ctx
    if census is None:
        census = vertex_census(plane, B)
    return list(census.by_class[ctx.norm_class(theta)])


def phi_fixed_planes(plane: ProjectivePlane,
                     classes: list[OrbitClass]) -> list[OrbitClass]:
    """Orbit subplanes fixed setwise by the collineation, by exhaustive scan:
    a class is fixed when no member i has its image in another class."""
    orbit = plane.tables.orbit
    moved = np.zeros(plane.size, dtype=bool)        # by class representative
    moved[orbit[orbit[plane.tables.phi] != orbit]] = True
    return [cl for cl in classes
            if cl.category.startswith("plane") and not moved[cl.members[0]]]


def mu_fixed_planes(plane: ProjectivePlane,
                    classes: list[OrbitClass]) -> list[OrbitClass]:
    """Orbit subplanes whose point set maps onto their own line set under
    the involution, by exhaustive scan over the all-Type-III classes.

    The stabilizer commutes with the collineation, so the line set of an
    orbit subplane is the set of secant lines of its points.
    """
    tables = plane.tables
    mu, sec = tables.mu, tables.sec
    out = []
    for cl in classes:
        if cl.category != "plane_III_III":
            continue
        lines = np.sort(sec[cl.members])
        if np.array_equal(np.sort(mu[cl.members]), lines):
            if not np.array_equal(np.sort(mu[lines]), cl.members):
                raise OrbitInconsistency(
                    f"involution fixes lines but not points at {cl.rep}")
            out.append(cl)
    return out


def expected_phi_fixed_reps(ctx: FieldContext) -> list[Triple]:
    """Closed form: subplanes through (1,1,lam) with lam a cube root of
    unity in the middle field; gcd(3, q-1) of them in total."""
    lams = [c for c in ctx.base_units() if ctx.power(c, 3) == 1]
    return [canonical(ctx, (1, 1, lam)) for lam in sorted(lams)]
