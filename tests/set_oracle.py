"""Whole-set oracles that only tests need: the scalar orbit constructors,
which make each orbit object as a frozenset of coordinate triples, and
figplane's single-object maps, or a field predicate, applied to every
member of such a set.

figplane makes the orbit objects as sorted rows of dense indices, from the
closed form ``figplane.arrays.orbit_rows``, and its checks read images as
index arrays; the tests compare those against the scalar sets here, and
``rows``/``triples`` turn one form into the other.
"""

from typing import NamedTuple

from figplane.collineation import SlsId, collineate_line, collineate_point, line_type
from figplane.field import FieldError
from figplane.linear_sets import SubplaneSet
from figplane.maps import conjugate_join, conjugate_meet
from figplane.plane import (ANCHOR, ANCHOR_1, ANCHOR_2, AXIS, GeometryError, ProjectivePlane,
                            canonical, incident, join, lines_through_point, meet)


class Subplane(NamedTuple):
    """An orbit subplane as frozensets of point and line triples."""
    points: frozenset
    lines: frozenset


def units(ctx):
    """The codes of the q^3 - 1 nonzero elements of GF(q^3)."""
    return range(1, ctx.q3)


def in_base_subfield(ctx, a) -> bool:
    """a lies in GF(q), the elements the Frobenius x -> x^q fixes."""
    return ctx.frob(a) == a


def rows(ctx, objs) -> tuple:
    """The sorted dense indices of a set of point or line triples."""
    return tuple(sorted(map(ProjectivePlane(ctx).index, objs)))


def triples(ctx, row) -> frozenset:
    """The point or line triples of an array of dense indices."""
    return frozenset(map(ProjectivePlane(ctx).point, row))


def as_rows(ctx, B: Subplane) -> SubplaneSet:
    return SubplaneSet(rows(ctx, B.points), rows(ctx, B.lines))


def as_triples(ctx, B: SubplaneSet) -> Subplane:
    return Subplane(triples(ctx, B.points), triples(ctx, B.lines))


# The scalar orbit constructors: each object is the orbit of one point,
# or of a secant line, under apply_stabilizer, over the q^2 + q + 1 coset
# representatives of GF(q)* in GF(q^3)*.

def apply_stabilizer(ctx, t, P):
    """The projectivity (x,y,z) |-> (t x, t^q y, t^q^2 z); t nonzero."""
    if t == 0:
        raise FieldError("stabilizer parameter must be nonzero")
    x, y, z = P
    return canonical(ctx, (ctx.mul(t, x), ctx.mul(ctx.frob(t), y), ctx.mul(ctx.frob(t, 2), z)))


def coset_reps(ctx):
    """The codes 1 .. q^2+q+1 of g^0 .. g^(q^2+q), one per coset of
    GF(q)* in GF(q^3)*: g^(q^2+q+1) generates GF(q)*."""
    return range(1, ctx.sub_order + 1)


def stabilizer_orbit(ctx, P) -> frozenset:
    """Orbit of P under the stabilizer: t and lambda t (lambda in GF(q)*)
    induce one projectivity, so t runs over ``coset_reps``."""
    return frozenset(apply_stabilizer(ctx, t, P) for t in coset_reps(ctx))


def sls_set(ctx, theta, side=0) -> frozenset:
    """The orbit of (theta : 1 : 0), pushed to ``side``."""
    if theta == 0:
        raise FieldError("theta must be nonzero")
    return stabilizer_orbit(ctx, collineate_point(ctx, (theta, 1, 0), side))


def pencil_set(ctx, theta) -> frozenset:
    """Lines joining the anchor to the axis linear set of theta."""
    return frozenset(join(ctx, ANCHOR, P) for P in sls_set(ctx, theta))


def pencil_type(ctx, theta) -> int:
    """Common type of the pencil lines, verified to be uniform."""
    kinds = {line_type(ctx, l) for l in pencil_set(ctx, theta)}
    if len(kinds) != 1:
        raise GeometryError(f"pencil of {theta} mixes line types {sorted(kinds)}")
    return kinds.pop()


def plane_set(ctx, P) -> Subplane:
    """Stabilizer orbit of a point off the triangle sides, and of its
    secant line [yz : xz : xy]."""
    x, y, z = P
    if x == 0 or y == 0 or z == 0:
        raise FieldError(f"{P} lies on a triangle side")
    return Subplane(stabilizer_orbit(ctx, P),
                    stabilizer_orbit(ctx, (ctx.mul(y, z), ctx.mul(x, z), ctx.mul(x, y))))


def t_plane_set(ctx, theta) -> Subplane:
    """The orbit subplane of (theta^(q+1) : 1 : theta)."""
    if theta == 0:
        raise FieldError("theta must be nonzero")
    return plane_set(ctx, (ctx.mul(theta, ctx.frob(theta)), 1, theta))


def fixed_set(ctx) -> Subplane:
    """The subplane fixed pointwise by the collineation."""
    return t_plane_set(ctx, ctx.one)


# The scalar projection from a vertex, the oracle of PlaneTables.project
# and vertex_kinds.

class LinearSetImage(NamedTuple):
    vertex: tuple
    points: frozenset
    kind: str                 # "sls" | "club" | "other"
    sls: SlsId | None


def _classify_axis_set(ctx, pts: frozenset, vertex) -> LinearSetImage:
    if len(pts) == ctx.q ** 2 + 1:
        return LinearSetImage(vertex, pts, "club", None)
    if len(pts) == ctx.sub_order and ANCHOR_1 not in pts and ANCHOR_2 not in pts:
        classes = {ctx.norm_class(ctx.div(a, b)) for a, b, _ in pts}
        if len(classes) == 1:
            return LinearSetImage(vertex, pts, "sls", SlsId(0, classes.pop()))
    return LinearSetImage(vertex, pts, "other", None)


def project_from_vertex(ctx, V, B: Subplane) -> LinearSetImage:
    """Project B from V, off the axis and outside B, onto the axis, and
    classify the image."""
    if V[2] == 0:
        raise GeometryError(f"vertex {V} lies on the axis")
    if V in B.points:
        raise GeometryError(f"vertex {V} belongs to the projected subplane")
    mul, sub = ctx.mul, ctx.sub
    v1, v2, v3 = V
    pts = frozenset(canonical(ctx, (sub(mul(v3, p1), mul(v1, p3)), sub(mul(v3, p2), mul(v2, p3)), 0))
                    for p1, p2, p3 in B.points)
    return _classify_axis_set(ctx, pts, V)


# Single-object maps that figplane reads in bulk, as index arithmetic
# (``maps.anchor_projections``, ``maps.anchor_cross``,
# ``PlaneTables.incidence_rows``), and over whole sets.

def points_on_line(ctx, line) -> list:
    """The q^3 + 1 points on a line: the triples orthogonal to it, as the
    lines through a point are."""
    return lines_through_point(ctx, line)


def project_from_anchor(ctx, P):
    if P == ANCHOR:
        raise GeometryError("projection from the anchor is undefined at the anchor")
    return meet(ctx, join(ctx, ANCHOR, P), AXIS)


def splash(ctx, l):
    if l == AXIS:
        raise GeometryError("splash of the axis is undefined")
    return meet(ctx, l, AXIS)


def involution_point_image(ctx, B: Subplane) -> frozenset:
    """The involution on every point of an all-Type-III subplane."""
    return frozenset(conjugate_join(ctx, P) for P in B.points)


def involution_line_image(ctx, B: Subplane) -> frozenset:
    """The involution on every secant line of an all-Type-III-line subplane."""
    return frozenset(conjugate_meet(ctx, l) for l in B.lines)


def pr_set(ctx, B: Subplane) -> frozenset:
    """The projection of the points of B from the anchor onto the axis."""
    return frozenset(project_from_anchor(ctx, P) for P in B.points)


def sp_set(ctx, B: Subplane) -> frozenset:
    """The splash of the lines of B: their meets with the axis."""
    return frozenset(splash(ctx, l) for l in B.lines)


def conjugate_subplane(ctx, B: Subplane, times: int = 1) -> Subplane:
    """B moved by the collineation ``times`` times."""
    return Subplane(frozenset(collineate_point(ctx, P, times) for P in B.points),
                    frozenset(collineate_line(ctx, l, times) for l in B.lines))


def is_subplane_closed(ctx, B: Subplane) -> bool:
    """Closure as a subplane of order q: member point pairs join inside the
    member lines, and each member line carries exactly q + 1 member points."""
    pts = list(B.points)
    for i, P in enumerate(pts):
        for Q in pts[i + 1:]:
            if join(ctx, P, Q) not in B.lines:
                return False
    return all(sum(1 for P in B.points if incident(ctx, P, l)) == ctx.q + 1
               for l in B.lines)
