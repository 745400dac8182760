"""Distinguished stabilizer orbits in closed form.

Three families, all parametrized by a nonzero field element theta whose
norm alone decides the object:

* scattered linear sets on the triangle sides, ``sls_points``: on the
  axis these are the norm fibers {(x theta, x^q, 0)}, one per norm class,
  of q^2+q+1 points each;
* the pencils joining the anchor to such a set, ``pencil_lines``;
* the subplanes of order q ("theta-planes") {(r theta^(q+1), r^q, r^q^2 theta)},
  ``t_plane``, with the q = norm-1 member being the pointwise fixed subplane.

Each constructor runs its parameter over ``FieldContext.coset_reps``,
the q^2+q+1 codes of g^0 .. g^(q^2+q), one per coset of GF(q)* in
GF(q^3)*, not over every unit: lambda in GF(q)* has lambda^q = lambda,
so it scales each of the triples above by lambda and they name one
object.  ``_require_size`` raises if two representatives give one.

Sides are numbered as in :mod:`figplane.plane`: 0 is the axis, 1 and 2
its images under the collineation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .field import FieldContext, FieldError
from .plane import ANCHOR, GeometryError, Triple, canonical, join
from .collineation import collineate_line, collineate_point, line_type


@dataclass(frozen=True)
class SubplaneSet:
    points: frozenset[Triple]
    lines: frozenset[Triple]


def sls_points(ctx: FieldContext, theta: int, side: int = 0) -> frozenset[Triple]:
    """The scattered linear set {(x theta, x^q, 0)}, pushed to ``side``."""
    if theta == 0:
        raise FieldError("theta must be nonzero")
    pts = {canonical(ctx, (ctx.mul(x, theta), ctx.frob(x), 0))
           for x in ctx.coset_reps()}
    if side:
        pts = {collineate_point(ctx, P, side) for P in pts}
    _require_size(ctx, f"linear set of {theta}", pts)
    return frozenset(pts)


def _require_size(ctx: FieldContext, what: str, *sets) -> None:
    """Raise unless each set has the q^2+q+1 members of a stabilizer orbit."""
    sizes = [len(s) for s in sets]
    if any(size != ctx.sub_order for size in sizes):
        raise GeometryError(f"{what} has {sizes} members, not {ctx.sub_order}")


def pencil_lines(ctx: FieldContext, theta: int) -> frozenset[Triple]:
    """Lines joining the anchor to the axis linear set of theta."""
    return frozenset(join(ctx, ANCHOR, P) for P in sls_points(ctx, theta))


def pencil_type(ctx: FieldContext, theta: int) -> int:
    """Common type of the pencil lines, verified to be uniform."""
    kinds = {line_type(ctx, l) for l in pencil_lines(ctx, theta)}
    if len(kinds) != 1:
        raise GeometryError(f"pencil of {theta} mixes line types {sorted(kinds)}")
    return kinds.pop()


@cache
def t_plane(ctx: FieldContext, theta: int) -> SubplaneSet:
    """The orbit subplane of theta, with its q^2+q+1 secant lines, built
    once per field context and theta: the result is immutable."""
    if theta == 0:
        raise FieldError("theta must be nonzero")
    f = ctx.frob
    tq1 = ctx.mul(theta, f(theta))           # theta^(q+1)
    pts = {canonical(ctx, (ctx.mul(r, tq1), f(r), ctx.mul(f(r, 2), theta)))
           for r in ctx.coset_reps()}
    lns = {canonical(ctx, (s, ctx.mul(f(s), tq1), ctx.mul(f(s, 2), f(theta))))
           for s in ctx.coset_reps()}
    _require_size(ctx, f"t_plane[{theta}]", pts, lns)
    return SubplaneSet(frozenset(pts), frozenset(lns))


def fixed_subplane(ctx: FieldContext) -> SubplaneSet:
    """The subplane of order q fixed pointwise by the collineation."""
    return t_plane(ctx, ctx.one)


def plane_from_rep(ctx: FieldContext, P: Triple) -> SubplaneSet:
    """Stabilizer orbit of a point off the triangle sides, plus its secants.

    Points are (t x, t^q y, t^q^2 z) and lines [yz s, xz s^q, xy s^q^2];
    the line set does not depend on the chosen representative.
    """
    x, y, z = P
    if x == 0 or y == 0 or z == 0:
        raise FieldError(f"{P} lies on a triangle side")
    f2 = lambda a: ctx.frob(a, 2)
    pts = {canonical(ctx, (ctx.mul(t, x), ctx.mul(ctx.frob(t), y), ctx.mul(f2(t), z)))
           for t in ctx.coset_reps()}
    yz, xz, xy = ctx.mul(y, z), ctx.mul(x, z), ctx.mul(x, y)
    lns = {canonical(ctx, (ctx.mul(yz, s), ctx.mul(xz, ctx.frob(s)), ctx.mul(xy, f2(s))))
           for s in ctx.coset_reps()}
    _require_size(ctx, f"orbit plane of {P}", pts, lns)
    return SubplaneSet(frozenset(pts), frozenset(lns))


def conjugate_subplane(ctx: FieldContext, B: SubplaneSet, times: int = 1) -> SubplaneSet:
    return SubplaneSet(frozenset(collineate_point(ctx, P, times) for P in B.points),
                       frozenset(collineate_line(ctx, l, times) for l in B.lines))


def is_subplane_closed(ctx: FieldContext, B: SubplaneSet) -> bool:
    """Closure as a subplane of order q: member point pairs join inside the
    member lines, and each member line carries exactly q + 1 member points."""
    from .plane import incident
    pts = list(B.points)
    for i, P in enumerate(pts):
        for Q in pts[i + 1:]:
            if join(ctx, P, Q) not in B.lines:
                return False
    for l in B.lines:
        if sum(1 for P in B.points if incident(ctx, P, l)) != ctx.q + 1:
            return False
    return True
