"""Distinguished stabilizer orbits in closed form.

Three families, all parametrized by a nonzero field element theta whose
norm alone decides the object:

* scattered linear sets on the triangle sides, ``sls_points``: on the
  axis these are the norm fibers {(x theta, x^q, 0)}, one per norm class,
  of q^2+q+1 points each;
* the pencils joining the anchor to such a set, ``pencil_lines``;
* the subplanes of order q ("theta-planes") {(r theta^(q+1), r^q, r^q^2 theta)},
  ``t_plane``, with the q = norm-1 member being the pointwise fixed subplane.

Linear sets and subplanes are stabilizer orbits of one point each
(``collineation.stabilizer_orbit``): (theta : 1 : 0) pushed to a side, or a
point off the sides with the orbit of its secant [yz : xz : xy] as lines.
``_require_size`` raises unless each orbit has q^2+q+1 members.

Sides are numbered as in :mod:`figplane.plane`: 0 is the axis, 1 and 2
its images under the collineation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .field import FieldContext, FieldError
from .plane import ANCHOR, GeometryError, Triple, join
from .collineation import collineate_point, line_type, stabilizer_orbit


@dataclass(frozen=True)
class SubplaneSet:
    points: frozenset[Triple]
    lines: frozenset[Triple]


def sls_points(ctx: FieldContext, theta: int, side: int = 0) -> frozenset[Triple]:
    """The scattered linear set {(x theta, x^q, 0)}, the orbit of
    (theta : 1 : 0), pushed to ``side``."""
    if theta == 0:
        raise FieldError("theta must be nonzero")
    pts = stabilizer_orbit(ctx, collineate_point(ctx, (theta, 1, 0), side))
    _require_size(ctx, f"linear set of {theta}", pts)
    return pts


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
    """The orbit subplane of theta, that of (theta^(q+1) : 1 : theta), with
    its q^2+q+1 secant lines, built once per field context and theta: the
    result is immutable."""
    if theta == 0:
        raise FieldError("theta must be nonzero")
    return plane_from_rep(ctx, (ctx.mul(theta, ctx.frob(theta)), 1, theta))


def fixed_subplane(ctx: FieldContext) -> SubplaneSet:
    """The subplane of order q fixed pointwise by the collineation."""
    return t_plane(ctx, ctx.one)


def plane_from_rep(ctx: FieldContext, P: Triple) -> SubplaneSet:
    """Stabilizer orbit of a point off the triangle sides, plus its secants.

    Points are (t x, t^q y, t^q^2 z) and lines [yz s, xz s^q, xy s^q^2],
    the orbit of the secant line [yz : xz : xy]; the line set does not
    depend on the chosen representative.
    """
    x, y, z = P
    if x == 0 or y == 0 or z == 0:
        raise FieldError(f"{P} lies on a triangle side")
    pts = stabilizer_orbit(ctx, P)
    lns = stabilizer_orbit(ctx, (ctx.mul(y, z), ctx.mul(x, z), ctx.mul(x, y)))
    _require_size(ctx, f"orbit plane of {P}", pts, lns)
    return SubplaneSet(pts, lns)
