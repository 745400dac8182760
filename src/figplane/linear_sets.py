"""Distinguished stabilizer orbits in closed form, as rows of indices.

Three families, all parametrized by a nonzero field element theta whose
norm alone decides the object:

* scattered linear sets on the triangle sides, ``sls_points``: on the
  axis these are the norm fibers {(x theta, x^q, 0)}, one per norm class,
  of q^2+q+1 points each;
* the pencils joining the anchor to such a set, ``pencil_lines``;
* the subplanes of order q ("theta-planes") {(r theta^(q+1), r^q, r^q^2 theta)},
  ``t_plane``, with the q = norm-1 member being the pointwise fixed subplane.

Each is the stabilizer orbit of (theta : 1 : 0) moved to a side, of its
join with the anchor, or of a point off the sides with, as lines, that of
its secant [yz : xz : xy]: a sorted tuple of indices from the closed form
``figplane.arrays.orbit_rows``.  ``_require_size`` raises unless each
orbit has q^2+q+1 distinct members.

Sides are numbered as in :mod:`figplane.plane`: 0 is the axis, 1 and 2
its images under the collineation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .arrays import distinct, orbit_rows
from .field import FieldContext, FieldError
from .plane import ANCHOR, GeometryError, ProjectivePlane, Triple, canonical, join
from .collineation import collineate_point


@dataclass(frozen=True)
class SubplaneSet:
    points: tuple[int, ...]
    lines: tuple[int, ...]


def _orbits(ctx: FieldContext, what: str, *objects: Triple) -> list[tuple[int, ...]]:
    """The sorted index rows of the stabilizer orbits of the triples
    ``objects``, points or lines alike, each checked by ``_require_size``."""
    index = ProjectivePlane(ctx).index
    rows = orbit_rows(ctx, [index(canonical(ctx, t)) for t in objects])
    _require_size(ctx, what, *rows)
    return [tuple(row.tolist()) for row in rows]


def _require_size(ctx: FieldContext, what: str, *rows) -> None:
    """Raise unless each row has the q^2+q+1 distinct members of a
    stabilizer orbit."""
    sizes = [len(distinct(row)) for row in rows]
    if any(size != ctx.sub_order for size in sizes):
        raise GeometryError(f"{what} has {sizes} members, not {ctx.sub_order}")


def sls_points(ctx: FieldContext, theta: int, side: int = 0) -> tuple[int, ...]:
    """The scattered linear set {(x theta, x^q, 0)}, the orbit of
    (theta : 1 : 0), pushed to ``side``."""
    if theta == 0:
        raise FieldError("theta must be nonzero")
    return _orbits(ctx, f"linear set of {theta}",
                   collineate_point(ctx, (theta, 1, 0), side))[0]


def pencil_lines(ctx: FieldContext, theta: int) -> tuple[int, ...]:
    """Lines joining the anchor, which the stabilizer fixes, to the axis
    linear set of theta: the orbit of its join with (theta : 1 : 0)."""
    if theta == 0:
        raise FieldError("theta must be nonzero")
    return _orbits(ctx, f"pencil of {theta}", join(ctx, ANCHOR, (theta, 1, 0)))[0]


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
    return SubplaneSet(*_orbits(ctx, f"orbit plane of {P}", P,
                                (ctx.mul(y, z), ctx.mul(x, z), ctx.mul(x, y))))
