"""Whole-set oracles that only tests need: each applies one of figplane's
single-object maps, or a field predicate, to every member of a set.

figplane's checks read these images as index arrays (``figplane.suite_maps``);
the tests compare those, and the orbit constructors, against the scalar
maps applied member by member here.
"""

from figplane.collineation import collineate_line, collineate_point
from figplane.linear_sets import SubplaneSet
from figplane.maps import conjugate_join, conjugate_meet, project_from_anchor, splash
from figplane.plane import incident, join


def units(ctx):
    """The codes of the q^3 - 1 nonzero elements of GF(q^3)."""
    return range(1, ctx.q3)


def in_base_subfield(ctx, a) -> bool:
    """a lies in GF(q), the elements the Frobenius x -> x^q fixes."""
    return ctx.frob(a) == a


def involution_point_image(ctx, B: SubplaneSet) -> frozenset:
    """The involution on every point of an all-Type-III subplane."""
    return frozenset(conjugate_join(ctx, P) for P in B.points)


def involution_line_image(ctx, B: SubplaneSet) -> frozenset:
    """The involution on every secant line of an all-Type-III-line subplane."""
    return frozenset(conjugate_meet(ctx, l) for l in B.lines)


def pr_set(ctx, B: SubplaneSet) -> frozenset:
    """The projection of the points of B from the anchor onto the axis."""
    return frozenset(project_from_anchor(ctx, P) for P in B.points)


def sp_set(ctx, B: SubplaneSet) -> frozenset:
    """The splash of the lines of B: their meets with the axis."""
    return frozenset(splash(ctx, l) for l in B.lines)


def conjugate_subplane(ctx, B: SubplaneSet, times: int = 1) -> SubplaneSet:
    """B moved by the collineation ``times`` times."""
    return SubplaneSet(frozenset(collineate_point(ctx, P, times) for P in B.points),
                       frozenset(collineate_line(ctx, l, times) for l in B.lines))


def is_subplane_closed(ctx, B: SubplaneSet) -> bool:
    """Closure as a subplane of order q: member point pairs join inside the
    member lines, and each member line carries exactly q + 1 member points."""
    pts = list(B.points)
    for i, P in enumerate(pts):
        for Q in pts[i + 1:]:
            if join(ctx, P, Q) not in B.lines:
                return False
    return all(sum(1 for P in B.points if incident(ctx, P, l)) == ctx.q + 1
               for l in B.lines)
