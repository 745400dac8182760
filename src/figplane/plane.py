"""Points, lines and incidence of PG(2, q^3).

Points and lines are 3-tuples of field codes in canonical form: the
leftmost nonzero coordinate equals one.  Two triples describe the same
projective object exactly when their canonical forms are equal, so
tuples double as hash keys.  Which of the two roles a triple plays
(point or line) is positional: functions name their arguments.

The distinguished frame used throughout the package:

    ANCHOR   = (0,0,1)   a point whose collineation orbit is a triangle
    ANCHOR_1 = (1,0,0)   its image under the collineation
    ANCHOR_2 = (0,1,0)   its second image
    AXIS     = [0,0,1]   the line joining ANCHOR_1 and ANCHOR_2

Text syntax for reports: a point prints as ``a:b:c`` and a line as
``[a:b:c]``, each coordinate being the raw integer code (0 for the zero
element, 1 + discrete log otherwise).
"""

from __future__ import annotations

from functools import cached_property

from .field import FieldContext

Triple = tuple[int, int, int]

ANCHOR: Triple = (0, 0, 1)
ANCHOR_1: Triple = (1, 0, 0)
ANCHOR_2: Triple = (0, 1, 0)
AXIS: Triple = (0, 0, 1)


class GeometryError(ValueError):
    """Degenerate input: zero triple, equal arguments to join/meet, etc."""


def canonical(ctx: FieldContext, t: Triple) -> Triple:
    """Scale so the leftmost nonzero coordinate is one.  Idempotent."""
    a, b, c = t
    if a:
        if a == 1:
            return (a, b, c)
        s = ctx.inv(a)
        return (1, ctx.mul(b, s), ctx.mul(c, s))
    if b:
        if b == 1:
            return (0, b, c)
        return (0, 1, ctx.mul(c, ctx.inv(b)))
    if c:
        return (0, 0, 1)
    raise GeometryError("zero triple has no projective class")


def dot(ctx: FieldContext, u: Triple, v: Triple) -> int:
    return ctx.add(ctx.add(ctx.mul(u[0], v[0]), ctx.mul(u[1], v[1])),
                   ctx.mul(u[2], v[2]))


def incident(ctx: FieldContext, point: Triple, line: Triple) -> bool:
    return dot(ctx, point, line) == 0


def cross(ctx: FieldContext, u: Triple, v: Triple) -> Triple:
    mul, sub = ctx.mul, ctx.sub
    return (sub(mul(u[1], v[2]), mul(u[2], v[1])),
            sub(mul(u[2], v[0]), mul(u[0], v[2])),
            sub(mul(u[0], v[1]), mul(u[1], v[0])))


def join(ctx: FieldContext, P: Triple, Q: Triple) -> Triple:
    """The unique line through two distinct points."""
    if P == Q:
        raise GeometryError(f"join of equal points {P}")
    return canonical(ctx, cross(ctx, P, Q))


def meet(ctx: FieldContext, l: Triple, m: Triple) -> Triple:
    """The unique common point of two distinct lines."""
    if l == m:
        raise GeometryError(f"meet of equal lines {l}")
    return canonical(ctx, cross(ctx, l, m))


def _pencil(ctx: FieldContext, base: Triple) -> list[Triple]:
    """All q^3 + 1 canonical triples orthogonal to ``base``."""
    e = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    spanning = [canonical(ctx, w) for w in (cross(ctx, base, v) for v in e)
                if w != (0, 0, 0)]
    u = spanning[0]
    v = next(w for w in spanning[1:] if w != u)
    add, mul = ctx.add, ctx.mul
    out = [v]
    for t in ctx.elements():
        w = (add(u[0], mul(t, v[0])), add(u[1], mul(t, v[1])), add(u[2], mul(t, v[2])))
        out.append(canonical(ctx, w))
    return out


def lines_through_point(ctx: FieldContext, point: Triple) -> list[Triple]:
    return _pencil(ctx, point)


def format_point(P: Triple) -> str:
    return f"{P[0]}:{P[1]}:{P[2]}"


def format_line(l: Triple) -> str:
    return f"[{l[0]}:{l[1]}:{l[2]}]"


class ProjectivePlane:
    """PG(2, q^3) with dense indices for points and lines.

    Enumeration order is fixed (canonical triples sorted by leading-zero
    pattern, then numerically), so indices are reproducible and orbit
    partitions can live in flat arrays.  The index has a closed form
    (see :mod:`figplane.arrays`), which ``index`` and ``point`` evaluate
    for one object, a point or a line; the ``points`` list is built only
    on first use.
    """

    def __init__(self, ctx: FieldContext):
        self.ctx = ctx
        self.size = ctx.q3 * ctx.q3 + ctx.q3 + 1

    def index(self, P: Triple) -> int:
        """Dense index of the canonical triple P (a point, or a line)."""
        q3 = self.ctx.q3
        x, y, z = P
        if x == 1 and 0 <= y < q3 and 0 <= z < q3:
            return y * q3 + z
        if x == 0 and y == 1 and 0 <= z < q3:
            return q3 * q3 + z
        if (x, y, z) == (0, 0, 1):
            return q3 * q3 + q3
        raise GeometryError(f"{P} is not a canonical triple of PG(2, {q3})")

    def point(self, i: int) -> Triple:
        """The canonical triple with dense index i (a point, or a line)."""
        q3, i = self.ctx.q3, int(i)
        if not 0 <= i < self.size:
            raise GeometryError(f"index {i} outside [0, {self.size})")
        if i < q3 * q3:
            return (1, i // q3, i % q3)
        if i < q3 * q3 + q3:
            return (0, 1, i - q3 * q3)
        return (0, 0, 1)

    @cached_property
    def points(self) -> list[Triple]:
        q3 = self.ctx.q3
        out = [(1, b, c) for b in range(q3) for c in range(q3)]
        out.extend((0, 1, c) for c in range(q3))
        out.append((0, 0, 1))
        return out

    @cached_property
    def tables(self):
        """The bulk per-index tables (:class:`figplane.arrays.PlaneTables`),
        each built on first use."""
        from .arrays import PlaneTables
        return PlaneTables(self.ctx)

    def points_on(self, line: Triple) -> list[int]:
        return [self.index(P) for P in _pencil(self.ctx, line)]

    def __len__(self):
        return self.size

    def __repr__(self):
        return f"ProjectivePlane(q={self.ctx.q}, size={self.size})"
