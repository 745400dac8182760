"""The order-3 collineation, the triangle stabilizer and its orbit census.

The collineation acts as

    point (x,y,z) |-> (z^q, x^q, y^q)        line [d,e,f] |-> [f^q, d^q, e^q]

and fixes pointwise exactly one subplane of order q.  A point is Type I,
II or III when its orbit under the collineation is a single point, three
collinear points or a triangle; dually for lines.  Both are read off as
the rank (1, 2 or 3) of a 3x3 matrix built from the object and its two
conjugates.

The triangle stabilizer is the group of q^2+q+1 projectivities
(x,y,z) |-> (t x, t^q y, t^q^2 z) fixing the frame triangle vertexwise;
its point orbits partition PG(2,q^3) into seven kinds of classes, and
``partition_orbits`` plus ``census_of`` compute and count them all.
``partition_orbits`` reads them from ``PlaneTables.orbit``, for which
``stabilizer_orbit`` and ``apply_stabilizer`` are the scalar reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import FieldContext, FieldError
from .plane import (ANCHOR, ANCHOR_1, ANCHOR_2, GeometryError, ProjectivePlane,
                    Triple, canonical)

TYPE_I, TYPE_II, TYPE_III = 1, 2, 3

TYPE_NAMES = {TYPE_I: "I", TYPE_II: "II", TYPE_III: "III"}

# The seven orbit categories, in fixed report order.
CATEGORIES = ("vertex", "sls_II", "sls_III", "plane_I_I",
              "plane_II_III", "plane_III_II", "plane_III_III")


def collineate_point(ctx: FieldContext, P: Triple, times: int = 1) -> Triple:
    f = ctx.frob
    for _ in range(times % 3):
        P = canonical(ctx, (f(P[2]), f(P[0]), f(P[1])))
    return P


def collineate_line(ctx: FieldContext, l: Triple, times: int = 1) -> Triple:
    """Lines map by the same coordinate formula as points."""
    return collineate_point(ctx, l, times)


def point_orbit_matrix(ctx: FieldContext, P: Triple):
    """Rows: P and its two conjugates, written out coordinate by coordinate."""
    x, y, z = P
    f1, f2 = ctx.frob, lambda a: ctx.frob(a, 2)
    return ((x, y, z),
            (f1(z), f1(x), f1(y)),
            (f2(y), f2(z), f2(x)))


def line_orbit_matrix(ctx: FieldContext, l: Triple):
    d, e, f = l
    f1, f2 = ctx.frob, lambda a: ctx.frob(a, 2)
    return ((d, f1(f), f2(e)),
            (e, f1(d), f2(f)),
            (f, f1(e), f2(d)))


def det3(ctx: FieldContext, M) -> int:
    mul, sub, add = ctx.mul, ctx.sub, ctx.add
    (a, b, c), (d, e, f), (g, h, i) = M
    t1 = mul(a, sub(mul(e, i), mul(f, h)))
    t2 = mul(b, sub(mul(d, i), mul(f, g)))
    t3 = mul(c, sub(mul(d, h), mul(e, g)))
    return add(sub(t1, t2), t3)


def rank3(ctx: FieldContext, M) -> int:
    """Rank over GF(q^3) by Gaussian elimination; exact field arithmetic."""
    rows = [list(r) for r in M]
    rank = 0
    for col in range(3):
        pivot = next((r for r in range(rank, 3) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = ctx.inv(rows[rank][col])
        for r in range(rank + 1, 3):
            if rows[r][col] == 0:
                continue
            factor = ctx.mul(rows[r][col], inv)
            for c in range(col, 3):
                rows[r][c] = ctx.sub(rows[r][c], ctx.mul(factor, rows[rank][c]))
        rank += 1
    return rank


def point_type(ctx: FieldContext, P: Triple) -> int:
    return rank3(ctx, point_orbit_matrix(ctx, P))


def line_type(ctx: FieldContext, l: Triple) -> int:
    return rank3(ctx, line_orbit_matrix(ctx, l))


def apply_stabilizer(ctx: FieldContext, t: int, P: Triple) -> Triple:
    """The projectivity (x,y,z) |-> (t x, t^q y, t^q^2 z); t nonzero."""
    if t == 0:
        raise FieldError("stabilizer parameter must be nonzero")
    x, y, z = P
    return canonical(ctx, (ctx.mul(t, x),
                           ctx.mul(ctx.frob(t), y),
                           ctx.mul(ctx.frob(t, 2), z)))


def stabilizer_orbit(ctx: FieldContext, P: Triple) -> frozenset[Triple]:
    """Orbit of P under the stabilizer.

    Parameters t and lambda*t (lambda in GF(q)*) induce the same
    projectivity, so t runs over the q^2+q+1 coset representatives
    g^i, i = 0 .. q^2+q.
    """
    n = ctx.n
    x, y, z = P
    out = set()
    q, q2 = ctx.q, ctx.q * ctx.q
    for i in range(ctx.sub_order):
        nx = (x - 1 + i) % n + 1 if x else 0
        ny = (y - 1 + i * q) % n + 1 if y else 0
        nz = (z - 1 + i * q2) % n + 1 if z else 0
        out.add(canonical(ctx, (nx, ny, nz)))
    return frozenset(out)


def norm_det_identity(ctx: FieldContext, P: Triple) -> bool:
    """Check the norm/determinant relation tying a point off the triangle
    sides to the secant line of its stabilizer orbit.

    For P = (x,y,z) with xyz != 0, l = [yz, zx, xy], and
    X = x^(1+q) - y z^q (cyclically Y, Z), each of
    norm(X) - norm(x) det(M_P) equals -det(M_l).
    """
    x, y, z = P
    if x == 0 or y == 0 or z == 0:
        raise FieldError("identity requires all three coordinates nonzero")
    mul, sub, f = ctx.mul, ctx.sub, ctx.frob
    X = sub(mul(x, f(x)), mul(y, f(z)))
    Y = sub(mul(y, f(y)), mul(z, f(x)))
    Z = sub(mul(z, f(z)), mul(x, f(y)))
    dP = det3(ctx, point_orbit_matrix(ctx, P))
    line = (mul(y, z), mul(z, x), mul(x, y))
    target = ctx.neg(det3(ctx, line_orbit_matrix(ctx, line)))
    return all(sub(ctx.norm(w), mul(ctx.norm(c), dP)) == target
               for w, c in ((X, x), (Y, y), (Z, z)))


@dataclass(frozen=True, eq=False)
class OrbitClass:
    rep: Triple                    # member of minimal enumeration index
    members: np.ndarray            # sorted point indices, a read-only int32 slice
    category: str                  # one of CATEGORIES
    point_type: int
    line_type: int | None          # secant-line type, planes only
    side: int | None               # 0/1/2: triangle side, vertices and slses
    norm_class: int | None         # slses only


@dataclass
class Census:
    q: int
    orbit_counts: dict[str, int]
    point_counts: dict[str, int]

    def expected(self) -> dict[str, int]:
        q = self.q
        return {
            "vertex": 3,
            "sls_II": 3,
            "sls_III": 3 * (q - 2),
            "plane_I_I": 1,
            "plane_II_III": q ** 3 - q - 3,
            "plane_III_II": q ** 3 - q - 3,
            "plane_III_III": q ** 4 - 3 * q ** 3 + q + 6,
        }

    def matches_expected(self) -> bool:
        return self.orbit_counts == self.expected()

    @property
    def total_orbits(self) -> int:
        return sum(self.orbit_counts.values())

    @property
    def total_points(self) -> int:
        return sum(self.point_counts.values())


class OrbitInconsistency(GeometryError):
    """An orbit class whose members disagree on type, or whose size or
    type profile is impossible; indicates a bug."""


@dataclass(frozen=True)
class SlsId:
    """A scattered linear set on a triangle side, keyed by norm class."""
    side: int
    norm_class: int


def sls_id_of_point(ctx: FieldContext, P: Triple) -> SlsId:
    """Identify the side and norm class of a point on a triangle side.

    Side 0 is the axis (opposite ANCHOR, z = 0), side 1 is x = 0
    (opposite ANCHOR_1), side 2 is y = 0 (opposite ANCHOR_2).  The norm
    class is that of a/b once the point is moved to the axis as (a, b, 0).
    """
    zeros = [i for i in range(3) if P[i] == 0]
    if len(zeros) != 1:
        raise FieldError(f"{P} is not on exactly one triangle side")
    side = {2: 0, 0: 1, 1: 2}[zeros[0]]
    Q = collineate_point(ctx, P, (3 - side) % 3)
    return SlsId(side, ctx.norm_class(ctx.div(Q[0], Q[1])))


def point_types_table(plane: ProjectivePlane) -> np.ndarray:
    """Read-only int8 array: the type of every point, by index."""
    return plane.tables.types


def line_types_table(plane: ProjectivePlane) -> np.ndarray:
    """Read-only int8 array: the type of every line, by index.

    The line orbit matrix of a triple is the transpose of its point
    orbit matrix, and lines share the point enumeration, so this is the
    point type table itself.
    """
    return plane.tables.types


def partition_orbits(plane: ProjectivePlane) -> list[OrbitClass]:
    """Partition all points into stabilizer orbits, classified and counted.

    A class is the set of points sharing one entry of the orbit table, their
    least index, whose point is the representative; classes come in
    representative order, so output is deterministic.
    """
    ctx, tables = plane.ctx, plane.tables
    types, orbit = tables.types, tables.orbit
    mixed = np.flatnonzero(types[orbit] != types)
    if mixed.size:
        i = mixed[0]
        raise OrbitInconsistency(
            f"orbit of {plane.point(orbit[i])} mixes point types "
            f"{sorted({int(types[orbit[i]]), int(types[i])})}")
    reps = np.flatnonzero(orbit == np.arange(plane.size))
    order = np.argsort(orbit, kind="stable").astype(np.int32)
    order.setflags(write=False)
    ends = np.cumsum(np.bincount(orbit)[reps]).tolist()
    ptypes, ltypes = types[reps].tolist(), types[tables.sec[reps]].tolist()  # ltype: planes only
    classes: list[OrbitClass] = []
    for r, lo, hi, ptype, ltype in zip(reps.tolist(), [0] + ends, ends, ptypes, ltypes):
        P, members = plane.point(r), order[lo:hi]
        if len(members) == 1:
            if P not in (ANCHOR, ANCHOR_1, ANCHOR_2):
                raise OrbitInconsistency(f"unexpected singleton orbit at {P}")
            side = (ANCHOR, ANCHOR_1, ANCHOR_2).index(P)
            classes.append(OrbitClass(P, members, "vertex", ptype, None, side, None))
            continue
        if len(members) != ctx.sub_order:
            raise OrbitInconsistency(
                f"orbit of {P} has size {len(members)}, not {ctx.sub_order}")
        if 0 in P:   # on a triangle side: the vertices were handled above
            category = "sls_II" if ptype == TYPE_II else "sls_III"
            sid = sls_id_of_point(ctx, P)
            classes.append(OrbitClass(P, members, category,
                                      ptype, None, sid.side, sid.norm_class))
            continue
        category = {(TYPE_I, TYPE_I): "plane_I_I",
                    (TYPE_II, TYPE_III): "plane_II_III",
                    (TYPE_III, TYPE_II): "plane_III_II",
                    (TYPE_III, TYPE_III): "plane_III_III"}.get((ptype, ltype))
        if category is None:
            raise OrbitInconsistency(
                f"plane orbit of {P} has point type {ptype}, line type {ltype}")
        classes.append(OrbitClass(P, members, category, ptype, ltype, None, None))
    return classes


def census_of(plane: ProjectivePlane,
              classes: list[OrbitClass] | None = None) -> Census:
    if classes is None:
        classes = partition_orbits(plane)
    orbit_counts = {c: 0 for c in CATEGORIES}
    point_counts = {c: 0 for c in CATEGORIES}
    for cl in classes:
        orbit_counts[cl.category] += 1
        point_counts[cl.category] += len(cl.members)
    return Census(plane.ctx.q, orbit_counts, point_counts)


def tally_types(types) -> dict[int, int]:
    """Number of objects of each type in a type table."""
    counts = np.bincount(np.asarray(types), minlength=TYPE_III + 1)
    return {t: int(counts[t]) for t in (TYPE_I, TYPE_II, TYPE_III)}


def expected_type_counts(q: int) -> dict[int, int]:
    s = q * q + q + 1
    type2 = (q ** 3 - q) * s
    return {TYPE_I: s, TYPE_II: type2, TYPE_III: q ** 6 + q ** 3 + 1 - s - type2}
