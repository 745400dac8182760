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
its point orbits partition PG(2,q^3) into seven kinds of classes: the
three vertices, the scattered linear sets on the triangle sides
(``sls_II``, ``sls_III``) and four kinds of subplanes of order q.
``partition_orbits`` reads the representatives from ``PlaneTables.orbit``
and makes two arrays, the representatives and their categories; it checks
every member row, made from the stabilizer's closed form
(``figplane.arrays.orbit_rows``, from which :mod:`figplane.linear_sets`
makes the linear sets and subplanes too), against the table, and keeps
none: ``OrbitClasses.members`` makes the rows of any classes again when
they are read.  ``census_of`` counts the classes with one bincount.
``sls_id_of_point`` names the side and norm class of a linear set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .field import FieldContext, FieldError
from .plane import (ANCHOR, ANCHOR_1, ANCHOR_2, GeometryError, ProjectivePlane,
                    Triple, canonical)

if TYPE_CHECKING:
    import numpy as np

    from .arrays import PlaneTables

TYPE_I, TYPE_II, TYPE_III = 1, 2, 3

TYPE_NAMES = {TYPE_I: "I", TYPE_II: "II", TYPE_III: "III"}

# The seven orbit categories, in fixed report order, each with its point
# type and, for the subplane categories, the type of its secant lines.
CATEGORY_TYPES = {
    "vertex": (TYPE_III, None),
    "sls_II": (TYPE_II, None),
    "sls_III": (TYPE_III, None),
    "plane_I_I": (TYPE_I, TYPE_I),
    "plane_II_III": (TYPE_II, TYPE_III),
    "plane_III_II": (TYPE_III, TYPE_II),
    "plane_III_III": (TYPE_III, TYPE_III),
}
CATEGORIES = tuple(CATEGORY_TYPES)
PLANE_CATEGORY = {types: cat for cat, types in CATEGORY_TYPES.items() if types[1]}
VERTEX, SLS_II, SLS_III = (CATEGORIES.index(c) for c in ("vertex", "sls_II", "sls_III"))


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


@dataclass(eq=False)
class OrbitClasses:
    """The orbit classes in representative order, as two arrays: ``reps``,
    their representatives' indices, and ``categories``, their int8
    positions in ``CATEGORIES``; ``len`` is the number of classes.  A class
    is named by its position.  No member is held: ``members`` makes the
    sorted member rows of any classes from the stabilizer's closed form
    (``figplane.arrays.orbit_rows``) when they are asked for.  ``split_by``
    flags the classes that a point permutation splits."""
    reps: np.ndarray
    categories: np.ndarray
    tables: PlaneTables = field(repr=False)

    def __len__(self) -> int:
        return len(self.reps)

    def of(self, category: str):
        """Positions of the classes of the category, in order."""
        import numpy as np
        return np.flatnonzero(self.categories == CATEGORIES.index(category))

    def members(self, j) -> np.ndarray:
        """One int32 row of q^2+q+1 sorted point indices per class position
        in j, its representative first; a vertex class, of one point, has
        no such row and raises ``ValueError``."""
        import numpy as np
        from .arrays import orbit_rows
        j = np.asarray(j, dtype=np.intp)
        if (self.categories[j] == VERTEX).any():
            raise ValueError("a vertex class has one member and no member row")
        return orbit_rows(self.tables.ctx, self.reps[j])

    def split_by(self, g) -> np.ndarray:
        """One bool per class: whether the point permutation g, an index
        table, sends its members into more than one class.  One scan of the
        points, a chunk at a time, compares the orbit label of g[i] with
        that of g[r], r the label of i."""
        import numpy as np
        from .arrays import chunks
        orbit = self.tables.orbit
        split = np.zeros(len(self), dtype=bool)
        for s in chunks(len(orbit)):
            rep = orbit[s]
            split[np.searchsorted(self.reps, rep[orbit[g[s]] != orbit[g[rep]]])] = True
        return split


def partition_orbits(plane: ProjectivePlane) -> OrbitClasses:
    """Partition all points into stabilizer orbits, classified and counted.

    A class is the set of points sharing one entry of the orbit table, their
    least index, whose point is the representative; classes come in
    representative order, so output is deterministic.  The classes are
    categorized in array passes over the representatives: ``sec`` is -1
    exactly on the triangle sides, and off them it gives the secant line,
    whose type completes a plane category.  The vertices are the singleton
    classes, so the sizes are right exactly when the other classes, of
    q^2+q+1 points, cover the rest; sizes are counted only to name a class
    that breaks this.  The stabilizer takes (1, y, z) to (1, w y, w^(q+1) z)
    and (0, 1, z) to (0, 1, w^q z) for the w of norm one, whose logs are
    k(q - 1), k < q^2+q+1; so a class whose least member leads with the
    code u <= q - 1 (y, or z where y = 0; q and q + 1 are prime to
    q^2+q+1) leads with u + k(q - 1).  Its member row, made sorted from
    that closed form (``figplane.arrays.orbit_rows``), is checked against the
    table once and not kept.  A representative leading with a larger code,
    so not the first entry of its row, or a row entry labelled otherwise or
    of another point type, raises ``OrbitInconsistency``.
    """
    import numpy as np
    from .arrays import chunks, fixed_points, orbit_rows
    ctx, tables = plane.ctx, plane.tables
    types, orbit = tables.types, tables.orbit
    s = ctx.sub_order
    reps = fixed_points(orbit)
    vertices = np.array([plane.index(V) for V in (ANCHOR, ANCHOR_1, ANCHOR_2)])
    at_vertex = (reps[:, None] == vertices).any(axis=1)
    full = reps[~at_vertex]
    if len(reps) + (s - 1) * len(full) != plane.size:
        sizes, want = np.bincount(orbit)[reps], np.where(at_vertex, 1, s)
        j = int(np.argmax(sizes != want))
        P = plane.point(reps[j])
        if sizes[j] == want[j]:     # every class has its size: some label is no representative
            raise OrbitInconsistency(f"the orbit classes hold {int(sizes.sum())} "
                                     f"of the {plane.size} points")
        if sizes[j] == 1:
            raise OrbitInconsistency(f"unexpected singleton orbit at {P}")
        raise OrbitInconsistency(f"orbit of {P} has size {int(sizes[j])}, not {int(want[j])}")
    for j in chunks(len(full), s):
        R = full[j, None]
        rows = orbit_rows(ctx, full[j])
        bad = (rows[:, :1] != R) | (np.take(orbit, rows, mode="clip") != R)
        bad = bad.any(axis=1)
        if bad.any():
            raise OrbitInconsistency("the orbit table disagrees with the stabilizer orbit "
                                     f"of {plane.point(R[np.argmax(bad), 0])}")
        mixed = types[rows] != types[R]
        if mixed.any():
            r, c = np.argwhere(mixed)[0]
            raise OrbitInconsistency(f"orbit of {plane.point(R[r, 0])} mixes point types "
                                     f"{sorted(types[rows[r, [0, c]]].tolist())}")
    lines = tables.sec(reps)
    on_side = lines < 0
    ptypes = types[reps]
    ltypes = np.where(on_side, 0, types[lines])           # secant type, planes only
    plane_code = np.full(16, -1, dtype=np.int8)           # 4 ptype + ltype -> category
    for (ptype, ltype), cat in PLANE_CATEGORY.items():
        plane_code[4 * ptype + ltype] = CATEGORIES.index(cat)
    categories = np.where(at_vertex, VERTEX,
                          np.where(on_side, np.where(ptypes == TYPE_II, SLS_II, SLS_III),
                                   plane_code[4 * ptypes + ltypes])).astype(np.int8)
    if (categories < 0).any():
        j = int(np.argmax(categories < 0))
        raise OrbitInconsistency(f"plane orbit of {plane.point(reps[j])} has point type "
                                 f"{int(ptypes[j])}, line type {int(ltypes[j])}")
    return OrbitClasses(reps, categories, tables)


def census_of(plane: ProjectivePlane, classes: OrbitClasses | None = None) -> Census:
    """Count the classes of each category, and the points they hold."""
    import numpy as np
    if classes is None:
        classes = partition_orbits(plane)
    counts = dict(zip(CATEGORIES, np.bincount(classes.categories,
                                              minlength=len(CATEGORIES)).tolist()))
    return Census(plane.ctx.q, counts, {cat: k * (1 if cat == "vertex" else plane.ctx.sub_order)
                                        for cat, k in counts.items()})


def tally_types(types) -> dict[int, int]:
    """Number of objects of each type in a type table, counted a chunk at a
    time, so no temporary holds an entry per object."""
    import numpy as np
    from .arrays import chunks
    types = np.asarray(types)
    tally = dict.fromkeys((TYPE_I, TYPE_II, TYPE_III), 0)
    for s in chunks(len(types)):
        for t in tally:
            tally[t] += int(np.count_nonzero(types[s] == t))
    return tally


def expected_type_counts(q: int) -> dict[int, int]:
    s = q * q + q + 1
    type2 = (q ** 3 - q) * s
    return {TYPE_I: s, TYPE_II: type2, TYPE_III: q ** 6 + q ** 3 + 1 - s - type2}
