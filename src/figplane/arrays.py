"""Array-native kernel: field arithmetic on code arrays and bulk per-plane tables.

``FieldArrays`` is the numpy counterpart of the scalar arithmetic of
:class:`figplane.field.FieldContext`: every operation takes and returns
arrays of integer codes (0 is zero, c >= 1 is g**(c-1)) and agrees with
the scalar method element for element.  Triples travel as three
coordinate columns.  Points and lines share the dense index of
:class:`figplane.plane.ProjectivePlane`, which has a closed form, so no
tuple or dict is consulted:

    (1, b, c) -> b q^3 + c        (0, 1, c) -> q^6 + c        (0, 0, 1) -> q^6 + q^3

``PlaneTables`` holds the tables that the bulk scans read, each built
lazily, on first use, in chunks of ``CHUNK`` objects whose coordinates
are derived from the index:

* ``types``  the Type I/II/III rank of every point, which is also the
  type of the line with the same coordinates: the line orbit matrix of a
  triple is the transpose of its point orbit matrix;
* ``mu``     the involution: the index of the conjugate join of a Type III
  point, equally the conjugate meet of a Type III line, and -1 elsewhere;
* ``sec``    the secant line [yz, xz, xy] of a point off the triangle
  sides, -1 on them;
* ``phi``    the index of the collineation image;
* ``tau``, ``tau_line``  the index of the torus image of every point and
  of every line, the generator of the stabilizer, which commutes with phi;
* ``orbit``  the least index in the stabilizer orbit of every point, which
  ``figplane.collineation.partition_orbits`` reads;
* ``incidence``  one row of q^3 + 1 sorted point indices per line, the
  points on that line, built in chunks of ``CHUNK // (q^3 + 1)`` rows;
  since a point lies on line l exactly when l lies on the point read as
  a line, row i is equally the lines through point i.

``PlaneTables.fig_blocks`` assembles the blocks of FIG(q^3) from the
incidence, type and involution tables, ``PlaneTables.project``
classifies the projection images of a batch of vertices, each from its
own coordinates, ``PlaneTables.vertex_kinds`` classifies every point as
a vertex for an orbit subplane by projecting one vertex per stabilizer
orbit and reading the rest through ``orbit``, and
``PlaneTables.norm_det_mismatches`` tests the norm/determinant relation
at every point off the triangle sides.  The scalar
functions (``point_type``, ``conjugate_join``, ``points_on_line``,
``project_from_vertex``, ...) remain the single-object API and the test
oracle for everything here.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .field import FieldContext
from .plane import GeometryError, format_line

# Objects per chunk of a table build, and (vertex, subplane point) pairs
# per chunk of a projection; bounds the size of every temporary array.
CHUNK = 1 << 14

# Projection kinds besides a norm class j >= 0 (a scattered image).
CLUB = -1
OTHER = -2
SKIPPED = -3    # not a vertex: on the axis or in the projected subplane

# Image keys of the two axis points where a/b is undefined.
_MARK_B0 = -1   # b = 0: the point (1, 0, 0)
_MARK_A0 = -2   # a = 0: the point (0, 1, 0)

_INT32_LIMIT = 2 ** 31


def chunks(rows: np.ndarray, width: int = 1):
    """Consecutive slices of the index array ``rows``, ``CHUNK // width`` long."""
    step = max(1, CHUNK // width)
    return (rows[lo:lo + step] for lo in range(0, len(rows), step))


class KernelError(RuntimeError):
    """A bulk-table invariant failed: a non-canonical triple was indexed,
    an empty point set was projected, vertex kinds were asked for a set
    that is no union of stabilizer orbits, or the plane is too large for
    32-bit index tables."""


class FieldArrays:
    """Vectorized code arithmetic of one field context."""

    def __init__(self, ctx: FieldContext):
        self.p = ctx.p
        self.n = ctx.n
        self.q3 = ctx.q3
        self._succ = np.asarray(ctx.successor, dtype=np.int32)
        self._frob = (None, np.asarray(ctx._frob1, dtype=np.int32),
                      np.asarray(ctx._frob2, dtype=np.int32))

    def mul(self, a, b):
        return np.where((a == 0) | (b == 0), 0, (a + b - 2) % self.n + 1)

    def add(self, a, b):
        s = self._succ[(b - a) % self.n + 1]
        out = np.where(s == 0, 0, (a + s - 2) % self.n + 1)
        return np.where(a == 0, b, np.where(b == 0, a, out))

    def neg(self, a):
        if self.p == 2:
            return a
        return np.where(a == 0, 0, (a - 1 + self.n // 2) % self.n + 1)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def inv(self, a):
        """Inverse codes; zero maps to zero, so callers mask it out."""
        return np.where(a == 0, 0, (self.n - (a - 1)) % self.n + 1)

    def frob(self, a, i: int = 1):
        """a ** (q ** i) for i in {0, 1, 2}."""
        i %= 3
        return a if i == 0 else self._frob[i][a]

    def norm(self, a):
        """a ** (1 + q + q^2), the relative norm onto GF(q)."""
        return self.mul(self.mul(a, self.frob(a, 1)), self.frob(a, 2))

    def cross(self, u, v):
        mul, sub = self.mul, self.sub
        return (sub(mul(u[1], v[2]), mul(u[2], v[1])),
                sub(mul(u[2], v[0]), mul(u[0], v[2])),
                sub(mul(u[0], v[1]), mul(u[1], v[0])))

    def canonical(self, x, y, z):
        """Scale each triple so its leftmost nonzero coordinate is one;
        zero triples stay zero."""
        s = self.inv(np.where(x != 0, x, np.where(y != 0, y, z)))
        return self.mul(x, s), self.mul(y, s), self.mul(z, s)

    def index(self, x, y, z):
        """Dense plane indices (int64) of canonical triples."""
        q3 = self.q3
        lead_x = x == 1
        lead_y = (x == 0) & (y == 1)
        if not np.all(lead_x | lead_y | ((x == 0) & (y == 0) & (z == 1))):
            raise KernelError("index of a triple that is not in canonical form")
        return np.where(lead_x, y.astype(np.int64) * q3 + z,
                        np.where(lead_y, q3 * q3 + z, q3 * q3 + q3))

    def coords(self, i):
        """Coordinate columns of the canonical triples with the index array i."""
        q3 = self.q3
        i = np.asarray(i, dtype=np.int64)
        head = i < q3 * q3
        tail = i - q3 * q3
        x = head.astype(np.int32)
        y = np.where(head, i // q3, tail < q3).astype(np.int32)
        z = np.where(head, i % q3, np.where(tail < q3, tail, 1)).astype(np.int32)
        return x, y, z


class PlaneTables:
    """Lazily built int tables over the dense point (equally line) indices
    of PG(2, q^3)."""

    def __init__(self, ctx: FieldContext):
        size = ctx.q3 * ctx.q3 + ctx.q3 + 1
        if size >= _INT32_LIMIT:
            raise KernelError(f"plane of {size} points is too large for int32 index tables")
        self.ctx = ctx
        self.size = size
        self.field = FieldArrays(ctx)

    def _build(self, fn, dtype, width: int | None = None) -> np.ndarray:
        """One entry per object, or one row of ``width`` entries per object
        in chunks of ``CHUNK // width`` objects."""
        out = np.empty((self.size,) if width is None else (self.size, width), dtype=dtype)
        for i in chunks(np.arange(self.size), width or 1):
            out[i] = fn(*self.field.coords(i))
        out.setflags(write=False)
        return out

    def _conjugate_rows(self, x, y, z):
        """Rows two and three of the point orbit matrix: the collineation
        images of (x, y, z), before canonical scaling."""
        frob = self.field.frob
        return ((frob(z, 1), frob(x, 1), frob(y, 1)),
                (frob(y, 2), frob(z, 2), frob(x, 2)))

    def _orbit_det(self, x, y, z):
        """det(M) and r0 x r1 for the point orbit matrix M of each (x, y, z),
        whose rows are r0 = (x, y, z) and its two conjugate rows, unscaled."""
        F = self.field
        r0 = (x, y, z)
        r1, r2 = self._conjugate_rows(x, y, z)
        c01 = F.cross(r0, r1)
        det = F.add(F.add(F.mul(r2[0], c01[0]), F.mul(r2[1], c01[1])),
                    F.mul(r2[2], c01[2]))
        return det, c01

    def _type_chunk(self, x, y, z):
        det, c01 = self._orbit_det(x, y, z)
        # r2 is the collineation image of r1 as r1 is of r0, and the
        # collineation is semilinear: r1 = t r0 gives r2 = t^q r1.  So the
        # rank is 1 exactly when r0 x r1 = 0, and 3 exactly when det != 0
        rank1 = (c01[0] == 0) & (c01[1] == 0) & (c01[2] == 0)
        return np.where(det != 0, 3, np.where(rank1, 1, 2))

    def norm_det_mismatches(self) -> np.ndarray:
        """Indices of the points off the triangle sides at which the norm and
        determinant relation of ``norm_det_identity`` fails, in index order.

        Every such point is (1, y, z) with yz != 0.  det(M_l) of the secant
        l = [yz, zx, xy] is the point orbit determinant of the unscaled
        triple l, since the line orbit matrix is the transposed point orbit
        matrix.
        """
        F, q3 = self.field, self.ctx.q3
        bad = []
        for i in chunks(np.arange(q3, q3 * q3)):    # y != 0: index y q^3 + z
            x, y, z = F.coords(i)
            keep = np.flatnonzero(z != 0)
            x, y, z = x[keep], y[keep], z[keep]
            det_p, _ = self._orbit_det(x, y, z)
            det_l, _ = self._orbit_det(F.mul(y, z), F.mul(z, x), F.mul(x, y))
            ok = np.ones(len(x), dtype=bool)
            for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):   # X, Y, Z
                w = F.sub(F.mul(a, F.frob(a)), F.mul(b, F.frob(c)))
                ok &= F.sub(F.norm(w), F.mul(F.norm(a), det_p)) == F.neg(det_l)
            bad.append(i[keep[~ok]])
        return np.concatenate(bad)

    @cached_property
    def types(self) -> np.ndarray:
        """Type (1, 2, 3) of every point, and of every line, by index."""
        return self._build(self._type_chunk, np.int8)

    def _mu_chunk(self, x, y, z):
        F = self.field
        r1, r2 = self._conjugate_rows(x, y, z)
        c = F.cross(r1, r2)
        det = F.add(F.add(F.mul(x, c[0]), F.mul(y, c[1])), F.mul(z, c[2]))
        sel = det != 0          # Type III
        out = np.full(len(x), -1, dtype=np.int64)
        out[sel] = F.index(*F.canonical(c[0][sel], c[1][sel], c[2][sel]))
        return out

    @cached_property
    def mu(self) -> np.ndarray:
        """Involution image index of every Type III object, -1 elsewhere."""
        return self._build(self._mu_chunk, np.int32)

    def _sec_chunk(self, x, y, z):
        F = self.field
        out = np.full(len(x), -1, dtype=np.int64)
        sel = (x != 0) & (y != 0) & (z != 0)
        x, y, z = x[sel], y[sel], z[sel]
        out[sel] = F.index(*F.canonical(F.mul(y, z), F.mul(x, z), F.mul(x, y)))
        return out

    @cached_property
    def sec(self) -> np.ndarray:
        """Secant line index of every point off the triangle sides, -1 on them."""
        return self._build(self._sec_chunk, np.int32)

    @cached_property
    def phi(self) -> np.ndarray:
        """Index of the collineation image of every point (and line)."""
        F = self.field
        return self._build(lambda x, y, z: F.index(*F.canonical(
            *self._conjugate_rows(x, y, z)[0])), np.int32)

    def _torus_table(self, g) -> np.ndarray:
        """Index of (g x, g^q y, g^q^2 z) for every triple (x, y, z)."""
        F = self.field
        return self._build(lambda x, y, z: F.index(*F.canonical(
            F.mul(x, g), F.mul(y, F.frob(g, 1)), F.mul(z, F.frob(g, 2)))), np.int32)

    @cached_property
    def tau(self) -> np.ndarray:
        """Index of the torus image (g x, g^q y, g^q^2 z) of every point, g
        primitive (code 2); tau generates the stabilizer and commutes with phi."""
        return self._torus_table(np.int32(2))

    @cached_property
    def tau_line(self) -> np.ndarray:
        """Index of the tau image [a/g, b/g^q, c/g^q^2] of every line [a:b:c]:
        tau maps the points of line L onto the points of tau_line[L]."""
        return self._torus_table(self.field.inv(np.int32(2)))

    @cached_property
    def orbit(self) -> np.ndarray:
        """Least index in the stabilizer orbit of every point: r rounds of
        pointer jumping along ``tau`` take the least of 2^r steps."""
        step = self.tau
        least = np.arange(self.size, dtype=np.int32)
        for _ in range((self.ctx.sub_order - 1).bit_length()):
            least = np.minimum(least, least[step])
            step = step[step]
        least.setflags(write=False)
        return least

    def _incidence_chunk(self, a, b, c):
        """Sorted point indices of each line [a:b:c], one row per line.

        With c != 0 the points are (1, t, A + B t) for every t, then
        (0, 1, B), where A = -a/c and B = -b/c; with c = 0 and b != 0 they
        are (1, -a/b, t), then (0, 0, 1); on [1:0:0] they are (0, 1, t),
        then (0, 0, 1).  Indices grow with t, and the last point, which
        has x = 0, comes after every point with x = 1.
        """
        F, q3 = self.field, self.ctx.q3
        t = np.arange(q3, dtype=np.int32)
        rows = np.empty((len(a), q3 + 1), dtype=np.int32)
        cz = c != 0
        inv_c = F.inv(c[cz])
        A, B = F.neg(F.mul(a[cz], inv_c)), F.neg(F.mul(b[cz], inv_c))
        rows[cz, :q3] = t * q3 + F.add(A[:, None], F.mul(B[:, None], t))
        rows[cz, q3] = q3 * q3 + B
        b0 = b[~cz]
        lead = np.where(b0 != 0, F.neg(F.mul(a[~cz], F.inv(b0))) * q3, q3 * q3)
        rows[~cz, :q3] = lead[:, None] + t
        rows[~cz, q3] = q3 * q3 + q3
        return rows

    @cached_property
    def incidence(self) -> np.ndarray:
        """Points on every line, equally lines through every point: an
        (n, q^3 + 1) table of sorted indices."""
        return self._build(self._incidence_chunk, np.int32, self.ctx.q3 + 1)

    def fig_blocks(self) -> np.ndarray:
        """Blocks of FIG(q^3), one sorted row per line of PG(2, q^3).

        A Type I or II line keeps its incidence row.  A Type III line L is
        replaced by the block of its involution image A = mu[L]: the Type II
        points of L together with mu[M] for the Type III lines M through A,
        assembled in chunks of ``CHUNK // (q^3 + 1)`` lines.  A block of the
        wrong size raises ``GeometryError``.
        """
        inc, types, mu = self.incidence, self.types, self.mu
        k = inc.shape[1]
        out = inc.copy()
        for L in chunks(np.flatnonzero(types == 3), k):     # Type III lines
            on = inc[L]
            through = inc[mu[L]]
            # Type II points of L, then mu of the Type III lines through A;
            # -1 marks the entries that are neither
            members = np.concatenate((np.where(types[on] == 2, on, -1),
                                      np.where(types[through] == 3, mu[through], -1)),
                                     axis=1)
            keep = members >= 0
            sizes = np.count_nonzero(keep, axis=1)
            if np.any(sizes != k):
                i = int(np.argmax(sizes != k))
                line = tuple(int(v[0]) for v in self.field.coords(L[i:i + 1]))
                raise GeometryError(f"block replacing line {format_line(line)} has "
                                    f"{sizes[i]} points, not {k}")
            out[L] = np.sort(members[keep].reshape(-1, k), axis=1)
        out.setflags(write=False)
        return out

    def _subplane(self, B) -> np.ndarray:
        pts = np.asarray(sorted(B), dtype=np.int32).reshape(-1, 3)
        if len(pts) == 0:
            raise KernelError("projection of an empty point set")
        return pts

    def _project_chunk(self, x, y, z, pts):
        """Projection kind of each vertex (x, y, z), z != 0, for the points
        pts: V scaled to (w1, w2, 1) projects P onto the axis point (a : b : 0)
        with a = p1 - w1 p3 and b = p2 - w2 p3, one row per vertex and one
        column per point."""
        F, ctx = self.field, self.ctx
        inv_z = F.inv(z)
        p1, p2, p3 = (pts[None, :, k] for k in range(3))
        a = F.add(p1, F.mul(F.neg(F.mul(x, inv_z))[:, None], p3))
        b = F.add(p2, F.mul(F.neg(F.mul(y, inv_z))[:, None], p3))
        if np.any((a == 0) & (b == 0)):
            raise GeometryError("a vertex belongs to the projected subplane")
        # image point (a : b : 0) keyed by the exponent of a/b, or a marker
        key = np.where(b == 0, _MARK_B0, np.where(a == 0, _MARK_A0, (a - b) % F.n))
        key.sort(axis=1)
        distinct = 1 + np.count_nonzero(key[:, 1:] != key[:, :-1], axis=1)
        cls = key % (ctx.q - 1)
        sls = ((key[:, 0] >= 0) & (distinct == ctx.sub_order)
               & (cls.min(axis=1) == cls.max(axis=1)))
        return np.where(sls, cls[:, 0],
                        np.where(distinct == ctx.q ** 2 + 1, CLUB, OTHER))

    def _project(self, x, y, z, pts) -> np.ndarray:
        out = np.empty(len(x), dtype=np.int32)
        for i in chunks(np.arange(len(x)), len(pts)):
            out[i] = self._project_chunk(x[i], y[i], z[i], pts)
        return out

    def project(self, vertices, B) -> np.ndarray:
        """Projection kind of each vertex V (off the axis, outside B) for the
        point set B onto the axis: the norm class j of a scattered image, or
        CLUB or OTHER, exactly as ``project_from_vertex`` classifies it.
        Each vertex is projected on its own, in blocks of
        ``CHUNK // |B|`` vertices."""
        pts = self._subplane(B)
        V = np.asarray(vertices, dtype=np.int32).reshape(-1, 3)
        if np.any(V[:, 2] == 0):
            raise GeometryError("a vertex lies on the axis")
        return self._project(*V.T, pts)

    def vertex_kinds(self, B) -> np.ndarray:
        """Projection kind of every point as a vertex for B, by index;
        SKIPPED for points on the axis and points of B.

        B must be a union of stabilizer orbits, as every orbit subplane and
        its conjugates are: ``KernelError`` unless tau maps B onto itself.
        Then the kind is constant on each orbit.  tau fixes B and the axis,
        and on the axis it multiplies a/b of (a : b : 0) by g^(1-q), whose
        norm is one, fixing (1 : 0 : 0) and (0 : 1 : 0); so B projects from
        V and from tau V onto images of one norm class and one size.  One
        vertex per orbit, the least index, is projected, and every point
        reads the kind of its orbit's least member.
        """
        pts = self._subplane(B)
        idx = self.field.index(*pts.T)
        inside = np.zeros(self.size, dtype=bool)
        inside[idx] = True
        if not inside[self.tau[idx]].all():
            raise KernelError("vertex kinds of a point set that the torus shift tau moves")
        orbit = self.orbit
        reps = np.flatnonzero(orbit == np.arange(self.size))
        x, y, z = self.field.coords(reps)
        keep = (z != 0) & ~inside[reps]
        at = np.full(self.size, SKIPPED, dtype=np.int32)
        at[reps[keep]] = self._project(x[keep], y[keep], z[keep], pts)
        return at[orbit]
