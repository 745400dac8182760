"""Array-native kernel: field arithmetic on code arrays and bulk per-plane tables.

``FieldArrays`` is the numpy counterpart of the scalar arithmetic of
:class:`figplane.field.FieldContext`: every operation takes and returns
arrays of integer codes (0 is zero, c >= 1 is g**(c-1)) and agrees with
the scalar method element for element.  Addition and multiplication are
one gather each from a q^3 x q^3 uint16 table built once per context, in
blocks of ``CHUNK // q^3`` rows, negation and inversion from a q^3-entry
vector.  Triples travel as three
coordinate columns.  Points and lines share the dense index of
:class:`figplane.plane.ProjectivePlane`, which has a closed form, so no
tuple or dict is consulted:

    (1, b, c) -> b q^3 + c        (0, 1, c) -> q^6 + c        (0, 0, 1) -> q^6 + q^3

``PlaneTables`` holds the one-entry-per-object tables that the bulk scans
read across all n objects, each built lazily, on first use; every build
and every scan over all n objects holds its results and the temporaries
of one chunk (``chunks``).  The first four come from closed forms at the
point (1, b, c), in one pass over the grid in blocks of ``CHUNK // q^3`` values
of b, each against every c at once.  N and Tr are the norm and the trace
onto GF(q), and g is the primitive element (code 2).  The point orbit
matrix of (1, b, c) has the rows r0 = (1, b, c), r1 = (c^q, 1, b^q) and
r2 = (b^q^2, c^q^2, 1), each the collineation image of the row before, and

    det = r0 . (r1 x r2) = 1 + N(b) + N(c) - Tr(b c^q).

* ``types``  the Type I/II/III rank of every point, which is also the
  type of the line with the same coordinates: the line orbit matrix of a
  triple is the transpose of its point orbit matrix.  A point is Type III
  exactly when det != 0, and Type I exactly when phi fixes it;
* ``mu``     the involution: the index of the conjugate join of a Type III
  point, equally the conjugate meet of a Type III line, and -1 elsewhere:
  r1 x r2 = (1 - (b c^q)^q, b^(q+q^2) - c^q, c^(q+q^2) - b^q^2);
* ``phi``    the index of the collineation image, r1 scaled: (1, c^-q,
  b^q c^-q) for c != 0 and (0, 1, b^q) for c = 0;
* ``orbit``  the least index in the stabilizer orbit of every point, which
  ``figplane.collineation.partition_orbits`` reads.  The stabilizer maps
  (1, b, c) to (1, w b, w^(q+1) c) for the q^2 + q + 1 elements w of norm
  one, whose logs are the multiples of q - 1.  So for b != 0 the least
  image has the least code whose log is that of b mod q - 1, which
  picks one w; (1, 0, c) and (0, 1, c) take c to the least code of its
  class the same way;
* ``tau``, ``tau_line``  the index of the torus image of every point and
  of every line, the generator of the stabilizer, which commutes with phi:
  (g x, g^q y, g^q^2 z); ``tau_line`` is the inverse permutation of
  ``tau``, one scatter;
* ``dickson``, ``dickson_line``  the index of the image of every point and
  of every line under one Dickson matrix d, which commutes with phi but not
  with tau.  ``figueroa.check_axioms`` reads these four, and no other
  check reads them whole.  tau, the diagonal matrix (g, g^q, g^q^2), and
  both Dickson tables are the images of a 3 x 3 matrix, built in chunks
  of ``CHUNK`` objects at coordinates derived from the index.

The q^3 + 1 points with x = 0 take the same forms specialised: (0, 1, c)
has det = 1 + N(c), is never Type I, and has phi = (1, 0, c^-q) and
conjugate join (-c^q^2, 1, c^(q+q^2)); every map fixes (0, 0, 1) but phi,
which takes it to (1, 0, 0).

What only subsets read and has a closed form is no table: it is made
from the index array it is asked for.

* ``sec``    the secant line [yz, xz, xy] of a point off the triangle
  sides, (1, 1/b, 1/c) for the index b q^3 + c, and -1 for every other
  entry, the sides and -1 among them, as a lookup at -1 read it;
* ``orbit_rows``  the q^2 + q + 1 members of the stabilizer orbit of
  each representative but the triangle vertices, sorted.  With w_k the
  norm-one element of log k(q - 1), k < q^2 + q + 1, the orbit of
  (1, b, c), b != 0, is (1, b w_k, w_k^(q+1) c) and that of (1, 0, c) or
  (0, 1, c) is c w_k in place of c; for a representative, whose leading
  code b (or c) is at most q - 1, the code b w_k is b + k(q - 1).

No table has a row per object.  ``PlaneTables.incidence_rows`` makes the
rows of q^3 + 1 sorted point indices of any lines from their closed form
when they are asked for; since a point lies on line l exactly when l lies
on the point read as a line, row i is equally the lines through point i.
``PlaneTables.fig_rows`` assembles the blocks of FIG(q^3) that replace any
lines from those rows and two n-entry lookup tables derived from the type
and involution tables; it is the only code that assembles a block, and no
table holds the blocks: every reader of FIG makes its rows when it reads
them.
``PlaneTables.project`` classifies the projection images of a batch of
vertices, each from its own coordinates, ``PlaneTables.vertex_kinds``
classifies the points as vertices for an orbit subplane by projecting
one vertex per stabilizer orbit, which stands for its orbit, and
``PlaneTables.norm_det_mismatches`` tests the norm/determinant relation
at every point off the triangle sides.  The scalar functions
(``point_type``, ``conjugate_join``, ``points_on_line``,
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

# Image keys of the two axis points where a/b is undefined.
_MARK_B0 = -1   # b = 0: the point (1, 0, 0)
_MARK_A0 = -2   # a = 0: the point (0, 1, 0)

_INT32_LIMIT = 2 ** 31


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def chunks(stop: int, width: int = 1, start: int = 0):
    """Consecutive slices of [start, stop), ``CHUNK // width`` long."""
    step = max(1, CHUNK // width)
    return (slice(lo, min(lo + step, stop)) for lo in range(start, stop, step))


def span(s: slice) -> np.ndarray:
    """The int32 indices of the chunk s, which reads a table as a view."""
    return np.arange(s.start, s.stop, dtype=np.int32)


def fixed_points(table: np.ndarray) -> np.ndarray:
    """The indices i with table[i] == i, in increasing order."""
    return np.concatenate([np.flatnonzero(table[s] == span(s)) + s.start
                           for s in chunks(len(table))])


class KernelError(RuntimeError):
    """A bulk-table invariant failed: a non-canonical triple was indexed,
    an empty point set was projected, vertex kinds were asked for a set
    that is no union of stabilizer orbits, or the plane or the field is
    too large for 32-bit index tables."""


class FieldArrays:
    """Vectorized code arithmetic of one field context, by table lookup.

    ``add`` and ``mul`` read flat, read-only q^3 x q^3 uint16 tables at
    a q^3 + b, built once from the log/successor formulas of the scalar
    arithmetic; ``neg`` and ``inv`` read q^3-entry vectors, and ``sub``
    adds the negative.  Codes are below q^3 and a q^3 + b below 2^31, so
    ``KernelError`` refuses a field of q^3 * q^3 >= 2^31 elements, as
    ``PlaneTables`` refuses its plane.
    """

    def __init__(self, ctx: FieldContext):
        q3, n = ctx.q3, ctx.n
        if q3 * q3 >= _INT32_LIMIT:
            raise KernelError(f"field of {q3} elements is too large for its lookup tables")
        self.p = ctx.p
        self.n = n
        self.q3 = q3
        self._frob = (None, np.asarray(ctx._frob1, dtype=np.int32),
                      np.asarray(ctx._frob2, dtype=np.int32))
        # 0 is zero and c >= 1 is g**(c-1): logs add, and x + y is
        # x (1 + y/x), where successor[c] is the code of g**(c-1) + 1;
        # rows a in blocks of CHUNK entries, written straight into the tables
        successor = np.asarray(ctx.successor, dtype=np.int32)
        add, mul = (np.empty((q3, q3), dtype=np.uint16) for _ in range(2))
        c = b = np.arange(q3, dtype=np.int32)
        for rows in chunks(q3, q3):
            a = c[rows, None]
            s = successor[(b - a) % n + 1]
            add[rows] = np.where(a == 0, b, np.where(b == 0, a, np.where(s == 0, 0, (a + s - 2) % n + 1)))
            mul[rows] = np.where((a == 0) | (b == 0), 0, (a + b - 2) % n + 1)
        self._add, self._mul = _frozen(add.ravel()), _frozen(mul.ravel())
        neg = c if self.p == 2 else np.where(c == 0, 0, (c - 1 + n // 2) % n + 1)
        self._neg = _frozen(neg.astype(np.int32))
        self._inv = _frozen(np.where(c == 0, 0, (n - (c - 1)) % n + 1).astype(np.int32))

    def mul(self, a, b):
        return np.take(self._mul, a * self.q3 + b).astype(np.int32)

    def add(self, a, b):
        return np.take(self._add, a * self.q3 + b).astype(np.int32)

    def mul_rows(self, b):
        """b t for every code t in increasing order, one row per entry of b:
        rows of the multiplication table, left as uint16 codes."""
        return self._mul.reshape(self.q3, self.q3)[b]

    def neg(self, a):
        return np.take(self._neg, a)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def inv(self, a):
        """Inverse codes; zero maps to zero, so callers mask it out."""
        return np.take(self._inv, a)

    def frob(self, a, i: int = 1):
        """a ** (q ** i) for i in {0, 1, 2}."""
        i %= 3
        return a if i == 0 else np.take(self._frob[i], a)

    def norm(self, a):
        """a ** (1 + q + q^2), the relative norm onto GF(q)."""
        return self.mul(self.mul(a, self.frob(a, 1)), self.frob(a, 2))

    def dot(self, u, v):
        return self.add(self.add(self.mul(u[0], v[0]), self.mul(u[1], v[1])),
                        self.mul(u[2], v[2]))

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

    def _orbit_det(self, x, y, z):
        """det(M) and r0 x r1 for the point orbit matrix M of each (x, y, z),
        whose rows are r0 = (x, y, z) and its two collineation images
        r1 = (z^q, x^q, y^q) and r2 = (y^q^2, z^q^2, x^q^2), unscaled."""
        frob = self.field.frob
        r1, r2 = (frob(z, 1), frob(x, 1), frob(y, 1)), (frob(y, 2), frob(z, 2), frob(x, 2))
        c01 = self.field.cross((x, y, z), r1)
        return self.field.dot(r2, c01), c01

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
        for s in chunks(q3 * q3, start=q3):     # y != 0: index y q^3 + z
            i = span(s)
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
    def _point_tables(self) -> dict[str, np.ndarray]:
        """types, mu, phi and orbit by the closed forms of the module
        docstring: the points (1, b, c) in blocks of ``CHUNK // q^3``
        values of b, each against every c at once, then the q^3 + 1 points
        with x = 0."""
        F, ctx = self.field, self.ctx
        q, q3, n = ctx.q, ctx.q3, ctx.n
        q6 = q3 * q3
        out = {name: np.empty(self.size, dtype=np.int8 if name == "types" else np.int32)
               for name in ("types", "mu", "phi", "orbit")}
        one = np.int32(1)
        c = np.arange(q3, dtype=np.int32)       # every code, c and u alike
        cq, cq2, norm_c = F.frob(c, 1), F.frob(c, 2), F.norm(c)
        inv_cq, neg_cq, cqq2 = F.inv(cq), F.neg(cq), F.mul(cq, cq2)
        trace = F.add(F.add(c, cq), cq2)        # Tr(u)
        one_minus_uq = F.sub(one, cq)           # 1 - u^q
        least_c = np.where(c == 0, 0, (c - 1) % (q - 1) + 1)   # least code, log c mod q - 1
        for block in chunks(q3, q3):
            b = c[block, None]
            bq, bq2 = F.frob(b, 1), F.frob(b, 2)
            u = F.mul(b, cq)
            singular = trace[u] == F.add(F.add(one, F.norm(b)), norm_c)     # det = 0
            phi = np.where(c != 0, inv_cq * q3 + F.mul(bq, inv_cq), q6 + bq)
            # r1 x r2, with x set to 1 where it is not needed so that every
            # triple has a canonical form
            x = np.where(singular, one, one_minus_uq[u])
            y, z = F.add(F.mul(bq, bq2), neg_cq), F.sub(cqq2, bq2)
            rows = slice(block.start * q3, block.stop * q3)
            out["types"][rows] = np.where(singular, np.where(phi == b * q3 + c, 1, 2), 3).ravel()
            out["mu"][rows] = np.where(singular, -1, F.index(*F.canonical(x, y, z))).ravel()
            out["phi"][rows] = phi.ravel()
            r = (b - 1) % (q - 1)                   # log b mod q - 1
            out["orbit"][rows] = np.where(b == 0, least_c, (r + 1) * q3 + np.where(
                c == 0, 0, (c - 1 + (q + 1) * (r - b + 1)) % n + 1)).ravel()
        # the points (0, 1, c), then (0, 0, 1)
        tail = slice(q6, q6 + q3)
        singular = F.add(one, norm_c) == 0
        out["types"][tail] = np.where(singular, 2, 3)
        out["mu"][tail] = np.where(singular, -1,
                                   np.where(c != 0, F.neg(F.inv(cq2)) * q3 + neg_cq, q6))
        out["phi"][tail] = np.where(c != 0, inv_cq, q6 + q3)
        out["orbit"][tail] = q6 + least_c
        for name, value in (("types", 3), ("mu", q6 + q3), ("phi", 0), ("orbit", q6 + q3)):
            out[name][-1] = value
        return {name: _frozen(t) for name, t in out.items()}

    @cached_property
    def types(self) -> np.ndarray:
        """Type (1, 2, 3) of every point, and of every line, by index."""
        return self._point_tables["types"]

    @cached_property
    def mu(self) -> np.ndarray:
        """Involution image index of every Type III object, -1 elsewhere."""
        return self._point_tables["mu"]

    def sec(self, i) -> np.ndarray:
        """The int32 secant line index of each point off the triangle sides,
        by index array i: (1, b, c), index b q^3 + c with bc != 0, has the
        secant [1 : 1/b : 1/c]; every other entry, a point on a side or any
        negative entry, gives -1."""
        q3, inv = self.ctx.q3, self.field._inv
        b = np.floor_divide(i, q3)
        c = i - b * q3
        out = np.take(inv * q3, b, mode="clip")
        out += np.take(inv, c)
        out[(b <= 0) | (b >= q3) | (c == 0)] = -1
        return out

    @cached_property
    def phi(self) -> np.ndarray:
        """Index of the collineation image of every point (and line)."""
        return self._point_tables["phi"]

    @property
    def _torus_rows(self):
        """The torus map by rows: the diagonal matrix (g, g^q, g^q^2), g = code 2."""
        g = [np.int32(self.ctx.power(2, self.ctx.q ** i)) for i in range(3)]
        return [[g[i] if j == i else np.int32(0) for j in range(3)] for i in range(3)]

    @cached_property
    def tau(self) -> np.ndarray:
        """Index of the torus image (g x, g^q y, g^q^2 z) of every point;
        tau generates the stabilizer and commutes with phi."""
        return self._linear_table(self._torus_rows)

    @cached_property
    def tau_line(self) -> np.ndarray:
        """Index of the tau image [a/g, b/g^q, c/g^q^2] of every line [a:b:c]:
        tau maps the points of line L onto the points of tau_line[L].  That
        image is tau^-1 of the same triple, so the table is the inverse
        permutation of ``tau``, one scatter with no field arithmetic."""
        inv = np.empty_like(self.tau)
        inv[self.tau] = np.arange(self.size, dtype=inv.dtype)
        return _frozen(inv)

    @cached_property
    def _dickson_rows(self):
        """Rows (1, a, b), (b^q, 1, a^q), (a^q^2, b^q^2, 1) of the Dickson
        matrix d = D(1, a, b), the map x -> x + a x^q + b x^q^2 on the fixed
        subplane, for the first (b, a) with a >= 2 that makes d nonsingular,
        tried one at a time and taken at the first hit: D(1, w, 0) with 1 +
        N(w) != 0 at q >= 3 (w = 3 at q = 3, else 2), and D(1, 4, 1) at q = 2,
        where N(w) = 1 for every w != 0."""
        F, one = self.field, np.int32(1)
        for b in map(np.int32, range(self.ctx.q3)):
            for a in map(np.int32, range(2, self.ctx.q3)):
                r0, r1, r2 = rows = ((one, a, b), (F.frob(b, 1), one, F.frob(a, 1)),
                                     (F.frob(a, 2), F.frob(b, 2), one))
                if F.dot(r0, F.cross(r1, r2)) != 0:
                    return rows

    def _image(self, m, x, y, z) -> np.ndarray:
        """Index of m (x, y, z) for each triple, m a 3 x 3 code matrix by rows."""
        F = self.field
        return F.index(*F.canonical(*(F.dot(r, (x, y, z)) for r in m)))

    def _linear_table(self, m) -> np.ndarray:
        """Read-only ``_image`` of m at every object, a chunk of ``CHUNK`` at a time."""
        out = np.empty(self.size, dtype=np.int32)
        for s in chunks(self.size):
            out[s] = self._image(m, *self.field.coords(span(s)))
        return _frozen(out)

    @cached_property
    def dickson(self) -> np.ndarray:
        """Index of the image d P of every point P; d commutes with phi, not tau."""
        return self._linear_table(self._dickson_rows)

    @cached_property
    def dickson_line(self) -> np.ndarray:
        """Index of the d image of every line: the cofactor matrix of d, with
        rows r1 x r2, r2 x r0, r0 x r1, maps l to a multiple of l d^-1."""
        F = self.field
        r0, r1, r2 = self._dickson_rows
        return self._linear_table((F.cross(r1, r2), F.cross(r2, r0), F.cross(r0, r1)))

    @cached_property
    def orbit(self) -> np.ndarray:
        """Least index in the stabilizer orbit of every point."""
        return self._point_tables["orbit"]

    def orbit_rows(self, R) -> np.ndarray:
        """The stabilizer orbit of each representative in R, one sorted row
        of q^2 + q + 1 int32 point indices each, made from the closed form
        of the module docstring on every call.  R holds least members of
        orbits, none of them a triangle vertex; a (1, b, c) row walks b
        through its q^2 + q + 1 blocks of q^3 indices, and any other row
        is R + k(q - 1), so the rows come out sorted."""
        ctx = self.ctx
        q, q3, n = ctx.q, ctx.q3, ctx.n
        logs = np.arange(ctx.sub_order, dtype=np.int32) * (q - 1)    # log w_k
        R = np.asarray(R, dtype=np.int32)[:, None]
        y, z = np.divmod(R, q3)
        # w_k^(q+1) z, the code of log z + (q + 1) log w_k mod n, for z != 0:
        # one gather from the codes 1 .. n twice over, not a remainder
        codes = np.arange(1, n + 1, dtype=np.int32)
        rows = np.take(np.concatenate((codes, codes)), z - 1 + (q + 1) * logs % n)
        rows += y * q3
        rows += logs * q3
        other = ((y == 0) | (y >= q3) | (z == 0))[:, 0]     # not (1, y, z) with yz != 0
        if other.any():
            y, R = y[other], R[other]
            rows[other] = np.where((y != 0) & (y < q3), (y + logs) * q3, R + logs)
        return rows

    def incidence_rows(self, L) -> np.ndarray:
        """The points on each line with an index in L, equally the lines
        through each point with an index in L: one row of q^3 + 1 sorted
        indices per entry of L, made from the closed form on every call.

        With c != 0 the points are (1, t, A + B t) for every t, then
        (0, 1, B), where A = -a/c and B = -b/c; with c = 0 and b != 0 they
        are (1, -a/b, t), then (0, 0, 1); on [1:0:0] they are (0, 1, t),
        then (0, 0, 1).  Indices grow with t, and the last point, which
        has x = 0, comes after every point with x = 1.
        """
        F, q3 = self.field, self.ctx.q3
        a, b, c = F.coords(L)
        t = np.arange(q3, dtype=np.int32)
        rows = np.empty((len(a), q3 + 1), dtype=np.int32)
        # every row by the c != 0 form, then the q^3 + 1 lines with c = 0
        inv_c = F.inv(c)
        A, B = F.neg(F.mul(a, inv_c)), F.neg(F.mul(b, inv_c))
        np.add(t * q3, F.add(A[:, None], F.mul_rows(B)), out=rows[:, :q3])
        rows[:, q3] = q3 * q3 + B
        flat = np.flatnonzero(c == 0)
        if flat.size:
            a0, b0 = a[flat], b[flat]
            lead = np.where(b0 != 0, F.neg(F.mul(a0, F.inv(b0))) * q3, q3 * q3)
            rows[flat, :q3] = lead[:, None] + t
            rows[flat, q3] = q3 * q3 + q3
        return rows

    def _fig_parts(self, P, M) -> tuple[np.ndarray, np.ndarray]:
        """E[P] and F[M] for index arrays P and M, the two parts of a block:
        E[P] = P for a Type II point P and F[M] = mu[M] for a Type III line
        M, and the sentinel n, past every index, elsewhere."""
        n, types = np.int32(self.size), self.types
        return (np.where(np.take(types, P) == 2, P, n),
                np.where(np.take(types, M) == 3, np.take(self.mu, M), n))

    @cached_property
    def _fig_lookup(self) -> tuple[np.ndarray, np.ndarray]:
        """E and F of ``_fig_parts`` at every index: two n-entry int32 lookup
        tables, so that a part is one gather."""
        every = np.arange(self.size, dtype=np.int32)
        return tuple(_frozen(t) for t in self._fig_parts(every, every))

    def fig_rows(self, L, kept=(), lines: bool = False):
        """The rows of FIG(q^3) that replace the lines L, one sorted row of
        q^3 + 1 point indices each; the only code that assembles a block.
        With ``lines``, also the incidence rows of L, which it makes on its
        way: the pair (FIG rows, PG rows).

        A Type I or II line keeps its incidence row, and so does a Type III
        line in ``kept``, which a mutated FIG puts back.  Any other Type III
        line L is replaced by the block of its involution image A = mu[L]:
        the Type II points of L (the E part) together with mu[M] for the
        Type III lines M through A (the F part).  Both parts are gathered from the lookup
        tables of ``_fig_lookup`` into one 2k-wide row per block, whose sort
        puts the sentinels last; the block is its first k columns.  A read of
        one row computes its parts directly and leaves the tables unbuilt.
        A block of the wrong size, one whose column k - 1 is a sentinel or
        whose column k is not, raises ``GeometryError``.
        """
        n, k = self.size, self.ctx.q3 + 1
        L = np.asarray(L)
        rows = self.incidence_rows(L)
        new = np.take(self.types, L) == 3                   # Type III lines
        if kept:
            new &= ~np.isin(L, kept)
        through = self.incidence_rows(np.take(self.mu, L[new]))
        if len(L) > 1 or "_fig_lookup" in self.__dict__:
            E, F = self._fig_lookup
            members = np.concatenate((np.take(E, rows[new]), np.take(F, through)), axis=1)
        else:
            members = np.concatenate(self._fig_parts(rows[new], through), axis=1)
        members.sort(axis=1)
        wrong = (members[:, k - 1] == n) | (members[:, k] != n)
        if wrong.any():
            j = int(np.argmax(wrong))
            line = tuple(int(v[0]) for v in self.field.coords(L[new][j:j + 1]))
            raise GeometryError(f"block replacing line {format_line(line)} has "
                                f"{np.count_nonzero(members[j] < n)} points, not {k}")
        out = rows.copy() if lines else rows
        out[new] = members[:, :k]
        return (out, rows) if lines else out

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
        for s in chunks(len(x), len(pts)):
            out[s] = self._project_chunk(x[s], y[s], z[s], pts)
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

    def vertex_kinds(self, B) -> tuple[np.ndarray, np.ndarray]:
        """The orbit representatives that are vertices for B, off the axis
        and outside B, in increasing order, and the projection kind of each,
        which is that of every point of its orbit.

        B must be a union of stabilizer orbits, as every orbit subplane and
        its conjugates are: ``KernelError`` unless tau maps B onto itself.
        Then the kind is constant on each orbit.  tau fixes B and the axis,
        and on the axis it multiplies a/b of (a : b : 0) by g^(1-q), whose
        norm is one, fixing (1 : 0 : 0) and (0 : 1 : 0); so B projects from
        V and from tau V onto images of one norm class and one size.  One
        vertex per orbit, the least index, is projected.  Membership in B is
        read by binary search in its sorted indices, so no n-entry mask is
        made.
        """
        pts = self._subplane(B)
        inside = np.sort(self.field.index(*pts.T))
        if not np.array_equal(np.sort(self._image(self._torus_rows, *pts.T)), inside):
            raise KernelError("vertex kinds of a point set that the torus shift tau moves")
        reps = fixed_points(self.orbit)
        x, y, z = self.field.coords(reps)
        found = np.minimum(np.searchsorted(inside, reps), len(inside) - 1)
        keep = (z != 0) & (inside[found] != reps)
        return reps[keep], self._project(x[keep], y[keep], z[keep], pts)
