"""The one walk over the rows of an incidence structure, and the readers
it serves: the build checks of a FIG (``check_build``) and the axiom check
(``figueroa.check_axioms``) of the structure, of the lines its blocks
replace, PG, and of the structure with one block put back to its line.

``read_rows`` walks the rows in chunks closed under the line cycles of
phi and tau, so the phi and tau images of the rows a chunk makes are rows
of the same chunk, and makes each chunk's rows once for every reader it
serves: one ``IncidencePlane.rows_and_lines`` call gives a FIG's rows and
the lines they replace.  The Dickson images are made once more per chunk,
while an axiom reader compares them.  The Session stage ``row_pass`` is a
``RowPass``, one walk for the readers a selection names.  Only a run that
reads rows imports this module.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .arrays import fixed_points
from .collineation import TYPE_I, TYPE_II, TYPE_III
from .figueroa import AxiomReport, IncidencePlane, mutated_line, pg_incidence
from .plane import ProjectivePlane, format_line, format_point

PAIR_CHUNK = 1 << 15   # entries per chunk of one row array, of which a pass holds four
MAX_WITNESSES = 5      # witnesses an axiom check reports at most


def orbit_labels(generators) -> np.ndarray:
    """The least index of the orbit of every index under the group that the
    permutation tables ``generators`` generate, by min-label propagation: a
    label takes the least label of its point and the images, then its
    label's label, until none moves; a fixed label is constant on every
    orbit."""
    label = np.arange(len(generators[0]), dtype=np.int32)
    while True:
        least = label
        for g in generators:
            least = np.minimum(least, label[g])
        least = least[least]
        if np.array_equal(least, label):
            return label
        label = least


def orbit_minima(generators) -> np.ndarray:
    return fixed_points(orbit_labels(generators))


def chunk_rows(n: int, k: int) -> int:
    """Rows of width k in a chunk of a pass over n blocks: n / 2 entries,
    but at least ``PAIR_CHUNK / 2`` and at most ``PAIR_CHUNK``.  Small
    orders, where a pass takes a handful of chunks, keep the temporaries of
    a chunk small, and large ones the count of chunks."""
    return max(1, min(PAIR_CHUNK, max(PAIR_CHUNK // 2, n // 2)) // k)


def moved_rows(L: np.ndarray, rows: np.ndarray, g: np.ndarray,
               target: np.ndarray) -> np.ndarray:
    """The blocks of the sorted index array L, whose rows are ``rows``, with
    sort(g[rows]) != ``target``, the rows of their images, in order."""
    image = np.take(g, rows)
    image.sort(axis=1)
    return L[:0] if np.array_equal(image, target) else L[(image != target).any(axis=1)]


READERS = ("build", "axioms", "reference", "mutation")


def walk(structure: IncidencePlane, line_maps):
    """The chunks of one pass over the n blocks of ``structure``: sorted
    index arrays L that partition the blocks, each a union of whole orbits
    of the group that the line permutations ``line_maps`` generate, in the
    order of their least member; as many orbits as fit in ``chunk_rows``
    rows, or one when it is longer.  Each map sends the blocks of a chunk
    to blocks of the chunk."""
    n, k = structure.size, structure.plane.ctx.q3 + 1
    label = orbit_labels(line_maps)
    order = np.argsort(label, kind="stable")
    ends = np.append(np.flatnonzero(np.diff(label[order])) + 1, n)
    step, lo = chunk_rows(n, k), 0
    while lo < n:
        hi = max(ends[np.searchsorted(ends, lo, side="right")],
                 ends[np.searchsorted(ends, lo + step, side="right") - 1])
        yield np.sort(order[lo:hi])
        lo = hi


def views(structure: IncidencePlane, L: np.ndarray, readers, swapped: int):
    """The rows of the blocks L that each of ``readers`` checks, from one
    read of ``structure``: its rows (build, axioms), the incidence rows of
    the lines L (reference), and its rows with block ``swapped`` put back
    to its line (mutation); and the incidence rows, or None if unread."""
    own, lined = set(readers) - {"reference"}, set(readers) & {"reference", "mutation"}
    if own and lined:
        rows, lines = structure.rows_and_lines(L)
    elif own:
        rows, lines = structure.rows(L), None
    else:
        rows, lines = None, structure.plane.tables.incidence_rows(L)
    out = {"build": rows, "axioms": rows, "reference": lines}
    if "mutation" in readers:
        swap = L == swapped
        out["mutation"] = np.where(swap[:, None], lines, rows) if swap.any() else rows
    return {r: out[r] for r in readers}, lines


class _Rows:
    """The rows of a chunk L that the readers ``group`` check, and the facts
    they take from them, each made once for the group: the range mask, the
    point counts, added to ``degrees[group]``, the rows of the blocks
    through each representative, and the blocks that a map moves."""

    def __init__(self, plane: ProjectivePlane, L, rows, group, degrees, reps):
        self.plane, self.L, self.rows, self.group, self.degrees, self.reps = (
            plane, L, rows, group, degrees, reps)
        # before any gather, since numpy wraps negative indices
        self.inside = (rows.min(axis=1) >= 0) & (rows.max(axis=1) < plane.size)
        self._moved, self.counted = {}, False

    def count(self) -> None:
        """Add the entries of the rows, all in range, to the group's point
        counts, once."""
        if not self.counted:
            self.counted = True
            if self.group not in self.degrees:
                self.degrees[self.group] = np.zeros(self.plane.size, dtype=np.int32)
            # linear in the chunk, not in n; an int32 one keeps add.at on its fast loop
            np.add.at(self.degrees[self.group], self.rows.ravel(), np.int32(1))

    @cached_property
    def through(self) -> list[np.ndarray]:
        return [self.rows[(self.rows == P).any(axis=1)] for P in self.reps]

    def moved(self, name: str, image: np.ndarray | None = None) -> np.ndarray:
        """The blocks that map ``name`` moves (``moved_rows``), against the
        rows of their images: rows of the chunk for phi and tau, ``image``
        for d."""
        key = name, id(image)
        if key not in self._moved:
            tables, L, rows = self.plane.tables, self.L, self.rows
            g, g_line = {"phi": (tables.phi, tables.phi), "tau": (tables.tau, tables.tau_line),
                         "dickson": (tables.dickson, None)}[name]
            self._moved[key] = moved_rows(L, rows, g, rows[np.searchsorted(L, g_line[L])]
                                          if image is None else image)
        return self._moved[key]


class _BuildFacts:
    """The facts of ``check_build``, read a chunk at a time."""

    def __init__(self, plane: ProjectivePlane):
        self.plane, self.bad, self.agree, self.differ, self.invariant = plane, [], True, True, True

    def read(self, chunk: _Rows, lines: np.ndarray | None) -> None:
        tables, ctx, L, rows, inside = (self.plane.tables, self.plane.ctx, chunk.L, chunk.rows,
                                        chunk.inside)
        n, F, types = self.plane.size, tables.field, tables.types
        new = types[L] == TYPE_III
        blocks = rows[new]
        kinds = types[blocks if inside.all() else np.clip(blocks, 0, n - 1)]
        ok = (inside[new] & (blocks[:, 1:] > blocks[:, :-1]).all(axis=1)
              & (np.count_nonzero(kinds == TYPE_II, axis=1) == ctx.sub_order)
              & (kinds != TYPE_I).all(axis=1))
        self.bad.append(L[new][~ok])
        self.agree &= np.array_equal(rows[~new], tables.incidence_rows(L[~new])
                                     if lines is None else lines[~new])
        blocks = blocks[(blocks[:, 0] != blocks[:, 1]) & inside[new]]
        join = F.cross(F.coords(blocks[:, 0]), F.coords(blocks[:, 1]))
        line = F.dot(join, F.coords(blocks[:, 2])) == 0    # first three points collinear
        joins = F.index(*F.canonical(*(c[line] for c in join)))
        self.differ &= not (tables.incidence_rows(joins) == blocks[line]).all(axis=1).any()
        self.invariant &= inside.all() and not chunk.moved("phi").size

    def result(self) -> tuple[np.ndarray, dict[str, bool]]:
        return np.sort(np.concatenate(self.bad)), dict(
            kept_lines_agree=self.agree, blocks_differ_from_lines=self.differ,
            collineation_invariant=self.invariant)


class _AxiomFacts:
    """The facts of ``check_axioms`` about the rows that reader ``name``
    checks, read a chunk at a time: the least row holding an entry outside
    [0, n), and, while there is none, the least row that each generator
    moves and the rows through each representative.  Its point counts are
    those of ``degrees`` summed over the groups that hold it."""

    def __init__(self, plane: ProjectivePlane, reps, name: str, degrees: dict):
        self.plane, self.reps, self.name, self.degrees = plane, reps, name, degrees
        self.moved = dict.fromkeys(("tau", "dickson"))     # generator -> least failing row
        self.outside = None                                  # (row, entry) of the least such row
        self.through = [[] for _ in reps]

    def wants(self, name: str, L: np.ndarray) -> bool:
        """Whether the chunk L may hold a row that generator ``name`` moves
        below the least one found, while no row is out of range."""
        least = self.moved[name]
        return self.outside is None and (least is None or L[0] < least)

    def read(self, chunk: _Rows, image: np.ndarray | None) -> None:
        """Read a chunk, and ``image``, the rows of the Dickson images of
        its blocks when ``wants`` them, else None."""
        L, rows, inside, n = chunk.L, chunk.rows, chunk.inside, self.plane.size
        if not inside.all():
            i = int(np.argmin(inside))
            if self.outside is None or L[i] < self.outside[0]:
                self.outside = (int(L[i]), int(rows[i, np.argmax((rows[i] < 0) | (rows[i] >= n))]))
        if self.outside is not None:
            return
        chunk.count()
        found = {"tau": chunk.moved("tau")} if self.wants("tau", L) else {}
        if image is not None:
            found["dickson"] = chunk.moved("dickson", image)
        for name, bad in found.items():
            if bad.size and (self.moved[name] is None or bad[0] < self.moved[name]):
                self.moved[name] = int(bad[0])
        for blocks, rows in zip(self.through, chunk.through):
            blocks.append(rows)

    def report(self, fault: str | None = None) -> AxiomReport:
        """The report on the rows read; ``fault``, a shape fault found
        before any row is read, or a row out of range rejects it whole."""
        plane = self.plane
        n, k = plane.size, plane.ctx.q3 + 1
        if fault is None and self.outside is not None:
            L, value = self.outside
            fault = f"block {format_line(plane.point(L))} holds {value}, outside [0, {n})"
        if fault is not None:
            return AxiomReport(ok=False, mode="orbit-reduced", block_size_ok=False,
                               point_degree_ok=False, point_pairs_ok=False,
                               checked_pairs=n * (n - 1), representatives=0, witnesses=[fault])
        tables = plane.tables
        line_maps = {"tau": tables.tau_line, "dickson": tables.dickson_line}
        degree = sum(c for group, c in self.degrees.items() if self.name in group)
        point_degree_ok = bool(np.all(degree == k))
        witnesses = [f"the {name} image of block {format_line(plane.point(L))} "
                     f"is not block {format_line(plane.point(line_maps[name][L]))}"
                     for name, L in self.moved.items() if L is not None][:MAX_WITNESSES]
        point_pairs_ok = not witnesses

        # the cover at the least point of each G-orbit
        for P, blocks in zip(self.reps, self.through):
            if not point_pairs_ok and len(witnesses) >= MAX_WITNESSES:
                break   # the verdict and the witnesses are settled
            count = np.bincount(np.concatenate(blocks).ravel(), minlength=n)
            count[P] = 1   # P with itself
            bad = np.flatnonzero(count != 1)
            if bad.size:
                point_pairs_ok = False
                witnesses.extend(f"point pair {format_point(plane.point(P))} , "
                                 f"{format_point(plane.point(Q))} lies in {count[Q]} blocks"
                                 for Q in bad[:MAX_WITNESSES - len(witnesses)])

        return AxiomReport(ok=point_degree_ok and point_pairs_ok, mode="orbit-reduced",
                           block_size_ok=True, point_degree_ok=point_degree_ok,
                           point_pairs_ok=point_pairs_ok, checked_pairs=n * (n - 1),
                           representatives=len(self.reps), witnesses=witnesses)


def read_rows(structure: IncidencePlane, readers) -> dict:
    """The facts of each of the ``READERS`` that ``readers`` names, from one
    ``walk`` of the rows of ``structure`` under phi and tau: ``build``, the
    pair of ``check_build``, and the ``check_axioms`` report of the
    structure (``axioms``), of the lines its blocks replace (``reference``)
    and of the structure with the block of ``mutated_line`` put back to its
    line (``mutation``).  Each chunk's rows are read once for all readers
    (``views``), and once more as the Dickson images of its blocks while an
    axiom reader compares those; the readers given one array share its
    facts (``_Rows``).

    A structure of the wrong shape has no row to read: every Type III line
    is bad, every build sub-check and every axiom report but the
    reference's fails, and the reference walks the lines alone."""
    plane, readers = structure.plane, set(readers)
    tables, n, k = plane.tables, structure.size, plane.ctx.q3 + 1
    readers_of_axioms = readers - {"build"}
    if structure.shape != (n, k):
        fault = f"block array has shape {structure.shape}, not {(n, k)}"
        facts = {r: _AxiomFacts(plane, (), r, {}).report(fault)
                 for r in readers_of_axioms - {"reference"}}
        if "build" in readers:
            facts["build"] = (np.flatnonzero(tables.types == TYPE_III), dict.fromkeys(
                ("kept_lines_agree", "blocks_differ_from_lines", "collineation_invariant"), False))
        if "reference" in readers:
            facts["reference"] = read_rows(pg_incidence(plane), ("axioms",))["axioms"]
        return facts
    reps = orbit_minima([tables.tau, tables.dickson]) if readers_of_axioms else ()
    degrees = {}    # the readers given one array -> the point counts of the rows they shared
    axioms = {r: _AxiomFacts(plane, reps, r, degrees) for r in readers_of_axioms}
    build = _BuildFacts(plane) if "build" in readers else None
    swapped = mutated_line(tables)
    for L in walk(structure, (tables.phi, tables.tau_line)):
        rows, lines = views(structure, L, readers, swapped)
        groups = {}
        for r in sorted(rows):
            groups.setdefault(id(rows[r]), []).append(r)
        chunk = {}
        for group in groups.values():
            chunk.update(dict.fromkeys(group, _Rows(plane, L, rows[group[0]], tuple(group),
                                                    degrees, reps)))
        if build:
            build.read(chunk["build"], lines)
        compared = [r for r, f in axioms.items() if f.wants("dickson", L)]
        images = views(structure, tables.dickson_line[L], compared, swapped)[0] if compared else {}
        for r, f in axioms.items():
            f.read(chunk[r], images.get(r))
    facts = {r: f.report() for r, f in axioms.items()}
    if build:
        facts["build"] = build.result()
    return facts


def check_build(structure: IncidencePlane) -> tuple[np.ndarray, dict[str, bool]]:
    """The facts of both build checks from one walk of a FIG ``structure``
    (``read_rows``): the sorted Type III lines whose rows break the
    block-size facts (a block is a strictly increasing row of width k in
    [0, n), with q^2 + q + 1 Type II points, its E part, and no Type I
    point) and the row sub-checks of ``fig.build``.  Block L replaces line
    L and phi maps lines by the point formula, so invariance is
    sort(phi[rows(L)]) == rows(phi[L]), a row of the chunk.  A k-set is a
    line exactly when it is the incidence row of the join of its first two
    points, so only the rows whose first three points are collinear are
    compared with a line's row.

    A structure of the wrong shape has no row to read: every Type III
    line is bad and every sub-check fails.  A row holding an entry
    outside [0, n) is no point set, so it is no block, no line and has
    no phi image; its chunk is not compared under phi."""
    return read_rows(structure, ("build",))["build"]


class RowPass(dict):
    """The facts of the ``READERS`` about the rows of a structure, by
    reader: one ``read_rows`` walk for the readers it is made with, and one
    more for each other reader when it is first asked for."""

    def __init__(self, structure: IncidencePlane, readers=()):
        super().__init__(read_rows(structure, readers) if readers else {})
        self.structure = structure

    def __missing__(self, reader: str):
        self.update(read_rows(self.structure, (reader,)))
        return self[reader]
