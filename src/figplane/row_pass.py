"""The one walk over the rows of an incidence structure, and the readers
it serves: the build facts of a FIG row by row (``_BuildFacts``) and the
axiom check (``figueroa.check_axioms``) of the structure, of the lines its
blocks replace, PG, and of the structure with one block put back to its
line.  These are the exhaustive controls of the equivariant FIG checks,
which read rows at the G-orbit representatives alone; they run when a
selection names them.

``read_rows`` walks the rows in chunks of whole orbits of phi and tau on
the lines, so the phi and tau images of the rows a chunk makes are rows
of the same chunk, and reads each chunk one way, whatever readers it
serves: one ``IncidencePlane.rows_and_lines`` call gives a FIG's rows and
the lines they replace, gathered from the lookup tables
``PlaneTables.fig_lookup``, which the walk builds.  When an axiom reader
is named, one more call per chunk gives the rows of the Dickson images of
its blocks.  Every map is an ``arrays.Collineation``, read by its point
and its line table.  Only a run that reads every row imports this module.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .arrays import CHUNK, Collineation, orbit_minima
from .collineation import TYPE_III
from .figueroa import (MAX_WITNESSES, AxiomReport, IncidencePlane, good_blocks, line_blocks,
                       mutated_line, pg_incidence)
from .plane import ProjectivePlane, format_line, format_point


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


def moved_rows(L: np.ndarray, rows: np.ndarray, g: np.ndarray,
               target: np.ndarray) -> np.ndarray:
    """The blocks of the sorted index array L, whose rows are ``rows``, with
    sort(g[rows]) != ``target``, the rows of their images, in order."""
    image = np.take(g, rows)
    image.sort(axis=1)
    return L[:0] if np.array_equal(image, target) else L[(image != target).any(axis=1)]


READERS = ("build", "axioms", "reference", "mutation")


def walk(structure: IncidencePlane, maps):
    """The chunks of one pass over the n blocks of ``structure``: sorted
    index arrays L that partition the blocks, each a union of whole orbits
    of the group that the line tables of the collineations ``maps``
    generate, in the order of their least member; as many orbits as fit in
    ``CHUNK`` entries, or one when it is longer.  Each map sends the blocks
    of a chunk to blocks of the chunk."""
    n, k = structure.size, structure.plane.ctx.q3 + 1
    label = orbit_labels([g.lines for g in maps])
    order = np.argsort(label, kind="stable")
    ends = np.append(np.flatnonzero(np.diff(label[order])) + 1, n)
    step, lo = max(1, CHUNK // k), 0
    while lo < n:
        hi = max(ends[np.searchsorted(ends, lo, side="right")],
                 ends[np.searchsorted(ends, lo + step, side="right") - 1])
        yield np.sort(order[lo:hi])
        lo = hi


def _by_reader(rows: np.ndarray, lines: np.ndarray, swap: np.ndarray) -> dict:
    """The rows each of the ``READERS`` checks, from one read of a
    structure, its ``rows`` and the ``lines`` they replace: the rows
    (build, axioms), the lines (reference), and the rows with the blocks
    that the mask ``swap`` marks put back to their lines (mutation)."""
    mutation = np.where(swap[:, None], lines, rows) if swap.any() else rows
    return dict(zip(READERS, (rows, rows, lines, mutation)))


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

    def moved(self, g: Collineation, image: np.ndarray | None = None) -> np.ndarray:
        """The blocks that the collineation g moves (``moved_rows``), against
        the rows of their images: ``image``, or the rows of the chunk at the
        g.lines images of its blocks, when g maps the chunk onto itself."""
        key = id(g.points), id(image)
        if key not in self._moved:
            L, rows = self.L, self.rows
            self._moved[key] = moved_rows(L, rows, g.points, rows[np.searchsorted(L, g.lines[L])]
                                          if image is None else image)
        return self._moved[key]


class _BuildFacts:
    """The build facts of a FIG row by row, read a chunk at a time, the
    exhaustive control of the equivariant ``fig.block-sizes`` and
    ``fig.build``: the sorted Type III lines whose rows break the block
    facts (``figueroa.good_blocks``), and whether the kept lines keep their
    rows, no block is a line (``figueroa.line_blocks``) and phi maps rows
    to rows.  Block L replaces line L and phi maps lines by the point
    formula, so invariance is sort(phi[rows(L)]) == rows(phi[L]), a row of
    the chunk.

    A row holding an entry outside [0, n) is no point set, so it is no
    block, no line and has no phi image; its chunk is not compared under
    phi."""

    def __init__(self, plane: ProjectivePlane, phi: Collineation):
        self.plane, self.phi = plane, phi
        self.bad, self.agree, self.differ, self.invariant = [], True, True, True

    def read(self, chunk: _Rows, lines: np.ndarray) -> None:
        tables, L, rows, inside = self.plane.tables, chunk.L, chunk.rows, chunk.inside
        new = tables.types[L] == TYPE_III
        blocks, within = rows[new], inside[new]
        self.bad.append(L[new][~good_blocks(tables, blocks, within)])
        self.agree &= np.array_equal(rows[~new], lines[~new])
        self.differ &= not line_blocks(tables, blocks, within).any()
        self.invariant &= inside.all() and not chunk.moved(self.phi).size

    def result(self) -> tuple[np.ndarray, dict[str, bool]]:
        return np.sort(np.concatenate(self.bad)), dict(
            kept_lines_agree=self.agree, blocks_differ_from_lines=self.differ,
            collineation_invariant=self.invariant)


class _AxiomFacts:
    """The facts of ``check_axioms`` about the rows that reader ``name``
    checks, read a chunk at a time: the least row holding an entry outside
    [0, n), and, while there is none, the least row that each of the
    ``generators``, by name, moves, over every chunk, and the rows through
    each representative.  Its point counts are those of ``degrees`` summed
    over the groups that hold it."""

    def __init__(self, plane: ProjectivePlane, generators: dict[str, Collineation], reps,
                 name: str, degrees: dict):
        self.plane, self.generators, self.reps, self.name, self.degrees = (
            plane, generators, reps, name, degrees)
        self.moved = dict.fromkeys(generators)              # generator -> least failing row
        self.outside = None                                  # (row, entry) of the least such row
        self.through = [[] for _ in reps]

    def read(self, chunk: _Rows, image: np.ndarray) -> None:
        """Read a chunk, and ``image``, the rows of the Dickson images of
        its blocks."""
        L, rows, inside, n = chunk.L, chunk.rows, chunk.inside, self.plane.size
        if not inside.all():
            i = int(np.argmin(inside))
            if self.outside is None or L[i] < self.outside[0]:
                self.outside = (int(L[i]), int(rows[i, np.argmax((rows[i] < 0) | (rows[i] >= n))]))
        if self.outside is not None:
            return
        chunk.count()
        found = {"tau": chunk.moved(self.generators["tau"]),
                 "dickson": chunk.moved(self.generators["dickson"], image)}
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
        degree = sum(c for group, c in self.degrees.items() if self.name in group)
        point_degree_ok = bool(np.all(degree == k))
        witnesses = [f"the {name} image of block {format_line(plane.point(L))} "
                     f"is not block {format_line(plane.point(self.generators[name].lines[L]))}"
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
    pair of ``_BuildFacts``, and the ``check_axioms`` report of the
    structure (``axioms``), of the lines its blocks replace (``reference``)
    and of the structure with the block of ``mutated_line`` put back to its
    line (``mutation``).  Each chunk is read one way for all readers, by
    one ``rows_and_lines`` call, and, when an axiom reader is named, the
    Dickson images of its blocks by one more; the readers given one array
    share its facts (``_Rows``).

    A structure of the wrong shape has no row to read: every Type III line
    is bad, every build sub-check and every axiom report but the
    reference's fails, and the reference walks the lines alone."""
    plane, readers = structure.plane, set(readers)
    tables, n, k = plane.tables, structure.size, plane.ctx.q3 + 1
    readers_of_axioms = readers - {"build"}
    if structure.shape != (n, k):
        fault = f"block array has shape {structure.shape}, not {(n, k)}"
        facts = {r: _AxiomFacts(plane, {}, (), r, {}).report(fault)
                 for r in readers_of_axioms - {"reference"}}
        if "build" in readers:
            facts["build"] = (np.flatnonzero(tables.types == TYPE_III), dict.fromkeys(
                ("kept_lines_agree", "blocks_differ_from_lines", "collineation_invariant"), False))
        if "reference" in readers:
            facts["reference"] = read_rows(pg_incidence(plane), ("axioms",))["axioms"]
        return facts
    generators = {"tau": tables.tau, "dickson": tables.dickson} if readers_of_axioms else {}
    reps = orbit_minima([g.points for g in generators.values()]) if generators else ()
    degrees = {}    # the readers given one array -> the point counts of the rows they shared
    axioms = {r: _AxiomFacts(plane, generators, reps, r, degrees) for r in readers_of_axioms}
    phi = Collineation(tables.phi, tables.phi)      # phi maps lines by its point formula
    build = _BuildFacts(plane, phi) if "build" in readers else None
    swapped = mutated_line(tables)
    if structure.kept is not None:
        tables.fig_lookup   # a pass over every FIG row gathers the parts of its blocks
    for L in walk(structure, (phi, tables.tau)):
        rows, lines = structure.rows_and_lines(L)
        own = _by_reader(rows, lines, L == swapped)
        groups = {}
        for r in sorted(readers):
            groups.setdefault(id(own[r]), []).append(r)
        chunk = {}
        for group in groups.values():
            chunk.update(dict.fromkeys(group, _Rows(plane, L, own[group[0]], tuple(group),
                                                    degrees, reps)))
        if build:
            build.read(chunk["build"], lines)
        if axioms:
            image = tables.dickson.lines[L]
            images = _by_reader(*structure.rows_and_lines(image), image == swapped)
            for r, f in axioms.items():
                f.read(chunk[r], images[r])
    facts = {r: f.report() for r, f in axioms.items()}
    if build:
        facts["build"] = build.result()
    return facts
