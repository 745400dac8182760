"""The check runner: the check table, its gates, and the Session the checks read.

Each check is a function of a :class:`Session` returning a
:class:`figplane.report.CheckEntry` with counts and witnesses in
deterministic order, registered with ``check`` under its suite, with its
gates, the conditions on q it needs to run, the ``STAGES`` of the
Session it reads, and the readers of the FIG row pass whose facts it
reports, its only mark as a check that walks every FIG row.  The checks
of suite S live in the module ``figplane.suite_S`` (``suite_census``,
``suite_maps``, ``suite_figueroa``), which is imported the first time
``selected``, ``refusal`` or ``check_groups`` names the suite: a run
compiles the checks it can select and no others.  ``CHECKS``, the whole
table in report order (the suites in ``SUITES`` order, each in the order
its module registers them), imports every suite.  ``refusal`` says why a
selection has nothing to run at q.  The default selection leaves out,
at every q, every group holding a row reader: the FIG claims are made
there by the equivariant checks, which read the ``equivariance`` stage
and the rows at the G-orbit representatives, and the row checks are
their exhaustive controls, run when a selection names them.  Each check
reports its mode when it is not exhaustive.  ``run_checks`` builds each
stage a selection reads once, before its checks, then walks the FIG rows
once for the row readers that the selection names and the Session lacks.
"""

from __future__ import annotations

import importlib
import time
from functools import cached_property, partial
from typing import Callable, NamedTuple

from . import figueroa as fg
from . import linear_sets as ls
from . import maps as gm
from .arrays import PlaneTables
from .collineation import OrbitClasses, census_of, partition_orbits
from .field import FieldContext, Gate
from .plane import ProjectivePlane
from .report import CheckEntry


class Session:
    """The plane and the ``STAGES`` the checks read, each built once."""

    def __init__(self, ctx: FieldContext):
        self.ctx = ctx
        self.plane = ProjectivePlane(ctx)
        self.elapsed_ms: dict[str, float] = {}    # stage -> ms of its build
        self.row_pass: dict = {}    # row reader (``row_pass.READERS``) -> its facts, so far

    @cached_property
    def tables(self) -> PlaneTables:
        """The plane's tables, with its four point tables built."""
        self.plane.tables.types     # one pass builds types, mu, phi and orbit
        return self.plane.tables

    @cached_property
    def classes(self) -> OrbitClasses:
        return partition_orbits(self.plane)

    @cached_property
    def census(self):
        return census_of(self.plane, self.classes)

    @cached_property
    def fixed_census(self) -> gm.VertexCensus:
        """Projection vertex census of the fixed subplane."""
        return gm.vertex_census(self.plane, ls.fixed_subplane(self.ctx))

    @cached_property
    def equivariance(self) -> fg.Equivariance:
        """The premises of phi, tau and d for the closed-form FIG and the
        <tau, d> orbit representatives (``figueroa.equivariance``), which
        the equivariant FIG checks read."""
        return fg.equivariance(self.plane.tables)

    @cached_property
    def fig_structure(self) -> fg.IncidencePlane:
        """FIG as a row source; its rows are made when they are read.  No
        check declares it as a stage: the row pass (``row_facts``) builds
        it, and ``fig.build`` and ``--emit-plane`` read it."""
        return fg.build_fig_plane(self.plane)

    def row_facts(self, *readers: str) -> dict:
        """``row_pass``, the facts of the row readers about the FIG
        structure, holding those of each of ``readers``: one walk of its
        rows for those it lacks, or none."""
        lacking = set(readers) - self.row_pass.keys()
        if lacking:
            from .row_pass import read_rows     # compiled only by a run that reads rows
            self.row_pass.update(read_rows(self.fig_structure, lacking))
        return self.row_pass

    def norm_reps(self):
        return [self.ctx.norm_class_rep(j) for j in range(self.ctx.q - 1)]


class Check(NamedTuple):
    suite: str
    group: str
    run: Callable[[Session], CheckEntry]
    gates: tuple[Gate, ...]
    reads: tuple[str, ...]
    readers: tuple[str, ...] = ()   # the readers of the row pass whose facts it reports

    def applies(self, ctx: FieldContext) -> bool:
        """Whether the check runs at this order: every gate holds."""
        return all(g.holds(ctx) for g in self.gates)


SUITES = ("census", "maps", "figueroa")     # in report order

# suite -> its checks in report order, filled by its module as it is imported
_TABLE: dict[str, list[Check]] = {suite: [] for suite in SUITES}

# the Session stages a check may read, in the order ``run_checks`` builds them
STAGES = ("tables", "classes", "census", "fixed_census", "equivariance")

EVEN_Q = Gate(lambda ctx: ctx.q % 2 == 0, "the even-order structure check needs q even")
SUITE_GATES = {"figueroa": (fg.FIGUEROA,)}    # every check of the suite needs them

def check(suite: str, group: str | None = None, gates: tuple[Gate, ...] = (),
          reads: tuple[str, ...] = (), readers: tuple[str, ...] = ()):
    """Register the decorated check in its suite's table, whose order is
    report order, under its suite (census, maps or figueroa), its
    ``--check`` group (by default the suite), the gates, those of its
    suite first, that must hold at an order for it to run there, and the
    ``STAGES`` it reads, ``tables`` also for the plane's tables.  A check
    that passes over every FIG or PG row names in ``readers`` the row
    readers whose facts it reports (``Session.row_facts``), and that is
    all that marks it: ``selected`` and the memory guard read it.
    ``run_checks`` walks the rows once for all the readers it selects that
    the Session lacks, and times the walk on its own, as ``row_pass``."""
    def register(fn):
        _TABLE[suite].append(Check(suite, group or suite, fn,
                                   SUITE_GATES.get(suite, ()) + gates, reads, readers))
        return fn
    return register


def suite_checks(suite: str) -> list[Check]:
    """The checks of a suite in report order; the first call imports the
    suite's module, which registers them."""
    importlib.import_module(f"{__package__}.suite_{suite}")
    return _TABLE[suite]


def __getattr__(name: str):
    """``CHECKS``: the whole check table in report order, every suite
    imported, so never a part of it."""
    if name == "CHECKS":
        return [c for suite in SUITES for c in suite_checks(suite)]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def refusal(ctx: FieldContext, suite: str, group: str | None = None) -> str | None:
    """Why no check of the suite (or of one of its groups) runs at this
    order, from the first gate that fails; None when one does run."""
    picked = [c for c in suite_checks(suite) if group in (None, c.group)]
    if any(c.applies(ctx) for c in picked):
        return None
    gate = next(g for c in picked for g in c.gates if not g.holds(ctx))
    return f"{gate.reason} (got q = {ctx.q})"


def check_groups(suite: str) -> list[str]:
    """The ``--check`` groups of a suite, in report order."""
    return list(dict.fromkeys(c.group for c in suite_checks(suite)))


def selected(ctx: FieldContext, suite: str, group: str | None = None,
             by_default: bool = False) -> list[Check]:
    """The checks of the suite (or of one of its groups) that apply at
    this order, in table order; ``by_default`` for the default selection,
    which leaves out every group holding a check that names a row reader."""
    table = suite_checks(suite)
    rows = {c.group for c in table if c.readers} if by_default else ()
    return [c for c in table
            if group in (None, c.group) and c.group not in rows and c.applies(ctx)]


def run_checks(sess: Session, suite: str, group: str | None = None,
               by_default: bool = False) -> list[CheckEntry]:
    """Build, in ``STAGES`` order, each stage the selected checks read that
    the Session does not hold yet, then the facts of the row readers they
    name that it lacks (``Session.row_facts``), then run the checks,
    timing each stage, the row pass and each check on its own."""
    picked = selected(sess.ctx, suite, group, by_default)
    readers = {r for c in picked for r in c.readers}
    builds = [(name, partial(getattr, sess, name)) for name in STAGES
              if name not in vars(sess) and any(name in c.reads for c in picked)]
    if readers:
        builds.append(("row_pass", partial(sess.row_facts, *readers)))
    for name, build in builds:
        t0 = time.perf_counter()
        build()
        sess.elapsed_ms[name] = (sess.elapsed_ms.get(name, 0.0)
                                 + (time.perf_counter() - t0) * 1000.0)
    out = []
    for c in picked:
        t0 = time.perf_counter()
        e = c.run(sess)
        e.elapsed_ms = (time.perf_counter() - t0) * 1000.0
        out.append(e)
    return out


def census_checks(sess: Session, by_default: bool = False) -> list[CheckEntry]:
    return run_checks(sess, "census", by_default=by_default)


def maps_checks(sess: Session, which: str | None = None,
                by_default: bool = False) -> list[CheckEntry]:
    return run_checks(sess, "maps", which, by_default)


def figueroa_checks(sess: Session, which: str | None = None,
                    by_default: bool = False) -> list[CheckEntry]:
    return run_checks(sess, "figueroa", which, by_default)
