"""The check runner: the check table, its gates, and the Session the checks read.

Each check is a function of a :class:`Session` returning a
:class:`figplane.report.CheckEntry` with counts and witnesses in
deterministic order, registered with ``check`` under its suite, with its
gates, the conditions on q it needs to run, and the ``STAGES`` of the
Session it reads.  The checks of suite S live in the module
``figplane.suite_S`` (``suite_census``, ``suite_maps``,
``suite_figueroa``), which is imported the first time ``selected``,
``refusal`` or ``check_groups`` names the suite: a run compiles the
checks it can select and no others.  ``CHECKS``, the whole table in
report order (the suites in ``SUITES`` order, each in the order its
module registers them), imports every suite.  ``refusal`` says why a
selection has nothing to run at q.  Every check is exhaustive.
``run_checks`` builds each stage a selection reads once, before its
checks; the row pass, which the build and axioms groups read, walks the
FIG rows once for every one of its readers that the selection names.
"""

from __future__ import annotations

import importlib
import time
from functools import cached_property
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
        self.readers: set[str] = set()      # the row-pass readers ``run_checks`` selected

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
    def fig_structure(self) -> fg.IncidencePlane:
        """FIG as a row source; its rows are made when they are read."""
        return fg.build_fig_plane(self.plane)

    @cached_property
    def row_pass(self) -> dict:
        """The facts of the row readers (``row_pass.READERS``) about the FIG
        structure: one walk of its rows for the readers selected, and one
        for each other reader when it is first asked for."""
        from .row_pass import RowPass       # compiled only by a run that reads rows
        return RowPass(self.fig_structure, self.readers)

    def norm_reps(self):
        return [self.ctx.norm_class_rep(j) for j in range(self.ctx.q - 1)]


class Check(NamedTuple):
    suite: str
    group: str
    run: Callable[[Session], CheckEntry]
    gates: tuple[Gate, ...]
    reads: tuple[str, ...]
    readers: tuple[str, ...] = ()   # the readers of the row pass whose facts it reports

    def applies(self, ctx: FieldContext, by_default: bool = False) -> bool:
        """Whether the check runs at this order: every gate holds, leaving
        out the ``default_only`` gates unless the selection is the default."""
        return all(g.holds(ctx) for g in self.gates if by_default or not g.default_only)


SUITES = ("census", "maps", "figueroa")     # in report order

# suite -> its checks in report order, filled by its module as it is imported
_TABLE: dict[str, list[Check]] = {suite: [] for suite in SUITES}

# the Session stages a check may read, in the order ``run_checks`` builds them
STAGES = ("tables", "classes", "census", "fixed_census", "fig_structure", "row_pass")

EVEN_Q = Gate(lambda ctx: ctx.q % 2 == 0, "the even-order structure check needs q even")
SUITE_GATES = {"figueroa": (fg.FIGUEROA,)}    # every check of the suite needs them

ROW_WORK = 10 ** 9      # entries n (q^3 + 1) of a pass over the FIG rows, by default


def row_work(ctx: FieldContext) -> int:
    return (ctx.q3 * ctx.q3 + ctx.q3 + 1) * (ctx.q3 + 1)


FIG_ROWS = Gate(lambda ctx: row_work(ctx) < ROW_WORK,
                lambda ctx: f"a pass over the FIG rows reads {row_work(ctx):.3g} entries at "
                            f"q = {ctx.q}, over the default bound of {ROW_WORK:.0e}",
                default_only=True)


def check(suite: str, group: str | None = None, gates: tuple[Gate, ...] = (),
          reads: tuple[str, ...] = (), readers: tuple[str, ...] = ()):
    """Register the decorated check in its suite's table, whose order is
    report order, under its suite (census, maps or figueroa), its
    ``--check`` group (by default the suite), the gates, those of its
    suite first, that must hold at an order for it to run there, and the
    ``STAGES`` it reads, ``tables`` also for the plane's tables.  The
    build and axioms checks, which pass over every FIG or PG row, carry
    ``FIG_ROWS`` and name in ``readers`` those of the stage
    ``row_pass`` whose facts they report; ``run_checks`` builds that
    stage with one walk for all the readers it selects, and times it on
    its own."""
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
    gate = next(g for c in picked for g in c.gates
                if not g.default_only and not g.holds(ctx))
    return f"{gate.reason} (got q = {ctx.q})"


def check_groups(suite: str) -> list[str]:
    """The ``--check`` groups of a suite, in report order."""
    return list(dict.fromkeys(c.group for c in suite_checks(suite)))


def selected(ctx: FieldContext, suite: str, group: str | None = None,
             by_default: bool = False) -> list[Check]:
    """The checks of the suite (or of one of its groups) that apply at
    this order, in table order; ``by_default`` for the default selection,
    which the ``default_only`` gates bind too."""
    return [c for c in suite_checks(suite)
            if group in (None, c.group) and c.applies(ctx, by_default)]


def run_checks(sess: Session, suite: str, group: str | None = None,
               by_default: bool = False) -> list[CheckEntry]:
    """Build, in ``STAGES`` order, each stage the selected checks read that
    the Session does not hold yet, the row pass for the readers they name,
    then run the checks, timing each stage and each check on its own."""
    picked = selected(sess.ctx, suite, group, by_default)
    sess.readers = {r for c in picked for r in c.readers}
    for name in STAGES:
        if name not in vars(sess) and any(name in c.reads for c in picked):
            t0 = time.perf_counter()
            getattr(sess, name)
            sess.elapsed_ms[name] = (time.perf_counter() - t0) * 1000.0
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
