"""The equivariant FIG checks: ``fig.plane``, ``fig.block-sizes`` and
``fig.build`` read table premises about phi, tau and d and the rows at
one point and one line of each <tau, d> orbit, in place of every row.

Each one-entry fault below must fail them with a witness.  The faults of
a premise leave every row that the representatives read as it was, so
with ``Collineation.premises`` stubbed to hold, the same checks pass:
the premise, not the rows, is what rejects the fault.  The row checks of
the axioms group are the exhaustive controls the equivariant checks must
agree with.
"""

import numpy as np
import pytest

import figplane.figueroa as fg
from figplane.arrays import Collineation
from figplane.collineation import TYPE_I, TYPE_II, TYPE_III
from figplane.field import build_field_tower
from figplane.plane import GeometryError
from figplane.suite_figueroa import assembly, block_sizes, projective_plane
from figplane.suites import Session, figueroa_checks

TOWERS = {3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1)}
EQUIVARIANT = ("fig.block-sizes", "fig.build", "fig.plane")


def _entries(sess):
    return {e.id: e for e in (block_sizes(sess), assembly(sess), projective_plane(sess))}


def _holding(monkeypatch):
    """Stub every premise to hold."""
    monkeypatch.setattr(Collineation, "premises", lambda self, tables, kept=(): [])


def _read_at_representatives(tables, eq):
    """Every row the equivariant checks read at the representatives ``eq``:
    the blocks through each point representative, their rows, and the row
    of each line representative."""
    through = [fg.blocks_through(tables, int(P)) for P in eq.points]
    return [*through, *(tables.fig_rows(L)[0] for L in through), tables.fig_rows(eq.lines)[0]]


def _unseen_mu_fault(tables):
    """The involution table with one entry changed, mu[x] set to mu[y] for
    y the next Type III point, at the least Type III point x at which no
    row that the representatives read changes."""
    real, III, eq = tables.mu, np.flatnonzero(tables.types == TYPE_III), fg.equivariance(tables)
    clean = _read_at_representatives(tables, eq)
    for x, y in zip(III, np.roll(III, -1)):
        mu = real.copy()
        mu[x] = real[y]
        tables.__dict__["mu"] = mu
        try:
            seen = _read_at_representatives(tables, eq)
        except GeometryError:    # a block of the wrong size
            continue
        finally:
            tables.__dict__["mu"] = real
        if all(np.array_equal(a, b) for a, b in zip(seen, clean)):
            return mu
    raise AssertionError("every entry of mu shows in a row the representatives read")


def _fault_mu(sess):
    sess.plane.tables.__dict__["mu"] = _unseen_mu_fault(sess.plane.tables)
    return "mu does not commute with it"


def _fault_tau(sess):
    """tau sends the least Type II point where it sends the least Type III
    point: no permutation, and a point moved off its type."""
    tables = sess.plane.tables
    tau = tables.tau
    points = tau.points.copy()
    first = {t: int(np.argmax(tables.types == t)) for t in (TYPE_II, TYPE_III)}
    points[first[TYPE_II]] = tau.points[first[TYPE_III]]
    tables.__dict__["tau"] = Collineation(points, tau.lines)
    return "of Type II goes to"


@pytest.mark.parametrize("fault", [_fault_mu, _fault_tau], ids=["mu", "tau"])
def test_a_premise_fault_fails_the_equivariant_checks_with_a_witness(monkeypatch, fault):
    """One entry of mu or of tau's point table changed: every equivariant
    check fails, naming the premise that breaks; with the premises stubbed
    to hold they all pass, so no row at a representative shows the fault."""
    sess = Session(build_field_tower(3, 1))
    want = fault(sess)
    entries = _entries(sess)
    for name in EQUIVARIANT:
        assert not entries[name].passed, name
        assert any(want in w for w in entries[name].witnesses), entries[name].witnesses
    _holding(monkeypatch)
    sess.__dict__.pop("equivariance")
    assert all(e.passed for e in _entries(sess).values())


def test_a_closed_form_missing_a_block_fails_the_cover(monkeypatch):
    """The closed form of the blocks through a point that leaves out one
    block: the premises hold, and ``fig.plane`` fails at the representative
    it shorts, naming its block count, with the premises stubbed or not."""
    sess = Session(build_field_tower(3, 1))
    real = fg.blocks_through
    monkeypatch.setattr(fg, "blocks_through", lambda tables, P, kept=():
                        real(tables, P, kept)[:-1] if tables.types[P] == TYPE_III
                        else real(tables, P, kept))
    for stubbed in (False, True):
        if stubbed:
            _holding(monkeypatch)
        sess.__dict__.pop("equivariance", None)
        e = projective_plane(sess)
        assert not sess.equivariance.witnesses("phi", "tau", "dickson")
        assert not e.passed
        assert e.witnesses == ["the closed form puts point 1:0:0 in 27 blocks, 27 distinct, not 28"]


def test_a_closed_form_block_that_misses_its_point_fails_the_cover(monkeypatch):
    """A line traded into the blocks through the Type III representative
    whose block does not hold it: the cover names that block; and with one
    point of a block through it traded for a point of another, the cover
    names the pair met twice, then the pair never met."""
    sess = Session(build_field_tower(3, 1))
    tables = sess.plane.tables
    real = fg.blocks_through
    P = int(sess.equivariance.points[0])
    through = real(tables, P)
    stray = next(L for L in range(sess.plane.size) if L not in set(through.tolist()))
    monkeypatch.setattr(fg, "blocks_through", lambda t, Q, kept=(): np.sort(
        np.append(through[1:], stray)) if Q == P else real(t, Q, kept))
    e = projective_plane(sess)
    assert not e.passed
    assert e.witnesses == [f"block {tables.label(stray, 'line')} of the closed form through "
                           f"{tables.label(P)} does not hold it"]
    monkeypatch.undo()
    first, second = (tables.fig_rows([L])[0][0] for L in through[:2])
    Q, R = int(first[first != P][0]), int(second[second != P][0])
    real_rows = tables.fig_rows

    def doubled(L, kept=()):
        rows, lines = real_rows(L, kept)
        for i in np.flatnonzero(np.asarray(L) == through[0]):
            rows[i] = np.sort(np.where(rows[i] == Q, R, rows[i]))
        return rows, lines
    monkeypatch.setattr(tables, "fig_rows", doubled)
    e = projective_plane(sess)
    assert e.witnesses == [f"point pair {tables.label(P)} , {tables.label(R)} lies in more than "
                           "one block",
                           f"point pair {tables.label(P)} , {tables.label(Q)} lies in no block"]


def test_the_mutation_is_rejected_by_the_kept_set_premise(monkeypatch):
    """The mutation keeps the first Type III line, [1:0:0], which tau fixes
    and d moves: the kept-set premise of d names it.  With the premises
    stubbed to hold, the rows at the representatives pass, though the
    mutation is no plane: the premise is what rejects it."""
    sess = Session(build_field_tower(3, 1))
    tables = sess.plane.tables
    kept = (fg.mutated_line(tables),)
    eq = fg.equivariance(tables, kept)
    assert eq.premises["tau"] == [] and not eq.points.size
    assert eq.premises["dickson"] == [
        f"the kept line {tables.label(kept[0], 'line')} goes to "
        f"{tables.label(tables.dickson.lines[kept[0]], 'line')}, which is not kept"]
    _holding(monkeypatch)
    eq = fg.equivariance(tables, kept)
    assert all(not fg.cover_faults(tables, int(P), kept) for P in eq.points)
    assert not any(v.size for v in fg.rep_faults(tables, eq.lines, kept).values())
    assert not fg.check_axioms(fg.IncidencePlane(sess.plane, kept=kept)).ok


@pytest.mark.parametrize("part", ["point", "line"])
def test_each_premise_names_its_least_failing_object(part):
    """A table entry outside [0, n) is named alone, since no other fact of
    that table can be read; two entries traded break the types and the
    commutation with mu at the least of them."""
    tables = Session(build_field_tower(3, 1)).plane.tables
    n, tau = tables.size, tables.tau
    g = getattr(tau, part + "s").copy()
    g[5] = n
    wrong = tau._replace(**{part + "s": g})
    assert wrong.premises(tables) == [
        f"the {part} table sends {tables.label(5, part)} to {n}, outside [0, {n})"]
    a, b = int(np.argmax(tables.types == TYPE_I)), int(np.argmax(tables.types == TYPE_III))
    g = getattr(tau, part + "s").copy()
    g[[a, b]] = g[[b, a]]
    w = tau._replace(**{part + "s": g}).premises(tables)
    assert w[0] == (f"{part} {tables.label(min(a, b), part)} of Type "
                    f"{'I' * int(tables.types[min(a, b)])} goes to "
                    f"{tables.label(g[min(a, b)], part)} of Type "
                    f"{'I' * int(tables.types[g[min(a, b)]])}")
    assert w[1:] and all(x.startswith("mu does not commute with it at the Type III ")
                         for x in w[1:])


@pytest.mark.parametrize("q", [3, 4, 5])
def test_blocks_through_match_the_closed_form(q, fast_fig_incident):
    """At each representative, the blocks through it are the lines L whose
    block holds it by ``fig_incident``, and each of its rows holds it."""
    sess = Session(build_field_tower(*TOWERS[q]))
    plane, tables = sess.plane, sess.plane.tables
    lines = [plane.point(L) for L in range(plane.size)]
    for P in sess.equivariance.points:
        through = fg.blocks_through(tables, int(P))
        want = [L for L, line in enumerate(lines)
                if fg.fig_incident(plane.ctx, plane.point(P), line)]
        assert through.tolist() == want
        assert (tables.fig_rows(through)[0] == P).any(axis=1).all()


def _agree(q):
    """The figueroa suite, named, at q: the equivariant checks and their
    row controls both pass and count the same pairs and blocks."""
    sess = Session(build_field_tower(*TOWERS[q]))
    e = {x.id: x for x in figueroa_checks(sess)}
    assert all(e[name].passed for name in EQUIVARIANT + ("fig.build-rows", "fig.axioms"))
    assert e["fig.plane"].counts["checked_pairs"] == e["fig.axioms"].counts["checked_pairs"]
    assert e["fig.plane"].counts["representatives"] == e["fig.axioms"].counts["representatives"]
    assert e["fig.block-sizes"].counts["anchors"] == e["fig.build-rows"].counts["anchors"]
    assert e["fig.plane"].counts["mode"] == "equivariant"
    # the mutation: its row control rejects it by a pair, the equivariant
    # path by a premise
    assert e["fig.axioms-mutation"].passed
    kept = (fg.mutated_line(sess.plane.tables),)
    assert fg.equivariance(sess.plane.tables, kept).witnesses("tau", "dickson")


@pytest.mark.parametrize("q", [3, 4, 5])
def test_equivariant_checks_agree_with_the_row_controls(q):
    _agree(q)


@pytest.mark.slow
def test_equivariant_checks_agree_with_the_row_controls_at_q7():
    _agree(7)
