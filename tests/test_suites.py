"""The check table of ``figplane.suites`` and the checks of its suite
modules: its groups, its golden reports, and the table-driven entries
shown able to fail with a witness.

The golden reports are the output of

    figplane verify --q Q --suite all --format json --seed 1

at q = 3, 4 and 5, kept under ``tests/data``; they pin every entry, its
counts and the report order.  The default report at q = 4, 5, 7, 8, 11
and 13, in json and text, the census at q = 9, the maps suite at q = 16
and the ``sls`` and ``tplane`` output at q = 4, 7, 16 and 37 are pinned by their
sha256 digests in ``tests/data/digests.json``, in a test marked slow;
``tests/digests.py`` writes and checks that matrix and the goldens.
q = 5 is the least order with q = 1 mod 4, where
``fig.projection-anchor`` takes its other odd-q size.  The maps and
census suites have goldens at q = 7 too, the least order whose n-entry
scans take more than one chunk of ``arrays.CHUNK``.  The q = 3 report in
text and csv, the census csv table at q = 3 and 4, and the build and
axioms groups at q = 4 have goldens of their own, and so has the emitted
q = 3 plane, as its sha256 digest.
"""

import json
import re
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from figplane.arrays import CHUNK, OTHER
from figplane.cli import main
from figplane.collineation import (CATEGORIES, TYPE_I, TYPE_II, TYPE_III, VERTEX,
                                   collineate_point)
from figplane.field import build_field_tower
from figplane.linear_sets import t_plane
from figplane.maps import VertexCensus
from figplane.plane import ANCHOR_1, ProjectivePlane, format_line, format_point
from figplane.suite_census import (categories, collineation_permutes, norm_det_relation,
                                   orbit_sizes, type_tally)
from figplane.suite_figueroa import (arching, assembly, axioms, axioms_mutation,
                                     axioms_reference, block_anatomy, block_sizes, build_rows,
                                     characterization, even_structure, projection_anchor,
                                     projection_conjugates, projective_plane,
                                     splash_involution)
from figplane.suite_maps import (block_incidence_twist, club_images, collineation_fixed,
                                 count_spectrum, cross_plane, generic_plane, involution_fixed,
                                 parity_table, pencil_census, plane_images,
                                 projection_vs_splash, rejects_fixed_objects, t_plane_images,
                                 vertices_census)
from figplane.figueroa import IncidencePlane
from figplane.suites import (CHECKS, STAGES, Session, check_groups, figueroa_checks,
                             maps_checks, run_checks)

import digests
from conftest import HeldRows, held
from set_oracle import as_rows, as_triples, conjugate_subplane, splash, triples

DATA = Path(__file__).parent / "data"


def test_check_groups_in_report_order():
    assert check_groups("maps") == ["mu", "pr-sp", "fixed", "vertices"]
    assert check_groups("figueroa") == ["build", "axioms", "pr", "arching",
                                        "characterization", "even-structure", "sp-mu"]
    assert check_groups("census") == ["census"]
    assert len({c.run for c in CHECKS}) == len(CHECKS)


class _BlindPlane(ProjectivePlane):
    """A plane whose tables may not be read."""

    @property
    def tables(self):
        raise AssertionError("read the plane's tables without declaring the stage tables")


class _Declared(Session):
    """A Session holding, built, the stages of ``full`` that ``reads``
    names, which raises on any other stage.  Its plane, which the FIG
    structure reads its rows through too, raises on ``tables`` unless
    ``reads`` names it."""

    def __init__(self, full: Session, reads: tuple[str, ...]):
        super().__init__(full.ctx)
        self.reads = reads
        if "tables" in reads:
            self.plane.tables = full.plane.tables
        else:
            self.plane = _BlindPlane(full.ctx)
        for name in reads:
            setattr(self, name, getattr(full, name))

    def __getattribute__(self, name):
        if name in STAGES and name not in super().__getattribute__("reads"):
            raise AssertionError(f"read the stage {name} without declaring it")
        return super().__getattribute__(name)


@pytest.mark.parametrize("q", [3, 4])
def test_checks_read_only_the_stages_they_declare(q):
    """Every check passes against a Session whose declared stages are
    prebuilt and which raises on any other, so ``run_checks`` builds what
    each selection reads before its checks.  The checks that name row
    readers, which the default selection and the memory guard read, are
    all in the axioms group, which holds nothing else."""
    full = Session(build_field_tower(*{3: (3, 1), 4: (2, 2)}[q]))
    for name in STAGES:
        getattr(full, name)
    for c in CHECKS:
        assert set(c.reads) <= set(STAGES), c.run
        if c.applies(full.ctx):
            assert c.run(_Declared(full, c.reads)).passed, c.run
        assert bool(c.readers) == ((c.suite, c.group) == ("figueroa", "axioms")), c.run


@pytest.mark.slow
@pytest.mark.parametrize("command", digests.DIGESTS)
def test_verify_all_matches_golden_digest(command, capsys):
    """The default report at q = 4, 5, 7, 8, 11 and 13, in json and text,
    the census at q = 9, the maps suite at q = 16 and the ``sls`` and
    ``tplane`` output at q = 4, 7, 16 and 37 hash to the sha256 digests of
    the matrix ``tests/data/digests.json``.  These runs take seconds each, so the
    test is marked slow: ``pytest -m slow`` runs it."""
    import hashlib
    assert main(command.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == \
        json.loads((DATA / "digests.json").read_text())[command]


def test_digest_matrix_pins_every_golden_file():
    """The matrix holds every command of ``tests/digests.py``, and each
    golden file hashes to the digest of its command."""
    import hashlib
    matrix = json.loads((DATA / "digests.json").read_text())
    assert list(matrix) == digests.COMMANDS
    for command, name in digests.GOLDENS.items():
        assert hashlib.sha256((DATA / name).read_bytes()).hexdigest() == matrix[command], name


@pytest.mark.parametrize("q", [3, 4, 5])
def test_verify_all_matches_golden_report(q, capsys):
    golden = (DATA / f"verify-all-q{q}.json").read_text()
    args = ["verify", "--q", str(q), "--suite", "all", "--format", "json"]
    assert main(args + ["--seed", "1"]) == 0
    assert capsys.readouterr().out == golden
    # the seed is recorded and selects nothing
    assert main(args + ["--seed", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["header"]["config"]["seed"] == 2
    doc["header"]["config"]["seed"] = 1
    assert json.dumps(doc, indent=2) + "\n" == golden
    assert "sampled" not in golden


def test_readme_names_only_check_ids_of_the_report():
    """Every check id that the README names in backticks, a dotted word
    whose prefix is that of an entry id (``fig.build``), is the id of an
    entry of the q = 4 golden reports, the default one and that of the
    axioms group, which together hold every check."""
    ids = {e["id"] for name in ("verify-all-q4.json", "figueroa-axioms-q4.json")
           for e in json.loads((DATA / name).read_text())["checks"]}
    assert len(ids) == len(CHECKS)
    prefixes = {i.split(".")[0] for i in ids}
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    named = {w for w in re.findall(r"`([a-z]+\.[\w-]+)`", readme) if w.split(".")[0] in prefixes}
    assert named and named <= ids, sorted(named - ids)


@pytest.mark.parametrize("suite", ["maps", "census"])
def test_q7_suite_matches_golden_report(suite, capsys):
    """At q = 7 the plane has n = 117,993 points, so every n-entry scan of
    the census and maps paths crosses chunk boundaries."""
    assert 7 ** 6 + 7 ** 3 + 1 > CHUNK
    golden = (DATA / f"verify-{suite}-q7.json").read_text()
    assert main(["verify", "--q", "7", "--suite", suite, "--format", "json", "--seed", "1"]) == 0
    assert capsys.readouterr().out == golden


@pytest.mark.parametrize("argv, name", [
    ("verify --q 3 --suite all --format text", "verify-all-q3.txt"),
    ("verify --q 3 --suite all --format csv", "verify-all-q3.csv"),
    ("census --q 3 --format csv", "census-q3.csv"),
    ("census --q 4 --format csv", "census-q4.csv"),
    ("figueroa --q 4 --check build --format json --seed 1", "figueroa-build-q4.json"),
    ("figueroa --q 4 --check axioms --format json --seed 1", "figueroa-axioms-q4.json"),
])
def test_output_matches_golden_file(argv, name, capsys):
    """The text and csv reports, the census table, and the reports of the
    build and axioms groups, whose row passes walk for some readers only,
    byte for byte."""
    assert main(argv.split()) == 0
    assert capsys.readouterr().out == (DATA / name).read_text()


def test_twist_runs_at_every_figueroa_order(ctx5):
    (twist,) = [c for c in CHECKS if c.run is block_incidence_twist]
    assert twist.applies(ctx5) and not twist.applies(build_field_tower(2, 1))
    assert block_incidence_twist(Session(ctx5)).passed


def test_norm_det_check_reports_a_wrong_det(ctx3):
    sess = Session(ctx3)
    tables = sess.plane.tables
    assert norm_det_relation(sess).passed
    P = (1, 2, 5)
    orbit_det = tables._orbit_det

    def wrong_det(x, y, z):
        det, c01 = orbit_det(x, y, z)
        hit = (x == P[0]) & (y == P[1]) & (z == P[2])
        return np.where(hit, det % (ctx3.q3 - 1) + 1, det), c01

    tables._orbit_det = wrong_det
    e = norm_det_relation(sess)
    assert not e.passed
    assert format_point(P) in e.witnesses
    assert e.counts == {"points": 26 ** 2, "mode": "exhaustive"}


def _flip_a_type(sess, kind):
    """The first Type III entry of the type table relabelled Type II."""
    types = sess.plane.tables.types.copy()
    types[np.argmax(types == TYPE_III)] = TYPE_II
    sess.plane.tables.types = types
    return [f"type II: 313 {kind}s, expected 312", f"type III: 431 {kind}s, expected 432"]


def _relabel_a_class(sess):
    """The first plane_II_III class relabelled plane_III_II."""
    cats = sess.classes.categories.copy()
    cats[np.argmax(cats == CATEGORIES.index("plane_II_III"))] = CATEGORIES.index("plane_III_II")
    sess.classes = replace(sess.classes, categories=cats)
    return ["category plane_II_III: 20 classes, expected 21",
            "category plane_III_II: 22 classes, expected 21"]


def _duplicate_a_row(sess, pick=slice(0, 2)):
    """The member row of the first class that is not a vertex made in place
    of the second's (or of the two that ``pick`` takes, in order): the
    points of the first lie in two classes, and those of the second in none."""
    classes = replace(sess.classes)
    first, second = np.flatnonzero(classes.categories != VERTEX)[pick]
    a, b = classes.members([first, second])
    cover = {i: 2 for i in a.tolist()} | {i: 0 for i in b.tolist()}
    real = classes.members

    def members(j):
        rows = real(j)
        rows[np.asarray(j) == second] = a
        return rows
    classes.members = members
    sess.classes = classes
    return [f"{format_point(sess.plane.point(i))} lies in {cover[i]} classes"
            for i in sorted(cover)[:5]]


@pytest.mark.parametrize("check, corrupt", [
    (partial(type_tally, kind="point"), partial(_flip_a_type, kind="point")),
    (partial(type_tally, kind="line"), partial(_flip_a_type, kind="line")),
    (categories, _relabel_a_class),
    (orbit_sizes, _duplicate_a_row),
    (orbit_sizes, partial(_duplicate_a_row, pick=slice(-2, None))),
], ids=["point-types", "line-types", "categories", "orbit-sizes", "orbit-sizes-last-rows"])
def test_census_entries_fail_on_a_corrupted_artifact(ctx3, check, corrupt):
    """Each census entry passes on a fresh session at q = 3 and fails,
    naming what is wrong, when the artifact it reads is corrupted: the
    type table, the class categories or the member rows, of the first two
    classes that are not vertices or of the last two."""
    assert check(Session(ctx3)).passed
    sess = Session(ctx3)
    witnesses = corrupt(sess)
    e = check(sess)
    assert not e.passed and e.witnesses == witnesses


def _count_rows(sess, trade=()):
    """Rebind the session's ``members`` to count the rows it is asked for,
    and to make the rows of the two classes in ``trade`` each in the
    other's place."""
    made, real = [], sess.classes.members
    swap = dict(zip(trade, trade[::-1]))

    def members(j):
        j = np.atleast_1d(j)
        made.append(len(j))
        return real([swap.get(c, c) for c in j.tolist()])
    sess.classes = replace(sess.classes)
    sess.classes.members = members
    return made


def test_orbit_sizes_certifies_the_cover_from_the_labels(ctx3, monkeypatch):
    """On the true partition the orbit labels certify the cover: every
    member row is made once, a chunk of one row at a time, and no point is
    counted.  Two classes trading rows fail the certificate, yet still
    cover the plane once, so the count that follows passes them."""
    monkeypatch.setattr("figplane.arrays.CHUNK", ctx3.sub_order)
    sess = Session(ctx3)
    full = np.flatnonzero(sess.classes.categories != VERTEX).tolist()
    made = _count_rows(sess)
    monkeypatch.setattr(np, "bincount", None)
    assert orbit_sizes(sess).passed and made == [1] * len(full)
    monkeypatch.undo()
    sess = Session(ctx3)
    made = _count_rows(sess, trade=tuple(full[:2]))
    e = orbit_sizes(sess)
    assert e.passed and e.witnesses == [] and sum(made) > len(full)


def _side_points(sess):
    """Indices of the points of the side subplanes and their conjugates."""
    idx = sess.plane.index
    return {idx(collineate_point(sess.ctx, P, s))
            for th in sess.norm_reps() for P in triples(sess.ctx, t_plane(sess.ctx, th).points)
            for s in range(3)}


def _generic_rows(sess):
    """Positions of the all-Type-III classes off the side subplanes and
    their conjugates."""
    side, reps = _side_points(sess), sess.classes.reps
    return [j for j in sess.classes.of("plane_III_III").tolist() if reps[j] not in side]


def test_mu_checks_report_a_swapped_entry(ctx3):
    """Swap the involution images of a point of a side subplane, whose
    image passes through the anchor, and of a point of a generic subplane,
    whose image does not: the twist names the first, generic-plane the
    class of the second."""
    sess = Session(ctx3)
    plane, tables = sess.plane, sess.plane.tables
    assert generic_plane(sess).passed and block_incidence_twist(sess).passed
    side = _side_points(sess)
    generic = _generic_rows(sess)
    first = sess.classes.members(generic[:1])[0]
    mu = tables.mu.copy()
    i = next(k for k in sorted(side)
             if tables.types[k] == TYPE_III and plane.point(mu[k])[2] == 0)
    j = first[1]
    mu[i], mu[j] = mu[j], mu[i]
    tables.mu = mu

    twist = block_incidence_twist(sess)
    assert not twist.passed
    assert format_point(plane.points[i]) in twist.witnesses
    generic_entry = generic_plane(sess)
    assert not generic_entry.passed
    assert (f"point image of {format_point(plane.point(first[0]))} is no orbit line set"
            in generic_entry.witnesses)
    assert generic_entry.counts == {"tested": len(generic), "mode": "exhaustive"}
    (involution,) = [e for e in maps_checks(sess, "mu") if e.id == "mu.involution"]
    assert not involution.passed


@pytest.mark.parametrize("corruption", ["repeated", "mixed", "off-orbit"])
def test_generic_plane_needs_one_orbit_line_set(ctx3, corruption):
    """The point image of a generic subplane fails when two of its points
    share an image line, when its image lines lie in two orbit line sets,
    or when every image line is off the orbit line sets: here the lines
    [1:b:0] through the anchor."""
    sess = Session(ctx3)
    tables = sess.plane.tables
    members, other = sess.classes.members(_generic_rows(sess)[:2]).tolist()
    mu = tables.mu.copy()
    if corruption == "repeated":
        mu[members[1]] = mu[members[0]]
    elif corruption == "mixed":
        mu[members[0]], mu[other[0]] = mu[other[0]], mu[members[0]]
    else:
        mu[members] = [sess.plane.index((1, b, 0)) for b in range(len(members))]
    tables.mu = mu
    e = generic_plane(sess)
    assert not e.passed
    rep = format_point(sess.plane.point(members[0]))
    assert f"point image of {rep} is no orbit line set" in e.witnesses


def test_twist_reads_block_membership_from_the_block(ctx3, monkeypatch):
    """Membership comes from the anchor block that ``fig_rows`` assembles,
    anchor incidence from the index arithmetic on ``mu``: a block that lost
    one Type III point fails at that point."""
    import figplane.figueroa as fg
    sess = Session(ctx3)
    block = fg.anchor_block(sess.plane, fg.ANCHOR)
    i = block[np.argmax(sess.plane.tables.types[block] == TYPE_III)]
    monkeypatch.setattr(fg, "anchor_block", lambda plane, anchor: block[block != i])
    e = block_incidence_twist(sess)
    assert not e.passed and e.witnesses == [format_point(sess.plane.point(i))]


def test_rejects_fixed_objects_names_the_map_that_accepts(ctx3, monkeypatch):
    sess = Session(ctx3)
    assert rejects_fixed_objects(sess).passed
    monkeypatch.setattr("figplane.maps.conjugate_meet", lambda ctx, l: (0, 0, 1))
    e = rejects_fixed_objects(sess)
    assert not e.passed
    assert e.witnesses == ["conjugate_meet accepted the Type I object 1:1:1"]


@pytest.mark.parametrize("verdict", ["accepted it", "rejected it with no witness"])
def test_axioms_mutation_names_the_swapped_line_when_not_caught(ctx3, monkeypatch, verdict):
    """A row pass that reads the mutation as if it kept no line accepts it;
    one that drops the witnesses rejects it with none.  Either way the
    entry fails and names the line whose block was swapped back."""
    sess = Session(ctx3)
    assert axioms_mutation(sess).passed
    facts = sess.row_facts("axioms")
    facts["mutation"] = (facts["axioms"] if verdict == "accepted it"
                         else replace(facts["mutation"], witnesses=[]))
    e = axioms_mutation(sess)
    i = int(np.argmax(sess.plane.tables.types == TYPE_III))
    assert not e.passed
    assert e.witnesses == [f"block {format_line(sess.plane.point(i))} swapped back to "
                           f"its line: the axiom checker {verdict}"]


@pytest.mark.parametrize("q", [3, 4])
def test_pencil_census_without_a_type_ii_pencil_fails(q, monkeypatch):
    """With every pencil Type III the entry fails and names the pencil
    classes; at even q the pencil of -1 must be the Type II one as well.
    The entry reads the pencil types from the type table, in which every
    Type II line is made Type III."""
    ctx = build_field_tower(*{3: (3, 1), 4: (2, 2)}[q])
    sess = Session(ctx)
    types = sess.plane.tables.types
    sess.plane.tables.types = np.where(types == TYPE_II, TYPE_III, types)
    e = pencil_census(sess)
    assert not e.passed and e.counts == {"type_II": 0, "type_III": q - 1}
    want = [f"Type II pencil classes []; expected one, the other {q - 2} Type III"]
    if q == 4:
        want.append("pencil class 0, the norm class of -1, is Type III, expected II")
    assert e.witnesses == want


def test_splash_involution_names_a_collision_and_the_point_it_misses(ctx3, monkeypatch):
    """A splash that sends the conjugate join of the second Type III block
    point, in the order of the triples, where that of the first goes."""
    import figplane.figueroa as fg
    import figplane.maps as gm
    plane = Session(ctx3).plane
    block = fg.anchor_block(plane, fg.ANCHOR)
    P, Q = sorted(plane.point(i) for i in block[plane.tables.types[block] == TYPE_III])[:2]
    image_p, line_q = splash(ctx3, gm.conjugate_join(ctx3, P)), gm.conjugate_join(ctx3, Q)
    assert splash_involution(Session(ctx3)).passed
    real, at_p, at_q = gm.anchor_cross, plane.index(image_p), plane.index(line_q)
    monkeypatch.setattr(gm, "anchor_cross", lambda tables, i: np.where(
        np.asarray(i) == at_q, at_p, real(tables, i)))
    e = splash_involution(Session(ctx3))
    assert not e.passed and e.counts["injective"] == "False"
    assert e.witnesses == [
        f"{format_point(P)} and {format_point(Q)} both go to {format_point(image_p)}",
        f"missing {format_point(splash(ctx3, line_q))}"]


def first_off_axis(plane, block):
    """The first point of a block that is off the axis."""
    return next(i for i in block if plane.point(i)[2] != 0)


def short_of_one_point(anchor_block):
    """``anchor_block`` that leaves ``first_off_axis`` out of every block."""
    def short(plane, anchor):
        block = anchor_block(plane, anchor)
        return block[block != first_off_axis(plane, block)]
    return short


@pytest.mark.parametrize("check", [block_anatomy, block_incidence_twist, projection_anchor,
                                   projection_conjugates, characterization,
                                   even_structure, splash_involution])
def test_every_block_entry_fails_on_a_block_short_of_one_point(ctx4, monkeypatch, check):
    """The seven entries that read the anchor block each fail, with a
    witness, when the block lacks one point."""
    import figplane.figueroa as fg
    sess = Session(ctx4)
    assert check(sess).passed
    monkeypatch.setattr(fg, "anchor_block", short_of_one_point(fg.anchor_block))
    e = check(sess)
    assert not e.passed and e.witnesses


def test_block_projections_name_the_axis_points_they_miss(ctx3, monkeypatch):
    """A block short of one point projects onto the axis minus that point's
    image; the projection entries name the missing point, per conjugate."""
    import figplane.figueroa as fg
    from set_oracle import project_from_anchor
    sess = Session(ctx3)
    plane = sess.plane
    lost = [project_from_anchor(ctx3, plane.point(first_off_axis(plane, fg.anchor_block(plane, A))))
            for A in (fg.ANCHOR, ANCHOR_1)]
    monkeypatch.setattr(fg, "anchor_block", short_of_one_point(fg.anchor_block))
    e = projection_anchor(sess)
    assert not e.passed and e.witnesses == [f"missing {format_point(lost[0])}"]
    e = projection_conjugates(sess)
    assert not e.passed and e.witnesses == [f"conjugate 1: missing {format_point(lost[1])}"]


def test_club_images_without_a_club_name_the_scanned_counts(ctx3):
    sess = Session(ctx3)
    vc = sess.fixed_census
    assert club_images(sess).passed and vc.club > 0
    sess.fixed_census = VertexCensus(vc.by_class, 0, vc.other)
    e = club_images(sess)
    sls = sum(vc.counts().values())
    assert not e.passed and e.witnesses == [
        f"no club image among {sls + vc.other} scanned vertices:"
        f" {sls} side linear sets, {vc.other} other"]


@pytest.mark.parametrize("check, scan", [(collineation_fixed, "phi_fixed_planes"),
                                         (involution_fixed, "mu_fixed_planes")])
def test_fixed_scan_that_finds_nothing_names_the_expected_planes(ctx4, monkeypatch,
                                                                  check, scan):
    from figplane.maps import expected_phi_fixed_reps
    sess = Session(ctx4)
    assert check(sess).passed
    monkeypatch.setattr(f"figplane.maps.{scan}", lambda plane, classes: [])
    e = check(sess)
    reps = [R for R in expected_phi_fixed_reps(ctx4)
            if check is collineation_fixed or R != (1, 1, 1)]
    assert not e.passed and e.counts["found"] == 0 and len(reps) == e.counts["expected"]
    assert e.witnesses == [f"no class is the subplane through {format_point(R)}"
                           for R in reps]


def test_fixed_scan_that_finds_every_plane_names_five(ctx3, monkeypatch):
    """A scan that returns every plane class fails, and its entry names the
    least five representatives, in its counts and as its witnesses; with
    more classes than it expects it makes no member row."""
    sess = Session(ctx3)
    planes = np.flatnonzero(sess.classes.categories >= CATEGORIES.index("plane_I_I"))
    monkeypatch.setattr("figplane.maps.phi_fixed_planes", lambda plane, classes: planes)
    monkeypatch.setattr(type(sess.classes), "members", lambda self, j: pytest.fail(
        f"made the member rows of {len(j)} classes"))
    e = collineation_fixed(sess)
    least = [format_point(sess.plane.point(r)) for r in sess.classes.reps[planes[:5]]]
    assert not e.passed and e.counts["found"] == len(planes) == 52
    assert e.counts["representatives"] == " ".join(least) and e.witnesses == least


def test_block_sizes_report_a_repeated_point(fig3):
    """The row control of the block sizes, ``fig.build-rows``, names the
    anchor of a row that repeats a point."""
    sess = Session(fig3.plane.ctx)
    sess.plane = fig3.plane
    assert build_rows(sess).passed
    types = fig3.plane.tables.types
    i = list(types).index(TYPE_III)
    blocks = held(fig3).blocks.copy()
    blocks[i, 1] = blocks[i, 0]
    # a fresh session: the build pass of the first one is cached
    sess = Session(fig3.plane.ctx)
    sess.plane, sess.fig_structure = fig3.plane, HeldRows(fig3.plane, blocks)
    e = build_rows(sess)
    assert not e.passed
    anchor = fig3.plane.points[fig3.plane.tables.mu[i]]
    assert e.witnesses == [format_point(anchor), "collineation_invariant"]
    assert e.counts == {"anchors": 432, "mode": "exhaustive"}


@pytest.mark.parametrize("out_type, in_type", [(TYPE_II, TYPE_III), (TYPE_III, TYPE_I)],
                         ids=["II-for-III", "III-for-I"])
def test_block_sizes_count_the_point_types(fig3, out_type, in_type):
    """A sorted block of k distinct points still fails the row control of
    the block sizes when it has one Type II point too few, or a Type I
    point."""
    plane = fig3.plane
    types = plane.tables.types
    sess = Session(plane.ctx)
    sess.plane = plane
    i = list(types).index(TYPE_III)
    row = set(fig3.rows([i])[0].tolist())
    out = next(P for P in sorted(row) if types[P] == out_type)
    into = next(P for P in range(plane.size) if types[P] == in_type and P not in row)
    blocks = held(fig3).blocks.copy()
    blocks[i] = sorted(row - {out} | {into})
    sess.fig_structure = HeldRows(plane, blocks)
    e = build_rows(sess)
    assert not e.passed
    assert e.witnesses[0] == format_point(plane.points[plane.tables.mu[i]])


@pytest.mark.parametrize("corruption", ["split", "recategorized"])
def test_collineation_permutes_reports_a_wrong_image(ctx3, corruption):
    """Two points of one category trading images split both their classes'
    images; a class mapped onto a class of another category keeps one
    image class."""
    sess = Session(ctx3)
    assert collineation_permutes(sess).passed
    members, of = sess.classes.members, sess.classes.of
    a, b = members(of("plane_II_III")[:2])
    phi = sess.plane.tables.phi.copy()
    if corruption == "split":
        phi[[a[0], b[0]]] = phi[[b[0], a[0]]]
        want = [a[0], b[0]]
    else:
        phi[a] = members(of("plane_III_II")[:1])[0]
        want = [a[0]]
    sess.plane.tables.phi = phi
    e = collineation_permutes(sess)
    assert not e.passed
    assert e.witnesses == [format_point(sess.plane.point(r)) for r in want]


@pytest.mark.parametrize("corruption, image", [("repeated", "point"), ("missing", "point"),
                                               ("no-secant", "line")])
def test_plane_images_report_a_wrong_table_entry(ctx3, corruption, image):
    """A point of a side subplane that shares the involution image of
    another of its points or has none (-1) breaks the point image of its
    plane; one without a secant (-1) breaks the line image."""
    sess = Session(ctx3)
    tables = sess.plane.tables
    assert plane_images(sess).passed
    th = next(t for t in sess.norm_reps() if ctx3.norm(t) != 1)
    P, Q = t_plane(ctx3, th).points[:2]
    if corruption == "no-secant":
        sec = tables.sec
        tables.sec = lambda i: np.where(np.asarray(i) == P, -1, sec(i))
    else:
        mu = tables.mu.copy()
        mu[P] = mu[Q] if corruption == "repeated" else -1
        tables.mu = mu
    e = plane_images(sess)
    assert not e.passed
    assert f"{image} image of plane {th}" in e.witnesses
    assert e.counts == {"norm_classes": ctx3.q - 2}


def test_t_planes_report_a_moved_subplane(ctx3, monkeypatch):
    """The side subplane of norm class 1 replaced by its conjugate on
    side 1 (the class 0 one is the fixed subplane, which the collineation
    fixes): neither its anchor projection nor its splash is the
    squared-norm linear set."""
    import figplane.linear_sets as ls
    sess = Session(ctx3)
    assert t_plane_images(sess).passed
    th = sess.norm_reps()[1]
    real = ls.t_plane
    monkeypatch.setattr(ls, "t_plane", lambda ctx, theta: as_rows(ctx, conjugate_subplane(
        ctx, as_triples(ctx, real(ctx, theta)))) if theta == th else real(ctx, theta))
    e = t_plane_images(sess)
    assert not e.passed
    assert e.witnesses == [f"projection of plane {th}", f"splash of plane {th}"]


@pytest.mark.parametrize("q", [3, 4])
def test_parity_table_reports_a_type_table_without_type_ii(q):
    """With every Type II point and line made Type III in the type table,
    the norm-one pencil and the Type II linear set of the parity rule fail."""
    sess = Session(build_field_tower(*{3: (3, 1), 4: (2, 2)}[q]))
    assert parity_table(sess).passed
    types = sess.plane.tables.types
    sess.plane.tables.types = np.where(types == TYPE_II, TYPE_III, types)
    e = parity_table(sess)
    assert not e.passed
    assert e.witnesses == (["pencil_of_one_is_type_II", "s1_type_II"] if q == 4 else
                           ["pencil_of_one_is_type_II", "s_minus1_type_II"])
    assert e.counts["pencil_of_one_is_type_II"] == "False"


def test_vs_splash_reports_an_anchor_image_short_of_a_point(ctx3, monkeypatch):
    """A vertex projection from the anchor that loses an image point, so
    that its image is no side linear set (kind OTHER), differs from the
    anchor projection of every side subplane."""
    sess = Session(ctx3)
    assert projection_vs_splash(sess).passed
    tables = sess.plane.tables
    real, anchor = tables.project, sess.plane.size - 1
    monkeypatch.setattr(tables, "project", lambda V, P: np.where(
        np.asarray(V) == anchor, OTHER, real(V, P)))
    e = projection_vs_splash(sess)
    assert not e.passed
    assert e.witnesses == [f"anchor projection of plane {th}" for th in sess.norm_reps()]


def test_count_spectrum_reports_a_count_outside_it(ctx3):
    """At q = 3 the spectrum is {0, 13, 14}, and the fixed subplane has its
    14 vertices in one norm class; with two of them dropped it has 12."""
    sess = Session(ctx3)
    assert count_spectrum(sess).passed
    vc = sess.fixed_census
    j, count = next((j, c) for j, c in vc.counts().items() if c)
    assert count == 14
    sess.fixed_census = VertexCensus({**vc.by_class, j: vc.by_class[j][2:]},
                                     vc.club, vc.other)
    e = count_spectrum(sess)
    assert not e.passed
    assert e.witnesses == [f"class {j}: 12"]


def test_vertex_census_reports_a_wrong_class_count(ctx3):
    sess = Session(ctx3)
    assert vertices_census(sess).passed
    vc = sess.fixed_census
    j, count = next((j, c) for j, c in vc.counts().items() if c)
    sess.fixed_census = VertexCensus({**vc.by_class, j: vc.by_class[j][1:]},
                                     vc.club, vc.other)
    e = vertices_census(sess)
    assert not e.passed
    assert e.witnesses == [f"norm class {j}: {count - 1} vertices, expected {count}"]


def test_cross_plane_reports_a_wrong_projection(ctx3, ctx4):
    """A projection that misclassifies the least point of each side
    subplane as a vertex fails every ordered pair of side subplanes, each
    with that vertex, in the order of the projecting plane; at q = 4 each
    projection call holds the vertices of two planes."""
    for ctx in (ctx3, ctx4):
        sess = Session(ctx)
        assert cross_plane(sess).passed
        tables = sess.plane.tables
        project = tables.project
        reps = sess.norm_reps()
        least = {t_plane(ctx, kappa).points[0] for kappa in reps}
        tables.project = lambda V, B: np.where(
            [v in least for v in np.asarray(V).tolist()], OTHER, project(V, B))
        e = cross_plane(sess)
        assert not e.passed
        assert e.witnesses == [
            f"vertex {format_point(sess.plane.point(t_plane(ctx, kappa).points[0]))} of plane "
            f"{kappa} onto plane {theta}"
            for kappa in reps for theta in reps if theta != kappa][:5]


def test_figueroa_run_holds_no_block_array(monkeypatch, capsys):
    """After a figueroa run no (n, k) array is held: the plane tables cache
    no incidence table and no other 2-D table, and the FIG is a row source
    that makes its rows when read."""
    import figplane.cli as cli
    sessions = []

    class Recorded(Session):
        def __init__(self, ctx):
            super().__init__(ctx)
            sessions.append(self)

    monkeypatch.setattr(cli, "Session", Recorded)
    assert main(["verify", "--q", "5", "--suite", "figueroa"]) == 0
    capsys.readouterr()
    (sess,) = sessions
    tables = vars(sess.plane.tables)
    assert "incidence" not in tables and "phi" in tables
    assert all(v.ndim == 1 for v in tables.values() if isinstance(v, np.ndarray))
    assert sess.fig_structure.shape == (sess.plane.size, 126)
    assert not hasattr(sess.fig_structure, "blocks")
    assert "fig_lookup" in tables           # the E and F lookup tables, one entry a point


def test_census_and_maps_build_no_dickson_table(monkeypatch, capsys):
    """Only the row pass reads the Dickson and torus collineations, the walk
    of every FIG pass tau's line table and the axiom readers both: a census
    and maps run, which reads no FIG row, leaves them unbuilt."""
    import figplane.cli as cli
    sessions = []

    class Recorded(Session):
        def __init__(self, ctx):
            super().__init__(ctx)
            sessions.append(self)

    monkeypatch.setattr(cli, "Session", Recorded)
    for suite in ("census", "maps"):
        assert main(["verify", "--q", "4", "--suite", suite]) == 0
    capsys.readouterr()
    for sess in sessions:
        tables = vars(sess.plane.tables)
        assert not {"tau", "dickson", "_dickson_rows"} & set(tables)


def _held_arrays(root) -> dict[int, np.ndarray]:
    """Every numpy array reachable from the attributes of ``root`` through
    the attributes of figplane objects and through dicts, lists and
    tuples, by id."""
    found, seen, todo = {}, set(), list(vars(root).values())
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found[id(obj)] = obj
        elif isinstance(obj, dict):
            todo.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            todo.extend(obj)
        elif type(obj).__module__.startswith("figplane") and hasattr(obj, "__dict__"):
            todo.extend(vars(obj).values())
    return found


@pytest.mark.parametrize("q", [3, 4])
def test_census_and_maps_hold_only_the_four_point_tables(monkeypatch, capsys, q):
    """After a census run and a maps run, the Session, its plane's tables,
    the orbit classes and the vertex census hold no n-entry array but the
    type, involution, collineation and orbit tables: the secants and the
    member rows are made when read, and the vertex census keeps no
    per-point kinds."""
    import figplane.cli as cli
    sessions = []

    class Recorded(Session):
        def __init__(self, ctx):
            super().__init__(ctx)
            sessions.append(self)

    monkeypatch.setattr(cli, "Session", Recorded)
    for suite in ("census", "maps"):
        assert main(["verify", "--q", str(q), "--suite", suite]) == 0
    capsys.readouterr()
    for sess in sessions:
        assert {"tables", "classes"} <= set(vars(sess))
        tables, n = sess.plane.tables, sess.plane.size
        # n - 3 entries are the member rows of every class but the vertices;
        # the field's q^6-entry lookup tables hold fewer
        held = [a for a in _held_arrays(sess).values() if a.size >= n - 3]
        assert sorted(map(id, held)) == sorted(map(id, (tables.types, tables.mu,
                                                        tables.phi, tables.orbit)))
    assert "fixed_census" in vars(sessions[1]) and "census" in vars(sessions[0])


def _corrupt_a_pg_row(sess, monkeypatch):
    """PG's row 0 made with its last point traded for the least point off
    line 0, in the closed-form rows that ``pg_incidence`` reads."""
    tables = sess.plane.tables
    real = tables.incidence_rows
    row = real([0])[0]
    off = next(P for P in range(sess.plane.size) if P not in row)
    wrong = np.sort(np.append(row[:-1], off)).astype(np.int32)

    def rows(L):
        out = real(L)
        out[np.asarray(L) == 0] = wrong
        return out
    monkeypatch.setattr(tables, "incidence_rows", rows)


def _shift_the_pencils(sess, monkeypatch):
    """Each norm class reads the pencil of the next one."""
    import figplane.linear_sets as ls
    real, ctx = ls.pencil_lines, sess.ctx
    monkeypatch.setattr(ls, "pencil_lines", lambda ctx, theta: real(
        ctx, ctx.norm_class_rep((ctx.norm_class(theta) + 1) % (ctx.q - 1))))


def _unclassify_a_block_member(sess, monkeypatch):
    """The vertex kinds the fixed census reads, with the orbit of the first
    off-axis point of the anchor block projecting onto no side linear set."""
    import figplane.figueroa as fg
    tables = sess.plane.tables
    i = first_off_axis(sess.plane, fg.anchor_block(sess.plane, fg.ANCHOR))
    real = tables.vertex_kinds

    def kinds(B):
        reps, out = real(B)
        return reps, np.where(reps == tables.orbit[i], OTHER, out)
    monkeypatch.setattr(tables, "vertex_kinds", kinds)


@pytest.mark.parametrize("check, corrupt", [
    (axioms_reference, _corrupt_a_pg_row),
    (arching, _shift_the_pencils),
    (characterization, _unclassify_a_block_member),
], ids=["axioms-reference", "arching", "characterization"])
def test_figueroa_entries_fail_on_a_corrupted_table(ctx3, monkeypatch, check, corrupt):
    """Each entry passes on a fresh session at q = 3 and fails with a
    witness when a table or function it reads is corrupted: PG's rows for
    the reference axiom check, the pencils for the arching census, the
    vertex kinds for the characterization."""
    assert check(Session(ctx3)).passed
    sess = Session(ctx3)
    corrupt(sess, monkeypatch)
    e = check(sess)
    assert not e.passed and e.witnesses


def test_build_makes_each_fig_row_once(ctx4):
    """The build facts row by row, the control ``fig.build-rows``, read one
    pass over the FIG in chunks closed under phi, so the phi image of each
    row is a row of its chunk: it makes n rows, not 2n, nor n more for the
    Type III rows alone.  The build group, equivariant, makes no row of
    the structure."""
    from figplane.figueroa import IncidencePlane

    class Counted(IncidencePlane):
        made = 0

        def rows(self, L):
            self.made += len(L)
            return super().rows(L)

    sess = Session(ctx4)
    sess.fig_structure = Counted(sess.plane, kept=sess.fig_structure.kept)
    entries = {e.id: e for e in run_checks(sess, "figueroa", "build")}
    assert entries["fig.block-sizes"].passed and entries["fig.build"].passed
    assert sess.fig_structure.made == 0
    assert build_rows(sess).passed
    assert sess.fig_structure.made == sess.plane.size == 4161


@pytest.mark.parametrize("q", [3, 4])
def test_one_walk_reports_as_the_one_structure_calls(q, monkeypatch):
    """The figueroa suite, named, builds the row pass with one walk for its
    four readers, whose facts are those of a walk for the build reader
    alone and of three ``check_axioms`` calls: on the FIG, on PG and on the
    FIG with the first Type III line kept."""
    import dataclasses
    import figplane.figueroa as fg
    import figplane.row_pass as rp
    sess = Session(build_field_tower(*{3: (3, 1), 4: (2, 2)}[q]))
    walks, real = [], rp.walk
    monkeypatch.setattr(rp, "walk", lambda *a: walks.append(a) or real(*a))
    entries = {e.id: e for e in figueroa_checks(sess)}
    assert len(walks) == 1 and all(e.passed for e in entries.values())
    facts, fig = sess.row_pass, sess.fig_structure
    assert set(facts) == set(rp.READERS)
    monkeypatch.setattr(rp, "walk", real)
    kept = dataclasses.replace(fig, kept=(fg.mutated_line(sess.plane.tables),))
    assert facts["axioms"] == fg.check_axioms(fig)
    assert facts["reference"] == fg.check_axioms(fg.pg_incidence(sess.plane))
    assert facts["mutation"] == fg.check_axioms(kept) and not facts["mutation"].ok
    (bad, build), (want_bad, want_build) = facts["build"], rp.read_rows(fig, ("build",))["build"]
    assert np.array_equal(bad, want_bad) and build == want_build


def test_a_second_selection_walks_for_the_readers_it_lacks(ctx4, monkeypatch):
    """One Session reads the build facts row by row, then runs the axioms
    group: the second walks the rows once, for the three axiom readers
    alone, and the axioms group run again, or the build group, walks none."""
    import figplane.row_pass as rp
    sess, walks, read, real = Session(ctx4), [], [], rp.read_rows
    monkeypatch.setattr(rp, "walk", lambda *a, real=rp.walk: walks.append(a) or real(*a))
    monkeypatch.setattr(rp, "read_rows", lambda s, readers: read.append(set(readers))
                        or real(s, readers))
    assert build_rows(sess).passed and len(walks) == 1
    for group in ("axioms", "axioms", "build"):
        entries = figueroa_checks(sess, group)
        assert entries and all(e.passed for e in entries) and len(walks) == 2, group
    assert read == [{"build"}, {"axioms", "reference", "mutation"}]
    assert set(sess.row_pass) == set(rp.READERS)


class _Counted(IncidencePlane):
    """A FIG row source that counts the rows it makes."""
    made = 0

    def rows(self, L):
        self.made += len(L)
        return super().rows(L)


@pytest.mark.parametrize("argv, passes", [(["verify"], 0), (["figueroa", "--check", "build"], 0),
                                          (["figueroa", "--check", "axioms"], 2)])
def test_a_run_makes_each_fig_row_once_per_pass(argv, passes, monkeypatch, capsys):
    """One walk serves every reader a run selects: the axioms group makes
    each FIG row twice, as itself and as a Dickson image, for the build
    facts and the axiom reports alike.  The default run and the build
    group walk no row: they make only the rows through the representatives
    and the anchor blocks, fewer than one row in ten at q = 4.  Made
    through ``fig_rows``, which hands on the lines, the walk makes the same
    rows."""
    import figplane.figueroa as fg
    from figplane.arrays import PlaneTables
    sources = []
    monkeypatch.setattr(fg, "build_fig_plane",
                        lambda plane: sources.append(_Counted(plane, kept=())) or sources[-1])
    assert main(argv[:1] + ["--q", "4"] + argv[1:]) == 0
    assert [s.made for s in sources] == [passes * 4161]
    monkeypatch.undo()
    calls, real = [], PlaneTables.fig_rows
    monkeypatch.setattr(PlaneTables, "fig_rows",
                        lambda self, L, *a, **kw: calls.append(len(L)) or real(self, L, *a, **kw))
    assert main(argv[:1] + ["--q", "4"] + argv[1:]) == 0
    walked = sum(m for m in calls if m > 65)    # a chunk of the walk holds 252 rows at q = 4
    assert walked == passes * 4161 and sum(calls) - walked < 4161 / 10


def test_build_entries_fail_with_their_own_witnesses_from_one_pass(fig3):
    """One repeated point in the first Type III row, read through one
    shared pass: ``fig.build-rows`` names the row's anchor and the
    invariance its phi image breaks, and nothing else; the equivariant
    ``fig.block-sizes`` and ``fig.build`` read the closed form, not the
    held rows, and pass."""
    plane = fig3.plane
    i = list(plane.tables.types).index(TYPE_III)
    blocks = held(fig3).blocks.copy()
    blocks[i, 1] = blocks[i, 0]
    sess = Session(plane.ctx)
    sess.plane, sess.fig_structure = plane, HeldRows(plane, blocks)
    rows = build_rows(sess)
    assert not rows.passed
    assert rows.witnesses == [format_point(plane.points[plane.tables.mu[i]]),
                              "collineation_invariant"]
    assert block_sizes(sess).passed and assembly(sess).passed


@pytest.mark.parametrize("fault, column", [
    ("short", None), ("long", None),
    (-1, 0), (-1, -1), ("n", 0), ("n", -1), (10 ** 6, 0), (10 ** 6, -1), (-10 ** 6, 0),
], ids=lambda v: str(v))
def test_build_entries_fail_on_a_malformed_structure(fig3, fault, column):
    """Blocks one column short or long, or the first Type III row holding an
    entry outside [0, n) at its first or last column: neither build entry
    raises: ``fig.build-rows`` names the bad row's anchor (the first five
    anchors when no row has the width of a block), then its failing
    sub-checks, and ``fig.axioms`` fails too, with a witness."""
    plane = fig3.plane
    n, tables = plane.size, plane.tables
    i = list(tables.types).index(TYPE_III)
    blocks = held(fig3).blocks.copy()
    if fault == "short":
        blocks = blocks[:, :-1]
    elif fault == "long":
        blocks = np.pad(blocks, ((0, 0), (0, 1)), mode="edge")
    else:
        blocks[i, column] = n if fault == "n" else fault
    sess = Session(plane.ctx)
    sess.plane, sess.fig_structure = plane, HeldRows(plane, blocks)
    rows, axiom_entry = build_rows(sess), axioms(sess)
    anchors = [format_point(plane.point(a)) for a in tables.mu[tables.types == TYPE_III]]
    assert not rows.passed
    if column is None:
        assert rows.witnesses == anchors[:5] + ["kept_lines_agree", "blocks_differ_from_lines",
                                                "collineation_invariant"]
    else:
        assert rows.witnesses == anchors[:1] + ["collineation_invariant"]
    assert not axiom_entry.passed and axiom_entry.witnesses
