import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from figplane.arrays import KernelError
from figplane.cli import main
from figplane.collineation import OrbitInconsistency
from figplane.field import order_of, table_bytes
from figplane.figueroa import FIGUEROA
from figplane.plane import GeometryError
from figplane.report import Report, entry
from figplane.suites import EVEN_Q, check_groups, selected

from conftest import child_env

DATA = Path(__file__).parent / "data"


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_verify_q3_all_passes(capsys):
    code, out = run_cli(["verify", "--q", "3", "--suite", "all",
                         "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert len(doc["checks"]) >= 20
    assert all(c["status"] == "pass" for c in doc["checks"])
    assert doc["header"]["field"]["p"] == 3
    assert set(doc["checks"][0]) == {"id", "claim", "status", "counts", "witnesses"}


def test_verify_rejects_q2_figueroa(capsys):
    assert main(["verify", "--q", "2", "--suite", "figueroa"]) == 2
    err = capsys.readouterr().err
    assert "q > 2" in err


def test_verify_rejects_non_prime_power(capsys):
    assert main(["verify", "--q", "6", "--suite", "census"]) == 2


def test_census_csv_q3(capsys):
    code, out = run_cli(["census", "--q", "3", "--format", "csv"], capsys)
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "category,count,orbit_size,point_type,line_type"
    table = {r.split(",")[0]: r.split(",")[1:] for r in rows[1:]}
    assert table["vertex"][0] == "3"
    assert table["sls_III"][0] == "3"
    assert table["plane_III_III"][0] == "9"
    counts = [int(r.split(",")[1]) for r in rows[1:]]
    assert sum(counts) == 61
    assert table["vertex"][1:] == ["1", "III", ""]
    assert table["plane_II_III"][1:] == ["13", "II", "III"]


def test_census_csv_q4(capsys):
    code, out = run_cli(["census", "--q", "4", "--format", "csv"], capsys)
    rows = out.strip().splitlines()[1:]
    got = [int(r.split(",")[1]) for r in rows]
    assert got == [3, 3, 6, 1, 57, 57, 74]


def test_census_json_summary(capsys):
    code, out = run_cli(["census", "--q", "3", "--format", "json"], capsys)
    doc = json.loads(out)
    assert doc["header"]["summary"] == {
        "vertex": 3, "sls_II": 3, "sls_III": 3, "plane_I_I": 1,
        "plane_II_III": 21, "plane_III_II": 21, "plane_III_III": 9}


def test_maps_fixed_lists_representatives(capsys):
    code, out = run_cli(["maps", "--q", "4", "--check", "fixed",
                         "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    by_id = {c["id"]: c for c in doc["checks"]}
    assert by_id["fixed.collineation"]["counts"]["found"] == 3
    assert by_id["fixed.involution"]["counts"]["found"] == 2
    reps = by_id["fixed.collineation"]["counts"]["representatives"].split()
    assert len(reps) == 3 and all(":" in r for r in reps)


def test_figueroa_axioms_cmd(capsys):
    code, out = run_cli(["figueroa", "--q", "3", "--check", "axioms",
                         "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    ids = [c["id"] for c in doc["checks"]]
    # every row control: the build facts row by row and the three axiom reports
    assert ids == ["fig.build-rows", "fig.axioms", "fig.axioms-reference", "fig.axioms-mutation"]


class _Unbuilt:
    """A Session that builds nothing: the suite functions are stubbed."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.elapsed_ms = {}


def _stub_suites(monkeypatch, ran):
    """Replace the three suite functions by stubs that record their calls."""
    import figplane.cli as cli
    for name in ("census_checks", "maps_checks", "figueroa_checks"):
        monkeypatch.setattr(cli, name, lambda sess, *group, name=name, **kw:
                            ran.append((name, *group, kw)) or [])


def test_verify_all_skips_the_fig_passes_at_q11(monkeypatch, capsys):
    """The default leaves out the axioms group, the checks that pass over
    every FIG row, at q = 11 as at every order, with no note; the build
    group, which holds the equivariant FIG claims, and every other group of
    every suite run by default."""
    from figplane.field import context_for_q
    monkeypatch.setattr("figplane.cli.Session", _Unbuilt)
    ran = []
    _stub_suites(monkeypatch, ran)
    code, out = run_cli(["verify", "--q", "11", "--suite", "all", "--format", "json"], capsys)
    assert code == 0 and "note" not in json.loads(out)["header"]
    assert ran == [(name, {"by_default": True})
                   for name in ("census_checks", "maps_checks", "figueroa_checks")]
    ctx = context_for_q(11)
    groups = {c.group for c in selected(ctx, "figueroa", by_default=True)}
    assert groups == {"build", "pr", "arching", "characterization", "sp-mu"}
    assert {c.group for c in selected(ctx, "figueroa")} == groups | {"axioms"}
    assert selected(ctx, "maps", by_default=True) == selected(ctx, "maps")


def test_verify_all_runs_every_suite_at_q9(monkeypatch, capsys):
    """At q = 9, as at q = 11, the default runs every suite, all of census
    and maps, and every figueroa check but the row controls of the axioms
    group, with no note."""
    from figplane.field import context_for_q
    ctx = context_for_q(9)
    for suite in ("census", "maps"):
        assert selected(ctx, suite, by_default=True) == selected(ctx, suite)
    assert selected(ctx, "figueroa", by_default=True) == [
        c for c in selected(ctx, "figueroa") if c.group != "axioms"]
    monkeypatch.setattr("figplane.cli.Session", _Unbuilt)
    ran = []
    _stub_suites(monkeypatch, ran)
    code, out = run_cli(["verify", "--q", "9", "--suite", "all", "--format", "json"], capsys)
    assert code == 0 and "note" not in json.loads(out)["header"] and len(ran) == 3


class _RowFacts(_Unbuilt):
    """A Session that builds nothing and records the row readers asked of it."""

    def row_facts(self, *readers):
        self.readers = readers
        return {}


def test_a_check_naming_a_row_reader_falls_under_the_default_bound(monkeypatch, capsys):
    """Naming a row reader is all it takes to fall out of the default
    selection, at every order.  A probe in the figueroa table, in a group
    of its own that names the ``axioms`` reader and carries no gate of its
    own: the default leaves out its group at q = 3, 9 and 11, and naming the
    group runs it after the row pass of its reader."""
    from figplane import suites
    ran = []     # the row readers the Session held when the probe ran

    def probe(sess):
        ran.append(getattr(sess, "readers", None))
        return entry("fig.probe", "the probe ran", True, {}, [])
    monkeypatch.setitem(suites._TABLE, "figueroa", list(suites.suite_checks("figueroa")))
    suites.check("figueroa", "probe", readers=("axioms",))(probe)
    for q in (3, 9, 11):
        assert "probe" not in {c.group for c in selected(order_of(q), "figueroa",
                                                         by_default=True)}
    assert "probe" in {c.group for c in selected(order_of(11), "figueroa")}
    monkeypatch.setattr("figplane.cli.Session", _RowFacts)
    code, out = run_cli(["figueroa", "--q", "11", "--check", "probe", "--format", "json"],
                        capsys)
    assert code == 0 and [c["id"] for c in json.loads(out)["checks"]] == ["fig.probe"]
    assert ran == [("axioms",)]


def test_verify_all_runs_every_suite_at_q8(monkeypatch, capsys):
    """At q = 8 the default runs the maps and figueroa suites too, with no
    note; the suites are stubbed, so only the selection is exercised."""
    import figplane.cli as cli
    ran = []
    for name in ("census_checks", "maps_checks", "figueroa_checks"):
        monkeypatch.setattr(cli, name, lambda sess, name=name, **kw: ran.append(name) or [])
    code, out = run_cli(["verify", "--q", "8", "--suite", "all", "--format", "json"], capsys)
    assert code == 0
    assert ran == ["census_checks", "maps_checks", "figueroa_checks"]
    assert "note" not in json.loads(out)["header"]


@pytest.mark.parametrize("command, called", [
    (["census"], ("census_checks",)),
    (["maps", "--check", "mu"], ("maps_checks", "mu")),
    (["figueroa", "--check", "axioms"], ("figueroa_checks", "axioms"))])
def test_report_commands_look_up_the_suite_functions_when_run(monkeypatch, capsys,
                                                               command, called):
    """Every report command calls the suite functions bound in the cli module
    at run time, as tracing and the stubs here rebind them."""
    import figplane.cli as cli
    ran = []
    for name in ("census_checks", "maps_checks", "figueroa_checks"):
        monkeypatch.setattr(cli, name,
                            lambda sess, *group, name=name, **kw: ran.append((name, *group)) or [])
    code, out = run_cli(command + ["--q", "3", "--format", "json"], capsys)
    assert code == 0 and json.loads(out)["checks"] == []
    assert ran == [called]


def test_figueroa_pr_when_3_divides_q_minus_1(capsys):
    # at q = 7 the squares 1, 2, 4 of GF(7) all cube to 1, so a closed form
    # that keys the square-norm linear sets by the squares themselves
    # rather than by elements of those norms misses two thirds of the image
    code, out = run_cli(["figueroa", "--q", "7", "--check", "pr",
                         "--format", "json"], capsys)
    doc = json.loads(out)
    assert [c["status"] for c in doc["checks"]] == ["pass", "pass"]
    assert doc["checks"][0]["counts"] == {"image_size": 230, "expected_size": 230}
    assert code == 0


@pytest.mark.parametrize("error", [GeometryError, KernelError, OrbitInconsistency])
def test_stray_library_error_exits_two(monkeypatch, capsys, error):
    def broken(*args):
        raise error("broken on purpose")
    monkeypatch.setattr("figplane.figueroa.anchor_block", broken)
    code = main(["figueroa", "--q", "3", "--check", "sp-mu"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "figplane: broken on purpose\n"


def test_figueroa_even_structure_odd_q(capsys):
    code = main(["figueroa", "--q", "3", "--check", "even-structure"])
    assert code == 2
    assert "q even" in capsys.readouterr().err


def test_sls_output(capsys):
    code, out = run_cli(["sls", "--q", "3", "--theta", "0"], capsys)
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 13
    assert all(r.count(":") == 2 and r.endswith(":0") for r in rows)
    code, _ = run_cli(["sls", "--q", "3", "--theta", "5"], capsys)
    assert code == 2


def test_tplane_output(capsys):
    code, out = run_cli(["tplane", "--q", "3", "--theta", "1"], capsys)
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 13
    assert all(not r.endswith(":0") for r in rows)


@pytest.mark.parametrize("option", [["--format", "json"], ["--seed", "1"], ["--timings"]])
@pytest.mark.parametrize("command", ["sls", "tplane"])
def test_point_commands_take_no_report_options(capsys, command, option):
    """sls and tplane print points and write no report: --format, --seed
    and --timings are usage errors there."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--q", "3", "--theta", "0"] + option)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["census"], ["sls", "--theta", "0"]])
def test_huge_q_is_refused_before_factoring(argv):
    """2^61 - 1 is prime: trial division up to its square root would run
    for hours, so its GF(q^3), past the table bound, is refused first."""
    q = str(2 ** 61 - 1)
    cmd = [sys.executable, "-m", "figplane.cli", argv[0], "--q", q] + argv[1:]
    run = subprocess.run(cmd, env=child_env(), capture_output=True, text=True, timeout=30)
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr == (f"figplane: q = {q}: q^3 = {int(q) ** 3} elements, "
                          "over the table bound 2097152\n")


@pytest.mark.parametrize("command", ["sls", "tplane"])
def test_bad_theta_is_refused_from_q_alone(monkeypatch, capsys, command):
    """--theta is checked against q before the field tower is built, which
    takes seconds at q = 64; a q that is no prime power is refused first."""
    def no_tower(q):
        raise AssertionError("the field tower was built before --theta was checked")
    monkeypatch.setattr("figplane.cli.context_for_q", no_tower)
    assert main([command, "--q", "64", "--theta", "99"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "figplane: --theta must be a norm class index 0 .. 62\n"
    assert main([command, "--q", "6", "--theta", "99"]) == 2
    assert capsys.readouterr().err == "figplane: q = 6 is not a prime power\n"


def test_emit_plane(tmp_path, capsys):
    target = tmp_path / "plane.txt"
    code, _ = run_cli(["figueroa", "--q", "3", "--check", "build",
                       "--emit-plane", str(target)], capsys)
    assert code == 0
    lines = target.read_text().splitlines()
    assert lines[0] == "FIG 27 757"
    assert len(lines) == 758
    # the whole file, pinned: every row in order, however the rows are chunked
    assert hashlib.sha256(target.read_bytes()).hexdigest() == \
        (DATA / "emit-plane-q3.sha256").read_text().strip()


def test_exit_code_one_on_failure():
    rep = Report({"q": 3}, [entry("x", "always fails", False)])
    assert rep.exit_code() == 1
    rep = Report({"q": 3}, [entry("x", "fine", True)])
    assert rep.exit_code() == 0


def test_reports_byte_identical_subprocess():
    cmd = [sys.executable, "-m", "figplane.cli", "verify", "--q", "3",
           "--suite", "census", "--format", "json", "--seed", "11"]
    a = subprocess.run(cmd, env=child_env(), capture_output=True, check=True).stdout
    b = subprocess.run(cmd, env=child_env(), capture_output=True, check=True).stdout
    assert a == b and a


@pytest.mark.parametrize("q", [3, 4])
def test_csv_report_rows_have_three_fields(q, capsys):
    """A detail holding a comma, such as a list of allowed counts, is
    quoted, so every row parses to check, status and detail."""
    code, out = run_cli(["verify", "--q", str(q), "--suite", "all", "--format", "csv"],
                        capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["check", "status", "detail"] and len(rows) > 30
    assert all(len(r) == 3 for r in rows)
    (spectrum,) = [r for r in rows if r[0] == "vertices.count-spectrum"]
    assert spectrum[2].startswith("allowed=[") and ", " in spectrum[2]


def test_timings_list_the_stages_of_the_build_group_once(capsys):
    """The build group reads the point tables and the premises of the
    equivariant FIG checks, and the axioms group the row pass, which builds
    the FIG structure: --timings lists each once, under their own key and
    in stage order, and a time for every check."""
    for group, stages, checks in (
            ("build", ["tables", "equivariance"],
             ["fig.block", "fig.block-sizes", "fig.build", "fig.plane"]),
            ("axioms", ["tables", "row_pass"],
             ["fig.build-rows", "fig.axioms", "fig.axioms-reference", "fig.axioms-mutation"])):
        code, out = run_cli(["figueroa", "--q", "4", "--check", group, "--format", "json",
                             "--timings"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert [s["id"] for s in doc["stages"]] == stages
        assert [c["id"] for c in doc["checks"]] == checks
        assert all(t["elapsed_ms"] >= 0 for t in doc["stages"] + doc["checks"])


def test_verify_all_builds_each_stage_once(monkeypatch, capsys):
    """verify --suite all runs its three suites on one Session, which builds
    every stage once and walks no FIG row; the text report gives each stage
    its own line, after the header, and every check line its time."""
    from figplane.suites import STAGES, Session
    built = []
    for name in STAGES:
        stage = vars(Session)[name]
        monkeypatch.setattr(stage, "func", lambda sess, real=stage.func, name=name:
                            built.append(name) or real(sess))
    monkeypatch.setattr(Session, "row_facts", lambda sess, *readers:
                        built.append("row_pass"))
    timed = list(STAGES)
    code, out = run_cli(["verify", "--q", "4", "--suite", "all", "--timings"], capsys)
    assert code == 0 and built == timed
    lines = out.splitlines()
    assert [l.split()[1] for l in lines[1:1 + len(timed)]] == timed
    assert all(l.startswith("STAGE ") and l.endswith(" ms]") for l in lines[1:1 + len(timed)])
    assert not any(l.startswith("STAGE ") for l in lines[1 + len(timed):])
    assert all(l.endswith(" ms]") for l in lines if l.startswith(("PASS", "FAIL")))


@pytest.mark.parametrize("command", ["", "verify", "census", "maps", "figueroa", "sls",
                                     "tplane"])
def test_help_matches_golden_text(command, capsys, monkeypatch):
    """The --help of figplane and of each subcommand, byte for byte, as
    argparse wraps it on an 80-column terminal."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as done:
        main(command.split() + ["--help"])
    assert done.value.code == 0
    name = "-".join(["figplane"] + command.split())
    assert capsys.readouterr().out == (DATA / f"help-{name}.txt").read_text()


def test_csv_report_is_the_same_with_timings(capsys):
    args = ["verify", "--q", "4", "--suite", "all", "--format", "csv"]
    assert run_cli(args, capsys) == run_cli(args + ["--timings"], capsys)


def test_text_format_lines(capsys):
    code, out = run_cli(["verify", "--q", "3", "--suite", "census"], capsys)
    assert code == 0
    assert out.splitlines()[-1] == "overall: PASS"
    assert all(l.startswith(("PASS", "FAIL", " ", "figplane", "overall"))
               for l in out.splitlines())


@pytest.mark.parametrize("command", [["verify", "--q", "3", "--suite", "census"],
                                     ["figueroa", "--q", "3", "--check", "build"]])
def test_unwritable_emit_plane_rejected_before_work(tmp_path, capsys, monkeypatch,
                                                    command):
    def no_session(*args, **kwargs):
        raise AssertionError("a check ran before the path was validated")
    monkeypatch.setattr("figplane.cli.Session", no_session)
    target = tmp_path / "missing" / "plane.txt"
    assert main(command + ["--emit-plane", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("figplane: cannot write --emit-plane file")
    assert captured.err.count("\n") == 1


def test_read_only_emit_plane_rejected_before_work(tmp_path, capsys, monkeypatch):
    """An existing file that cannot be written is refused like a missing
    folder; os.access is stubbed, since a superuser may write any file."""
    target = tmp_path / "plane.txt"
    target.write_text("")
    real_access = os.access
    monkeypatch.setattr("os.access", lambda path, mode: (
        os.fspath(path) != str(target) and real_access(path, mode)))

    def no_session(*args, **kwargs):
        raise AssertionError("a check ran before the path was validated")
    monkeypatch.setattr("figplane.cli.Session", no_session)
    assert main(["verify", "--q", "3", "--suite", "census", "--emit-plane", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"figplane: cannot write --emit-plane file {target}: "
                            "it is not writable\n")


SELECTIONS = ([pytest.param(["verify", "--suite", s], s, None, id=f"verify:{s}")
               for s in ("census", "maps", "figueroa", "all")]
              + [pytest.param([suite, "--check", g], suite, g, id=f"{suite}:{g}")
                 for suite in ("maps", "figueroa") for g in check_groups(suite)])


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("command, suite, group", SELECTIONS)
def test_every_selection_runs_or_is_refused_with_its_gate(capsys, q, command, suite, group):
    """Each suite and --check group either runs at least one entry and passes,
    or exits 2 with no report and one line giving the gate's reason: the
    Figueroa suite needs q > 2, the even-order structure check even q."""
    code = main(command + ["--q", str(q), "--format", "json"])
    captured = capsys.readouterr()
    if suite == "figueroa" and q == 2:
        reason = FIGUEROA.reason
    elif group == "even-structure" and q % 2:
        reason = EVEN_Q.reason
    else:
        assert code == 0 and json.loads(captured.out)["checks"]
        return
    assert code == 2 and captured.out == ""
    assert captured.err == f"figplane: {reason} (got q = {q})\n"


def test_emit_plane_refused_at_q2_before_any_session(tmp_path, capsys, monkeypatch):
    def no_session(*args, **kwargs):
        raise AssertionError("a Session was built before the refusal")
    monkeypatch.setattr("figplane.cli.Session", no_session)
    target = tmp_path / "plane.txt"
    assert main(["verify", "--q", "2", "--suite", "census", "--emit-plane", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not target.exists()
    assert captured.err == f"figplane: {FIGUEROA.reason} (got q = 2)\n"


@pytest.mark.parametrize("command", [["census"], ["verify", "--suite", "all"],
                                     ["maps", "--check", "mu"]])
def test_tables_larger_than_memory_refused_before_any_session(capsys, monkeypatch, command):
    """With physical memory one byte short of the estimate, every report
    command exits 2 with the estimate, before any table is built."""
    def no_session(*args, **kwargs):
        raise AssertionError("a Session was built before the refusal")
    monkeypatch.setattr("figplane.cli.Session", no_session)
    monkeypatch.setattr("figplane.cli.physical_memory", lambda: table_bytes(3) - 1)
    assert main(command + ["--q", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # verify --suite all runs the figueroa suite, whose build checks read
    # the torus and Dickson tables
    need = table_bytes(3, fig=command[0] == "verify")
    assert captured.err == (f"figplane: q = 3 needs about {need / 1e9:.3g} GB for "
                            f"its tables, more than the {(table_bytes(3) - 1) / 1e9:.3g} GB "
                            "of physical memory\n")


def test_tables_that_fit_in_memory_run(capsys, monkeypatch):
    monkeypatch.setattr("figplane.cli.physical_memory", lambda: table_bytes(3))
    assert main(["census", "--q", "3"]) == 0


class SessionBuilt(Exception):
    """Raised in place of building a Session: the command passed its guards."""


def _no_session(*args, **kwargs):
    raise SessionBuilt


@pytest.mark.parametrize("command, fig", [
    (["figueroa", "--check", "build"], True),
    (["figueroa", "--check", "axioms"], True),
    (["verify", "--suite", "figueroa"], True),
    (["verify", "--suite", "census", "--emit-plane", "PLANE"], True),
    (["figueroa", "--check", "pr"], False),
    (["maps", "--check", "mu"], False),
    (["census"], False),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_memory_guard_counts_the_fig_array(tmp_path, capsys, monkeypatch, command, fig):
    """With physical memory just enough for the census tables, a selection
    that reads the torus and Dickson tables, as the FIG checks do, or the
    row lookup tables, because a selected check passes over every FIG row
    or --emit-plane writes the rows, exits 2 with its estimate, and any
    other selection gets past the guard."""
    monkeypatch.setattr("figplane.cli.Session", _no_session)
    have = table_bytes(3)
    monkeypatch.setattr("figplane.cli.physical_memory", lambda: have)
    command = [str(tmp_path / "plane.txt") if a == "PLANE" else a for a in command]
    if not fig:
        with pytest.raises(SessionBuilt):
            main(command + ["--q", "3"])
        return
    rows = "axioms" in command or "figueroa" in command[1:] or "--emit-plane" in command
    need = table_bytes(3, fig="census" not in command, rows=rows)
    assert main(command + ["--q", "3"]) == 2
    assert capsys.readouterr().err == (
        f"figplane: q = 3 needs about {need / 1e9:.3g} GB for its "
        f"tables, more than the {have / 1e9:.3g} GB of physical memory\n")


def test_fig_checks_at_q11_pass_the_memory_guard(capsys, monkeypatch):
    """At q = 11 no run holds the FIG: its rows are streamed, and the tables
    of every selection, with the torus, Dickson and FIG row lookup
    tables, take about 73 MB.
    So on a host of 8.4 GB the FIG checks named explicitly get past the
    guard, as the census and maps suites do.  No q = 11 table is built."""
    monkeypatch.setattr("figplane.cli.Session", _no_session)
    monkeypatch.setattr("figplane.cli.physical_memory", lambda: 8_400_000_000)
    assert round(table_bytes(11, fig=True, rows=True) / 1e6) == 73
    for command in (["figueroa", "--check", "build"], ["figueroa", "--check", "axioms"],
                    ["verify", "--suite", "figueroa"], ["census"],
                    ["verify", "--suite", "maps"]):
        with pytest.raises(SessionBuilt):
            main(command + ["--q", "11"])


def test_default_at_q11_gets_past_the_guard_without_the_fig_tables(capsys, monkeypatch):
    """With physical memory between the q = 11 estimates with the torus and
    Dickson tables and with the FIG row lookup tables too, verify --q 11
    gets past the guard, since the default selects no check that names a
    row reader, and naming the figueroa suite is refused with the larger
    estimate."""
    monkeypatch.setattr("figplane.cli.Session", _no_session)
    have = (table_bytes(11, fig=True) + table_bytes(11, fig=True, rows=True)) // 2
    monkeypatch.setattr("figplane.cli.physical_memory", lambda: have)
    with pytest.raises(SessionBuilt):
        main(["verify", "--q", "11"])
    assert main(["verify", "--q", "11", "--suite", "figueroa"]) == 2
    assert capsys.readouterr().err == (
        f"figplane: q = 11 needs about {table_bytes(11, True, True) / 1e9:.3g} GB for its "
        f"tables, more than the {have / 1e9:.3g} GB of physical memory\n")


def test_oversized_order_refused_before_the_field_is_built(capsys, monkeypatch):
    """The guards read q alone: with ``context_for_q`` made to raise, q = 64,
    whose census tables take about 1.2 TB, is refused with exit 2 and the
    estimate, a q that is no prime power still gets that error first, and a
    failing gate still names itself."""
    def no_field(q):
        raise AssertionError(f"the field tower of q = {q} was built")
    monkeypatch.setattr("figplane.cli.context_for_q", no_field)
    monkeypatch.setattr("figplane.cli.physical_memory", lambda: 8_400_000_000)
    for argv, err in (
            (["verify", "--q", "64", "--suite", "census"],
             f"q = 64 needs about {table_bytes(64) / 1e9:.3g} GB for its tables, "
             "more than the 8.4 GB of physical memory"),
            (["verify", "--q", "12", "--suite", "census"], "q = 12 is not a prime power"),
            (["figueroa", "--q", "2", "--check", "build"], f"{FIGUEROA.reason} (got q = 2)")):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"figplane: {err}\n"
    assert f"{table_bytes(64) / 1e9:.3g}" == "1.17e+03"
