import json
import subprocess
import sys

import pytest

from figplane.arrays import KernelError
from figplane.cli import main
from figplane.collineation import OrbitInconsistency
from figplane.plane import GeometryError
from figplane.report import Report, entry


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
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--q", "2", "--suite", "figueroa"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "q > 2" in err


def test_verify_rejects_non_prime_power(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--q", "6", "--suite", "census"])
    assert exc.value.code == 2


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
    assert "fig.axioms" in ids and "fig.axioms-mutation" in ids


def test_verify_all_skips_maps_and_figueroa_from_q8(capsys):
    """The default skip starts at q = 8: the report notes it and holds only
    the census checks (q = 7 runs every suite)."""
    code, out = run_cli(["verify", "--q", "8", "--suite", "all",
                         "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["header"]["note"] == "maps and figueroa suites skipped by default at q >= 8"
    assert doc["checks"] and all(c["id"].startswith("census.") for c in doc["checks"])


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
    def broken(ctx):
        raise error("broken on purpose")
    monkeypatch.setattr("figplane.figueroa.splash_involution_check", broken)
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


def test_emit_plane(tmp_path, capsys):
    target = tmp_path / "plane.txt"
    code, _ = run_cli(["figueroa", "--q", "3", "--check", "build",
                       "--emit-plane", str(target)], capsys)
    assert code == 0
    lines = target.read_text().splitlines()
    assert lines[0] == "FIG 27 757"
    assert len(lines) == 758


def test_exit_code_one_on_failure():
    rep = Report({"q": 3}, [entry("x", "always fails", False)])
    assert rep.exit_code() == 1
    rep = Report({"q": 3}, [entry("x", "fine", True)])
    assert rep.exit_code() == 0


def test_reports_byte_identical_subprocess():
    cmd = [sys.executable, "-m", "figplane.cli", "verify", "--q", "3",
           "--suite", "census", "--format", "json", "--seed", "11"]
    a = subprocess.run(cmd, capture_output=True, check=True).stdout
    b = subprocess.run(cmd, capture_output=True, check=True).stdout
    assert a == b and a


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
    with pytest.raises(SystemExit) as exc:
        main(command + ["--emit-plane", str(target)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("figplane: cannot write --emit-plane file")
    assert captured.err.count("\n") == 1
