"""The package's lazy exports: what ``import figplane`` loads, and the names
it offers.

The import graph is read in fresh interpreters, since this test session
has long since imported every figplane module.
"""

import importlib
import json
import re
import subprocess
import sys

import pytest

import figplane

from conftest import SRC, child_env

SUBMODULES = ("arrays", "cli", "collineation", "field", "figueroa", "linear_sets",
              "maps", "plane", "report", "row_pass", "suite_census", "suite_figueroa",
              "suite_maps", "suites")
# the modules of the checks of one suite each, imported when a run names the suite
CHECK_MODULES = ("suite_census", "suite_figueroa", "suite_maps")
# the row pass, imported when a run reads the FIG rows
ROW_PASS = "row_pass"

# The public names of figplane 0.1.0, by the submodule that defines each,
# less ``OrbitClass``: the orbit partition is now its arrays alone; and less
# ``LineRows`` and ``RowSwap``: PG, FIG and a mutated FIG are one
# ``IncidencePlane``, which differ in the Type III lines they keep; and less
# ``pr_set`` and ``sp_set``: the checks read the projection and splash of a
# set as index arrays, and tests apply the single-object maps member by member.
EXPORTED = {
    "field": ["FieldContext", "FieldError", "build_field_tower", "context_for_q"],
    "plane": ["ANCHOR", "ANCHOR_1", "ANCHOR_2", "AXIS", "GeometryError", "ProjectivePlane",
              "canonical", "format_line", "format_point", "incident", "join", "meet"],
    "collineation": ["Census", "OrbitClasses", "SlsId", "TYPE_I", "TYPE_II",
                     "TYPE_III", "apply_stabilizer", "census_of", "collineate_line",
                     "collineate_point", "line_type", "norm_det_identity",
                     "partition_orbits", "point_type", "stabilizer_orbit"],
    "linear_sets": ["SubplaneSet", "fixed_subplane", "pencil_lines", "pencil_type",
                    "plane_from_rep", "sls_points", "t_plane"],
    "maps": ["LinearSetImage", "TypeRestrictionError", "conjugate_join", "conjugate_meet",
             "mu_fixed_planes", "phi_fixed_planes", "project_from_anchor",
             "project_from_vertex", "splash", "vertex_census"],
    "figueroa": ["IncidencePlane", "anchor_block", "arching_census", "build_fig_plane",
                 "characterize_fig_points", "check_axioms", "fig_incident", "pg_incidence",
                 "pr_fig_block"],
}
NAMES = sorted(name for names in EXPORTED.values() for name in names)


def loaded_after(code: str) -> list[str]:
    """The figplane submodules and numpy in sys.modules after ``code`` runs
    in a fresh interpreter."""
    env = child_env()
    probe = (code + "\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules "
             "if m == 'numpy' or m.startswith('figplane.'))))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return json.loads(out.stdout)


def test_field_and_plane_load_nothing_else():
    loaded = loaded_after("import figplane\n"
                          "from figplane import context_for_q, ProjectivePlane\n"
                          "ProjectivePlane(context_for_q(7))")
    assert loaded == ["figplane.field", "figplane.plane"]


def test_scalar_linear_sets_load_no_numpy():
    """The scalar orbit constructors need no array code: collineation
    imports numpy only inside its table functions."""
    loaded = loaded_after("from figplane.field import context_for_q\n"
                          "from figplane.linear_sets import sls_points\n"
                          "sls_points(context_for_q(3), 1)")
    assert loaded == ["figplane.collineation", "figplane.field", "figplane.linear_sets",
                      "figplane.plane"]


def test_cli_loads_every_submodule():
    """perfbench/tracer.py wraps layer functions after ``import figplane.cli``
    and relies on it having imported every figplane module it traces: all
    but the check modules, which a run imports for the suites it names, and
    the row pass, which it imports when it reads the FIG rows."""
    assert loaded_after("import figplane.cli") == (
        ["figplane." + m for m in SUBMODULES if m not in CHECK_MODULES + (ROW_PASS,)]
        + ["numpy"])


def _run(argv: str) -> str:
    """Code that runs the figplane command line in-process, its report discarded."""
    return ("import contextlib, io\nfrom figplane.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv.split()!r}) == 0")


@pytest.mark.parametrize("argv, suite", [("verify --q 3 --suite maps", "maps"),
                                         ("verify --q 3 --suite census", "census"),
                                         ("maps --q 3 --check fixed", "maps"),
                                         ("figueroa --q 3 --check pr", "figueroa")])
def test_a_run_compiles_only_the_checks_of_its_suite(argv, suite):
    """The check modules of the suites a run does not name are never
    imported, so never compiled; the parser's ``--check`` choices import
    none either, and neither does a run that reads no FIG row import the
    row pass."""
    loaded = [m for m in loaded_after(_run(argv))
              if m.startswith("figplane.suite_") or m == f"figplane.{ROW_PASS}"]
    assert loaded == [f"figplane.suite_{suite}"]


def test_verify_all_compiles_every_suite():
    loaded = loaded_after(_run("verify --q 3 --suite all"))
    assert [m for m in loaded if m.startswith("figplane.suite_")] == [
        "figplane." + m for m in CHECK_MODULES]
    assert f"figplane.{ROW_PASS}" in loaded


def test_check_table_is_whole_in_report_order():
    """``CHECKS`` holds every check, in report order: the census, maps and
    figueroa checks, each in the order of its module, whatever order the
    check modules were imported in; here the figueroa checks come first."""
    probe = ("import json\nimport figplane.suite_figueroa\nfrom figplane.suites import CHECKS\n"
             "print(json.dumps([[c.suite, c.group, getattr(c.run, '__name__', None)\n"
             "                   or c.run.keywords['kind'] + '_types'] for c in CHECKS]))")
    out = subprocess.run([sys.executable, "-c", probe], env=child_env(), check=True,
                         capture_output=True, text=True, timeout=120)
    assert [tuple(c) for c in json.loads(out.stdout)] == [
        ("census", "census", name) for name in (
            "categories", "orbit_sizes", "point_types", "line_types", "collineation_permutes",
            "norm_det_relation")] + [
        ("maps", "mu", "involution"), ("maps", "mu", "rejects_fixed_objects"),
        ("maps", "mu", "plane_images"), ("maps", "mu", "generic_plane"),
        ("maps", "mu", "block_incidence_twist"), ("maps", "pr-sp", "t_plane_images"),
        ("maps", "pr-sp", "parity_table"), ("maps", "pr-sp", "pencil_census"),
        ("maps", "pr-sp", "projection_vs_splash"), ("maps", "fixed", "collineation_fixed"),
        ("maps", "fixed", "involution_fixed"), ("maps", "vertices", "vertices_census"),
        ("maps", "vertices", "count_spectrum"), ("maps", "vertices", "cross_plane"),
        ("maps", "vertices", "club_images")] + [
        ("figueroa", "build", "block_anatomy"), ("figueroa", "build", "block_sizes"),
        ("figueroa", "build", "assembly"), ("figueroa", "axioms", "axioms"),
        ("figueroa", "axioms", "axioms_reference"), ("figueroa", "axioms", "axioms_mutation"),
        ("figueroa", "pr", "projection_anchor"), ("figueroa", "pr", "projection_conjugates"),
        ("figueroa", "arching", "arching"), ("figueroa", "characterization", "characterization"),
        ("figueroa", "even-structure", "even_structure"), ("figueroa", "sp-mu", "splash_involution")]


def test_submodule_list_is_complete():
    assert sorted(p.stem for p in (SRC / "figplane").glob("*.py")
                  if p.stem != "__init__") == list(SUBMODULES)


def test_exports_are_the_names_of_0_1_0():
    assert len(NAMES) == 57
    assert sorted(figplane.__all__) == NAMES


def test_readme_counts_the_public_names():
    """The README's "the N public names" is ``len(figplane.__all__)``."""
    readme = (SRC.parent / "README.md").read_text()
    assert re.findall(r"the (\d+) public names", readme) == [str(len(figplane.__all__))]


def test_each_export_is_the_object_of_its_submodule():
    assert [f"{module}.{name}" for module, names in EXPORTED.items() for name in names
            if getattr(figplane, name)
            is not getattr(importlib.import_module(f"figplane.{module}"), name)] == []


def test_dir_lists_every_export_and_submodule():
    listed = dir(figplane)
    assert set(NAMES) <= set(listed)
    assert set(SUBMODULES) <= set(listed)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        figplane.no_such_name
    assert not hasattr(figplane, "no_such_name")


def test_submodule_resolves_after_a_bare_import():
    assert loaded_after("import figplane\nfigplane.figueroa.check_axioms") == [
        "figplane.arrays", "figplane.collineation", "figplane.field", "figplane.figueroa",
        "figplane.linear_sets", "figplane.maps", "figplane.plane", "numpy"]


def test_verify_all_imports_no_masked_arrays():
    """``np.unique`` imports numpy.ma on its first call, about 14 ms of CPU
    and 0.8 MiB of peak RSS a process; a whole verify run needs neither."""
    env = child_env()
    probe = ("import contextlib, io, sys\nfrom figplane.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = main(['verify', '--q', '3', '--suite', 'all'])\n"
             "print(code, 'numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.split() == ["0", "False"]
