"""Every function in ``src/figplane`` is reached by a command, or is named
here with the reason it stays.

A set of ``figplane`` commands runs through ``cli.main`` in one fresh
interpreter under ``sys.setprofile``, which records each figplane function
that is entered.  The functions are read from each module's AST.  A
function that no command reaches must be in ``UNREACHED``: a new one fails
the test, as code that no command needs, and so does an entry that a
command now reaches, or that no longer exists.  The fresh interpreter
counts what runs at import, such as the check table's decorators, and no
cache filled by an earlier test hides a call.
"""

import ast
import json
import subprocess
import sys

from conftest import SRC, child_env

# what each command line runs; TMP is a file for --emit-plane
COMMANDS = [
    ["verify", "--q", "3", "--emit-plane", "TMP"],
    ["verify", "--q", "4", "--format", "json"],
    ["verify", "--q", "2"],
    ["verify", "--q", "3", "--format", "csv"],
    ["census", "--q", "3", "--format", "csv"],
    ["census", "--q", "3", "--format", "json"],
    ["maps", "--q", "3", "--check", "fixed"],
    ["figueroa", "--q", "3", "--check", "axioms"],
    ["sls", "--q", "3", "--theta", "1", "--side", "1"],
    ["tplane", "--q", "3", "--theta", "1"],
]

ORACLE = "scalar reference that tests compare the tables and bulk checks against"
TRACED = "wrapped by perfbench/tracer.py, which reads its calls"
PROTOCOL = "protocol or convenience method for interactive use"

# module.qualname -> why it stays though no command reaches it
UNREACHED = {
    "collineation.collineate_line": ORACLE,
    "collineation.det3": ORACLE,
    "collineation.norm_det_identity": ORACLE,
    "collineation.sls_id_of_point": ORACLE,
    "figueroa.fig_incident": ORACLE,
    "figueroa.check_axioms": TRACED,
    "figueroa.pg_incidence": TRACED,
    "linear_sets.pencil_type": ORACLE,
    "plane.ProjectivePlane.points_on": TRACED,
    "plane.lines_through_point": TRACED,
    "__init__.__dir__": PROTOCOL,
    "field.FieldContext.__repr__": PROTOCOL,
    "plane.ProjectivePlane.__len__": PROTOCOL,
    "plane.ProjectivePlane.__repr__": PROTOCOL,
    "plane.ProjectivePlane.points": PROTOCOL,
}

CHILD = r"""
import contextlib, io, json, os, sys
package = os.path.join(sys.argv[1], "figplane") + os.sep
reached = set()

def record(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(package):
        reached.add(os.path.basename(code.co_filename)[:-3] + "." + code.co_qualname)

sys.setprofile(record)
from figplane.cli import main
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[2]):
        codes.append(main(argv))
sys.setprofile(None)
print(json.dumps({"codes": codes, "reached": sorted(reached)}))
"""


def defined_functions() -> set[str]:
    """``module.qualname`` of every def in the package, nested ones too,
    qualified as Python qualifies ``co_qualname``."""
    names = set()

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(f"{module}.{prefix}{child.name}")
                walk(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, f"{prefix}{child.name}.")
            else:
                walk(child, module, prefix)

    for path in (SRC / "figplane").glob("*.py"):
        walk(ast.parse(path.read_text()), path.stem, "")
    return names


def test_every_unreached_function_is_allowlisted(tmp_path):
    argv = [[str(tmp_path / "plane.txt") if a == "TMP" else a for a in c] for c in COMMANDS]
    out = subprocess.run([sys.executable, "-c", CHILD, str(SRC), json.dumps(argv)],
                         env=child_env(), check=True, capture_output=True, text=True,
                         timeout=300)
    run = json.loads(out.stdout)
    assert run["codes"] == [0] * len(COMMANDS)
    unreached = defined_functions() - set(run["reached"])
    assert sorted(unreached - UNREACHED.keys()) == [], "no command reaches these"
    assert sorted(UNREACHED.keys() - unreached) == [], "stale allowlist entries"
