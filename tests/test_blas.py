"""figplane makes no BLAS call, so importing it starts numpy's OpenBLAS
with one thread unless the caller chose a count or loaded numpy first.
``import figplane`` sets that default and loads no numpy; numpy comes in
with the first bulk table, and the default is in place by then.

The thread count is read in a fresh interpreter, through the same ctypes
lookup as ``perfbench/run.py``; a test that needs it is skipped when the
bundled OpenBLAS exports none of the symbols.
"""

import ast
import json
import os
import subprocess
import sys

import pytest

from conftest import SRC, child_env

PROBE = """
import ctypes, glob, json, os, sys
if sys.argv[1] == "numpy-first":
    import numpy
import figplane
numpy_at_import = "numpy" in sys.modules
if sys.argv[1] == "figplane-tables":
    figplane.ProjectivePlane(figplane.context_for_q(2)).tables.types
import numpy
threads = None
for path in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                   "numpy.libs", "*openblas*")):
    lib = ctypes.CDLL(path)
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None and threads is None:
            fn.restype = ctypes.c_int
            threads = fn()
print(json.dumps({"env": os.environ.get("OPENBLAS_NUM_THREADS"), "threads": threads,
                  "numpy_at_import": numpy_at_import}))
"""


def probe(first: str, threads: str | None = None) -> dict:
    """Import figplane (after numpy when ``first`` is "numpy-first") in a
    fresh interpreter, and build a type table when it is "figplane-tables":
    the OPENBLAS_NUM_THREADS it sees, the thread count, and whether numpy
    was loaded right after ``import figplane``."""
    env = child_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    out = subprocess.run([sys.executable, "-c", PROBE, first], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return json.loads(out.stdout)


def thread_count(result: dict) -> int:
    if result["threads"] is None:
        pytest.skip("numpy's OpenBLAS exports no thread-count symbol")
    return result["threads"]


def test_import_defaults_openblas_to_one_thread():
    result = probe("figplane-first")
    assert result["env"] == "1"
    assert thread_count(result) == 1


def test_figplane_loading_numpy_itself_keeps_one_thread():
    result = probe("figplane-tables")
    assert result["numpy_at_import"] is False
    assert result["env"] == "1"
    assert thread_count(result) == 1


def test_explicit_thread_count_is_kept():
    result = probe("figplane-first", threads="2")
    assert result["env"] == "2"
    assert thread_count(result) == min(2, len(os.sched_getaffinity(0)))


def test_numpy_imported_first_leaves_the_environment_alone():
    assert probe("numpy-first")["env"] is None


# numpy's BLAS-backed entry points; ``linalg`` stands for the whole module
BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "einsum", "tensordot", "linalg"}


def _numpy_chain(node) -> bool:
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name) and node.id in ("np", "numpy")


def blas_uses(source: str, filename: str = "<src>") -> list[str]:
    """Every place where ``source`` reaches BLAS: an ``@``, an attribute of
    numpy named in BLAS_NAMES, anything of ``linalg``, an import of those,
    or the one-argument method call ``a.dot(b)`` of an ndarray.

    figplane's own ``dot`` is field arithmetic over GF(q^3), not BLAS:
    ``plane.dot(ctx, u, v)`` and ``FieldArrays.dot(u, v)`` take two or more
    arguments, so they pass."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        where = f"{filename}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{where}: @")
        elif isinstance(node, ast.Attribute) and (
                node.attr == "linalg" or (node.attr in BLAS_NAMES and _numpy_chain(node.value))):
            found.append(f"{where}: {node.attr}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in BLAS_NAMES and len(node.args) == 1:
            found.append(f"{where}: .{node.func.attr}(...)")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
            if any(part in BLAS_NAMES for name in names for part in name.split(".")):
                found.append(f"{where}: import")
    return found


def test_figplane_makes_no_blas_call():
    files = sorted((SRC / "figplane").glob("*.py"))
    assert len(files) >= 10
    found = [use for path in files for use in blas_uses(path.read_text(), path.name)]
    assert found == [], "BLAS is in use: revisit the OPENBLAS_NUM_THREADS default"


@pytest.mark.parametrize("snippet", [
    "c = a @ b", "a @= b", "np.dot(a, b)", "numpy.einsum('ij,jk', a, b)",
    "np.linalg.norm(a)", "a.dot(b)", "from numpy import tensordot",
    "from numpy.linalg import solve", "import numpy.linalg", "f = np.matmul",
])
def test_blas_scan_catches(snippet):
    assert blas_uses(snippet)


def test_blas_scan_passes_field_arithmetic():
    assert blas_uses("F.dot(u, v)\ndot(ctx, point, line)\nnp.take(a, i)\na * b") == []
