"""The names the benchmark's tracer wraps still resolve in figplane.

``perfbench/tracer.py`` wraps figplane functions from outside the package,
by module and name; a name that is renamed or deleted makes the traced
benchmark child fail, far from the change.  This reads the tracer's list
rather than repeating it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, name", _tracer().FUNCTIONS)
def test_traced_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"figplane.{module}"), name))


@pytest.mark.parametrize("module, cls, name", [("plane", "ProjectivePlane", "__init__"),
                                               ("plane", "ProjectivePlane", "points_on"),
                                               ("report", "Report", "render")])
def test_traced_method_resolves(module, cls, name):
    owner = getattr(importlib.import_module(f"figplane.{module}"), cls)
    assert callable(vars(owner)[name])


def test_cli_import_loads_every_traced_module():
    """``instrument`` imports ``figplane.cli`` and then reads each traced
    module from ``sys.modules``: that import alone must load them all."""
    from test_package import loaded_after
    traced = {module for module, _ in _tracer().FUNCTIONS} | {"plane", "report"}
    assert {f"figplane.{m}" for m in traced} <= set(loaded_after("import figplane.cli"))
