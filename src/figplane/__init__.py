"""Exhaustive finite-geometry computations in PG(2, q^3).

The package builds the field tower GF(p) < GF(q) < GF(q^3), the plane
PG(2, q^3), an order-3 planar collineation and the stabilizer of its
distinguished triangle, partitions the plane into stabilizer orbits,
constructs the scattered linear sets and subplanes that arise, and
assembles and verifies the Figueroa plane FIG(q^3).

The public names below are exported lazily (PEP 562): ``_EXPORTS`` names
the submodule of each, and the first use of a name imports that submodule
and what it needs, nothing more.  So ``import figplane`` followed by
``context_for_q`` and ``ProjectivePlane`` loads ``figplane.field`` and
``figplane.plane`` and not numpy, which the first bulk table brings in.
Submodules resolve the same way: ``figplane.figueroa`` works after a bare
``import figplane``.
"""

# The one place the version is written: pyproject.toml reads it from here,
# and report headers carry it as figplane.report.TOOL_VERSION.
__version__ = "0.1.0"

import importlib
import os
import sys

# figplane makes no BLAS call: every table is an integer gather, and
# tests/test_blas.py fails on any use.  So, unless the caller chose otherwise
# or numpy is already loaded, numpy's OpenBLAS starts with one thread and no
# idle worker pool to spin up.  This runs at ``import figplane``, before any
# figplane module imports numpy.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# public name -> the submodule that defines it
_EXPORTS = {name: module for module, names in (
    ("field", "FieldContext FieldError build_field_tower context_for_q"),
    ("plane", "ANCHOR ANCHOR_1 ANCHOR_2 AXIS GeometryError ProjectivePlane canonical "
              "format_line format_point incident join meet"),
    ("collineation", "TYPE_I TYPE_II TYPE_III Census OrbitClasses SlsId "
                     "census_of collineate_line collineate_point line_type "
                     "norm_det_identity partition_orbits point_type"),
    ("linear_sets", "SubplaneSet fixed_subplane pencil_lines plane_from_rep "
                    "sls_points t_plane"),
    ("maps", "TypeRestrictionError conjugate_join conjugate_meet "
             "mu_fixed_planes phi_fixed_planes vertex_census"),
    ("figueroa", "IncidencePlane anchor_block arching_census build_fig_plane "
                 "characterize_fig_points check_axioms fig_incident pg_incidence "
                 "pr_fig_block"),
) for name in names.split()}

_SUBMODULES = frozenset(_EXPORTS.values()) | {"arrays", "cli", "report", "row_pass", "suites",
                                               "suite_census", "suite_figueroa", "suite_maps"}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """Import what ``name`` needs on its first use and keep it here."""
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _EXPORTS.keys() | _SUBMODULES)
