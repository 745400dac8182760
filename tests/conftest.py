import functools
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from figplane.field import build_field_tower
from figplane.plane import ProjectivePlane
from figplane.collineation import partition_orbits, point_types_table
from figplane.figueroa import IncidencePlane, build_fig_plane


SRC = Path(__file__).resolve().parents[1] / "src"


def child_env() -> dict[str, str]:
    """The environment with ``src`` first on PYTHONPATH, for a child
    interpreter that imports figplane from this checkout."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))


@dataclass
class HeldRows(IncidencePlane):
    """A row source that holds its rows as one (count, k) int32 array,
    ``blocks``, so that a test can corrupt rows, or give the array a wrong
    shape, in place.  figplane itself holds no such array: its sources make
    their rows when they are read."""
    blocks: np.ndarray = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.blocks.shape

    def rows(self, L):
        return self.blocks[L]


def held(structure) -> HeldRows:
    """Every row of ``structure``, read once, as a read-only ``HeldRows``;
    a mutation starts from ``blocks.copy()``."""
    blocks = structure.rows(np.arange(structure.shape[0]))
    blocks.setflags(write=False)
    return HeldRows(structure.plane, blocks)


def replaced(structure, rows) -> HeldRows:
    """A ``HeldRows`` copy of every row of ``structure``, with row L
    replaced by ``rows[L]`` for each L of the dict ``rows``."""
    blocks = structure.rows(np.arange(structure.shape[0]))
    for L, row in rows.items():
        blocks[L] = row
    return HeldRows(structure.plane, blocks)


@pytest.fixture(scope="session")
def ctx3():
    return build_field_tower(3, 1)


@pytest.fixture(scope="session")
def ctx4():
    return build_field_tower(2, 2)


@pytest.fixture(scope="session")
def ctx5():
    return build_field_tower(5, 1)


@pytest.fixture(scope="session")
def plane3(ctx3):
    return ProjectivePlane(ctx3)


@pytest.fixture(scope="session")
def plane4(ctx4):
    return ProjectivePlane(ctx4)


@pytest.fixture(scope="session")
def plane5(ctx5):
    return ProjectivePlane(ctx5)


@pytest.fixture(scope="session")
def types3(plane3):
    return point_types_table(plane3)


@pytest.fixture(scope="session")
def classes3(plane3):
    return partition_orbits(plane3)


@pytest.fixture(scope="session")
def classes4(plane4):
    return partition_orbits(plane4)


@pytest.fixture(scope="session")
def fig3(plane3):
    return build_fig_plane(plane3)


@pytest.fixture(scope="session")
def fig4(plane4):
    return build_fig_plane(plane4)


@pytest.fixture(scope="session")
def held3(fig3):
    """The rows of FIG(27), held (``HeldRows``)."""
    return held(fig3)


@pytest.fixture(scope="session")
def held4(fig4):
    return held(fig4)


@pytest.fixture
def fast_fig_incident(monkeypatch):
    """``figueroa.fig_incident`` reads the type and involution image of its
    point and its line on every call; a scan of every point against many
    lines asks for each of them many times, so the scalar functions it calls
    are cached for the test."""
    import figplane.figueroa as fg
    for name in ("point_type", "line_type", "conjugate_join", "conjugate_meet"):
        monkeypatch.setattr(fg, name, functools.cache(getattr(fg, name)))
