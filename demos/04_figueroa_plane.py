"""Build FIG(27) from PG(2,27) and verify it is a projective plane.

Keeps the Type I and II lines, replaces every Type III line by the block
of its involution image, checks the axioms exactly, and shows that the
checker catches a deliberately broken structure.
"""

import time
from collections import Counter

from figplane import (ANCHOR, IncidencePlane, ProjectivePlane,
                      build_field_tower, build_fig_plane, check_axioms,
                      fig_block)

ctx = build_field_tower(3, 1)
plane = ProjectivePlane(ctx)

block = fig_block(ctx, ANCHOR)
print(f"block of the anchor: {len(block.points)} points "
      f"({len(block.e_points)} Type II on its line, {len(block.f_points)} Type III)")

t0 = time.perf_counter()
fig = build_fig_plane(plane)
print(f"FIG(27): {len(fig.blocks)} blocks, composition {dict(Counter(fig.tags))}, "
      f"built in {time.perf_counter() - t0:.2f}s")

t0 = time.perf_counter()
rep = check_axioms(fig)
print(f"axioms: {'pass' if rep.ok else 'FAIL'} "
      f"(mode {rep.mode}, {time.perf_counter() - t0:.2f}s)")

# break it on purpose: put one replaced line back
mutated = IncidencePlane(plane, fig.blocks.copy(), list(fig.tags))
i = fig.tags.index("fig")
mutated.blocks[i] = plane.tables.incidence[i]
bad = check_axioms(mutated)
print(f"with one block undone: {'pass' if bad.ok else 'FAIL, as expected'}")
print(f"  first witness: {bad.witnesses[0]}")
