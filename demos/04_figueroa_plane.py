"""Build FIG(27) from PG(2,27) and verify it is a projective plane.

Keeps the Type I and II lines, replaces every Type III line by the block
of its involution image, checks the axioms exactly, and shows that the
checker catches a deliberately broken structure.  No block array is
held: the FIG, PG and the broken structure are one row source, which
differ only in the Type III lines they keep, and all make their rows when
the checker reads them through ``rows``.
"""

import dataclasses
import time

import numpy as np

from figplane import (ANCHOR, TYPE_II, TYPE_III, ProjectivePlane, anchor_block,
                      build_field_tower, build_fig_plane, check_axioms, pg_incidence)

ctx = build_field_tower(3, 1)
plane = ProjectivePlane(ctx)

# the block is the FIG row that replaces the anchor's involution image line
block = anchor_block(plane, ANCHOR)
kinds = plane.tables.types[block]
print(f"block of the anchor: {len(block)} points ({(kinds == TYPE_II).sum()} Type II "
      f"on its line, {(kinds == TYPE_III).sum()} Type III)")

t0 = time.perf_counter()
fig = build_fig_plane(plane)
rows = fig.rows(np.arange(plane.size))      # every block, made on this read
# block L replaces line L exactly when line L is Type III
kept_I, kept_II, replaced = np.bincount(plane.tables.types, minlength=4)[1:]
print(f"FIG(27): {len(rows)} blocks: {kept_I} Type I and {kept_II} Type II lines "
      f"kept, {replaced} Type III lines replaced, made in {time.perf_counter() - t0:.2f}s")

t0 = time.perf_counter()
rep = check_axioms(fig)
print(f"axioms: {'pass' if rep.ok else 'FAIL'} (mode {rep.mode}, pairs counted from "
      f"{rep.representatives} points, {time.perf_counter() - t0:.2f}s)")

ref = check_axioms(pg_incidence(plane))
print(f"PG(2, 27) from closed-form rows: {'pass' if ref.ok else 'FAIL'}")

# break it on purpose: keep one Type III line, copying nothing
i = int(np.argmax(plane.tables.types == TYPE_III))
bad = check_axioms(dataclasses.replace(fig, kept=(i,)))
print(f"with one block undone: {'pass' if bad.ok else 'FAIL, as expected'}")
print(f"  first witness: {bad.witnesses[0]}")
