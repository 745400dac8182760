"""The stabilizer orbit partition of PG(2, q^3) and its seven categories.

The stabilizer of the frame triangle (fixing the invariant subplane and
the axis setwise) has q^2+q+1 elements; its point orbits partition the
plane into three fixed vertices, scattered linear sets on the triangle
sides, and subplanes of order q, with four point/line type profiles.
The partition is two arrays, the class representatives and their
categories; the members of any class but a vertex are made from the
stabilizer's closed form when they are asked for (``members``).
"""

from figplane import ProjectivePlane, build_field_tower, census_of, partition_orbits
from figplane.collineation import CATEGORIES, CATEGORY_TYPES, TYPE_NAMES, sls_id_of_point

for p, k in ((3, 1), (2, 2)):
    ctx = build_field_tower(p, k)
    plane = ProjectivePlane(ctx)
    classes = partition_orbits(plane)
    cen = census_of(plane, classes)
    q = ctx.q
    print(f"q = {q}: {plane.size} points, {cen.total_orbits} orbit classes")
    print(f"  {'category':<16}{'classes':>8}{'closed form':>14}")
    for cat in CATEGORIES:
        print(f"  {cat:<16}{cen.orbit_counts[cat]:>8}{cen.expected()[cat]:>14}")
    (members,) = classes.members(classes.of("sls_III")[:1])
    sls = sls_id_of_point(ctx, plane.point(members[0]))
    ptype = CATEGORY_TYPES["sls_III"][0]
    assert (plane.tables.types[members] == ptype).all()
    print(f"  a scattered linear set class: side {sls.side}, "
          f"norm class {sls.norm_class}, {len(members)} points, "
          f"all Type {TYPE_NAMES[ptype]}")
    print()
