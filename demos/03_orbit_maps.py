"""Maps that shuffle the orbit partition: involution, projection, splash.

Shows the three ways a side subplane turns into a scattered linear set on
the axis, the projection-vertex census, and the fixed-plane searches.
"""

from figplane import (ProjectivePlane, build_field_tower, format_point, partition_orbits,
                      vertex_census)
from figplane.linear_sets import fixed_subplane, sls_points, t_plane
from figplane.maps import anchor_cross, anchor_projections, mu_fixed_planes, phi_fixed_planes

ctx = build_field_tower(3, 1)
q = ctx.q
plane = ProjectivePlane(ctx)
tables = plane.tables

# orbit objects are sorted rows of point (or line) indices; the maps act
# on whole rows at once
theta = 2  # a norm class with norm != 1
B = t_plane(ctx, theta)
projection = tuple(sorted(anchor_projections(tables, B.points).tolist()))
splashes = tuple(sorted(anchor_cross(tables, B.lines).tolist()))
involution = tuple(sorted(tables.mu[list(B.lines)].tolist()))
print(f"side subplane for theta = {theta} (norm class {ctx.norm_class(theta)}), "
      f"through {format_point(plane.point(B.points[0]))}:")
print(f"  projection image  = linear set of norm class "
      f"{ctx.norm_class(ctx.mul(theta, theta))}")
assert projection == sls_points(ctx, ctx.mul(theta, theta))
print(f"  splash image      = linear set of norm class "
      f"{ctx.norm_class(ctx.neg(ctx.mul(theta, theta)))}")
assert splashes == sls_points(ctx, ctx.neg(ctx.mul(theta, theta)))
print(f"  involution image  = linear set of norm class "
      f"{ctx.norm_class(ctx.neg(ctx.inv(theta)))}")
assert involution == sls_points(ctx, ctx.neg(ctx.inv(theta)))
print()

vc = vertex_census(plane, fixed_subplane(ctx))
total = sum(len(v) for v in vc.by_class.values())
print(f"projection vertices for the fixed subplane: {total} "
      f"(= q^3 - q^2 - q - 1 = {q**3 - q**2 - q - 1})")
for j, vs in vc.by_class.items():
    print(f"  onto norm class {j}: {len(vs)} vertices")
print(f"  plus {vc.club} vertices with club images and {vc.other} others")
print()

for p, k in ((3, 1), (2, 2)):
    c = build_field_tower(p, k)
    pl = ProjectivePlane(c)
    cls = partition_orbits(pl)
    phif = phi_fixed_planes(pl, cls)    # positions of classes,
    muf = mu_fixed_planes(pl, cls)      # whose representatives are cls.reps
    print(f"q = {c.q}: {len(phif)} collineation-fixed subplanes "
          f"({' '.join(format_point(pl.point(i)) for i in cls.reps[phif])}), "
          f"{len(muf)} involution-fixed")
