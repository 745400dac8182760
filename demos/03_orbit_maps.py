"""Maps that shuffle the orbit partition: involution, projection, splash.

Shows the three ways a side subplane turns into a scattered linear set on
the axis, the projection-vertex census, and the fixed-plane searches.
"""

from figplane import (ProjectivePlane, build_field_tower, conjugate_meet,
                      format_point, partition_orbits, project_from_anchor, splash,
                      vertex_census)
from figplane.linear_sets import fixed_subplane, sls_points, t_plane
from figplane.maps import mu_fixed_planes, phi_fixed_planes

ctx = build_field_tower(3, 1)
q = ctx.q

theta = 2  # a norm class with norm != 1
B = t_plane(ctx, theta)
projection = frozenset(project_from_anchor(ctx, P) for P in B.points)
splashes = frozenset(splash(ctx, l) for l in B.lines)
involution = frozenset(conjugate_meet(ctx, l) for l in B.lines)
print(f"side subplane for theta = {theta} (norm class {ctx.norm_class(theta)}):")
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

plane = ProjectivePlane(ctx)
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
