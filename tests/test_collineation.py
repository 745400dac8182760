import random
import re

import numpy as np
import pytest

from figplane.plane import (ANCHOR, ANCHOR_1, ANCHOR_2, ProjectivePlane,
                            canonical, incident)
from figplane.collineation import (CATEGORIES, CATEGORY_TYPES, TYPE_I, TYPE_II,
                                   TYPE_III, VERTEX, OrbitInconsistency,
                                   census_of, collineate_line,
                                   collineate_point, expected_type_counts,
                                   line_type, norm_det_identity,
                                   partition_orbits, point_type, tally_types)
from figplane.field import FieldError, context_for_q
from figplane.linear_sets import fixed_subplane, sls_points

from set_oracle import apply_stabilizer, stabilizer_orbit, triples, units


def test_collineation_examples(ctx3):
    assert collineate_point(ctx3, ANCHOR) == ANCHOR_1
    assert collineate_point(ctx3, ANCHOR_1) == ANCHOR_2
    assert collineate_point(ctx3, (1, 1, 1)) == (1, 1, 1)
    assert collineate_line(ctx3, (0, 0, 1)) == (1, 0, 0)


def test_collineation_order_and_incidence(plane3):
    ctx = plane3.ctx
    rng = random.Random(1)
    for _ in range(300):
        P = plane3.points[rng.randrange(len(plane3))]
        l = plane3.point(rng.randrange(len(plane3)))
        assert collineate_point(ctx, P, 3) == P
        assert collineate_line(ctx, l, 3) == l
        assert incident(ctx, P, l) == incident(
            ctx, collineate_point(ctx, P), collineate_line(ctx, l))


def test_type_examples(ctx3):
    assert point_type(ctx3, ANCHOR) == TYPE_III
    assert point_type(ctx3, (1, 1, 1)) == TYPE_I
    for s in units(ctx3):
        P = canonical(ctx3, (s, 1, 0))
        want = TYPE_II if ctx3.norm(s) == ctx3.neg_one else TYPE_III
        assert point_type(ctx3, P) == want


def test_line_type_mirrors_point_rule(ctx3):
    # lines through the anchor follow the same norm rule
    for r in units(ctx3):
        l = canonical(ctx3, (r, 1, 0))
        want = TYPE_II if ctx3.norm(r) == ctx3.neg_one else TYPE_III
        assert line_type(ctx3, l) == want


def test_stabilizer_examples(ctx3):
    P = (1, 5, 9)
    assert apply_stabilizer(ctx3, 1, P) == P
    for lam in ctx3.base_units():
        assert apply_stabilizer(ctx3, lam, (1, 1, 1)) == (1, 1, 1)
    with pytest.raises(FieldError):
        apply_stabilizer(ctx3, 0, P)
    # q^2+q+1 distinct projectivities, seen on a free orbit
    assert len({apply_stabilizer(ctx3, t, (1, 1, 1)) for t in units(ctx3)}) == 13


def test_stabilizer_coset_equality(ctx3):
    rng = random.Random(2)
    for _ in range(50):
        t = rng.randrange(1, 27)
        lam = ctx3.base_units()[rng.randrange(2)]
        P = canonical(ctx3, (rng.randrange(1, 27), rng.randrange(1, 27),
                             rng.randrange(1, 27)))
        assert apply_stabilizer(ctx3, t, P) == \
            apply_stabilizer(ctx3, ctx3.mul(lam, t), P)


def test_orbit_examples(ctx3):
    assert stabilizer_orbit(ctx3, ANCHOR) == {ANCHOR}
    assert stabilizer_orbit(ctx3, ANCHOR_1) == {ANCHOR_1}
    assert stabilizer_orbit(ctx3, (1, 1, 1)) == triples(ctx3, fixed_subplane(ctx3).points)
    tau = 2
    orb = stabilizer_orbit(ctx3, canonical(ctx3, (tau, 1, 0)))
    assert len(orb) == 13
    assert all(P[2] == 0 for P in orb)
    assert orb == triples(ctx3, sls_points(ctx3, tau))


def test_partition_census_q3(plane3, classes3):
    cen = census_of(plane3, classes3)
    assert cen.orbit_counts == {
        "vertex": 3, "sls_II": 3, "sls_III": 3, "plane_I_I": 1,
        "plane_II_III": 21, "plane_III_II": 21, "plane_III_III": 9}
    assert cen.total_orbits == len(classes3) == 61
    assert cen.total_points == 757


def test_partition_census_q4(plane4, classes4):
    cen = census_of(plane4, classes4)
    assert cen.orbit_counts == {
        "vertex": 3, "sls_II": 3, "sls_III": 6, "plane_I_I": 1,
        "plane_II_III": 57, "plane_III_II": 57, "plane_III_III": 74}
    assert cen.total_orbits == len(classes4) == 201


def class_list(plane, classes):
    """The classes as (rep, members, category) triples in representative
    order: a vertex class is its representative, and the others are their
    member rows."""
    full = np.flatnonzero(classes.categories != VERTEX)
    rows = iter(classes.members(full).tolist())
    return [(plane.point(r), [r] if c == VERTEX else next(rows), CATEGORIES[c])
            for r, c in zip(classes.reps.tolist(), classes.categories.tolist())]


def scalar_partition(plane):
    """The scalar orbit walk: scan the points in index order, and classify
    each new stabilizer orbit by the scalar point and secant-line types."""
    ctx, idx = plane.ctx, plane.index
    seen, out = set(), []
    for P in plane.points:
        if P in seen:
            continue
        orbit = stabilizer_orbit(ctx, P)
        seen |= orbit
        ptype = point_type(ctx, P)
        if len(orbit) == 1:
            category = "vertex"
        elif 0 in P:
            category = "sls_II" if ptype == TYPE_II else "sls_III"
        else:
            x, y, z = P
            ltype = line_type(ctx, canonical(ctx, (ctx.mul(y, z), ctx.mul(z, x),
                                                   ctx.mul(x, y))))
            category = {(TYPE_I, TYPE_I): "plane_I_I",
                        (TYPE_II, TYPE_III): "plane_II_III",
                        (TYPE_III, TYPE_II): "plane_III_II",
                        (TYPE_III, TYPE_III): "plane_III_III"}[(ptype, ltype)]
        out.append((P, sorted(idx(Q) for Q in orbit), category))
    return out


def test_partition_matches_scalar_walk(plane3, classes3, plane4, classes4):
    for plane, classes in ((plane3, classes3), (plane4, classes4)):
        assert class_list(plane, classes) == scalar_partition(plane)


def test_member_matrix_rows_are_the_class_members(plane3, classes3, plane4, classes4):
    """``members`` makes one int32 row of sorted members per class that is
    not a vertex, its representative first, and refuses a vertex class;
    with the three vertices the rows cover every point once.  The classes
    hold no member array."""
    for plane, classes in ((plane3, classes3), (plane4, classes4)):
        full = np.flatnonzero(classes.categories != VERTEX)
        M = classes.members(full)
        assert M.shape == (len(classes) - 3, plane.ctx.sub_order) and M.dtype == np.int32
        assert (np.diff(M, axis=1) > 0).all()
        assert M[:, 0].tolist() == classes.reps[full].tolist()
        vertices = classes.reps[classes.categories == VERTEX]
        assert sorted(vertices.tolist()) == sorted(map(plane.index, (ANCHOR, ANCHOR_1, ANCHOR_2)))
        cover = np.bincount(np.concatenate((M.ravel(), vertices)), minlength=plane.size)
        assert (cover == 1).all()
        with pytest.raises(ValueError, match="vertex class"):
            classes.members(np.flatnonzero(classes.categories == VERTEX)[:1])
        assert [k for k, v in vars(classes).items() if isinstance(v, np.ndarray)] == \
            ["reps", "categories"]


@pytest.mark.parametrize("q", [3, 4])
def test_member_rows_are_the_stabilizer_orbits(q):
    """Exhaustive: the member row of every class but the vertices is the
    sorted scalar ``stabilizer_orbit`` of its representative."""
    plane = ProjectivePlane(context_for_q(q))
    classes = partition_orbits(plane)
    full = np.flatnonzero(classes.categories != VERTEX)
    got = classes.members(full).tolist()
    want = [sorted(map(plane.index, stabilizer_orbit(plane.ctx, plane.point(r))))
            for r in classes.reps[full].tolist()]
    assert got == want


def test_class_arrays_are_the_class_rows(classes3, classes4):
    """``reps`` and ``categories`` list each class's least member and
    category in increasing order of the representatives, and ``of`` picks
    the positions of the classes of a category."""
    for classes in (classes3, classes4):
        assert len(classes) == len(classes.reps) == len(classes.categories)
        assert (np.diff(classes.reps) > 0).all() and classes.categories.dtype == np.int8
        for k, cat in enumerate(CATEGORIES):
            assert classes.of(cat).tolist() == [
                j for j, c in enumerate(classes.categories.tolist()) if c == k]


def test_partition_rejects_a_mixed_orbit(ctx3, classes3):
    """The representative (column 0) or a member of a class flipped to each
    other type names the orbit as mixing types, not its category as
    impossible: the member rows are checked before the categories."""
    for category in ("sls_III", "plane_II_III", "plane_III_II", "plane_III_III"):
        own, row = CATEGORY_TYPES[category][0], classes3.members(classes3.of(category)[:1])[0]
        for column in (0, 1):
            for kind in sorted({TYPE_I, TYPE_II, TYPE_III} - {own}):
                plane = ProjectivePlane(ctx3)
                types = plane.tables.types.copy()
                types[row[column]] = kind
                plane.tables.types = types
                want = f"orbit of {plane.point(row[0])} mixes point types {sorted([own, kind])}"
                with pytest.raises(OrbitInconsistency, match=re.escape(want)):
                    partition_orbits(plane)


def test_partition_rejects_a_merged_orbit(ctx3, classes3):
    # two classes of one category merged into one of twice the size
    plane = ProjectivePlane(ctx3)
    a, b = classes3.members(classes3.of("plane_II_III")[:2])[:, 0]
    orbit = plane.tables.orbit.copy()
    orbit[orbit == b] = a
    plane.tables.orbit = orbit
    with pytest.raises(OrbitInconsistency, match="has size 26, not 13"):
        partition_orbits(plane)


def test_partition_rejects_swapped_orbit_labels(ctx3, classes3):
    """Two points of different plane_III_III classes trade orbit labels:
    sizes, types and categories stay as they were, and the closed-form
    member row of the first class shows the point it no longer owns."""
    plane = ProjectivePlane(ctx3)
    (a, i), (b, j) = classes3.members(classes3.of("plane_III_III")[:2])[:, :2]
    orbit = plane.tables.orbit.copy()
    orbit[i], orbit[j] = b, a
    plane.tables.orbit = orbit
    with pytest.raises(OrbitInconsistency, match=re.escape(str(plane.point(a)))):
        partition_orbits(plane)


def test_orbit_members_share_types(plane3, classes3, types3):
    for _, members, category in class_list(plane3, classes3):
        assert {types3[i] for i in members} == {CATEGORY_TYPES[category][0]}


def test_collineation_permutes_classes(plane3, classes3):
    ctx = plane3.ctx
    idx = plane3.index
    perm = [idx(collineate_point(ctx, P)) for P in plane3.points]
    categories = {frozenset(members): cat for _, members, cat in class_list(plane3, classes3)}
    for members, cat in categories.items():
        image = frozenset(perm[i] for i in members)
        assert categories[image] == cat


def test_split_by_matches_the_image_classes(plane3, classes3):
    """``split_by(g)`` flags exactly the classes whose members g sends into
    more than one class: none for phi, which permutes the classes, and for
    a random permutation the classes whose image labels are not all one."""
    orbit = plane3.tables.orbit
    assert not classes3.split_by(plane3.tables.phi).any()
    g = np.random.default_rng(3).permutation(plane3.size)
    want = [len({orbit[g[i]] for i in members}) > 1
            for _, members, _ in class_list(plane3, classes3)]
    assert classes3.split_by(g).tolist() == want and any(want) and not all(want)


def test_type_counts_closed_forms(plane3):
    want = expected_type_counts(3)
    assert tally_types(plane3.tables.types) == want
    assert want == {TYPE_I: 13, TYPE_II: 312, TYPE_III: 432}


def test_norm_det_identity_trivial(ctx3):
    assert norm_det_identity(ctx3, (1, 1, 1))


def test_norm_det_identity_fuzz(ctx3):
    rng = random.Random(9)
    for _ in range(1000):
        P = canonical(ctx3, (rng.randrange(1, 27), rng.randrange(1, 27),
                             rng.randrange(1, 27)))
        assert norm_det_identity(ctx3, P)
    with pytest.raises(FieldError):
        norm_det_identity(ctx3, (1, 1, 0))


def test_norm_det_identity_type2_nonzero_side(ctx3, plane3, types3):
    # for a Type II point off the sides both extreme terms are nonzero
    from figplane.collineation import det3, line_orbit_matrix, point_orbit_matrix
    ctx = ctx3
    found = False
    for P, t in zip(plane3.points, types3):
        if t == TYPE_II and 0 not in P:
            x, y, z = P
            X = ctx.sub(ctx.mul(x, ctx.frob(x)), ctx.mul(y, ctx.frob(z)))
            assert det3(ctx, point_orbit_matrix(ctx, P)) == 0
            line = (ctx.mul(y, z), ctx.mul(z, x), ctx.mul(x, y))
            dl = det3(ctx, line_orbit_matrix(ctx, line))
            assert ctx.norm(X) == ctx.neg(dl) != 0
            found = True
            break
    assert found
