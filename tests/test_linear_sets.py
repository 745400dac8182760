import pytest

from figplane.collineation import (CATEGORIES, TYPE_II, TYPE_III, collineate_point,
                                   point_type, sls_id_of_point)
from figplane.field import FieldError, context_for_q
from figplane.linear_sets import (fixed_subplane, pencil_lines, plane_from_rep, sls_points,
                                  t_plane)
from figplane.plane import (ANCHOR, ANCHOR_1, ANCHOR_2, AXIS, GeometryError, canonical,
                            incident)

from set_oracle import (Subplane, points_on_line, as_triples, is_subplane_closed, pencil_set, pencil_type,
                        plane_set, rows, sls_set, t_plane_set, triples, units)


def norm_reps(ctx):
    return [ctx.norm_class_rep(j) for j in range(ctx.q - 1)]


def test_sls_basics(ctx3):
    s1 = triples(ctx3, sls_points(ctx3, 1))
    assert canonical(ctx3, (1, 1, 0)) in s1
    assert len(s1) == 13
    with pytest.raises(FieldError):
        sls_points(ctx3, 0)


def test_sls_norm_keyed(ctx3):
    for th in units(ctx3):
        for kappa in units(ctx3):
            same = ctx3.norm(th) == ctx3.norm(kappa)
            assert (sls_points(ctx3, th) == sls_points(ctx3, kappa)) == same


def test_sls_types(ctx3, ctx4):
    for ctx in (ctx3, ctx4):
        for th in norm_reps(ctx):
            types = {point_type(ctx, P) for P in triples(ctx, sls_points(ctx, th))}
            want = TYPE_II if ctx.norm(th) == ctx.neg_one else TYPE_III
            assert types == {want}


def test_slses_partition_axis(ctx3):
    pieces = [triples(ctx3, sls_points(ctx3, th)) for th in norm_reps(ctx3)]
    assert len(pieces) == 2
    assert not (pieces[0] & pieces[1])
    union = pieces[0] | pieces[1]
    assert union == set(points_on_line(ctx3, AXIS)) - {ANCHOR_1, ANCHOR_2}


def test_sls_sides(ctx3):
    from figplane.collineation import collineate_point
    s = triples(ctx3, sls_points(ctx3, 2, side=1))
    assert s == frozenset(collineate_point(ctx3, P) for P in triples(ctx3, sls_points(ctx3, 2)))
    for P in s:
        ident = sls_id_of_point(ctx3, P)
        assert ident.side == 1 and ident.norm_class == ctx3.norm_class(2)


def test_pencil_types(ctx3):
    assert pencil_type(ctx3, 1) == TYPE_II
    tau = 2
    assert ctx3.norm(tau) != 1
    assert pencil_type(ctx3, tau) == TYPE_III
    for l in triples(ctx3, pencil_lines(ctx3, tau)):
        assert incident(ctx3, ANCHOR, l)


def test_pencil_census(ctx3, ctx4, ctx5):
    for ctx in (ctx3, ctx4, ctx5):
        kinds = [pencil_type(ctx, th) for th in norm_reps(ctx)]
        assert kinds.count(TYPE_II) == 1
        assert kinds.count(TYPE_III) == ctx.q - 2


def test_t_plane_norm_one_is_fixed_subplane(ctx3):
    from figplane.collineation import collineate_point
    B = t_plane(ctx3, 1)
    assert all(collineate_point(ctx3, P) == P for P in triples(ctx3, B.points))
    assert B.points == fixed_subplane(ctx3).points


def test_t_plane_is_built_once(ctx3):
    assert t_plane(ctx3, 2) is t_plane(ctx3, 2)
    assert t_plane(ctx3, 2) is not t_plane(ctx3, 3)
    for _ in range(2):
        with pytest.raises(FieldError):
            t_plane(ctx3, 0)


def test_t_planes_distinct(ctx3, ctx4):
    for ctx in (ctx3, ctx4):
        planes = {t_plane(ctx, th).points for th in units(ctx)}
        assert len(planes) == ctx.q - 1


def test_t_plane_all_type3(ctx3):
    from figplane.collineation import line_type
    tau = 2
    B = as_triples(ctx3, t_plane(ctx3, tau))
    assert {point_type(ctx3, P) for P in B.points} == {TYPE_III}
    assert {line_type(ctx3, l) for l in B.lines} == {TYPE_III}


def test_plane_from_rep_unit_point(ctx3):
    B = plane_from_rep(ctx3, (1, 1, 1))
    fixed = fixed_subplane(ctx3)
    assert B.points == fixed.points and B.lines == fixed.lines
    f = ctx3.frob
    want_lines = {canonical(ctx3, (s, f(s), f(s, 2))) for s in units(ctx3)}
    assert triples(ctx3, B.lines) == frozenset(want_lines)


def test_plane_from_rep_matches_t_plane(ctx3, ctx4):
    for ctx in (ctx3, ctx4):
        for th in norm_reps(ctx):
            R = canonical(ctx, (ctx.mul(th, ctx.frob(th)), 1, th))
            C = plane_from_rep(ctx, R)
            B = t_plane(ctx, th)
            assert C.points == B.points and C.lines == B.lines


def test_plane_from_rep_rejects_side_points(ctx3):
    with pytest.raises(FieldError):
        plane_from_rep(ctx3, (1, 1, 0))


def test_subplane_closure_q3(ctx3):
    for th in norm_reps(ctx3):
        B = as_triples(ctx3, t_plane(ctx3, th))
        assert is_subplane_closed(ctx3, B)
        for l in B.lines:
            assert sum(1 for P in B.points if incident(ctx3, P, l)) == 4


def test_line_set_independent_of_representative(ctx3):
    B = t_plane(ctx3, 2)
    for R in sorted(triples(ctx3, B.points))[:4]:
        assert plane_from_rep(ctx3, R).lines == B.lines


# The paper's formulas, written out over every unit of GF(q^3), not over the
# coset representatives the constructors use: so the comparisons also check
# that the q - 1 scalars of GF(q)* name one object.

def paper_sls(ctx, theta, side):
    """{(x theta, x^q, 0)}, pushed to ``side``."""
    return frozenset(collineate_point(ctx, canonical(ctx, (ctx.mul(x, theta), ctx.frob(x), 0)),
                                      side) for x in units(ctx))


def paper_t_plane(ctx, theta):
    """{(r theta^(q+1), r^q, r^q^2 theta)}, with lines
    {(s, s^q theta^(q+1), s^q^2 theta^q)}."""
    mul, f = ctx.mul, ctx.frob
    tq1 = mul(theta, f(theta))
    return Subplane(
        frozenset(canonical(ctx, (mul(r, tq1), f(r), mul(f(r, 2), theta))) for r in units(ctx)),
        frozenset(canonical(ctx, (s, mul(f(s), tq1), mul(f(s, 2), f(theta))))
                  for s in units(ctx)))


def paper_plane(ctx, P):
    """{(t x, t^q y, t^q^2 z)}, with lines {[yz s : xz s^q : xy s^q^2]}."""
    mul, f = ctx.mul, ctx.frob
    x, y, z = P
    yz, xz, xy = mul(y, z), mul(x, z), mul(x, y)
    return Subplane(
        frozenset(canonical(ctx, (mul(t, x), mul(f(t), y), mul(f(t, 2), z))) for t in units(ctx)),
        frozenset(canonical(ctx, (mul(yz, s), mul(xz, f(s)), mul(xy, f(s, 2))))
                  for s in units(ctx)))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_constructors_are_the_paper_formulas(q):
    """Every norm class and side at q = 2, 3, 4 and 5."""
    ctx = context_for_q(q)
    for theta in norm_reps(ctx):
        for side in range(3):
            assert triples(ctx, sls_points(ctx, theta, side)) == paper_sls(ctx, theta, side)
        assert as_triples(ctx, t_plane(ctx, theta)) == paper_t_plane(ctx, theta)
        R = (ctx.mul(theta, ctx.frob(theta)), 1, theta)
        assert as_triples(ctx, plane_from_rep(ctx, R)) == paper_plane(ctx, R)


def test_orbit_planes_are_the_paper_formula(plane3, classes3):
    """Every plane-class representative at q = 3."""
    ctx = plane3.ctx
    planes = classes3.categories >= CATEGORIES.index("plane_I_I")
    reps = [plane3.point(r) for r in classes3.reps[planes].tolist()]
    assert len(reps) == 1 + 21 + 21 + 9
    for R in reps:
        assert as_triples(ctx, plane_from_rep(ctx, R)) == paper_plane(ctx, R)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_rows_are_the_scalar_oracles(q):
    """The index rows equal the sorted indices of the scalar orbit sets of
    ``set_oracle``: every norm class and side of ``sls_points``, and
    ``t_plane`` and ``pencil_lines`` at every unit theta."""
    ctx = context_for_q(q)
    for theta in norm_reps(ctx):
        for side in range(3):
            assert sls_points(ctx, theta, side) == rows(ctx, sls_set(ctx, theta, side))
    for theta in units(ctx):
        B, want = t_plane(ctx, theta), t_plane_set(ctx, theta)
        assert (B.points, B.lines) == (rows(ctx, want.points), rows(ctx, want.lines))
        assert pencil_lines(ctx, theta) == rows(ctx, pencil_set(ctx, theta))


def test_plane_rows_are_the_scalar_oracle(plane3, classes3):
    """``plane_from_rep`` at every plane-class representative at q = 3
    equals the scalar orbits of the point and of its secant line."""
    ctx = plane3.ctx
    planes = classes3.categories >= CATEGORIES.index("plane_I_I")
    for R in map(plane3.point, classes3.reps[planes].tolist()):
        B, want = plane_from_rep(ctx, R), plane_set(ctx, R)
        assert (B.points, B.lines) == (rows(ctx, want.points), rows(ctx, want.lines))


def test_rows_past_the_int32_tables_are_the_scalar_oracles():
    """At q = 37 the plane has more than 2^31 points, so the rows are int64
    and no ``PlaneTables`` is made; they still equal the scalar orbits."""
    ctx = context_for_q(37)
    theta = ctx.norm_class_rep(1)
    for side in range(3):
        assert sls_points(ctx, theta, side) == rows(ctx, sls_set(ctx, theta, side))
    B, want = t_plane(ctx, theta), t_plane_set(ctx, theta)
    assert (B.points, B.lines) == (rows(ctx, want.points), rows(ctx, want.lines))
    assert max(B.points) >= 2 ** 31


def test_size_guard_counts_distinct_members(ctx3, monkeypatch):
    """A row with a repeated entry has too few distinct members and is
    refused, with the sizes in the message."""
    import figplane.linear_sets as ls
    real = ls.orbit_rows

    def repeated(ctx, P):
        out = real(ctx, P)
        out[:, 1] = out[:, 0]
        return out
    monkeypatch.setattr(ls, "orbit_rows", repeated)
    with pytest.raises(GeometryError, match=r"linear set of 2 has \[12\] members, not 13"):
        sls_points(ctx3, 2)
