"""The figueroa suite: the blocks, the assembled Figueroa plane and its
axioms, block projections, the arching census, the block-membership
characterization, the even-order structure and splash after the
involution.

The build group makes the FIG claims in mode equivariant: from the
premises of phi, tau and d (the ``equivariance`` stage) and the rows at
one point and one line of each <tau, d> orbit, ``fig.block-sizes``,
``fig.build`` and ``fig.plane`` show the closed-form FIG a projective
plane without reading every row.  The axioms group holds their exhaustive
controls, which pass over every row (``figplane.row_pass``): the build
facts row by row (``fig.build-rows``) and the axiom checks of FIG, of PG
and of the mutation.  The default selection leaves it out; naming it
runs it.

Importing this module registers its checks in the check table of
:mod:`figplane.suites`, in report order.
"""

from __future__ import annotations

import numpy as np

from . import figueroa as fg
from . import linear_sets as ls
from . import maps as gm
from .collineation import TYPE_III, point_type, tally_types
from .plane import (ANCHOR, ANCHOR_1, ANCHOR_2, AXIS, format_line, format_point,
                    points_on_line)
from .report import CheckEntry, entry
from .suites import EVEN_Q, Session, check


def _axis_mismatch(image, want, prefix: str = "") -> list[str]:
    """Witnesses that the point set ``image`` is not ``want``: the points
    it misses, then those it has in excess."""
    return ([f"{prefix}missing {format_point(P)}" for P in sorted(want - image)]
            + [f"{prefix}extra {format_point(P)}" for P in sorted(image - want)])


@check("figueroa", "build", reads=("tables",))
def block_anatomy(sess: Session) -> CheckEntry:
    ctx, plane = sess.ctx, sess.plane
    block = fg.anchor_block(plane, ANCHOR)
    # distinct entries of the sorted row; np.unique would import numpy.ma
    size = 1 + int(np.count_nonzero(block[1:] != block[:-1]))
    f_points = set(map(plane.point, fg.anchor_parts(sess.plane)[1]))
    want_planes = set()
    for th in sess.norm_reps():
        if ctx.norm(th) != 1:
            want_planes.update(ls.t_plane(ctx, th).points)
    conj = fg.anchor_block(plane, ANCHOR_1)
    checks = {
        "size": size == ctx.q ** 3 + 1,
        "axis_overlap": sum(P[2] == 0 for P in map(plane.point, block)) == ctx.sub_order + 2,
        "carriers": {ANCHOR_1, ANCHOR_2} <= f_points,
        "type3_part": f_points - {ANCHOR_1, ANCHOR_2} == want_planes,
        "equivariant": np.array_equal(np.sort(plane.tables.phi[block]), conj),
    }
    bad = [k for k, v in checks.items() if not v]
    return entry("fig.block",
                 "the anchor block splits into the Type II axis part plus the reciprocal subplanes and carriers",
                 not bad, {"size": size}, bad)


def _fig_types(sess: Session) -> dict[str, int]:
    """The counts of the kept Type I and II lines and of the replaced lines."""
    n_I, n_II, n_fig = tally_types(sess.plane.tables.types).values()
    return {"line_I": n_I, "line_II": n_II, "fig": n_fig}


@check("figueroa", "build", reads=("tables", "equivariance"))
def block_sizes(sess: Session) -> CheckEntry:
    eq, tables = sess.equivariance, sess.plane.tables
    reps = eq.lines[tables.types[eq.lines] == TYPE_III]
    # the block replacing line L is the block anchored at mu[L]
    bad = tables.mu[fg.rep_faults(tables, reps)["block"]]
    witnesses = eq.witnesses("tau", "dickson") or [format_point(sess.plane.point(a))
                                                    for a in bad]
    return entry("fig.block-sizes",
                 "every block has exactly q^3 + 1 points, q^2 + q + 1 of them Type II and none Type I",
                 not witnesses,
                 {"anchors": _fig_types(sess)["fig"], "mode": "equivariant",
                  "representatives": len(reps)},
                 witnesses[:fg.MAX_WITNESSES])


@check("figueroa", "build", reads=("tables", "equivariance"))
def assembly(sess: Session) -> CheckEntry:
    eq, tables = sess.equivariance, sess.plane.tables
    count, q, s = sess.fig_structure.shape[0], sess.ctx.q, sess.ctx.sub_order
    kinds, faults = _fig_types(sess), fg.rep_faults(tables, eq.lines)
    transferred = not eq.witnesses("tau", "dickson")     # the facts at the representatives
    checks = {
        "block_count": count == sess.plane.size,
        "kept_line_counts": kinds["line_I"] == s and kinds["line_II"] == (q ** 3 - q) * s,
        "kept_lines_agree": transferred and not faults["kept"].size,
        "blocks_differ_from_lines": transferred and not faults["line"].size,
        "collineation_invariant": not eq.premises["phi"],
    }
    bad = [k for k, v in checks.items() if not v]
    premises = eq.witnesses("phi", "tau", "dickson")[:fg.MAX_WITNESSES] if bad else []
    return entry("fig.build",
                 "the assembled plane keeps Type I and II lines, replaces each Type III line, and is collineation invariant",
                 not bad, {"blocks": count, **kinds, "mode": "equivariant"}, bad + premises)


@check("figueroa", "build", reads=("tables", "equivariance"))
def projective_plane(sess: Session) -> CheckEntry:
    eq, tables, n = sess.equivariance, sess.plane.tables, sess.plane.size
    witnesses = eq.witnesses("tau", "dickson")
    for P in eq.points:
        witnesses.extend(fg.cover_faults(tables, int(P)))
    return entry("fig.plane",
                 "the closed-form FIG is a projective plane: tau and d map its blocks to blocks, and the blocks through one point of each <tau, d> orbit hold every other point once",
                 not witnesses,
                 {"mode": "equivariant", "representatives": len(eq.points),
                  "checked_pairs": n * (n - 1),
                  "given": "tau and d preserve incidence by their matrices, and fig_rows "
                           "is the closed form (tested at q <= 5)"},
                 witnesses[:fg.MAX_WITNESSES])


@check("figueroa", "axioms", reads=("tables",), readers=("build",))
def build_rows(sess: Session) -> CheckEntry:
    bad, facts = sess.row_facts("build")["build"]
    tables = sess.plane.tables
    # a fig row replacing line L is the block anchored at mu[L]
    witnesses = ([format_point(sess.plane.point(a)) for a in tables.mu[bad[:fg.MAX_WITNESSES]]]
                 + [k for k, v in facts.items() if not v])
    return entry("fig.build-rows",
                 "row by row, every block has q^3 + 1 points, q^2 + q + 1 of them Type II and none Type I, no block is a line, the kept lines keep their rows, and phi maps rows to rows",
                 not witnesses,
                 {"anchors": _fig_types(sess)["fig"], "mode": "exhaustive"},
                 witnesses)


@check("figueroa", "axioms", reads=("tables",), readers=("axioms",))
def axioms(sess: Session) -> CheckEntry:
    rep = sess.row_facts("axioms")["axioms"]
    return entry("fig.axioms",
                 "every point pair lies in one block and every block pair meets in one point",
                 rep.ok,
                 {"mode": rep.mode, "checked_pairs": rep.checked_pairs,
                  "representatives": rep.representatives,
                  "block_size_ok": str(rep.block_size_ok),
                  "point_degree_ok": str(rep.point_degree_ok)},
                 rep.witnesses)


@check("figueroa", "axioms", reads=("tables",), readers=("reference",))
def axioms_reference(sess: Session) -> CheckEntry:
    rep = sess.row_facts("reference")["reference"]     # the lines the FIG rows replace: PG
    return entry("fig.axioms-reference",
                 "the unmodified plane passes the same axiom checker",
                 rep.ok, {"mode": rep.mode, "representatives": rep.representatives},
                 rep.witnesses)


@check("figueroa", "axioms", reads=("tables",), readers=("mutation",))
def axioms_mutation(sess: Session) -> CheckEntry:
    i = fg.mutated_line(sess.plane.tables)
    rep = sess.row_facts("mutation")["mutation"]
    caught = (not rep.ok) and bool(rep.witnesses)
    verdict = "accepted it" if rep.ok else "rejected it with no witness"
    return entry("fig.axioms-mutation",
                 "replacing one block by the line it displaced breaks the axioms with a witness",
                 caught, {"mode": rep.mode, "representatives": rep.representatives,
                          "witnesses": len(rep.witnesses)},
                 rep.witnesses[:2] if caught else [
                     f"block {format_line(sess.plane.point(i))} swapped back to its line: "
                     f"the axiom checker {verdict}"])


@check("figueroa", "pr", reads=("tables",))
def projection_anchor(sess: Session) -> CheckEntry:
    ctx = sess.ctx
    q = ctx.q
    img = fg.pr_fig_block(sess.plane, 0)
    want = fg.expected_pr_fig_block(ctx, 0)
    if q % 2 == 0:
        size_want = q ** 3 + 1
    else:
        size_want = 2 + (q - 1 if q % 4 == 1 else q + 1) // 2 * ctx.sub_order
    bad = _axis_mismatch(img, want)
    if len(want) != size_want:
        bad.append(f"image and closed form have {len(want)} points, not {size_want}")
    return entry("fig.projection-anchor",
                 "the anchor block projects onto the whole axis (even q) or the square-norm side (odd q)",
                 not bad, {"image_size": len(img), "expected_size": size_want}, bad[:5])


@check("figueroa", "pr", reads=("tables",))
def projection_conjugates(sess: Session) -> CheckEntry:
    images = {which: fg.pr_fig_block(sess.plane, which) for which in (1, 2)}
    bad = [w for which, img in images.items()
           for w in _axis_mismatch(img, fg.expected_pr_fig_block(sess.ctx, which),
                                   f"conjugate {which}: ")]
    return entry("fig.projection-conjugates",
                 "each conjugate block projects onto the axis minus the norm-one set and its own vertex",
                 not bad, {"image_size": len(images[1])}, bad[:5])


@check("figueroa", "arching")
def arching(sess: Session) -> CheckEntry:
    ctx = sess.ctx
    per_class = fg.arching_census(ctx)
    bad = []
    for j, c in per_class.items():
        nt = ctx.norm(ctx.norm_class_rep(j))
        want = 1 if ctx.q % 2 == 0 else (2 if ctx.is_nonzero_square(nt) else 0)
        if c != want:
            bad.append(f"pencil class {j}: arches {c}, expected {want}")
    return entry("fig.arching",
                 "pencils arch over one subplane each (even q) or two per square norm class (odd q)",
                 not bad,
                 {f"class_{j}": c for j, c in sorted(per_class.items())},
                 bad)


@check("figueroa", "characterization", reads=("tables", "fixed_census"))
def characterization(sess: Session) -> CheckEntry:
    rep = fg.characterize_fig_points(sess.plane, sess.fixed_census)
    return entry("fig.characterization",
                 "off the axis, block membership is equivalent to projecting the fixed subplane onto a side linear set",
                 rep.ok,
                 {"vertices": rep.vertex_count, "expected": rep.expected_count},
                 rep.mismatches)


@check("figueroa", "even-structure", gates=(EVEN_Q,), reads=("tables",))
def even_structure(sess: Session) -> CheckEntry:
    """Even q only: through each triangle vertex, every line carries
    exactly one point of the conjugate block's Type III part or exactly
    one point of its Type II part, never both.  The sets tested at the
    conjugate vertices are the conjugates of the anchor block's parts,
    matching the collineation equivariance of the construction."""
    plane, tables = sess.plane, sess.plane.tables
    parts = fg.anchor_parts(sess.plane)
    counts, bad = {}, []
    for key, V in (("anchor_ok", ANCHOR), ("conjugate1_ok", ANCHOR_1),
                   ("conjugate2_ok", ANCHOR_2)):
        lines = tables.incidence_rows([plane.index(V)])[0]    # the lines through V
        rows = tables.incidence_rows(lines)
        ne, nf = (np.isin(rows, part).sum(axis=1) for part in parts)
        wrong = np.flatnonzero(ne + nf != 1)
        bad.extend(f"vertex {format_point(V)}: line {format_line(plane.point(lines[j]))}"
                   f" carries {nf[j]} Type III and {ne[j]} Type II block points"
                   for j in wrong)
        counts[key] = str(not wrong.size)
        parts = tuple(tables.phi[part] for part in parts)     # on to the next vertex
    return entry("fig.even-structure",
                 "for even q, every line through a triangle vertex carries one conjugated block point of exactly one kind",
                 not bad, counts, bad[:5])


@check("figueroa", "sp-mu", reads=("tables",))
def splash_involution(sess: Session) -> CheckEntry:
    """Splash after the involution, over the Type III part of the anchor
    block, must biject onto the axis minus the norm-one linear set, and
    hit exactly the Type III axis points iff q is even."""
    ctx = sess.ctx
    first, collisions = {}, []       # image -> the first block point splashed onto it
    for P in sorted(map(sess.plane.point, fg.anchor_parts(sess.plane)[1])):
        I = gm.splash(ctx, gm.conjugate_join(ctx, P))
        if first.setdefault(I, P) != P:
            collisions.append(f"{format_point(first[I])} and {format_point(P)}"
                              f" both go to {format_point(I)}")
    image, axis = frozenset(first), frozenset(points_on_line(ctx, AXIS))
    want = axis - ls.sls_points(ctx, ctx.one)
    type3_axis = {P for P in axis if point_type(ctx, P) == TYPE_III}
    iff_even = (image == type3_axis) == (ctx.q % 2 == 0)
    bad = collisions + _axis_mismatch(image, want)
    if not iff_even:
        bad.append(f"at q = {ctx.q} the image {'is' if image == type3_axis else 'is not'}"
                   " the Type III axis points")
    return entry("fig.splash-involution",
                 "splash after the involution bijects the Type III block part onto the axis minus the norm-one set",
                 not bad,
                 {"image_size": len(image),
                  "injective": str(not collisions),
                  "type3_iff_even": str(iff_even)},
                 bad[:5])
