import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from figplane.field import (FieldContext, FieldError, build_field_tower, context_for_q, order_of,
                            table_bytes)

from gf_oracle import code_to_poly, poly_add, poly_mul, poly_pow, poly_to_code
from set_oracle import in_base_subfield, units

TOWERS = [(3, 1), (2, 2), (5, 1), (2, 3), (7, 1)]


def test_basic_orders():
    ctx = build_field_tower(3, 1)
    assert (ctx.q, ctx.q3, ctx.n) == (3, 27, 26)
    ctx = build_field_tower(2, 2)
    assert (ctx.q, ctx.q3) == (4, 64)


def test_generator_order_against_divisors():
    # group order at q = 5 is 124; independent polynomial exponentiation
    ctx = build_field_tower(5, 1)
    g = ctx.generator_poly
    assert poly_pow(g, 13, ctx.modulus, ctx.p) != 1
    assert poly_pow(g, 62, ctx.modulus, ctx.p) != 1
    assert poly_pow(g, 124, ctx.modulus, ctx.p) == 1
    for d in (1, 2, 4, 31, 62):
        assert poly_pow(g, d, ctx.modulus, ctx.p) != 1


@pytest.mark.parametrize("p,k", TOWERS)
def test_mul_against_polynomial_oracle(p, k):
    ctx = build_field_tower(p, k)
    rng = random.Random(p * 100 + k)
    for _ in range(300):
        a, b = rng.randrange(ctx.q3), rng.randrange(ctx.q3)
        want = poly_mul(code_to_poly(ctx, a), code_to_poly(ctx, b), ctx.modulus, p)
        assert ctx.mul(a, b) == poly_to_code(ctx, want)


@pytest.mark.parametrize("p,k", TOWERS)
def test_add_against_polynomial_oracle(p, k):
    ctx = build_field_tower(p, k)
    rng = random.Random(p * 100 + k + 1)
    for _ in range(300):
        a, b = rng.randrange(ctx.q3), rng.randrange(ctx.q3)
        want = poly_add(code_to_poly(ctx, a), code_to_poly(ctx, b), p, ctx.m)
        assert ctx.add(a, b) == poly_to_code(ctx, want)


@given(st.integers(0, 26), st.integers(0, 26), st.integers(0, 26))
@settings(max_examples=200)
def test_field_axioms_gf27(a, b, c):
    ctx = build_field_tower(3, 1)
    assert ctx.add(a, b) == ctx.add(b, a)
    assert ctx.mul(a, b) == ctx.mul(b, a)
    assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
    assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
    assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
    assert ctx.add(a, 0) == a
    assert ctx.sub(a, a) == 0
    if a:
        assert ctx.mul(a, ctx.inv(a)) == 1


def test_lagrange_by_repeated_multiplication():
    ctx = build_field_tower(3, 1)
    tau = 2  # the generator as a code
    acc = 1
    for _ in range(26):
        acc = ctx.mul(acc, tau)
    assert acc == 1
    assert ctx.power(tau, 26) == 1


@pytest.mark.parametrize("p,k", TOWERS)
def test_frobenius(p, k):
    ctx = build_field_tower(p, k)
    assert ctx.frob(0, 1) == 0
    for a in ctx.elements():
        assert ctx.frob(a, 0) == a
        assert ctx.frob(ctx.frob(ctx.frob(a))) == a
        assert ctx.frob(ctx.frob(a)) == ctx.frob(a, 2)


def test_frobenius_is_cube_at_q3():
    ctx = build_field_tower(3, 1)
    tau = 2
    assert ctx.frob(tau) == ctx.power(tau, 3)


@pytest.mark.parametrize("p,k", TOWERS)
def test_norm(p, k):
    ctx = build_field_tower(p, k)
    assert ctx.norm(1) == 1
    assert ctx.norm(0) == 0
    rng = random.Random(7)
    for _ in range(200):
        a, b = rng.randrange(1, ctx.q3), rng.randrange(1, ctx.q3)
        assert ctx.norm(ctx.mul(a, b)) == ctx.mul(ctx.norm(a), ctx.norm(b))
        assert in_base_subfield(ctx, ctx.norm(a))
        assert ctx.norm(a) != 0
    for lam in ctx.base_units():
        assert ctx.norm(lam) == ctx.power(lam, 3)


def test_norm_fiber_size_gf27():
    ctx = build_field_tower(3, 1)
    tau = 2
    fiber = [x for x in units(ctx) if ctx.norm(x) == ctx.norm(tau)]
    assert len(fiber) == 13
    # every base unit is hit by exactly q^2+q+1 elements
    for v in ctx.base_units():
        assert sum(1 for x in units(ctx) if ctx.norm(x) == v) == 13


@pytest.mark.parametrize("p,k", TOWERS)
def test_coset_reps_are_a_transversal_of_the_base_units(p, k):
    """The q^2+q+1 coset representatives times the q - 1 base units give
    every unit exactly once."""
    ctx = build_field_tower(p, k)
    reps = list(ctx.coset_reps())
    assert len(reps) == ctx.sub_order
    assert sorted(ctx.mul(t, lam) for t in reps for lam in ctx.base_units()) == \
        list(units(ctx))


@pytest.mark.parametrize("p,k", TOWERS)
def test_base_subfield(p, k):
    ctx = build_field_tower(p, k)
    base = [0] + ctx.base_units()
    assert len(base) == ctx.q
    assert base == [x for x in ctx.elements() if in_base_subfield(ctx, x)]
    in_base = set(base)
    for a in base:
        for b in base:
            assert ctx.add(a, b) in in_base
            assert ctx.mul(a, b) in in_base


def test_squares():
    ctx = build_field_tower(3, 1)
    squares = {x for x in units(ctx) if ctx.is_nonzero_square(x)}
    assert len(squares) == 13
    assert squares == {ctx.mul(y, y) for y in units(ctx)}
    assert not ctx.is_nonzero_square(0)
    even = build_field_tower(2, 2)
    assert all(even.is_nonzero_square(x) for x in units(even))


def test_square_iff_norm_square_odd_q():
    for p, k in ((3, 1), (5, 1), (7, 1)):
        ctx = build_field_tower(p, k)
        for x in units(ctx):
            assert ctx.is_nonzero_square(x) == ctx.is_nonzero_square(ctx.norm(x))


@pytest.mark.parametrize("p,k", TOWERS)
def test_deterministic_construction(p, k):
    a = FieldContext(p, k)
    b = FieldContext(p, k)
    assert a.modulus == b.modulus
    assert a.generator_poly == b.generator_poly
    assert a.exp_poly == b.exp_poly
    assert a.successor == b.successor


def test_modulus_has_no_subfield_root():
    # gcd with x^(p^d) - x is trivial for every proper divisor d of 3k
    from figplane.field import _poly_gcd, _x_pow_q_minus_x
    ctx = build_field_tower(2, 2)
    for d in (1, 2, 3):
        g = _poly_gcd(_x_pow_q_minus_x(2 ** d, list(ctx.modulus), 2),
                      list(ctx.modulus), 2)
        assert len(g) - 1 == 0


def test_errors(monkeypatch):
    with pytest.raises(FieldError):
        build_field_tower(6, 1)
    monkeypatch.setattr("figplane.field.MAX_ELEMENTS", 7)
    with pytest.raises(FieldError, match="over the table bound 7"):
        build_field_tower(2, 1)
    monkeypatch.undo()
    ctx = build_field_tower(3, 1)
    with pytest.raises(FieldError):
        ctx.inv(0)
    with pytest.raises(FieldError):
        context_for_q(12)


def test_table_bytes_from_q_alone():
    """4 q^6 bytes of field lookup tables and 13 bytes a point, 37 with the
    FIG tables: at q = 27 that is about 6.6 GB, for the census alone."""
    assert table_bytes(3) == 4 * 27 ** 2 + 13 * (27 ** 2 + 27 + 1) == 12_757
    assert table_bytes(3, fig=True) == 4 * 27 ** 2 + 37 * (27 ** 2 + 27 + 1)
    assert round(table_bytes(27) / 1e9, 1) == 6.6


def test_order_of_factors_without_building_a_field(monkeypatch):
    """``order_of`` gives p, k, q and q^3 and raises as ``context_for_q``
    does, with no field built: the tower constructor may not be called."""
    def no_tower(*args):
        raise AssertionError("a field tower was built")
    monkeypatch.setattr("figplane.field.FieldContext", no_tower)
    assert order_of(64) == (2, 6) and order_of(64).q == 64 and order_of(9).q3 == 729
    for q, message in ((12, "q = 12 is not a prime power"), (1, "q = 1 is not a prime power"),
                       (256, "over the table bound")):
        with pytest.raises(FieldError, match=message):
            order_of(q)


def test_order_of_refuses_a_huge_q_before_factoring(monkeypatch):
    """A q whose GF(q^3) is past the table bound is refused from q^3 alone:
    at a large prime q the trial division would not end for hours."""
    def no_factoring(n):
        raise AssertionError("q was factored")
    monkeypatch.setattr("figplane.field.prime_factors", no_factoring)
    for q in (129, 256, 2 ** 61 - 1):
        with pytest.raises(FieldError, match=rf"^q = {q}: q\^3 = {q ** 3} elements, "
                                             "over the table bound 2097152$"):
            order_of(q)


def test_small_q_warning(capsys):
    """The Figueroa gate fails at q = 2 only, and the q = 2 report header
    warns that the construction is unavailable there."""
    from figplane.cli import main
    from figplane.figueroa import FIGUEROA
    assert not FIGUEROA.holds(build_field_tower(2, 1))
    assert FIGUEROA.holds(build_field_tower(3, 1)) and FIGUEROA.holds(build_field_tower(2, 2))
    assert main(["census", "--q", "2", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["header"]["warnings"] == [
        "q = 2 < 3: Figueroa construction is unavailable at this order"]


def test_field_description_serialization():
    ctx = build_field_tower(3, 1)
    spec = ctx.describe()
    assert spec["p"] == 3 and spec["k"] == 1
    assert len(spec["irreducible"]) == 4 and spec["irreducible"][-1] == 1
    assert 2 <= spec["generator_log_base"] < 27


def test_context_for_q():
    assert context_for_q(8).p == 2 and context_for_q(8).k == 3
    assert context_for_q(9).p == 3 and context_for_q(9).k == 2
