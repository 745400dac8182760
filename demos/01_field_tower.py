"""Tour of the field tower GF(p) < GF(q) < GF(q^3).

Builds GF(27) over GF(3), shows the discrete-log element encoding, the
relative norm and its fibers, and square detection.
"""

from figplane import build_field_tower

ctx = build_field_tower(3, 1)
print(f"tower: GF({ctx.p}) < GF({ctx.q}) < GF({ctx.q3})")
print(f"modulus coefficients (constant term first): {ctx.modulus}")
print(f"generator, as a polynomial encoding: {ctx.generator_poly}")
print()

tau = 2  # code 2 is the generator g = g**1
print("codes: 0 is zero, code c >= 1 stands for g**(c-1)")
print(f"g * g = code {ctx.mul(tau, tau)} (g squared)")
print(f"g ** {ctx.n} = code {ctx.power(tau, ctx.n)} (back to one)")
print()

units = range(1, ctx.q3)   # the codes of GF(27)*
print("the norm maps onto GF(q); each nonzero value has q^2+q+1 preimages:")
for v in ctx.base_units():
    fiber = [x for x in units if ctx.norm(x) == v]
    print(f"  norm value {v:2d}: fiber size {len(fiber)}")
print()

squares = [x for x in units if ctx.is_nonzero_square(x)]
print(f"nonzero squares in GF(27): {len(squares)} of {ctx.n}")
base = [x for x in ctx.elements() if ctx.frob(x) == x]    # x^q = x
print(f"middle subfield GF(3) inside GF(27), fixed by x -> x^q: codes {base}")
