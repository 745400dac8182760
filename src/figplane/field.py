"""Exact arithmetic in the field tower GF(p) < GF(q) < GF(q^3), q = p^k.

Elements are plain integer codes: 0 is the zero element, and a code
c >= 1 stands for g**(c-1), where g is the chosen multiplicative
generator of GF(q^3)*.  Multiplication, inversion and Frobenius are
exponent arithmetic modulo q^3 - 1; addition goes through a precomputed
successor table (the code of x + 1 for every code x), so every field
operation is O(1) integer work.

Construction is deterministic: for fixed (p, k) the modulus is the
lexicographically smallest monic irreducible of degree 3k over GF(p)
(coefficients compared constant term first) and the generator is the
smallest element, in polynomial-encoding order, of full multiplicative
order.  Two independent builds therefore produce identical tables.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, NamedTuple

MAX_ELEMENTS = 2 ** 21   # the largest GF(q^3) whose tables are built


class FieldError(ValueError):
    """Invalid field parameters or an undefined field operation."""


class Gate(NamedTuple):
    """A condition on the order q that a computation needs, and the reason
    to give where it does not hold.  The condition reads only ``q`` and
    ``q3``, so an ``Order`` serves as well as a ``FieldContext``, before
    any field is built."""
    holds: Callable[[Order | FieldContext], bool]
    reason: str


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


# Polynomial helpers over GF(p).  Coefficient lists are low degree first
# and only used while the tables are being built.

def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul_mod(a, b, mod, p):
    res = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            res[i + j] = (res[i + j] + ai * bj) % p
    return _poly_rem(res, mod, p)


def _poly_rem(a, mod, p):
    a = list(a)
    _poly_trim(a)
    dm = len(mod) - 1
    inv_lead = pow(mod[-1], p - 2, p)
    while len(a) - 1 >= dm:
        shift = len(a) - 1 - dm
        factor = (a[-1] * inv_lead) % p
        for i, c in enumerate(mod):
            a[shift + i] = (a[shift + i] - factor * c) % p
        _poly_trim(a)
    return a


def _poly_pow_mod(a, e, mod, p):
    result = [1]
    base = _poly_rem(a, mod, p)
    while e > 0:
        if e & 1:
            result = _poly_mul_mod(result, base, mod, p)
        base = _poly_mul_mod(base, base, mod, p)
        e >>= 1
    return result


def _poly_gcd(a, b, p):
    a, b = list(a), list(b)
    _poly_trim(a)
    _poly_trim(b)
    while b:
        a = _poly_rem(a, b, p)
        a, b = b, a
        _poly_trim(b)
    return a


def _x_pow_q_minus_x(pe, mod, p):
    # x^(p^e) - x reduced mod the candidate modulus
    xq = _poly_pow_mod([0, 1], pe, mod, p)
    out = list(xq) + [0] * max(0, 2 - len(xq))
    out[1] = (out[1] - 1) % p
    return _poly_trim(out)


def _is_irreducible(mod, p):
    """Monic degree-m polynomial test: x^(p^m) == x mod f, and f shares no
    factor with x^(p^d) - x for any proper divisor d of m."""
    m = len(mod) - 1
    if _poly_trim(_x_pow_q_minus_x(p ** m, mod, p)):
        return False
    for ell in prime_factors(m):
        g = _poly_gcd(_x_pow_q_minus_x(p ** (m // ell), mod, p), mod, p)
        if len(g) - 1 > 0:
            return False
    return True


def _find_modulus(p, m):
    for tail in product(range(p), repeat=m):
        if tail[0] == 0:
            continue  # x divides the candidate
        mod = list(tail) + [1]
        if _is_irreducible(mod, p):
            return tuple(mod)
    raise FieldError(f"no irreducible of degree {m} over GF({p})")  # unreachable


def _int_to_poly(v, p, m):
    digits = []
    for _ in range(m):
        digits.append(v % p)
        v //= p
    return digits


def _poly_to_int(a, p):
    v = 0
    for c in reversed(a):
        v = v * p + c
    return v


class FieldContext:
    """The tower GF(p) < GF(q) < GF(q^3) with tables for O(1) arithmetic.

    Immutable after construction; safe to share across workers.  All
    element-level methods take and return integer codes (see module
    docstring for the encoding).
    """

    def __init__(self, p: int, k: int):
        _validate_params(p, k)
        m = 3 * k
        self.p = p
        self.k = k
        self.q = p ** k
        self.q3 = p ** m
        self.m = m
        self.n = self.q3 - 1              # order of the multiplicative group
        self.sub_order = self.q ** 2 + self.q + 1   # index of GF(q)* in GF(q^3)*
        self.modulus = _find_modulus(p, m)

        self.generator_poly = self._find_generator()
        self._build_tables()

        # frequently used codes
        self.zero = 0
        self.one = 1
        self.neg_one = 1 if p == 2 else self.n // 2 + 1
        self._frob1 = [0] + [(e * self.q) % self.n + 1 for e in range(self.n)]
        self._frob2 = [0] + [(e * self.q * self.q) % self.n + 1 for e in range(self.n)]

    def _find_generator(self) -> int:
        p, m, n = self.p, self.m, self.n
        checks = [n // ell for ell in prime_factors(n)]
        for cand in range(2, self.q3):
            poly = _int_to_poly(cand, p, m)
            if all(_poly_trim(list(_poly_pow_mod(poly, c, self.modulus, p))) != [1]
                   for c in checks):
                return cand
        raise FieldError("no multiplicative generator found")  # unreachable

    def _build_tables(self):
        p, m = self.p, self.m
        gen = _int_to_poly(self.generator_poly, p, m)
        exp_poly = [0] * self.n          # code e+1 -> polynomial encoding of g^e
        cur = [1]
        for e in range(self.n):
            exp_poly[e] = _poly_to_int(cur, p)
            cur = _poly_mul_mod(cur, gen, self.modulus, p)
        if _poly_trim(cur) != [1]:
            raise FieldError("generator does not have full order")  # unreachable
        code_of_poly = [0] * self.q3
        for e, v in enumerate(exp_poly):
            code_of_poly[v] = e + 1
        self.exp_poly = exp_poly
        self.code_of_poly = code_of_poly

        # successor[c] = code of (element c) + 1
        succ = [0] * self.q3
        succ[0] = 1
        for c in range(1, self.q3):
            v = exp_poly[c - 1]
            low = v % p
            succ[c] = code_of_poly[v - low + (low + 1) % p]
        self.successor = succ

    # ---- arithmetic on codes -------------------------------------------

    def add(self, a: int, b: int) -> int:
        if a == 0:
            return b
        if b == 0:
            return a
        s = self.successor[(b - a) % self.n + 1]
        if s == 0:
            return 0
        return (a + s - 2) % self.n + 1

    def neg(self, a: int) -> int:
        if a == 0 or self.p == 2:
            return a
        return (a - 1 + self.n // 2) % self.n + 1

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return (a + b - 2) % self.n + 1

    def inv(self, a: int) -> int:
        if a == 0:
            raise FieldError("inversion of zero")
        return (self.n - (a - 1)) % self.n + 1

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def power(self, a: int, e: int) -> int:
        if a == 0:
            if e > 0:
                return 0
            if e == 0:
                return 1
            raise FieldError("negative power of zero")
        return ((a - 1) * e) % self.n + 1

    def frob(self, a: int, i: int = 1) -> int:
        """a ** (q ** i) for i in {0, 1, 2}."""
        i %= 3
        if i == 0 or a == 0:
            return a
        return self._frob1[a] if i == 1 else self._frob2[a]

    def norm(self, a: int) -> int:
        """Relative norm onto GF(q): a ** (q^2 + q + 1)."""
        if a == 0:
            return 0
        return ((a - 1) * self.sub_order) % self.n + 1

    def is_nonzero_square(self, a: int) -> bool:
        if a == 0:
            return False
        if self.p == 2:
            return True
        return (a - 1) % 2 == 0

    def norm_class(self, a: int) -> int:
        """Index j in 0..q-2 with norm(a) = norm(generator)**j; a != 0."""
        if a == 0:
            raise FieldError("zero has no norm class")
        return (a - 1) % (self.q - 1)

    def norm_class_rep(self, j: int) -> int:
        """Canonical element of norm class j: the generator to the power j."""
        return j % (self.q - 1) + 1 if self.q > 2 else 1

    def elements(self):
        return range(self.q3)

    def coset_reps(self):
        """The codes 1 .. q^2+q+1 of g^0 .. g^(q^2+q), one per coset of
        GF(q)* in GF(q^3)*: g^(q^2+q+1) generates GF(q)*."""
        return range(1, self.sub_order + 1)

    def base_units(self):
        """The q - 1 codes of GF(q)*."""
        return [e * self.sub_order + 1 for e in range(self.q - 1)]

    def describe(self) -> dict:
        """Serializable field description pinned into every report header."""
        return {
            "p": self.p,
            "k": self.k,
            "irreducible": list(self.modulus),
            "generator_log_base": self.generator_poly,
        }

    def __repr__(self):
        return f"FieldContext(p={self.p}, k={self.k}, q={self.q}, q3={self.q3})"


def _validate_params(p: int, k: int) -> None:
    if not is_prime(p):
        raise FieldError(f"p = {p} is not prime")
    if k < 1:
        raise FieldError(f"k = {k} must be a positive integer")
    if p ** (3 * k) > MAX_ELEMENTS:
        raise FieldError(f"GF({p}^{3 * k}) has {p ** (3 * k)} elements, "
                         f"over the table bound {MAX_ELEMENTS}")


def table_bytes(q: int, fig: bool = False, rows: bool = False) -> int:
    """Estimated bytes of the bulk tables one run at order q holds, from q
    alone: the two q^3 x q^3 uint16 lookup tables of ``FieldArrays``,
    4 q^6 bytes, and 13 bytes for each of the n = q^6 + q^3 + 1 points of
    the ``PlaneTables`` entries every census and maps run holds, one int8
    type and three int32 tables (mu, phi and orbit).  With ``fig``, for a
    run whose checks read the torus and Dickson collineations, the FIG
    checks, add 16 bytes a point: their point and line tables
    (``PlaneTables.tau`` and ``PlaneTables.dickson``).  With ``rows``, for
    a run that passes over every FIG row, because a selected check names a
    row reader or the plane is emitted, add 8 more: the two int32 lookup
    tables the rows are gathered from (``PlaneTables.fig_lookup``); no run
    holds the rows themselves.
    The estimate counts held tables only: every table build and n-entry
    scan keeps its temporaries to one chunk (``arrays.CHUNK``) and at most
    two sets of n bits (``arrays.Bits``), and what only subsets read, the
    secants and the orbit members, is made from closed forms when it is
    read."""
    q3 = q ** 3
    n = q3 * q3 + q3 + 1
    return 4 * q3 * q3 + (13 + 16 * fig + 8 * rows) * n


class Order(NamedTuple):
    """A prime power q = p^k, factored and checked against the table bound
    without building its field tower.  Gates and the memory guard read its
    ``q`` as they read that of a ``FieldContext``."""
    p: int
    k: int

    @property
    def q(self) -> int:
        return self.p ** self.k


def order_of(q: int) -> Order:
    """Factor a prime power q = p^k; ``FieldError`` if q is none, or if
    its GF(q^3) is past the table bound, tested first, from q^3 alone."""
    if q < 2:
        raise FieldError(f"q = {q} is not a prime power")
    if q ** 3 > MAX_ELEMENTS:
        # q is not factored yet, so the message names no field: q may be no prime power
        raise FieldError(f"q = {q}: q^3 = {q ** 3} elements, over the table bound {MAX_ELEMENTS}")
    p, *others = prime_factors(q)
    if others:
        raise FieldError(f"q = {q} is not a prime power")
    k = next(k for k in range(1, q) if p ** k == q)
    _validate_params(p, k)
    return Order(p, k)


_CACHE: dict[tuple[int, int], FieldContext] = {}


def build_field_tower(p: int, k: int) -> FieldContext:
    """Deterministic construction of the GF(p) < GF(p^k) < GF(p^3k) tower."""
    _validate_params(p, k)
    key = (p, k)
    if key not in _CACHE:
        _CACHE[key] = FieldContext(p, k)
    return _CACHE[key]


def context_for_q(q: int) -> FieldContext:
    """Factor a prime power q = p^k and build its tower."""
    return build_field_tower(*order_of(q))
