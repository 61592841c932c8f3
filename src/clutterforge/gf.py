"""Exact arithmetic in Galois fields GF(q) for prime powers q <= 32.

Elements are plain integers 0..q-1. For q = p^k the integer encodes the
coefficient vector of a polynomial residue: value = sum(c_i * p**i) where
(c_0, ..., c_{k-1}) are the coefficients, constant term first. Arithmetic is
table driven; the tables are built once per order from a fixed monic
irreducible modulus polynomial and validated at construction.

Fixed moduli (coefficient lists, constant term first):

    q = 4   x^2 + x + 1          (1, 1, 1)
    q = 8   x^3 + x + 1          (1, 1, 0, 1)
    q = 9   x^2 + 2x + 2         (2, 2, 1)
    q = 16  x^4 + x + 1          (1, 1, 0, 0, 1)
    q = 25  x^2 + 4x + 2         (2, 4, 1)
    q = 27  x^3 + 2x + 1         (1, 2, 0, 1)
    q = 32  x^5 + x^2 + 1        (1, 0, 1, 0, 0, 1)

Prime q uses plain integer arithmetic mod p (modulus recorded as x).
"""
from __future__ import annotations

from functools import lru_cache

from .errors import DivisionByZero, NotPrimePower, UnsupportedField, VerificationFailure, WrongType

MAX_ORDER = 32

_MODULI: dict[int, tuple[int, ...]] = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (2, 2, 1),
    16: (1, 1, 0, 0, 1),
    25: (2, 4, 1),
    27: (1, 2, 0, 1),
    32: (1, 0, 1, 0, 0, 1),
}


def _prime_power(q: int) -> tuple[int, int]:
    """Return (p, k) with q = p**k, or raise NotPrimePower."""
    if q < 2:
        raise NotPrimePower(f"field order must be at least 2, got {q}")
    for p in range(2, q + 1):
        if p * p > q and p != q:
            break
        if q % p == 0:
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            if m != 1:
                raise NotPrimePower(f"{q} is not a prime power")
            return p, k
    return q, 1


def _int_to_poly(value: int, p: int, k: int) -> tuple[int, ...]:
    coeffs = []
    for _ in range(k):
        coeffs.append(value % p)
        value //= p
    return tuple(coeffs)


def _poly_to_int(coeffs: tuple[int, ...], p: int) -> int:
    value = 0
    for c in reversed(coeffs):
        value = value * p + c
    return value


def _poly_mul_mod(a: tuple[int, ...], b: tuple[int, ...], modulus: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Multiply coefficient vectors mod (modulus, p); result has len(modulus)-1 entries."""
    k = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    # reduce: modulus is monic of degree k
    for deg in range(len(prod) - 1, k - 1, -1):
        c = prod[deg]
        if c:
            prod[deg] = 0
            for j in range(k):
                prod[deg - k + j] = (prod[deg - k + j] - c * modulus[j]) % p
    out = prod[:k]
    out += [0] * (k - len(out))
    return tuple(out)


def _poly_divides(d: tuple[int, ...], f: tuple[int, ...], p: int) -> bool:
    """True if monic polynomial d divides f over GF(p). Both constant-first."""
    rem = list(f)
    dd = len(d) - 1
    for deg in range(len(rem) - 1, dd - 1, -1):
        c = rem[deg]
        if c:
            for j in range(dd + 1):
                rem[deg - dd + j] = (rem[deg - dd + j] - c * d[j]) % p
    return not any(rem)


def _check_irreducible(modulus: tuple[int, ...], p: int) -> None:
    """Trial division by every monic polynomial of degree 1..k//2."""
    k = len(modulus) - 1
    for deg in range(1, k // 2 + 1):
        # monic candidates: free coefficients c_0..c_{deg-1}
        total = p ** deg
        for enc in range(total):
            cand = list(_int_to_poly(enc, p, deg)) + [1]
            if _poly_divides(tuple(cand), modulus, p):
                raise VerificationFailure(
                    f"modulus {modulus} over GF({p}) has a degree-{deg} factor"
                )


class GF:
    """A finite field of order q with table-driven arithmetic on ints 0..q-1."""

    def __init__(self, q: int):
        if not isinstance(q, int) or isinstance(q, bool):
            raise WrongType(f"field order must be an int, got {type(q).__name__}")
        if q > MAX_ORDER:
            raise UnsupportedField(f"field orders above {MAX_ORDER} are not supported, got {q}")
        p, k = _prime_power(q)
        self.q = q
        self.p = p
        self.k = k
        if k == 1:
            self.modulus: tuple[int, ...] = (0, 1)  # the polynomial x
            add = [[(x + y) % p for y in range(q)] for x in range(q)]
            mul = [[(x * y) % p for y in range(q)] for x in range(q)]
        else:
            modulus = _MODULI[q]
            _check_irreducible(modulus, p)
            self.modulus = modulus
            polys = [_int_to_poly(v, p, k) for v in range(q)]
            add = [
                [
                    _poly_to_int(tuple((a + b) % p for a, b in zip(polys[x], polys[y])), p)
                    for y in range(q)
                ]
                for x in range(q)
            ]
            mul = [
                [_poly_to_int(_poly_mul_mod(polys[x], polys[y], modulus, p), p) for y in range(q)]
                for x in range(q)
            ]
        self.add_table: tuple[tuple[int, ...], ...] = tuple(tuple(r) for r in add)
        self.mul_table: tuple[tuple[int, ...], ...] = tuple(tuple(r) for r in mul)
        neg = [0] * q
        for x in range(q):
            for y in range(q):
                if self.add_table[x][y] == 0:
                    neg[x] = y
                    break
        self.neg_table: tuple[int, ...] = tuple(neg)
        inv = [0] * q
        for x in range(1, q):
            for y in range(1, q):
                if self.mul_table[x][y] == 1:
                    inv[x] = y
                    break
            else:
                raise VerificationFailure(f"element {x} of GF({q}) has no inverse")
        self.inv_table: tuple[int, ...] = tuple(inv)
        self._self_check()

    # -- core operations ----------------------------------------------------

    def add(self, x: int, y: int) -> int:
        return self.add_table[x][y]

    def sub(self, x: int, y: int) -> int:
        return self.add_table[x][self.neg_table[y]]

    def mul(self, x: int, y: int) -> int:
        return self.mul_table[x][y]

    def neg(self, x: int) -> int:
        return self.neg_table[x]

    def inv(self, x: int) -> int:
        if x == 0:
            raise DivisionByZero(f"0 has no inverse in GF({self.q})")
        return self.inv_table[x]

    def div(self, x: int, y: int) -> int:
        return self.mul_table[x][self.inv(y)]

    def pow(self, x: int, e: int) -> int:
        out = 1
        for _ in range(e):
            out = self.mul_table[out][x]
        return out

    def elements(self) -> range:
        return range(self.q)

    def vec_add(self, u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
        add = self.add_table
        return tuple(add[a][b] for a, b in zip(u, v))

    def vec_scale(self, c: int, v: tuple[int, ...]) -> tuple[int, ...]:
        row = self.mul_table[c]
        return tuple(row[a] for a in v)

    # -- identity -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GF) and other.q == self.q

    def __hash__(self) -> int:
        return hash(("GF", self.q))

    def __repr__(self) -> str:
        return f"GF({self.q})"

    # -- construction-time validation ----------------------------------------

    def _self_check(self) -> None:
        q, p = self.q, self.p
        add, mul = self.add_table, self.mul_table
        # identities and commutativity
        for x in range(q):
            if not (add[0][x] == x == add[x][0] and mul[1][x] == x == mul[x][1] and mul[0][x] == 0):
                raise VerificationFailure(f"GF({q}): identity laws fail at {x}")
            for y in range(q):
                if add[x][y] != add[y][x] or mul[x][y] != mul[y][x]:
                    raise VerificationFailure(f"GF({q}): {x} and {y} do not commute")
        # Latin squares: addition on all rows, multiplication on nonzero rows
        full = frozenset(range(q))
        nonzero = frozenset(range(1, q))
        for x in range(q):
            if frozenset(add[x]) != full or (x and frozenset(mul[x][1:]) != nonzero):
                raise VerificationFailure(f"GF({q}): row {x} is not a permutation")
        # associativity and distributivity, exhaustive (q <= 32 so q^3 <= 32768)
        for x in range(q):
            for y in range(q):
                for z in range(q):
                    if add[add[x][y]][z] != add[x][add[y][z]] or mul[mul[x][y]][z] != mul[x][mul[y][z]]:
                        raise VerificationFailure(f"GF({q}): associativity fails at {x}, {y}, {z}")
                    if mul[x][add[y][z]] != add[mul[x][y]][mul[x][z]]:
                        raise VerificationFailure(f"GF({q}): distributivity fails at {x}, {y}, {z}")
        # characteristic p: adding any element to itself p times gives 0
        for x in range(q):
            s = 0
            for _ in range(p):
                s = add[s][x]
            if s != 0:
                raise VerificationFailure(f"GF({q}): {p} * {x} is not 0")
        # the nonzero elements form a cyclic group: some element has order q-1
        if not any(self._order(g) == q - 1 for g in range(1, q)):
            raise VerificationFailure(f"GF({q}): no element generates the nonzero elements")
        # Frobenius x -> x^p is additive
        frob = [self.pow(x, p) for x in range(q)]
        for x in range(q):
            for y in range(q):
                if frob[add[x][y]] != add[frob[x]][frob[y]]:
                    raise VerificationFailure(f"GF({q}): Frobenius is not additive at {x}, {y}")

    def _order(self, g: int) -> int:
        n = 1
        x = g
        while x != 1:
            x = self.mul_table[x][g]
            n += 1
            if n > self.q:
                raise VerificationFailure("order computation diverged")
        return n


@lru_cache(maxsize=None, typed=True)
def build_field(q: int) -> GF:
    """Build (and cache) the field of order q.

    Raises WrongType if q is not an int, NotPrimePower if q is not a prime
    power and UnsupportedField for prime powers above MAX_ORDER. The cache
    is typed, so build_field(3.0) reaches that check, not the cached GF(3).
    """
    return GF(q)
