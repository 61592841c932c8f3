"""Field arithmetic tests: fixed tables, axioms, and error paths."""
from __future__ import annotations

import pytest

from clutterforge import (
    DivisionByZero,
    NotPrimePower,
    UnsupportedField,
    VerificationFailure,
    build_field,
)
from clutterforge import gf
from clutterforge.gf import MAX_ORDER, _prime_power

PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32]

# ---------------------------------------------------------------------------
# frozen small tables
# ---------------------------------------------------------------------------

# GF(4) with modulus x^2 + x + 1 and encoding a = 2, b = 3.
GF4_ADD = (
    (0, 1, 2, 3),
    (1, 0, 3, 2),
    (2, 3, 0, 1),
    (3, 2, 1, 0),
)
GF4_MUL = (
    (0, 0, 0, 0),
    (0, 1, 2, 3),
    (0, 2, 3, 1),
    (0, 3, 1, 2),
)


def test_gf4_tables_match_reference():
    f = build_field(4)
    assert f.add_table == GF4_ADD
    assert f.mul_table == GF4_MUL
    # spot values in letter notation: a + b = 1, a * a = b, a * b = 1
    a, b = 2, 3
    assert f.add(a, b) == 1
    assert f.mul(a, a) == b
    assert f.mul(a, b) == 1


def test_gf2_and_gf3_are_plain_modular_arithmetic():
    for q in (2, 3):
        f = build_field(q)
        for x in range(q):
            for y in range(q):
                assert f.add(x, y) == (x + y) % q
                assert f.mul(x, y) == (x * y) % q


def test_fixed_moduli_are_recorded():
    assert build_field(4).modulus == (1, 1, 1)
    assert build_field(8).modulus == (1, 1, 0, 1)
    assert build_field(9).modulus == (2, 2, 1)
    assert build_field(16).modulus == (1, 1, 0, 0, 1)
    assert build_field(25).modulus == (2, 4, 1)
    assert build_field(27).modulus == (1, 2, 0, 1)
    assert build_field(32).modulus == (1, 0, 1, 0, 0, 1)


# ---------------------------------------------------------------------------
# multiplication against schoolbook polynomial products
# ---------------------------------------------------------------------------

def ref_poly_mul_mod(a, b, modulus, p):
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


def _coeffs(value, p, k):
    return tuple(value // p**i % p for i in range(k))


@pytest.mark.parametrize("q", [8, 9, 16, 25, 27, 32])
def test_products_match_schoolbook_multiplication(q):
    f = build_field(q)
    for x in range(q):
        for y in range(q):
            want = ref_poly_mul_mod(_coeffs(x, f.p, f.k), _coeffs(y, f.p, f.k), f.modulus, f.p)
            assert _coeffs(f.mul(x, y), f.p, f.k) == want, (q, x, y)


@pytest.mark.parametrize(
    "q, modulus",
    [
        (9, (2, 0, 1)),  # x^2 + 2 = (x + 1)(x + 2) over GF(3)
        (9, (1, 0, 1)),  # x^2 + 1 is irreducible over GF(3), but x has order 4, not 8
        (4, (1, 0, 1)),  # x^2 + 1 = (x + 1)^2 over GF(2)
        (4, (0, 0, 1)),  # x^2: the powers of x reach 0
    ],
    ids=["gf9-reducible", "gf9-irreducible-not-primitive", "gf4-square", "gf4-x-squared"],
)
def test_non_primitive_modulus_refused(monkeypatch, q, modulus):
    # GF is called directly: build_field caches the shipped field
    monkeypatch.setitem(gf._MODULI, q, modulus)
    with pytest.raises(VerificationFailure, match="not primitive"):
        gf.GF(q)


# ---------------------------------------------------------------------------
# axioms over every supported order
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", PRIME_POWERS)
def test_field_axioms(q):
    f = build_field(q)
    p, k = _prime_power(q)
    assert f.p == p and f.k == k and f.q == p**k
    # additive and multiplicative inverses
    for x in range(q):
        assert f.add(x, f.neg(x)) == 0
        if x:
            assert f.mul(x, f.inv(x)) == 1
    # Latin squares
    for x in range(q):
        assert sorted(f.add_table[x]) == list(range(q))
        if x:
            assert sorted(f.mul_table[x][1:]) == list(range(1, q))
    # subtraction and division are the declared compositions
    for x in range(q):
        for y in range(q):
            assert f.add(f.sub(x, y), y) == x
            if y:
                assert f.mul(f.div(x, y), y) == x


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 32])
def test_characteristic_and_frobenius(q):
    f = build_field(q)
    for x in range(q):
        s = 0
        for _ in range(f.p):
            s = f.add(s, x)
        assert s == 0
    for x in range(q):
        for y in range(q):
            assert f.pow(f.add(x, y), f.p) == f.add(f.pow(x, f.p), f.pow(y, f.p))


def test_vector_helpers():
    f = build_field(4)
    assert f.vec_add((1, 2, 3), (1, 1, 0)) == (0, 3, 3)
    assert f.vec_scale(2, (0, 1, 2, 3)) == (0, 2, 3, 1)


# ---------------------------------------------------------------------------
# error paths
# ---------------------------------------------------------------------------

def test_not_prime_power_rejected():
    for q in (0, 1, 6, 10, 12, 14, 15, 18, 20, 21, 22, 24, 26, 28, 30):
        with pytest.raises(NotPrimePower):
            build_field(q)


def test_orders_above_limit_rejected():
    for q in (MAX_ORDER + 1, 64, 125, 10**6 + 3):
        with pytest.raises(UnsupportedField):
            build_field(q)


def test_inverse_of_zero_raises():
    for q in (2, 4, 9):
        with pytest.raises(DivisionByZero):
            build_field(q).inv(0)
        with pytest.raises(DivisionByZero):
            build_field(q).div(1, 0)


def test_field_identity_and_cache():
    assert build_field(8) is build_field(8)
    assert build_field(8) == build_field(8)
    assert build_field(8) != build_field(9)
