"""Field arithmetic in GF(2^m)."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symvert.field import (
    MAX_DEGREE, _is_irreducible_gf2, _poly_mulmod_gf2, default_modulus, make_field,
    splitting_degree,
)


def test_default_moduli_are_the_expected_polynomials():
    # the moduli fix the bytes of every module file: bit i is the
    # coefficient of x^i, so x+1, x^2+x+1, x^3+x+1, x^4+x+1, ...,
    # x^8+x^4+x^3+x+1 (AES field), ..., x^16+x^5+x^3+x+1
    assert [default_modulus(m) for m in range(1, MAX_DEGREE + 1)] == [
        0x3, 0x7, 0xB, 0x13, 0x25, 0x43, 0x83, 0x11B,
        0x203, 0x409, 0x805, 0x1009, 0x201B, 0x4021, 0x8003, 0x1002B,
    ]


def test_reducible_modulus_rejected():
    assert not _is_irreducible_gf2(0b101, 2)  # x^2 + 1 = (x+1)^2


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_field_axioms_exhaustive(m):
    F = make_field(m)
    els = list(F.elements())
    for a in els:
        assert F.mul(a, 1) == a
        assert F.mul(a, 0) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
        for b in els:
            assert F.mul(a, b) == F.mul(b, a)
            for c in els:
                assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
                # distributivity: addition is xor
                assert F.mul(a, b ^ c) == F.mul(a, b) ^ F.mul(a, c)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_squaring_is_a_bijection(m):
    F = make_field(m)
    assert sorted(F.mul(a, a) for a in F.elements()) == list(F.elements())


@given(st.integers(0, 15), st.integers(0, 15))
def test_vectorized_agrees_with_scalar_gf16(a, b):
    F = make_field(4)
    assert int(F.vmul(np.array([a]), np.array([b]))[0]) == F.mul(a, b)


@settings(max_examples=50)
@given(st.integers(1, 255), st.integers(0, 6))
def test_pow_matches_repeated_mul_gf256(a, e):
    F = make_field(8)
    r = 1
    for _ in range(e):
        r = F.mul(r, a)
    assert F.pow(a, e) == r


@pytest.mark.parametrize("m", range(1, 9))
def test_scalar_ops_agree_with_the_multiplication_table(m):
    # the scalar ops read Python lists, vmul the numpy table
    F = make_field(m)
    els = range(F.q)
    table = F.mul_table.tolist()
    assert [[F.mul(a, b) for b in els] for a in els] == table
    assert all(type(F.mul(a, a)) is int for a in els)
    # the inverse is the one b with a b = 1
    assert [F.inv(a) for a in els[1:]] == [row.index(1) for row in table[1:]]
    for a in els:
        r = 1
        for e in range(F.q + 1):  # past a^(q-1) = 1, where the exponents wrap
            assert F.pow(a, e) == r
            r = table[r][a]


def test_scalar_ops_agree_with_polynomial_products_gf4096():
    F = make_field(12)
    assert F.mul_table is None
    rng = random.Random(0)
    for _ in range(2000):
        a, b, e = rng.randrange(F.q), rng.randrange(F.q), rng.randrange(3 * F.q)
        assert F.mul(a, b) == _poly_mulmod_gf2(a, b, F.modulus, 12)
        assert F.mul(a, b) == int(F.vmul(np.int64(a), np.int64(b)))
        assert F.pow(a, e) == F._powmod(a, e)
        if a:
            assert _poly_mulmod_gf2(a, F.inv(a), F.modulus, 12) == 1


def test_vscale_special_cases():
    F = make_field(2)
    v = np.array([0, 1, 2, 3], dtype=np.int64)
    assert (F.vscale(0, v) == 0).all()
    assert (F.vscale(1, v) == v).all()
    assert (F.vscale(2, v) == np.array([0, 2, 3, 1])).all()


def test_elem_hex_round_trip():
    F = make_field(8)
    for a in (0, 1, 0xAB, 255):
        assert F.elem_from_hex(F.elem_to_hex(a)) == a


def test_splitting_degree_examples():
    from symvert import catalog

    # odd part of exponent: S3 -> 3 (ord 2 mod 3 = 2); V4 -> 1;
    # S5 -> 15 (ord 2 mod 15 = 4)
    assert splitting_degree(catalog.suite_group("S3")) == 2
    assert splitting_degree(catalog.suite_group("V4")) == 1
    assert splitting_degree(catalog.suite_group("S5")) == 4
