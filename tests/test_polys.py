"""Polynomial arithmetic and factorization over GF(2^m)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from symvert import polys
from symvert.field import make_field

F2 = make_field(1)
F4 = make_field(2)


def poly_strategy(F, max_deg=6):
    return st.lists(st.integers(0, F.q - 1), max_size=max_deg + 1).map(
        lambda p: polys.trim(list(p))
    )


@given(poly_strategy(F4), poly_strategy(F4), poly_strategy(F4))
def test_ring_axioms_gf4(a, b, c):
    assert polys.mul(F4, a, b) == polys.mul(F4, b, a)
    assert polys.mul(F4, a, polys.add(F4, b, c)) == polys.add(
        F4, polys.mul(F4, a, b), polys.mul(F4, a, c)
    )
    assert polys.add(F4, a, a) == []  # characteristic 2


@given(poly_strategy(F4), poly_strategy(F4, 3))
def test_division_identity(a, b):
    if not b:
        return
    q, r = polys.divmod_(F4, a, b)
    assert polys.add(F4, polys.mul(F4, q, b), r) == a
    assert polys.deg(r) < polys.deg(b)


@settings(max_examples=60)
@given(poly_strategy(F2, 8))
def test_factor_reassembles_gf2(p):
    if polys.deg(p) < 1:
        return
    fac = polys.factor(F2, p)
    prod = [1]
    for f, mult in fac:
        for _ in range(mult):
            prod = polys.mul(F2, prod, f)
    assert prod == polys.monic(F2, p)
    for f, _ in fac:
        # irreducible: no root-degree-1 factor strictly dividing, and no
        # nontrivial gcd with x^(2^d) - x for d < deg f
        for d in range(1, polys.deg(f)):
            xq = polys.pow_mod(F2, [0, 1], 2**d, f)
            g = polys.gcd(F2, polys.add(F2, xq, [0, 1]), f)
            assert polys.deg(g) == 0, (f, d)


@settings(max_examples=60)
@given(
    st.sampled_from([F2, F4]).flatmap(
        lambda F: st.tuples(st.just(F), poly_strategy(F, 8))
    )
)
def test_crt_idempotents(F_p):
    F, p = F_p
    if polys.deg(p) < 1:
        return
    fac = polys.factor(F, p)
    primary = []
    for f, mult in fac:
        q = [1]
        for _ in range(mult):
            q = polys.mul(F, q, f)
        primary.append(q)
    us = polys.crt_idempotents(F, fac)
    assert len(us) == len(fac)
    total = []
    for i, u in enumerate(us):
        assert polys.deg(u) < polys.deg(p)
        for j, q in enumerate(primary):
            assert polys.mod(F, u, q) == ([1] if i == j else [])
        total = polys.add(F, total, u)
    assert polys.mod(F, total, polys.monic(F, p)) == [1]


def test_factor_known_cases():
    # x^2 + x = x(x+1)
    assert polys.factor(F2, [0, 1, 1]) == [[[0, 1], 1], [[1, 1], 1]]
    # x^2 + 1 = (x+1)^2
    assert polys.factor(F2, [1, 0, 1]) == [[[1, 1], 2]]
    # x^2 + x + 1 irreducible over GF(2), splits over GF(4)
    assert polys.factor(F2, [1, 1, 1]) == [[[1, 1, 1], 1]]
    f4 = polys.factor(F4, [1, 1, 1])
    assert [m for _, m in f4] == [1, 1]
    assert sorted(f[0] for f, _ in f4) == [2, 3]  # the two primitive elements


def test_derivative_char2():
    # d/dx (x^4 + x^3 + x^2 + x + 1) = 3x^2 + 1 = x^2 + 1
    assert polys.derivative(F2, [1, 1, 1, 1, 1]) == [1, 0, 1]


def test_eval_matrix_cayley_hamilton_style():
    from symvert import linalg

    A = np.array([[0, 1], [1, 1]], dtype=np.int64)
    mu = linalg.min_poly(F2, A)
    assert not polys.eval_matrix(F2, mu, A).any()
    assert (polys.eval_matrix(F2, [0, 1], A) == A).all()
    assert (polys.eval_matrix(F2, [1], A) == np.eye(2, dtype=np.int64)).all()
