"""Polynomial arithmetic and factorization over GF(2^m)."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symvert import linalg, polys
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


def _has_root(F, p):
    for a in F.elements():
        v = 0
        for c in reversed(p):
            v = F.mul(v, a) ^ c
        if v == 0:
            return True
    return False


def _monic_irreducibles(F):
    """Every monic irreducible of degree at most 3, by brute force: a
    reducible polynomial of degree 2 or 3 has a linear factor, so a root."""
    return [
        p
        for d in (1, 2, 3)
        for low in itertools.product(range(F.q), repeat=d)
        for p in [list(low) + [1]]
        if d == 1 or not _has_root(F, p)
    ]


IRREDUCIBLES = {F.m: _monic_irreducibles(F) for F in (F2, F4)}


def test_irreducible_counts():
    # Gauss: q, (q^2 - q)/2 and (q^3 - q)/3 monic irreducibles of degree 1-3
    for F in (F2, F4):
        q = F.q
        degs = [polys.deg(p) for p in IRREDUCIBLES[F.m]]
        assert [degs.count(d) for d in (1, 2, 3)] == [q, (q * q - q) // 2,
                                                      (q**3 - q) // 3]


@settings(max_examples=80)
@given(
    st.sampled_from([F2, F4]).flatmap(
        lambda F: st.tuples(
            st.just(F),
            st.lists(
                st.tuples(
                    st.integers(0, len(IRREDUCIBLES[F.m]) - 1),
                    st.integers(1, 3),
                ),
                min_size=1,
                max_size=4,
            ),
            st.integers(1, F.q - 1),
        )
    )
)
def test_factor_against_brute_force(F_picks_lead):
    # products of random irreducibles, each with a multiplicity up to 3 and
    # a random leading coefficient: factor returns the distinct picks, sorted
    F, picks, lead = F_picks_lead
    irr = IRREDUCIBLES[F.m]
    p = [lead]
    for i, mult in picks:
        for _ in range(mult):
            p = polys.mul(F, p, irr[i])
    want = map(list, {tuple(irr[i]) for i, _ in picks})
    assert polys.factor(F, p) == sorted(want, key=lambda f: (polys.deg(f), f))


@pytest.mark.parametrize("m", [1, 2, 3, 8])
def test_factor_equal_degree(m):
    # products of several distinct irreducibles of one degree, which only
    # the equal-degree split separates: linear factors, and quadratics (no
    # root) over GF(4), GF(8) and GF(256); over GF(2), x^2 + x and the two
    # irreducible cubics
    F = make_field(m)
    rng = random.Random(m)
    if m == 1:
        cases = [[[0, 1], [1, 1]], [[1, 1, 0, 1], [1, 0, 1, 1]]]
    else:
        lin = sorted(rng.sample(range(F.q), 4))
        quad: list = []
        while len(quad) < 3:
            p = [rng.randrange(1, F.q), rng.randrange(F.q), 1]
            if p not in quad and not _has_root(F, p):
                quad.append(p)
        cases = [[[a, 1] for a in lin], quad[:2], quad]
    for fs in cases:
        p = [1]
        for f in fs:
            p = polys.mul(F, p, f)
        assert polys.factor(F, p) == sorted(fs, key=lambda f: (polys.deg(f), f))
        # a repeated factor leaves the answer as it is
        assert polys.factor(F, polys.mul(F, p, fs[-1])) == polys.factor(F, p)


def test_factor_known_cases():
    # x^2 + x = x(x+1)
    assert polys.factor(F2, [0, 1, 1]) == [[0, 1], [1, 1]]
    # x^2 + 1 = (x+1)^2
    assert polys.factor(F2, [1, 0, 1]) == [[1, 1]]
    # x^2 + x + 1 irreducible over GF(2), splits over GF(4)
    assert polys.factor(F2, [1, 1, 1]) == [[1, 1, 1]]
    # over GF(4) its roots are the two primitive elements
    assert polys.factor(F4, [1, 1, 1]) == [[2, 1], [3, 1]]


def test_eval_matrix_cayley_hamilton_style():
    A = np.array([[0, 1], [1, 1]], dtype=np.int64)
    mu = linalg.min_poly(F2, A)
    assert not linalg.eval_matrix(F2, mu, A).any()
    assert (linalg.eval_matrix(F2, [0, 1], A) == A).all()
    assert (linalg.eval_matrix(F2, [1], A) == np.eye(2, dtype=np.int64)).all()
