"""Specht modules, their bilinear forms, and row-reversal witnesses."""

import math

import pytest

from symvert import catalog, linalg, rep, specht
from symvert.field import make_field
from symvert.linalg import mat_mul

F2 = make_field(1)
S4 = catalog.suite_group("S4")
S5 = catalog.suite_group("S5")


def test_catalogue_symmetric_groups_are_generated_by_swap_and_cycle():
    # the Specht modules act on the catalogue's S_n through its generators,
    # (1 2) and the n-cycle, in that order, on n points
    for n, name in ((3, "S3"), (4, "S4"), (5, "S5")):
        G = catalog.suite_group(name)
        swap = (1, 0) + tuple(range(2, n))
        cycle = tuple(range(1, n)) + (0,)
        assert G.order == math.factorial(n)
        assert [G.perms[g] for g in G.generators] == [swap, cycle]


def test_specht_s5_32():
    sd = specht.specht_module(S5, (3, 2), F2)
    assert sd.tabloid_module.dim == 10  # ordered set partitions of type (3,2)
    assert sd.specht.dim == 5  # number of standard tableaux
    assert sd.irreducible.dim == 4
    B = sd.irreducible_form
    assert B.symmetric and B.symplectic and B.nondegenerate
    assert rep.is_indecomposable(sd.irreducible)
    assert rep.is_selfdual(sd.irreducible)


def test_specht_s4_31():
    sd = specht.specht_module(S4, (3, 1), F2)
    assert sd.specht.dim == 3
    assert sd.irreducible.dim == 2
    assert sd.irreducible_form.nondegenerate


def test_specht_form_is_gram_of_polytabloids():
    sd = specht.specht_module(S4, (3, 1), F2)
    # the bilinear form on the Specht module is the restriction of the
    # permutation form on tabloids
    incl = sd.specht_incl
    got = mat_mul(F2, incl.T, incl)
    assert (got == sd.specht_form.gram).all()


def test_row_reversal_witness():
    for G, lam in ((S4, (3, 1)), (S5, (3, 2))):
        sd = specht.specht_module(G, lam, F2)
        t = sd.row_reversal
        G = sd.group
        assert G.element_order(t) in (1, 2)
        B = sd.irreducible_form
        v = sd.witness_vector
        # B(t.v, v) = 1: the row-reversal pairs the witness polytabloid
        # nondegenerately with itself
        tv = linalg.mat_vec(F2, sd.irreducible.action(t), v)
        val = 0
        for a, bv in zip(tv, linalg.mat_vec(F2, B.gram, v)):
            val ^= F2.mul(int(a), int(bv))
        assert val == 1


def test_two_rowed_partition_required():
    with pytest.raises(ValueError):
        specht.specht_module(S5, (2, 2, 1), F2)


def test_quadratic_type_via_specht_witness():
    sd = specht.specht_module(S5, (3, 2), F2)
    from symvert import blocks

    q = blocks.quadratic_type_pim(sd.irreducible, sd.irreducible_form)
    assert q.quadratic
