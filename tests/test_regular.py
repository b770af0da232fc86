"""kG read off the multiplication table: each gather against the
loop over pairs of group elements that it replaced, entry for entry."""

import numpy as np
import pytest

from symvert import blocks, catalog, forms, rep
from symvert.field import make_field
from symvert.linalg import zeros

from conftest import regular_bimodule

F4 = make_field(2)
GROUPS = ["S3", "D12", "A4", "C3:C4", "S4"]


# -- the reference loops --------------------------------------------------


def right_mult_reference(G, vec):
    n = G.order
    R = zeros(n, n)
    for x in range(n):
        c = int(vec[x])
        if c:
            for y in range(n):
                R[G.mul(y, x), y] ^= c
    return R


def left_mult_reference(G, vec):
    n = G.order
    L = zeros(n, n)
    for x in range(n):
        c = int(vec[x])
        if c:
            for y in range(n):
                L[G.mul(x, y), y] ^= c
    return L


def regular_module_reference(G):
    mats = []
    for g in G.generators:
        A = zeros(G.order, G.order)
        for x in range(G.order):
            A[G.mul(g, x), x] = 1
        mats.append(A)
    return mats


def regular_end_basis_reference(G):
    n = G.order
    basis = []
    for x in range(n):
        R = zeros(n, n)
        for y in range(n):
            R[G.mul(y, x), y] = 1
        basis.append(R)
    return basis


def regular_gram_reference(G, a):
    gram = zeros(G.order, G.order)
    for g in range(G.order):
        ginv = G.inverse(g)
        for h in range(G.order):
            gram[g, h] = a[G.mul(ginv, h)]
    return gram


def bimodule_reference(G, GG):
    n = G.order
    mats = []
    for gen in GG.generators:
        a, bb = divmod(gen, n)  # direct_product numbers (a, b) as a*|G| + b
        P = zeros(n, n)
        binv = G.inverse(bb)
        for x in range(n):
            P[G.mul(a, G.mul(x, binv)), x] = 1
        mats.append(P)
    return mats


def centre_reference(G):
    """The class-sum structure constants and each class's kG vector."""
    classes = G.conjugacy_classes()
    n = len(classes)
    class_of = np.zeros(G.order, dtype=np.int64)
    for i, c in enumerate(classes):
        for x in c.members:
            class_of[x] = i
    reps = {c.rep: i for i, c in enumerate(classes)}
    a = np.zeros((n, n, n), dtype=np.int64)
    for x in range(G.order):
        for y in range(G.order):
            k = reps.get(G.mul(x, y))
            if k is not None:
                a[class_of[x], class_of[y], k] ^= 1
    sums = np.zeros((n, G.order), dtype=np.int64)
    for i, c in enumerate(classes):
        sums[i, list(c.members)] = 1
    return a, sums


def coset_split_reference(G, H):
    trans = G.left_transversal(H)
    tcos = np.zeros(G.order, dtype=np.int64)
    hpart = np.zeros(G.order, dtype=np.int64)
    for t in trans:
        for h in H.elements:
            x = G.mul(t, h)
            tcos[x] = t
            hpart[x] = h
    return trans, tcos, hpart


def induce_reference(L, H):
    G = H.parent
    _, elems = rep.subgroup_table(H)
    idx_in_H = {x: i for i, x in enumerate(elems)}
    trans, tcos, hpart = coset_split_reference(G, H)
    pos = {t: i for i, t in enumerate(trans)}
    dl = L.dim
    d = len(trans) * dl
    mats = []
    for g in G.generators:
        A = zeros(d, d)
        for j, t in enumerate(trans):
            gt = G.mul(g, t)
            i = pos[int(tcos[gt])]
            A[i * dl : (i + 1) * dl, j * dl : (j + 1) * dl] = L.action(
                idx_in_H[int(hpart[gt])]
            )
        mats.append(A)
    return mats


# -- the comparisons ------------------------------------------------------


@pytest.mark.parametrize("name", GROUPS)
def test_regular_gathers_match_the_reference_loops(name):
    G = catalog.suite_group(name)
    rng = np.random.default_rng(len(name) + G.order)
    M = rep.regular_module(G, F4)
    for ours, ref in zip(M.gen_matrices, regular_module_reference(G), strict=True):
        assert (ours == ref).all()
    E = rep.regular_end_algebra(G, F4, M)
    for ours, ref in zip(E.basis, regular_end_basis_reference(G), strict=True):
        assert (ours == ref).all()
    for _ in range(4):
        a = rng.integers(0, F4.q, G.order)
        assert (rep.right_mult_matrix(G, a) == right_mult_reference(G, a)).all()
        assert (rep.left_mult_matrix(G, a) == left_mult_reference(G, a)).all()
        gram = forms.regular_form(M, a).gram
        assert (gram == regular_gram_reference(G, a)).all()
    bi = regular_bimodule(G, F4)
    ref = bimodule_reference(G, bi.product)
    for ours, want in zip(bi.module.gen_matrices, ref, strict=True):
        assert (ours == want).all()
    Z = blocks.CentreAlgebra(G, F4)
    struct, sums = centre_reference(G)
    assert (Z.struct == struct).all()
    for u, v in zip(np.eye(Z.n, dtype=np.int64), sums, strict=True):
        assert (Z.to_group_algebra(u) == v).all()
    for H in G.two_subgroups_up_to_conjugacy():
        trans, coset, hid = rep.coset_split(H)
        ref_trans, ref_tcos, ref_hpart = coset_split_reference(G, H)
        _, elems = rep.subgroup_table(H)
        assert trans == ref_trans
        assert (np.array(trans)[coset] == ref_tcos).all()
        assert (np.array(elems)[hid] == ref_hpart).all()
        L = rep.restrict(M, H)
        ind, _ = rep.induce(L, H)
        for ours, want in zip(ind.gen_matrices, induce_reference(L, H), strict=True):
            assert (ours == want).all()
