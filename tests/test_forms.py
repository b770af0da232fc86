"""Invariant bilinear forms: slices, adjoints, decompositions, Mackey."""

import numpy as np
import pytest

from symvert import catalog, forms, linalg, rep
from symvert.field import make_field
from symvert.linalg import Subspace, mat_mul

F2 = make_field(1)
F4 = make_field(2)
S3 = catalog.suite_group("S3")
S4 = catalog.suite_group("S4")


def regular_s3():
    return rep.regular_module(S3, F2)


def test_gform_invariance_checked():
    M = regular_s3()
    good = forms.standard_form(M)
    assert good.symmetric and good.nondegenerate and not good.symplectic
    bad = np.zeros((6, 6), dtype=np.int64)
    bad[0, 1] = 1  # not invariant
    with pytest.raises(ValueError):
        forms.GForm(M, bad)


def test_invariant_forms_regular_s3():
    M = regular_s3()
    inv = forms.invariant_forms(M)
    # the space of invariant forms on kG is kG itself (one per B_a)
    assert len(inv.basis) == 6
    assert len(inv.symmetric) == 5  # a with a = contragredient(a)
    assert len(inv.symplectic) == 4  # additionally zero identity coefficient
    for b in inv.symmetric:
        assert (b == b.T).all()
    for b in inv.symplectic:
        assert not b.diagonal().any()


def test_invariant_forms_for_a_proper_subgroup():
    M = regular_s3()
    H = S3.sylow2()
    assert H.order == 2
    inv = forms.invariant_forms(M, H)
    # Res_H kG is free of rank 3, so the forms are Hom_H(kH^3, kH^3)
    assert len(inv.basis) == 18
    for X in inv.basis:
        for h in H.elements:
            A = M.action(h)
            assert (mat_mul(F2, A.T, mat_mul(F2, X, A)) == X).all()
    assert len(forms.invariant_forms(M, S3.trivial_subgroup()).basis) == 36


def test_regular_form_flags():
    M = regular_s3()
    t = S3.involutions()[0]
    r3 = next(x for x in range(6) if S3.element_order(x) == 3)
    Bt = forms.involution_form(M, t)
    assert Bt.symmetric and Bt.symplectic and Bt.nondegenerate
    B1 = forms.standard_form(M)
    assert B1.symmetric and not B1.symplectic and B1.nondegenerate
    # a = 1 + r + r^2 is its own contragredient but is a zero divisor
    a = np.zeros(6, dtype=np.int64)
    a[0] = a[r3] = a[S3.inverse(r3)] = 1
    Ba = forms.regular_form(M, a)
    assert Ba.symmetric and not Ba.nondegenerate


def test_adjoint_properties():
    M = regular_s3()
    B = forms.standard_form(M)
    sigma = forms.Adjoint(B)
    E = rep.hom_space(M, M)
    for f in E:
        assert (sigma(sigma(f)) == f).all()
        # B(f x, y) = B(x, sigma(f) y)
        lhs = mat_mul(F2, f.T, B.gram)
        rhs = mat_mul(F2, B.gram, sigma(f))
        assert (lhs == rhs).all()
    for f in E[:3]:
        for h in E[:3]:
            anti = sigma(mat_mul(F2, f, h))
            assert (anti == mat_mul(F2, sigma(h), sigma(f))).all()


def test_adjoint_of_right_multiplication_under_bt():
    # for B = B_t the adjoint of right multiplication by s is right
    # multiplication by t s^-1 t; in particular r(t) is self-adjoint
    M = regular_s3()
    t = S3.involutions()[0]
    B = forms.involution_form(M, t)
    sigma = forms.Adjoint(B)

    def rmul(x):
        v = np.zeros(6, dtype=np.int64)
        v[x] = 1
        return rep.right_mult_matrix(S3, v)

    assert (sigma(rmul(t)) == rmul(t)).all()
    for s in range(6):
        conj = S3.mul(t, S3.mul(S3.inverse(s), t))
        assert (sigma(rmul(s)) == rmul(conj)).all()


def test_form_endo_round_trip():
    M = regular_s3()
    B = forms.standard_form(M)
    for f in rep.hom_space(M, M):
        Bf = forms.form_from_endo(B, f)
        assert (forms.endo_from_form(B, Bf) == f).all()


def test_symmetric_slice_matches_sigma_fixed_endos():
    # f -> B_f is a bijection between sigma-fixed endomorphisms and
    # invariant symmetric forms
    M = regular_s3()
    B = forms.standard_form(M)
    sigma = forms.Adjoint(B)
    inv = forms.invariant_forms(M)
    E = rep.hom_space(M, M)
    # the sigma-fixed subspace is the kernel of (sigma - id) on E, not just
    # the fixed basis elements
    diffs = np.array([(sigma(f) ^ f).ravel() for f in E])
    coeffs = linalg.kernel(F2, diffs.T)
    fixed = []
    for c in coeffs:
        f = np.zeros((6, 6), dtype=np.int64)
        for ci, bi in zip(c, E):
            if ci:
                f ^= bi
        fixed.append(f)
    sym = Subspace(F2, 36, np.array([b.ravel() for b in inv.symmetric]))
    span_fixed = Subspace(
        F2, 36,
        np.array([forms.form_from_endo(B, f).gram.ravel() for f in fixed]),
    )
    assert span_fixed == sym


def test_base_form_deterministic():
    M = regular_s3()
    b1 = forms.base_form(M)
    b2 = forms.base_form(M)
    assert b1 is not None and (b1.gram == b2.gram).all()
    assert b1.symmetric and b1.nondegenerate


def test_base_form_none_when_no_symmetric_form():
    # a non-self-dual module has no nondegenerate invariant symmetric form
    A4 = catalog.suite_group("A4")
    m = next(
        m for m in rep.irreducible_modules(A4, F4)
        if m.dim == 1 and not rep.is_selfdual(m)
    )
    assert forms.base_form(m) is None


def test_orth_complement_dimension_law():
    M = regular_s3()
    B = forms.standard_form(M)
    for rows in ([0], [0, 1], [0, 1, 2, 3]):
        L = Subspace(F2, 6, np.eye(6, dtype=np.int64)[rows])
        C = forms.orth_complement(B, L)
        assert L.dim + C.dim == 6


def test_orth_projection():
    M = regular_s3()
    B = forms.standard_form(M)
    pieces = forms.orth_decompose(B)
    for p in pieces:
        e = forms.orth_projection(B, p.space)
        assert (mat_mul(F2, e, e) == e).all()
        sigma = forms.Adjoint(B)
        assert (sigma(e) == e).all()
        assert linalg.col_space(F2, e).dim == p.space.dim
    # totally isotropic submodule must be rejected
    t = S3.involutions()[0]
    Bt = forms.involution_form(M, t)
    ones = np.zeros((1, 6), dtype=np.int64)
    ones[0, 0] = ones[0, t] = 1  # x with x.t = x spans an isotropic line
    iso = Subspace(F2, 6, ones)
    if forms.is_nondegenerate_on(Bt, iso):
        pytest.skip("chosen line not isotropic for this table")
    with pytest.raises((ValueError, np.linalg.LinAlgError)):
        forms.orth_projection(Bt, iso)


def test_orth_decompose_regular_b1():
    M = regular_s3()
    pieces = forms.orth_decompose(forms.standard_form(M))
    sig = sorted((p.space.dim, p.kind) for p in pieces)
    # P(k) splits off nondegenerate; the two projective-simple copies pair up
    assert sig == [(2, "indecomposable"), (4, "dual-pair")]
    assert sum(p.space.dim for p in pieces) == 6
    # pairwise orthogonal
    B = forms.standard_form(M)
    for i, p in enumerate(pieces):
        for q in pieces[i + 1:]:
            vals = mat_mul(F2, p.space.basis, mat_mul(F2, B.gram, q.space.basis.T))
            assert not vals.any()


def test_orth_decompose_regular_bt():
    M = regular_s3()
    t = S3.involutions()[0]
    pieces = forms.orth_decompose(forms.involution_form(M, t))
    assert sorted((p.space.dim, p.kind) for p in pieces) == [
        (2, "indecomposable")
    ] * 3


def test_orth_decompose_seed_changes_shape_not_validity():
    M = regular_s3()
    base = forms.base_form(M)
    three = rep.direct_sum([M] * 3)
    gram = np.zeros((18, 18), dtype=np.int64)
    for i in range(3):
        gram[6 * i : 6 * i + 6, 6 * i : 6 * i + 6] = base.gram
    B3 = forms.GForm(three, gram)
    for seed in (0, 1, 2):
        pieces = forms.orth_decompose(B3, seed=seed)
        assert sum(p.space.dim for p in pieces) == 18
        for p in pieces:
            assert forms.is_nondegenerate_on(B3, p.space)


def test_perfect_pairing():
    M = regular_s3()
    B = forms.standard_form(M)
    t = S3.involutions()[0]
    v = np.zeros(6, dtype=np.int64)
    v[0] = v[t] = 1  # theta = 1 + t, a non-unit
    theta = rep.right_mult_matrix(S3, v)
    cert = forms.perfect_pairing(B, theta)
    assert cert.perfect
    assert cert.left.dim == cert.right.dim == 3
    assert linalg.is_invertible(F2, cert.matrix)


def test_induce_form_block_structure():
    H = S3.sylow2()
    Ht, _ = rep.subgroup_table(H)
    L = rep.regular_module(Ht, F2)
    BL = forms.standard_form(L)
    ind, BI, T = forms.induce_form(BL, H)
    assert ind.dim == 6 and BI.nondegenerate and BI.symmetric
    for i in range(len(T)):
        blk = BI.gram[2 * i : 2 * i + 2, 2 * i : 2 * i + 2]
        assert (blk == BL.gram).all()


def test_mackey_decompose_verified():
    H = S4.sylow2()
    K = S4.closure(
        [x for x in range(S4.order) if S4.element_order(x) == 3][:1]
        + S4.involutions()[:1]
    )
    Ht, _ = rep.subgroup_table(H)
    L = rep.trivial_module(Ht, F2)
    BL = forms.GForm(L, np.eye(1, dtype=np.int64))
    md = forms.mackey_decompose(BL, H, K)
    assert md.verified
    assert sum(p.module.dim for p in md.pieces) == md.res_module.dim == 3
    assert len(md.pieces) == len(S4.double_cosets(K, H))


def test_paired_module_hyperbolic():
    M = [m for m in rep.irreducible_modules(S3, F2) if m.dim == 2][0]
    P, B = forms.paired_module(M)
    assert P.dim == 4 and B.symmetric and B.symplectic and B.nondegenerate
    # both halves are totally isotropic
    half = Subspace(F2, 4, np.eye(4, dtype=np.int64)[:2])
    assert not forms.gram_on(B, half.basis).any()


def test_involution_component_test():
    invs = catalog.suite_group("D12").involutions()
    D12 = catalog.suite_group("D12")
    central = [t for t in invs if D12.centralizer(t).order == 12]
    refl = [t for t in invs if t not in central]
    s, t = refl[0], refl[1]
    same = D12.class_of(s) == D12.class_of(t)
    ok, witness = forms.involution_component_test(D12, s, t)
    assert ok == same
    # each conjugate pair gives a witness w with w.u.w^-1 = s
    pairs = 0
    for u in refl[1:]:
        if D12.class_of(u) == D12.class_of(s):
            ok, w = forms.involution_component_test(D12, s, u)
            assert ok and w is not None
            assert D12.mul(w, D12.mul(u, D12.inverse(w))) == s
            pairs += 1
    assert pairs == 2


def test_extend_form_from_summand_round_trip():
    M = regular_s3()
    B = forms.standard_form(M)
    piece = [
        p for p in forms.orth_decompose(B) if p.kind == "indecomposable"
    ][0]
    e = forms.orth_projection(B, piece.space)
    incl = piece.space.basis.T.copy()
    bhat = forms.gram_on(B, piece.space.basis)
    theta, Bth = forms.extend_form_from_summand(B, e, incl, bhat)
    got = mat_mul(F2, incl.T, mat_mul(F2, Bth.gram, incl))
    assert (got == bhat).all()


def test_form_serialization_round_trip():
    M = regular_s3()
    B = forms.standard_form(M)
    d = forms.form_to_dict(B)
    B2 = forms.form_from_dict(d, M)
    assert (B2.gram == B.gram).all()
