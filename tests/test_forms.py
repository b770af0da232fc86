"""Invariant bilinear forms: slices, adjoints, decompositions, Mackey."""

import itertools

import numpy as np
import pytest

from symvert import catalog, forms, linalg, rep
from symvert.field import make_field
from symvert.linalg import Subspace, mat_mul

from conftest import (
    array_digest,
    kg_radical_by_chop,
    mackey_decompose,
    orth_decompose_moved,
    read_back,
    seeded_automorphism,
)

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
    assert good.is_invariant() and not forms.GForm(M, bad).is_invariant()


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
    inv = forms.invariant_forms(rep.restrict(M, H))
    # Res_H kG is free of rank 3, so the forms are Hom_H(kH^3, kH^3)
    assert len(inv.basis) == 18
    for X in inv.basis:
        for h in H.elements:
            A = M.action(h)
            assert (mat_mul(F2, A.T, mat_mul(F2, X, A)) == X).all()
    trivial = rep.restrict(M, S3.trivial_subgroup())
    assert len(forms.invariant_forms(trivial).basis) == 36


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


def _radical_by_enumeration(F, gram, basis):
    """Whether some nonzero x in the row span of basis has B(l_i, x) = 0
    for every basis row l_i, by running through every coefficient vector."""
    for c in itertools.product(range(F.q), repeat=len(basis)):
        if any(c):  # the basis rows are independent, so x != 0
            x = linalg.combine(F, c, list(basis)).reshape(-1, 1)
            if not mat_mul(F, basis, mat_mul(F, gram, x)).any():
                return True
    return False


@pytest.mark.parametrize("m, n, max_dim", [(1, 7, 6), (2, 4, 3)])
def test_is_nondegenerate_on_matches_enumeration(m, n, max_dim):
    F = make_field(m)
    T = read_back(rep.ModuleRep(S3, F, [linalg.eye(n)] * len(S3.generators)))
    rng = np.random.default_rng(n)
    seen = set()
    for _ in range(60):
        gram = rng.integers(0, F.q, (n, n))  # any Gram is invariant here
        if rng.integers(2):
            gram = gram ^ gram.T  # also symmetric ones, with a zero diagonal
        B = forms.GForm(T, gram)
        assert B.is_invariant()
        L = Subspace(F, n, rng.integers(0, F.q, (int(rng.integers(0, max_dim + 1)), n)))
        want = not _radical_by_enumeration(F, B.gram, L.basis)
        assert forms.is_nondegenerate_on(B, L) == want
        seen.add((want, L.dim > 0))
    assert seen == {(True, True), (False, True), (True, False)}


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


def _block_sum(base: forms.GForm, copies: int) -> forms.GForm:
    """copies of (M, base) as one module with the block-diagonal form."""
    gram = linalg.kron(base.F, np.eye(copies, dtype=np.int64), base.gram)
    B = forms.GForm(rep.direct_sum([base.module] * copies), gram)
    assert B.is_invariant()
    return B


def _same_summands(mods, N) -> bool:
    """N is the direct sum of the indecomposable modules mods, up to
    isomorphism: its Krull-Schmidt summands match mods one to one."""
    comps = [c.module for c in rep.decompose(N).components]
    for m in mods:
        iso = (i for i, c in enumerate(comps) if rep.module_iso(m, c) is not None)
        k = next(iso, None)
        if k is None:
            return False
        comps.pop(k)
    return not comps


def test_orth_decompose_seed_changes_shape_not_validity():
    D12 = catalog.suite_group("D12")
    inputs = [
        _block_sum(forms.base_form(regular_s3()), 3),
        _block_sum(forms.standard_form(rep.regular_module(D12, F4)), 2),
    ]
    for B in inputs:
        M, n = B.module, B.module.dim
        for seed in (0, 1, 2):
            pieces = orth_decompose_moved(B, seeded_automorphism(M, seed))
            assert sum(p.space.dim for p in pieces) == n
            assert Subspace(
                B.F, n, np.concatenate([p.space.basis for p in pieces])
            ).dim == n
            for i, p in enumerate(pieces):
                assert forms.is_nondegenerate_on(B, p.space)
                for q in pieces[i + 1 :]:
                    vals = mat_mul(
                        B.F, p.space.basis, mat_mul(B.F, B.gram, q.space.basis.T)
                    )
                    assert not vals.any()
                # the labels describe the piece itself, also after the
                # complement steps
                assert len(p.modules) == (1 if p.kind == "indecomposable" else 2)
                assert _same_summands(p.modules, rep.sub_module(M, p.space)[0])


def test_orth_decompose_decomposes_once(monkeypatch):
    # one decomposition of the whole module, not one per piece (6 pieces
    # at seed 0, 5 at seed 1), and partners ranked by one module_iso per
    # isomorphism class, not per summand (25 and 27 calls before); the
    # decomposition numbers its classes by head, with no module_iso (16
    # and 17 calls while it tested each summand against each class)
    B3 = _block_sum(forms.standard_form(regular_s3()), 3)
    for seed, isos in ((0, 6), (1, 7)):
        u = seeded_automorphism(B3.module, seed)
        calls = {"decompose": 0, "end_algebra": 0, "module_iso": 0}
        for name in calls:
            orig = getattr(rep, name)

            def counted(*args, _orig=orig, _name=name, **kwargs):
                calls[_name] += 1
                return _orig(*args, **kwargs)

            monkeypatch.setattr(rep, name, counted)
        pieces = orth_decompose_moved(B3, u)
        monkeypatch.undo()
        assert sum(p.space.dim for p in pieces) == 18
        assert calls == {"decompose": 1, "end_algebra": 1, "module_iso": isos}


def test_perfect_pairing():
    # (theta.m1, sigma(theta).m2) -> B(theta.m1, m2) pairs theta.M perfectly
    # with sigma(theta).M
    M = regular_s3()
    B = forms.standard_form(M)
    t = S3.involutions()[0]
    v = np.zeros(6, dtype=np.int64)
    v[0] = v[t] = 1  # theta = 1 + t, a non-unit
    theta = rep.right_mult_matrix(S3, v)
    ts = forms.Adjoint(B)(theta)
    left = linalg.col_space(F2, theta)
    right = linalg.col_space(F2, ts)
    assert left.dim == right.dim == 3
    # column j: the pairing of the left basis with the j-th right basis
    # vector sigma(theta).m
    P = np.zeros((3, 3), dtype=np.int64)
    for j, w in enumerate(right.basis):
        m, _ = linalg.solve(F2, ts, w)
        assert m is not None  # w lies in the image of sigma(theta)
        P[:, j] = linalg.mat_vec(F2, mat_mul(F2, left.basis, B.gram), m)
    assert linalg.is_invertible(F2, P)


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
    assert BL.is_invariant()
    res_form, pieces, _ = mackey_decompose(BL, H, K)
    assert sum(p.module.dim for p in pieces) == res_form.module.dim == 3
    assert len(pieces) == len(S4.double_cosets(K, H))


# sha256 (`array_digest`) of the witness, the restricted module's matrices
# and Gram, then each piece's matrices and Gram, of `mackey_decompose` for
# (L, B_L) = (kP, B_t) over GF(4), P a Sylow 2-subgroup of S4 and t the
# first involution of P's table (a Gram that is no identity matrix), for
# each 2-subgroup class K; recorded before the induced Grams and the
# restriction came from `induce_form` and `rep.restrict`.  The last (K = P)
# was recorded again when subgroup tables took their generators from the
# element set alone: P's table had the generators of `G.sylow2()` before
MACKEY_PINS = [
    "c77ecc1648368848dfefabc2e7bd1408f6506e651b0335cfc86f763ccb82f1a3",
    "09ee9b9e102b25d44beacef28d0a281a77240b66c6ecac4fcb286a2f1ac6e6a5",
    "eee1583255c98ba4b1f81101d32f4aea1fa004e3c1d5031e8d6f166d94c4dfb8",
    "47f195e1cf4b2818e5e2763f9a5e90c462347ae812f94e7a76ce4acac0fb3e60",
    "524a4054f5da6fa4b12b89905cec3d45ead24dcb96e2730d623f2ba097ebdbd7",
    "3fcdb60896292d36ffbc699185ba24376bfca20c97d22c298b528ea9cbca1adc",
    "541743a52058e867b0e9f82aa1cf1a5a3d8d5b3bd00b8a4110d7654ba58b9af6",
]


def test_mackey_witness_is_pinned():
    # S4's shared table: each subgroup table depends on its element set
    # alone, so the tables other tests built on it change nothing here
    G = S4
    P = G.sylow2()
    Pt = rep.subgroup_table(P)[0]
    L = rep.regular_module(Pt, F4)
    BL = forms.involution_form(L, Pt.involutions()[0])
    got = []
    for K in G.two_subgroups_up_to_conjugacy():
        res_form, pieces, W = mackey_decompose(BL, P, K)
        pieces = [a for p in pieces for a in (*p.module.gen_matrices, p.gram)]
        got.append(array_digest(
            [W, *res_form.module.gen_matrices, res_form.gram, *pieces]
        ))
    assert got == MACKEY_PINS


def test_adjoint_refuses_a_gram_that_is_not_invariant():
    # sigma(A) = A^-1 exactly when A^T.P.A = P, so the adjoint of a
    # nondegenerate Gram that is not invariant is refused as before; an
    # invariant one is checked on the generators alone, so the module's
    # whole-group action is never built
    M = regular_s3()
    swap = forms.GForm(M, np.eye(6, dtype=np.int64)[[1, 0, 2, 3, 4, 5]])
    assert swap.nondegenerate and swap.symmetric and not swap.is_invariant()
    with pytest.raises(ValueError, match="adjoint does not invert the group action"):
        forms.Adjoint(swap)
    forms.Adjoint(forms.standard_form(M))
    assert M._action is None


def test_lift_selfadjoint_idempotent_contract():
    # every a = r(x), x in kS3, modulo I = r(J(kS3)): a lift exists exactly
    # when a is idempotent and sigma-fixed modulo I, and ValueError otherwise
    M = regular_s3()
    B = forms.standard_form(M)
    sigma = forms.Adjoint(B)
    E = rep.regular_end_algebra(S3, F2, M)
    J = kg_radical_by_chop(S3, F2)
    I = Subspace(
        F2, 36, np.array([rep.right_mult_matrix(S3, v).ravel() for v in J.basis])
    )
    lifted = refused = 0
    for bits in itertools.product(range(2), repeat=6):
        a = rep.right_mult_matrix(S3, np.array(bits, dtype=np.int64))
        idem = I.contains((mat_mul(F2, a, a) ^ a).ravel())
        fixed = I.contains((sigma(a) ^ a).ravel())
        if idem and fixed:
            e = forms.lift_selfadjoint_idempotent(E, sigma, I, a)
            assert (mat_mul(F2, e, e) == e).all() and (sigma(e) == e).all()
            assert I.contains((e ^ a).ravel())
            lifted += 1
        else:
            with pytest.raises(ValueError):
                forms.lift_selfadjoint_idempotent(E, sigma, I, a)
            refused += idem  # idempotent, but no self-adjoint lift
    # kS3/J = k x M_2(k) has 16 idempotents; sigma fixes only the 4 with 0
    # or 1 in the M_2(k) factor.  There sigma is the adjoint of a symplectic
    # form on k^2, and a self-adjoint idempotent of rank 1 would need a line
    # on which that form is nondegenerate
    assert (lifted, refused) == (8, 24)
    # an ideal that is not nil: I = E = M_2(k) on two trivial summands, where
    # b = a.sigma(a) = [[1, 1], [1, 0]] has order 3 and squares to no idempotent
    one = np.eye(2, dtype=np.int64)
    T = read_back(rep.ModuleRep(S3, F2, [one] * len(S3.generators)))
    sigma = forms.Adjoint(forms.GForm(T, one))
    a = np.array([[1, 0], [1, 1]], dtype=np.int64)
    with pytest.raises(AssertionError, match="not nil"):
        forms.lift_selfadjoint_idempotent(
            rep.end_algebra(T), sigma, Subspace(F2, 4, linalg.eye(4)), a
        )


def test_paired_module_hyperbolic():
    # M* + M with the evaluation pairing extended to a symplectic form
    # vanishing on both summands
    M = [m for m in rep.irreducible_modules(S3, F2) if m.dim == 2][0]
    P = rep.direct_sum([rep.dual(M), M])
    gram = np.zeros((4, 4), dtype=np.int64)
    gram[:2, 2:] = np.eye(2, dtype=np.int64)
    gram[2:, :2] = np.eye(2, dtype=np.int64)
    B = forms.GForm(P, gram)
    assert B.is_invariant()
    assert P.dim == 4 and B.symmetric and B.symplectic and B.nondegenerate
    # both halves are totally isotropic
    for half in (np.eye(4, dtype=np.int64)[:2], np.eye(4, dtype=np.int64)[2:]):
        assert not forms.gram_on(B, half).any()


def test_involution_component_test():
    # B_t takes a nonzero value on some (x, s.x) pair exactly when s and t
    # are conjugate; on the group-element basis B_t(g, s.g) = [g.t == s.g],
    # so the g with a nonzero value are where column t of the table
    # matches row s
    D12 = catalog.suite_group("D12")
    invs = D12.involutions()
    central = [t for t in invs if D12.centralizer(t).order == 12]
    refl = [t for t in invs if t not in central]
    s, t = refl[0], refl[1]

    def hits(u):
        return np.flatnonzero(D12.mult[:, u] == D12.mult[s])

    same = D12.class_of(s) == D12.class_of(t)
    assert (hits(t).size > 0) == same
    # each conjugate pair gives a witness w with w.u.w^-1 = s
    pairs = 0
    for u in refl[1:]:
        if D12.class_of(u) == D12.class_of(s):
            assert hits(u).size
            w = int(hits(u)[0])
            assert D12.mul(w, D12.mul(u, D12.inverse(w))) == s
            pairs += 1
    assert pairs == 2


def test_extend_form_from_summand_round_trip():
    # theta in sigma(e).E(M).e whose form restricts to bhat on e.M: the
    # condition incl^T theta^T gram incl = bhat is linear in theta's
    # coefficients over the candidates sigma(e).f.e
    M = regular_s3()
    B = forms.standard_form(M)
    piece = [
        p for p in forms.orth_decompose(B) if p.kind == "indecomposable"
    ][0]
    e = forms.orth_projection(B, piece.space)
    incl = piece.space.basis.T.copy()
    bhat = forms.gram_on(B, piece.space.basis)
    sigma = forms.Adjoint(B)
    cand = [mat_mul(F2, sigma(e), mat_mul(F2, f, e)) for f in rep.hom_space(M, M)]
    cols = []
    for t in cand:
        r = mat_mul(F2, incl.T, mat_mul(F2, t.T, mat_mul(F2, B.gram, incl)))
        cols.append(r.ravel())
    x, _ = linalg.solve(F2, np.array(cols).T, bhat.ravel())
    assert x is not None, "no extension exists"
    theta = linalg.combine(F2, x, cand)
    Bth = forms.form_from_endo(B, theta)
    got = mat_mul(F2, incl.T, mat_mul(F2, Bth.gram, incl))
    assert (got == bhat).all()
