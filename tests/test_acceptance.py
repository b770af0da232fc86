"""Acceptance suite: one test per criterion, each reporting a PASS/FAIL line.

The heavy shared artifacts (regular-module decompositions, projective
covers) are computed once per group and reused across criteria.
"""

import functools

import numpy as np

from symvert import blocks, catalog, forms, linalg, rep, specht, vertex
from symvert.field import make_field
from symvert.linalg import Subspace, mat_mul

from conftest import (
    kg_radical_by_chop,
    orth_decompose_moved,
    read_back,
    record_criterion,
    scott_component,
    seeded_automorphism,
)

F2 = make_field(1)
F4 = make_field(2)

FONG_GROUPS = ["S3", "D12", "A4", "S4", "SL(2,3)", "S5"]
SMALL_GROUPS = ["C2", "V4", "S3", "D12", "A4", "C3:C4", "S4", "SL(2,3)"]
SWEEP_GROUPS = SMALL_GROUPS + ["S5"]  # every catalogue group of order <= 120


def criterion(n, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*a, **k):
            try:
                fn(*a, **k)
            except BaseException:
                record_criterion(n, name, False)
                raise
            record_criterion(n, name, True)

        return wrapper

    return deco


@functools.lru_cache(maxsize=None)
def regular_decomposition(name, degree=1):
    """(regular module, decomposition certificate) for a catalogue group."""
    G = catalog.suite_group(name)
    F = make_field(degree)
    M = rep.regular_module(G, F)
    E = rep.regular_end_algebra(G, F, M)
    return M, rep.decompose(M, endo=E)


@functools.lru_cache(maxsize=None)
def group_pims(name, degree=1):
    return rep.pims(catalog.suite_group(name), make_field(degree))


def pk_components(name):
    """The P(k)-isomorphic components of the regular module."""
    _, cert = regular_decomposition(name)
    pk = [p.pim for p in group_pims(name)
          if p.head.dim == 1 and all((a == 1).all() for a in p.head.gen_matrices)]
    assert len(pk) == 1
    return pk[0], [
        c for c in cert.components
        if c.module.dim == pk[0].dim and rep.module_iso(c.module, pk[0]) is not None
    ]


def nontrivial_selfdual_irreducibles(name):
    G = catalog.suite_group(name)
    return [
        m for m in rep.irreducible_modules(G, F2)
        if m.dim > 1 and rep.is_selfdual(m)
    ]


# -- criterion 1: two non-conjugate symmetric vertex classes ---------------


@criterion(1, "dihedral PIM: two symmetric vertex classes")
def test_criterion_01_dihedral_two_classes():
    P, H = catalog.d12_pim(F2)
    G = P.group
    assert P.dim == 4 and rep.is_indecomposable(P)
    base = forms.base_form(P)
    assert base is not None
    sv = vertex.symmetric_vertices(P, base)
    assert len(sv) == 2
    T1, T2 = sv[0].subgroup, sv[1].subgroup
    assert T1.order == T2.order == 2
    assert G.subgroup_conjugate(T1, T2) is None
    # the T1-projective form is not T2-projective and vice versa, while each
    # is projective (with a verified isometry) relative to its own class
    th1 = forms.endo_from_form(base, sv[0].form)
    th2 = forms.endo_from_form(base, sv[1].form)
    assert not vertex.form_is_H_projective(base, th1, T2).projective
    assert not vertex.form_is_H_projective(base, th2, T1).projective
    c11 = vertex.form_is_H_projective(base, th1, T1)
    c22 = vertex.form_is_H_projective(base, th2, T2)
    assert c11.projective and c11.verified
    assert c22.projective and c22.verified


# -- criterion 2: orthogonal decompositions along seeded automorphisms -----


@criterion(2, "orthogonal decompositions differ along a seeded automorphism")
def test_criterion_02_seeded_decompositions():
    S3 = catalog.suite_group("S3")
    M = [m for m in rep.irreducible_modules(S3, F2) if m.dim == 2][0]
    B = forms.base_form(M)
    three = rep.direct_sum([M] * 3)
    gram = np.zeros((6, 6), dtype=np.int64)
    for i in range(3):
        gram[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = B.gram
    B3 = forms.GForm(three, gram)
    assert B3.is_invariant()
    shapes = {}
    for seed in (0, 1):
        pieces = orth_decompose_moved(B3, seeded_automorphism(three, seed))
        # certification: nondegenerate, pairwise orthogonal, spanning
        total = 0
        for i, p in enumerate(pieces):
            assert forms.is_nondegenerate_on(B3, p.space)
            total += p.space.dim
            for q in pieces[i + 1 :]:
                vals = mat_mul(
                    F2, p.space.basis, mat_mul(F2, B3.gram, q.space.basis.T)
                )
                assert not vals.any()
        assert total == 6
        shapes[seed] = sorted((p.space.dim, p.kind) for p in pieces)
    assert len(shapes[0]) == 3
    assert len(shapes[1]) == 2
    assert shapes[0] != shapes[1]


# -- criterion 3: the Klein four infinite family over GF(4) ----------------


@criterion(3, "Klein four family of decompositions over GF(4)")
def test_criterion_03_v4_family():
    G = catalog.suite_group("V4")
    M = rep.regular_module(G, F4)
    n = G.order
    r, s = 1, 2
    t = G.mul(r, s)

    def Bvec(coeffs):
        v = np.zeros(n, dtype=np.int64)
        for g, c in coeffs:
            v[g] = c
        return forms.regular_form(M, v)

    units = list(range(1, F4.q))
    sqrt = {F4.mul(l, l): l for l in units}
    Br, Bs = Bvec([(r, 1)]), Bvec([(s, 1)])
    big_mod = rep.direct_sum([M, M])
    big_gram = np.zeros((2 * n, 2 * n), dtype=np.int64)
    big_gram[:n, :n] = Br.gram
    big_gram[n:, n:] = Bs.gram
    Big = forms.GForm(big_mod, big_gram)
    assert Big.is_invariant()
    for alpha in units:
        for beta in units:
            if alpha == beta:
                continue
            lam, mu = sqrt[alpha], sqrt[beta]
            Bab = Bvec([(r, alpha), (s, beta)])
            Bba = Bvec([(r, beta), (s, alpha)])
            for B in (Bab, Bba):
                assert B.symmetric and B.symplectic and B.nondegenerate
            # explicit paired submodules: U = {(lam x, mu x)} and
            # W = {(mu (rs) x, lam x)}
            U = np.zeros((n, 2 * n), dtype=np.int64)
            W = np.zeros((n, 2 * n), dtype=np.int64)
            for g in range(n):
                U[g, g] = lam
                U[g, n + g] = mu
                W[g, G.mul(g, t)] = mu
                W[g, n + g] = lam
            # submodules
            for basis in (U, W):
                S = Subspace(F4, 2 * n, basis)
                for A in big_mod.gen_matrices:
                    img = mat_mul(F4, basis, A.T)
                    for row in img:
                        assert S.contains(row)
            # orthogonal and complementary
            cross = mat_mul(F4, U, mat_mul(F4, Big.gram, W.T))
            assert not cross.any()
            assert Subspace(F4, 2 * n, np.vstack([U, W])).dim == 2 * n
            # the restrictions are exactly B_{alpha r + beta s} and
            # B_{beta r + alpha s}
            assert (mat_mul(F4, U, mat_mul(F4, Big.gram, U.T)) == Bab.gram).all()
            assert (mat_mul(F4, W, mat_mul(F4, Big.gram, W.T)) == Bba.gram).all()
    # scalar multiples produce isometric pieces via the lambda^2 rule
    x = np.zeros(n, dtype=np.int64)
    x[r] = x[s] = x[t] = 1
    Bx = forms.regular_form(M, x)
    for lam in units:
        S = np.eye(n, dtype=np.int64) * lam
        scaled = forms.regular_form(M, F4.vscale(F4.mul(lam, lam), x))
        assert (mat_mul(F4, S, mat_mul(F4, Bx.gram, S.T)) == scaled.gram).all()


# -- criterion 4: uniqueness of the invariant symmetric form ---------------


@criterion(4, "unique symplectic form on self-dual irreducibles")
def test_criterion_04_fong():
    for name in FONG_GROUPS:
        mods = nontrivial_selfdual_irreducibles(name)
        assert mods, name
        for M in mods:
            inv = forms.invariant_forms(M)
            assert len(inv.symmetric) == 1, (name, M.dim)
            g = inv.symmetric[0]
            assert (g == g.T).all() and not g.diagonal().any()  # symplectic
        # the orthonormal-basis form is degenerate on every P(M)-summand;
        # this needs M absolutely irreducible (End(M) = k), so work over the
        # smallest field where the self-dual simples split
        degree = 2 if name in ("A4", "SL(2,3)") else 1
        Fs = make_field(degree)
        G = catalog.suite_group(name)
        split_mods = [
            m for m in rep.irreducible_modules(G, Fs)
            if m.dim > 1 and rep.is_selfdual(m)
            and len(rep.hom_space(m, m)) == 1
        ]
        reg, cert = regular_decomposition(name, degree)
        B1 = forms.standard_form(reg)
        pims_here = group_pims(name, degree)
        for M in split_mods:
            covers = [
                p.pim for p in pims_here
                if p.head.dim == M.dim and rep.module_iso(p.head, M) is not None
            ]
            assert len(covers) == 1
            found = 0
            for c in cert.components:
                if c.module.dim == covers[0].dim and (
                    rep.module_iso(c.module, covers[0]) is not None
                ):
                    found += 1
                    assert not forms.is_nondegenerate_on(B1, c.subspace)
            assert found >= 1


# -- criterion 5: parity of the projective cover of the trivial module -----


@criterion(5, "P(k) parity and the orthonormal form on its summands")
def test_criterion_05_pk_parity():
    for name in SWEEP_GROUPS:
        G = catalog.suite_group(name)
        pk, comps = pk_components(name)
        g2 = G.sylow2().order
        assert pk.dim % g2 == 0
        assert (pk.dim // g2) % 2 == 1, (name, pk.dim, g2)
        reg, _ = regular_decomposition(name)
        B1 = forms.standard_form(reg)
        assert comps
        for c in comps:
            assert forms.is_nondegenerate_on(B1, c.subspace)
            sub_gram = forms.gram_on(B1, c.subspace.basis)
            assert sub_gram.diagonal().any()  # non-symplectic


# -- criterion 6: symmetric vertices sit over the Green vertex -------------


@criterion(6, "symmetric vertex bound on permutation-module summands")
def test_criterion_06_vertex_bound_sweep():
    for name in SWEEP_GROUPS + ["GL(3,2):2"]:
        G = catalog.suite_group(name)
        sources = [(rep.permutation_module(G, F2), None)]
        if name != "GL(3,2):2":
            sources.append(regular_decomposition(name))
        for M, cached in sources:
            cert = cached if cached is not None else rep.decompose(M)
            seen = set()
            block_list = None
            for c in cert.components:
                if c.iso_class in seen:
                    continue
                seen.add(c.iso_class)
                S = c.module
                if S.dim > 30:
                    continue
                base = forms.base_form(S)
                if base is None:
                    continue
                gv = vertex.green_vertex(S)
                sv = vertex.symmetric_vertices(S, base, gv)
                assert sv, (name, S.dim)
                case_one = False
                for tcls in sv:
                    assert tcls.subgroup.order in (
                        gv.vertex.order,
                        2 * gv.vertex.order,
                    )
                    assert G.conjugate_into(gv.vertex, tcls.subgroup) is not None
                    if tcls.subgroup.order == gv.vertex.order:
                        case_one = True
                if case_one:
                    if block_list is None:
                        block_list = blocks.block_decomposition(G, F2)
                    assert blocks.block_of_module(S, block_list).principal


# -- criterion 7: the three case exemplars ---------------------------------


@criterion(7, "case exemplars I / II / III")
def test_criterion_07_case_exemplars():
    # case I: the 4-dim irreducible of S5, over GF(4) where its restriction
    # to a Klein four subgroup splits into the two 2-dim sources
    sd = catalog.s5_specht_irreducible(F4)
    r1 = vertex.classify_case(sd.irreducible, sd.irreducible_form)
    assert r1.case == "I"
    V = r1.green.vertex
    assert V.order == 4
    assert all(sd.group.element_order(x) <= 2 for x in V.elements)  # Klein four
    assert any(
        t.subgroup.order == 4
        and sd.group.subgroup_conjugate(t.subgroup, V) is not None
        for t in r1.sym_vertices
    )
    assert r1.principal_block is True

    # case II: the 2-dim projective irreducible of S3 (real defect-zero block)
    S3 = catalog.suite_group("S3")
    M2 = [m for m in rep.irreducible_modules(S3, F2) if m.dim == 2][0]
    r2 = vertex.classify_case(M2, forms.base_form(M2))
    assert r2.case == "II"
    assert r2.green.vertex.order == 1
    assert all(t.subgroup.order == 2 for t in r2.sym_vertices)
    b = blocks.block_of_module(M2)
    assert b.real and not b.principal and b.defect_group.order == 1

    # case III: the induced 6-dim module of the order-336 extension of
    # GL(3,2), whose sources are not self-dual
    M6, _ = catalog.gl32_induced_module(F2)
    r3 = vertex.classify_case(M6, check_principal=False)
    assert r3.case == "III"
    assert all(not s.self_dual for s in r3.green.sources)
    assert all(
        t.subgroup.order == 2 * r3.green.vertex.order for t in r3.sym_vertices
    )


# -- criterion 8: quadratic type via row-reversal --------------------------


@criterion(8, "quadratic type of projective covers")
def test_criterion_08_quadratic_type():
    # row-reversal witnesses for the S4 and S5 Specht constructions, plus
    # nondegeneracy of B_t on a P(D)-summand of the regular module
    for lam, name in (((3, 1), "S4"), ((3, 2), "S5")):
        sd = specht.specht_module(catalog.suite_group(name), lam, F2)
        G = sd.group
        q = blocks.quadratic_type_pim(sd.irreducible, sd.irreducible_form)
        assert q.quadratic
        assert G.element_order(q.involution) == 2
        reg, cert = regular_decomposition(name)
        Bt = forms.involution_form(reg, q.involution)
        cover = [
            p.pim for p in group_pims(name)
            if p.head.dim == sd.irreducible.dim
            and rep.module_iso(p.head, sd.irreducible) is not None
        ][0]
        hits = [
            forms.is_nondegenerate_on(Bt, c.subspace)
            for c in cert.components
            if c.module.dim == cover.dim
            and rep.module_iso(c.module, cover) is not None
        ]
        assert any(hits), (name, hits)

    # the semidihedral-free counterexample: C3 : C4
    G = catalog.suite_group("C3:C4")
    M = [m for m in rep.irreducible_modules(G, F2) if m.dim == 2][0]
    assert not blocks.quadratic_type_pim(M).quadratic

    # both directions agree on the suite irreducibles: quadratic type holds
    # exactly when B_t is nondegenerate on some P(M)-summand for some t.
    # The equivalence needs End(M) = k, so skip non-split simples.
    for name in ("S3", "D12", "A4", "S4", "SL(2,3)", "C3:C4"):
        G = catalog.suite_group(name)
        reg, cert = regular_decomposition(name)
        for M in nontrivial_selfdual_irreducibles(name):
            if len(rep.hom_space(M, M)) != 1:
                continue
            q = blocks.quadratic_type_pim(M)
            cover = [
                p.pim for p in group_pims(name)
                if p.head.dim == M.dim
                and rep.module_iso(p.head, M) is not None
            ][0]
            copies = [
                c.subspace for c in cert.components
                if c.module.dim == cover.dim
                and rep.module_iso(c.module, cover) is not None
            ]
            one_t_per_class = []
            seen = set()
            for t in G.involutions():
                cl = G.class_of(t)
                if cl not in seen:
                    seen.add(cl)
                    one_t_per_class.append(t)
            brute = any(
                forms.is_nondegenerate_on(
                    forms.involution_form(reg, t), S
                )
                for t in one_t_per_class
                for S in copies
            )
            assert brute == q.quadratic, (name, M.dim)


# -- criterion 9: block invariants and the explicit Theta ------------------


@criterion(9, "extended defect groups govern symmetric vertices")
def test_criterion_09_block_theorem():
    for name in ("S3", "D12", "SL(2,3)", "S4", "S5", "GL(3,2):2"):
        G = catalog.suite_group(name)
        if name == "GL(3,2):2":  # its PIMs take seconds: the irreducibles alone
            sample = rep.irreducible_modules(G, F2)
        else:
            sample = list(rep.irreducible_modules(G, F2)) + [
                p.pim for p in group_pims(name)
            ]
        for b in blocks.block_decomposition(G, F2):
            if not b.real:
                continue
            r = vertex.verify_theorem_vertexBlock(G, F2, b, sample)
            assert r.part_i, (name, "part i")
            assert r.part_ii, (name, "part ii")
            assert r.part_iii, (name, "part iii")
            assert r.theta is not None
            assert r.theta.sigma_fixed and r.theta.trace_is_block


# -- criterion 10: the distinguished multiplicity-one component ------------


@criterion(10, "distinguished component of induced form modules")
def test_criterion_10_scott():
    for name in ("S3", "S4", "D12"):
        G = catalog.suite_group(name)
        V = G.sylow2()
        Vt, _ = rep.subgroup_table(V)
        Z = rep.trivial_module(Vt, F2)
        scott_component(V, Z)

    # a nontrivial symmetric-type source: the self-dual 4-dim module of the
    # self-normalizing Klein four subgroup of the dihedral group of order 12
    D12 = catalog.suite_group("D12")
    V = D12.sylow2()
    assert D12.normalizer(V).order == V.order
    Vt, _ = rep.subgroup_table(V)
    C = np.array([[0, 1], [1, 1]], dtype=np.int64)

    def upper(B):
        M = np.eye(4, dtype=np.int64)
        M[:2, 2:] = B
        return M

    one = np.eye(2, dtype=np.int64)
    Z = read_back(rep.ModuleRep(Vt, F2, [upper(one), upper(C)]))
    assert rep.is_indecomposable(Z) and rep.is_selfdual(Z)
    assert vertex.green_vertex(Z).vertex.order == 4
    scott_component(V, Z)


# -- criterion 11: oracle cross-checks -------------------------------------


@criterion(11, "projectivity, base-form and lifting oracles")
def test_criterion_11_oracles():
    import random

    # (a) trace-based relative projectivity against brute-force component
    # search in Ind Res, for all catalogue groups of order <= 24 and
    # modules of dimension <= 8
    for name in SMALL_GROUPS:
        G = catalog.suite_group(name)
        assert G.order <= 24
        mods = [rep.trivial_module(G, F2)]
        mods += [m for m in rep.irreducible_modules(G, F2) if m.dim <= 8]
        perm = rep.permutation_module(G, F2)
        if perm.dim <= 8:
            mods.append(perm)
        for M in mods:
            for H in G.two_subgroups_up_to_conjugacy():
                got = vertex.is_projective(M, H).projective
                ind, _ = rep.induce(rep.restrict(M, H), H)
                assert got == vertex.is_summand(M, ind), (name, M.dim, H.order)

    # (b) is_sym_projective does not depend on the base form
    for name in ("S3", "D12", "C3:C4"):
        G = catalog.suite_group(name)
        reg, cert = regular_decomposition(name)
        seen = set()
        for c in cert.components:
            if c.iso_class in seen:
                continue
            seen.add(c.iso_class)
            inv = forms.invariant_forms(c.module)
            bases = [
                forms.GForm(c.module, g)
                for g in inv.symmetric
                if linalg.is_invertible(F2, g)
            ]
            assert all(b.is_invariant() for b in bases)
            if len(bases) < 2:
                continue
            for H in G.two_subgroups_up_to_conjugacy():
                answers = {
                    vertex.is_sym_projective(c.module, H, b).projective
                    for b in bases
                }
                assert len(answers) == 1, (name, c.module.dim, H.order)

    # (c) 200 seeded self-adjoint idempotent lifts
    done = 0
    for name in ("S3", "C3:C4"):
        G = catalog.suite_group(name)
        M = rep.regular_module(G, F2)
        B = forms.standard_form(M)
        sigma = forms.Adjoint(B)
        E = rep.regular_end_algebra(G, F2, M)
        J = kg_radical_by_chop(G, F2)
        I = Subspace(
            F2,
            M.dim**2,
            np.array(
                [rep.right_mult_matrix(G, v).ravel() for v in J.basis]
            ),
        )
        seeds_base = [np.zeros((M.dim, M.dim), dtype=np.int64),
                      np.eye(M.dim, dtype=np.int64)]
        for piece in forms.orth_decompose(B):
            seeds_base.append(forms.orth_projection(B, piece.space))
        for seed in range(100):
            rng = random.Random(1000 * done + seed)
            e0 = seeds_base[rng.randrange(len(seeds_base))]
            nmat = np.zeros((M.dim, M.dim), dtype=np.int64)
            for v in J.basis:
                if rng.randrange(2):
                    nmat ^= rep.right_mult_matrix(G, v)
            a = e0 ^ nmat
            e = forms.lift_selfadjoint_idempotent(E, sigma, I, a)
            assert (mat_mul(F2, e, e) == e).all()
            assert (sigma(e) == e).all()
            assert I.contains((e ^ a).ravel())
        done += 1
    assert done == 2  # 200 instances in total
