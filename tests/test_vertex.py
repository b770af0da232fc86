"""Relative projectivity, Green vertices, symmetric vertices."""

import itertools
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symvert import catalog, forms, linalg, rep, vertex
from symvert.field import make_field
from symvert.group import Subgroup
from symvert.linalg import mat_mul

from conftest import array_digest, conjugated, rel_trace_by_element, scott_component

F2 = make_field(1)
S3 = catalog.suite_group("S3")
S4 = catalog.suite_group("S4")
D12 = catalog.suite_group("D12")


def two_dim_simple(G):
    return [m for m in rep.irreducible_modules(G, F2) if m.dim == 2][0]


def _endo_over(M, H):
    """E_H(M): the Hom space of Res_H M with itself."""
    res = rep.restrict(M, H)
    return rep.hom_space(res, res)


def test_rel_trace_transitivity():
    M = rep.regular_module(S4, F2)
    P = S4.sylow2()
    H = [K for K in S4.two_subgroups_up_to_conjugacy()
         if K.order == 2 and S4.is_subgroup_of(K, P)][0]
    f = _endo_over(M, H)[3]
    via = vertex.rel_trace(M, rel_trace_by_element(M, [f], H, P)[0], P)
    direct = vertex.rel_trace(M, f, H)
    assert (via == direct).all()


def test_rel_trace_frobenius_identity():
    # tr_H^G(alpha . res(phi)) = tr_H^G(alpha) . phi for phi in E_G(M)
    M = rep.regular_module(S3, F2)
    H = S3.sylow2()
    alphas = _endo_over(M, H)
    phis = rep.hom_space(M, M)
    for alpha in alphas[:4]:
        for phi in phis[:4]:
            lhs = vertex.rel_trace(M, mat_mul(F2, alpha, phi), H)
            rhs = mat_mul(F2, vertex.rel_trace(M, alpha, H), phi)
            assert (lhs == rhs).all()


S5 = catalog.suite_group("S5")
_P = S5.sylow2()
_OVER_P = next(K for x in range(S5.order)
               if _P.order < (K := S5.closure(list(_P.gens) + [x])).order < S5.order)
_INVOLUTION = next(x for x in _P.elements if S5.element_order(x) == 2)


@pytest.mark.parametrize("m, h", [(1, 600), (2, 600), (1, 1400)])
@pytest.mark.parametrize("H, K", [
    (S5.trivial_subgroup(), None), (S5.trivial_subgroup(), _P),
    (S5.closure([_INVOLUTION]), None), (S5.closure([_INVOLUTION]), _P),
    (_P, None), (_P, _OVER_P),
], ids=["1-G", "1-P", "2-G", "2-P", "P-G", "P-S4"])
def test_rel_trace_batch_matches_the_per_element_sum(m, H, K, h):
    # on the 5-dim permutation module of S5, h = 600 and 1400 endomorphisms
    # make chunks of 4 transversal elements (the last one short for |G:P| =
    # 15) and of 1; tr_H^K is the trace on Res_K M, with H in K's table
    F = make_field(m)
    M = rep.permutation_module(S5, F)
    rng = np.random.default_rng(h)
    fs = list(rng.integers(0, F.q, size=(h, M.dim, M.dim)))
    assert vertex.TRACE_CHUNK_ENTRIES // (h * M.dim**2) == (4 if h == 600 else 1)
    if K is None:
        got = vertex.rel_trace_batch(M, fs, H)
    else:
        Kt, elems = rep.subgroup_table(K)
        H_in_K = Subgroup(Kt, tuple(elems.index(x) for x in H.elements), None)
        got = vertex.rel_trace_batch(rep.restrict(M, K), fs, H_in_K)
    want = rel_trace_by_element(M, fs, H, K)
    assert len(got) == h
    assert all((g == w).all() for g, w in zip(got, want))


def test_is_projective_trivial_module():
    k = rep.trivial_module(S3, F2)
    assert not vertex.is_projective(k, S3.trivial_subgroup()).projective
    cert = vertex.is_projective(k, S3.sylow2())
    assert cert.projective
    assert (vertex.rel_trace(k, cert.alpha, S3.sylow2())
            == np.eye(1, dtype=np.int64)).all()


def test_is_projective_certificate():
    M = rep.regular_module(S3, F2)
    cert = vertex.is_projective(M, S3.trivial_subgroup())
    assert cert.projective  # free modules are projective
    tr = vertex.rel_trace(M, cert.alpha, S3.trivial_subgroup())
    assert (tr == np.eye(6, dtype=np.int64)).all()


def test_is_summand():
    M = two_dim_simple(S3)
    reg = rep.regular_module(S3, F2)
    assert vertex.is_summand(M, reg)
    assert not vertex.is_summand(rep.trivial_module(S3, F2), M)


def test_green_vertex_projective_simple():
    M = two_dim_simple(S3)
    gv = vertex.green_vertex(M)
    assert gv.vertex.order == 1
    # the source of a projective module is the trivial module of the
    # trivial subgroup
    assert len(gv.sources) == 1 and gv.sources[0].module.dim == 1


def test_green_vertex_trivial_module_is_sylow():
    k = rep.trivial_module(S4, F2)
    gv = vertex.green_vertex(k)
    assert gv.vertex.order == 8
    assert gv.sources[0].module.dim == 1


def test_green_vertex_intermediate():
    # the 2-dim simple of D12 = C2 x S3 has the central involution as vertex:
    # non-projective (|G|_2 = 4) but projective relative to the centre
    M = two_dim_simple(D12)
    gv = vertex.green_vertex(M)
    assert gv.vertex.order == 2
    z = gv.vertex.gens[0]
    assert D12.centralizer(z).order == 12  # central involution
    assert [s.module.dim for s in gv.sources] == [1]
    assert gv.sources[0].self_dual and gv.sources[0].symmetric_type


def test_form_projectivity_regular_b1_and_bt():
    M = rep.regular_module(S3, F2)
    B1 = forms.standard_form(M)
    one = np.eye(6, dtype=np.int64)
    triv = S3.trivial_subgroup()
    c = vertex.form_is_H_projective(B1, one, triv)
    assert c.projective and c.verified
    t = S3.involutions()[0]
    Bt = forms.involution_form(M, t)
    theta_t = forms.endo_from_form(B1, Bt)
    c2 = vertex.form_is_H_projective(B1, theta_t, triv)
    assert not c2.projective
    T = S3.closure([t])
    c3 = vertex.form_is_H_projective(B1, theta_t, T)
    assert c3.projective and c3.verified
    # the certificate really traces to theta
    tr = vertex.rel_trace(M, c3.alpha, T)
    assert (tr == theta_t).all()
    sigma = forms.Adjoint(B1)
    assert (sigma(c3.alpha) == c3.alpha).all()


def test_verify_TleqH():
    # for every 2-subgroup class H, B_theta is H-projective exactly when a
    # conjugate of T lies in H
    M = rep.regular_module(S3, F2)
    B1 = forms.standard_form(M)
    t = S3.involutions()[0]
    theta_t = forms.endo_from_form(B1, forms.involution_form(M, t))
    T = S3.closure([t])
    for H in S3.two_subgroups_up_to_conjugacy():
        got = vertex.form_is_H_projective(B1, theta_t, H).projective
        assert got == (S3.conjugate_into(T, H) is not None), H


def test_is_sym_projective_basics():
    M = two_dim_simple(S3)
    base = forms.base_form(M)
    assert not vertex.is_sym_projective(M, S3.trivial_subgroup(), base).projective
    c = vertex.is_sym_projective(M, S3.sylow2(), base)
    assert c.projective
    assert linalg.is_invertible(F2, c.theta)
    sigma = forms.Adjoint(base)
    assert (sigma(c.alpha) == c.alpha).all()
    assert (vertex.rel_trace(M, c.alpha, S3.sylow2()) == c.theta).all()


def test_is_sym_projective_base_form_independent():
    # the answer cannot depend on which nondegenerate symmetric form is used
    M = rep.regular_module(S3, F2)
    pieces = forms.orth_decompose(forms.standard_form(M))
    ind = [p for p in pieces if p.kind == "indecomposable"][0]
    P, _, _ = rep.sub_module(M, ind.space)
    inv = forms.invariant_forms(P)
    bases = []
    for g in inv.symmetric:
        if linalg.is_invertible(F2, g):
            bases.append(forms.GForm(P, g))
    assert len(bases) >= 2 and all(b.is_invariant() for b in bases)
    for H in S3.two_subgroups_up_to_conjugacy():
        answers = {vertex.is_sym_projective(P, H, b).projective for b in bases}
        assert len(answers) == 1


def test_sym_projective_implies_projective():
    for M in (two_dim_simple(S3), rep.trivial_module(S3, F2)):
        base = forms.base_form(M)
        for H in S3.two_subgroups_up_to_conjugacy():
            if vertex.is_sym_projective(M, H, base).projective:
                assert vertex.is_projective(M, H).projective


def test_symmetric_vertices_s3_simple():
    M = two_dim_simple(S3)
    sv = vertex.symmetric_vertices(M, forms.base_form(M))
    assert len(sv) == 1 and sv[0].subgroup.order == 2
    assert sv[0].form.nondegenerate and sv[0].form.symmetric


def test_classify_case_II_s3():
    M = two_dim_simple(S3)
    r = vertex.classify_case(M, forms.base_form(M))
    assert r.case == "II"
    assert r.green.vertex.order == 1
    assert all(t.subgroup.order == 2 for t in r.sym_vertices)
    assert r.checks["all_sym_vertices_index_2_over_green"]


def test_classify_case_I_trivial_module():
    k = rep.trivial_module(S3, F2)
    r = vertex.classify_case(k, forms.base_form(k))
    assert r.case == "I"
    assert r.green.vertex.order == 2
    assert r.checks["sym_vertex_equals_green_vertex"]
    assert r.principal_block is True


def test_scott_component_s3():
    V = S3.sylow2()
    Vt, _ = rep.subgroup_table(V)
    Z = rep.trivial_module(Vt, F2)
    M = scott_component(V, Z)
    # for a Sylow 2-subgroup of odd index the trivial module itself is a
    # summand of the induced module and is the distinguished component
    assert M.dim == 1
    assert rep.module_iso(M, rep.trivial_module(S3, F2)) is not None


def test_report_to_dict_shape():
    M = two_dim_simple(S3)
    r = vertex.classify_case(M, forms.base_form(M))
    d = vertex.report_to_dict(r)
    assert d["case"] == "II"
    assert d["green_vertex"]["order"] == 1
    assert len(d["symmetric_vertices"]) == 1
    assert isinstance(d["symmetric_vertices"][0]["form_hash"], str)


def _any_unit(F, mats):
    """Whether some combination of mats is invertible, trying all q^h of
    them; None when there are more than 4096."""
    if F.q ** len(mats) > 4096:
        return None
    for coeffs in itertools.product(range(F.q), repeat=len(mats)):
        if any(coeffs):
            x = np.zeros_like(mats[0])
            for c, m in zip(coeffs, mats):
                if c:
                    x ^= F.vscale(c, m)
            if linalg.is_invertible(F, x):
                return True
    return False


@pytest.mark.parametrize("name", ["S3", "D12", "A4", "S4"])
@pytest.mark.parametrize("m", [1, 2])
def test_basis_checks_match_exhaustive_search(name, m):
    # on indecomposable modules E(M) is local, so a basis check decides
    # module_iso, base_form and is_sym_projective exactly
    G = catalog.suite_group(name)
    F = make_field(m)
    comps = [c.module for c in rep.decompose(rep.regular_module(G, F)).components]
    mods = comps + rep.irreducible_modules(G, F)
    decided = 0
    for M in mods:
        for N in [rep.dual(M)] + comps:
            iso = _any_unit(F, rep.hom_space(M, N)) if M.dim == N.dim else False
            if iso is not None:
                assert (rep.module_iso(M, N) is not None) == iso
                decided += 1
        has_form = _any_unit(F, forms.invariant_forms(M).symmetric)
        if has_form is None:
            continue
        base = forms.base_form(M)
        assert (base is not None) == has_form
        decided += 1
        for H in G.two_subgroups_up_to_conjugacy() if has_form else []:
            fixed = vertex.sigma_fixed_basis(M, forms.Adjoint(base), H)
            traces = vertex.rel_trace_batch(M, fixed, H) if fixed else []
            unit = _any_unit(F, traces)
            if unit is not None:
                assert vertex.is_sym_projective(M, H, base).projective == unit
                decided += 1
    assert decided >= 2 * len(mods)


def _one_per_class(G, F):
    """The trivial module and the components of the regular and permutation
    modules, one per isomorphism class."""
    mods = [rep.trivial_module(G, F)]
    for N in (rep.regular_module(G, F), rep.permutation_module(G, F)):
        for c in rep.decompose(N).components:
            if all(rep.module_iso(c.module, X) is None for X in mods):
                mods.append(c.module)
    return mods


def _source_signatures(sources):
    return sorted((s.module.dim, s.self_dual, s.symmetric_type) for s in sources)


def _reference_source_signatures(M, V):
    """The sources by their definition: the components Z of Res_V M with
    M | Ind_V^G Z, built and tested over G, one per isomorphism class."""
    kept = []
    for c in rep.decompose(rep.restrict(M, V)).components:
        if vertex.is_summand(M, rep.induce(c.module, V)[0]) and all(
            rep.module_iso(c.module, Z) is None for Z in kept
        ):
            kept.append(c.module)
    return sorted(
        (Z.dim, rep.is_selfdual(Z), forms.base_form(Z) is not None) for Z in kept
    )


@pytest.mark.parametrize("name", ["S3", "D12", "A4", "S4", "C3:C4"])
@pytest.mark.parametrize("m", [1, 2])
def test_sources_by_reciprocity_match_induced_summands(name, m):
    # the sources green_vertex takes from one decomposition of Res_V M and
    # N_G(V)-conjugation match the components of Res_V M that are summands
    # of the induced module, found by decomposing, inducing and testing over G
    G = catalog.suite_group(name)
    for M in _one_per_class(G, make_field(m)):
        green = vertex.green_vertex(M)
        want = _reference_source_signatures(M, green.vertex)
        assert _source_signatures(green.sources) == want


@pytest.mark.parametrize("name", ["S4", "SL(2,3)"])
def test_one_algebra_per_vertices_query(monkeypatch, name):
    # a projective module (trivial vertex) has the trivial module of the
    # trivial group as its one source, with no decomposition of Res_V M; the
    # symmetric vertex search reads every E_T(M) off the basis of E_V(M) that
    # is_projective solved over, so sigma_fixed_basis makes no Hom solve at
    # any candidate
    mods = _one_per_class(catalog.suite_group(name), F2)
    decomposed, homs, fixed = [], [], []
    decompose, hom_space = rep.decompose, rep.hom_space
    sigma_fixed_basis = vertex.sigma_fixed_basis

    def counted_fixed(M, sigma, H, *rest):
        before = len(homs)
        out = sigma_fixed_basis(M, sigma, H, *rest)
        fixed.append((H.elements, len(homs) - before))
        return out

    monkeypatch.setattr(rep, "decompose",
                        lambda *a, **k: decomposed.append(1) or decompose(*a, **k))
    monkeypatch.setattr(rep, "hom_space",
                        lambda *a, **k: homs.append(1) or hom_space(*a, **k))
    monkeypatch.setattr(vertex, "sigma_fixed_basis", counted_fixed)
    projective = reused = 0
    for M in mods:
        decomposed.clear()
        green = vertex.green_vertex(M)
        V, sources = green.vertex, green.sources
        assert len(decomposed) == (V.order > 1)
        if V.order == 1:  # M is projective: k of the trivial group
            projective += 1
            assert _source_signatures(sources) == [(1, True, True)]
            assert sources[0].module.group.order == 1
        base = forms.base_form(M)
        if base is None:
            continue
        fixed.clear()
        vertex.symmetric_vertices(M, base, green)
        assert [n for e, n in fixed if e == V.elements] == [0]
        assert fixed and all(n == 0 for _, n in fixed)
        reused += 1
    assert projective >= 2 and reused >= 2


def test_sources_are_decomposed_on_first_read_only(monkeypatch):
    # symmetric_vertices needs the vertex alone and decomposes nothing; the
    # sources come from one decomposition of Res_V M, made on the first
    # read of green.sources and kept
    M = two_dim_simple(S4)
    base = forms.base_form(M)
    decomposed = []
    decompose = rep.decompose
    monkeypatch.setattr(rep, "decompose",
                        lambda *a, **k: decomposed.append(1) or decompose(*a, **k))
    assert vertex.symmetric_vertices(M, base) and decomposed == []
    green = vertex.green_vertex(M)
    assert green.vertex.order > 1 and decomposed == []
    sources = green.sources
    assert green.sources is sources and decomposed == [1]


# sha256 (`array_digest`) of alpha, the isometry, the target module's
# matrices and the target Gram that `form_is_H_projective` certifies for
# each symmetric vertex class T of D12's 4-dim PIM relative to T itself
# (criterion 1); recorded before the induced Gram came from
# `forms.induce_form`
FORM_CERT_PINS = [
    "ede4d216004306530f6f8f431eaf6590531d87fa18c78ae3999159c4f5ae1f11",
    "6699892afc3c5b1d26dd965e019703b40e72a362c38261e19a197c0fe2e56b17",
]


def test_form_projectivity_certificates_are_pinned():
    P, _ = catalog.d12_pim(F2)
    base = forms.base_form(P)
    got = []
    for t in vertex.symmetric_vertices(P, base):
        theta = forms.endo_from_form(base, t.form)
        c = vertex.form_is_H_projective(base, theta, t.subgroup)
        assert c.projective and c.verified
        got.append(array_digest([c.alpha, c.isometry, *c.target_module.gen_matrices,
                                 c.target_form.gram]))
    assert got == FORM_CERT_PINS


def test_two_sources_of_the_gl32_induced_module():
    # the only catalogue module with two sources: the natural module of
    # GL(3,2) and its dual, conjugate under N_G(V) but not under V
    M, _ = catalog.gl32_induced_module(F2)
    green = vertex.green_vertex(M)
    assert len(green.sources) == 2
    assert _source_signatures(green.sources) == _reference_source_signatures(
        M, green.vertex
    )
    Z, W = (s.module for s in green.sources)
    assert rep.module_iso(W, rep.dual(Z)) is not None


def test_the_gl32_pim_probe_is_projective_of_case_II():
    # GL(3,2):2's 32-dim PIM over GF(2), the module of CI's memory probe:
    # projective, so E_1(M) is all of End_k(M), 32^2 matrices of 32 x 32,
    # and its symmetric vertex has order 2; the form hash pins the bytes
    G = catalog.suite_group("GL(3,2):2")
    M = rep.load_module(str(Path(__file__).parent / "data" / "gl32_2-pim2.json"), G)
    r = vertex.classify_case(M)
    assert M.dim == 32 and r.green.vertex.order == 1 and r.case == "II"
    assert vertex.report_to_dict(r)["symmetric_vertices"] == [
        {"order": 2, "generators": [77], "form_hash": "71a12faf4be8a30e"}
    ]


@pytest.mark.parametrize("m", [1, 2])
def test_source_follows_the_unit_trace_whichever_component_comes_first(
    monkeypatch, m
):
    # Res_V M = k + k + kV for the permutation module of S4 and |V| = 2, and
    # kV is no source; with the components of Res_V M in reverse order, kV
    # comes first, and the source must still be the first component with a
    # unit trace, never kV
    M = rep.permutation_module(S4, make_field(m))
    decompose = rep.decompose

    def reversed_decompose(*args, **kwargs):
        cert = decompose(*args, **kwargs)
        cert.components.reverse()
        return cert

    monkeypatch.setattr(rep, "decompose", reversed_decompose)
    green = vertex.green_vertex(M)
    V = green.vertex
    res = rep.restrict(M, V)
    E = rep.end_algebra(res, basis=green.cert.endo_basis)
    assert V.order == 2
    assert [c.module.dim for c in rep.decompose(res, endo=E).components] == [2, 1, 1]
    Z = green.sources[0].module
    assert Z.dim == 1 and vertex.is_summand(M, rep.induce(Z, V)[0])
    # an alpha whose trace is no unit certifies nothing
    is_projective = vertex.is_projective

    def zero_alpha(M, H):
        cert = is_projective(M, H)
        if cert.projective:
            cert.alpha = 0 * cert.alpha
        return cert

    monkeypatch.setattr(vertex, "is_projective", zero_alpha)
    green = vertex.green_vertex(M)
    with pytest.raises(AssertionError, match="unit trace"):
        green.sources  # computed on first read


def _higman_alpha(M, H):
    """The full Higman solve: an alpha in E_H(M) with tr_H^G(alpha) the
    identity, from the traces of a basis of E_H(M); None when there is none."""
    basis = _endo_over(M, H)
    if not basis:
        return None
    traces = vertex.rel_trace_batch(M, basis, H)
    A = np.array([t.ravel() for t in traces]).T
    x, _ = linalg.solve(M.F, A, np.eye(M.dim, dtype=np.int64).ravel())
    return None if x is None else linalg.combine(M.F, x, basis)


def test_dimension_bound_rejects_only_what_higman_rejects():
    # is_projective says no without a solve when |G:H|_2 does not divide
    # dim M; the reference solve must agree, and the ascent over all classes
    # must stop at the same vertex with the same alpha
    specht = catalog.s5_specht_irreducible(make_field(2)).irreducible
    mods = [specht]
    for name in ("C2", "V4", "S3", "D12", "A4", "S4", "SL(2,3)", "C3:C4"):
        G = catalog.suite_group(name)
        mods += _one_per_class(G, F2) + [rep.permutation_module(G, F2)]
    rejected = 0
    for M in mods:
        G = M.group
        classes = sorted(G.two_subgroups_up_to_conjugacy(), key=lambda s: s.order)
        for H in classes:
            index = G.order // H.order
            if M.dim % (index & -index):
                assert not vertex.is_projective(M, H).projective
                assert _higman_alpha(M, H) is None
                rejected += 1
        if not rep.is_indecomposable(M):
            continue
        V, alpha = next((H, a) for H in classes
                        if (a := _higman_alpha(M, H)) is not None)
        green = vertex.green_vertex(M)
        assert green.vertex.elements == V.elements
        assert (green.cert.alpha == alpha).all()
    assert rejected > 0


def _first_unit_by_tracing_all(M, fs, H):
    """The reference for `vertex.first_unit`: every f traced, and each
    trace tested for invertibility."""
    traces = vertex.rel_trace_batch(M, fs, H) if fs else []
    return next((i for i, t in enumerate(traces) if linalg.is_invertible(M.F, t)),
                None)


def _orth_summand_by_tracing_all(M, base, Z, BZ, V):
    """The reference case-I witness: every theta_ij traced, in the order
    `vertex._is_orth_summand_of_induced` takes them."""
    F = M.F
    downs = rep.hom_space(rep.restrict(M, V), Z)
    Pinv = linalg.inverse(F, base.gram)

    def end(i, j):  # P^-1 b_i^T B0 b_j
        return mat_mul(F, Pinv, mat_mul(F, downs[i].T, mat_mul(F, BZ.gram, downs[j])))

    pairs = [(i, i) for i in range(len(downs))]
    pairs += list(itertools.combinations(range(len(downs)), 2))
    for i, j in pairs:
        theta = vertex.rel_trace(M, end(i, i) if i == j else end(i, j) ^ end(j, i), V)
        if linalg.is_invertible(F, theta):
            return downs[i] if i == j else downs[i] ^ downs[j]
    return None


def _dual_trace_modules(name):
    """One module per class: the trivial module, the regular and
    permutation components, and the irreducibles (2-dim ones over GF(2)
    with E/J = GF(4) among them)."""
    G = catalog.suite_group(name)
    mods = _one_per_class(G, F2)
    for S in rep.irreducible_modules(G, F2):
        if all(rep.module_iso(S, X) is None for X in mods if X.dim == S.dim):
            mods.append(S)
    return mods


@pytest.mark.parametrize("name", ["C2", "V4", "S3", "D12", "A4", "S4", "SL(2,3)",
                                  "C3:C4"])
def test_dual_trace_matches_tracing_every_basis_element(name):
    # over every module class and 2-subgroup class: the first basis element
    # with a unit trace, the projectivity verdict with tr(alpha) = 1, the
    # symmetric one with its theta, and the case-I witness all equal the
    # route that traces every basis element
    G = catalog.suite_group(name)
    extension = 0
    for M in _dual_trace_modules(name):
        extension += len(M.unit_map.L) > 1
        base = forms.base_form(M)
        one = np.eye(M.dim, dtype=np.int64)
        for H in G.two_subgroups_up_to_conjugacy():
            basis = _endo_over(M, H)
            i = _first_unit_by_tracing_all(M, basis, H)
            assert vertex.first_unit(M, basis, H) == i
            cert = vertex.is_projective(M, H)
            assert cert.projective == (i is not None)
            if cert.projective:
                assert (vertex.rel_trace(M, cert.alpha, H) == one).all()
            if base is None:
                continue
            fixed = vertex.sigma_fixed_basis(M, forms.Adjoint(base), H)
            j = _first_unit_by_tracing_all(M, fixed, H)
            c = vertex.is_sym_projective(M, H, base)
            assert c.projective == (j is not None)
            if c.projective:
                assert (c.alpha == fixed[j]).all()
                assert (c.theta == vertex.rel_trace(M, fixed[j], H)).all()
        green = vertex.green_vertex(M)
        src = green.sources[0]
        if base is None or not src.symmetric_type:
            continue
        args = (M, base, src.module, src.form, green.vertex)
        want = _orth_summand_by_tracing_all(*args)
        got = vertex._is_orth_summand_of_induced(*args)
        assert (got is None) == (want is None)
        assert got is None or (got == want).all()
    assert extension or name not in ("A4", "SL(2,3)")  # E/J = GF(4), s = 2


def test_is_projective_routes_by_the_local_quotient(monkeypatch):
    # a decomposable module (no local quotient) is decided by the solve on
    # every trace, an indecomposable one by one dual trace and no solve
    solves = []
    solve = linalg.solve
    monkeypatch.setattr(linalg, "solve", lambda *a, **k: solves.append(1) or solve(*a, **k))
    perm = rep.permutation_module(S3, F2)  # k + D
    cert = vertex.is_projective(perm, S3.sylow2())
    assert cert.projective and solves == [1]
    assert (vertex.rel_trace(perm, cert.alpha, S3.sylow2()) == np.eye(3)).all()
    cert = vertex.is_projective(two_dim_simple(S3), S3.trivial_subgroup())
    assert cert.projective and solves == [1]
    with pytest.raises(ValueError, match="decomposable"):
        vertex.green_vertex(perm)


def _symmetric_gf2_modules():
    """Small catalogue modules over GF(2) with a nondegenerate symmetric
    form."""
    return [
        M
        for name in ("S3", "D12", "A4", "S4")
        for M in _one_per_class(catalog.suite_group(name), F2)
        if forms.base_form(M) is not None
    ]


def test_case_I_by_reciprocity_matches_orthogonal_decomposition():
    # the reference builds Ind_V^G Z with its induced form and looks for M
    # among the indecomposable pieces of an orthogonal decomposition
    verdicts = []
    specht = catalog.s5_specht_irreducible(make_field(2)).irreducible
    for M in _symmetric_gf2_modules() + [specht]:
        F, G = M.F, M.group
        base = forms.base_form(M)
        green = vertex.green_vertex(M)
        src, V = green.sources[0], green.vertex
        if not (src.self_dual and src.symmetric_type):
            continue
        ind, indB, trans = forms.induce_form(src.form, V)
        want = any(
            p.kind == "indecomposable"
            and rep.module_iso(p.modules[0], M) is not None
            for p in forms.orth_decompose(indB)
        )
        b = vertex._is_orth_summand_of_induced(M, base, src.module, src.form, V)
        assert (b is not None) == want
        verdicts.append(want)
        if b is None:
            continue
        # the witness phi_b(m) = sum over t of t (x) b(t^-1 m) is a G-map
        # into Ind_V^G Z that pulls the induced form back nondegenerately
        phi = np.concatenate(
            [mat_mul(F, b, M.action(G.inverse(t))) for t in trans]
        )
        for A, Ai in zip(M.gen_matrices, ind.gen_matrices):
            assert (mat_mul(F, phi, A) == mat_mul(F, Ai, phi)).all()
        assert linalg.is_invertible(F, mat_mul(F, phi.T, mat_mul(F, indB.gram, phi)))
    assert set(verdicts) == {True, False}
    assert verdicts[-1]  # the S5 Specht module is the paper's case-I example


def test_orth_summand_criterion_uses_the_cross_terms(monkeypatch):
    # over A4's Sylow subgroup V, take Z = k + k with the identity form; on
    # the 2-dim simple module M, b -> tr_V^G(P^-1 b^T B0 b) is then a sum of
    # two anisotropic forms, so Hom_V(Res M, Z) has a basis of b with no
    # unit value, where only the cross terms theta_ij find the units
    A4 = catalog.suite_group("A4")
    M, V = two_dim_simple(A4), A4.sylow2()
    base = forms.base_form(M)
    k = rep.trivial_module(rep.subgroup_table(V)[0], F2)
    Z = rep.direct_sum([k, k])
    BZ = forms.GForm(Z, np.eye(2, dtype=np.int64))
    assert BZ.is_invariant()
    Pinv = linalg.inverse(F2, base.gram)

    def unit(b):
        q = mat_mul(F2, Pinv, mat_mul(F2, b.T, mat_mul(F2, BZ.gram, b)))
        return linalg.is_invertible(F2, vertex.rel_trace(M, q, V))

    downs = rep.hom_space(rep.restrict(M, V), Z)
    span = [linalg.combine(F2, np.array(c), downs)
            for c in itertools.product(range(2), repeat=len(downs)) if any(c)]
    seen = linalg.Echelon(F2, M.dim * Z.dim)
    isotropic = [b for b in span if not unit(b) and seen.insert(b.ravel())]
    assert len(isotropic) == len(downs) and any(unit(b) for b in span)
    assert M.unit_map is not None  # read before hom_space is patched
    monkeypatch.setattr(rep, "hom_space", lambda *args, **kwargs: isotropic)
    b = vertex._is_orth_summand_of_induced(M, base, Z, BZ, V)
    assert b is not None and unit(b)


@pytest.fixture(scope="module")
def case_references():
    return [(M, _case_invariants(vertex.classify_case(M, check_principal=False)))
            for M in _symmetric_gf2_modules()]


def _case_invariants(r):
    return (r.case, r.green.vertex.order,
            sorted(t.subgroup.order for t in r.sym_vertices),
            len(r.green.sources), _source_signatures(r.green.sources))


@settings(max_examples=30, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_case_and_vertex_orders_do_not_depend_on_the_seed(
    case_references, data, seed
):
    # nor on the basis: the same module after a change of basis drawn from
    # the seed gives the same case, vertex orders and sources
    M, want = data.draw(st.sampled_from(case_references))
    r = vertex.classify_case(conjugated(M, random.Random(seed)), check_principal=False)
    assert _case_invariants(r) == want
