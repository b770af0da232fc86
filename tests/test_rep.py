"""Modules: construction, induction/restriction, decomposition, duality."""

import functools
import gc
import itertools
import json
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symvert import catalog, linalg, polys, rep
from symvert.field import make_field
from symvert.group import GroupTable, from_permutations

F2 = make_field(1)
F4 = make_field(2)
S3 = catalog.suite_group("S3")
S4 = catalog.suite_group("S4")
A4 = catalog.suite_group("A4")
V4 = catalog.suite_group("V4")


def sylow_sub(G):
    return G.sylow2()


def test_regular_module_is_faithful_action():
    M = rep.regular_module(S3, F2)
    assert M.dim == 6
    for g in range(1, S3.order):
        assert (M.action(g) != np.eye(6, dtype=np.int64)).any()
    # rho(gh) = rho(g) rho(h)
    for a in range(6):
        for b in range(6):
            lhs = linalg.mat_mul(F2, M.action(a), M.action(b))
            assert (lhs == M.action(S3.mul(a, b))).all()


def test_permutation_module_column_sums():
    M = rep.permutation_module(S4, F2)
    assert M.dim == 4
    for g in range(S4.order):
        A = M.action(g)
        assert (A.sum(axis=0) == 1).all() and (A.sum(axis=1) == 1).all()


def test_irreducible_dims():
    # simple modules modulo 2 factor through G/O_2(G)
    assert sorted(m.dim for m in rep.irreducible_modules(S3, F2)) == [1, 2]
    assert sorted(m.dim for m in rep.irreducible_modules(S4, F2)) == [1, 2]
    assert sorted(m.dim for m in rep.irreducible_modules(A4, F2)) == [1, 2]
    assert sorted(m.dim for m in rep.irreducible_modules(A4, F4)) == [1, 1, 1]
    assert sorted(m.dim for m in rep.irreducible_modules(V4, F2)) == [1]


def test_radical_dims():
    # dim J(kG) = |G| - sum (dim S)^2 * [End(S):k]^-1 ... frozen directly:
    assert rep.group_algebra_radical(S3, F2).dim == 1
    assert rep.group_algebra_radical(V4, F2).dim == 3
    # kA4/J over GF(2) is GF(2) x GF(4): the 2-dim simple has GF(4) endomorphisms
    assert rep.group_algebra_radical(A4, F2).dim == 12 - 1 - 2


def test_decompose_regular_s3():
    M = rep.regular_module(S3, F2)
    cert = rep.decompose(M)
    dims = sorted(c.module.dim for c in cert.components)
    assert dims == [2, 2, 2]  # P(k) and two copies of the projective simple
    assert sorted(cert.multiplicities) == [1, 2]
    # components span and idempotents are orthogonal projections summing to 1
    total = np.zeros((6, 6), dtype=np.int64)
    for c in cert.components:
        e = c.idempotent
        assert (linalg.mat_mul(F2, e, e) == e).all()
        total ^= e
    assert (total == np.eye(6, dtype=np.int64)).all()


def count_chop_dims(monkeypatch) -> list[int]:
    """Record the dimension of every `rep.chop`; fail on the irreducible
    route to J(kG), which `pims` reads off its own decomposition instead."""
    dims, real_chop = [], rep.chop

    def chop(F, gens, dim, seed=0):
        dims.append(dim)
        return real_chop(F, gens, dim, seed=seed)

    monkeypatch.setattr(rep, "chop", chop)
    for name in ("group_algebra_radical", "irreducible_modules"):
        monkeypatch.setattr(rep, name, lambda *a, name=name, **k: pytest.fail(name))
    return dims


def test_pims_s3(monkeypatch):
    dims = count_chop_dims(monkeypatch)
    ps = rep.pims(S3, F2)
    got = sorted((p.pim.dim, p.head.dim, p.multiplicity) for p in ps)
    assert got == [(2, 1, 1), (2, 2, 2)]
    assert sum(p.pim.dim * p.multiplicity for p in ps) == 6
    assert dims.count(S3.order) == 1  # kG is chopped once


def test_pims_s4(monkeypatch):
    dims = count_chop_dims(monkeypatch)
    ps = rep.pims(S4, F2)
    got = sorted((p.pim.dim, p.head.dim, p.multiplicity) for p in ps)
    assert got == [(8, 1, 1), (8, 2, 2)]
    assert dims.count(S4.order) == 1


SMALL_GROUPS = [n for n in catalog.SUITE_NAMES if catalog.suite_group(n).order <= 24]


@pytest.mark.parametrize("F", [F2, F4], ids=["GF2", "GF4"])
@pytest.mark.parametrize("name", SMALL_GROUPS)
def test_pims_heads_from_decomposition_radical(name, F):
    G = catalog.suite_group(name)
    J = rep.group_algebra_radical(G, F)
    # J(kG) is column 0 of the radical the regular decomposition splits modulo
    M = rep.regular_module(G, F)
    cert = rep.decompose(M, endo=rep.regular_end_algebra(G, F, M))
    col0 = np.array([r[:, 0] for r in cert.radical]).reshape(-1, G.order)
    assert linalg.Subspace(F, G.order, col0) == J
    # reference heads: P / J.P from every left multiplication by a basis of J
    Jmats = [rep.left_mult_matrix(G, v) for v in J.basis]
    for seed in (0, 20240401):
        for p in rep.pims(G, F, seed=seed):
            c = p.component
            imgs = [
                linalg.mat_mul(F, c.proj, linalg.mat_mul(F, L, c.incl)).T
                for L in Jmats
            ]
            radP = linalg.Subspace(
                F, c.module.dim, np.concatenate(imgs) if imgs else None
            )
            head, _ = rep.quotient_module(c.module, radP)
            assert head.dim == p.head.dim, (name, seed)
            for A, B in zip(head.gen_matrices, p.head.gen_matrices):
                assert (A == B).all(), (name, seed)


def test_induce_restrict_dims_and_mackey_size():
    H = sylow_sub(S3)
    L = rep.trivial_module(rep.subgroup_table(H)[0], F2)
    ind, T = rep.induce(L, H)
    assert ind.dim == (S3.order // H.order) * L.dim == 3
    res = rep.restrict(ind, H)
    assert res.dim == 3


def test_induction_respects_group_law():
    H = sylow_sub(S4)
    Ht, _ = rep.subgroup_table(H)
    L = rep.regular_module(Ht, F2)
    ind, _ = rep.induce(L, H)
    assert ind.dim == 24
    for a in S4.generators:
        for b in S4.generators:
            lhs = linalg.mat_mul(F2, ind.action(a), ind.action(b))
            assert (lhs == ind.action(S4.mul(a, b))).all()


def test_induced_regular_is_regular():
    H = sylow_sub(S3)
    Ht, _ = rep.subgroup_table(H)
    ind, _ = rep.induce(rep.regular_module(Ht, F2), H)
    assert rep.module_iso(ind, rep.regular_module(S3, F2)) is not None


def test_subgroup_table_cache_is_per_group():
    # a freed group's cached tables must never surface for a new group that
    # reuses its id: alternate C4 and V4 tables, freeing each in turn
    idx = np.arange(4)
    c4 = (idx[:, None] + idx[None, :]) % 4
    v4 = idx[:, None] ^ idx[None, :]
    for _ in range(50):
        for table, gens in ((c4, [1]), (v4, [1, 2])):
            G = GroupTable(table, gens)
            assert (rep.subgroup_table(G.full_subgroup())[0].mult == G.mult).all()
            del G
            gc.collect()


def test_sub_and_quotient_module():
    M = rep.permutation_module(S3, F2)
    ones = np.ones((1, 3), dtype=np.int64)
    S = linalg.Subspace(F2, 3, ones)
    sub, incl, proj = rep.sub_module(M, S)
    assert sub.dim == 1
    assert (linalg.mat_mul(F2, proj, incl) == np.eye(1, dtype=np.int64)).all()
    quo, qproj = rep.quotient_module(M, S)
    assert quo.dim == 2
    # the projection intertwines the actions
    for g in S3.generators:
        lhs = linalg.mat_mul(F2, qproj, M.action(g))
        rhs = linalg.mat_mul(F2, quo.action(g), qproj)
        assert (lhs == rhs).all()


def test_hom_space_frobenius_reciprocity():
    # dim Hom_G(Ind_H k, M) = dim Hom_H(k, Res_H M)
    H = sylow_sub(S4)
    Ht, _ = rep.subgroup_table(H)
    k_H = rep.trivial_module(Ht, F2)
    ind, _ = rep.induce(k_H, H)
    M = rep.permutation_module(S4, F2)
    lhs = len(rep.hom_space(ind, M))
    rhs = len(rep.hom_space(k_H, rep.restrict(M, H)))
    assert lhs == rhs


def test_hom_space_streaming_path_matches_small_path():
    # three copies of the regular module crosses the bit-packed threshold
    M3 = rep.direct_sum([rep.regular_module(S4, F2)] * 3)
    assert M3.dim * M3.dim >= 4096
    basis = rep.hom_space(M3, M3)
    assert len(basis) == 9 * S4.order  # End(kG^3) = M_3(End(kG))
    for X in basis[:5]:
        for g in S4.generators:
            lhs = linalg.mat_mul(F2, X, M3.action(g))
            rhs = linalg.mat_mul(F2, M3.action(g), X)
            assert (lhs == rhs).all()


def kron_hom_reference(M, N, H):
    """Hom_H(M, N) as the null space of the dense Kronecker system on the
    row-major vec(X), one block per element of H (all of G's generators
    when H is None)."""
    F = M.F
    dm, dn = M.dim, N.dim
    elems = M.group.generators if H is None else H.elements
    blocks = [linalg.zeros(0, dn * dm)]
    for x in elems:
        # X A_M(x) = A_N(x) X
        blocks.append(
            linalg.kron(F, np.eye(dn, dtype=np.int64), M.action(x).T)
            ^ linalg.kron(F, N.action(x), np.eye(dm, dtype=np.int64))
        )
    ker = linalg.kernel(F, np.concatenate(blocks, axis=0))
    return [v.reshape(dn, dm) for v in ker]


@functools.lru_cache(maxsize=None)
def module_pool(name, m):
    G, F = catalog.suite_group(name), make_field(m)
    return [
        rep.trivial_module(G, F),
        rep.regular_module(G, F),
        rep.permutation_module(G, F),
        *rep.irreducible_modules(G, F),
    ]


@st.composite
def hom_cases(draw):
    name = draw(st.sampled_from(["S3", "V4", "A4"]))
    m = draw(st.sampled_from([1, 2]))
    G, pool = catalog.suite_group(name), module_pool(name, m)
    sums = st.lists(st.sampled_from(pool), min_size=1, max_size=3).filter(
        lambda ms: sum(x.dim for x in ms) <= 12
    )
    M = rep.direct_sum(draw(sums))
    N = rep.direct_sum(draw(sums))
    x = draw(st.integers(1, G.order - 1))
    H = draw(
        st.sampled_from(
            [None, G.trivial_subgroup(), G.closure([x]), G.sylow2()]
        )
    )
    return M, N, H


@settings(max_examples=60, deadline=None)
@given(hom_cases())
def test_hom_space_matches_kronecker_reference(case):
    M, N, H = case
    got = rep.hom_space(M, N, H)
    want = kron_hom_reference(M, N, H)
    assert len(got) == len(want)
    for X, Y in zip(got, want):
        assert X.shape == (N.dim, M.dim)
        assert (X == Y).all()


def spin_reference(F, vecs, gens):
    """The spin one vector at a time: each queued vector goes into an
    Echelon, and its images are queued when the dimension grew."""
    ech = linalg.Echelon(F, vecs.shape[1])
    queue = list(vecs)
    while queue:
        if ech.insert(queue.pop(0)):
            queue += [linalg.mat_vec(F, A, ech.rows[-1]) for A in gens]
    return linalg.Subspace(F, vecs.shape[1], np.array(ech.rows))


@st.composite
def spin_cases(draw):
    name = draw(st.sampled_from(["S3", "V4", "A4"]))
    m = draw(st.sampled_from([1, 2]))
    mods = st.lists(st.sampled_from(module_pool(name, m)), min_size=1,
                    max_size=3).filter(lambda ms: sum(x.dim for x in ms) <= 12)
    M = rep.direct_sum(draw(mods))
    kind = draw(st.sampled_from(["none", "one", "few", "endo"]))
    if kind == "endo":  # the whole basis of E, as EndoAlgebra spins it
        gens = rep.end_algebra(M).basis
    else:
        gens = {"none": [], "one": M.gen_matrices[:1], "few": M.gen_matrices}[kind]
    q, d = 1 << m, M.dim
    rows = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=d, max_size=d),
                         min_size=1, max_size=4))
    seeds = np.array(rows, dtype=np.int64).reshape(-1, d)
    extra = draw(st.sampled_from(["none", "zero", "spanning"]))
    if extra == "zero":
        seeds = np.concatenate([linalg.zeros(1, d), seeds, linalg.zeros(1, d)])
    elif extra == "spanning":
        seeds = np.concatenate([seeds, np.eye(d, dtype=np.int64)])
    return M.F, seeds, gens


@settings(max_examples=80, deadline=None)
@given(spin_cases())
def test_spin_matches_one_vector_at_a_time(case):
    F, seeds, gens = case
    got = rep.spin(F, seeds, gens)
    want = spin_reference(F, seeds, gens)
    assert got.pivots == want.pivots
    assert got.basis.shape == want.basis.shape
    assert (got.basis == want.basis).all()


def test_validation_checks_every_cayley_graph_edge():
    # two involutions that do not commute: the breadth-first tree reaches
    # ab through a then b, and the relation ba = ab fails off the tree
    a = np.array([[1, 1], [0, 1]], dtype=np.int64)
    b = np.array([[1, 0], [1, 1]], dtype=np.int64)
    with pytest.raises(ValueError, match="group relations"):
        rep.ModuleRep(V4, F2, [a, b])
    rep.ModuleRep(V4, F2, [a, a])
    # a repeated generator never enters the breadth-first action, so only
    # its Cayley-graph edges can see that its two matrices differ
    G = from_permutations(3, [[2, 3, 1], [2, 1, 3], [2, 3, 1]])
    P = rep.permutation_module(G, F2).gen_matrices
    with pytest.raises(ValueError, match="group relations"):
        rep.ModuleRep(G, F2, [P[0], P[1], P[1]])
    for M in (rep.regular_module(S4, F4), rep.permutation_module(A4, F2)):
        rep.ModuleRep(M.group, M.F, M.gen_matrices)


def test_end_dim_of_regular_module_is_group_order():
    for G in (S3, V4):
        M = rep.regular_module(G, F2)
        assert len(rep.hom_space(M, M)) == G.order


def test_dual_and_selfdual():
    for m in rep.irreducible_modules(S3, F2):
        assert rep.is_selfdual(m)
    M = rep.permutation_module(S3, F2)
    D = rep.dual(M)
    assert rep.module_iso(M, D) is not None
    # duality reverses and inverts the action
    for g in S3.generators:
        lhs = D.action(g)
        rhs = M.action_inv(g).T
        assert (lhs == rhs).all()


def test_dual_not_selfdual_example():
    # the two nontrivial 1-dim modules of A4 over GF(4) are swapped by duality
    ones = [m for m in rep.irreducible_modules(A4, F4) if m.dim == 1]
    nontriv = [m for m in ones if any(a[0, 0] != 1 for a in m.gen_matrices)]
    assert len(nontriv) == 2
    a, b = nontriv
    assert not rep.is_selfdual(a)
    assert rep.module_iso(rep.dual(a), b) is not None


def test_module_iso_transport():
    M = rep.permutation_module(S3, F2)
    # conjugated copy
    P = np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1]], dtype=np.int64)
    Pi = linalg.inverse(F2, P)
    mats = [
        linalg.mat_mul(F2, linalg.mat_mul(F2, Pi, M.action(g)), P)
        for g in S3.generators
    ]
    N = rep.ModuleRep(S3, F2, mats)
    phi = rep.module_iso(M, N)
    assert phi is not None
    for g in S3.generators:
        lhs = linalg.mat_mul(F2, phi, N.action(g))
        rhs = linalg.mat_mul(F2, M.action(g), phi)
        assert (lhs == rhs).all()


def test_is_indecomposable():
    assert rep.is_indecomposable(rep.trivial_module(S3, F2))
    assert not rep.is_indecomposable(rep.regular_module(S3, F2))
    # indecomposable with a residue field larger than the base field:
    # the restriction of the 4-dim S5 irreducible to a Klein four subgroup
    sd = catalog.s5_specht_irreducible(F2)
    G = sd.group
    V = [H for H in G.two_subgroups_up_to_conjugacy() if H.order == 4]
    hit = False
    for H in V:
        R = rep.restrict(sd.irreducible, H)
        if rep.is_indecomposable(R):
            hit = True
    assert hit


def test_module_serialization_round_trip(tmp_path):
    M = [m for m in rep.irreducible_modules(S3, F2) if m.dim == 2][0]
    d = rep.module_to_dict(M)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(d))
    M2 = rep.load_module(str(path), S3)
    assert M2.dim == 2 and M2.F == F2
    for g in S3.generators:
        assert (M2.action(g) == M.action(g)).all()


def test_lift_idempotent():
    # a = e + n with n in a nil ideal; a^(2^s) recovers an idempotent
    e = np.array([[1, 0], [0, 0]], dtype=np.int64)
    n = np.array([[0, 1], [0, 0]], dtype=np.int64)
    a = e ^ n
    s = rep.idempotent_power_exponent(2)
    out = rep.lift_idempotent(F2, a, s)
    assert (linalg.mat_mul(F2, out, out) == out).all()
    assert linalg.is_nilpotent(F2, out ^ a)


def _corner_modules():
    for F in (F2, F4):
        for name in ("S3", "A4", "D12", "C3:C4", "S4", "SL(2,3)"):
            G = catalog.suite_group(name)
            yield f"{name}-regular-gf{F.q}", rep.regular_module(G, F)
        for name in ("S4", "S5"):
            G = catalog.suite_group(name)
            yield f"{name}-perm-gf{F.q}", rep.permutation_module(G, F)
        yield f"D12-pim-gf{F.q}", catalog.d12_pim(F)[0]
    yield "GL(3,2):2-induced-gf2", catalog.gl32_induced_module(F2)[0]


@pytest.mark.parametrize("seed", [0, 20240401])
def test_compressed_radical_is_the_corner_radical(seed):
    # J(eEe) = e J(E) e: decompose compresses J(E) instead of re-chopping
    split = 0
    for label, M in _corner_modules():
        assert M.dim <= 24
        F = M.F
        E = rep.end_algebra(M)
        J = rep.radical(E, seed)
        e = rep._split_once(E, J, seed)
        if e is None:
            continue
        split += 1
        for part in (e, e ^ linalg.eye(M.dim)):
            comp, incl, proj = rep.sub_module(M, linalg.col_space(F, part))
            basis = rep._compress_corner(F, E.basis, part, incl, proj)
            Ec = rep.EndoAlgebra(comp, basis)
            Jc = rep._compress_corner(F, J, part, incl, proj)
            n2 = comp.dim**2
            got, want = (
                linalg.Subspace(F, n2, np.array([x.ravel() for x in X]))
                for X in (Jc, rep.radical(Ec, seed + 1))
            )
            assert got == want, label
    assert split >= 10


def test_decompose_frees_its_recursion_without_gc():
    # the recursive helper refers to itself; were that cycle left in place,
    # the components would live on until the next full collection
    gc.disable()
    try:
        cert = rep.decompose(rep.regular_module(S3, F2))
        ref = weakref.ref(cert.components[0].idempotent)
        del cert
        assert ref() is None
    finally:
        gc.enable()


def _split_cases():
    SL23 = catalog.suite_group("SL(2,3)")
    # E/J is GF(2) x GF(4), GF(2) x M_2(GF(2)) for S3 and GF(4) x M_2(GF(4))
    # for S4: some L_a on E/J have no cyclic vector
    yield "SL(2,3)-regular-gf2", rep.regular_module(SL23, F2)
    yield "S3-regular-gf2", rep.regular_module(S3, F2)
    # E/J = GF(4): the candidates end on the deg(mu) == r certificate
    irr = [M for M in rep.irreducible_modules(SL23, F2) if M.dim == 2]
    yield "SL(2,3)-irreducible-gf2", irr[0]
    yield "S4-regular-gf4", rep.regular_module(S4, F4)


@pytest.mark.parametrize("label, M", list(_split_cases()))
def test_quotient_min_poly_matches_left_multiplication(label, M, monkeypatch):
    F, seed = M.F, 3
    E = rep.end_algebra(M)
    J = rep.radical(E, seed)
    lifts, quo_coords = rep.semisimple_quotient(E, J)
    r = len(lifts)
    draws = linalg.coefficient_vectors(F.q, r, random.Random(seed), 0, 400 - r)
    cands = itertools.chain(lifts, (linalg.combine(F, c, lifts) for c in draws))
    degrees = set()
    for a in itertools.islice(cands, 20):
        # reference: the matrix of left multiplication by a on E/J
        La = np.array([quo_coords(linalg.mat_mul(F, a, b)) for b in lifts]).T
        mu = linalg.min_poly(F, a, quo_coords)
        assert mu == linalg.min_poly(F, La), label
        degrees.add(polys.deg(mu))
    assert min(degrees) < r, label  # some La is not cyclic
    # one min_poly call per attempt; polys.factor is seeded seed + attempt
    calls, attempts = [], []
    real_min_poly, real_factor = linalg.min_poly, polys.factor
    monkeypatch.setattr(
        linalg, "min_poly", lambda *a: calls.append(1) or real_min_poly(*a)
    )
    monkeypatch.setattr(
        polys,
        "factor",
        lambda *a, seed: attempts.append(seed) or real_factor(*a, seed=seed),
    )
    e = rep._split_once(E, J, seed)
    assert attempts == list(range(seed, seed + len(attempts)))
    assert len(calls) == len(attempts) >= 1
    assert (e is None) == (label == "SL(2,3)-irreducible-gf2")
