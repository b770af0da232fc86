"""Modules: construction, induction/restriction, decomposition, duality."""

import functools
import gc
import itertools
import json
import random
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symvert import blocks, catalog, linalg, polys, rep, vertex
from symvert.field import make_field
from symvert.group import (
    GroupTable,
    from_permutations,
    group_from_dict,
    load_group,
)

from conftest import (
    BRAUER_DEGREES,
    array_digest,
    compress_corner_by_echelon,
    conjugated_with_algebra,
    fresh_table,
    full_action_by_elements,
    hom_over_subgroup_reference,
    irreducibles_by_chop,
    iso_classes_by_module_iso,
    kg_radical_by_chop,
    pim_mismatches,
    read_back,
)

F2 = make_field(1)
F4 = make_field(2)
S3 = catalog.suite_group("S3")
S4 = catalog.suite_group("S4")
A4 = catalog.suite_group("A4")
V4 = catalog.suite_group("V4")
MODULE_FILES = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "modules"
# 0: a module in its own basis; otherwise the seed of a change of basis
BASES = [0, 20240401]


def in_basis(M, basis, endo=None):
    """(M, endo) as given at basis 0, else both moved along the change of
    basis drawn from random.Random(basis)."""
    if not basis:
        return M, endo
    return conjugated_with_algebra(M, endo, random.Random(basis))


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


def action_cases():
    # kG of GL(3,2):2 would hold 336^3 entries twice over
    for name, m in itertools.product(catalog.SUITE_NAMES, (1, 2)):
        yield name, m, "perm"
        if catalog.suite_group(name).order <= 120:
            yield name, m, "regular"


@pytest.mark.parametrize("name, m, kind", list(action_cases()))
def test_full_action_matches_the_element_reference(name, m, kind):
    G, F = catalog.suite_group(name), make_field(m)
    build = rep.permutation_module if kind == "perm" else rep.regular_module
    M = build(G, F)
    acts, want = M.full_action(), full_action_by_elements(M)
    assert acts.shape == (G.order, M.dim, M.dim) and acts.dtype == np.int64
    for x in range(G.order):
        assert acts[x].tobytes() == want[x].tobytes()
        assert M.action(x).tobytes() == want[x].tobytes()
        assert M.action_inv(x).tobytes() == want[G.inverse(x)].tobytes()


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("name", catalog.SUITE_NAMES)
def test_irreducibles_carry_their_stored_action(name, m):
    # each irreducible's whole-group action is its slice of the stored
    # matrix, set when the module is read back, read-only, and equal to the
    # action built element by element
    G, F = catalog.suite_group(name), make_field(m)
    for S in rep.irreducible_modules(G, F):
        acts = S._action
        assert acts is not None and S.full_action() is acts
        want = full_action_by_elements(S)
        assert all(acts[x].tobytes() == want[x].tobytes() for x in range(G.order))
        with pytest.raises(ValueError, match="read-only"):
            acts[0, 0, 0] ^= 1


def test_full_action_is_read_only():
    M = rep.regular_module(S3, F2)
    for view in (M.action(1), M.action_inv(1), M.full_action()):
        with pytest.raises(ValueError, match="read-only"):
            view[0, 0] ^= 1
    assert (M.action(0) == np.eye(6, dtype=np.int64)).all()


def test_checked_module_rejects_broken_actions():
    P = rep.permutation_module(S3, F2).gen_matrices
    with pytest.raises(ValueError, match="do not satisfy the group relations"):
        read_back(rep.ModuleRep(S3, F2, [P[0], P[0]]))  # the first matrix for both
    # a table whose generator list is cut to one of its generators
    for cut in ([S3.generators[0]], [S3.generators[1]]):
        G = GroupTable(S3.mult, S3.generators)
        G.generators = cut
        A = rep.regular_module(S3, F2).action(cut[0])
        with pytest.raises(ValueError, match="generators do not generate the group"):
            read_back(rep.ModuleRep(G, F2, [A]))


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
    # dim J(kG) = |G| - sum (dim S)^2 * [End(S):k]^-1 ... frozen directly,
    # J(kG) the kernel of the irreducibles' action matrix
    def dim_j(G, F):
        return len(linalg.kernel(F, rep._irreducible_actions(G, F)[0]))

    assert dim_j(S3, F2) == 1
    assert dim_j(V4, F2) == 3
    # kA4/J over GF(2) is GF(2) x GF(4): the 2-dim simple has GF(4) endomorphisms
    assert dim_j(A4, F2) == 12 - 1 - 2


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


def record_chop_dims(monkeypatch) -> list[int]:
    """Record the dimension of every `rep.chop`."""
    dims, real_chop = [], rep.chop

    def chop(F, gens, dim):
        dims.append(dim)
        return real_chop(F, gens, dim)

    monkeypatch.setattr(rep, "chop", chop)
    return dims


def forbid_decompositions(monkeypatch) -> list[int]:
    """`record_chop_dims`, failing on `decompose` and `regular_end_algebra`:
    on a splitting field, and wherever dim End(S) = dim S, `pims` lifts each
    idempotent off kG/J(kG) and decomposes nothing."""
    for name in ("decompose", "regular_end_algebra"):
        monkeypatch.setattr(rep, name, lambda *a, _name=name, **k: pytest.fail(_name))
    return record_chop_dims(monkeypatch)


def test_pims_s3(monkeypatch):
    dims = forbid_decompositions(monkeypatch)
    ps = rep.pims(S3, F2)
    got = [(p.pim.dim, p.head.dim, p.multiplicity) for p in ps]
    assert got == [(2, 1, 1), (2, 2, 2)]
    assert sum(p.pim.dim * p.multiplicity for p in ps) == 6
    assert dims.count(S3.order) == 0  # kG is never chopped


def test_pims_s4(monkeypatch):
    dims = forbid_decompositions(monkeypatch)
    ps = rep.pims(fresh_table(S4), F2)  # a fresh table runs the tensor closure
    got = [(p.pim.dim, p.head.dim, p.multiplicity) for p in ps]
    assert got == [(8, 1, 1), (8, 2, 2)]
    assert dims and dims.count(S4.order) == 0


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("name", catalog.SUITE_NAMES)
def test_pims_of_the_catalogue_decompose_nothing(monkeypatch, name, m):
    G, F = catalog.suite_group(name), make_field(m)
    forbid_decompositions(monkeypatch)
    ps = rep.pims(G, F)
    assert sum(p.pim.dim * p.multiplicity for p in ps) == G.order


PIM_GROUPS = [n for n in catalog.SUITE_NAMES if catalog.suite_group(n).order <= 120]


@pytest.mark.parametrize("F", [F2, F4], ids=["GF2", "GF4"])
@pytest.mark.parametrize("name", PIM_GROUPS)
def test_lifted_pims_match_the_decomposition_of_kG(name, F):
    # one to one under module_iso, heads and multiplicities included, with
    # the route through End(kG); Hom(P(S), T) is nonzero exactly for T = S
    G = catalog.suite_group(name)
    assert pim_mismatches(G, F) == []
    for p in rep.pims(G, F):
        for T in rep.irreducible_modules(G, F):
            covers = rep.module_iso(T, p.head) is not None
            assert bool(rep.hom_space(p.pim, T)) == covers, name


def test_pims_a5_split_the_block_of_a_non_split_head(monkeypatch):
    # over GF(2) A5's 4-dim irreducible with End = GF(4) is two Galois
    # conjugates of dim 2 over GF(4): kG.e = P(S)^2 for its block identity
    G = from_permutations(5, [[2, 3, 1, 4, 5], [1, 2, 4, 5, 3]])
    calls, real = [], rep.decompose
    monkeypatch.setattr(rep, "decompose", lambda M: calls.append(M.dim) or real(M))
    ps = rep.pims(G, F2)
    assert [(p.pim.dim, p.head.dim, p.multiplicity) for p in ps] == [
        (12, 1, 1), (4, 4, 4), (16, 4, 2)]
    assert calls == [32]
    for p in ps:
        e = p.idempotent
        assert (linalg.mat_vec(F2, rep.left_mult_matrix(G, e), e) == e).all()
        assert rep.is_indecomposable(p.pim)
    assert [len(rep.hom_space(p.head, p.head)) for p in ps] == [1, 1, 2]


def test_pims_s6_fill_kG():
    G = from_permutations(6, [[2, 1, 3, 4, 5, 6], [2, 3, 4, 5, 6, 1]])
    ps = rep.pims(G, F2)
    assert sum(p.pim.dim * p.multiplicity for p in ps) == 720
    assert sorted((p.pim.dim, p.head.dim) for p in ps) == [
        (16, 16), (48, 4), (48, 4), (80, 1)]


def _decompose_cases():
    """(module, endomorphism algebra) for three direct `decompose` calls:
    kG over `regular_end_algebra`, S4's permutation module over GF(4), and
    Res_V M over the basis of E_V(M) that `is_projective` solved, for the
    induced GL(3,2):2 module with two sources."""
    M = rep.regular_module(S4, F2)
    yield M, rep.regular_end_algebra(S4, F2, M)
    M = rep.permutation_module(S4, F4)
    yield M, rep.end_algebra(M)
    G = catalog.suite_group("GL(3,2):2")
    M = rep.load_module(str(MODULE_FILES / "gl32_2-induced-6.json"), G)
    green = vertex.green_vertex(M)  # reads M.unit_map, whose test uses the kernel
    res = rep.restrict(M, green.vertex)
    yield res, rep.end_algebra(res, basis=green.cert.endo_basis)


def test_decompose_builds_no_radical(monkeypatch):
    # decompose splits through the quotient map alone: its kernel, J(E),
    # is never read back as matrices
    cases = list(_decompose_cases())
    monkeypatch.setattr(
        rep.Semisimple, "kernel", lambda *a, **k: pytest.fail("Semisimple.kernel")
    )
    for M, E in cases:
        cert = rep.decompose(M, endo=E)
        assert cert.verify()


SMALL_GROUPS = [n for n in catalog.SUITE_NAMES if catalog.suite_group(n).order <= 24]


@pytest.mark.parametrize("F", [F2, F4], ids=["GF2", "GF4"])
@pytest.mark.parametrize("name", SMALL_GROUPS)
def test_pims_heads_from_decomposition_radical(name, F):
    G = catalog.suite_group(name)
    J = kg_radical_by_chop(G, F)
    # the J(kG) of the tensor closure's action matrix is the reference's
    A = rep._irreducible_actions(G, F)[0]
    assert linalg.Subspace(F, G.order, linalg.kernel(F, A)) == J
    # each PIM is kG.e for its idempotent e, and its head is the irreducible
    # itself: P / J.P, from every left multiplication by a basis of J, is
    # isomorphic to it
    M = rep.regular_module(G, F)
    Jmats = [rep.left_mult_matrix(G, v) for v in J.basis]
    for p, S in zip(rep.pims(G, F), rep.irreducible_modules(G, F), strict=True):
        assert all((X == Y).all() for X, Y in zip(p.head.gen_matrices, S.gen_matrices))
        e = p.idempotent
        assert (linalg.mat_vec(F, rep.left_mult_matrix(G, e), e) == e).all()
        P, incl, proj = rep.sub_module(M, rep.spin(F, e, M.gen_matrices))
        for X, Y in zip(P.gen_matrices, p.pim.gen_matrices, strict=True):
            assert (X == Y).all(), name
        imgs = [linalg.mat_mul(F, proj, linalg.mat_mul(F, L, incl)).T for L in Jmats]
        radP = linalg.Subspace(F, P.dim, np.concatenate(imgs) if imgs else None)
        head, _ = rep.quotient_module(P, radP)
        assert rep.module_iso(head, S) is not None, name


@pytest.mark.parametrize("basis", BASES)
@pytest.mark.parametrize("F", [F2, F4], ids=["GF2", "GF4"])
@pytest.mark.parametrize("name", SMALL_GROUPS)
def test_regular_quotient_matches_the_composition_series_map(name, F, basis):
    # the map through the irreducibles that regular_end_algebra carries and
    # the composition-series map of a bare algebra of the same basis have
    # the same kernel, so the radicals and decompositions agree to the byte,
    # on kG's own basis and after a change of basis
    G = catalog.suite_group(name)
    M = rep.regular_module(G, F)
    M, E = in_basis(M, basis, rep.regular_end_algebra(G, F, M))
    assert linalg.rank(F, np.array([b.ravel() for b in E.basis])) == G.order
    bare = rep.EndoAlgebra(M, E.basis)
    assert bare.quotient is None and rep.Semisimple.of(E) is E.quotient
    got_radical, want_radical = rep.radical(E), rep.radical(bare)
    assert len(got_radical) == G.order - linalg.rank(F, E.quotient.L)
    for a, b in zip(got_radical, want_radical, strict=True):
        assert (a == b).all()
    got = rep.decompose(M, E)
    want = rep.decompose(M, bare)
    assert got.multiplicities == want.multiplicities
    for a, b in zip(got.components, want.components, strict=True):
        assert (a.idempotent == b.idempotent).all() and a.iso_class == b.iso_class


CLOSURE_CASES = [
    (name, m)
    for name in catalog.SUITE_NAMES
    if catalog.suite_group(name).order <= 120
    for m in sorted({1, 2, BRAUER_DEGREES[name]})
]


@pytest.mark.parametrize("name,m", CLOSURE_CASES)
def test_tensor_closure_finds_the_irreducibles_of_kG(monkeypatch, name, m):
    # reference: the factors of a composition series of kG; a fresh table,
    # as the catalogue's may already hold its irreducibles' actions
    G, F = fresh_table(catalog.suite_group(name)), make_field(m)
    ref = irreducibles_by_chop(G, F)
    assert rep.simple_module_count(G, F) == len(ref)
    dims = record_chop_dims(monkeypatch)
    got = rep.irreducible_modules(G, F)
    # kG is chopped only where the permutation module is kG (C2, V4)
    assert G.order not in dims or len(G.perms[0]) == G.order
    assert len(got) == len(ref)
    for S in got:
        read_back(S)  # read back from the stored actions, checked exactly
        assert sum(rep.module_iso(S, R) is not None for R in ref) == 1, (name, m)


@pytest.mark.parametrize("m", [1, BRAUER_DEGREES["GL(3,2):2"]])
def test_tensor_closure_gl32_2(monkeypatch, m):
    # kG has 336 dimensions (its chop takes 9 s over GF(2)): count and dims only
    G, F = fresh_table(catalog.suite_group("GL(3,2):2")), make_field(m)
    dims = record_chop_dims(monkeypatch)
    got = rep.irreducible_modules(G, F)
    assert rep.simple_module_count(G, F) == 3
    assert sorted(S.dim for S in got) == [1, 6, 8]
    assert max(dims) <= 64


def test_tensor_closure_on_a_table_without_permutations():
    # no permutation labels: the faithful module is kG itself
    G = GroupTable(S4.mult, S4.generators)
    assert G.perms is None
    got = rep.irreducible_modules(G, F4)
    ref = irreducibles_by_chop(G, F4)
    assert len(got) == len(ref) == 2
    assert all(any(rep.module_iso(S, R) is not None for R in ref) for S in got)


@pytest.mark.parametrize("name", ["S3", "A4", "S5"])
def test_tensor_closure_short_of_the_count_raises(monkeypatch, name):
    # a count one too large: the pairs run out, and that is a bug (exit 4);
    # a fresh table, as the catalogue's may already hold its irreducibles' actions
    G = fresh_table(catalog.suite_group(name))
    real = rep.simple_module_count
    monkeypatch.setattr(rep, "simple_module_count", lambda G, F: real(G, F) + 1)
    with pytest.raises(AssertionError, match="tensor closure"):
        rep.irreducible_modules(G, F2)
    M = rep.regular_module(G, F2)
    with pytest.raises(AssertionError, match="tensor closure"):
        rep.regular_end_algebra(G, F2, M)


def test_tensor_closure_runs_once_per_table_and_field(monkeypatch):
    G = fresh_table(S4)
    dims = record_chop_dims(monkeypatch)
    for F in (F2, F4):
        rep.pims(G, F)
        assert dims, F  # the first use over each field runs the closure
        dims.clear()
        rep.pims(G, F)
        rep.regular_end_algebra(G, F, rep.regular_module(G, F))
        rep._irreducible_actions(G, F)
        irr = rep.irreducible_modules(G, F)
        real = [b for b in blocks.block_decomposition(G, F) if b.real]
        assert real, F
        for b in real:
            assert vertex.verify_theorem_vertexBlock(G, F, b, irr).part_ii, F
        assert dims == [], F
    assert sorted(G.irreducible_actions) == [(1, F2.modulus), (2, F4.modulus)]


def test_a_fresh_table_computes_its_own_irreducible_actions(monkeypatch):
    A, heads = rep._irreducible_actions(S3, F2)
    G = fresh_table(S3)
    dims = record_chop_dims(monkeypatch)
    B, labels = rep._irreducible_actions(G, F2)
    assert dims and B is not A and (B == A).all()
    assert labels is not heads and (labels == heads).all()


def test_stored_irreducible_actions_are_read_only():
    A, heads = stored = rep._irreducible_actions(S3, F2)
    assert stored is S3.irreducible_actions[1, F2.modulus]
    # one head label per row: the irreducible's index, dim S^2 rows each
    # (the 2-dim irreducible comes first, from the permutation module)
    assert heads.tolist() == [0, 0, 0, 0, 1]
    with pytest.raises(ValueError, match="read-only"):
        A[0, 0] ^= 1
    with pytest.raises(ValueError, match="read-only"):
        heads[0] = 1


def test_irreducible_actions_keep_no_cycle_through_the_table():
    # the table stores arrays only: were a module kept there, it would refer
    # back to the table and keep it alive until the cyclic collector runs
    gc.disable()
    try:
        G = load_group(str(Path(rep.__file__).parent / "data" / "sl23.json"))
        M = rep.regular_module(G, F2)
        rep.regular_end_algebra(G, F2, M)
        assert G.irreducible_actions
        ref = weakref.ref(G)
        del G, M
        assert ref() is None
    finally:
        gc.enable()


def test_induce_restrict_dims_and_mackey_size():
    H = sylow_sub(S3)
    L = rep.trivial_module(rep.subgroup_table(H)[0], F2)
    ind, T = rep.induce(L, H)
    assert ind.dim == (S3.order // H.order) * L.dim == 3
    res = rep.restrict(ind, H)
    assert res.dim == 3


def test_restriction_does_not_depend_on_which_subgroup_came_first():
    # G.sylow2() and the class representative with the same elements have
    # different generators; whichever is restricted to first, the tables
    # and so both restrictions have the same bytes
    digests = []
    for sylow_first in (True, False):
        G = fresh_table(S4)
        P = G.sylow2()
        Q = next(H for H in G.two_subgroups_up_to_conjugacy()
                 if H.elements == P.elements)
        assert P.gens != Q.gens
        M = rep.permutation_module(G, F2)
        order = (P, Q) if sylow_first else (Q, P)
        res = {H.gens: rep.restrict(M, H).gen_matrices for H in order}
        digests.append(array_digest([*res[P.gens], *res[Q.gens]]))
    assert digests[0] == digests[1]


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
            G = group_from_dict({"table": table, "generators": gens})
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


def test_hom_space_of_kg_cubed_is_its_commutant():
    # 72^2 = 5,184 unknowns, far above the Kronecker route's bound: the
    # spin route
    M3 = rep.direct_sum([rep.regular_module(S4, F2)] * 3)
    assert M3.dim * M3.dim >= 4096
    assert M3.dim * M3.dim > rep.HOM_KRON_UNKNOWNS
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
    if H is not None:  # Hom over H is Hom of the restrictions
        M, N = rep.restrict(M, H), rep.restrict(N, H)
    got = rep.hom_space(M, N)
    want = kron_hom_reference(*case)
    assert len(got) == len(want)
    for X, Y in zip(got, want):
        assert X.shape == (N.dim, M.dim)
        assert (X == Y).all()
    # both routes on every case, so the spin route stays tested below the
    # bound and the Kronecker route above it
    pairs = list(zip(M.gen_matrices, N.gen_matrices))
    for route in (rep._hom_by_kron, rep._hom_by_spin):
        basis = route(M.F, pairs)
        assert [(X.dtype, X.shape, X.tobytes()) for X in basis] == [
            (Y.dtype, Y.shape, Y.tobytes()) for Y in got
        ]


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("regular", [False, True])  # 16 and 96 unknowns
def test_hom_over_the_trivial_group_takes_the_short_cut(monkeypatch, regular, m):
    # the trivial group's one generator gives an identity pair and no
    # equations: both routes solve that empty system to the unit matrices
    # in row-major order, and hom_space returns them without solving
    F = make_field(m)
    M = rep.permutation_module(S4, F)
    N = rep.regular_module(S4, F) if regular else M
    T = S4.trivial_subgroup()
    resM, resN = rep.restrict(M, T), rep.restrict(N, T)
    pairs = list(zip(resM.gen_matrices, resN.gen_matrices))
    want = [(X.dtype, X.shape, X.tobytes()) for X in rep._hom_by_kron(F, pairs)]
    assert [(X.dtype, X.shape, X.tobytes()) for X in rep._hom_by_spin(F, pairs)] == want
    units = np.eye(N.dim * M.dim, dtype=np.int64).reshape(-1, N.dim, M.dim)
    assert want == [(X.dtype, X.shape, X.tobytes()) for X in units]
    for route in ("_hom_by_kron", "_hom_by_spin"):
        monkeypatch.setattr(rep, route, None)
    got = rep.hom_space(resM, resN)
    assert [(X.dtype, X.shape, X.tobytes()) for X in got] == want


@pytest.mark.parametrize("name", catalog.SUITE_NAMES)
@pytest.mark.parametrize("m", [1, 2])
def test_hom_over_a_subgroup_matches_the_whole_group_action_route(name, m):
    # over each 2-subgroup class representative H, Hom of the restrictions
    # equals, byte for byte, Hom solved on the generator pairs read off the
    # whole-group actions
    G, F = catalog.suite_group(name), make_field(m)
    mods = [rep.permutation_module(G, F)]
    if G.order <= 24:
        mods.append(rep.regular_module(G, F))
    for H in G.two_subgroups_up_to_conjugacy():
        for M, N in itertools.product(mods, repeat=2):
            got = rep.hom_space(rep.restrict(M, H), rep.restrict(N, H))
            want = hom_over_subgroup_reference(M, N, H)
            assert [(X.dtype, X.shape, X.tobytes()) for X in got] == [
                (Y.dtype, Y.shape, Y.tobytes()) for Y in want
            ]


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


def all_ones_case(m):
    """The all-ones vector of kS3: every generator fixes it, so the second
    frontier reduces to nothing."""
    gens = rep.regular_module(S3, make_field(m)).gen_matrices
    return make_field(m), np.ones((1, S3.order), dtype=np.int64), gens


@settings(max_examples=80, deadline=None)
@given(spin_cases())
@example(all_ones_case(1))
@example(all_ones_case(2))
def test_spin_matches_one_vector_at_a_time(case):
    F, seeds, gens = case
    got = rep.spin(F, seeds, gens)
    want = spin_reference(F, seeds, gens)
    assert got.pivots == want.pivots
    assert got.basis.dtype == np.int64 and got.basis.shape == want.basis.shape
    assert (got.basis == want.basis).all()


def test_validation_checks_every_cayley_graph_edge():
    # two involutions that do not commute: the breadth-first tree reaches
    # ab through a then b, and the relation ba = ab fails off the tree
    a = np.array([[1, 1], [0, 1]], dtype=np.int64)
    b = np.array([[1, 0], [1, 1]], dtype=np.int64)
    with pytest.raises(ValueError, match="group relations"):
        read_back(rep.ModuleRep(V4, F2, [a, b]))
    read_back(rep.ModuleRep(V4, F2, [a, a]))
    # a repeated generator never enters the breadth-first action, so only
    # its Cayley-graph edges can see that its two matrices differ
    G = from_permutations(3, [[2, 3, 1], [2, 1, 3], [2, 3, 1]])
    P = rep.permutation_module(G, F2).gen_matrices
    with pytest.raises(ValueError, match="group relations"):
        read_back(rep.ModuleRep(G, F2, [P[0], P[1], P[1]]))
    for M in (rep.regular_module(S4, F4), rep.permutation_module(A4, F2)):
        read_back(M)


def test_built_groups_and_modules_pass_the_reader_checks(monkeypatch):
    # the constructors trust their arguments, and the library builds groups
    # and modules that are valid by construction: the file readers' checks
    # pass on them
    for name in catalog.SUITE_NAMES:
        G = catalog.suite_group(name)  # from_permutations
        tables = [G]
        if name in ("S4", "S5", "GL(3,2):2"):
            tables += [H.as_table()[0] for H in G.two_subgroups_up_to_conjugacy()]
        for T in tables:
            R = group_from_dict({"table": T.mult.tolist(), "generators": T.generators})
            assert R.generators == T.generators and (R.mult == T.mult).all()
    # the catalogue's modules, and the modules they are induced from
    induced, real_induce = [], rep.induce
    monkeypatch.setattr(
        rep, "induce", lambda L, H: induced.append(L) or real_induce(L, H)
    )
    built = [
        catalog.gl32_induced_module(F2)[0],
        catalog.d12_pim(F2)[0],
        catalog.s5_specht_irreducible(F2).irreducible,
    ]
    assert [M.dim for M in induced] == [3, 2]
    for M in induced + built:
        read_back(M)


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
    N = read_back(rep.ModuleRep(S3, F2, mats))
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


def _is_local_by_chop(E):
    """The reference verdict: E is local when `_split_once` finds no
    idempotent through the whole composition series map of the module."""
    return rep._split_once(E, rep.Semisimple.of(E), 0) is None


def _local_quotient_sweep(name, F):
    """Irreducibles, PIMs, kG, the permutation module, Ind_H^G k of dim
    <= 24 and the pairwise sums of irreducibles."""
    G = catalog.suite_group(name)
    irr = rep.irreducible_modules(G, F)
    kG = rep.regular_module(G, F)
    mods = irr + [kG, rep.permutation_module(G, F)]
    mods += [c.module for c in rep.decompose(kG).components]
    mods += [rep.induce(rep.trivial_module(rep.subgroup_table(H)[0], F), H)[0]
             for H in G.two_subgroups_up_to_conjugacy() if G.order // H.order <= 24]
    return mods + [rep.direct_sum([a, b]) for a, b in
                   itertools.combinations_with_replacement(irr, 2)]


@pytest.mark.parametrize("F", [F2, F4], ids=["GF2", "GF4"])
@pytest.mark.parametrize("name", ["S3", "D12", "A4", "S4", "SL(2,3)", "C3:C4"])
def test_local_quotient_matches_the_chop_route(name, F):
    # the verdict of one simple E-submodule equals the whole composition
    # series', and for local E the map's kernel is the radical
    locals_ = 0
    for M in _local_quotient_sweep(name, F):
        E = rep.end_algebra(M)
        psi = rep.local_quotient(E)
        assert (psi is not None) == _is_local_by_chop(E), (name, M.dim)
        if psi is None:
            continue
        locals_ += 1
        flat = [x.ravel() for x in psi.kernel(E)]
        want = [x.ravel() for x in rep.radical(E)]
        n = M.dim**2
        assert linalg.Subspace(F, n, flat) == linalg.Subspace(F, n, want)
    assert locals_ >= 3


def test_local_quotient_rejects_by_each_test():
    # S3's permutation module k + D over GF(2): E = k x k, and a simple
    # E-submodule S of dim 1 has dim E/ann(S) = 1, so only the nilpotency
    # test rejects it.  k + k: E = Mat_2(k) has S = k^2 and ann(S) = 0,
    # nilpotent, so only the dimension test (4 != 2) rejects it
    perm = rep.permutation_module(S3, F2)
    k = rep.trivial_module(S3, F2)
    for M in (perm, rep.direct_sum([k, k])):
        assert not _is_local_by_chop(rep.end_algebra(M))
        assert rep.local_quotient(rep.end_algebra(M)) is None
        assert not rep.is_indecomposable(M)


def test_local_quotient_over_a_residue_field_extension():
    # the 2-dim irreducible of SL(2,3) over GF(2) has E = E/J = GF(4): S is
    # the whole module, and the map reads s = 2 rows
    SL23 = catalog.suite_group("SL(2,3)")
    M = next(S for S in rep.irreducible_modules(SL23, F2) if S.dim == 2)
    E = rep.end_algebra(M)
    psi = rep.local_quotient(E)
    assert E.dim == 2 and psi is not None and psi.L.shape == (2, 2)
    assert psi.kernel(E) == []
    assert psi.images(E.basis).any(axis=1).all()


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


@pytest.mark.parametrize("basis", BASES)
def test_compressed_radical_is_the_corner_radical(basis):
    # J(fEf) = f J(E) f: a corner reads fEf/J through E's map, composed with
    # its incl and proj, instead of chopping its own module again
    split = 0
    for label, M in _corner_modules():
        assert M.dim <= 24
        M, _ = in_basis(M, basis)
        F = M.F
        E = rep.end_algebra(M)
        halves = rep.split_corner(rep.Corner.top(E, rep.Semisimple.of(E)), 0)
        if halves is None:
            continue
        split += 1
        for c in halves:
            n2 = c.algebra.module.dim**2
            got, want = (
                linalg.Subspace(F, n2, np.array([x.ravel() for x in X]))
                for X in (c.quotient.kernel(c.algebra), rep.radical(c.algebra))
            )
            assert got == want, label
    assert split >= 10


def _factor_is_irreducible(F, mats, c):
    """Every nonzero vector of the factor spins to all of it."""
    for v in itertools.product(range(F.q), repeat=c):
        if any(v) and rep.spin(F, np.array([v]), mats).dim < c:
            return False
    return True


@pytest.mark.parametrize("basis", BASES)
@pytest.mark.parametrize("label, M", [
    ("S4-regular-gf2", rep.regular_module(S4, F2)),
    ("A4-regular-gf4", rep.regular_module(A4, F4)),
    ("S5-perm-gf2", rep.permutation_module(catalog.suite_group("S5"), F2)),
    ("D12-pim-gf2", catalog.d12_pim(F2)[0]),
])
def test_chop_factors_are_a_composition_series(label, M, basis):
    M, _ = in_basis(M, basis)
    F, gens, d = M.F, M.gen_matrices, M.dim
    factors = rep.chop(F, gens, d)
    lifts = np.concatenate([lift for _, lift in factors])
    assert lifts.shape == (d, d) and linalg.is_invertible(F, lifts), label
    below = linalg.Subspace(F, d, None)
    for mats, lift in factors:
        c = len(lift)
        assert c**2 <= 16 and _factor_is_irreducible(F, mats, c), label
        # the factor's matrices are the action on the lifts modulo the terms
        # below, and the prefix up to this factor is gens-stable
        for A, B in zip(gens, mats):
            moved = linalg.mat_mul(F, A, lift.T) ^ linalg.mat_mul(F, lift.T, B)
            assert not linalg.reduce_mod(F, below, moved.T).any(), label
        below = below.add(linalg.Subspace(F, d, lift))
        assert rep.spin(F, below.basis, gens) == below, label
    assert below.dim == d


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
    F, depth = M.F, 3
    E = rep.end_algebra(M)
    ss = rep.Semisimple.of(E)
    lifts = rep.semisimple_quotient(E, ss)
    r = len(lifts)
    assert r + len(ss.kernel(E)) == E.dim, label  # the lifts are a basis of E/J
    # reference coordinates over the lifts in E/J, solved from their images
    imgs = ss.images(lifts).T

    def quo_coords(f):
        x, _ = linalg.solve(F, imgs, ss.images([f])[0])
        assert x is not None, label
        return x

    draws = linalg.coefficient_vectors(F.q, r, random.Random(depth), 400 - r)
    cands = itertools.chain(lifts, (linalg.combine(F, c, lifts) for c in draws))
    degrees = set()
    for a in itertools.islice(cands, 20):
        # reference: the matrix of left multiplication by a on E/J
        La = np.array([quo_coords(linalg.mat_mul(F, a, b)) for b in lifts]).T
        mu = linalg.min_poly(F, a, (ss.R, ss.read))
        assert mu == linalg.min_poly(F, La), label
        degrees.add(polys.deg(mu))
    assert min(degrees) < r, label  # some La is not cyclic
    # one min_poly call and one polys.factor call per attempt
    calls, attempts = [], []
    real_min_poly, real_factor = linalg.min_poly, polys.factor
    monkeypatch.setattr(
        linalg, "min_poly", lambda *a: calls.append(1) or real_min_poly(*a)
    )
    monkeypatch.setattr(
        polys, "factor", lambda *a: attempts.append(1) or real_factor(*a)
    )
    e = rep._split_once(E, ss, depth)
    assert len(calls) == len(attempts) >= 1
    assert (e is None) == (label == "SL(2,3)-irreducible-gf2")


# -- classes by head ------------------------------------------------------


def _class_cases():
    # direct sums of catalogue modules, with repeated summands so that a
    # primitive idempotent acts on several composition factors, and kG
    # through regular_end_algebra's map
    for F in (F2, F4):
        for name in ("S3", "A4", "S4", "SL(2,3)"):
            G = catalog.suite_group(name)
            P, k = rep.permutation_module(G, F), rep.trivial_module(G, F)
            irr = rep.irreducible_modules(G, F)
            yield f"{name}-perm+perm+k-gf{F.q}", rep.direct_sum([P, P, k]), None
            yield f"{name}-irr+irr-gf{F.q}", rep.direct_sum(irr + irr[::-1]), None
            M = rep.regular_module(G, F)
            yield f"{name}-regular-gf{F.q}", M, rep.regular_end_algebra(G, F, M)


@pytest.mark.parametrize("basis", BASES)
@pytest.mark.parametrize("label, M, endo", list(_class_cases()))
def test_classes_by_head_match_module_iso(label, M, endo, basis):
    M, endo = in_basis(M, basis, endo)
    cert = rep.decompose(M, endo)
    classes, mults = iso_classes_by_module_iso([c.module for c in cert.components])
    assert [c.iso_class for c in cert.components] == classes, label
    assert cert.multiplicities == mults, label


def _nonzero_factors(ss, x) -> list[int]:
    """The labels of the rows of L at which x's image is nonzero."""
    Y = linalg.mat_mul(ss.F, ss.L, linalg.mat_mul(ss.F, x, ss.R))
    return sorted({int(ss.heads[i]) for i in range(len(Y)) if Y[i][ss.mask[i]].any()})


def _label_cases():
    # S3's 2-dim irreducible and k, twice each: E = M_2(k) x M_2(k), and
    # each 2-dim summand acts on both factors of its copy's kind; and S4's
    # permutation module twice over GF(4)
    S = [m for m in rep.irreducible_modules(S3, F2) if m.dim == 2][0]
    k = rep.trivial_module(S3, F2)
    for M in (rep.direct_sum([S, k, S, k]),
              rep.direct_sum([rep.permutation_module(S4, F4)] * 2)):
        E = rep.end_algebra(M)
        ss = rep.Semisimple.of(E)
        cert = rep.decompose(M, endo=E)
        rng = random.Random(1)
        J = linalg.Subspace(M.F, M.dim**2, np.array([x.ravel() for x in rep.radical(E)]))
        xs = [linalg.combine(M.F, [rng.randrange(M.F.q) for _ in E.basis], E.basis)
              for _ in range(20)]
        xs = [x for x in xs if not J.contains(x.ravel())]
        yield ss, cert, xs


def _labels_are_first_factors(heads_of) -> bool:
    for ss, cert, xs in _label_cases():
        mats = [c.idempotent for c in cert.components] + xs
        if heads_of(ss, mats).tolist() != [_nonzero_factors(ss, x)[0] for x in mats]:
            return False
    return True


def test_heads_of_reads_the_first_nonzero_factor():
    assert _labels_are_first_factors(rep.Semisimple.heads_of)
    for ss, cert, xs in _label_cases():
        # the factors each summand acts on: those isomorphic to its head,
        # the same for every summand of a class, and a partition of them
        seen = {}
        for c in cert.components:
            on = _nonzero_factors(ss, c.idempotent)
            assert seen.setdefault(c.iso_class, on) == on
        covered = sorted(t for on in seen.values() for t in on)
        assert covered == sorted(set(ss.heads.tolist()))
        assert max(len(on) for on in seen.values()) > 1  # first != last somewhere
        assert len(xs) >= 10


def test_a_last_nonzero_factor_mutant_fails():
    # both the first and the last nonzero factor name the head, so classes
    # alone cannot tell them apart; the labels themselves can
    def last(ss, mats):
        rows = np.nonzero(ss.mask)[0]
        nz = ss.images(mats) != 0
        return ss.heads[rows[nz.shape[1] - 1 - nz[:, ::-1].argmax(axis=1)]]

    assert not _labels_are_first_factors(last)


def _power_cases():
    # kG's map through the irreducibles, a chop map, and their corners'
    M = rep.regular_module(S4, F2)
    N = rep.direct_sum([rep.permutation_module(A4, F4)] * 2)
    for label, E in (("S4-regular-gf2", rep.regular_end_algebra(S4, F2, M)),
                     ("A4-perm+perm-gf4", rep.end_algebra(N))):
        ss = rep.Semisimple.of(E)
        yield label, E, ss
        halves = rep.split_corner(rep.Corner.top(E, ss), 0)
        for c in halves:
            yield label + "-corner", c.algebra, c.quotient


@pytest.mark.parametrize("label, E, ss", list(_power_cases()))
def test_right_built_power_images_match_explicit_powers(label, E, ss):
    F, d = E.module.F, E.module.dim
    rng = random.Random(2)
    for _ in range(4):
        a = linalg.combine(F, [rng.randrange(F.q) for _ in E.basis], E.basis)
        powers, Y = [linalg.eye(d)], ss.R
        for j in range(d + 1):
            assert (ss.read(Y) == ss.images([powers[-1]])[0]).all(), (label, j)
            powers.append(linalg.mat_mul(F, a, powers[-1]))
            Y = linalg.mat_mul(F, a, Y)
        # the minimal polynomial in E/J: the first dependency of the images
        # of the explicit powers, as before
        want = linalg._first_dependency(F, ss.images(powers))
        assert linalg.min_poly(F, a, (ss.R, ss.read)) == want, label


@pytest.mark.parametrize("basis", BASES)
def test_compress_corner_matches_the_echelon_greedy(basis):
    compared = 0
    for label, M in _corner_modules():
        M, _ = in_basis(M, basis)
        F = M.F
        E = rep.end_algebra(M)
        e = rep._split_once(E, rep.Semisimple.of(E), 0)
        if e is None:
            continue
        # zero and repeated compressions, which the greedy skips, in an
        # order that is no palindrome
        mats = [linalg.zeros(M.dim, M.dim)] + E.basis[::-1] + E.basis[1::2]
        for part in (e, e ^ linalg.eye(M.dim)):
            _, incl, proj = rep.sub_module(M, linalg.col_space(F, part))
            got = rep._compress_corner(F, mats, part, incl, proj)
            want = compress_corner_by_echelon(F, mats, part, incl, proj)
            assert len(got) == len(want), label
            for x, y in zip(got, want):
                assert x.dtype == y.dtype and x.shape == y.shape, label
                assert x.tobytes() == y.tobytes(), label
            compared += 1
    assert compared >= 20
