"""Shared fixtures, the reference routes (the dense GF(2) rref, Light's
test by right multiplication, the irreducibles and J(kG) by chopping kG,
summand classes by module_iso, corner bases by Echelon, Hom over a
subgroup from the whole-group actions, relative traces one element at a
time, subgroup generators by fresh closures, subgroup lattices by every
element, a module's whole-group action one element at a time, Theta on
kG as a G x G-module, a block's nondegeneracy through the regular
module), modules after a random change of basis and orthogonal
decompositions moved along a seeded automorphism (the library takes no
seed), two of the paper's side lemmas that only tests check, each
asserting its certificate (the Mackey decomposition of an induced form,
the distinguished Scott component), and the acceptance-criterion
reporting hook."""

import hashlib
import random
from dataclasses import dataclass

import numpy as np

from symvert import forms, linalg, rep, vertex
from symvert.group import GroupTable, Subgroup, group_from_dict

_ACCEPTANCE_RESULTS: dict[int, tuple[str, bool]] = {}


def record_criterion(n: int, name: str, passed: bool) -> None:
    _ACCEPTANCE_RESULTS[n] = (name, passed)


def read_back(M: rep.ModuleRep) -> rep.ModuleRep:
    """M through the module file reader, which checks its matrices:
    invertible, and satisfying the group's relations on every edge."""
    return rep.module_from_dict(rep.module_to_dict(M), M.group)


def rref_dense_reference(A) -> tuple[np.ndarray, list[int]]:
    """GF(2) reduced row echelon form by the dense column loop that
    `linalg.rref` runs over GF(2^m), the reference for its packed GF(2)
    engine: per pivot column, a row swap and one XOR of the pivot row into
    every other row with a 1 there (over GF(2) each pivot is 1 and needs
    no scaling)."""
    R = np.array(A, dtype=np.int64, copy=True)
    rows, cols = R.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(R[r:, c])[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            R[[r, p]] = R[[p, r]]
        touch = np.nonzero(R[:, c])[0]
        touch = touch[touch != r]
        if touch.size:
            R[touch] ^= R[r]
        pivots.append(c)
        r += 1
    return R, pivots


def associative_by_right_light(mult, generators) -> bool:
    """Light's test with the generator on the right: (x g) y = x (g y) for
    every generator g and all x, y, by one column gather of the whole
    table per generator; with every element as a generator it checks
    associativity outright."""
    mult = np.asarray(mult, dtype=np.int64)
    return all(
        (mult[mult[:, g]] == mult[:, mult[g]]).all() for g in generators
    )


def irreducibles_by_chop(G, F, rng=None) -> list[rep.ModuleRep]:
    """All irreducible modules: the factors of a composition series of the
    regular module, one per isomorphism class; with rng, of the regular
    module after a random change of basis drawn from it (`conjugated`).
    The reference for `rep.irreducible_modules`, which reads them off the
    tensor closure."""
    out: list[rep.ModuleRep] = []
    kG = rep.regular_module(G, F)
    if rng is not None:
        kG = conjugated(kG, rng)
    for mats, _ in rep.chop(F, kG.gen_matrices, G.order):
        S = rep.ModuleRep(G, F, mats)
        if all(rep.module_iso(S, r) is None for r in out):
            out.append(S)
    out.sort(key=lambda m: m.dim)
    return out


def conjugated(M: rep.ModuleRep, rng) -> rep.ModuleRep:
    """The same module after a random change of basis: generators P.A.P^-1
    for an invertible P drawn entry by entry from rng."""
    return conjugated_with_algebra(M, None, rng)[0]


def conjugated_with_algebra(M: rep.ModuleRep, E, rng) -> tuple:
    """`conjugated`, with an algebra E of M (or None) moved along the same
    P: basis P.x.P^-1, and E's map onto E/J(E), when it carries one, x ->
    L.x.R read as L.P^-1 and P.R, so that it reads P.x.P^-1 as it read x."""
    F, d = M.F, M.dim
    while True:
        P = np.array([[rng.randrange(F.q) for _ in range(d)] for _ in range(d)])
        if linalg.is_invertible(F, P):
            break
    P_inv = linalg.inverse(F, P)

    def move(A):
        return linalg.mat_mul(F, P, linalg.mat_mul(F, A, P_inv))

    N = rep.ModuleRep(M.group, F, [move(A) for A in M.gen_matrices])
    if E is None:
        return N, None
    ss = E.quotient
    if ss is not None:
        ss = rep.Semisimple(F, linalg.mat_mul(F, ss.L, P_inv),
                            linalg.mat_mul(F, P, ss.R), ss.mask, ss.heads)
    return N, rep.EndoAlgebra(N, [move(x) for x in E.basis], quotient=ss)


def seeded_automorphism(M: rep.ModuleRep, seed: int) -> np.ndarray:
    """A unit u of E_G(M): the identity at seed 0, else the first of 50
    combinations of `rep.end_algebra(M)`'s basis, with coefficients drawn
    from random.Random(seed), that is invertible."""
    F = M.F
    if not seed:
        return linalg.eye(M.dim)
    basis = rep.end_algebra(M).basis
    for c in linalg.coefficient_vectors(F.q, len(basis), random.Random(seed), 50):
        u = linalg.combine(F, c, basis)
        if linalg.is_invertible(F, u):
            return u
    raise AssertionError("no unit among 50 draws")


def orth_decompose_moved(B: forms.GForm, u: np.ndarray) -> list[forms.OrthPiece]:
    """An orthogonal decomposition of B whose summands are moved along a
    unit u of E_G(M) (the summands of a module are unique up to
    isomorphism, its internal decompositions are not): `forms.orth_decompose`
    of B_u(x, y) = B(ux, uy), invariant as u commutes with G, with each
    piece mapped back by u, its Gram that of B on the moved basis."""
    F, n = B.F, B.module.dim
    Bu = forms.GForm(B.module, linalg.mat_mul(F, u.T, linalg.mat_mul(F, B.gram, u)))
    out = []
    for p in forms.orth_decompose(Bu):
        S = linalg.Subspace(F, n, linalg.mat_mul(F, p.space.basis, u.T))
        out.append(forms.OrthPiece(S, p.kind, p.modules, forms.gram_on(B, S.basis)))
    return out


def kg_radical_by_chop(G, F) -> linalg.Subspace:
    """J(kG) through `irreducibles_by_chop`, the factors of a composition
    series of kG: the reference that the tests compare the library's J(kG)
    against, which comes from the irreducibles found by tensor closure."""
    irreps = irreducibles_by_chop(G, F)
    acts = [np.concatenate([S.action(x).ravel() for S in irreps])
            for x in range(G.order)]
    return linalg.Subspace(F, G.order, linalg.kernel(F, np.array(acts).T))


def block_nondegenerate_reference(G, F, b) -> bool:
    """Whether the orthonormal form on kG is nondegenerate on kG.b, with
    kG.b the column space of right multiplication by b in the regular
    module: the reference for `b.real`, which
    `blocks.verify_theorem_vertexBlock` reports as that nondegeneracy."""
    # permutation matrices preserve the orthonormal form: no invariance check
    kG = rep.regular_module(G, F)
    orthonormal = forms.GForm(kG, linalg.eye(G.order))
    S = linalg.col_space(F, rep.right_mult_matrix(G, b.group_algebra_vector))
    return forms.is_nondegenerate_on(orthonormal, S)


def centre_mul_by_loop(Z, u, v) -> np.ndarray:
    """u.v in Z(kG), one pair of nonzero class-sum coefficients at a time:
    the reference for `blocks.CentreAlgebra.mul`."""
    F = Z.F
    out = np.zeros(Z.n, dtype=np.int64)
    for i in np.nonzero(u)[0]:
        for j in np.nonzero(v)[0]:
            c = F.mul(int(u[i]), int(v[j]))
            out ^= F.vscale(c, Z.struct[i, j])
    return out


def contragredient_by_loop(Z, u) -> np.ndarray:
    """u with each class's coefficient written to its inverse class, one
    class at a time: the reference for `blocks.CentreAlgebra.contragredient`."""
    out = np.zeros_like(u)
    for i, c in enumerate(Z.classes):
        out[c.inverse_class] = u[i]
    return out


def fresh_table(G: GroupTable) -> GroupTable:
    """G's table again, with nothing cached on it: the first use of its
    irreducibles over a field runs the tensor closure anew."""
    return GroupTable(G.mult, G.generators, perms=G.perms)


def iso_classes_by_module_iso(modules) -> tuple[list[int], list[int]]:
    """Each summand's class and each class's multiplicity, numbered in
    order of first appearance by one `rep.module_iso` against each class
    found so far: the reference for `rep.decompose`'s classes by head."""
    reps, classes = [], []
    for m in modules:
        iso = (i for i, r in enumerate(reps) if rep.module_iso(m, r) is not None)
        classes.append(next(iso, len(reps)))
        if classes[-1] == len(reps):
            reps.append(m)
    return classes, [classes.count(i) for i in range(len(reps))]


def compress_corner_by_echelon(F, mats, e, incl, proj) -> list[np.ndarray]:
    """The span of e X e over X in mats in the component's coordinates, by
    the greedy `Echelon` selection: each nonzero compression that is
    independent of those kept before it.  The reference for
    `rep._compress_corner`, which reads the same ones off one rref."""
    seen, basis = linalg.Echelon(F, incl.shape[1] ** 2), []
    for X in mats:
        x = linalg.mat_mul(F, linalg.mat_mul(F, proj, e), linalg.mat_mul(
            F, X, linalg.mat_mul(F, e, incl)))
        if x.any() and seen.insert(x.ravel()):
            basis.append(x)
    return basis


def hom_pairs_reference(M: rep.ModuleRep, N: rep.ModuleRep, H: Subgroup) -> list:
    """(rho_M(h), rho_N(h)) for each generator h of H's own table, read off
    the whole-group actions of M and N."""
    Ht, elems = rep.subgroup_table(H)
    ids = [elems[g] for g in Ht.generators]
    return list(zip(M.full_action()[ids], N.full_action()[ids]))


def hom_over_subgroup_reference(M: rep.ModuleRep, N: rep.ModuleRep, H: Subgroup):
    """Hom_H(M, N) solved on `hom_pairs_reference` by the route
    `rep.hom_space` picks for dim M . dim N: the reference for Hom over a
    subgroup as `hom_space` of the restrictions."""
    small = M.dim * N.dim <= rep.HOM_KRON_UNKNOWNS
    route = rep._hom_by_kron if small else rep._hom_by_spin
    return route(M.F, hom_pairs_reference(M, N, H))


def rel_trace_by_element(M: rep.ModuleRep, fs, H: Subgroup, K=None) -> list:
    """tr_H^K of each f (K = None: the whole group), one transversal
    element at a time: rho(t).f_j side by side, then stacked and multiplied
    by rho(t)^-1.  The reference for `vertex.rel_trace_batch`, and the
    trace to an intermediate subgroup K."""
    F, G, h = M.F, M.group, len(fs)
    acc = np.zeros((h * M.dim, M.dim), dtype=np.int64)
    for t in G.left_transversal(H, K):
        left = linalg.mat_mul(F, M.action(t), np.concatenate(fs, axis=1))
        acc ^= linalg.mat_mul(F, np.concatenate(np.split(left, h, axis=1)),
                              M.action(G.inverse(t)))
    return np.split(acc, h)


def array_digest(arrays) -> str:
    """sha256 over each array's dtype, shape and bytes, in order: a pin of
    certificate matrices byte for byte."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(repr((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def gens_by_fresh_closure(G: GroupTable, elements) -> tuple[int, ...]:
    """`Subgroup._find_gens` with the closure recomputed from scratch after
    each generator it adds: the reference for its incremental closure."""
    gens, have = [], {0}
    for x in sorted(elements):
        if x not in have:
            gens.append(x)
            have = set(G.closure(gens).elements)
            if len(have) == len(elements):
                break
    return tuple(gens)


def all_subgroups_by_every_element(G: GroupTable, P: Subgroup) -> list[Subgroup]:
    """`GroupTable.all_subgroups_of` with one closure per element x of P
    outside H, not one per left coset x H: the reference for its coset
    walk."""
    seen = {(0,): G.trivial_subgroup()}
    frontier = [G.trivial_subgroup()]
    while frontier:
        nxt = []
        for H in frontier:
            for x in P.elements:
                if x not in H.elements:
                    K = G.closure(list(H.gens or H.elements) + [x])
                    if K.elements not in seen:
                        seen[K.elements] = K
                        nxt.append(K)
        frontier = nxt
    return sorted(seen.values(), key=lambda h: (h.order, h.elements))


def full_action_by_elements(M: rep.ModuleRep) -> dict[int, np.ndarray]:
    """rho(x) for every x, one `mat_mul` per element on the breadth-first
    tree of the Cayley graph: the reference for `ModuleRep.full_action`,
    which takes one stacked product per generator per level."""
    G = M.group
    act = {0: linalg.eye(M.dim)}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for g, A in zip(G.generators, M.gen_matrices):
                y = G.mul(x, g)
                if y not in act:
                    act[y] = linalg.mat_mul(M.F, act[x], A)
                    nxt.append(y)
        frontier = nxt
    return act


def direct_product(G: GroupTable, H: GroupTable) -> tuple[GroupTable, "ProductMaps"]:
    """G x H with id (a,b) -> a*|H| + b."""
    nG, nH = G.order, H.order
    a = np.repeat(np.arange(nG), nH)
    b = np.tile(np.arange(nH), nG)
    mult = (
        G.mult[a[:, None], a[None, :]] * nH + H.mult[b[:, None], b[None, :]]
    )
    gens = [g * nH for g in G.generators] + list(H.generators)
    P = group_from_dict({"table": mult, "generators": gens})
    return P, ProductMaps(nH)


@dataclass
class ProductMaps:
    right_order: int

    def pair(self, a: int, b: int) -> int:
        return a * self.right_order + b

    def split(self, x: int) -> tuple[int, int]:
        return divmod(x, self.right_order)


@dataclass
class RegularBimodule:
    module: rep.ModuleRep  # kG over G x G
    product: GroupTable
    pair: callable  # (a, b) -> element of G x G
    form: forms.GForm  # the orthonormal-basis form, G x G-invariant


def regular_bimodule(G: GroupTable, F) -> RegularBimodule:
    """kG as a G x G-module: (g1, g2).x = g1.x.g2^-1, with the form making
    the group-element basis orthonormal.  Its table has |G|^4 entries, so
    it serves as the reference for small groups only."""
    GG, maps = direct_product(G, G)
    n = G.order
    mats = []
    for gen in GG.generators:
        a, b = maps.split(gen)
        # column x holds a 1 in row a.x.b^-1
        mats.append(linalg.eye(n)[:, G.mult[a, G.mult[:, G.inv[b]]]])
    M = rep.ModuleRep(GG, F, mats)
    B = forms.GForm(M, linalg.eye(n))
    assert B.is_invariant()
    return RegularBimodule(M, GG, maps.pair, B)


def diagonal_subgroup(bi: RegularBimodule, H: Subgroup) -> Subgroup:
    """Delta H = {(h, h)} inside G x G."""
    return Subgroup(bi.product, tuple(bi.pair(h, h) for h in H.elements), None)


def dense_theta(G: GroupTable, entries: dict) -> np.ndarray:
    """Theta's n x n matrix from its entries (v, w) -> coefficient."""
    theta = linalg.zeros(G.order, G.order)
    for (v, w), a in entries.items():
        theta[v, w] = a
    return theta


def theta_reference(b, bi: RegularBimodule, choices: dict[int, int]) -> np.ndarray:
    """Theta on the G x G-module: for each support class, alpha_i times the
    Delta D-to-Delta E trace of the rank-one d (x) d^-1, d the square root
    of the chosen class element c and D a Sylow 2-subgroup of C_E(c)."""
    G, F = b.centre.G, b.centre.F
    E = b.extended_defect_group
    dE = diagonal_subgroup(bi, E)
    theta = linalg.zeros(G.order, G.order)
    for i, c in choices.items():
        d = G.power(c, (G.element_order(c) + 1) // 2)
        dD = diagonal_subgroup(bi, G.sylow2(within=G.centralizer(c, within=E)))
        f = linalg.zeros(G.order, G.order)
        f[d, G.inverse(d)] = 1
        tr = rel_trace_by_element(bi.module, [f], dD, dE)[0]
        theta ^= F.vscale(int(b.idempotent[i]), tr)
    return theta


def theta_verdicts_reference(b, bi: RegularBimodule, theta) -> tuple[bool, bool]:
    """Whether Theta is fixed by the adjoint of the orthonormal form, and
    whether its Delta E-to-G x G trace is right multiplication by b."""
    G = b.centre.G
    sigma = forms.Adjoint(bi.form)
    dE = diagonal_subgroup(bi, b.extended_defect_group)
    full = vertex.rel_trace(bi.module, theta, dE)
    reb = rep.right_mult_matrix(G, b.group_algebra_vector)
    return bool((sigma(theta) == theta).all()), bool((full == reb).all())


def mackey_decompose(L_form: forms.GForm, H: Subgroup, K: Subgroup):
    """Res_K Ind_H (L, B_L) as the orthogonal sum over double cosets KgH of
    Ind_{K cap gHg^-1}^K of the conjugated restriction gL, with the witness
    W whose columns are the images of the pieces' basis vectors.  Asserts
    that W is invertible, a K-map and an isometry onto the pieces' forms;
    returns (the restricted form, the piece forms, W)."""
    G = H.parent
    F = L_form.F
    L = L_form.module
    helems = rep.subgroup_table(H)[1]
    hidx = {x: i for i, x in enumerate(helems)}
    M_ind, ind_form, _ = forms.induce_form(L_form, H)
    _, coset, hid = rep.coset_split(H)
    res_form = forms.GForm(rep.restrict(M_ind, K), ind_form.gram)
    Kt, kelems = rep.subgroup_table(K)
    Lact = L.full_action()
    dl = L.dim
    pieces: list[forms.GForm] = []
    cols: list[np.ndarray] = []
    kpos = {x: i for i, x in enumerate(kelems)}
    in_H = H.mask()
    kel = np.array(kelems)
    for g in G.double_cosets(K, H):
        ginv = G.inverse(g)
        # K cap gHg^-1, the x in K with g^-1 x g in H, inside K's own table
        inter_elems = kel[in_H[G.mult[G.mult[ginv, kel], g]]].tolist()
        Kg_in_K = Subgroup(Kt, tuple(kpos[x] for x in inter_elems), None)
        KgT, kg_elems = rep.subgroup_table(Kg_in_K)
        # conjugated module gL over Kg: x acts as L(g^-1 x g)
        gmats = []
        for y in KgT.generators:
            x = kelems[kg_elems[y]]  # element of G
            h = G.mul(ginv, G.mul(x, g))
            gmats.append(Lact[hidx[h]])
        gL = rep.ModuleRep(KgT, F, gmats)
        _, piece_form, ktrans = forms.induce_form(
            forms.GForm(gL, L_form.gram), Kg_in_K
        )
        pieces.append(piece_form)
        # witness columns: (coset k_i, basis e_l) -> k_i . (g tensor e_l)
        for ki in ktrans:
            x = G.mul(kelems[ki], g)
            blk, h = int(coset[x]), int(hid[x])
            for l in range(dl):
                col = np.zeros(M_ind.dim, dtype=np.int64)
                col[blk * dl : (blk + 1) * dl] = Lact[h][:, l]
                cols.append(col)
    W = np.array(cols).T
    assert W.shape[0] == W.shape[1] and linalg.is_invertible(F, W)
    # K-equivariance: W . blockdiag(piece actions) = res action . W
    for gi, A in enumerate(res_form.module.gen_matrices):
        blk = block_diag([p.module.gen_matrices[gi] for p in pieces])
        assert (linalg.mat_mul(F, W, blk) == linalg.mat_mul(F, A, W)).all()
    # isometry: W^T gram W = blockdiag of the pieces' Grams
    pulled = linalg.mat_mul(F, W.T, linalg.mat_mul(F, res_form.gram, W))
    assert (pulled == block_diag([p.gram for p in pieces])).all()
    return res_form, pieces, W


def block_diag(mats) -> np.ndarray:
    """The block-diagonal matrix with the given square blocks."""
    n = sum(len(A) for A in mats)
    out = linalg.zeros(n, n)
    off = 0
    for A in mats:
        out[off : off + len(A), off : off + len(A)] = A
        off += len(A)
    return out


def scott_component(V: Subgroup, Z: rep.ModuleRep) -> rep.ModuleRep:
    """The unique vertex-V component M of Ind_V^G Z with odd multiplicity,
    for Z indecomposable with vertex V and symmetric type, after asserting
    (a) its multiplicity is 1; (b) all other vertex-V components occur with
    even multiplicity; (c) Z is a component of an orthogonal decomposition
    of Res_V M under a nondegenerate symmetric form on M; (d) every
    nondegenerate V-projective form on the induced module restricts
    nondegenerately to the M-component."""
    B0 = forms.base_form(Z)
    assert B0 is not None, "Z has no nondegenerate symmetric form"
    G = V.parent
    ind, indB, _ = forms.induce_form(B0, V)
    dec = rep.decompose(ind)
    comps = [next(c for c in dec.components if c.iso_class == i)
             for i in range(len(dec.multiplicities))]
    vertexV = [i for i, c in enumerate(comps) if G.subgroup_conjugate(
        vertex.green_vertex(c.module).vertex, V) is not None]
    # (b): one vertex-V class has odd multiplicity, so all others have even
    odd = [i for i in vertexV if dec.multiplicities[i] % 2 == 1]
    assert len(odd) == 1, "distinguished component is not unique"
    comp = comps[odd[0]]
    M = comp.module
    assert dec.multiplicities[odd[0]] == 1  # (a)
    # (c): Z is a component of an orthogonal decomposition of Res_V M
    resB = forms.GForm(rep.restrict(M, V), forms.base_form(M).gram)
    assert any(
        piece.kind == "indecomposable"
        and rep.module_iso(piece.modules[0], Z) is not None
        for piece in forms.orth_decompose(resB)
    )
    # (d): nondegenerate V-projective forms are nondegenerate on the
    # M-component of the induced module
    fixed = vertex.sigma_fixed_basis(ind, forms.Adjoint(indB), V)
    forms_V = [forms.form_from_endo(indB, t)
               for t in vertex.rel_trace_batch(ind, fixed, V)]
    assert all(forms.is_nondegenerate_on(Bt, comp.subspace)
               for Bt in forms_V if Bt.nondegenerate)
    return M


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(_ACCEPTANCE_RESULTS):
        name, passed = _ACCEPTANCE_RESULTS[n]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"CRITERION {n:2d} [{name}]: {verdict}")
