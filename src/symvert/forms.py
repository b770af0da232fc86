"""Invariant bilinear forms on modules of finite groups in characteristic 2.

A form is stored as a Gram matrix tied to its module.  The central dictionary
is form <-> endomorphism: for a fixed nondegenerate base form B with Gram g,
every invariant form is B_f(x, y) = B(f x, y) with Gram f^T.g, and the adjoint
anti-automorphism sigma(f) = g^-1.f^T.g turns the endomorphism algebra into an
involutary algebra.  On top of that sit nondegeneracy on subspaces (by the
restricted Gram) and orthogonal projections, perfect pairings between theta.M
and sigma(theta).M, self-adjoint idempotent lifting, induced forms with their
Mackey decomposition, and the greedy orthogonal decomposition into
nondegenerate pieces (indecomposable summands or dual pairs).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import linalg, rep
from .group import GroupTable, Subgroup
from .linalg import Subspace, coefficient_vectors, combine, eye, mat_mul, mat_vec, zeros
from .rep import EndoAlgebra, ModuleRep


class GForm:
    """A bilinear form on a module, stored as a Gram matrix.

    Invariance under the module's group generators is verified at
    construction unless ``check=False``.
    """

    def __init__(self, module: ModuleRep, gram: np.ndarray, check: bool = True):
        self.module = module
        self.F = module.F
        self.gram = np.asarray(gram, dtype=np.int64)
        if self.gram.shape != (module.dim, module.dim):
            raise ValueError("Gram matrix size does not match the module")
        if check and not self.is_invariant():
            raise ValueError("form is not invariant under the group action")
        self._nondeg: bool | None = None

    def is_invariant(self) -> bool:
        F = self.F
        for A in self.module.gen_matrices:
            if (mat_mul(F, A.T, mat_mul(F, self.gram, A)) != self.gram).any():
                return False
        return True

    @property
    def symmetric(self) -> bool:
        return bool((self.gram == self.gram.T).all())

    @property
    def symplectic(self) -> bool:
        return self.symmetric and not np.diag(self.gram).any()

    @property
    def nondegenerate(self) -> bool:
        if self._nondeg is None:
            self._nondeg = linalg.is_invertible(self.F, self.gram)
        return self._nondeg

    def __repr__(self) -> str:
        tags = []
        if self.symplectic:
            tags.append("symplectic")
        elif self.symmetric:
            tags.append("symmetric")
        tags.append("nondeg" if self.nondegenerate else "degenerate")
        return f"GForm(dim={self.module.dim}, {', '.join(tags)})"


class Adjoint:
    """The adjoint anti-automorphism of a nondegenerate symmetric form."""

    def __init__(self, form: GForm):
        if not form.nondegenerate:
            raise ValueError("adjoint requires a nondegenerate form")
        self.form = form
        self.F = form.F
        self.gram = form.gram
        self.gram_inv = linalg.inverse(self.F, form.gram)
        # sanity: maps each generator action to the inverse action
        M = form.module
        for g in M.group.generators:
            if (self.apply(M.action(g)) != M.action_inv(g)).any():
                raise ValueError("adjoint does not invert the group action")

    def apply(self, f: np.ndarray) -> np.ndarray:
        return mat_mul(self.F, self.gram_inv, mat_mul(self.F, f.T, self.gram))

    __call__ = apply


# -- the form <-> endomorphism dictionary ---------------------------------


def form_from_endo(B: GForm, f: np.ndarray) -> GForm:
    """The form B_f(x, y) = B(f x, y); Gram is f^T times the base Gram."""
    return GForm(B.module, mat_mul(B.F, f.T, B.gram), check=False)


def endo_from_form(B: GForm, other: GForm | np.ndarray) -> np.ndarray:
    """The f with B_f equal to the given form (B nondegenerate)."""
    gram2 = other.gram if isinstance(other, GForm) else other
    inv = linalg.inverse(B.F, B.gram)
    return mat_mul(B.F, gram2, inv).T.copy()


@dataclass
class InvariantForms:
    basis: list[np.ndarray]  # Gram matrices
    symmetric: list[np.ndarray]
    symplectic: list[np.ndarray]


def invariant_forms(M: ModuleRep, H: Subgroup | None = None) -> InvariantForms:
    """All H-invariant bilinear forms on M (H=None: the whole group),
    together with the symmetric and symplectic sub-slices."""
    F = M.F
    # invariance A^T.X.A = X  <=>  X.A = A^-T.X: X is a hom M -> M*
    basis = rep.hom_space(M, rep.dual(M), H)
    symmetric = _sub_slice(F, basis, symplectic=False)
    symp = _sub_slice(F, basis, symplectic=True)
    return InvariantForms(basis, symmetric, symp)


def _sub_slice(F, basis, symplectic: bool):
    if not basis:
        return []
    cols = []
    for b in basis:
        cond = (b ^ b.T).ravel()
        if symplectic:
            cond = np.concatenate([cond, np.diag(b)])
        cols.append(cond)
    return [combine(F, c, basis) for c in linalg.kernel(F, np.array(cols).T)]


def base_form(M: ModuleRep) -> GForm | None:
    """A nondegenerate invariant symmetric form on M, or None.

    Requires M indecomposable.  Nondegenerate forms are the isomorphisms
    M -> M* in the symmetric slice of Hom(M, M*); as E(M) is local, the
    non-isomorphisms form a subspace, so the first nondegenerate element
    of the canonical symmetric-slice basis exists exactly when any
    nondegenerate symmetric form does.
    """
    for g in invariant_forms(M).symmetric:
        if linalg.is_invertible(M.F, g):
            return GForm(M, g)
    return None


# -- orthogonality --------------------------------------------------------


def is_nondegenerate_on(B: GForm, L: Subspace) -> bool:
    """Whether no nonzero x in L has B(L, x) = 0: the restricted Gram is
    invertible (for any bilinear form, symmetric or not)."""
    return linalg.is_invertible(B.F, gram_on(B, L.basis))


def gram_on(B: GForm, basis: np.ndarray) -> np.ndarray:
    """Gram of the restriction of B to the row-basis of a subspace."""
    return mat_mul(B.F, basis, mat_mul(B.F, B.gram, basis.T))


def orth_projection(B: GForm, L: Subspace) -> np.ndarray:
    """The self-adjoint idempotent with image L and kernel L-perp.

    Requires L to be a submodule on which B is nondegenerate.
    """
    found = _gram_and_inverse(B, L)
    if found is None:
        raise ValueError("form is degenerate on the subspace")
    return _projection(B, L, found[1])


def _gram_and_inverse(B: GForm, L: Subspace) -> tuple[np.ndarray, np.ndarray] | None:
    """The restricted Gram of B on L and its inverse, or None when B is
    degenerate on L (`inverse` raises exactly when the Gram is singular)."""
    gram = gram_on(B, L.basis)
    try:
        return gram, linalg.inverse(B.F, gram)
    except ValueError:
        return None


def _projection(B: GForm, L: Subspace, gram_inv: np.ndarray) -> np.ndarray:
    """`orth_projection` from the inverse of the restricted Gram."""
    F, U = B.F, L.basis
    e = mat_mul(F, U.T, mat_mul(F, gram_inv, mat_mul(F, U, B.gram)))
    # G-invariance holds when L is a submodule; verify rather than assume
    for A in B.module.gen_matrices:
        if (mat_mul(F, e, A) != mat_mul(F, A, e)).any():
            raise ValueError("subspace is not a submodule")
    return e


# -- self-adjoint idempotent lifting --------------------------------------


def lift_selfadjoint_idempotent(
    E: EndoAlgebra, sigma: Adjoint, I: Subspace, a: np.ndarray
) -> np.ndarray:
    """Given a nil ideal I of E with sigma(I) = I and a idempotent and
    sigma-fixed modulo I, return an idempotent e = sigma(e) with e = a mod I:
    b = a.sigma(a) is sigma-fixed and congruent to a, and b^2 - b lies in I,
    so repeated squaring of b stabilizes at such an e.  ValueError when no
    lift exists (a is not idempotent or not sigma-fixed modulo I);
    AssertionError when the squares give no idempotent congruent to a,
    which means I is not nil."""
    F = E.module.F

    def in_I(x: np.ndarray) -> bool:
        return I.contains(x.ravel())

    if not in_I(mat_mul(F, a, a) ^ a):
        raise ValueError("element is not idempotent modulo the ideal")
    sa = sigma(a)
    if not in_I(sa ^ a):
        raise ValueError("element is not sigma-fixed modulo the ideal")
    s = rep.idempotent_power_exponent(E.dim)
    e = rep.lift_idempotent(F, mat_mul(F, a, sa), s)
    if (mat_mul(F, e, e) != e).any() or not in_I(e ^ a):
        raise AssertionError("no idempotent lift by squaring: the ideal is not nil")
    return e


# -- perfect pairings -----------------------------------------------------


@dataclass
class PairingCert:
    left: Subspace  # theta.M
    right: Subspace  # sigma(theta).M
    matrix: np.ndarray  # pairing values on the two bases
    perfect: bool
    duality: np.ndarray  # coords of right-basis images in the dual of left


def perfect_pairing(B: GForm, theta: np.ndarray) -> PairingCert:
    """The pairing (theta.m1, sigma(theta).m2) -> B(theta.m1, m2) together
    with the duality sigma(theta).M = (theta.M)* it induces."""
    F = B.F
    sigma = Adjoint(B)
    left = linalg.col_space(F, theta)
    right = linalg.col_space(F, sigma(theta))
    ts = sigma(theta)
    P = zeros(left.dim, right.dim)
    for j, w in enumerate(right.basis):
        m, _ = linalg.solve(F, ts, w)
        if m is None:
            raise AssertionError("basis vector outside the image")
        vals = mat_vec(F, mat_mul(F, left.basis, B.gram), m)
        P[:, j] = vals
    perfect = left.dim == right.dim and linalg.is_invertible(F, P)
    return PairingCert(left, right, P, perfect, P.T.copy())


# -- extension of forms from summands -------------------------------------


def extend_form_from_summand(
    B: GForm, e: np.ndarray, incl: np.ndarray, bhat: np.ndarray
) -> tuple[np.ndarray, GForm]:
    """Find theta in sigma(e).E(M).e whose form restricts to bhat on e.M.

    incl columns are a basis of e.M; bhat is the Gram of the target form in
    that basis.  Returns (theta, B_theta).
    """
    F = B.F
    sigma = Adjoint(B)
    # solve gives zero and dependent candidates the coefficient 0
    cand = [
        mat_mul(F, sigma(e), mat_mul(F, f, e))
        for f in rep.hom_space(B.module, B.module)
    ]
    # condition: incl^T theta^T gram incl = bhat, linear in the coefficients
    cols = []
    for t in cand:
        r = mat_mul(F, incl.T, mat_mul(F, t.T, mat_mul(F, B.gram, incl)))
        cols.append(r.ravel())
    x, _ = linalg.solve(F, np.array(cols).T, bhat.ravel())
    if x is None:
        raise AssertionError("no extension exists; form not invariant?")
    theta = combine(F, x, cand)
    return theta, form_from_endo(B, theta)


# -- induction of forms ---------------------------------------------------


def induce_form(
    L_form: GForm, H: Subgroup
) -> tuple[ModuleRep, GForm, list[int]]:
    """Induce (L, B_L) from H to its parent group.

    The induced Gram is block diagonal over the transversal, each block a
    copy of the Gram of B_L.  Returns (module, form, transversal).
    """
    M_ind, trans = rep.induce(L_form.module, H)
    F = L_form.F
    gram = linalg.kron(F, eye(len(trans)), L_form.gram)
    return M_ind, GForm(M_ind, gram), trans


@dataclass
class MackeyPiece:
    coset_rep: int
    intersection: Subgroup  # of K (as a subgroup of the parent group)
    module: ModuleRep  # induced to K (over K's standalone table)
    form: GForm
    offset: int


@dataclass
class MackeyDecomposition:
    res_module: ModuleRep  # Res_K Ind_H L over K's standalone table
    res_form: GForm
    pieces: list[MackeyPiece]
    witness: np.ndarray  # columns: images of the pieces' basis vectors
    verified: bool


def mackey_decompose(
    L_form: GForm, H: Subgroup, K: Subgroup
) -> MackeyDecomposition:
    """Res_K Ind_H (L, B_L) as the orthogonal sum over double cosets KgH of
    Ind_{K cap gHg^-1}^K of the conjugated restriction, with an explicit
    isometry witness."""
    G = H.parent
    F = L_form.F
    L = L_form.module
    Ht, helems = rep.subgroup_table(H)
    hidx = {x: i for i, x in enumerate(helems)}
    if L.group.order != Ht.order:
        raise ValueError("form's module is not over the subgroup H")
    M_ind, trans = rep.induce(L, H)
    _, coset, hid = rep.coset_split(H)
    gram_ind = linalg.kron(F, eye(len(trans)), L_form.gram)

    Kt, kelems = rep.subgroup_table(K)
    res_mats = [M_ind.action(kelems[g]) for g in Kt.generators]
    res_module = ModuleRep(Kt, F, res_mats, check=False)
    res_form = GForm(res_module, gram_ind, check=False)

    Lact = L.full_action()
    dl = L.dim
    pieces: list[MackeyPiece] = []
    cols: list[np.ndarray] = []
    offset = 0
    kpos = {x: i for i, x in enumerate(kelems)}
    in_H = H.mask()
    kel = np.array(kelems)
    for g in G.double_cosets(K, H):
        ginv = G.inverse(g)
        # K cap gHg^-1: the x in K with g^-1 x g in H
        inter_elems = kel[in_H[G.mult[G.mult[ginv, kel], g]]].tolist()
        Kg = Subgroup(G, tuple(inter_elems), None)
        # the same subgroup inside K's standalone table
        Kg_in_K = Subgroup(Kt, tuple(kpos[x] for x in inter_elems), None)
        KgT, kg_elems = rep.subgroup_table(Kg_in_K)
        # conjugated module gL over Kg: x acts as L(g^-1 x g)
        gmats = []
        for y in KgT.generators:
            x = kelems[kg_elems[y]]  # element of G
            h = G.mul(ginv, G.mul(x, g))
            gmats.append(Lact[hidx[h]])
        gL = ModuleRep(KgT, F, gmats, check=False)
        gL_form = GForm(gL, L_form.gram, check=False)
        piece_mod, ktrans = rep.induce(gL, Kg_in_K)
        piece_form = GForm(
            piece_mod, linalg.kron(F, eye(len(ktrans)), L_form.gram), check=False
        )
        pieces.append(MackeyPiece(g, Kg, piece_mod, piece_form, offset))
        offset += piece_mod.dim
        # witness columns: (coset k_i, basis e_l) -> k_i . (g tensor e_l)
        for ki in ktrans:
            x = G.mul(kelems[ki], g)
            blk, h = int(coset[x]), int(hid[x])
            for l in range(dl):
                col = zeros(M_ind.dim, 1).ravel()
                col[blk * dl : (blk + 1) * dl] = Lact[h][:, l]
                cols.append(col)
    W = np.array(cols).T
    verified = _verify_mackey(F, res_module, res_form, pieces, W)
    return MackeyDecomposition(res_module, res_form, pieces, W, verified)


def _verify_mackey(F, res_module, res_form, pieces, W) -> bool:
    if W.shape[0] != W.shape[1] or not linalg.is_invertible(F, W):
        return False
    # K-equivariance: W . blockdiag(piece actions) = res action . W
    for gi in range(len(res_module.gen_matrices)):
        blk = zeros(W.shape[1], W.shape[1])
        for p in pieces:
            d = p.module.dim
            blk[p.offset : p.offset + d, p.offset : p.offset + d] = (
                p.module.gen_matrices[gi]
            )
        if (mat_mul(F, W, blk) != mat_mul(F, res_module.gen_matrices[gi], W)).any():
            return False
    # isometry: W^T gram W = blockdiag of the pieces' Grams
    pulled = mat_mul(F, W.T, mat_mul(F, res_form.gram, W))
    expect = zeros(W.shape[1], W.shape[1])
    for p in pieces:
        d = p.module.dim
        expect[p.offset : p.offset + d, p.offset : p.offset + d] = p.form.gram
    return bool((pulled == expect).all())


# -- orthogonal decomposition ---------------------------------------------


@dataclass
class OrthPiece:
    space: Subspace  # in the coordinates of the original module
    kind: str  # "indecomposable" or "dual-pair"
    modules: list[ModuleRep]
    gram: np.ndarray  # of the restriction, in the row-basis of `space`


def orth_decompose(B: GForm, seed: int = 0) -> list[OrthPiece]:
    """Orthogonal decomposition into B-nondegenerate pieces, each either an
    indecomposable summand or an indecomposable-plus-dual pair.

    One Krull-Schmidt decomposition M = W_1 + ... + W_r, moved along a
    seeded automorphism when seed != 0 (the summands of a module are unique
    up to isomorphism, its internal decompositions are not).  Then greedy,
    in the coordinates of M: the piece P is W_1 when B is nondegenerate on
    it, else W_1 + W_j for the first partner W_j that makes B nondegenerate,
    those isomorphic to the dual of W_1 first (one `rep.module_iso` per
    isomorphism class of the decomposition).  The projection 1 + e onto
    P-perp, with e the orthogonal projection onto P, is a G-map with kernel
    P, and P meets the sum of the other summands in 0, so their images are
    a decomposition of P-perp into the same summands; the loop goes on with
    those.
    """
    if not B.symmetric or not B.nondegenerate:
        raise ValueError("orthogonal decomposition needs a nondegenerate symmetric form")
    F, M = B.F, B.module
    E = rep.end_algebra(M)
    cert = rep.decompose(M, seed=seed, endo=E)
    comps = [(c.subspace, c.module, c.iso_class) for c in cert.components]
    move = _seeded_automorphism(M, E.basis, seed) if seed else None
    pieces: list[OrthPiece] = []
    while comps:
        if move is not None:
            comps = [
                (Subspace(F, M.dim, mat_mul(F, S.basis, move.T)), m, i)
                for S, m, i in comps
            ]
        (P, m0, _), rest = comps[0], comps[1:]
        kind, mods = "indecomposable", [m0]
        found = _gram_and_inverse(B, P)
        if found is None:
            dual0 = rep.dual(m0)
            iso: dict[int, bool] = {}  # one module_iso per isomorphism class
            for _, m, i in rest:
                if i not in iso:
                    iso[i] = rep.module_iso(m, dual0) is not None
            for j in sorted(range(len(rest)), key=lambda j: not iso[rest[j][2]]):
                pair = P.add(rest[j][0])
                found = _gram_and_inverse(B, pair)
                if found is not None:
                    break
            else:
                raise AssertionError("no nondegenerate partner found")
            P = pair
            kind, mods = "dual-pair", [m0, rest.pop(j)[1]]
        gram, gram_inv = found
        pieces.append(OrthPiece(P, kind, mods, gram))
        comps = rest
        move = eye(M.dim) ^ _projection(B, P, gram_inv) if rest else None
    return pieces


def _seeded_automorphism(
    M: ModuleRep, basis: list[np.ndarray], seed: int
) -> np.ndarray | None:
    """A seeded random unit of the endomorphism algebra with the given
    basis, or None."""
    F = M.F
    rng = random.Random(seed)
    for c in coefficient_vectors(F.q, len(basis), rng, 50):
        u = combine(F, c, basis)
        if linalg.is_invertible(F, u):
            return u
    return None


# -- forms on the regular module ------------------------------------------


def regular_form(M: ModuleRep, a: np.ndarray) -> GForm:
    """B_a(x, y) = B_1(x.a, y) on the regular module, for a in kG.

    Symmetric iff a equals its contragredient; symplectic iff additionally
    the identity coefficient vanishes; nondegenerate iff a is a unit.
    """
    G = M.group
    if M.dim != G.order:
        raise ValueError("regular forms live on the regular module")
    return GForm(M, rep.right_mult_matrix(G, a).T, check=False)


def standard_form(M: ModuleRep) -> GForm:
    """The form making the group-element basis orthonormal."""
    a = np.zeros(M.group.order, dtype=np.int64)
    a[0] = 1
    return regular_form(M, a)


def involution_form(M: ModuleRep, t: int) -> GForm:
    """B_t for an element t with t^2 = 1: nondegenerate, symplectic if t != 1."""
    if M.group.mul(t, t) != 0:
        raise ValueError("element is not an involution")
    a = np.zeros(M.group.order, dtype=np.int64)
    a[t] = 1
    return regular_form(M, a)


def involution_component_test(
    G: GroupTable, s: int, t: int
) -> tuple[bool, int | None]:
    """Whether B_t takes a nonzero value on some (x, s.x) pair — equivalent
    to s and t being conjugate; tested on the group-element basis where
    B_t(g, s.g) = [g.t == s.g]."""
    for x in (s, t):
        if G.mul(x, x) != 0 or x == 0:
            raise ValueError("both elements must be involutions")
    # the least g with g.t == s.g: column t of the table against row s
    hits = np.flatnonzero(G.mult[:, t] == G.mult[s])
    return (True, int(hits[0])) if hits.size else (False, None)


def paired_module(M: ModuleRep) -> tuple[ModuleRep, GForm]:
    """The module M* + M with the evaluation pairing extended to a symplectic
    form vanishing on both summands."""
    F = M.F
    P = rep.direct_sum([rep.dual(M), M])
    d = M.dim
    gram = zeros(2 * d, 2 * d)
    gram[:d, d:] = eye(d)
    gram[d:, :d] = eye(d)
    return P, GForm(P, gram)


# -- serialization --------------------------------------------------------


def form_to_dict(B: GForm) -> dict:
    return {"gram": rep.matrix_to_hex(B.F, B.gram)}


def form_from_dict(data: dict, M: ModuleRep) -> GForm:
    gram = rep.matrix_from_hex(M.F, data["gram"], M.dim, M.dim)
    return GForm(M, gram)
