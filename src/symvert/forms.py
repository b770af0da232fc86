"""Invariant bilinear forms on modules of finite groups in characteristic 2.

A form is stored as a Gram matrix tied to its module.  The central dictionary
is form <-> endomorphism: for a fixed nondegenerate base form B with Gram g,
every invariant form is B_f(x, y) = B(f x, y) with Gram f^T.g, and the adjoint
anti-automorphism sigma(f) = g^-1.f^T.g turns the endomorphism algebra into an
involutary algebra; f = sigma(f) exactly when g.f is symmetric.  On top of that
sit nondegeneracy on subspaces (by the restricted Gram) and orthogonal
projections, self-adjoint idempotent lifting, induced forms, and the greedy
orthogonal decomposition into nondegenerate pieces (indecomposable summands or
dual pairs).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import linalg, rep
from .field import FieldCtx
from .group import Subgroup
from .linalg import Subspace, eye, mat_mul
from .rep import EndoAlgebra, ModuleRep


class GForm:
    """A bilinear form on a module, stored as a Gram matrix.

    The Gram is trusted to be invariant: the library builds every form from
    invariant ones, and `is_invariant` checks it where that is the question.
    """

    def __init__(self, module: ModuleRep, gram: np.ndarray):
        self.module = module
        self.F = module.F
        self.gram = np.asarray(gram, dtype=np.int64)
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
        self.F = form.F
        self.gram = form.gram
        self.gram_inv = linalg.inverse(self.F, form.gram)
        # sigma(A) = A^-1 exactly when A^T.P.A = P: invariance, per generator
        if not form.is_invariant():
            raise ValueError("adjoint does not invert the group action")

    def apply(self, f: np.ndarray) -> np.ndarray:
        return mat_mul(self.F, self.gram_inv, mat_mul(self.F, f.T, self.gram))

    __call__ = apply


# -- the form <-> endomorphism dictionary ---------------------------------


def form_from_endo(B: GForm, f: np.ndarray) -> GForm:
    """The form B_f(x, y) = B(f x, y); Gram is f^T times the base Gram."""
    return GForm(B.module, mat_mul(B.F, f.T, B.gram))


def endo_from_form(B: GForm, other: GForm | np.ndarray) -> np.ndarray:
    """The f with B_f equal to the given form (B nondegenerate)."""
    gram2 = other.gram if isinstance(other, GForm) else other
    inv = linalg.inverse(B.F, B.gram)
    return mat_mul(B.F, gram2, inv).T.copy()


@dataclass
class InvariantForms:
    F: FieldCtx
    basis: list[np.ndarray]  # Gram matrices
    symmetric: list[np.ndarray]

    @functools.cached_property
    def symplectic(self) -> list[np.ndarray]:
        """The symplectic slice, solved on first read."""
        return symmetric_slice(self.F, self.basis, alternating=True)


def invariant_forms(M: ModuleRep) -> InvariantForms:
    """All invariant bilinear forms on M, together with the symmetric and
    symplectic sub-slices; the H-invariant forms are those of
    `rep.restrict(M, H)`."""
    # invariance A^T.X.A = X  <=>  X.A = A^-T.X: X is a hom M -> M*
    basis = rep.hom_space(M, rep.dual(M))
    return InvariantForms(M.F, basis, symmetric_slice(M.F, basis))


def symmetric_slice(F: FieldCtx, X, of=None, alternating: bool = False) -> list:
    """The combinations of the square X_i that are symmetric (alternating:
    with zero diagonal too), taken of the stack `of` (X by default): the
    `linalg.kernel` of the strict upper triangles of the X_i + X_i^T, which
    in characteristic 2 are symmetric with zero diagonal (the X_i's own
    diagonals appended when alternating), times `of` in one product."""
    X = np.asarray(X)
    if not len(X):
        return []
    of = X if of is None else np.asarray(of)
    i, j = np.triu_indices(X.shape[1], 1)
    cond = X[:, i, j] ^ X[:, j, i]
    if alternating:
        cond = np.concatenate([cond, np.diagonal(X, axis1=1, axis2=2)], axis=1)
    K = linalg.kernel(F, cond.T)
    flat = of.reshape(len(of), of[0].size)
    return list(mat_mul(F, K, flat).reshape(len(K), *of.shape[1:]))


def base_form(M: ModuleRep) -> GForm | None:
    """A nondegenerate invariant symmetric form on M, or None.

    Requires M indecomposable.  Nondegenerate forms are the isomorphisms
    M -> M* in the symmetric slice of Hom(M, M*); as E(M) is local, the
    non-isomorphisms form a subspace, so the first nondegenerate element
    of the canonical symmetric-slice basis exists exactly when any
    nondegenerate symmetric form does.
    """
    for B in (GForm(M, g) for g in invariant_forms(M).symmetric):
        if B.nondegenerate:  # cached: sigma_fixed_basis reads it again
            return B
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


# -- induction of forms ---------------------------------------------------


def induce_form(
    L_form: GForm, H: Subgroup
) -> tuple[ModuleRep, GForm, list[int]]:
    """Induce (L, B_L) from H to its parent group.

    The induced Gram is block diagonal over the transversal, each block a
    copy of the Gram of B_L; it is invariant when B_L is.  Returns
    (module, form, transversal).
    """
    M_ind, trans = rep.induce(L_form.module, H)
    gram = linalg.kron(L_form.F, eye(len(trans)), L_form.gram)
    return M_ind, GForm(M_ind, gram), trans


# -- orthogonal decomposition ---------------------------------------------


@dataclass
class OrthPiece:
    space: Subspace  # in the coordinates of the original module
    kind: str  # "indecomposable" or "dual-pair"
    modules: list[ModuleRep]
    gram: np.ndarray  # of the restriction, in the row-basis of `space`


def orth_decompose(B: GForm) -> list[OrthPiece]:
    """Orthogonal decomposition into B-nondegenerate pieces, each either an
    indecomposable summand or an indecomposable-plus-dual pair.

    One Krull-Schmidt decomposition M = W_1 + ... + W_r, then greedy,
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
    cert = rep.decompose(M)
    comps = [(c.subspace, c.module, c.iso_class) for c in cert.components]
    pieces: list[OrthPiece] = []
    while comps:
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
        if rest:
            move = eye(M.dim) ^ _projection(B, P, gram_inv)
            rest = [(Subspace(F, M.dim, mat_mul(F, S.basis, move.T)), m, i)
                    for S, m, i in rest]
        comps = rest
    return pieces


# -- forms on the regular module ------------------------------------------


def regular_form(M: ModuleRep, a: np.ndarray) -> GForm:
    """B_a(x, y) = B_1(x.a, y) on the regular module, for a in kG.

    Symmetric iff a equals its contragredient; symplectic iff additionally
    the identity coefficient vanishes; nondegenerate iff a is a unit.
    """
    G = M.group
    if M.dim != G.order:
        raise ValueError("regular forms live on the regular module")
    return GForm(M, rep.right_mult_matrix(G, a).T)


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
