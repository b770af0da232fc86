"""Modules over a group algebra and their category.

A ModuleRep stores one invertible matrix per group generator; the action of
the whole group is built on demand, one level of the Cayley graph's
breadth-first tree at a time, and kept as one read-only array.  Hom spaces
come from one Kronecker system when dim M . dim N is small and from the
standard-basis spin above that, with the same basis either way.
The decomposition machinery splits the endomorphism algebra E (idempotent
style) and reads E/J(E) through one linear map `Semisimple` whose kernel
is J(E).  For a general module that map comes from a composition series of
the module under E: over the series' adapted basis every element of E is
block triangular, and an element modulo J(E) is its diagonal blocks.  For
kG, `regular_end_algebra` carries the map through the irreducibles'
actions instead, with the irreducibles found by tensor closure from a
faithful module, so kG itself is never chopped.  Through that one map:
find a separating element of E/J(E), lift an idempotent with the
repeated-squaring device, and recurse on both summands, each corner
reading its own quotient through the same map composed with its inclusion.
`local_quotient` decides whether E is local from one simple E-submodule,
and then that submodule's map reads E/J(E); a module keeps its own as
`ModuleRep.unit_map`, read at most once.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
from dataclasses import dataclass

import numpy as np

from . import linalg, polys
from .field import FieldCtx, make_field
from .group import GroupTable, Subgroup
from .linalg import Subspace, coefficient_vectors, combine, eye, mat_mul, zeros


class ModuleRep:
    def __init__(self, group: GroupTable, F: FieldCtx, gen_matrices: list[np.ndarray]):
        """Trusts its matrices to be invertible and to satisfy the relations:
        `module_from_dict` checks a file's; the rest are built from checked ones."""
        self.group = group
        self.F = F
        if len(gen_matrices) != len(group.generators):
            raise ValueError("one matrix per group generator required")
        if not gen_matrices:
            raise ValueError("groups must have at least one generator")
        self.gen_matrices = [np.asarray(A, dtype=np.int64) for A in gen_matrices]
        self.dim = self.gen_matrices[0].shape[0]
        self._action: np.ndarray | None = None

    def full_action(self) -> np.ndarray:
        """rho(x) for every element x, one read-only (|G|, d, d) array.

        Built level by level on the breadth-first tree of the Cayley graph:
        a new element y is first reached as y = x g, x in the level before
        (in order) and g a generator (in order), and rho(y) = rho(x) A_g,
        one stacked product per generator per level."""
        if self._action is None:
            G, F, d = self.group, self.F, self.dim
            acts = np.empty((G.order, d, d), dtype=np.int64)
            acts[0] = eye(d)
            cols = [G.mult[:, g].tolist() for g in G.generators]
            seen, level = {0}, [0]
            while level:
                reached = [([], []) for _ in cols]  # per generator: x, then y = x g
                nxt = []
                for x in level:
                    for (xs, ys), col in zip(reached, cols):
                        if (y := col[x]) not in seen:
                            seen.add(y)
                            xs.append(x)
                            ys.append(y)
                            nxt.append(y)
                for (xs, ys), A in zip(reached, self.gen_matrices):
                    if xs:
                        prod = mat_mul(F, acts[xs].reshape(len(xs) * d, d), A)
                        acts[ys] = prod.reshape(len(ys), d, d)
                level = nxt
            if len(seen) != G.order:
                raise ValueError("generators do not generate the group")
            acts.setflags(write=False)
            self._action = acts
        return self._action

    @functools.cached_property
    def unit_map(self) -> Semisimple | None:
        """psi of `local_quotient` for E_G(M), read once and kept: nonzero
        exactly on the units of the local algebra E_G(M); None when M is
        decomposable."""
        return local_quotient(end_algebra(self))

    def action(self, x: int) -> np.ndarray:
        return self.full_action()[x]

    def action_inv(self, x: int) -> np.ndarray:
        return self.full_action()[self.group.inverse(x)]

    def __repr__(self) -> str:
        return f"ModuleRep(dim={self.dim}, |G|={self.group.order})"


# -- constructors ---------------------------------------------------------


def trivial_module(G: GroupTable, F: FieldCtx) -> ModuleRep:
    one = eye(1)
    return ModuleRep(G, F, [one.copy() for _ in G.generators])


def regular_module(G: GroupTable, F: FieldCtx) -> ModuleRep:
    """Left regular module: g sends basis vector e_x to e_{gx}."""
    mats = [left_mult_matrix(G, e) for e in eye(G.order)[G.generators]]
    return ModuleRep(G, F, mats)


def permutation_module(G: GroupTable, F: FieldCtx) -> ModuleRep:
    """Natural permutation module (groups loaded from permutations only)."""
    if G.perms is None:
        raise ValueError("group has no permutation labels")
    pts = len(G.perms[0])
    mats = []
    for g in G.generators:
        p = G.perms[g]
        A = zeros(pts, pts)
        for i in range(pts):
            A[p[i], i] = 1
        mats.append(A)
    return ModuleRep(G, F, mats)


def dual(M: ModuleRep) -> ModuleRep:
    mats = [linalg.inverse(M.F, A).T.copy() for A in M.gen_matrices]
    return ModuleRep(M.group, M.F, mats)


def direct_sum(mods: list[ModuleRep]) -> ModuleRep:
    G, F = mods[0].group, mods[0].F
    mats = []
    for i, g in enumerate(G.generators):
        blocks = [m.gen_matrices[i] for m in mods]
        d = sum(b.shape[0] for b in blocks)
        A = zeros(d, d)
        off = 0
        for b in blocks:
            k = b.shape[0]
            A[off : off + k, off : off + k] = b
            off += k
        mats.append(A)
    return ModuleRep(G, F, mats)


def restrict(M: ModuleRep, H: Subgroup) -> ModuleRep:
    """M as a module for H (over H's own standalone table): the one reader
    of H's generators from the whole-group action."""
    Ht, elems = subgroup_table(H)
    mats = [M.action(elems[g]) for g in Ht.generators]
    return ModuleRep(Ht, M.F, mats)


def subgroup_table(H: Subgroup) -> tuple[GroupTable, list[int]]:
    """H's standalone table and id-to-parent map, cached on the parent."""
    cache = H.parent.subgroup_tables
    if H.elements not in cache:
        cache[H.elements] = H.as_table()
    return cache[H.elements]


def induce(L: ModuleRep, H: Subgroup) -> tuple[ModuleRep, list[int]]:
    """Induced module over H's parent; returns it with the transversal used.

    Block structure: coset block for transversal element t holds t(x)L; the
    action of g sends block t to block t' where g t = t' h, acting by L(h).
    """
    G = H.parent
    Ht, elems = subgroup_table(H)
    if L.group.order != Ht.order:
        raise ValueError("module is not over the given subgroup")
    trans, coset, hid = coset_split(H)
    acts = L.full_action()
    k, dl, r = len(trans), L.dim, len(G.generators)
    gt = G.mult[np.ix_(G.generators, trans)]  # g t_j = t_i h: block (i, j) is L(h)
    A = np.zeros((r, k, k, dl, dl), dtype=np.int64)
    A[np.arange(r)[:, None], coset[gt], np.arange(k)] = acts[hid[gt]]
    mats = list(A.transpose(0, 1, 3, 2, 4).reshape(r, k * dl, k * dl))
    return ModuleRep(G, L.F, mats), trans


def coset_split(H: Subgroup) -> tuple[list[int], np.ndarray, np.ndarray]:
    """H's left transversal, and for every element x of the parent group
    the position i in it and the id h in H's own table with x = t_i h."""
    G = H.parent
    _, elems = subgroup_table(H)
    trans = G.left_transversal(H)
    x = G.mult[np.ix_(trans, elems)]
    coset = np.empty(G.order, dtype=np.int64)
    hid = np.empty(G.order, dtype=np.int64)
    coset[x] = np.arange(len(trans))[:, None]
    hid[x] = np.arange(len(elems))
    return trans, coset, hid


def sub_module(M: ModuleRep, S: Subspace) -> tuple[ModuleRep, np.ndarray, np.ndarray]:
    """Compress a G-stable subspace; returns (module, incl d x c, proj c x d)."""
    mats, incl, proj = _compress_action(M.F, M.gen_matrices, S)
    return ModuleRep(M.group, M.F, mats), incl, proj


def quotient_module(M: ModuleRep, S: Subspace) -> tuple[ModuleRep, np.ndarray]:
    """M/S; returns (module, projection c x d sending v to its coordinates)."""
    mats, proj, _ = _quotient_action(M.F, M.gen_matrices, S)
    return ModuleRep(M.group, M.F, mats), proj


# -- hom spaces and endomorphism algebras ---------------------------------


# Hom spaces of at most this many unknowns, dim M . dim N, are solved as one
# Kronecker system, larger ones by spinning.  Measured on a 2-core Xeon with
# one BLAS thread, the median per call over Hom spaces of S4, A4, SL(2,3)
# and S5 modules, over G and over a Sylow 2-subgroup: over GF(4) the
# Kronecker route takes 26 us at 1 unknown, 210 us at 16 and 866 us at 60
# against the spin route's 111, 449 and 1,024 us, and loses from 64 on
# (934 against 824 us; 3.0 against 1.6 ms at 144).  Over GF(2) it wins up
# to about 100 unknowns (1.3 against 1.2 ms at 128).  One bound serves both
# fields; at 62 every GF(2) condition row packs into one int64 word in
# `linalg.rref`, and the system holds (generators . 62) x 62 entries.
HOM_KRON_UNKNOWNS = 62


def hom_space(M: ModuleRep, N: ModuleRep) -> list[np.ndarray]:
    """Basis of {X : X rho_M(g) = rho_N(g) X for g in G}, solved over G's
    generators; Hom over a subgroup H is Hom of the restrictions,
    `hom_space(restrict(M, H), restrict(N, H))`.

    The basis is the one `linalg.kernel` gives for the equations on the
    row-major vec(X), by either of two routes that give it byte for byte:
    `_hom_by_kron` solves those equations themselves when dim M . dim N is
    at most HOM_KRON_UNKNOWNS, and `_hom_by_spin` solves fewer unknowns by
    the standard-basis method above that.  A pair of identities (any
    generator of the trivial group) gives no equations; with no other pair
    every X is a hom, and the basis is the unit matrices in row-major order."""
    one_m, one_n = eye(M.dim), eye(N.dim)
    pairs = [(A, B) for A, B in zip(M.gen_matrices, N.gen_matrices)
             if not (np.array_equal(A, one_m) and np.array_equal(B, one_n))]
    if not pairs:
        return list(eye(N.dim * M.dim).reshape(-1, N.dim, M.dim))
    small = M.dim * N.dim <= HOM_KRON_UNKNOWNS
    return (_hom_by_kron if small else _hom_by_spin)(M.F, pairs)


def _hom_by_kron(F: FieldCtx, pairs: list[tuple]) -> list[np.ndarray]:
    """Hom from one Kronecker system: X A = B X on the row-major vec(X) is
    (I (x) A^T + B (x) I) vec(X) = 0, one block of rows per pair (A, B).
    Each row of its `linalg.kernel` basis has its 1 at a free column, its
    own last nonzero one, zeros at the other free columns, and the free
    columns increase: the form `linalg.reverse_rref` gives, as it stands."""
    A = np.array([a for a, _ in pairs])
    B = np.array([b for _, b in pairs])
    dm, dn = A.shape[1], B.shape[1]
    # rows (g, i, a), columns (j, b): delta_ij A_g[b, a] + B_g[i, j] delta_ab;
    # each term has a 0/1 factor, so no field product is needed
    sys = np.einsum("ij,gba->giajb", eye(dn), A)
    sys ^= np.einsum("gij,ab->giajb", B, eye(dm))
    Y = linalg.kernel(F, sys.reshape(len(pairs) * dn * dm, dn * dm))
    return list(Y.reshape(len(Y), dn, dm))


def _hom_by_spin(F: FieldCtx, pairs: list[tuple]) -> list[np.ndarray]:
    """Hom by the standard-basis method (Lux & Szoke 2003; Parker's
    MeatAxe): spin M from the unit vectors not yet in the span.  A hom is
    fixed by the images y_s of these seeds: it sends b_k = A_g b_parent to
    W_k y_seed(k), with W_k the same word in N's matrices, and each
    relation A_g b_i = sum c_k b_k is a linear condition on the y's.  The
    hom basis this solves for is brought to `linalg.kernel`'s form by
    `linalg.reverse_rref`."""
    dm, dn = pairs[0][0].shape[0], pairs[0][1].shape[0]
    # a new vector's images under all generators: v.[A_g^T] and [B_g].W
    side = np.hstack([A.T for A, _ in pairs])
    stacked = np.concatenate([B for _, B in pairs])
    # spun vectors carry their coordinates over the spun basis as trailing
    # columns, so a vector already in the span reduces to its relation
    ech = linalg.Echelon(F, dm)
    pad = zeros(1, dm).ravel()
    spun, words, seeds = [], [], []  # b_k, W_k and the seed of b_k
    rels = []  # (c, B_g W_i, seed of b_i) for A_g b_i = sum c_k b_k
    r = 0
    for e in eye(dm):
        if len(spun) == dm:
            break
        if not ech.reduce(np.concatenate([e, pad]))[:dm].any():
            continue
        todo = [(e, eye(dn))]
        while todo:
            v, W = todo.pop()
            w = ech.reduce(np.concatenate([v, pad]))
            if w[:dm].any():
                w[dm + len(spun)] = 1
                ech.append(w)
                spun.append(v)
                words.append(W)
                seeds.append(r)
                todo += zip(mat_mul(F, v[None], side).reshape(-1, dm),
                            mat_mul(F, stacked, W).reshape(-1, dn, dn))
            else:
                rels.append((w[dm:], W, r))
        r += 1
    words, seeds = np.array(words), np.array(seeds)
    # rows: relation, then row of N; columns: seed, then entry of y_seed
    sys = zeros(len(rels) * dn, r * dn)
    C = np.array([c for c, _, _ in rels], dtype=np.int64).reshape(-1, dm)
    for s in range(r):
        on = seeds == s
        blk = mat_mul(F, C[:, on], words[on].reshape(-1, dn * dn))
        sys[:, s * dn : (s + 1) * dn] = blk.reshape(-1, dn)
    for i, (_, BW, s) in enumerate(rels):
        sys[i * dn : (i + 1) * dn, s * dn : (s + 1) * dn] ^= BW
    Y = linalg.kernel(F, sys)
    # X S has column k equal to W_k y_seed(k), where S has columns b_k
    XS = np.zeros((len(Y), dn, dm), dtype=np.int64)
    for k, s in enumerate(seeds):
        XS[:, :, k] = mat_mul(F, Y[:, s * dn : (s + 1) * dn], words[k].T)
    S_inv = linalg.inverse(F, np.array(spun).T)
    X = mat_mul(F, XS.reshape(-1, dm), S_inv).reshape(len(Y), dn * dm)
    return [v.reshape(dn, dm) for v in linalg.reverse_rref(F, X)]


@dataclass
class EndoAlgebra:
    """Endomorphism algebra of a module, on an independent basis.

    `quotient`, when set, is the map reading E/J(E) that `Semisimple.of`
    returns instead of chopping the module; it lives on this instance."""

    module: ModuleRep
    basis: list[np.ndarray]
    quotient: Semisimple | None = None

    @property
    def dim(self) -> int:
        return len(self.basis)


def end_algebra(M: ModuleRep, basis: list[np.ndarray] | None = None) -> EndoAlgebra:
    return EndoAlgebra(M, hom_space(M, M) if basis is None else basis)


def regular_end_algebra(G: GroupTable, F: FieldCtx, M: ModuleRep) -> EndoAlgebra:
    """E_G(kG) = all right multiplications r(x): v -> v.x (basis for free),
    with its map onto E/J(E) through the irreducibles: r(a) sends the
    identity (id 0) to a, and A.a, A from `_irreducible_actions`, is the
    action of a on the irreducibles, zero exactly for a in J(kG).  Each
    row of A is labelled by its irreducible."""
    basis = [right_mult_matrix(G, e) for e in eye(G.order)]
    (A, heads), e0 = _irreducible_actions(G, F), eye(G.order)[:, :1]
    ss = Semisimple(F, A, e0, np.ones((len(A), 1), dtype=bool), heads)
    # r(x) has its 1s at (y x, y), so the r(x) have disjoint supports and
    # are independent
    return EndoAlgebra(M, basis, quotient=ss)


# kG multiplies on the group-element basis through the table: the
# coefficient of r in a.b is the sum over y of a[r y^-1] b[y], which is
# also the sum over y of a[y] b[y^-1 r]


def right_mult_matrix(G: GroupTable, a: np.ndarray) -> np.ndarray:
    """The matrix of v -> v.a on kG: entry (r, y) is a[y^-1 r]."""
    return np.asarray(a, dtype=np.int64)[G.mult[G.inv]].T


def left_mult_matrix(G: GroupTable, a: np.ndarray) -> np.ndarray:
    """The matrix of v -> a.v on kG: entry (r, y) is a[r y^-1]."""
    return np.asarray(a, dtype=np.int64)[G.mult[:, G.inv]]


# -- MeatAxe-style chop ---------------------------------------------------


def spin(F: FieldCtx, vecs: np.ndarray, gens: list[np.ndarray]) -> Subspace:
    """Smallest gens-stable subspace containing the given row vectors.

    Frontier spin: one product clears the pivots of the fully reduced basis
    from a whole frontier, `rref` turns what is left into the new basis
    rows, and their images make the next frontier, from one product with
    the generators side by side."""
    front = np.atleast_2d(np.asarray(vecs, dtype=np.int64))
    n = front.shape[1]
    side = np.hstack([A.T for A in gens]) if gens else zeros(n, 0)
    basis, pivots = zeros(0, n), []
    while len(front):
        if pivots:
            front = front ^ mat_mul(F, front[:, pivots], basis)
        R, new_pivots = linalg.rref(F, front)
        if not new_pivots:
            break
        new = R[: len(new_pivots)]
        if pivots:  # clear the new pivot columns from the old rows
            basis ^= mat_mul(F, basis[:, new_pivots], new)
        basis, pivots = np.vstack([basis, new]), pivots + new_pivots
        if len(pivots) == n:
            break
        front = mat_mul(F, new, side).reshape(-1, n)
    order = np.argsort(pivots)
    S = Subspace(F, n, None)
    S.basis, S.pivots = basis[order], [pivots[i] for i in order]
    return S


def chop(
    F: FieldCtx, gens: list[np.ndarray], dim: int, seed: int = 0
) -> list[tuple[list[np.ndarray], np.ndarray]]:
    """Composition factors of k^dim under the algebra generated by gens, in
    order from the bottom: each factor's generator matrices and its basis
    lifted to k^dim as rows.  Every prefix of the lifts spans a term of the
    series, and the lifts together are a basis of k^dim."""
    factors = []
    # (generators, dim, lift to k^dim as rows, seed): the submodule is
    # pushed last, so it pops first and the factors come from the bottom
    todo = [(gens, dim, eye(dim), seed)]
    while todo:
        gens_c, d, lift, s = todo.pop()
        if d == 0:
            continue
        W = _proper_submodule(F, gens_c, d, s)
        if W is None:
            factors.append((gens_c, lift))
            continue
        sub = Subspace(F, d, W)
        subM, _, _ = _compress_action(F, gens_c, sub)
        quoM, _, qincl = _quotient_action(F, gens_c, sub)
        todo += [
            (quoM, d - sub.dim, mat_mul(F, qincl, lift), s + 1),
            (subM, sub.dim, mat_mul(F, sub.basis, lift), s + 1),
        ]
    return factors


def _compress_action(F, gens, sub: Subspace):
    """Action on a stable subspace in its rref-basis coordinates; returns
    (matrices, incl d x c, proj c x d)."""
    incl = sub.basis.T.copy()
    proj = zeros(sub.dim, sub.ambient)
    proj[range(sub.dim), sub.pivots] = 1
    # one product of the stacked generators; proj only selects pivot rows
    k, d = len(gens), sub.ambient
    stacked = np.concatenate(gens) if gens else zeros(0, d)
    images = mat_mul(F, stacked, incl).reshape(k, d, sub.dim)
    return list(images[:, sub.pivots]), incl, proj


def _quotient_action(F, gens, sub: Subspace):
    """Action on the quotient by a stable subspace, in the coordinates of
    the free columns; returns (matrices, proj c x d, complement rows c x d).

    proj reads a vector's canonical representative modulo sub off the free
    columns: the free entries stay, and each pivot entry contributes its
    basis row's free entries (the sign is irrelevant in characteristic 2).
    """
    free = linalg.free_columns(sub)
    comp = eye(sub.ambient)[free]
    proj = comp.copy()
    proj[:, sub.pivots] = sub.basis[:, free].T
    # one product with the generators side by side, split back per generator
    k, c = len(gens), len(free)
    side = np.hstack([A[:, free] for A in gens]) if gens else zeros(sub.ambient, 0)
    images = mat_mul(F, proj, side)
    return list(images.reshape(c, k, c).transpose(1, 0, 2).copy()), proj, comp


def _random_algebra_element(F, gens, rng, pool: list[np.ndarray]) -> np.ndarray:
    n = gens[0].shape[0]
    if rng.random() < 0.5 and len(pool) >= 2:
        a = pool[rng.randrange(len(pool))]
        b = pool[rng.randrange(len(pool))]
        x = mat_mul(F, a, b)
    else:
        x = combine(F, [rng.randrange(F.q) for _ in gens], gens)
        if rng.random() < 0.5:
            x ^= F.vscale(rng.randrange(1, F.q), eye(n))
    pool.append(x)
    if len(pool) > 16:
        pool.pop(0)
    return x


def _proper_submodule(
    F: FieldCtx, gens: list[np.ndarray], d: int, seed: int
) -> np.ndarray | None:
    """A basis of a proper nonzero submodule, or None when irreducible."""
    if d == 1:
        return None
    if not gens:
        e = zeros(1, d)
        e[0, 0] = 1
        return e
    rng = random.Random(seed)
    pool = list(gens)
    gensT = [A.T.copy() for A in gens]
    for _ in range(500):
        a = _random_algebra_element(F, gens, rng, pool)
        mu = linalg.min_poly(F, a)
        for p in polys.factor(F, mu):
            pa = polys.eval_matrix(F, p, a)
            ker = linalg.kernel(F, pa)  # nonzero: p divides mu, so p(a) is singular
            for v in ker:
                S = spin(F, v.reshape(1, -1), gens)
                if S.dim < d:
                    return S.basis
            # all null vectors generate; apply the dual test when the
            # nullity is minimal (one-dimensional over k[x]/p)
            if ker.shape[0] == polys.deg(p):
                kerT = linalg.kernel(F, pa.T)
                w = kerT[0]
                ST = spin(F, w.reshape(1, -1), gensT)
                if ST.dim == d:
                    return None  # certified irreducible
                # perp of the dual submodule is a proper submodule
                perp = linalg.kernel(F, ST.basis)
                if 0 < perp.shape[0] < d:
                    return perp
    raise AssertionError("chop failed to make progress")


# -- radical and decomposition --------------------------------------------


@dataclass
class Semisimple:
    """E/J(E) read through one map: x -> the masked entries of L.x.R, a
    linear map whose kernel is J(E).

    Through a composition series (`of`): R = Q has the lifts of a
    composition series of the module under E as columns and L = Q^-1, so
    L.x.R is block upper triangular for every x in E, its diagonal blocks
    (the mask) are x on the factors, and J(E) is exactly the set of x whose
    diagonal blocks are zero.  For kG (`regular_end_algebra`), L is the
    irreducibles' actions and R the identity's unit column, all read.  A
    corner's map composes this with the corner's incl and proj into E's
    coordinates; J(fEf) = f.J(E).f is then its kernel too.  Callers use
    only that kernel and `heads_of`, so either map gives the same outputs.

    `heads` labels each row of L by the simple E-module it reads (the
    factor, or kG's irreducible).  A primitive f acts as nonzero on just
    the simples isomorphic to the head of E.f, and M is faithful, so
    f.M = f'.M exactly when f and f' have the same first label."""

    F: FieldCtx
    L: np.ndarray  # p x c
    R: np.ndarray  # c x q
    mask: np.ndarray  # p x q, True on the entries read
    heads: np.ndarray  # p, the label of the simple module each row reads

    @classmethod
    def of(cls, E: EndoAlgebra, seed: int) -> Semisimple:
        if E.quotient is not None:
            return E.quotient
        F = E.module.F
        factors = chop(F, E.basis, E.module.dim, seed=seed)
        Q = np.concatenate([lift for _, lift in factors]).T
        sizes = [len(lift) for _, lift in factors]
        block = np.repeat(np.arange(len(sizes)), sizes)
        return cls(F, linalg.inverse(F, Q), Q, block[:, None] == block, block)

    def images(self, mats: list[np.ndarray]) -> np.ndarray:
        """One row per matrix: its masked entries, flattened."""
        F, (p, c), q = self.F, self.L.shape, self.R.shape[1]
        right = mat_mul(F, np.concatenate(mats), self.R).reshape(len(mats), c, q)
        both = mat_mul(F, self.L, right.transpose(1, 0, 2).reshape(c, -1))
        both = both.reshape(p, len(mats), q)
        return both.transpose(1, 0, 2)[:, self.mask]

    def read(self, Y: np.ndarray) -> np.ndarray:
        """x's image from Y = x.R alone: the masked entries of L.Y."""
        return mat_mul(self.F, self.L, Y)[self.mask]

    def heads_of(self, mats: list[np.ndarray]) -> np.ndarray:
        """Each matrix's label: the head of the first row of L at which its
        image is nonzero.  No matrix may lie in the kernel."""
        rows = np.nonzero(self.mask)[0]
        return self.heads[rows[(self.images(mats) != 0).argmax(axis=1)]]

    def corner(self, incl: np.ndarray, proj: np.ndarray) -> Semisimple:
        """The map of a corner whose elements y sit in this one as incl.y.proj."""
        F = self.F
        L, R = mat_mul(F, self.L, incl), mat_mul(F, proj, self.R)
        return Semisimple(F, L, R, self.mask, self.heads)

    def kernel(self, E: EndoAlgebra) -> list[np.ndarray]:
        """J(E): the elements of E that the map sends to zero, as the
        products of its coefficient vectors with E's flattened basis.  The
        product runs over bands of rows, about 2^18 basis entries a band,
        so no flattened copy of the whole basis is made."""
        coeffs = linalg.kernel(self.F, self.images(E.basis).T)
        d, e = E.basis[0].shape
        out = np.empty((len(coeffs), d, e), dtype=np.int64)
        rows = max(1, (1 << 18) // (E.dim * e))
        for r in range(0, d, rows):
            band = np.stack([x[r : r + rows] for x in E.basis]).reshape(E.dim, -1)
            part = out[:, r : r + rows]
            part[...] = mat_mul(self.F, coeffs, band).reshape(part.shape)
        return list(out)


def radical(E: EndoAlgebra, seed: int = 0) -> list[np.ndarray]:
    """Basis of the Jacobson radical of E (as matrices): the elements acting
    as zero on every factor of a composition series of the module under E."""
    return Semisimple.of(E, seed).kernel(E)


def semisimple_quotient(E: EndoAlgebra, ss: Semisimple) -> list[np.ndarray]:
    """The first elements of E.basis that are independent modulo J(E), a
    basis of E/J(E) read through the map ss."""
    pivots = linalg.rref(E.module.F, ss.images(E.basis).T)[1]
    return [E.basis[i] for i in pivots]


@dataclass
class Component:
    subspace: Subspace
    idempotent: np.ndarray
    module: ModuleRep
    incl: np.ndarray
    proj: np.ndarray
    iso_class: int = -1


@dataclass
class DecompositionCert:
    """The summands of a module, grouped by isomorphism class."""

    module: ModuleRep
    components: list[Component]
    multiplicities: list[int]  # per iso class

    def verify(self) -> bool:
        F = self.module.F
        total = eye(self.module.dim)
        s = zeros(self.module.dim, self.module.dim)
        for c in self.components:
            e = c.idempotent
            if (mat_mul(F, e, e) != e).any():
                return False
            s ^= e
        if (s != total).any():
            return False
        for i, a in enumerate(self.components):
            for j, b in enumerate(self.components):
                if i != j and mat_mul(F, a.idempotent, b.idempotent).any():
                    return False
        return sum(c.module.dim for c in self.components) == self.module.dim


def idempotent_power_exponent(dim: int) -> int:
    return max(dim, 2).bit_length() + 1


def lift_idempotent(F: FieldCtx, a: np.ndarray, s: int) -> np.ndarray:
    """a idempotent modulo a nil ideal -> a^(2^s) idempotent on the nose."""
    e = a
    for _ in range(s):
        e = mat_mul(F, e, e)
    return e


def _split_once(E: EndoAlgebra, ss: Semisimple, seed: int) -> np.ndarray | None:
    """A nontrivial idempotent of E, or None when E is local (ss reads
    E/J(E))."""
    F = E.module.F
    lifts = semisimple_quotient(E, ss)
    r = len(lifts)
    if r == 1:
        return None
    rng = random.Random(seed)
    s = idempotent_power_exponent(E.dim)
    draws = coefficient_vectors(F.q, r, rng, 400 - r)
    cands = itertools.chain(lifts, (combine(F, c, lifts) for c in draws))
    for a in cands:
        mu = linalg.min_poly(F, a, (ss.R, ss.read))  # a's minimal polynomial in E/J
        fac = polys.factor(F, mu)
        if len(fac) == 1:
            # an irreducible minimal polynomial of full degree (deg mu <= r,
            # so mu = p1) certifies that E/J is a field, i.e. E is local
            if polys.deg(fac[0]) == r:
                return None
            continue
        # u = rest (rest^-1 mod p1): 1 mod p1 and 0 mod the other factors
        rest = [1]
        for p in fac[1:]:
            rest = polys.mul(F, rest, p)
        u = polys.mul(F, rest, polys.inverse_mod(F, rest, fac[0]))
        c = polys.eval_matrix(F, u, a)
        e = lift_idempotent(F, c, s)
        if (mat_mul(F, e, e) != e).any():
            continue
        if not e.any() or not (e ^ eye(E.module.dim)).any():
            continue
        return e
    raise AssertionError("failed to split a non-local endomorphism algebra")


def _compress_corner(F, mats, e: np.ndarray, incl, proj) -> list[np.ndarray]:
    """A basis of the span of e X e over X in mats, in the component's
    coordinates: the independent nonzero compressions, in order, as the
    pivots of one rref with the compressions as columns."""
    if not mats:
        return []
    k, (d, c) = len(mats), incl.shape
    # X e incl for all X stacked, then proj e times all of them side by side
    right = mat_mul(F, np.concatenate(mats), mat_mul(F, e, incl))
    right = right.reshape(k, d, c).transpose(1, 0, 2).reshape(d, k * c)
    both = mat_mul(F, mat_mul(F, proj, e), right)
    flat = both.reshape(c, k, c).transpose(1, 0, 2).reshape(k, c * c)
    return [flat[i].reshape(c, c) for i in linalg.rref(F, flat.T)[1]]


@dataclass
class Corner:
    """A summand f.M of a module M: its algebra fEf in the summand's
    coordinates, the map reading fEf/J(fEf), and incl into M's coordinates
    and proj back."""

    algebra: EndoAlgebra
    quotient: Semisimple
    incl: np.ndarray
    proj: np.ndarray

    @classmethod
    def top(cls, E: EndoAlgebra, ss: Semisimple) -> Corner:
        """The whole module, the corner of the identity."""
        d = E.module.dim
        return cls(E, ss, eye(d), eye(d))

    @property
    def idempotent(self) -> np.ndarray:
        """f, the idempotent of E(M) projecting M onto the summand."""
        return mat_mul(self.algebra.module.F, self.incl, self.proj)


def split_corner(c: Corner, seed: int) -> tuple[Corner, Corner] | None:
    """The corners of e and 1 - e for a nontrivial idempotent e of c's
    algebra, or None when that algebra is local (the summand is
    indecomposable)."""
    E = c.algebra
    F = E.module.F
    e = _split_once(E, c.quotient, seed)
    if e is None:
        return None
    halves = []
    for part in (e, e ^ eye(E.module.dim)):
        comp_mod, incl, proj = sub_module(E.module, linalg.col_space(F, part))
        # compression is not multiplicative, so compressed generators of
        # E need not generate the corner algebra; the basis always does.
        # y in the corner is incl.y.proj.part in E, as incl.proj.part = part;
        # the basis is the pivots of an rref, so independent
        basis = _compress_corner(F, E.basis, part, incl, proj)
        Ec = EndoAlgebra(comp_mod, basis)
        back = mat_mul(F, proj, part)
        amb_incl, amb_proj = mat_mul(F, c.incl, incl), mat_mul(F, back, c.proj)
        halves.append(Corner(Ec, c.quotient.corner(incl, back), amb_incl, amb_proj))
    return halves[0], halves[1]


def decompose(
    M: ModuleRep, seed: int = 0, endo: EndoAlgebra | None = None
) -> DecompositionCert:
    F = M.F
    E = endo if endo is not None else end_algebra(M)
    comps: list[Component] = []
    ss = Semisimple.of(E, seed)
    todo = [(Corner.top(E, ss), seed)]  # splits use seed + depth
    while todo:
        c, s = todo.pop()
        halves = split_corner(c, s)
        if halves is not None:
            todo += [(half, s + 1) for half in halves]
            continue
        f = c.idempotent
        S = linalg.col_space(F, f)
        comps.append(Component(S, f, c.algebra.module, c.incl, c.proj))
    comps.sort(key=lambda c: (c.module.dim, c.subspace.basis.tobytes()))
    # classes by head, numbered in order of first appearance
    heads = ss.heads_of([c.idempotent for c in comps]).tolist()
    classes = list(dict.fromkeys(heads))
    for c, h in zip(comps, heads):
        c.iso_class = classes.index(h)
    mults = [heads.count(h) for h in classes]
    return DecompositionCert(M, comps, mults)


def local_quotient(E: EndoAlgebra) -> Semisimple | None:
    """psi(x) = proj_S.x.incl_S, x on one simple E-submodule S of the
    module, when E is local; None when it is not.  Then ker psi = J(E), so
    psi reads E/J(E) for every caller that uses only the kernel, and x is a
    unit exactly when psi(x) is nonzero.

    S comes from the submodule branch of `chop` alone: `_proper_submodule`
    on the current submodule until it returns None.  N = ker psi = ann_E(S)
    contains J(E), and E is local exactly when dim E/N = dim S and N is
    nilpotent.  Proof: if E is local, E/J is a field K, N = J and S = K.
    Conversely a nilpotent N lies in J, so N = J, and E/J acts faithfully
    and irreducibly on S: E/J = Mat_n(D) with dim S = n dim D and
    dim E/J = n^2 dim D, equal only for n = 1, when E/J is a field."""
    F, d = E.module.F, E.module.dim
    gens, incl, proj, seed = E.basis, eye(d), eye(d), 0
    while (W := _proper_submodule(F, gens, len(proj), seed)) is not None:
        gens, i, p = _compress_action(F, gens, Subspace(F, len(proj), W))
        incl, proj, seed = mat_mul(F, incl, i), mat_mul(F, p, proj), seed + 1
    s = len(proj)
    psi = Semisimple(F, proj, incl, np.ones((s, s), dtype=bool), np.zeros(s, dtype=int))
    N = psi.kernel(E)
    if E.dim - len(N) != s:
        return None
    # N^j k^d shrinks to 0 exactly when N is nilpotent; a step that keeps
    # its dimension has reached a nonzero N-stable space
    stack, V = np.concatenate(N + [zeros(0, d)]), eye(d)
    while len(V):
        NV = mat_mul(F, stack, V.T).reshape(len(N), d, len(V))
        R, pivots = linalg.rref(F, NV.transpose(0, 2, 1).reshape(-1, d))
        if len(pivots) == len(V):
            return None
        V = R[: len(pivots)]
    return psi


def is_indecomposable(M: ModuleRep) -> bool:
    # indecomposable iff the endomorphism algebra is local (its residue
    # algebra may be a proper field extension of the base field)
    return M.unit_map is not None


# -- isomorphism ----------------------------------------------------------


def module_iso(M: ModuleRep, N: ModuleRep, seed: int = 0) -> np.ndarray | None:
    """An isomorphism M -> N (the first invertible Hom basis element), or
    None.  Requires M indecomposable: then E(M) is local, so the
    non-isomorphisms M -> N form a subspace of Hom(M, N), and M = N exactly
    when some basis element avoids it.  A returned map is always an
    isomorphism; `seed` is ignored."""
    if M.dim != N.dim:
        return None
    for h in hom_space(M, N):
        if linalg.is_invertible(M.F, h):
            return h
    return None


def is_selfdual(M: ModuleRep) -> bool:
    return module_iso(M, dual(M)) is not None


# -- irreducibles, PIMs ---------------------------------------------------


def irreducible_modules(G: GroupTable, F: FieldCtx) -> list[ModuleRep]:
    """One module per isomorphism class of irreducibles, read back from
    `_irreducible_actions`: irreducible i's rows, transposed and reshaped
    to the (|G|, d, d) whole-group action, kept read-only on the module,
    with each generator's matrix copied out of it.  Sorted stably by
    dimension."""
    A, heads = _irreducible_actions(G, F)
    out = []
    for i, n in enumerate(np.bincount(heads)):
        d = math.isqrt(int(n))
        acts = A[heads == i].T.reshape(G.order, d, d)
        acts.setflags(write=False)
        S = ModuleRep(G, F, [acts[g].copy() for g in G.generators])
        S._action = acts
        out.append(S)
    out.sort(key=lambda m: m.dim)
    return out


def simple_module_count(G: GroupTable, F: FieldCtx) -> int:
    """The number of irreducible kG-modules over k = GF(q): the orbits of
    x -> x^q on the 2-regular conjugacy classes (Lux & Pahlings,
    Representations of Groups, 2010)."""
    classes = G.conjugacy_classes()
    seen, orbits = set(), 0
    for i, c in enumerate(classes):
        if c.is_2regular and i not in seen:
            orbits += 1
            while i not in seen:
                seen.add(i)
                i = G.class_of(G.power(classes[i].rep, F.q))
    return orbits


def _irreducible_actions(G: GroupTable, F: FieldCtx) -> tuple[np.ndarray, np.ndarray]:
    """The sum(dim S^2) x |G| matrix whose column x holds the actions of x
    on the irreducibles, flattened (its kernel is J(kG)), and each row's
    irreducible, by index; built once per table and field and kept
    read-only on the table, with no module.  The irreducibles are the
    composition factors of the permutation module (faithful; kG for a
    group without permutation labels), then of S (x) T for pairs of
    non-trivial ones found so far.  Every irreducible is a factor of some
    tensor power of a faithful module (Burnside, Brauer; Steinberg, Proc.
    AMS 13, 1962), so the pairs reach them all; the search stops at
    `simple_module_count`, and running out of pairs short of it is a bug."""
    key = (F.m, F.modulus)
    if key in G.irreducible_actions:
        return G.irreducible_actions[key]
    count = simple_module_count(G, F)
    found: list[ModuleRep] = []

    def keep(gens: list[np.ndarray], dim: int) -> None:
        for mats, _ in chop(F, gens, dim):
            S = ModuleRep(G, F, mats)
            if len(found) < count and all(module_iso(S, T) is None for T in found):
                found.append(S)

    V = permutation_module(G, F) if G.perms is not None else regular_module(G, F)
    keep(V.gen_matrices, V.dim)
    for j, T in enumerate(found):  # found grows while it is walked
        for S in found[: j + 1]:
            if len(found) < count and not (_is_trivial(S) or _is_trivial(T)):
                pairs = zip(S.gen_matrices, T.gen_matrices)
                keep([linalg.kron(F, A, B) for A, B in pairs], S.dim * T.dim)
    if len(found) < count:
        raise AssertionError(f"tensor closure found {len(found)} of {count} irreducibles")
    A = np.concatenate([S.full_action().reshape(G.order, -1).T for S in found])
    heads = np.repeat(np.arange(len(found)), [S.dim**2 for S in found])
    for a in (A, heads):
        a.setflags(write=False)
    G.irreducible_actions[key] = A, heads
    return A, heads


def _is_trivial(S: ModuleRep) -> bool:
    return S.dim == 1 and all(A[0, 0] == 1 for A in S.gen_matrices)


def group_algebra_radical(G: GroupTable, F: FieldCtx) -> Subspace:
    """J(kG) as a subspace of kG (coordinates over the group-element basis):
    the elements acting as zero on every irreducible module."""
    return Subspace(F, G.order, linalg.kernel(F, _irreducible_actions(G, F)[0]))


@dataclass
class PimInfo:
    pim: ModuleRep
    head: ModuleRep
    multiplicity: int
    component: Component


def pims(G: GroupTable, F: FieldCtx, seed: int = 0) -> list[PimInfo]:
    """One PIM per isomorphism class of summands of kG, with its head.

    kG is decomposed once, with no chop of kG, and J(kG) is
    `group_algebra_radical`.  P = kG.e has rad P = J.kG.e = J.e, and
    c.proj applies e, so the head P / rad P is a quotient by one product."""
    M = regular_module(G, F)
    cert = decompose(M, seed=seed, endo=regular_end_algebra(G, F, M))
    J = group_algebra_radical(G, F).basis
    out: list[PimInfo] = []
    for i, mult in enumerate(cert.multiplicities):
        c = next(c for c in cert.components if c.iso_class == i)
        radP = Subspace(F, c.module.dim, mat_mul(F, c.proj, J.T).T)
        head, _ = quotient_module(c.module, radP)
        out.append(PimInfo(pim=c.module, head=head, multiplicity=mult, component=c))
    return out


# -- serialization --------------------------------------------------------


def matrix_to_hex(F: FieldCtx, A: np.ndarray) -> list[str]:
    return [F.elem_to_hex(int(x)) for x in np.asarray(A).ravel()]


def matrix_from_hex(F: FieldCtx, data: list[str], rows: int, cols: int) -> np.ndarray:
    vals = [F.elem_from_hex(s) for s in data]
    if len(vals) != rows * cols:
        raise ValueError("matrix entry count mismatch")
    if any(not 0 <= v < F.q for v in vals):
        raise ValueError(f"matrix entry outside GF({F.q})")
    return np.array(vals, dtype=np.int64).reshape(rows, cols)


def module_to_dict(M: ModuleRep) -> dict:
    return {
        "field_degree": M.F.m,
        "dim": M.dim,
        "matrices": [matrix_to_hex(M.F, A) for A in M.gen_matrices],
    }


def load_module(path: str, G: GroupTable) -> ModuleRep:
    with open(path) as fh:
        data = json.load(fh)
    return module_from_dict(data, G)


def module_from_dict(data: dict, G: GroupTable) -> ModuleRep:
    """The module of a file's data, checked: invertible d x d matrices that
    satisfy G's relations on every edge of the Cayley graph."""
    F = make_field(int(data["field_degree"]))
    d = int(data["dim"])
    if d < 1:
        raise ValueError("module dimension must be at least 1")
    mats = [matrix_from_hex(F, m, d, d) for m in data["matrices"]]
    M = ModuleRep(G, F, mats)
    if not all(linalg.is_invertible(F, A) for A in M.gen_matrices):
        raise ValueError("generator matrix is singular")
    # x -> acts[x] is a homomorphism iff acts[x] A_g = acts[x g] on every
    # edge of the Cayley graph; the tree edges hold by construction
    acts = M.full_action()
    stacked = acts.reshape(G.order * d, d)
    for g, A in zip(G.generators, M.gen_matrices):
        moved = mat_mul(F, stacked, A).reshape(acts.shape)
        if (moved != acts[G.mult[:, g]]).any():
            raise ValueError("matrices do not satisfy the group relations")
    return M
