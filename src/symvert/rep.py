"""Modules over a group algebra and their category.

A ModuleRep stores one invertible matrix per group generator; the action of
arbitrary elements is built on demand by walking the multiplication table.
The decomposition machinery splits the endomorphism algebra (idempotent
style): compute its radical via a composition series of the underlying
module, find a separating element of the semisimple quotient, lift an
idempotent with the repeated-squaring device, and recurse on both summands.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field

import numpy as np

from . import linalg, polys
from .field import FieldCtx, make_field
from .group import GroupTable, Subgroup
from .linalg import Subspace, coefficient_vectors, combine, eye, mat_mul, mat_vec, zeros


class ModuleRep:
    def __init__(
        self,
        group: GroupTable,
        F: FieldCtx,
        gen_matrices: list[np.ndarray],
        check: bool = True,
    ):
        self.group = group
        self.F = F
        if len(gen_matrices) != len(group.generators):
            raise ValueError("one matrix per group generator required")
        self.gen_matrices = [np.asarray(A, dtype=np.int64) for A in gen_matrices]
        self.dim = self.gen_matrices[0].shape[0] if self.gen_matrices else 0
        if not self.gen_matrices:
            raise ValueError("groups must have at least one generator")
        self._action: dict[int, np.ndarray] | None = None
        if check:
            self._validate()

    def _validate(self) -> None:
        for A in self.gen_matrices:
            if A.shape != (self.dim, self.dim):
                raise ValueError("generator matrices must be square, same size")
            if not linalg.is_invertible(self.F, A):
                raise ValueError("generator matrix is singular")
        # x -> act[x] is a homomorphism iff act[x] A_g = act[x g] on every
        # edge of the Cayley graph; the tree edges hold by construction
        act = self.full_action()
        G = self.group
        acts = np.array([act[x] for x in range(G.order)])
        stacked = acts.reshape(-1, self.dim)
        for g, A in zip(G.generators, self.gen_matrices):
            moved = mat_mul(self.F, stacked, A).reshape(acts.shape)
            if (moved != acts[G.mult[:, g]]).any():
                raise ValueError("matrices do not satisfy the group relations")

    def full_action(self) -> dict[int, np.ndarray]:
        if self._action is None:
            G, F = self.group, self.F
            act = {0: eye(self.dim)}
            frontier = [0]
            while frontier:
                nxt = []
                for x in frontier:
                    for g, Ag in zip(G.generators, self.gen_matrices):
                        y = G.mul(x, g)
                        if y not in act:
                            act[y] = mat_mul(F, act[x], Ag)
                            nxt.append(y)
                frontier = nxt
            if len(act) != G.order:
                raise ValueError("generators do not generate the group")
            self._action = act
        return self._action

    def action(self, x: int) -> np.ndarray:
        return self.full_action()[x]

    def action_inv(self, x: int) -> np.ndarray:
        return self.full_action()[self.group.inverse(x)]

    def __repr__(self) -> str:
        return f"ModuleRep(dim={self.dim}, |G|={self.group.order})"


# -- constructors ---------------------------------------------------------


def trivial_module(G: GroupTable, F: FieldCtx) -> ModuleRep:
    one = eye(1)
    return ModuleRep(G, F, [one.copy() for _ in G.generators], check=False)


def regular_module(G: GroupTable, F: FieldCtx) -> ModuleRep:
    """Left regular module: g sends basis vector e_x to e_{gx}."""
    mats = [left_mult_matrix(G, e) for e in eye(G.order)[G.generators]]
    return ModuleRep(G, F, mats, check=False)


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
    return ModuleRep(G, F, mats, check=False)


def dual(M: ModuleRep) -> ModuleRep:
    mats = [linalg.inverse(M.F, A).T.copy() for A in M.gen_matrices]
    return ModuleRep(M.group, M.F, mats, check=False)


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
    return ModuleRep(G, F, mats, check=False)


def restrict(M: ModuleRep, H: Subgroup) -> ModuleRep:
    """M as a module for H (over H's own standalone table)."""
    Ht, elems = subgroup_table(H)
    mats = [M.action(elems[g]) for g in Ht.generators]
    return ModuleRep(Ht, M.F, mats, check=False)


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
    acts = np.array([L.action(h) for h in range(Ht.order)])
    k, dl, r = len(trans), L.dim, len(G.generators)
    gt = G.mult[np.ix_(G.generators, trans)]  # g t_j = t_i h: block (i, j) is L(h)
    A = np.zeros((r, k, k, dl, dl), dtype=np.int64)
    A[np.arange(r)[:, None], coset[gt], np.arange(k)] = acts[hid[gt]]
    mats = list(A.transpose(0, 1, 3, 2, 4).reshape(r, k * dl, k * dl))
    return ModuleRep(G, L.F, mats, check=False), trans


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
    return ModuleRep(M.group, M.F, mats, check=False), incl, proj


def quotient_module(M: ModuleRep, S: Subspace) -> tuple[ModuleRep, np.ndarray]:
    """M/S; returns (module, projection c x d sending v to its coordinates)."""
    mats, proj, _ = _quotient_action(M.F, M.gen_matrices, S)
    return ModuleRep(M.group, M.F, mats, check=False), proj


# -- hom spaces and endomorphism algebras ---------------------------------


def hom_space(
    M: ModuleRep, N: ModuleRep, H: Subgroup | None = None
) -> list[np.ndarray]:
    """Basis of {X : X rho_M(h) = rho_N(h) X for h in H} (H=None: all of G).

    Standard-basis method (Lux & Szoke 2003; Parker's MeatAxe): spin M from
    the unit vectors not yet in the span.  A hom is fixed by the images y_s
    of these seeds: it sends b_k = A_g b_parent to W_k y_seed(k), with W_k
    the same word in N's matrices, and each relation A_g b_i = sum c_k b_k
    is a linear condition on the y's.  The basis is the one `linalg.kernel`
    gives for the equations on the row-major vec(X).
    """
    F = M.F
    if H is None:
        gens = list(zip(M.gen_matrices, N.gen_matrices))
    else:
        Ht, elems = subgroup_table(H)
        gens = [(M.action(elems[g]), N.action(elems[g])) for g in Ht.generators]
    dm, dn = M.dim, N.dim
    # spun vectors carry their coordinates over the spun basis as trailing
    # columns, so a vector already in the span reduces to its relation
    ech = linalg.Echelon(F, dm)
    pad = zeros(1, dm).ravel()
    spun, words, seeds = [], [], []  # b_k, W_k and the seed of b_k
    rels = []  # (c, B_g W_i, seed of b_i) for A_g b_i = sum c_k b_k
    r = 0
    for e in eye(dm):
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
                todo += [(mat_vec(F, A, v), mat_mul(F, B, W)) for A, B in gens]
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
    """Endomorphism algebra of a module (over a subgroup's action)."""

    module: ModuleRep
    basis: list[np.ndarray]
    gens: list[np.ndarray] = field(default_factory=list)
    subgroup: Subgroup | None = None

    def __post_init__(self):
        if not self.gens:
            self.gens = list(self.basis)
        flat = np.array([b.ravel() for b in self.basis])
        if linalg.rank(self.module.F, flat) != len(self.basis):
            raise ValueError("endomorphism basis is linearly dependent")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def element(self, coeffs: np.ndarray) -> np.ndarray:
        return combine(self.module.F, coeffs, self.basis)


def end_algebra(
    M: ModuleRep,
    H: Subgroup | None = None,
    basis: list[np.ndarray] | None = None,
    gens: list[np.ndarray] | None = None,
) -> EndoAlgebra:
    if basis is None:
        basis = hom_space(M, M, H)
    return EndoAlgebra(M, basis, gens=gens or [], subgroup=H)


def regular_end_algebra(G: GroupTable, F: FieldCtx, M: ModuleRep) -> EndoAlgebra:
    """E_G(kG) = all right multiplications r(x): v -> v.x (basis for free)."""
    basis = [right_mult_matrix(G, e) for e in eye(G.order)]
    gens = [basis[g] for g in G.generators]
    return EndoAlgebra(M, basis, gens=gens)


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
    from a whole frontier, and the images of the rows then added make the
    next one, from one product with the generators side by side."""
    front = np.atleast_2d(np.asarray(vecs, dtype=np.int64))
    n = front.shape[1]
    side = np.hstack([A.T for A in gens]) if gens else zeros(n, 0)
    basis, pivots = zeros(0, n), []
    while len(front):
        if pivots:
            front = front ^ mat_mul(F, front[:, pivots], basis)
        front, new, new_pivots = front[front.any(axis=1)], [], []
        while len(front):
            v, front = front[0], front[1:]
            p = int(v.nonzero()[0][0])
            v = v if v[p] == 1 else F.vscale(F.inv(int(v[p])), v)
            new = [w ^ F.vscale(int(w[p]), v) if w[p] else w for w in new] + [v]
            new_pivots.append(p)
            if len(front):
                front = front ^ F.vmul(front[:, p, None], v)
                front = front[front.any(axis=1)]
        new = np.array(new).reshape(-1, n)
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
) -> list[Subspace]:
    """Composition series 0 < V_1 < ... < V_t = k^dim under the algebra
    generated by gens; returned as the increasing chain (without 0)."""
    chain: list[np.ndarray] = []  # bases of factors, lifted to the ambient

    def rec(gens_c: list[np.ndarray], d: int, lift: np.ndarray, seed: int):
        # lift: d x dim matrix embedding current space into the ambient
        if d == 0:
            return
        W = _proper_submodule(F, gens_c, d, seed)
        if W is None:
            chain.append(lift)
            return
        sub = Subspace(F, d, W)
        subM, incl, proj = _compress_action(F, gens_c, sub)
        quoM, qproj, qincl = _quotient_action(F, gens_c, sub)
        rec(subM, sub.dim, mat_mul(F, sub.basis, lift), seed + 1)
        rec(quoM, d - sub.dim, mat_mul(F, qincl, lift), seed + 1)

    rec(gens, dim, eye(dim), seed)
    del rec  # a self-referencing closure: free its data now, not at a full gc
    out = []
    acc = None
    for piece in chain:
        acc = piece if acc is None else np.concatenate([acc, piece], axis=0)
        out.append(Subspace(F, dim, acc))
    assert out[-1].dim == dim
    return out


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
    for attempt in range(500):
        a = _random_algebra_element(F, gens, rng, pool)
        mu = linalg.min_poly(F, a)
        for p, _mult in polys.factor(F, mu, seed=seed + attempt):
            pa = polys.eval_matrix(F, p, a)
            ker = linalg.kernel(F, pa)
            if ker.shape[0] == 0:
                continue
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


def radical(E: EndoAlgebra, seed: int = 0) -> list[np.ndarray]:
    """Basis of the Jacobson radical of E (as matrices).

    Uses a composition series of the module under E's action: the radical is
    exactly the set of algebra elements pushing each term of the series into
    the previous one.
    """
    F = E.module.F
    d = E.module.dim
    chain = chop(F, E.gens, d, seed=seed)
    levels = []
    prev: Subspace | None = None
    for S in chain:
        if prev is None:
            new_vecs = S.basis
        else:
            prev_pivs = set(prev.pivots)
            new_vecs = S.basis[[p not in prev_pivs for p in S.pivots]]
        levels.append((new_vecs, prev))
        prev = S
    # unknowns: coordinates over E.basis; equations: each composition-series
    # term must be pushed into the previous one
    nb = len(E.basis)
    stacked = np.concatenate(E.basis)
    eqs = []
    for new_vecs, below in levels:
        # rows: the images of the lifted vectors under each basis element
        img = mat_mul(F, stacked, new_vecs.T).reshape(nb, d, -1)
        img = img.transpose(0, 2, 1).reshape(-1, d)
        if below is not None:
            img = linalg.reduce_mod(F, below, img)
        eqs.append(img.reshape(nb, -1))
    ker = linalg.kernel(F, np.concatenate(eqs, axis=1).T)
    return [E.element(c) for c in ker]


def semisimple_quotient(E: EndoAlgebra, J: list[np.ndarray]):
    """Returns (lift basis matrices, coords map to E/J coordinates)."""
    F = E.module.F
    n2 = E.module.dim ** 2
    jflat = np.array([j.ravel() for j in J]) if J else zeros(0, n2)
    JS = Subspace(F, n2, jflat)
    reduced = linalg.reduce_mod(F, JS, np.array([b.ravel() for b in E.basis]))
    # echelon of the reduced lifts, each row carrying its coordinates over
    # the lifts as trailing columns, so expressing a quotient element later
    # is a single reduction pass
    nb = len(E.basis)
    ech = linalg.Echelon(F, n2)
    lifts = []
    for b, r in zip(E.basis, reduced):
        w = np.concatenate([r, zeros(1, nb).ravel()])
        w[n2 + len(lifts)] = 1
        if ech.insert(w):
            lifts.append(b)
    r_dim = len(lifts)

    def quo_coords(f: np.ndarray) -> np.ndarray:
        v = linalg.reduce_mod(F, JS, f.ravel()).ravel()
        w = ech.reduce(np.concatenate([v, zeros(1, nb).ravel()]))
        if w[:n2].any():
            raise ValueError("element not in the algebra")
        return w[n2 : n2 + r_dim]

    return lifts, quo_coords


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
    """The summands of a module, grouped by isomorphism class.

    `radical` is the basis of J(E) that `decompose` split modulo, as
    matrices on the module.  For kG with E = `regular_end_algebra`, these
    are the right multiplications r(a) for a in a basis of J(kG), and as
    r(a) sends the identity (id 0) to a, column 0 of each reads a off."""

    module: ModuleRep
    components: list[Component]
    multiplicities: list[int]  # per iso class
    radical: list[np.ndarray]

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


def _split_once(E: EndoAlgebra, J: list[np.ndarray], seed: int) -> np.ndarray | None:
    """A nontrivial idempotent of E, or None when E is local (J = J(E))."""
    F = E.module.F
    lifts, quo_coords = semisimple_quotient(E, J)
    r = len(lifts)
    if r == 1:
        return None
    rng = random.Random(seed)
    s = idempotent_power_exponent(E.dim)
    draws = coefficient_vectors(F.q, r, rng, 0, 400 - r)
    cands = itertools.chain(lifts, (combine(F, c, lifts) for c in draws))
    for attempt, a in enumerate(cands):
        mu = linalg.min_poly(F, a, quo_coords)  # a's minimal polynomial in E/J
        fac = polys.factor(F, mu, seed=seed + attempt)
        sqfree = [p for p, _ in fac]
        if len(sqfree) < 2:
            # a primitive element with irreducible minimal polynomial of
            # full degree certifies that E/J is a field, i.e. E is local
            if len(fac) == 1 and fac[0][1] == 1 and polys.deg(mu) == r:
                return None
            continue
        # u = 1 mod p1, 0 mod the rest
        u = polys.crt_idempotents(F, [(p, 1) for p in sqfree])[0]
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
    coordinates: the independent nonzero compressions, in order."""
    if not mats:
        return []
    # X e incl for all X stacked, then proj e times all of them side by side
    right = np.split(mat_mul(F, np.concatenate(mats), mat_mul(F, e, incl)), len(mats))
    both = mat_mul(F, mat_mul(F, proj, e), np.hstack(right))
    seen = linalg.Echelon(F, incl.shape[1] ** 2)
    basis = []
    for x in np.hsplit(both, len(mats)):
        if x.any() and seen.insert(x.ravel()):
            basis.append(x.copy())
    return basis


def decompose(
    M: ModuleRep, seed: int = 0, endo: EndoAlgebra | None = None
) -> DecompositionCert:
    F = M.F
    E = endo if endo is not None else end_algebra(M)
    comps: list[Component] = []

    def rec(E: EndoAlgebra, J, lift_incl, lift_proj, outer_e, seed: int):
        # lift_incl/lift_proj: maps between component coords and ambient M;
        # outer_e: the ambient idempotent projecting onto this component
        e = _split_once(E, J, seed)
        if e is None:
            comps.append(
                Component(
                    subspace=linalg.col_space(F, mat_mul(F, outer_e, eye(M.dim))),
                    idempotent=outer_e,
                    module=E.module,
                    incl=lift_incl,
                    proj=lift_proj,
                )
            )
            return
        for part in (e, e ^ eye(E.module.dim)):
            S = linalg.col_space(F, part)
            comp_mod, incl, proj = sub_module(E.module, S)
            # compression is not multiplicative, so compressed generators of
            # E need not generate the corner algebra; the basis always does.
            # J(eEe) = e J(E) e, so the corner's radical is compressed too
            Ec = EndoAlgebra(comp_mod, _compress_corner(F, E.basis, part, incl, proj))
            Jc = _compress_corner(F, J, part, incl, proj)
            # ambient inclusion/projection/idempotent
            amb_incl = mat_mul(F, lift_incl, incl)
            amb_proj = mat_mul(F, proj, mat_mul(F, part, lift_proj))
            amb_e = mat_mul(
                F, lift_incl, mat_mul(F, part, lift_proj)
            )
            amb_e = mat_mul(F, amb_e, outer_e)
            rec(Ec, Jc, amb_incl, amb_proj, amb_e, seed + 1)

    J = radical(E, seed)
    rec(E, J, eye(M.dim), eye(M.dim), eye(M.dim), seed)
    del rec  # a self-referencing closure: free its data now, not at a full gc
    comps.sort(key=lambda c: (c.module.dim, c.subspace.basis.tobytes()))
    # group by isomorphism class
    mults: list[int] = []
    reps: list[ModuleRep] = []
    for c in comps:
        for i, r in enumerate(reps):
            if module_iso(c.module, r) is not None:
                c.iso_class = i
                mults[i] += 1
                break
        else:
            c.iso_class = len(reps)
            reps.append(c.module)
            mults.append(1)
    return DecompositionCert(M, comps, mults, J)


def is_indecomposable(M: ModuleRep, endo: EndoAlgebra | None = None) -> bool:
    E = endo if endo is not None else end_algebra(M)
    # indecomposable iff the endomorphism algebra is local, i.e. unsplittable
    # (the residue algebra may be a proper field extension of the base field)
    return _split_once(E, radical(E, 0), 0) is None


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


def irreducible_modules(G: GroupTable, F: FieldCtx, seed: int = 0) -> list[ModuleRep]:
    """All irreducible modules, from a composition series of the regular one."""
    M = regular_module(G, F)
    chain = chop(F, M.gen_matrices, G.order, seed=seed)
    out: list[ModuleRep] = []
    prev: Subspace | None = None
    for S in chain:
        if prev is None:
            comp_mod, _, _ = sub_module(M, S)
        else:
            sub_m, incl, proj = sub_module(M, S)
            # factor = S / prev: compress S then quotient by prev's image
            prev_in_S = Subspace(
                F, S.dim, np.array([mat_vec(F, proj, r) for r in prev.basis])
            )
            comp_mod, _ = quotient_module(sub_m, prev_in_S)
        prev = S
        if all(module_iso(comp_mod, r) is None for r in out):
            out.append(comp_mod)
    out.sort(key=lambda m: m.dim)
    return out


def group_algebra_radical(G: GroupTable, F: FieldCtx, seed: int = 0) -> Subspace:
    """J(kG) as a subspace of kG (coordinates over the group-element basis)."""
    irreps = irreducible_modules(G, F, seed=seed)
    cols = []
    for x in range(G.order):
        vecs = []
        for S in irreps:
            vecs.append(S.action(x).ravel())
        cols.append(np.concatenate(vecs))
    sys = np.array(cols).T
    return Subspace(F, G.order, linalg.kernel(F, sys))


@dataclass
class PimInfo:
    pim: ModuleRep
    head: ModuleRep
    multiplicity: int
    component: Component


def pims(G: GroupTable, F: FieldCtx, seed: int = 0) -> list[PimInfo]:
    """One PIM per isomorphism class of summands of kG, with its head.

    kG is decomposed once; J(kG) is column 0 of the radical it split
    modulo.  P = kG.e has rad P = J.kG.e = J.e, and c.proj applies e, so
    the head P / rad P is a quotient by one product."""
    M = regular_module(G, F)
    cert = decompose(M, seed=seed, endo=regular_end_algebra(G, F, M))
    J = np.array([r[:, 0] for r in cert.radical]).reshape(-1, G.order)
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
    F = make_field(int(data["field_degree"]))
    d = int(data["dim"])
    mats = [matrix_from_hex(F, m, d, d) for m in data["matrices"]]
    return ModuleRep(G, F, mats)
