"""2-blocks of a group algebra in characteristic 2.

Blocks are the primitive idempotents of the centre Z(kG), computed on the
class-sum basis by splitting 1 with the GF(q)/GF(2) traces of elements of
the Berlekamp subalgebra {a : a^q = a}, which are sums of blocks.  Every
block idempotent is supported on 2-regular classes; a block is real when
its coefficients are constant on inverse pairs of classes.  Each real block
carries a defect group D (a Sylow 2-subgroup of the centralizer of a defect
class element) and an extended defect group E (Sylow 2 of the extended
centralizer of a real defect class element) with D <= E of index at most 2.
Off a splitting field a real block may lack a real defect class; then
`block_decomposition` raises FeasibilityError naming the degree needed.
The module also houses the quadratic-type test for projective covers of
self-dual irreducibles, and Theta: read off G's table, it realizes b as a
relative trace from Delta E on kG as a G x G-module
(`vertex.verify_theorem_vertexBlock` checks the theorem with it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import forms, linalg, rep
from .field import FieldCtx, splitting_degree
from .forms import GForm
from .group import FeasibilityError, GroupTable, Subgroup
from .linalg import combine, eye
from .rep import ModuleRep


class CentreAlgebra:
    """Z(kG) on the class-sum basis, with structure constants."""

    def __init__(self, G: GroupTable, F: FieldCtx):
        self.G = G
        self.F = F
        self.classes = G.conjugacy_classes()
        n = len(self.classes)
        self.n = n
        self.class_of = G.class_ids
        # struct[i, j, k] = #{(x, y) in C_i x C_j : x.y = rep_k}
        #                 = #{x in C_i : x^-1.rep_k in C_j}, mod 2
        reps = [c.rep for c in self.classes]
        a = np.zeros((n, n, n), dtype=np.int64)
        y = G.mult[G.inv][:, reps]  # y[x, k] = x^-1.rep_k
        np.add.at(a, (self.class_of[:, None], self.class_of[y], np.arange(n)), 1)
        self.struct = a % 2
        self.unit = np.zeros(n, dtype=np.int64)
        self.unit[self.class_of[0]] = 1

    def mul(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The coefficient of class k in u.v: the sum of u_i v_j over the
        (i, j) with struct[i, j, k] = 1, one product table XOR-reduced."""
        prods = self.F.vmul(u[:, None], v[None, :])
        return np.bitwise_xor.reduce(prods[:, :, None] * self.struct, axis=(0, 1))

    def power(self, u: np.ndarray, e: int) -> np.ndarray:
        acc = self.unit.copy()
        sq = u.copy()
        while e:
            if e & 1:
                acc = self.mul(acc, sq)
            sq = self.mul(sq, sq)
            e >>= 1
        return acc

    def to_group_algebra(self, u: np.ndarray) -> np.ndarray:
        return u[self.class_of]

    def contragredient(self, u: np.ndarray) -> np.ndarray:
        """u with each class's coefficient moved to the inverse class: a
        gather, as class inversion is an involution."""
        return u[[c.inverse_class for c in self.classes]]


@dataclass
class BlockInfo:
    idempotent: np.ndarray  # coefficients over class sums
    support: list[int]  # class indices
    real: bool
    principal: bool
    centre: CentreAlgebra
    defect_class: int | None = None
    defect_group: Subgroup | None = None
    extended_defect_group: Subgroup | None = None

    @property
    def group_algebra_vector(self) -> np.ndarray:
        return self.centre.to_group_algebra(self.idempotent)


def block_decomposition(G: GroupTable, F: FieldCtx) -> list[BlockInfo]:
    """The blocks of kG: primitive idempotents of Z(kG) with supports,
    reality and principality flags, and (extended) defect groups."""
    Z = CentreAlgebra(G, F)
    idems = _primitive_idempotents(Z)
    out = []
    for e in idems:
        support = [int(i) for i in np.nonzero(e)[0]]
        if not all(Z.classes[i].is_2regular for i in support):
            raise AssertionError("block idempotent supported off 2-regular classes")
        real = bool((Z.contragredient(e) == e).all())
        b = BlockInfo(e, support, real, _is_principal(Z, e), Z)
        _fill_defect_groups(G, F, b)
        out.append(b)
    out.sort(key=lambda b: (not b.principal, b.idempotent.tobytes()))
    return out


def _is_principal(Z: CentreAlgebra, e: np.ndarray) -> bool:
    """Whether the block idempotent e is the principal one: its augmentation
    (the sum over G of its coefficients) is 1."""
    return bool(np.bitwise_xor.reduce(e[[c.size % 2 == 1 for c in Z.classes]]) == 1)


def _primitive_idempotents(Z: CentreAlgebra) -> list[np.ndarray]:
    """The block idempotents e_i.  The Berlekamp subalgebra B = {a : a^q =
    a} of Z is the GF(q)-span of the e_i (Eberly & Giesbrecht, J. Symbolic
    Comput. 29, 2000), so for b = sum l_i e_i in B and c in GF(q) the trace
    t = sum_{j<m} (cb)^(2^j) = sum Tr(c l_i) e_i is an idempotent.  Each e
    is replaced by e.t and e + e.t, for b over a basis of B and c = x^k: as
    the trace form is nondegenerate, that separates every two blocks."""
    F = Z.F
    basis = linalg.kernel(F, np.array([Z.power(v, F.q) ^ v for v in eye(Z.n)]).T)
    idems = [Z.unit]
    for b in basis:
        squares = [b]  # b^(2^j); (cb)^(2^j) = c^(2^j) b^(2^j)
        for _ in range(F.m - 1):
            squares.append(Z.mul(squares[-1], squares[-1]))
        for k in range(F.m):
            t = combine(F, [F.pow(1 << k, 1 << j) for j in range(F.m)], squares)
            parts = [Z.mul(e, t) for e in idems]
            idems = [f for e, et in zip(idems, parts) for f in (et, e ^ et) if f.any()]
    if len(idems) != len(basis):  # r nonzero orthogonal parts of 1 are the blocks
        raise AssertionError("trace splits did not separate the blocks")
    idems.sort(key=lambda v: v.tobytes())
    return idems


def class_sum_is_unit(b: BlockInfo, i: int) -> bool:
    """Whether omega_B(C_i+) != 0 for the i-th class sum, i.e. C_i+.e_B is
    a unit of the local algebra Z(kG).e_B.  A non-unit there is nilpotent,
    and its 2^s-th power is zero.  This needs no splitting field: the
    central character itself may take values in an extension."""
    Z = b.centre
    ci = np.zeros(Z.n, dtype=np.int64)
    ci[i] = 1
    s = rep.idempotent_power_exponent(Z.n)
    return bool(Z.power(Z.mul(ci, b.idempotent), 1 << s).any())


def _fill_defect_groups(G: GroupTable, F: FieldCtx, b: BlockInfo) -> None:
    """Defect class/group and extended defect group, cross-checked over all
    qualifying classes."""
    Z = b.centre
    defect = [i for i in b.support if class_sum_is_unit(b, i)]
    if not defect:
        raise AssertionError("no defect class found")
    Ds = []
    Es = []
    for i in defect:
        c = Z.classes[i].rep
        D = G.sylow2(within=G.centralizer(c))
        Ds.append((i, D))
        if Z.classes[i].is_real:
            E = G.sylow2(within=G.extended_centralizer(c))
            Es.append((i, E))
    for _, D in Ds[1:]:
        if G.subgroup_conjugate(D, Ds[0][1]) is None:
            raise AssertionError("defect groups of defect classes not conjugate")
    b.defect_group = Ds[0][1]
    if b.real:
        if not Es:
            if F.m % splitting_degree(G):  # Murray's theorem needs a splitting field
                raise FeasibilityError(
                    "real block without a real defect class: GF(2^m) splits the"
                    f" group for m divisible by {splitting_degree(G)}, not {F.m}"
                )
            raise AssertionError("real block without a real defect class")
        for _, E in Es[1:]:
            if G.subgroup_conjugate(E, Es[0][1]) is None:
                raise AssertionError("extended defect groups not conjugate")
        b.defect_class = Es[0][0]
        E = Es[0][1]
        # D is determined only up to conjugacy; align it inside E
        D = b.defect_group
        g = G.conjugate_into(D, E)
        if g is not None:
            D = G.conjugate_subgroup(g, D)
            b.defect_group = D
        if not (
            G.conjugate_into(b.defect_group, E) is not None
            and E.order in (b.defect_group.order, 2 * b.defect_group.order)
        ):
            raise AssertionError("extended defect group does not sit over D")
        if b.principal and G.subgroup_conjugate(E, b.defect_group) is None:
            raise AssertionError("principal block must have E = D")
        b.extended_defect_group = E
    else:
        b.defect_class = Ds[0][0]


def block_of_module(M: ModuleRep, blocks: list[BlockInfo] | None = None) -> BlockInfo:
    """The unique block whose idempotent acts as the identity on M."""
    if blocks is None:
        blocks = block_decomposition(M.group, M.F)
    for b in blocks:
        if acts_as_identity(M, b.group_algebra_vector):
            return b
    raise ValueError("no block acts as the identity (module not indecomposable?)")


def in_principal_block(M: ModuleRep) -> bool:
    """Whether the principal block idempotent acts as the identity on the
    indecomposable M; no defect group is computed, so any field will do."""
    Z = CentreAlgebra(M.group, M.F)
    e = next(e for e in _primitive_idempotents(Z) if _is_principal(Z, e))
    return acts_as_identity(M, Z.to_group_algebra(e))


def acts_as_identity(M: ModuleRep, u: np.ndarray) -> bool:
    """Whether u in kG, as coefficients over G, acts as the identity on M."""
    return bool((combine(M.F, u, M.full_action()) == eye(M.dim)).all())


# -- quadratic type -------------------------------------------------------


@dataclass
class QuadraticTypeResult:
    quadratic: bool
    involution: int | None = None
    basis_index: int | None = None
    form: GForm | None = None


def quadratic_type_pim(M: ModuleRep, B: GForm | None = None) -> QuadraticTypeResult:
    """Whether the projective cover of the nontrivial self-dual irreducible
    M has quadratic type: some involution t has q_t(m) = B(t.m, m) nonzero.

    q_t is additive in characteristic 2, so only basis vectors are tested.
    """
    G = M.group
    F = M.F
    if M.dim == 1:
        raise ValueError("module must be a nontrivial irreducible")
    if B is None:
        sym = forms.invariant_forms(M).symmetric
        nondeg = [g for g in sym if linalg.is_invertible(F, g)]
        if len(nondeg) != 1:
            raise ValueError("module has no unique invariant symmetric form")
        B = GForm(M, nondeg[0])
    first: dict[int, int] = {}  # the first involution of each class
    for t in G.involutions():
        first.setdefault(G.class_of(t), t)
    reps = list(first.values())
    # q_t on the m-th basis vector is the (m, m) entry of rho(t)^T.gram,
    # the sum over i of rho(t)[i, m].gram[i, m]: one gather for every t
    q = np.bitwise_xor.reduce(F.vmul(M.full_action()[reps], B.gram), axis=1)
    hits = np.argwhere(q)
    if not len(hits):
        return QuadraticTypeResult(False, None, None, B)
    c, m = hits[0]
    return QuadraticTypeResult(True, reps[c], int(m), B)


# -- the Theta construction ------------------------------------------------


@dataclass
class ThetaCert:
    entries: dict[tuple[int, int], int]  # (v, w) -> coefficient of e_w -> e_v
    sigma_fixed: bool
    trace_is_block: bool
    choices: dict[int, int]  # class index -> chosen element


def build_theta(b: BlockInfo) -> ThetaCert:
    """The explicit self-adjoint Delta E-endomorphism Theta of kG, with
    (g1, g2).x = g1.x.g2^-1, whose relative trace to G x G is the block
    idempotent: the sum over the support classes of alpha_i times the
    Delta D-to-Delta E trace of d (x) d^-1, for d the square root of the
    chosen class element c inside <c> and D = C_E(c).  Theta is kept as its
    entries e_w -> e_v: (v, v^-1) with coefficient alpha_i for v = t.d.t^-1,
    t over E/D.  They are distinct: v^2 = t.c.t^-1 fixes the class and tD."""
    Z = b.centre
    G = Z.G
    E = b.extended_defect_group
    if E is None:
        raise ValueError("extended defect group required (real block)")
    entries: dict[tuple[int, int], int] = {}
    choices: dict[int, int] = {}
    paired: dict[int, int] = {}
    for i in b.support:
        cls = Z.classes[i]
        if i in paired:
            c = G.inverse(paired[i])
        else:
            c = _choose_class_element(G, cls, E)
            if cls.inverse_class != i:
                paired[cls.inverse_class] = c
        choices[i] = c
        d = G.power(c, (G.element_order(c) + 1) // 2)  # the square root of c in <c>
        ts = np.array(G.left_transversal(G.centralizer(c, within=E), E))
        for v in G.mult[G.mult[ts, d], G.inv[ts]].tolist():
            entries[v, G.inverse(v)] = int(b.idempotent[i])
    return ThetaCert(entries, *theta_verdicts(b, entries), choices)


def theta_verdicts(b: BlockInfo, entries: dict) -> tuple[bool, bool]:
    """Whether the endomorphism with these entries is sigma-fixed, and
    whether its Delta E-to-G x G trace is the block idempotent b.  The
    orthonormal form's adjoint sigma is the transpose, so sigma-fixed means
    the entries, with their coefficients, are closed under swapping v and w.
    Over the transversal (g, t) of Delta E, g in G and t over G/E, the trace
    is right multiplication by psi = sum_t t.chi.t^-1, where chi sums
    alpha.w^-1.v over the entries: |G:E| gathers of length |G|."""
    G = b.centre.G
    sigma_ok = all(entries.get((w, v), 0) == a for (v, w), a in entries.items())
    chi = np.zeros(G.order, dtype=np.int64)
    for (v, w), a in entries.items():
        chi[G.mult[G.inv[w], v]] ^= a
    psi = np.zeros(G.order, dtype=np.int64)
    for t in G.left_transversal(b.extended_defect_group):
        psi ^= chi[G.mult[G.mult[G.inv[t]], t]]  # psi(g) += chi(t^-1.g.t)
    return sigma_ok, bool((psi == b.group_algebra_vector).all())


def _choose_class_element(G: GroupTable, cls, E: Subgroup) -> int:
    """An element c of the class whose extended centralizer C*_G(c) meets E
    in a Sylow 2-subgroup P of C*_G(c), compared by orders.  C_G(c) is
    normal of index at most 2 in C*_G(c), so P meets it in a Sylow
    2-subgroup D = C_E(c) of C_G(c), and Delta D <= Delta E.  For a real
    class with c != c^-1 the index is 2 and some s in P inverts c, hence d:
    conjugating by s carries the entry (d, d^-1) of Theta to its transpose,
    so Theta is sigma-fixed.  Asking only for a Sylow 2-subgroup of C_G(c)
    inside E can pick a c that E does not invert (S5's 5-cycles)."""
    for c in cls.members:
        full = G.sylow2(within=G.extended_centralizer(c)).order
        if G.extended_centralizer(c, within=E).order == full:
            return c
    raise AssertionError("no class element with extended centralizer Sylow in E")


# -- serialization --------------------------------------------------------


def block_to_dict(b: BlockInfo) -> dict:
    return {
        "coefficients": {
            str(i): format(int(b.idempotent[i]), "x") for i in b.support
        },
        "support_class_reps": [int(b.centre.classes[i].rep) for i in b.support],
        "real": b.real,
        "principal": b.principal,
        "defect_group": b.defect_group and b.defect_group.to_dict(),
        "extended_defect_group": (
            b.extended_defect_group and b.extended_defect_group.to_dict()
        ),
    }
