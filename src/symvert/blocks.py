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
self-dual irreducibles, and the verification harness realizing the block
idempotent as a relative trace from the diagonal of the extended defect
group acting on kG as a G x G-module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import forms, linalg, rep, vertex
from .field import FieldCtx, splitting_degree
from .forms import Adjoint, GForm
from .group import FeasibilityError, GroupTable, Subgroup, direct_product
from .linalg import combine, eye, mat_mul, zeros
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
        F = self.F
        out = np.zeros(self.n, dtype=np.int64)
        for i in np.nonzero(u)[0]:
            for j in np.nonzero(v)[0]:
                c = F.mul(int(u[i]), int(v[j]))
                out ^= F.vscale(c, self.struct[i, j])
        return out

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
        out = np.zeros_like(u)
        for i, c in enumerate(self.classes):
            out[c.inverse_class] = u[i]
        return out


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
        # principal: the augmentation (sum over G of the coefficients) is 1
        aug = 0
        for i in support:
            if Z.classes[i].size % 2:
                aug ^= int(e[i])
        b = BlockInfo(e, support, real, aug == 1, Z)
        _fill_defect_groups(G, F, b)
        out.append(b)
    out.sort(key=lambda b: (not b.principal, b.idempotent.tobytes()))
    return out


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
    G = M.group
    F = M.F
    if blocks is None:
        blocks = block_decomposition(G, F)
    acts = [M.action(g) for g in range(G.order)]
    for b in blocks:
        A = combine(F, b.group_algebra_vector, acts)
        if (A == eye(M.dim)).all():
            return b
    raise ValueError("no block acts as the identity (module not indecomposable?)")


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
    acts = M.full_action()
    seen: set[int] = set()
    for t in G.involutions():
        cls = G.class_of(t)
        if cls in seen:
            continue
        seen.add(cls)
        # q_t on the m-th basis vector is the (m, m) entry of rho(t)^T.gram
        vals = np.diagonal(mat_mul(F, acts[t].T, B.gram))
        for m in range(M.dim):
            if vals[m]:
                return QuadraticTypeResult(True, t, m, B)
    return QuadraticTypeResult(False, None, None, B)


# -- kG as a G x G module and the Theta construction ----------------------


@dataclass
class RegularBimodule:
    module: ModuleRep  # kG over G x G
    product: GroupTable
    pair: callable  # (a, b) -> element of G x G
    form: GForm  # the orthonormal-basis form, G x G-invariant


def regular_bimodule(G: GroupTable, F: FieldCtx) -> RegularBimodule:
    """kG as a G x G-module: (g1, g2).x = g1.x.g2^-1, with the form making
    the group-element basis orthonormal."""
    GG, maps = direct_product(G, G)
    n = G.order
    mats = []
    for gen in GG.generators:
        a, b = maps.split(gen)
        # column x holds a 1 in row a.x.b^-1
        mats.append(eye(n)[:, G.mult[a, G.mult[:, G.inv[b]]]])
    M = ModuleRep(GG, F, mats, check=False)
    B = GForm(M, eye(n))
    return RegularBimodule(M, GG, maps.pair, B)


def diagonal_subgroup(bi: RegularBimodule, H: Subgroup) -> Subgroup:
    """Delta H = {(h, h)} inside G x G."""
    return Subgroup(bi.product, tuple(bi.pair(h, h) for h in H.elements), None)


@dataclass
class ThetaCert:
    theta: np.ndarray  # endomorphism of kG, sigma-fixed, in E_{Delta E}(kG)
    sigma_fixed: bool
    trace_is_block: bool
    choices: dict[int, int]  # class index -> chosen element


def build_theta(b: BlockInfo, bi: RegularBimodule) -> ThetaCert:
    """The explicit self-adjoint Delta-E-endomorphism of kG whose relative
    trace to G x G is the block idempotent: the sum over the support classes
    of alpha_i times the Delta-D_i-to-Delta-E trace of d_i (x) d_i^-1,
    where d_i is the square root of the class element inside its cyclic
    group and D_i a Sylow 2-subgroup of its centralizer lying inside E."""
    Z = b.centre
    G = Z.G
    F = Z.F
    E = b.extended_defect_group
    if E is None:
        raise ValueError("extended defect group required (real block)")
    dE = diagonal_subgroup(bi, E)
    n = G.order
    theta = zeros(n, n)
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
        o = G.element_order(c)
        d = G.power(c, (o + 1) // 2)  # the square root of c in <c>
        Dsub = G.sylow2(within=G.centralizer(c, within=E))
        dD = diagonal_subgroup(bi, Dsub)
        f = zeros(n, n)
        f[d, G.inverse(d)] = 1  # d (x) d^-1 as rank-one endomorphism
        tr = vertex.rel_trace(bi.module, f, dD, dE)
        theta ^= F.vscale(int(b.idempotent[i]), tr)
    sigma = Adjoint(bi.form)
    sigma_ok = bool((sigma(theta) == theta).all())
    full = vertex.rel_trace(bi.module, theta, dE)
    reb = rep.right_mult_matrix(G, b.group_algebra_vector)
    return ThetaCert(theta, sigma_ok, bool((full == reb).all()), choices)


def _choose_class_element(G: GroupTable, cls, E: Subgroup) -> int:
    """An element c of the class whose centralizer meets E in a full Sylow
    2-subgroup of C_G(c), so that Delta D <= Delta E."""
    for c in cls.members:
        full = G.sylow2(within=G.centralizer(c)).order
        if G.sylow2(within=G.centralizer(c, within=E)).order == full:
            return c
    raise AssertionError("no class element with defect group inside E")


@dataclass
class VertexBlockReport:
    part_i: bool | None
    part_ii: bool | None
    part_iii: bool | None
    theta: ThetaCert | None
    details: dict


THETA_ORDER_BOUND = 24  # part (iii) works over G x G, a group of order |G|^2


def verify_theorem_vertexBlock(
    G: GroupTable,
    F: FieldCtx,
    b: BlockInfo,
    sample_modules: list[ModuleRep],
) -> VertexBlockReport:
    """(i) symmetric vertices of indecomposable modules in the block lie in
    the extended defect group E; (ii) some self-dual irreducible in the
    block has symmetric vertex exactly E; (iii) on kG as a G x G-module the
    orthonormal form is nondegenerate on the block summand and Delta E-
    projective, certified by the explicit Theta (None when |G| exceeds
    THETA_ORDER_BOUND)."""
    if not b.real or b.extended_defect_group is None:
        raise ValueError("theorem applies to real blocks")
    E = b.extended_defect_group
    details: dict = {}
    blocks = block_decomposition(G, F)

    part_i = True
    checked = 0
    for M in sample_modules:
        base = forms.base_form(M)
        if base is None:
            continue
        if (block_of_module(M, blocks).idempotent != b.idempotent).any():
            continue
        checked += 1
        for t in vertex.symmetric_vertices(M, base):
            if G.conjugate_into(t.subgroup, E) is None:
                part_i = False
    details["part_i_modules_checked"] = checked
    if checked == 0:
        raise ValueError("no symmetric-type sample module lies in the block")

    part_ii = False
    for M in rep.irreducible_modules(G, F):
        if (block_of_module(M, blocks).idempotent != b.idempotent).any():
            continue
        base = forms.base_form(M)
        if base is None:
            continue
        classes = vertex.symmetric_vertices(M, base)
        if any(G.subgroup_conjugate(t.subgroup, E) is not None for t in classes):
            part_ii = True
            break

    part_iii = None
    theta_cert = None
    if G.order <= THETA_ORDER_BOUND:
        bi = regular_bimodule(G, F)
        S = linalg.col_space(
            F, rep.right_mult_matrix(G, b.group_algebra_vector)
        )
        nondeg = forms.is_nondegenerate_on(bi.form, S)
        details["B1_nondegenerate_on_block"] = nondeg
        theta_cert = build_theta(b, bi)
        part_iii = nondeg and theta_cert.sigma_fixed and theta_cert.trace_is_block
    return VertexBlockReport(part_i, part_ii, part_iii, theta_cert, details)


# -- serialization --------------------------------------------------------


def block_to_dict(b: BlockInfo) -> dict:
    return {
        "coefficients": {
            str(i): format(int(b.idempotent[i]), "x") for i in b.support
        },
        "support_class_reps": [int(b.centre.classes[i].rep) for i in b.support],
        "real": b.real,
        "principal": b.principal,
        "defect_group": (
            {"order": b.defect_group.order, "generators": list(b.defect_group.gens)}
            if b.defect_group
            else None
        ),
        "extended_defect_group": (
            {
                "order": b.extended_defect_group.order,
                "generators": list(b.extended_defect_group.gens),
            }
            if b.extended_defect_group
            else None
        ),
    }
