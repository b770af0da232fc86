"""Relative projectivity: Green vertices, sources, and symmetric vertices.

The classic machinery (relative trace maps, the projectivity criterion via
"identity is a relative trace", Green vertices and sources) is extended to
forms: a nondegenerate symmetric invariant form is H-projective when its
defining endomorphism is the relative trace of a self-adjoint one, and a
module is symmetrically H-projective when that trace subspace contains a
unit.  Symmetric vertices — minimal subgroups for the latter — always
contain a Green vertex with index at most two, which prunes their search,
and the way they sit over the Green vertex splits into three cases driven
by the self-duality and symmetric type of the sources.

Every "is some trace a unit?" question runs through one map: for
indecomposable M, E_G(M) is local, and `ModuleRep.unit_map`, read once
per module by `rep.local_quotient`, is psi(x) = P.x.R0, x on one simple
E_G(M)-submodule, nonzero exactly on the units.  psi(tr_H^G f) is linear
in f, so one dual trace (`first_unit`) finds the first f with a unit
trace: the basis element b of the projectivity certificate alpha =
b.tr(b)^-1, tr_H^G(alpha) = 1; the self-adjoint element of a symmetric
vertex; the case-I witness; and the component f of Res_V M with
tr_V^G(f.alpha) a unit, whose image is a source.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

# SHA-256 from the interpreter's own module, as `random` takes its SHA-512:
# hashlib would load OpenSSL's libcrypto, about 3.5 MB of a fresh process
try:
    from _sha256 import sha256  # CPython 3.10 and 3.11
except ImportError:
    try:
        from _sha2 import sha256  # CPython 3.12 and later
    except ImportError:
        from hashlib import sha256

from . import forms, linalg, rep
from .forms import Adjoint, GForm
from .group import Subgroup
from .linalg import combine, eye, mat_mul, stack_left, stack_right, zeros
from .rep import ModuleRep


def rel_trace(M: ModuleRep, f: np.ndarray, H: Subgroup) -> np.ndarray:
    """tr_H^G(f) = sum of rho(t).f.rho(t)^-1 over a transversal of H in G;
    tr_H^K is this trace on `rep.restrict(M, K)`, H in K's own table."""
    return rel_trace_batch(M, [f], H)[0]


# entries of one chunk's stacked products in `rel_trace_batch`: s h d^2 for
# s transversal elements.  A fixed budget, so that stacking allocates no
# more than one element at a time did once h d^2 >= 2^16, and at most 2^16
# entries below that
TRACE_CHUNK_ENTRIES = 1 << 16


def rel_trace_batch(
    M: ModuleRep, fs: list[np.ndarray], H: Subgroup
) -> list[np.ndarray]:
    """Relative traces of several endomorphisms at once (shared transversal),
    two products per chunk of s transversal elements: Y = vstack(rho(t)).C
    for C = hstack(f_j), then Y rearranged to rows (j, a) and columns
    (t, b) times vstack(rho(t)^-1), which sums over t inside the product."""
    G = M.group
    F = M.F
    trans = G.left_transversal(H)
    d = M.dim
    h = len(fs)
    C = np.concatenate(fs, axis=1)  # d x (h d)
    acts = M.full_action()
    acc = zeros(h * d, d)  # rows (j, a): the traces stacked
    step = max(1, TRACE_CHUNK_ENTRIES // (h * d * d))
    for i in range(0, len(trans), step):
        ts = trans[i : i + step]
        s = len(ts)
        Y = mat_mul(F, acts[ts].reshape(s * d, d), C)
        Y = Y.reshape(s, d, h, d).transpose(2, 1, 0, 3).reshape(h * d, s * d)
        acc ^= mat_mul(F, Y, acts[G.inv[ts]].reshape(s * d, d))
    return [t.copy() for t in acc.reshape(h, d, d)]


# -- relative projectivity ------------------------------------------------


@dataclass
class ProjectivityCert:
    projective: bool
    alpha: np.ndarray | None  # H-endomorphism with tr_H^G(alpha) = identity
    endo_basis: np.ndarray | None = None  # the (n, d, d) basis of E_H(M) solved over


def first_unit(M: ModuleRep, fs: list[np.ndarray], H: Subgroup) -> int | None:
    """The first i with tr_H^G(fs[i]) a unit of E_G(M), by one dual trace;
    ValueError for decomposable M.  psi = P.x.R0 is `M.unit_map`: E_G(M)
    is local, and x is a unit exactly when psi(x) != 0.  Entry (a, b) of
    psi(tr(f)) is <W_ab, f>, where W_ab sums (P.rho(t))[a, :]^T
    (rho(t)^-1.R0)[:, b] over the transversal: one product gives the s^2
    matrices W_ab, and each f costs one row of another."""
    psi = _local_map(M)
    F, d, s = M.F, M.dim, len(psi.L)
    trans = M.group.left_transversal(H)
    n, acts = len(trans), M.full_action()
    U = mat_mul(F, psi.L, acts[trans].transpose(1, 0, 2).reshape(d, n * d))
    V = mat_mul(F, acts[M.group.inv[trans]].reshape(n * d, d), psi.R)
    W = mat_mul(F, U.reshape(s, n, d).transpose(0, 2, 1).reshape(s * d, n),
                V.reshape(n, d * s))  # rows (a, i), columns (j, b)
    W = W.reshape(s, d, d, s).transpose(1, 2, 0, 3).reshape(d * d, s * s)
    hits = mat_mul(F, np.reshape(fs, (len(fs), d * d)), W).any(axis=1).nonzero()[0]
    return int(hits[0]) if len(hits) else None


def _local_map(M: ModuleRep) -> rep.Semisimple:
    """`M.unit_map`; ValueError when M is decomposable."""
    if M.unit_map is None:
        raise ValueError("module is decomposable")
    return M.unit_map


def is_projective(M: ModuleRep, H: Subgroup) -> ProjectivityCert:
    """Whether M is H-projective: alpha in E_H(M) with tr_H^G(alpha) = 1.

    The trace image is an ideal of E_G(M), so it holds 1 exactly when it
    holds a unit.  For indecomposable M, `first_unit` finds a basis element
    b with u = tr(b) a unit, and alpha = b.u^-1: as u^-1 commutes with G,
    tr(alpha) = tr(b).u^-1 = 1.  For decomposable M (`M.unit_map` is None)
    a solve on the traces of the whole basis finds alpha.  There is
    no alpha when |G:H|_2 does not divide dim M (Green): by linearity M is
    H-projective over the algebraic closure too, where each indecomposable
    summand X has a vertex Q <=_G H, and |G:Q|_2 divides dim X.
    """
    F = M.F
    index = M.group.order // H.order  # its 2-part is index & -index
    if M.dim % (index & -index):
        return ProjectivityCert(False, None)
    res = rep.restrict(M, H)
    basis = np.array(rep.hom_space(res, res))  # one stack, which no reader copies
    if not len(basis):
        return ProjectivityCert(False, None)
    if M.unit_map is None:
        A = np.array([t.ravel() for t in rel_trace_batch(M, basis, H)]).T
        x, _ = linalg.solve(F, A, eye(M.dim).ravel())
        alpha = None if x is None else combine(F, x, basis)
    elif (i := first_unit(M, basis, H)) is not None:
        alpha = mat_mul(F, basis[i], linalg.inverse(F, rel_trace(M, basis[i], H)))
    else:
        alpha = None
    return ProjectivityCert(alpha is not None, alpha, basis)


def is_summand(M: ModuleRep, N: ModuleRep) -> bool:
    """Whether M is a direct summand of N.

    The span of all compositions M -> N -> M is the trace ideal of N in
    E_G(M); M is a summand exactly when it contains the identity.
    """
    F = M.F
    phis = rep.hom_space(M, N)
    psis = rep.hom_space(N, M)
    if not phis or not psis:
        return False
    seen = linalg.Echelon(F, M.dim**2)
    target = eye(M.dim).ravel()
    for p in psis:
        for q in phis:
            v = mat_mul(F, p, q).ravel()
            if v.any() and seen.insert(v):
                if seen.contains(target):
                    return True
    return False


def _is_orth_summand_of_induced(
    M: ModuleRep, base: GForm, Z: ModuleRep, BZ: GForm, V: Subgroup
) -> np.ndarray | None:
    """A b in Hom_V(Res_V M, Z) whose reciprocity map phi_b: M -> Ind_V^G Z,
    m -> sum over t of t (x) b(t^-1 m), pulls the induced form of BZ back
    to a nondegenerate form on M; None when there is none.

    With P and B0 the Grams of base and BZ, the pulled-back Gram is
    P.tr_V^G(P^-1 b^T B0 b), quadratic in b.  On a basis b_1..b_n its
    coefficients are theta_ii = tr(P^-1 b_i^T B0 b_i) and, for i < j,
    theta_ij = tr(P^-1 (b_i^T B0 b_j + b_j^T B0 b_i)).  Requires M
    indecomposable: then E_G(M) is local, and modulo its radical the map
    is a polynomial over a field of degree < q in each variable (over
    GF(2), c^2 = c makes it multilinear), so it takes a unit value exactly
    when some theta is a unit.  b_i is a witness for a unit theta_ii, and
    b_i + b_j for a unit theta_ij once no theta_ii is one.  The first unit
    theta is found by one dual trace through `M.unit_map`: theta is a
    unit exactly when psi(theta) != 0, so no theta itself is traced.
    """
    F = M.F
    downs = rep.hom_space(rep.restrict(M, V), Z)
    if not downs:
        return None
    n, d, b = len(downs), M.dim, np.array(downs)
    Pinv = linalg.inverse(F, base.gram)
    PbT = stack_left(F, Pinv, b.transpose(0, 2, 1)).reshape(n * d, Z.dim)
    # C[j, i] = P^-1 b_i^T B0 b_j, from the P^-1 b_i^T stacked by rows
    C = stack_left(F, PbT, stack_left(F, BZ.gram, b)).reshape(n, n, d, d)
    pairs = [(i, i) for i in range(n)]
    pairs += list(itertools.combinations(range(n), 2))
    ends = [C[i, i] if i == j else C[i, j] ^ C[j, i] for i, j in pairs]
    k = first_unit(M, ends, V)
    if k is None:
        return None
    i, j = pairs[k]
    return downs[i] if i == j else downs[i] ^ downs[j]


# -- Green vertices and sources -------------------------------------------


@dataclass
class SourceInfo:
    module: ModuleRep
    self_dual: bool
    form: GForm | None  # a nondegenerate invariant symmetric form, if any

    @property
    def symmetric_type(self) -> bool:
        return self.form is not None


@dataclass
class GreenVertexInfo:
    """The vertex V of M with its projectivity certificate; the sources are
    computed on first read of `sources` and kept."""

    vertex: Subgroup
    cert: ProjectivityCert
    module: ModuleRep

    @functools.cached_property
    def sources(self) -> list[SourceInfo]:
        """The indecomposable kV-modules Z with M | Ind_V^G Z, which are the
        N_G(V)-conjugates of one of them (Green): f.Res_V M for the first
        component f of `rep.decompose(Res_V M)` over the basis of E_V(M)
        that `is_projective` solved over with tr_V^G(f.alpha) a unit of
        E_G(M), tr_V^G(alpha) = 1.  The components' traces sum to
        tr(alpha) = 1 and E_G(M) is local, so one of them is a unit;
        f.alpha factors through f.M, so by reciprocity the unit factors
        through Ind_V^G(f.M).  The others are the images of the
        V-endomorphisms rho(t).f.rho(t)^-1 over t in N_G(V), one per
        isomorphism class.  A trivial V makes M projective, and its one
        source is the trivial module of the trivial group: nothing is
        decomposed."""
        M, V, cert = self.module, self.vertex, self.cert
        G, F = M.group, M.F
        if V.order == 1:
            Z = rep.trivial_module(rep.subgroup_table(V)[0], F)
            return [SourceInfo(Z, True, forms.base_form(Z))]
        res = rep.restrict(M, V)
        E = rep.end_algebra(res, basis=cert.endo_basis)
        fs = [c.idempotent for c in rep.decompose(res, E).components]
        i = first_unit(M, [mat_mul(F, f, cert.alpha) for f in fs], V)
        if i is None:
            raise AssertionError("no component of Res_V M has a unit trace")
        f = fs[i]
        gens = np.array(V.gens or V.elements, dtype=np.int64)
        twists: dict[bytes, int] = {}  # t^-1 v t on V's gens fixes the conjugate
        for t in G.left_transversal(V, G.normalizer(V)):
            twists.setdefault(G.mult[G.mult[G.inverse(t), gens], t].tobytes(), t)
        sources: list[SourceInfo] = []
        for t in twists.values():
            ft = mat_mul(F, M.action(t), mat_mul(F, f, M.action(G.inverse(t))))
            Z, _, _ = rep.sub_module(res, linalg.col_space(F, ft))
            if all(rep.module_iso(Z, s.module) is None for s in sources):
                form = forms.base_form(Z)  # nondegenerate: an iso Z -> Z*
                selfdual = form is not None or rep.is_selfdual(Z)
                sources.append(SourceInfo(Z, selfdual, form))
        return sources


def green_vertex(M: ModuleRep) -> GreenVertexInfo:
    """The vertex of an indecomposable module: a minimal 2-subgroup V with
    M relatively V-projective, found ascending the 2-subgroup classes, with
    the certificate alpha, tr_V^G(alpha) = 1.  A decomposable M raises
    ValueError."""
    G = M.group
    _local_map(M)
    classes = sorted(G.two_subgroups_up_to_conjugacy(), key=lambda s: s.order)
    for H in classes:
        cert = is_projective(M, H)
        if cert.projective:
            return GreenVertexInfo(H, cert, M)
    raise AssertionError("module not projective relative to a Sylow 2-subgroup")


# -- projectivity of forms ------------------------------------------------


def sigma_fixed_basis(
    M: ModuleRep, sigma: Adjoint, H: Subgroup,
    endo_basis: np.ndarray | None = None,
) -> list[np.ndarray]:
    """Basis of the self-adjoint part of E_H(M), from `endo_basis` when it
    is given: the basis E_H(M) = `rep.hom_space(res, res)` for res =
    `rep.restrict(M, H)`, solved already.
    sigma(b) = (P^-1 b^T) P for the whole basis in two stacked products,
    the first on the transposes with no copy of the basis, and the fixed
    elements as one product of the kernel with the basis."""
    F, d = M.F, M.dim
    if endo_basis is None:
        res = rep.restrict(M, H)
        endo_basis = rep.hom_space(res, res)
    if not len(endo_basis):
        return []
    B = np.asarray(endo_basis)
    sig = stack_right(F, stack_left(F, sigma.gram_inv, B.transpose(0, 2, 1)), sigma.gram)
    flat = B.reshape(len(B), d * d)
    K = linalg.kernel(F, (flat ^ sig.reshape(flat.shape)).T)
    return list(mat_mul(F, K, flat).reshape(len(K), d, d))


@dataclass
class FormProjectivityCert:
    projective: bool
    alpha: np.ndarray | None = None  # self-adjoint with tr_H^G(alpha) = theta
    isometry: np.ndarray | None = None  # phi: M -> Ind_H^G(alpha.M)
    target_module: ModuleRep | None = None
    target_form: GForm | None = None
    verified: bool = False


def form_is_H_projective(
    B: GForm, theta: np.ndarray, H: Subgroup
) -> FormProjectivityCert:
    """Whether B_theta is H-projective: theta = tr_H^G(alpha) for some
    self-adjoint alpha in E_H(M).  On success the explicit isometric
    embedding of (M, B_theta) into Ind_H^G(alpha.M, B-hat) is built and
    verified, including nondegeneracy of B-hat on alpha.M."""
    F = B.F
    M = B.module
    sigma = Adjoint(B)
    Btheta = forms.form_from_endo(B, theta)
    if not Btheta.symmetric or not Btheta.nondegenerate:
        raise ValueError("the form to test must be symmetric and nondegenerate")
    fixed = sigma_fixed_basis(M, sigma, H)
    if not fixed:
        return FormProjectivityCert(False)
    traces = rel_trace_batch(M, fixed, H)
    A = np.array([t.ravel() for t in traces]).T
    x, _ = linalg.solve(F, A, theta.ravel())
    if x is None:
        return FormProjectivityCert(False)
    alpha = combine(F, x, fixed)
    # phi(m) = sum over the transversal of t tensor alpha.t^-1.m, an
    # isometry (M, B_theta) -> Ind_H^G(alpha.M, B-hat)
    res = rep.restrict(M, H)
    Lmod, incl, proj = rep.sub_module(res, linalg.col_space(F, alpha))
    # B-hat(u, alpha.m) = B(u, m) on alpha.M, in the basis given by incl
    d = Lmod.dim
    bhat = zeros(d, d)
    for j in range(d):
        m, _ = linalg.solve(F, alpha, incl[:, j])
        bhat[:, j] = linalg.mat_vec(F, mat_mul(F, incl.T, B.gram), m)
    ind, ind_form, trans = forms.induce_form(GForm(Lmod, bhat), H)
    G = M.group
    phi = np.concatenate(
        [mat_mul(F, proj, mat_mul(F, alpha, M.action(G.inverse(t)))) for t in trans]
    )
    pulled = mat_mul(F, phi.T, mat_mul(F, ind_form.gram, phi))
    ok = bool(
        linalg.is_invertible(F, bhat)  # B-hat nondegenerate on alpha.M
        and all((mat_mul(F, phi, A) == mat_mul(F, Ai, phi)).all()
                for A, Ai in zip(M.gen_matrices, ind.gen_matrices))
        and (pulled == mat_mul(F, theta.T, B.gram)).all()
    )
    return FormProjectivityCert(True, alpha, phi, ind, ind_form, ok)


# -- symmetric projectivity and symmetric vertices ------------------------


@dataclass
class SymProjectivityCert:
    projective: bool
    alpha: np.ndarray | None = None  # self-adjoint with tr_H^G(alpha) a unit
    theta: np.ndarray | None = None  # the unit trace
    base: GForm | None = None


def is_sym_projective(
    M: ModuleRep, H: Subgroup, base: GForm,
    endo_basis: np.ndarray | None = None,
) -> SymProjectivityCert:
    """Whether M is symmetrically H-projective: tr_H^G of the self-adjoint
    part of E_H(M) contains a unit of E_G(M).

    Requires M indecomposable (ValueError otherwise).  Then E_G(M) is
    local: its non-units form the radical, a subspace, so the traced
    subspace contains a unit exactly when one of the basis traces is a
    unit, that is, has a nonzero image under psi, `M.unit_map`.  One dual
    trace finds the first such basis element, and one trace gives theta.
    `endo_basis`, when given, is the basis of E_H(M) that
    `sigma_fixed_basis` would solve for.
    """
    fixed = sigma_fixed_basis(M, Adjoint(base), H, endo_basis)
    i = first_unit(M, fixed, H)
    if i is None:
        return SymProjectivityCert(False, base=base)
    alpha = fixed[i].copy()  # a view would pin the whole stack of fixed
    return SymProjectivityCert(True, alpha, rel_trace(M, alpha, H), base)


@dataclass
class SymVertexClass:
    subgroup: Subgroup
    cert: SymProjectivityCert

    @property
    def form(self) -> GForm:
        """The certified (T, sigma)-projective nondegenerate symmetric form."""
        return forms.form_from_endo(self.cert.base, self.cert.theta)


def symmetric_vertices(
    M: ModuleRep, base: GForm, green: GreenVertexInfo | None = None
) -> list[SymVertexClass]:
    """All minimal classes of subgroups T with M symmetrically T-projective.

    Every such class contains a conjugate of the Green vertex V with index
    at most 2, so only V-conjugates and their index-2 overgroups inside a
    fixed Sylow 2-subgroup are searched.  Each E_T(M) comes from the basis
    of E_V(M) that `is_projective` solved over (`_endo_basis_over`), with
    no Hom solve, and every unit test goes through `M.unit_map`.
    """
    G = M.group
    if green is None:
        green = green_vertex(M)
    V = green.vertex
    cands = [
        T
        for T in G.two_subgroups_up_to_conjugacy()
        if (T.order == V.order and G.subgroup_conjugate(T, V) is not None)
        or (T.order == 2 * V.order and G.conjugate_into(V, T) is not None)
    ]
    hits = []
    for T in cands:
        # no name holds a basis of E_T(M), so the next T does not pin it
        c = is_sym_projective(
            M, T, base, _endo_basis_over(M, V, green.cert.endo_basis, T)
        )
        if c.projective:
            hits.append(SymVertexClass(T, c))
    out = []
    for t in hits:
        dominated = any(
            s.subgroup.order < t.subgroup.order
            and G.conjugate_into(s.subgroup, t.subgroup) is not None
            for s in hits
        )
        if not dominated:
            out.append(t)
    return out


def _endo_basis_over(
    M: ModuleRep, V: Subgroup, endo: np.ndarray, T: Subgroup
) -> np.ndarray:
    """E_T(M) from endo, the stacked basis of E_V(M), for T containing
    gVg^-1 with index at most 2: E_gVg^-1(M) = rho(g).E_V(M).rho(g)^-1,
    and when the index is 2, E_T(M) is its kernel of x -> x.rho(t) +
    rho(t).x for one t in T outside gVg^-1.  `linalg.reverse_rref` makes
    the basis the one `rep.hom_space` returns for `rep.restrict(M, T)`,
    byte for byte, as one (n, d, d) stack."""
    if T.elements == V.elements:
        return endo
    G, F, d = M.group, M.F, M.dim
    g = G.conjugate_into(V, T)  # the identity 0 whenever V <= T, as for V = 1
    X = endo
    if g:
        X = stack_left(F, M.action(g), stack_right(F, X, M.action_inv(g)))
    flat = X.reshape(len(X), d * d)
    if T.order > V.order:
        inner = set(G.mult[G.mult[g, V.elements], G.inverse(g)].tolist())
        A = M.action(next(t for t in T.elements if t not in inner))
        comm = (stack_right(F, X, A) ^ stack_left(F, A, X)).reshape(flat.shape)
        flat = mat_mul(F, linalg.kernel(F, comm.T), flat)
    return linalg.reverse_rref(F, flat).reshape(-1, d, d)


# -- the case classification ----------------------------------------------


@dataclass
class VertexReport:
    module: ModuleRep
    green: GreenVertexInfo
    sym_vertices: list[SymVertexClass]
    case: str  # "I", "II" or "III"
    principal_block: bool | None
    checks: dict[str, bool] = field(default_factory=dict)


def classify_case(
    M: ModuleRep, base: GForm | None = None, check_principal: bool = True,
    *, seed: int = 0,
) -> VertexReport:
    """How the symmetric vertices of M sit over its Green vertex V:
    case III when the sources are not self-dual; case I when a source Z has
    symmetric type and M appears as a nondegenerate component of the induced
    form on Ind_V^G Z (then V itself is a symmetric vertex and M lies in
    the principal block); case II otherwise.

    Requires M indecomposable.  Case I holds iff tr_V^G(P^-1 b^T B0 b) is a
    unit for some b in Hom_V(Res_V M, Z), with P and B0 the Grams of base
    and of Z's form (`_is_orth_summand_of_induced`).  Proof: by Frobenius
    reciprocity every G-map M -> Ind Z is phi_b for one such b, and the
    induced form pulls back along phi_b to Gram P.tr_V^G(P^-1 b^T B0 b);
    M is a nondegenerate component exactly when some phi_b pulls it back
    to a nondegenerate form, as phi_b(M) then splits off with its
    orthogonal complement.  `seed` is ignored: the benchmark harness in
    perfbench/ still passes one."""
    G = M.group
    if base is None:
        base = forms.base_form(M)
        if base is None:
            raise ValueError("module has no nondegenerate symmetric form")
    green = green_vertex(M)
    sym = symmetric_vertices(M, base, green)
    V = green.vertex
    src = green.sources[0]
    checks: dict[str, bool] = {}
    if not src.self_dual:
        case = "III"
    elif src.symmetric_type and _is_orth_summand_of_induced(
        M, base, src.module, src.form, V
    ) is not None:
        case = "I"
    else:
        case = "II"
    if case == "I":
        checks["sym_vertex_equals_green_vertex"] = any(
            G.subgroup_conjugate(t.subgroup, V) is not None for t in sym
        )
    else:
        checks["all_sym_vertices_index_2_over_green"] = all(
            t.subgroup.order == 2 * V.order for t in sym
        )
    principal = None
    if check_principal and case == "I":
        from . import blocks

        principal = blocks.block_of_module(M).principal
        checks["principal_block"] = principal
    return VertexReport(M, green, sym, case, principal, checks)


# -- serialization --------------------------------------------------------


def _hash_matrix(A: np.ndarray) -> str:
    return sha256(A.tobytes()).hexdigest()[:16]  # tobytes is C order for any layout


def report_to_dict(r: VertexReport) -> dict:
    return {
        "green_vertex": {
            "order": r.green.vertex.order,
            "generators": list(r.green.vertex.gens),
        },
        "sources": [
            {
                "dim": s.module.dim,
                "self_dual": s.self_dual,
                "symmetric_type": s.symmetric_type,
            }
            for s in r.green.sources
        ],
        "symmetric_vertices": [
            {
                "order": t.subgroup.order,
                "generators": list(t.subgroup.gens),
                "form_hash": _hash_matrix(t.form.gram),
            }
            for t in r.sym_vertices
        ],
        "case": r.case,
        "principal_block": r.principal_block,
        "checks": r.checks,
    }
