"""2-blocks: central idempotents, defect groups, quadratic type, Theta."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symvert import blocks, catalog, forms, linalg, rep
from symvert.field import make_field, splitting_degree
from symvert.group import group_from_dict
from symvert.linalg import mat_mul

from conftest import (
    block_nondegenerate_reference,
    centre_mul_by_loop,
    contragredient_by_loop,
    dense_theta,
    regular_bimodule,
    theta_reference,
    theta_verdicts_reference,
)

F2 = make_field(1)
S3 = catalog.suite_group("S3")
S4 = catalog.suite_group("S4")
D12 = catalog.suite_group("D12")
SL23 = catalog.suite_group("SL(2,3)")
SMALL = [name for name in catalog.SUITE_NAMES if catalog.suite_group(name).order <= 24]


def test_centre_algebra_structure():
    Z = blocks.CentreAlgebra(S3, F2)
    assert Z.n == 3
    # class sums commute and the identity class is the unit
    for i in range(3):
        ei = np.zeros(3, dtype=np.int64)
        ei[i] = 1
        assert (Z.mul(Z.unit, ei) == ei).all()
        for j in range(3):
            ej = np.zeros(3, dtype=np.int64)
            ej[j] = 1
            assert (Z.mul(ei, ej) == Z.mul(ej, ei)).all()


@pytest.mark.parametrize("m", [1, 2, 3, 12])
def test_centre_product_and_contragredient_match_the_loops(m):
    # the XOR-reduced product table and the gather by inverse classes
    # against one class pair (one class) at a time, on random elements of
    # Z(kG) with some zero coefficients
    F = make_field(m)
    rng = np.random.default_rng(m)
    for name in catalog.SUITE_NAMES:
        Z = blocks.CentreAlgebra(catalog.suite_group(name), F)
        for _ in range(50):
            u, v = rng.integers(0, F.q, (2, Z.n)) * rng.integers(0, 2, (2, Z.n))
            assert Z.mul(u, v).tobytes() == centre_mul_by_loop(Z, u, v).tobytes()
            want = contragredient_by_loop(Z, u)
            assert Z.contragredient(u).tobytes() == want.tobytes()


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("name", catalog.SUITE_NAMES)
def test_centre_matches_group_algebra_product(name, m):
    # multiply two scaled class sums in kG directly and re-express on class
    # sums; the scalars run through the nonzero elements of the field
    G = catalog.suite_group(name)
    F = make_field(m)
    Z = blocks.CentreAlgebra(G, F)
    for i in range(Z.n):
        for j in range(Z.n):
            ei = np.zeros(Z.n, dtype=np.int64)
            ei[i] = 1 + i % (F.q - 1)
            ej = np.zeros(Z.n, dtype=np.int64)
            ej[j] = 1 + (i + j) % (F.q - 1)
            prod = Z.mul(ei, ej)
            vi = Z.to_group_algebra(ei)
            vj = Z.to_group_algebra(ej)
            got = np.zeros(G.order, dtype=np.int64)
            # convolution by hand
            for g in np.nonzero(vi)[0]:
                for h in np.nonzero(vj)[0]:
                    got[G.mul(int(g), int(h))] ^= F.mul(int(vi[g]), int(vj[h]))
            assert (got == Z.to_group_algebra(prod)).all()


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("name", catalog.SUITE_NAMES)
def test_block_idempotents_are_primitive(name, m):
    # e is primitive in Z(kG) iff the Berlekamp subalgebra {a : a^q = a}
    # of e.Z, which is GF(q)^r for r primitive idempotents, has dim 1
    F = make_field(m)
    bl = blocks.block_decomposition(catalog.suite_group(name), F)
    Z = bl[0].centre
    total = np.zeros(Z.n, dtype=np.int64)
    for b in bl:
        e = b.idempotent
        total ^= e
        eZ = linalg.Subspace(F, Z.n, np.array([Z.mul(e, c) for c in linalg.eye(Z.n)]))
        frob = np.array([eZ.coords(Z.power(v, F.q) ^ v) for v in eZ.basis]).T
        assert eZ.dim - linalg.rank(F, frob) == 1
    assert (total == Z.unit).all()


def test_blocks_s3():
    bl = blocks.block_decomposition(S3, F2)
    assert len(bl) == 2
    principal = [b for b in bl if b.principal]
    assert len(principal) == 1
    b0 = principal[0]
    assert b0.real
    assert b0.defect_group.order == 2
    assert b0.extended_defect_group.order == 2  # E = D for principal blocks
    other = [b for b in bl if not b.principal][0]
    assert other.real
    assert other.defect_group.order == 1  # defect zero
    assert other.extended_defect_group.order == 2


def test_blocks_sum_to_one_and_orthogonal():
    for G in (S3, SL23, D12):
        bl = blocks.block_decomposition(G, F2)
        Z = bl[0].centre
        total = np.zeros(Z.n, dtype=np.int64)
        for b in bl:
            assert (Z.mul(b.idempotent, b.idempotent) == b.idempotent).all()
            total ^= b.idempotent
            for c in bl:
                if c is not b:
                    assert not Z.mul(b.idempotent, c.idempotent).any()
            # 2-regular support
            for i in b.support:
                assert Z.classes[i].is_2regular
        assert (total == Z.unit).all()


def test_blocks_sl23():
    bl = blocks.block_decomposition(SL23, F2)
    # the quaternion O_2 contains its own centralizer, so kG is one block
    assert len(bl) == 1
    b0 = bl[0]
    assert b0.principal and b0.real
    assert b0.defect_group.order == 8  # quaternion Sylow


# built from a group file's data, as the CLI builds them
C3 = group_from_dict({"points": 3, "generators": [[2, 3, 1]]})
C7 = group_from_dict({"points": 7, "generators": [[2, 3, 4, 5, 6, 7, 1]]})


def test_central_character():
    # reference: C_i+ acts on a simple module S of the block through the
    # centre of End(S), a field, so omega_B(C_i+) != 0 exactly when that
    # action is not zero.  Over C7 the characters lie in GF(8), off GF(2)
    # and GF(4), but the test needs no splitting field
    for G, m in itertools.product((S3, S4, D12, SL23, C7), (1, 2)):
        F = make_field(m)
        bl = blocks.block_decomposition(G, F)
        seen = set()
        for S in rep.irreducible_modules(G, F):
            b = blocks.block_of_module(S, bl)
            seen.add(id(b))
            assert blocks.class_sum_is_unit(b, 0)  # the identity class
            for i, c in enumerate(b.centre.classes):
                acts = [S.action(x) for x in c.members]
                act = linalg.combine(F, [1] * c.size, acts)
                assert blocks.class_sum_is_unit(b, i) == bool(act.any())
            assert blocks.class_sum_is_unit(b, b.defect_class)
        assert len(seen) == len(bl)


def test_principal_block_via_augmentation():
    for G in (S3, S4, D12, SL23):
        bl = blocks.block_decomposition(G, F2)
        b0 = [b for b in bl if b.principal][0]
        # augmentation: sum over the group of the idempotent's coefficients
        total = 0
        v = b0.centre.to_group_algebra(b0.idempotent)
        for x in v:
            total ^= int(x)
        assert total == 1


def test_defect_group_index_in_extended():
    for G in (S3, S4, D12, SL23):
        for b in blocks.block_decomposition(G, F2):
            D = b.defect_group
            E = b.extended_defect_group
            assert G.conjugate_into(D, E) is not None or G.is_subgroup_of(D, E)
            assert E.order // D.order in (1, 2)
            if b.principal:
                assert E.order == D.order == G.sylow2().order


def test_block_of_module_routing():
    bl = blocks.block_decomposition(S3, F2)
    k = rep.trivial_module(S3, F2)
    assert blocks.block_of_module(k, bl).principal
    M = [m for m in rep.irreducible_modules(S3, F2) if m.dim == 2][0]
    assert not blocks.block_of_module(M, bl).principal


def test_quadratic_type_pim_s3():
    M = [m for m in rep.irreducible_modules(S3, F2) if m.dim == 2][0]
    q = blocks.quadratic_type_pim(M)
    assert q.quadratic
    assert q.involution is not None
    assert S3.element_order(q.involution) == 2
    # the witness: B(t.e_i, e_i) = 1 for the reported basis vector
    t = q.involution
    val = int(
        linalg.mat_vec(
            F2,
            mat_mul(F2, M.action(t).T, q.form.gram),
            np.eye(M.dim, dtype=np.int64)[q.basis_index],
        )[q.basis_index]
    )
    assert val == 1


def test_quadratic_type_false_for_c3c4():
    G = catalog.suite_group("C3:C4")
    M = [m for m in rep.irreducible_modules(G, F2) if m.dim == 2][0]
    q = blocks.quadratic_type_pim(M)
    assert not q.quadratic


def test_regular_bimodule():
    bi = regular_bimodule(S3, F2)
    assert bi.module.dim == 6 and bi.product.order == 36
    assert bi.form.symmetric and bi.form.nondegenerate
    # (g, g) fixes the identity basis vector
    for h in range(6):
        gg = bi.pair(h, h)
        A = bi.module.action(gg)
        e0 = np.zeros(6, dtype=np.int64)
        e0[0] = 1
        assert (linalg.mat_vec(F2, A.T, e0) == e0).all() or (
            linalg.mat_vec(F2, A, e0) == e0
        ).all()


def test_build_theta_s3_principal():
    bl = blocks.block_decomposition(S3, F2)
    bi = regular_bimodule(S3, F2)
    b0 = [b for b in bl if b.principal][0]
    cert = blocks.build_theta(b0)
    assert cert.sigma_fixed and cert.trace_is_block
    theta = dense_theta(S3, cert.entries)
    assert (theta == theta_reference(b0, bi, cert.choices)).all()
    sigma = forms.Adjoint(bi.form)
    assert (sigma(theta) == theta).all()


def test_build_theta_defect_zero():
    bl = blocks.block_decomposition(S3, F2)
    bi = regular_bimodule(S3, F2)
    dz = [b for b in bl if not b.principal][0]
    cert = blocks.build_theta(dz)
    assert cert.sigma_fixed and cert.trace_is_block
    theta = dense_theta(S3, cert.entries)
    assert (theta == theta_reference(dz, bi, cert.choices)).all()
    assert theta_verdicts_reference(dz, bi, theta) == (True, True)


def test_verify_theorem_vertexBlock_s3():
    bl = blocks.block_decomposition(S3, F2)
    mods = rep.irreducible_modules(S3, F2)
    for b in bl:
        r = blocks.verify_theorem_vertexBlock(S3, F2, b, mods)
        assert r.part_i and r.part_ii and r.part_iii
        assert r.theta is not None and r.theta.trace_is_block


def _real_blocks(name, m):
    G = catalog.suite_group(name)
    F = make_field(m)
    return G, F, [b for b in blocks.block_decomposition(G, F) if b.real]


FIELDS = [(name, m) for name in catalog.SUITE_NAMES
          for m in sorted({1, splitting_degree(catalog.suite_group(name))})]


@pytest.mark.parametrize("name,m", FIELDS)
def test_vertex_block_theorem_on_every_real_block(name, m):
    G, F, bl = _real_blocks(name, m)
    irreps = rep.irreducible_modules(G, F)
    for b in bl:
        r = blocks.verify_theorem_vertexBlock(G, F, b, irreps)
        assert r.part_i and r.part_ii and r.part_iii is True
        assert r.theta.sigma_fixed and r.theta.trace_is_block


NONDEG_GROUPS = {name: catalog.suite_group(name) for name in catalog.SUITE_NAMES}
NONDEG_GROUPS.update(C3=C3, C7=C7)
NONDEG_CASES = [(name, m) for name in catalog.SUITE_NAMES for m in (1, 2)]
NONDEG_CASES += [("C3", 2), ("C7", 3)]


@pytest.mark.parametrize("name,m", NONDEG_CASES)
def test_block_nondegeneracy_is_reality(name, m):
    # the orthonormal form on kG.b through the regular module, b.real, and
    # sigma(b) = b on b's |G|-vector agree on every block; the catalogue's
    # blocks are all real, C3 over GF(4) and C7 over GF(8) have non-real ones
    G, F = NONDEG_GROUPS[name], make_field(m)
    bl = blocks.block_decomposition(G, F)
    for b in bl:
        v = b.group_algebra_vector
        fixed = bool((v[G.inv] == v).all())
        assert block_nondegenerate_reference(G, F, b) == b.real == fixed, name
        if not b.real:
            with pytest.raises(ValueError, match="real blocks"):
                blocks.verify_theorem_vertexBlock(G, F, b, [])
    assert all(b.real for b in bl) == (name not in ("C3", "C7")), name


def test_vertex_block_theorem_on_s6():
    # beyond the catalogue: S6 from (1 2) and (1 2 3 4 5 6), both real
    # blocks over GF(2), its irreducibles as the sample modules
    G = group_from_dict({"points": 6, "generators": [[2, 1, 3, 4, 5, 6],
                                                     [2, 3, 4, 5, 6, 1]]})
    assert G.order == 720
    irreps = rep.irreducible_modules(G, F2)
    real = [b for b in blocks.block_decomposition(G, F2) if b.real]
    assert len(real) == 2
    for b in real:
        r = blocks.verify_theorem_vertexBlock(G, F2, b, irreps)
        assert r.part_i and r.part_ii and r.part_iii is True


@pytest.mark.parametrize("m", [1, 4])
def test_centralizer_only_choice_breaks_sigma(monkeypatch, m):
    # asking only that E hold a Sylow 2-subgroup of C_G(c) picks a 5-cycle
    # that E does not invert: Theta's trace is still the block, but Theta
    # is not fixed by the adjoint
    def centralizer_only(G, cls, E):
        for c in cls.members:
            full = G.sylow2(within=G.centralizer(c)).order
            if G.sylow2(within=G.centralizer(c, within=E)).order == full:
                return c
        raise AssertionError("no class element with defect group inside E")

    _, _, bl = _real_blocks("S5", m)
    (b,) = [b for b in bl if b.extended_defect_group.order == 4]
    assert blocks.build_theta(b).sigma_fixed
    monkeypatch.setattr(blocks, "_choose_class_element", centralizer_only)
    cert = blocks.build_theta(b)
    assert cert.trace_is_block and not cert.sigma_fixed


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("name", SMALL)
def test_theta_matches_the_bimodule_reference(name, m):
    # Theta from G's table against Theta built by relative traces on kG as
    # a G x G-module; the verdicts also agree once any one entry is dropped
    G, F, bl = _real_blocks(name, m)
    bi = regular_bimodule(G, F)
    for b in bl:
        cert = blocks.build_theta(b)
        theta = dense_theta(G, cert.entries)
        assert (theta == theta_reference(b, bi, cert.choices)).all()
        verdicts = (cert.sigma_fixed, cert.trace_is_block)
        assert verdicts == theta_verdicts_reference(b, bi, theta) == (True, True)
        for key in cert.entries:
            dropped = {k: a for k, a in cert.entries.items() if k != key}
            assert blocks.theta_verdicts(b, dropped) == theta_verdicts_reference(
                b, bi, dense_theta(G, dropped)
            )


def test_block_to_dict_shape():
    bl = blocks.block_decomposition(S3, F2)
    d = blocks.block_to_dict(bl[0])
    assert set(d) >= {
        "coefficients", "support_class_reps", "real", "principal",
        "defect_group", "extended_defect_group",
    }


def _block_invariants(G, F, relabel):
    """Each block as (kG vector over the original ids, real, principal,
    |D|, |E|), given the original-to-G id map."""
    out = []
    for b in blocks.block_decomposition(G, F):
        E = b.extended_defect_group
        out.append((
            tuple(b.group_algebra_vector[relabel]), b.real, b.principal,
            b.defect_group.order, None if E is None else E.order,
        ))
    return sorted(out)


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(SMALL), m=st.sampled_from([1, 2]), data=st.data())
def test_blocks_do_not_depend_on_element_labels(name, m, data):
    G = catalog.suite_group(name)
    F = make_field(m)
    # p maps each id to its new label; the identity keeps label 0
    p = np.array([0] + data.draw(st.permutations(range(1, G.order))))
    mult = np.empty_like(G.mult)
    mult[np.ix_(p, p)] = p[G.mult]
    gens = [int(p[g]) for g in G.generators]
    H = group_from_dict({"table": mult, "generators": gens})
    assert _block_invariants(H, F, p) == _block_invariants(G, F, np.arange(G.order))
