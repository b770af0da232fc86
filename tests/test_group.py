"""Finite group tables: classes, subgroups, Sylow theory, transversals."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from symvert import catalog
from symvert.field import make_field
from symvert.group import (
    FeasibilityError,
    Subgroup,
    from_permutations,
    group_from_dict,
    group_to_dict,
)

from conftest import (
    all_subgroups_by_every_element,
    associative_by_right_light,
    direct_product,
    gens_by_fresh_closure,
)

S3 = catalog.suite_group("S3")
S4 = catalog.suite_group("S4")
D12 = catalog.suite_group("D12")
SL23 = catalog.suite_group("SL(2,3)")
ALL = [catalog.suite_group(name) for name in catalog.SUITE_NAMES]
by_group = pytest.mark.parametrize("name", catalog.SUITE_NAMES)


def test_suite_group_orders():
    want = {
        "C2": 2, "V4": 4, "S3": 6, "D12": 12, "A4": 12, "S4": 24,
        "S5": 120, "SL(2,3)": 24, "GL(3,2):2": 336, "C3:C4": 12,
    }
    for name, order in want.items():
        assert catalog.suite_group(name).order == order


def test_group_axioms_spot():
    for G in (S3, D12):
        for a in range(G.order):
            assert G.mul(a, G.inverse(a)) == 0
            assert G.mul(0, a) == a == G.mul(a, 0)
            for b in range(G.order):
                assert G.inverse(G.mul(a, b)) == G.mul(G.inverse(b), G.inverse(a))


def test_element_orders_divide_group_order():
    for G in ALL:
        for x in range(G.order):
            assert G.order % G.element_order(x) == 0
        assert G.element_order(0) == 1


def test_conjugacy_classes_s3():
    cls = S3.conjugacy_classes()
    assert sorted(c.size for c in cls) == [1, 2, 3]
    for c in cls:
        assert c.is_real  # symmetric groups are ambivalent
        o = S3.element_order(c.rep)
        assert c.is_2regular == (o % 2 == 1)
    assert sum(c.size for c in cls) == 6


def test_conjugacy_classes_sl23_real_and_inverse():
    cls = SL23.conjugacy_classes()
    assert len(cls) == 7
    # the four order-3 and order-6 classes are non-real, in two inverse pairs
    non_real = [i for i, c in enumerate(cls) if not c.is_real]
    assert len(non_real) == 4
    assert sorted(SL23.element_order(cls[i].rep) for i in non_real) == [3, 3, 6, 6]
    for i in non_real:
        j = cls[i].inverse_class
        assert j != i and cls[j].inverse_class == i
    for c in cls:
        inv_rep = SL23.inverse(c.rep)
        assert inv_rep in cls[c.inverse_class].members


def test_involutions():
    assert len(S3.involutions()) == 3
    assert len(D12.involutions()) == 7
    assert len(SL23.involutions()) == 1  # the centre of the quaternion Sylow


def test_closure_and_subgroup():
    t = S3.involutions()[0]
    H = S3.closure([t])
    assert H.order == 2 and H.contains(t) and H.contains(0)
    Ht, elems = H.as_table()
    assert Ht.order == 2 and elems[0] == 0


def test_centralizer_and_normalizer():
    t = S3.involutions()[0]
    C = S3.centralizer(t)
    assert C.order == 2
    H = S3.closure([t])
    N = S3.normalizer(H)
    assert N.order == 2  # self-normalizing in S3
    r = next(x for x in range(S3.order) if S3.element_order(x) == 3)
    R = S3.closure([r])
    assert S3.normalizer(R).order == 6  # normal


def test_extended_centralizer_index():
    # C*(x) contains C(x) with index <= 2; index 2 iff x is conjugate to x^-1
    for G in (S3, SL23):
        for x in range(G.order):
            C = G.centralizer(x)
            E = G.extended_centralizer(x)
            assert E.order % C.order == 0
            assert E.order // C.order in (1, 2)
            if G.element_order(x) > 2:
                # g x g^-1 = x^-1 iff g x = x^-1 g
                real = (G.mult[:, x] == G.mult[G.inverse(x)]).any()
                assert (E.order == 2 * C.order) == real


def test_sylow2():
    assert S3.sylow2().order == 2
    assert S4.sylow2().order == 8
    assert D12.sylow2().order == 4
    assert catalog.suite_group("S5").sylow2().order == 8
    assert catalog.suite_group("GL(3,2):2").sylow2().order == 16


def test_sylow2_within():
    H = S4.closure([x for x in range(S4.order) if S4.element_order(x) == 3][:1]
                   + S4.involutions()[:1])
    P = S4.sylow2(within=H)
    assert H.order % P.order == 0
    assert (H.order // P.order) % 2 == 1


def test_two_subgroups_up_to_conjugacy_s4():
    subs = S4.two_subgroups_up_to_conjugacy()
    orders = sorted(H.order for H in subs)
    # 1, C2 (two classes), C4, V4 (two classes), D8
    assert orders == [1, 2, 2, 4, 4, 4, 8]
    for A in subs:
        for B in subs:
            if A is not B and A.order == B.order:
                assert S4.subgroup_conjugate(A, B) is None


def test_conjugate_subgroup_and_witness():
    invs = S3.involutions()
    A, B = S3.closure([invs[0]]), S3.closure([invs[1]])
    g = S3.subgroup_conjugate(A, B)
    assert g is not None
    assert S3.conjugate_subgroup(g, A).elements == B.elements


def test_conjugate_into():
    P = S4.sylow2()
    for H in S4.two_subgroups_up_to_conjugacy():
        assert S4.conjugate_into(H, P) is not None
    odd = S4.closure([x for x in range(S4.order) if S4.element_order(x) == 3][:1])
    assert S4.conjugate_into(P, odd) is None


def test_left_transversal_partitions():
    t = S3.involutions()[0]
    H = S3.closure([t])
    T = S3.left_transversal(H)
    assert len(T) == 3
    seen = set()
    for g in T:
        for h in sorted(H.elements):
            seen.add(S3.mul(g, h))
    assert seen == set(range(6))


def test_left_transversal_in_subgroup():
    P = S4.sylow2()
    H = [K for K in S4.two_subgroups_up_to_conjugacy()
         if K.order == 4 and S4.is_subgroup_of(K, P)][0]
    T = S4.left_transversal(H, P)
    assert len(T) == 2
    with pytest.raises(ValueError):
        S4.left_transversal(P, H)


def test_double_cosets_cover():
    H = S4.sylow2()
    K = S4.closure([x for x in range(S4.order) if S4.element_order(x) == 3][:1])
    reps = S4.double_cosets(K, H)
    covered = set()
    for g in reps:
        for k in sorted(K.elements):
            for h in sorted(H.elements):
                covered.add(S4.mul(k, S4.mul(g, h)))
    assert covered == set(range(24))


# -- every catalogue group against brute-force loops over the table --------


def _table(name):
    G = catalog.suite_group(name)
    return G, G.mult.tolist(), G.inv.tolist()


def _conj(T, inv, g, x):
    return T[T[g][x]][inv[g]]


def _two_subgroups(G, T, inv):
    """The 2-subgroup class representatives and their conjugates by the
    last element, each built by closure."""
    reps = G.two_subgroups_up_to_conjugacy()
    g = G.order - 1
    return reps + [G.closure([_conj(T, inv, g, a) for a in R.gens]) for R in reps]


def _subgroups(G, T, inv):
    """The 2-subgroups above and the cyclic subgroup of each class rep."""
    cyclic = [G.closure([c.rep]) for c in G.conjugacy_classes()]
    return _two_subgroups(G, T, inv) + cyclic


@by_group
def test_element_orders_and_involutions_match_the_table(name):
    G, T, _ = _table(name)
    for x in range(G.order):
        t, k = x, 1
        while t != 0:
            t, k = T[t][x], k + 1
        assert G.element_order(x) == G.element_orders()[x] == k
    assert G.involutions() == [x for x in range(1, G.order) if T[x][x] == 0]


@by_group
def test_classes_partition_and_start_at_their_least_member(name):
    G, T, inv = _table(name)
    classes = G.conjugacy_classes()
    assert sorted(x for c in classes for x in c.members) == list(range(G.order))
    for i, c in enumerate(classes):
        # the members are the orbit of the rep, so closed under conjugation
        orbit = sorted({_conj(T, inv, g, c.rep) for g in range(G.order)})
        assert list(c.members) == orbit and c.rep == orbit[0]
        assert all(G.class_of(x) == i for x in c.members)
        assert c.is_2regular == (G.element_order(c.rep) % 2 == 1)
        assert inv[c.rep] in classes[c.inverse_class].members
        assert c.is_real == (c.inverse_class == i)


@by_group
def test_centralizers_and_normalizers_match_their_definitions(name):
    G, T, inv = _table(name)
    P = G.sylow2()
    for x in range(G.order):
        image = [_conj(T, inv, g, x) for g in range(G.order)]
        for within in (None, P):
            amb = range(G.order) if within is None else within.elements
            assert G.centralizer(x, within).elements == tuple(
                g for g in amb if image[g] == x
            )
            assert G.extended_centralizer(x, within).elements == tuple(
                g for g in amb if image[g] in (x, inv[x])
            )
    for H in _subgroups(G, T, inv):
        hs = set(H.elements)
        assert G.normalizer(H).elements == tuple(
            g for g in range(G.order)
            if all(_conj(T, inv, g, h) in hs for h in H.elements)
        )


@by_group
def test_conjugation_witnesses_are_least(name):
    G, T, inv = _table(name)
    subs = _subgroups(G, T, inv)
    for A in subs:
        images = [{_conj(T, inv, g, a) for a in A.elements} for g in range(G.order)]
        for B in subs:
            bs = set(B.elements)
            into = next((g for g, im in enumerate(images) if im <= bs), None)
            onto = next((g for g, im in enumerate(images) if im == bs), None)
            assert G.conjugate_into(A, B) == into
            assert G.subgroup_conjugate(A, B) == onto


@by_group
def test_cosets_are_named_by_their_least_elements(name):
    G, T, inv = _table(name)
    P = G.sylow2()
    odd = G.closure([c.rep for c in G.conjugacy_classes() if c.is_2regular][-1:])
    subs = _two_subgroups(G, T, inv)
    for H in subs:
        least = {min(T[g][h] for h in H.elements) for g in range(G.order)}
        assert G.left_transversal(H) == sorted(least)
        if G.is_subgroup_of(H, P):
            least = {min(T[g][h] for h in H.elements) for g in P.elements}
            assert G.left_transversal(H, P) == sorted(least)
    for K in (G.trivial_subgroup(), P, odd):
        for H in subs:
            covered, reps = set(), []
            for g in range(G.order):
                if g in covered:
                    continue
                cell = {T[T[k][g]][h] for k in K.elements for h in H.elements}
                assert not cell & covered and min(cell) == g
                covered |= cell
                reps.append(g)
            assert G.double_cosets(K, H) == reps


@by_group
def test_subgroup_tables_match_the_parent(name):
    G, T, inv = _table(name)
    for H in _subgroups(G, T, inv):
        Ht, elems = H.as_table()
        assert elems == list(H.elements)
        assert Ht.mult.tolist() == [
            [elems.index(T[a][b]) for b in elems] for a in elems
        ]
        # `_find_gens` on the element set, whatever H.gens are
        want = gens_by_fresh_closure(G, H.elements) or H.elements
        assert [elems[g] for g in Ht.generators] == list(want)


def test_gl32_induced_module_checks_generator_order(monkeypatch):
    # the natural module's matrices are assigned to the subgroup table's
    # generators by position; on a fresh table whose generators come out
    # reversed, the constructor must refuse rather than build a wrong module
    monkeypatch.setattr(catalog, "_cache", {})
    catalog.suite_group("GL(3,2):2")
    find_gens = Subgroup._find_gens
    monkeypatch.setattr(
        Subgroup, "_find_gens", lambda self: tuple(reversed(find_gens(self)))
    )
    with pytest.raises(AssertionError, match="generators"):
        catalog.gl32_induced_module(make_field(1))


def test_group_queries_do_not_import_numpy_ma():
    # numpy.ma adds about 2 MB to a fresh process; np.unique and friends
    # import it on their first call
    code = """
import sys
from symvert import catalog
if "numpy.ma" in sys.modules:
    print("preloaded")
    raise SystemExit
G = catalog.suite_group("GL(3,2):2")
P = G.sylow2()
G.involutions()
for c in G.conjugacy_classes():
    G.centralizer(c.rep)
    G.extended_centralizer(c.rep)
for H in G.two_subgroups_up_to_conjugacy():
    G.normalizer(H)
    G.conjugate_subgroup(G.conjugate_into(H, P), H)
    G.subgroup_conjugate(H, H)
    G.left_transversal(H)
    G.double_cosets(P, H)
    H.as_table()
print("loaded" if "numpy.ma" in sys.modules else "clean")
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=path),
    ).stdout.split()
    if out == ["preloaded"]:
        pytest.skip("numpy.ma is loaded before any group query")
    assert out == ["clean"]


def test_direct_product():
    P, maps = direct_product(S3, S3)
    assert P.order == 36
    a, b = 2, 3
    x = maps.pair(a, b)
    assert maps.split(x) == (a, b)
    y = maps.pair(1, 4)
    assert maps.split(P.mul(x, y)) == (S3.mul(a, 1), S3.mul(b, 4))


def _pairwise_table(points, generators):
    """Reference table: breadth-first elements, then every pair composed."""
    gens = [tuple(x - 1 for x in g) for g in generators]
    perms = [tuple(range(points))]
    index = {perms[0]: 0}
    for p in perms:
        for g in gens:
            q = tuple(p[g[i]] for i in range(points))
            if q not in index:
                index[q] = len(perms)
                perms.append(q)
    mult = [[index[tuple(p[q[i]] for i in range(points))] for q in perms]
            for p in perms]
    return perms, mult, [index[g] for g in gens]


def _dihedral(n):
    """The symmetries of an n-gon, as 1-based permutations of its corners."""
    rotation = [i % n + 1 for i in range(1, n + 1)]
    reflection = [(n - i) % n + 1 for i in range(n)]
    return [rotation, reflection]


@pytest.mark.parametrize(
    "spec",
    [group_to_dict(catalog.suite_group(name)) for name in catalog.SUITE_NAMES]
    + [{"points": 20, "generators": _dihedral(20)}],
)
def test_from_permutations_matches_pairwise_composition(spec):
    G = from_permutations(spec["points"], spec["generators"])
    perms, mult, gen_ids = _pairwise_table(spec["points"], spec["generators"])
    assert G.perms == perms
    assert G.mult.tolist() == mult
    assert G.generators == gen_ids


# sha256 of each table's bytes, recorded when from_permutations still built
# the columns and then a transposed copy
TABLE_PINS = {
    "C2": "db7f8e2aa97f8d23", "V4": "cd18db5001222f5a", "S3": "00c2207c6dc19a5a",
    "D12": "d58d498bfe9c49b3", "A4": "3d0e9172686c0936", "S4": "12de8f85aee85556",
    "S5": "0c3028285ab53211", "SL(2,3)": "d832d376288441dd",
    "GL(3,2):2": "a884c9b04f54b496", "C3:C4": "02d9d382b8272624",
    "S6": "dfbaca1d389953bb",
}


@pytest.mark.parametrize("name", list(TABLE_PINS))
def test_tables_built_in_place_are_pinned(name):
    if name == "S6":
        G = from_permutations(6, [[2, 1, 3, 4, 5, 6], [2, 3, 4, 5, 6, 1]])
    else:
        G = from_permutations(**group_to_dict(catalog.suite_group(name)))
    assert G.mult.dtype == np.int64 and G.mult.flags.c_contiguous
    assert hashlib.sha256(G.mult.tobytes()).hexdigest()[:16] == TABLE_PINS[name]


def test_from_permutations_rejects_garbage():
    with pytest.raises((ValueError, AssertionError, IndexError)):
        from_permutations(3, [[1, 1, 2]])  # not a permutation


def test_table_validation_is_exact():
    # a Latin square with identity 0 in which every x squares to 0: a loop
    # of order 5, hence not associative, whatever the generators
    loop5 = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    for gens in (None, [1, 2], [1, 2, 3, 4]):
        with pytest.raises(ValueError, match="not associative"):
            group_from_dict({"table": loop5, "generators": gens})
    for bad in (5, [0, 1], [[0, 1]]):
        with pytest.raises(ValueError, match="Latin square"):
            group_from_dict({"table": bad, "generators": None})
    rows = S3.mult.copy()
    rows[1, [2, 3]] = rows[1, [3, 2]]  # rows stay permutations, columns not
    with pytest.raises(ValueError, match="Latin square"):
        group_from_dict({"table": rows, "generators": None})
    with pytest.raises(ValueError, match="do not generate"):
        group_from_dict({"table": S3.mult, "generators": [S3.involutions()[0]]})
    G = group_from_dict({"table": S3.mult, "generators": None})
    assert G.closure(S3.generators).order == 6


def _intercalate_mutants(G, rows):
    """The Latin squares with identity 0 made from G's table by swapping
    the entries of one intercalate: rows a < b from `rows` and columns
    0 < x < y with a x = b y and a y = b x."""
    m, ids = G.mult, np.arange(G.order)
    for a in rows:
        for b in rows:
            ys = m[G.inv[b], m[a]]  # b y = a x
            hit = (a < b) & (ids > 0) & (ys > ids) & (m[a, ys] == m[b])
            for x, y in zip(ids[hit], ys[hit]):
                M = m.copy()
                M[[a, b], x], M[[a, b], y] = m[[a, b], y], m[[a, b], x]
                yield M


def _light_verdict(mult, gens) -> bool:
    try:
        group_from_dict({"table": mult, "generators": gens})
    except ValueError as e:
        assert "not associative" in str(e)
        return False
    return True


def test_light_by_left_multiplication_matches_the_reference():
    for G in ALL:
        assert _light_verdict(G.mult, G.generators)
        assert associative_by_right_light(G.mult, G.generators)
    # the order-5 loop and generator sets of test_table_validation_is_exact
    loop5 = np.array([
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ])
    for gens in (None, [1, 2], [1, 2, 3, 4]):
        ref = associative_by_right_light(loop5, gens or range(5))
        assert _light_verdict(loop5, gens) is ref is False
    verdicts = []
    for name in ("V4", "S3", "D12", "A4", "C3:C4"):
        G = catalog.suite_group(name)
        for M in _intercalate_mutants(G, range(1, G.order)):
            ref = associative_by_right_light(M, range(G.order))
            assert _light_verdict(M, None) is ref
            assert _light_verdict(M, list(range(1, G.order))) is ref
            verdicts.append(ref)
    assert set(verdicts) == {True, False}
    # order 336 takes two row blocks; mutants in its last rows
    G = catalog.suite_group("GL(3,2):2")
    for _, M in zip(range(2), _intercalate_mutants(G, range(330, 336))):
        assert associative_by_right_light(M, range(G.order)) is False
        assert _light_verdict(M, G.generators) is False


def test_table_generators_are_derived_greedily():
    # the first element outside the span of the earlier picks, in id order
    for name in ("S3", "D12", "SL(2,3)", "GL(3,2):2"):
        G = catalog.suite_group(name)
        gens = group_from_dict({"table": G.mult.tolist()}).generators
        assert G.closure(gens).order == G.order
        for i, g in enumerate(gens):
            span = G.closure(gens[:i]).elements
            assert g not in span
            assert all(x in span for x in range(g))


def test_serialization_round_trip(tmp_path):
    d = group_to_dict(S3)
    G2 = group_from_dict(json.loads(json.dumps(d)))
    assert G2.order == 6
    for a in range(6):
        for b in range(6):
            assert G2.mul(a, b) == S3.mul(a, b)


def test_feasibility_error_type():
    assert issubclass(FeasibilityError, Exception)


@pytest.mark.parametrize("name", catalog.SUITE_NAMES)
def test_find_gens_matches_the_fresh_closure(name):
    # the generators fix the element ids of subgroup tables, so the grown
    # closure must pick the same ones as a closure recomputed per generator
    G = catalog.suite_group(name)
    P = G.sylow2()
    subs = [G.full_subgroup(), P, *G.all_subgroups_of(P)]
    subs += [G.normalizer(H) for H in G.two_subgroups_up_to_conjugacy()]
    subs += [G.centralizer(c.rep) for c in G.conjugacy_classes()]
    subs += [G.extended_centralizer(c.rep) for c in G.conjugacy_classes()]
    for H in subs:
        gens = Subgroup(G, H.elements, None).gens
        assert gens == gens_by_fresh_closure(G, H.elements), (name, H.order)
        assert G.closure(list(gens)).elements == H.elements


@pytest.mark.parametrize("name", catalog.SUITE_NAMES)
def test_subgroup_lattice_by_cosets_matches_every_element(name):
    # one closure per left coset x H finds each subgroup first from the
    # same x, so elements and generators match the walk over every x
    G = catalog.suite_group(name)
    P = G.sylow2()
    got = G.all_subgroups_of(P)
    want = all_subgroups_by_every_element(G, P)
    assert [(H.elements, H.gens) for H in got] == [(H.elements, H.gens) for H in want]
