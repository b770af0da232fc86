"""Built-in catalogue of example groups and modules.

Groups ship as JSON permutation-generator files under ``symvert/data`` so
everything runs without an external algebra system.  The constructors below
build the worked-example modules: the projective indecomposable of the
dihedral group of order 12 induced from a nonabelian order-6 subgroup, the
4-dimensional irreducible head of the (3,2) Specht module of S5, and the
6-dimensional module of the order-336 extension of GL(3,2) induced from the
natural module of its index-2 subgroup.
"""

from __future__ import annotations

import json
from importlib import resources

from . import rep, specht
from .field import FieldCtx
from .group import GroupTable, Subgroup, group_from_dict
from .rep import ModuleRep

_FILES = {
    "C2": "c2.json",
    "V4": "v4.json",
    "S3": "s3.json",
    "D12": "d12.json",
    "A4": "a4.json",
    "S4": "s4.json",
    "S5": "s5.json",
    "SL(2,3)": "sl23.json",
    "GL(3,2):2": "gl32_2.json",
    "C3:C4": "c3c4.json",
}

SUITE_NAMES = list(_FILES)

_cache: dict[str, GroupTable] = {}


def suite_group(name: str) -> GroupTable:
    if name not in _FILES:
        raise KeyError(f"unknown group {name!r}; choose from {SUITE_NAMES}")
    if name not in _cache:
        text = (
            resources.files("symvert").joinpath("data", _FILES[name]).read_text()
        )
        _cache[name] = group_from_dict(json.loads(text))
    return _cache[name]


def nonabelian_order6_subgroups(G: GroupTable) -> list[Subgroup]:
    """The order-6 nonabelian subgroups (used for the dihedral example)."""
    out = []
    seen = set()
    for a in range(G.order):
        if G.element_order(a) != 3:
            continue
        for b in G.involutions():
            H = G.closure([a, b])
            if H.order == 6 and G.mul(a, b) != G.mul(b, a):
                if H.elements not in seen:
                    seen.add(H.elements)
                    out.append(H)
    return out


def d12_pim(F: FieldCtx) -> tuple[ModuleRep, Subgroup]:
    """The projective cover of the 2-dimensional irreducible of the order-12
    dihedral group, obtained by inducing that irreducible from one of the
    two nonabelian order-6 subgroups.  Returns (module, subgroup used)."""
    G = suite_group("D12")
    subs = nonabelian_order6_subgroups(G)
    H = subs[0]
    Ht, _ = rep.subgroup_table(H)
    two = [m for m in rep.irreducible_modules(Ht, F) if m.dim == 2][0]
    P, _ = rep.induce(two, H)
    return P, H


def s5_specht_irreducible(F: FieldCtx) -> specht.SpechtData:
    """The 4-dimensional irreducible head of the (3,2) Specht module of S5,
    with its symplectic form and row-reversal witness."""
    return specht.specht_module(5, (3, 2), F)


def gl32_induced_module(F: FieldCtx) -> tuple[ModuleRep, Subgroup]:
    """The 6-dimensional module of the order-336 group: the natural
    3-dimensional module of the index-2 GL(3,2) subgroup, induced up.
    Returns (module, subgroup)."""
    if F.m != 1:
        raise ValueError("the natural module is defined over GF(2)")
    G = suite_group("GL(3,2):2")
    gA, gB = G.generators[0], G.generators[1]
    H = Subgroup(G, G.closure([gA, gB]).elements, (gA, gB))
    if H.order != 168:
        raise AssertionError("unexpected index-2 subgroup")
    import numpy as np

    A = np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1]], dtype=np.int64)
    B = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=np.int64)
    Ht, elems = rep.subgroup_table(H)
    # ModuleRep trusts its matrices: A and B must act as Ht's generators
    if [elems[g] for g in Ht.generators] != [gA, gB]:
        raise AssertionError("subgroup table generators are not (gA, gB)")
    nat = ModuleRep(Ht, F, [A, B])
    M, _ = rep.induce(nat, H)
    return M, H
