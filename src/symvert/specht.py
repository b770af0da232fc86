"""Specht modules of symmetric groups over fields of characteristic 2.

The permutation module on tabloids (row-equivalence classes of tableaux)
carries the form making the tabloid basis orthonormal.  The span of the
polytabloids is a submodule — the Specht module — and for a 2-regular
partition the quotient by the radical of the restricted form is
irreducible.  The row-reversal involution of a tableau overlaps its own
polytabloid in exactly one tabloid, which makes it a ready-made witness for
the quadratic-type test.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from . import linalg, rep
from .field import FieldCtx
from .forms import GForm
from .group import GroupTable, from_permutations
from .linalg import Subspace, mat_mul, zeros
from .rep import ModuleRep


def symmetric_group(n: int) -> GroupTable:
    """S_n on n points with the transposition (1 2) and the n-cycle."""
    if n < 2:
        raise ValueError("need n >= 2")
    swap = [2, 1] + list(range(3, n + 1))
    cyc = list(range(2, n + 1)) + [1]
    return from_permutations(n, [swap, cyc])


def _tabloids(n: int, lam: tuple[int, ...]) -> list[tuple[frozenset, ...]]:
    """All ordered partitions of {0..n-1} with row sizes lam, in the
    lexicographic order of the rows' combinations."""
    out = [((), frozenset(range(n)))]
    for size in lam:
        out = [
            (rows + (frozenset(c),), rest - set(c))
            for rows, rest in out
            for c in combinations(sorted(rest), size)
        ]
    return [rows for rows, rest in out if not rest]


def _standard_tableaux(lam: tuple[int, ...]) -> list[tuple[tuple[int, ...], ...]]:
    """Standard Young tableaux (rows and columns increasing), 0-based."""
    n = sum(lam)
    rows = [[] for _ in lam]
    out: list[tuple[tuple[int, ...], ...]] = []

    def build(x: int):
        if x == n:
            out.append(tuple(tuple(r) for r in rows))
            return
        for i, r in enumerate(rows):
            if len(r) >= lam[i]:
                continue
            if i > 0 and len(rows[i - 1]) <= len(r):
                continue
            r.append(x)
            build(x + 1)
            r.pop()

    build(0)
    return out


def _polytabloid(tab, lam, index: dict) -> np.ndarray:
    """e_T = sum over the column stabilizer of the tabloid of sigma.T
    (signs vanish in characteristic 2)."""
    cols = []
    for j in range(lam[0]):
        col = [row[j] for row in tab if len(row) > j]
        cols.append(col)
    vec = np.zeros(len(index), dtype=np.int64)

    def rec(ci: int, assignment: dict):
        if ci == len(cols):
            rows = [set() for _ in lam]
            for i, row in enumerate(tab):
                for x in row:
                    rows[i].add(assignment[x])
            key = tuple(frozenset(r) for r in rows)
            vec[index[key]] ^= 1
            return
        col = cols[ci]
        for perm in permutations(col):
            rec(ci + 1, {**assignment, **dict(zip(col, perm))})

    rec(0, {})
    return vec


@dataclass
class SpechtData:
    n: int
    partition: tuple[int, ...]
    group: GroupTable
    tabloid_module: ModuleRep  # permutation module on tabloids
    specht: ModuleRep
    specht_incl: np.ndarray  # tabloid coords of the Specht basis (columns)
    specht_form: GForm  # orthonormal tabloid form restricted to the Specht module
    irreducible: ModuleRep  # Specht / radical of the form
    quotient_proj: np.ndarray
    irreducible_form: GForm
    row_reversal: int  # group element reversing the rows of the first tableau
    witness_tableau: tuple
    witness_vector: np.ndarray  # image of its polytabloid in the irreducible


def specht_module(n: int, lam: tuple[int, ...], F: FieldCtx) -> SpechtData:
    """The Specht module of a 2-regular partition, its invariant form, the
    irreducible head under the form, and the row-reversal witness."""
    lam = tuple(sorted(lam, reverse=True))
    if sum(lam) != n:
        raise ValueError("partition does not sum to n")
    if len(set(lam)) != len(lam):
        raise ValueError("partition must be 2-regular (distinct parts)")
    G = symmetric_group(n)
    tabs = _tabloids(n, lam)
    index = {t: i for i, t in enumerate(tabs)}
    nt = len(tabs)
    mats = []
    for g in G.generators:
        perm = G.perms[g]
        P = zeros(nt, nt)
        for i, t in enumerate(tabs):
            img = tuple(frozenset(perm[x] for x in row) for row in t)
            P[index[img], i] = 1
        mats.append(P)
    Mtab = ModuleRep(G, F, mats)
    stds = _standard_tableaux(lam)
    vecs = np.array([_polytabloid(t, lam, index) for t in stds])
    S = Subspace(F, nt, vecs)
    Smod, incl, proj = rep.sub_module(Mtab, S)
    gram = mat_mul(F, incl.T, incl)  # tabloid basis is orthonormal
    Sform = GForm(Smod, gram)
    rad = Subspace(F, Smod.dim, linalg.kernel(F, gram))
    if rad.dim:
        Dmod, qproj = rep.quotient_module(Smod, rad)
        lift = linalg.pivot_complement(rad).T  # the right inverse of qproj
        dgram = mat_mul(F, lift.T, mat_mul(F, gram, lift))
    else:
        Dmod, qproj = Smod, np.eye(Smod.dim, dtype=np.int64)
        dgram = gram
    Dform = GForm(Dmod, dgram)
    # row-reversal involution of the first standard tableau
    T = stds[0]
    perm = list(range(n))
    for row in T:
        for a, b in zip(row, reversed(row)):
            perm[a] = b
    t_elem = _element_of(G, tuple(perm))
    eT = _polytabloid(T, lam, index)
    coords = S.coords(eT)
    wit = linalg.mat_vec(F, qproj, coords)
    return SpechtData(
        n, lam, G, Mtab, Smod, incl, Sform, Dmod, qproj, Dform,
        t_elem, T, wit,
    )


def _element_of(G: GroupTable, perm: tuple[int, ...]) -> int:
    for g in range(G.order):
        if tuple(G.perms[g]) == perm:
            return g
    raise ValueError("permutation not in the group")
