"""Finite groups as full multiplication tables.

Groups are ingested from permutation generators (expanded by orbit
enumeration, identity first) or from a raw table.  Element ids are small
ints; id 0 is the identity.  Subgroups are id sets tied to a parent table.
All queries are pure; tables are immutable after load.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np


class GroupTable:
    def __init__(
        self,
        mult: np.ndarray,
        generators: list[int],
        perms: list[tuple[int, ...]] | None = None,
    ):
        self.mult = np.asarray(mult, dtype=np.int64)
        self.order = self.mult.shape[0]
        self.generators = list(generators)
        if any(not 0 <= g < self.order for g in self.generators):
            raise ValueError(f"generator id outside range({self.order})")
        self.perms = perms  # optional permutation labels, 0-based images
        inv = np.zeros(self.order, dtype=np.int64)
        for x in range(self.order):
            row = np.nonzero(self.mult[x] == 0)[0]
            if row.size != 1:
                raise ValueError("not a group table: missing/duplicate inverse")
            inv[x] = row[0]
        self.inv = inv
        if (self.mult[0] != np.arange(self.order)).any() or (
            self.mult[:, 0] != np.arange(self.order)
        ).any():
            raise ValueError("id 0 is not the identity")
        self._spot_check_associativity()
        self._orders: np.ndarray | None = None
        self._classes: list[ConjClass] | None = None
        self._class_of: np.ndarray | None = None
        # standalone subgroup tables, keyed by element set; the first entry
        # wins, since its generators fix the element ids callers see
        self.subgroup_tables: dict[tuple[int, ...], tuple] = {}

    def _spot_check_associativity(self) -> None:
        rng = np.random.default_rng(12345)
        n = self.order
        for _ in range(min(64, n * n)):
            a, b, c = rng.integers(0, n, size=3)
            if self.mult[self.mult[a, b], c] != self.mult[a, self.mult[b, c]]:
                raise ValueError("multiplication table is not associative")

    # -- basic queries ----------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return int(self.mult[a, b])

    def inverse(self, a: int) -> int:
        return int(self.inv[a])

    def conj(self, g: int, x: int) -> int:
        """g x g^-1."""
        return int(self.mult[self.mult[g, x], self.inv[g]])

    def element_order(self, x: int) -> int:
        t = x
        n = 1
        while t != 0:
            t = self.mul(t, x)
            n += 1
        return n

    def element_orders(self) -> np.ndarray:
        if self._orders is None:
            self._orders = np.array(
                [self.element_order(x) for x in range(self.order)], dtype=np.int64
            )
        return self._orders

    def exponent(self) -> int:
        return math.lcm(*map(int, self.element_orders()))

    def power(self, x: int, e: int) -> int:
        r = 0
        t = x
        e %= self.element_order(x)
        while e:
            if e & 1:
                r = self.mul(r, t)
            t = self.mul(t, t)
            e >>= 1
        return r

    # -- conjugacy --------------------------------------------------------

    def conjugacy_classes(self) -> list["ConjClass"]:
        if self._classes is not None:
            return self._classes
        seen = np.zeros(self.order, dtype=bool)
        classes: list[ConjClass] = []
        class_of = np.zeros(self.order, dtype=np.int64)
        for x in range(self.order):
            if seen[x]:
                continue
            orbit = sorted({self.conj(g, x) for g in range(self.order)})
            for y in orbit:
                seen[y] = True
                class_of[y] = len(classes)
            classes.append(
                ConjClass(
                    rep=x,
                    members=tuple(orbit),
                    is_2regular=self.element_order(x) % 2 == 1,
                    is_real=False,
                    inverse_class=-1,
                )
            )
        for i, c in enumerate(classes):
            j = int(class_of[self.inv[c.rep]])
            c.inverse_class = j
            c.is_real = j == i
        self._classes = classes
        self._class_of = class_of
        return classes

    def class_of(self, x: int) -> int:
        self.conjugacy_classes()
        return int(self._class_of[x])

    def involutions(self) -> list[int]:
        return [x for x in range(1, self.order) if self.mul(x, x) == 0]

    # -- subgroups --------------------------------------------------------

    def closure(self, gens: list[int]) -> "Subgroup":
        elems = {0}
        frontier = [0]
        gens = [g for g in gens if g != 0]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = self.mul(x, g)
                    if y not in elems:
                        elems.add(y)
                        nxt.append(y)
            frontier = nxt
        return Subgroup(self, tuple(sorted(elems)), tuple(gens))

    def full_subgroup(self) -> "Subgroup":
        return Subgroup(self, tuple(range(self.order)), tuple(self.generators))

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, (0,), ())

    def centralizer(self, x: int, within: "Subgroup | None" = None) -> "Subgroup":
        amb = range(self.order) if within is None else within.elements
        elems = tuple(g for g in amb if self.conj(g, x) == x)
        return Subgroup(self, elems, None)

    def extended_centralizer(
        self, x: int, within: "Subgroup | None" = None
    ) -> "Subgroup":
        """Elements normalizing {x, x^-1} by conjugation."""
        amb = range(self.order) if within is None else within.elements
        xi = self.inverse(x)
        elems = tuple(g for g in amb if self.conj(g, x) in (x, xi))
        return Subgroup(self, elems, None)

    def normalizer(self, H: "Subgroup", within: "Subgroup | None" = None) -> "Subgroup":
        amb = range(self.order) if within is None else within.elements
        hs = set(H.elements)
        out = tuple(g for g in amb if all(self.conj(g, h) in hs for h in H.elements))
        return Subgroup(self, out, None)

    def sylow2(self, within: "Subgroup | None" = None) -> "Subgroup":
        """A Sylow 2-subgroup (of `within` if given), grown via normalizers."""
        amb = self.full_subgroup() if within is None else within
        target = amb.order
        while target % 2 == 0:
            target //= 2
        target = amb.order // target  # 2-part
        P = self.trivial_subgroup()
        while P.order < target:
            N = self.normalizer(P, within=amb)
            ps = set(P.elements)
            grown = False
            for x in N.elements:
                if x in ps:
                    continue
                # x has 2-power image in N/P iff x^(2^k) falls into P
                t = x
                ok = False
                for _ in range(target.bit_length()):
                    if t in ps:
                        ok = True
                        break
                    t = self.mul(t, t)
                if not ok:
                    continue
                cand = self.closure(list(P.gens or P.elements) + [x])
                if cand.order > P.order and cand.order & (cand.order - 1) == 0:
                    P = cand
                    grown = True
                    break
            if not grown:
                raise AssertionError("sylow2 growth stalled")
        return P

    def all_subgroups_of(self, P: "Subgroup") -> list["Subgroup"]:
        """Every subgroup of P (brute-force lattice walk; P small)."""
        seen: dict[tuple, Subgroup] = {(0,): self.trivial_subgroup()}
        frontier = [self.trivial_subgroup()]
        while frontier:
            nxt = []
            for H in frontier:
                for x in P.elements:
                    if x in H.elements:
                        continue
                    K = self.closure(list(H.gens or H.elements) + [x])
                    if K.elements not in seen:
                        seen[K.elements] = K
                        nxt.append(K)
            frontier = nxt
        return sorted(seen.values(), key=lambda h: (h.order, h.elements))

    def two_subgroups_up_to_conjugacy(
        self, bound: int = 10_000
    ) -> list["Subgroup"]:
        """Conjugacy-class representatives of 2-subgroups (incl. trivial)."""
        if self.order > bound:
            raise FeasibilityError(
                f"group order {self.order} exceeds bound {bound}"
            )
        P = self.sylow2()
        reps: list[Subgroup] = []
        for H in self.all_subgroups_of(P):
            if any(self.subgroup_conjugate(H, R) is not None for R in reps):
                continue
            H.class_size = len(self.subgroup_conjugates(H))
            reps.append(H)
        return reps

    def subgroup_conjugates(self, H: "Subgroup") -> list[tuple]:
        out = set()
        for g in range(self.order):
            out.add(tuple(sorted(self.conj(g, h) for h in H.elements)))
        return sorted(out)

    def conjugate_subgroup(self, g: int, H: "Subgroup") -> "Subgroup":
        return Subgroup(
            self, tuple(sorted(self.conj(g, h) for h in H.elements)), None
        )

    def subgroup_conjugate(self, A: "Subgroup", B: "Subgroup") -> int | None:
        """g with g A g^-1 = B, or None."""
        if A.order != B.order:
            return None
        bset = set(B.elements)
        gens = A.gens or A.elements
        for g in range(self.order):
            if all(self.conj(g, a) in bset for a in gens):
                if all(self.conj(g, a) in bset for a in A.elements):
                    return g
        return None

    def is_subgroup_of(self, A: "Subgroup", B: "Subgroup") -> bool:
        return set(A.elements) <= set(B.elements)

    def conjugate_into(self, A: "Subgroup", B: "Subgroup") -> int | None:
        """g with g A g^-1 <= B, or None."""
        if A.order > B.order:
            return None
        bset = set(B.elements)
        for g in range(self.order):
            if all(self.conj(g, a) in bset for a in A.elements):
                return g
        return None

    # -- cosets -----------------------------------------------------------

    def left_transversal(self, H: "Subgroup") -> list[int]:
        seen = np.zeros(self.order, dtype=bool)
        reps = []
        for g in range(self.order):
            if not seen[g]:
                reps.append(g)
                for h in H.elements:
                    seen[self.mul(g, h)] = True
        return reps

    def double_cosets(self, K: "Subgroup", H: "Subgroup") -> list[int]:
        seen = np.zeros(self.order, dtype=bool)
        reps = []
        total = 0
        for g in range(self.order):
            if seen[g]:
                continue
            reps.append(g)
            coset = set()
            for a in K.elements:
                ag = self.mul(a, g)
                for b in H.elements:
                    coset.add(self.mul(ag, b))
            for x in coset:
                seen[x] = True
            total += len(coset)
        assert total == self.order
        return reps

    def __repr__(self) -> str:
        return f"GroupTable(order={self.order})"


@dataclass
class ConjClass:
    rep: int
    members: tuple[int, ...]
    is_2regular: bool
    is_real: bool
    inverse_class: int

    @property
    def size(self) -> int:
        return len(self.members)


class Subgroup:
    def __init__(
        self,
        parent: GroupTable,
        elements: tuple[int, ...],
        gens: tuple[int, ...] | None,
    ):
        self.parent = parent
        self.elements = tuple(sorted(elements))
        self.gens = tuple(gens) if gens is not None else None
        self.class_size: int | None = None
        if self.gens is None:
            self.gens = self._find_gens()

    def _find_gens(self) -> tuple[int, ...]:
        G = self.parent
        gens: list[int] = []
        have = {0}
        for x in self.elements:
            if x not in have:
                gens.append(x)
                have = set(G.closure(gens).elements)
                if len(have) == len(self.elements):
                    break
        return tuple(gens)

    @property
    def order(self) -> int:
        return len(self.elements)

    def contains(self, x: int) -> bool:
        return x in set(self.elements)

    def as_table(self) -> tuple[GroupTable, list[int]]:
        """Standalone table for this subgroup plus the id-to-parent map."""
        G = self.parent
        elems = [0] + [x for x in self.elements if x != 0]
        idx = {x: i for i, x in enumerate(elems)}
        n = len(elems)
        mult = np.zeros((n, n), dtype=np.int64)
        for i, a in enumerate(elems):
            for j, b in enumerate(elems):
                mult[i, j] = idx[G.mul(a, b)]
        gens = [idx[g] for g in (self.gens or self.elements)]
        return GroupTable(mult, gens), elems

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subgroup)
            and self.parent is other.parent
            and self.elements == other.elements
        )

    def __hash__(self):
        return hash((id(self.parent), self.elements))

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order}, elements={self.elements[:8]}...)"


class FeasibilityError(Exception):
    """Raised when a computation exceeds a configured search bound."""


# -- constructors ---------------------------------------------------------


def _perm_mul(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """(p*q)(i) = p(q(i))."""
    return tuple(p[q[i]] for i in range(len(p)))


def from_permutations(points: int, generators: list[list[int]]) -> GroupTable:
    """Build a table from 1-based permutation images."""
    gens = [tuple(x - 1 for x in g) for g in generators]
    for g in gens:
        if sorted(g) != list(range(points)):
            raise ValueError("generator is not a permutation")
    ident = tuple(range(points))
    elems = [ident]
    index = {ident: 0}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = _perm_mul(p, g)
                if q not in index:
                    index[q] = len(elems)
                    elems.append(q)
                    nxt.append(q)
        frontier = nxt
    n = len(elems)
    mult = np.zeros((n, n), dtype=np.int64)
    for i, p in enumerate(elems):
        for j, q in enumerate(elems):
            mult[i, j] = index[_perm_mul(p, q)]
    gen_ids = [index[g] for g in gens]
    return GroupTable(mult, gen_ids, perms=elems)


def direct_product(G: GroupTable, H: GroupTable) -> tuple[GroupTable, "ProductMaps"]:
    """G x H with id (a,b) -> a*|H| + b."""
    nG, nH = G.order, H.order
    a = np.repeat(np.arange(nG), nH)
    b = np.tile(np.arange(nH), nG)
    mult = (
        G.mult[a[:, None], a[None, :]] * nH + H.mult[b[:, None], b[None, :]]
    )
    gens = [g * nH for g in G.generators] + list(H.generators)
    P = GroupTable(mult, gens)
    return P, ProductMaps(nH)


@dataclass
class ProductMaps:
    right_order: int

    def pair(self, a: int, b: int) -> int:
        return a * self.right_order + b

    def split(self, x: int) -> tuple[int, int]:
        return divmod(x, self.right_order)


# -- serialization --------------------------------------------------------


def load_group(path: str) -> GroupTable:
    with open(path) as fh:
        data = json.load(fh)
    return group_from_dict(data)


def group_from_dict(data: dict) -> GroupTable:
    if "points" in data:
        return from_permutations(data["points"], data["generators"])
    if "table" in data:
        table = np.asarray(data["table"], dtype=np.int64)
        gens = data.get("generators")
        if gens is None:
            gens = _table_generators(table)
        return GroupTable(table, gens)
    raise ValueError("group file needs 'points'+'generators' or 'table'")


def _table_generators(table: np.ndarray) -> list[int]:
    n = table.shape[0]
    gens: list[int] = []
    have = {0}
    for x in range(1, n):
        if x not in have:
            gens.append(x)
            # closure under current gens
            frontier = [0]
            have = {0}
            while frontier:
                nxt = []
                for y in frontier:
                    for g in gens:
                        z = int(table[y, g])
                        if z not in have:
                            have.add(z)
                            nxt.append(z)
                frontier = nxt
            if len(have) == n:
                break
    return gens


def group_to_dict(G: GroupTable) -> dict:
    if G.perms is not None:
        return {
            "points": len(G.perms[0]),
            "generators": [[i + 1 for i in G.perms[g]] for g in G.generators],
        }
    return {
        "order": G.order,
        "table": G.mult.tolist(),
        "generators": list(G.generators),
    }
