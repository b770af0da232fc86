"""Finite groups as full multiplication tables.

Groups are ingested from permutation generators (expanded by orbit
enumeration, identity first) or from a raw table.  Element ids are small
ints; id 0 is the identity.  Subgroups are id sets tied to a parent table.
All queries are pure; tables are immutable after load.  Conjugacy, coset,
order and class queries are numpy gathers over `mult` and `inv`, tested
against boolean membership masks; `closure` and `Subgroup._find_gens`
grow by one set-based breadth-first search over lists of the generators'
columns, which beats a gather per round on the small subgroups they build.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

# the largest group whose 2-subgroup lattice is walked
TWO_SUBGROUPS_ORDER_BOUND = 10_000


class GroupTable:
    def __init__(
        self,
        mult: np.ndarray,
        generators: list[int] | None,
        perms: list[tuple[int, ...]] | None = None,
    ):
        """A group from its multiplication table, checked exactly: a Latin
        square with identity 0, generated by `generators` (None: derive
        them), and associative by Light's test over the generators.

        Light's test asks (g x) y = g (x y) for every generator g and all
        x, y, by row gathers over blocks of rows x.  It suffices: the set S
        of a with (a x) y = a (x y) for all x, y is closed under products,
        since for a, b in S
        ((a b) x) y = (a (b x)) y = a ((b x) y) = a (b (x y)) = (a b)(x y),
        and it holds the identity, so it holds every product of generators,
        which is every element once the generators generate the table."""
        self.mult = np.asarray(mult, dtype=np.int64)
        n = self.order = self.mult.shape[0] if self.mult.ndim == 2 else 0
        ids = np.arange(n)
        if self.mult.shape != (n, n) or not (
            (np.sort(self.mult, axis=0) == ids[:, None]).all()
            and (np.sort(self.mult, axis=1) == ids).all()
        ):
            raise ValueError("not a group table: not a Latin square")
        if (self.mult[0] != ids).any() or (self.mult[:, 0] != ids).any():
            raise ValueError("id 0 is not the identity")
        self.inv = np.argmin(self.mult, axis=1)  # the 0 in each row
        if generators is None:
            generators = Subgroup(self, tuple(range(n)), None).gens
        self.generators = list(generators)
        if any(not 0 <= g < n for g in self.generators):
            raise ValueError(f"generator id outside range({n})")
        if self.closure(self.generators).order != n:
            raise ValueError("generators do not generate the table")
        step = max(1, (1 << 16) // n)  # rows per block: 2^16 entries at most
        for g in self.generators:
            left = self.mult[g]
            for x in range(0, n, step):
                xs = self.mult[x : x + step]
                if (self.mult[left[x : x + step]] != left[xs]).any():
                    raise ValueError("multiplication table is not associative")
        self.perms = perms  # optional permutation labels, 0-based images
        self._orders: np.ndarray | None = None
        self._classes: list[ConjClass] | None = None
        # (elements, gens) only: Subgroups refer back to the table, and a
        # cycle would keep each table alive until the cyclic collector runs
        self._two_subgroups: list[tuple[tuple[int, ...], ...]] | None = None
        self.class_ids: np.ndarray | None = None  # class index of each element
        # standalone subgroup tables, keyed by element set
        self.subgroup_tables: dict[tuple[int, ...], tuple] = {}
        # the irreducibles' actions and each row's irreducible, per field,
        # keyed by (m, modulus), read only: arrays alone, since modules
        # refer back to the table
        self.irreducible_actions: dict[tuple[int, int], tuple[np.ndarray, ...]] = {}

    # -- basic queries ----------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return int(self.mult[a, b])

    def inverse(self, a: int) -> int:
        return int(self.inv[a])

    def _conj(self, gs, xs) -> np.ndarray:
        """g x g^-1 for each g in gs (rows) and x in xs (columns)."""
        gs = np.asarray(gs, dtype=np.int64)[:, None]
        return self.mult[self.mult[gs, np.asarray(xs, dtype=np.int64)], self.inv[gs]]

    def _mask(self, elems) -> np.ndarray:
        """Membership of `elems` as a boolean vector over the ids."""
        # masks, not np.unique/np.setdiff1d/np.intersect1d: those import numpy.ma
        mask = np.zeros(self.order, dtype=bool)
        mask[list(elems)] = True
        return mask

    def _conjugating(self, xs, target: np.ndarray, within=None) -> np.ndarray:
        """The g (of `within`, else of G) with g x g^-1 in `target` for all x
        in xs, ascending."""
        gs = np.arange(self.order) if within is None else np.array(within.elements)
        return gs[target[self._conj(gs, xs)].all(axis=1)]

    def element_order(self, x: int) -> int:
        return int(self.element_orders()[x])

    def element_orders(self) -> np.ndarray:
        """The order of every element, from one walk x, x^2, ... over all x."""
        if self._orders is None:
            ids = np.arange(self.order)
            orders = np.where(ids == 0, 1, 0)
            power = ids
            for k in range(2, self.order + 1):
                if orders.all():
                    break
                power = self.mult[power, ids]
                orders[(power == 0) & (orders == 0)] = k
            self._orders = orders
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
        orders = self.element_orders()
        while not seen.all():
            x = int(np.argmin(seen))  # the least element of a new class
            orbit = np.zeros(self.order, dtype=bool)
            orbit[self.mult[self.mult[:, x], self.inv]] = True
            seen |= orbit
            class_of[orbit] = len(classes)
            classes.append(
                ConjClass(
                    rep=x,
                    members=tuple(np.flatnonzero(orbit).tolist()),
                    is_2regular=bool(orders[x] % 2),
                    is_real=False,
                    inverse_class=-1,
                )
            )
        for i, c in enumerate(classes):
            j = int(class_of[self.inv[c.rep]])
            c.inverse_class = j
            c.is_real = j == i
        self._classes = classes
        self.class_ids = class_of
        return classes

    def class_of(self, x: int) -> int:
        self.conjugacy_classes()
        return int(self.class_ids[x])

    def involutions(self) -> list[int]:
        return np.flatnonzero(np.diagonal(self.mult) == 0)[1:].tolist()

    # -- subgroups --------------------------------------------------------

    def closure(self, gens: list[int]) -> "Subgroup":
        gens = [g for g in gens if g != 0]
        cols = [self.mult[:, g].tolist() for g in gens]  # x -> x g
        return Subgroup(self, tuple(sorted(_grow(set(), {0}, cols))), tuple(gens))

    def full_subgroup(self) -> "Subgroup":
        return Subgroup(self, tuple(range(self.order)), tuple(self.generators))

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, (0,), ())

    def centralizer(self, x: int, within: "Subgroup | None" = None) -> "Subgroup":
        gs = self._conjugating([x], self._mask([x]), within)
        return Subgroup(self, tuple(gs.tolist()), None)

    def extended_centralizer(
        self, x: int, within: "Subgroup | None" = None
    ) -> "Subgroup":
        """Elements normalizing {x, x^-1} by conjugation."""
        gs = self._conjugating([x], self._mask([x, self.inverse(x)]), within)
        return Subgroup(self, tuple(gs.tolist()), None)

    def normalizer(self, H: "Subgroup", within: "Subgroup | None" = None) -> "Subgroup":
        gs = self._conjugating(H.gens or H.elements, H.mask(), within)
        return Subgroup(self, tuple(gs.tolist()), None)

    def sylow2(self, within: "Subgroup | None" = None) -> "Subgroup":
        """A Sylow 2-subgroup (of `within` if given), grown via normalizers."""
        amb = self.full_subgroup() if within is None else within
        target = amb.order
        while target % 2 == 0:
            target //= 2
        target = amb.order // target  # 2-part
        P = self.trivial_subgroup()
        squares = np.diagonal(self.mult).tolist()
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
                    t = squares[t]
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
        """Every subgroup of P (brute-force lattice walk; P small).  Each
        H grows by one x per left coset x H, its first element in P's
        order, as <H, x> = <H, y> for every y in x H."""
        seen: dict[tuple, Subgroup] = {(0,): self.trivial_subgroup()}
        frontier = [self.trivial_subgroup()]
        while frontier:
            nxt = []
            for H in frontier:
                done = H.mask()  # the cosets x H walked so far, H itself first
                for x in P.elements:
                    if done[x]:
                        continue
                    done[self.mult[x, H.elements]] = True
                    K = self.closure(list(H.gens or H.elements) + [x])
                    if K.elements not in seen:
                        seen[K.elements] = K
                        nxt.append(K)
            frontier = nxt
        return sorted(seen.values(), key=lambda h: (h.order, h.elements))

    def two_subgroups_up_to_conjugacy(self) -> list["Subgroup"]:
        """Conjugacy-class representatives of 2-subgroups (incl. trivial),
        enumerated once per table."""
        if self.order > TWO_SUBGROUPS_ORDER_BOUND:
            raise FeasibilityError(
                f"group order {self.order} exceeds bound {TWO_SUBGROUPS_ORDER_BOUND}"
            )
        if self._two_subgroups is None:
            reps: list[Subgroup] = []
            for H in self.all_subgroups_of(self.sylow2()):
                if all(self.subgroup_conjugate(H, R) is None for R in reps):
                    reps.append(H)
            self._two_subgroups = [(R.elements, R.gens) for R in reps]
        return [Subgroup(self, e, g) for e, g in self._two_subgroups]

    def conjugate_subgroup(self, g: int, H: "Subgroup") -> "Subgroup":
        return Subgroup(self, tuple(self._conj([g], H.elements)[0].tolist()), None)

    def subgroup_conjugate(self, A: "Subgroup", B: "Subgroup") -> int | None:
        """The least g with g A g^-1 = B, or None."""
        return self.conjugate_into(A, B) if A.order == B.order else None

    def is_subgroup_of(self, A: "Subgroup", B: "Subgroup") -> bool:
        return set(A.elements) <= set(B.elements)

    def conjugate_into(self, A: "Subgroup", B: "Subgroup") -> int | None:
        """The least g with g A g^-1 <= B, or None."""
        if A.order > B.order:
            return None
        gs = self._conjugating(A.gens or A.elements, B.mask())
        return int(gs[0]) if gs.size else None

    # -- cosets -----------------------------------------------------------

    def left_transversal(self, H: "Subgroup", K: "Subgroup | None" = None) -> list[int]:
        """Left transversal of H in K (None: the whole group), H <= K: the
        first element of each coset in K's element order."""
        if K is not None and not self.is_subgroup_of(H, K):
            raise ValueError("H is not contained in K")
        gs = np.arange(self.order) if K is None else np.array(K.elements)
        # g is its coset's first element iff g is the least of the row g.H
        return gs[self.mult[gs[:, None], H.elements].min(axis=1) == gs].tolist()

    def double_cosets(self, K: "Subgroup", H: "Subgroup") -> list[int]:
        """The least element of each double coset K g H, ascending."""
        seen = np.zeros(self.order, dtype=bool)
        reps = []
        while not seen.all():
            g = int(np.argmin(seen))
            cell = self.mult[self.mult[K.elements, g][:, None], H.elements]
            assert not seen[cell].any()  # double cosets are disjoint
            seen[cell] = True
            reps.append(g)
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
        if self.gens is None:
            self.gens = self._find_gens()

    def _find_gens(self) -> tuple[int, ...]:
        # each closure grows the last: the new generator over the closed
        # set, then every generator over what is new; being closed under
        # right multiplication by the generators, the result is <gens>
        G = self.parent
        gens: list[int] = []
        cols: list[list[int]] = []  # y -> y g for each generator g
        have = {0}
        for x in self.elements:
            if x not in have:
                gens.append(x)
                cols.append(G.mult[:, x].tolist())
                _grow(have, {cols[-1][h] for h in have} - have, cols)
                if len(have) == len(self.elements):
                    break
        return tuple(gens)

    @property
    def order(self) -> int:
        return len(self.elements)

    def contains(self, x: int) -> bool:
        return x in self.elements

    def mask(self) -> np.ndarray:
        """Membership as a boolean vector over the parent's ids."""
        return self.parent._mask(self.elements)

    def as_table(self) -> tuple[GroupTable, list[int]]:
        """Standalone table for this subgroup plus the id-to-parent map."""
        G = self.parent
        elems = list(self.elements)  # sorted, so the identity 0 comes first
        idx = np.full(G.order, -1, dtype=np.int64)
        idx[elems] = np.arange(len(elems))
        mult = idx[G.mult[np.ix_(elems, elems)]]
        # generators found on the element set alone, whatever self.gens
        # are, so each element set has one table; the trivial group has
        # none, and its table takes the identity
        gens = idx[list(self._find_gens() or self.elements)].tolist()
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


def _grow(have: set[int], new: set[int], cols: list[list[int]]) -> set[int]:
    """have, with the elements in new added, closed under right
    multiplication by the generators whose columns (y -> y g) are cols:
    a breadth-first search from new, one level at a time; grows have in
    place and returns it."""
    have |= new
    frontier = list(new)
    while frontier:
        nxt = []
        for x in frontier:
            for col in cols:
                y = col[x]
                if y not in have:
                    have.add(y)
                    nxt.append(y)
        frontier = nxt
    return have


class FeasibilityError(Exception):
    """Raised when a computation exceeds a configured search bound."""


# -- constructors ---------------------------------------------------------


def _perm_mul(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """(p*q)(i) = p(q(i))."""
    return tuple(p[q[i]] for i in range(len(p)))


def from_permutations(
    points: int, generators: list[list[int]], bound: int | None = None
) -> GroupTable:
    """Build a table from 1-based permutation images; FeasibilityError as
    soon as the enumeration passes `bound` elements.

    Elements are numbered in breadth-first order of the right Cayley graph.
    Its edges give right multiplication by each generator, R_g[x] = x g, and
    every element j > 0 was first reached as parent(j) g, so the table
    fills one column at a time: x j = (x parent(j)) g = R_g[x parent(j)].
    """
    gens = [tuple(x - 1 for x in g) for g in generators]
    for g in gens:
        if sorted(g) != list(range(points)):
            raise ValueError("generator is not a permutation")
    ident = tuple(range(points))
    elems = [ident]
    index = {ident: 0}
    right: list[list[int]] = [[] for _ in gens]  # right[k][x] = id(x g_k)
    reached = [(0, 0)]  # (parent, generator index) of each element
    for x, p in enumerate(elems):  # elems grows in breadth-first order
        for k, g in enumerate(gens):
            q = _perm_mul(p, g)
            if q not in index:
                index[q] = len(elems)
                elems.append(q)
                reached.append((x, k))
                if bound is not None and len(elems) > bound:
                    raise FeasibilityError(f"group order exceeds bound {bound}")
            right[k].append(index[q])
    n = len(elems)
    R = np.array(right, dtype=np.int64).reshape(len(gens), n)
    cols = np.empty((n, n), dtype=np.int64)  # cols[j] = column j of the table
    cols[0] = np.arange(n)
    for j in range(1, n):
        x, k = reached[j]
        cols[j] = R[k][cols[x]]
    gen_ids = [index[g] for g in gens]
    return GroupTable(np.ascontiguousarray(cols.T), gen_ids, perms=elems)


# -- serialization --------------------------------------------------------


def load_group(path: str, bound: int | None = None) -> GroupTable:
    with open(path) as fh:
        data = json.load(fh)
    return group_from_dict(data, bound)


def group_from_dict(data: dict, bound: int | None = None) -> GroupTable:
    """The group of a file's data; FeasibilityError if its order passes
    `bound` (for permutations, before the table is built)."""
    if "points" in data:
        return from_permutations(data["points"], data["generators"], bound)
    if "table" not in data:
        raise ValueError("group file needs 'points'+'generators' or 'table'")
    G = GroupTable(data["table"], data.get("generators"))
    if bound is not None and G.order > bound:
        raise FeasibilityError(f"group order exceeds bound {bound}")
    return G


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
