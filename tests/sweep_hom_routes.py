"""Sweep: the two Hom routes of `rep.hom_space` against each other.

For every catalogue group, at GF(2) and GF(4), take the trivial module,
the permutation module, the regular module (|G| <= 24) and the
irreducibles found by tensor closure.  Over the whole group and over
each conjugacy class representative of 2-subgroups, take every ordered
pair (M, N) of them with dim M . dim N at most twice
`rep.HOM_KRON_UNKNOWNS`; over the whole group, also one pair (S + k^j, N)
of each size up to that bound that no pair of the pool has.  Run
`_hom_by_kron` and `_hom_by_spin` on the same generator pairs (over H,
those of the restrictions `rep.restrict(M, H)` and `rep.restrict(N, H)`)
and compare
the bases byte for byte (dtype, shape and entries).  Too slow for the
Tier-1 suite; run it as a script:

    PYTHONPATH=src python tests/sweep_hom_routes.py
"""

import sys
import time

from symvert import catalog, rep
from symvert.field import make_field

LIMIT = 2 * rep.HOM_KRON_UNKNOWNS


def pool(G, F):
    yield "trivial", rep.trivial_module(G, F)
    yield "perm", rep.permutation_module(G, F)
    if G.order <= 24:
        yield "regular", rep.regular_module(G, F)
    for i, S in enumerate(rep.irreducible_modules(G, F)):
        yield f"irr{i}", S


def filler(mods, n):
    """A pair (S + k^j, N) with n unknowns: N the largest module of the
    pool whose dimension divides n, S the largest one after the trivial
    module that fits into the rest."""
    k = mods[0][1]
    N = max((N for _, N in mods if n % N.dim == 0), key=lambda N: N.dim)
    a = n // N.dim
    S = max((S for _, S in mods[1:] if S.dim <= a), key=lambda S: S.dim, default=k)
    M = rep.direct_sum([S] + [k] * (a - S.dim))
    return (f"S{S.dim}+k^{a - S.dim}", M), (f"dim {N.dim}", N)


def as_bytes(basis):
    return [(X.dtype, X.shape, X.tobytes()) for X in basis]


def main() -> int:
    t0, runs, bad, sizes = time.perf_counter(), 0, [], set()
    for F in (make_field(1), make_field(2)):
        for name in catalog.SUITE_NAMES:
            G = catalog.suite_group(name)
            mods = list(pool(G, F))
            cases = [(x, y) for x in mods for y in mods
                     if x[1].dim * y[1].dim <= LIMIT]
            have = {x[1].dim * y[1].dim for x, y in cases}
            fill = [filler(mods, n) for n in range(1, LIMIT + 1) if n not in have]
            for H in [None, *G.two_subgroups_up_to_conjugacy()]:
                for (a, M), (b, N) in cases + (fill if H is None else []):
                    if H is not None:  # Hom over H: Hom of the restrictions
                        M, N = rep.restrict(M, H), rep.restrict(N, H)
                    pairs = list(zip(M.gen_matrices, N.gen_matrices))
                    kron = as_bytes(rep._hom_by_kron(F, pairs))
                    runs += 1
                    sizes.add(M.dim * N.dim)
                    if kron != as_bytes(rep._hom_by_spin(F, pairs)):
                        where = "G" if H is None else f"|H| = {H.order}"
                        bad.append(f"{name} GF({F.q}) Hom({a}, {b}) over {where}")
    for line in bad:
        print("MISMATCH", line)
    print(f"{runs} Hom spaces, {len(sizes)} sizes from {min(sizes)} to "
          f"{max(sizes)} unknowns, {len(bad)} mismatches, "
          f"{time.perf_counter() - t0:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
