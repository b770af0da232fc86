"""Sweep: `rep.decompose`'s classes by head against `rep.module_iso`.

For every catalogue group of order at most 24, and for S5's permutation
module, at GF(2) and GF(4) and at program seeds 0 and 20240401, decompose
kG (through `regular_end_algebra` and through its full endomorphism
algebra), the permutation module, P + P + k and the irreducibles twice,
and compare each summand's class and each class's multiplicity with the
numbering by one `module_iso` per class found so far.  Too slow for the
Tier-1 suite; run it as a script:

    PYTHONPATH=src python tests/sweep_decompose_heads.py
"""

import sys
import time

from symvert import catalog, rep
from symvert.field import make_field

from conftest import iso_classes_by_module_iso

SEEDS = (0, 20240401)


def modules(G, F):
    M = rep.regular_module(G, F)
    yield "regular", M, rep.regular_end_algebra(G, F, M)
    yield "regular-end", M, rep.end_algebra(M)
    P, k = rep.permutation_module(G, F), rep.trivial_module(G, F)
    irr = rep.irreducible_modules(G, F)
    yield "perm", P, None
    yield "perm+perm+k", rep.direct_sum([P, P, k]), None
    yield "irr+irr", rep.direct_sum(irr + irr[::-1]), None


def cases():
    for F in (make_field(1), make_field(2)):
        for name in catalog.SUITE_NAMES:
            G = catalog.suite_group(name)
            if G.order <= 24:
                for label, M, endo in modules(G, F):
                    yield f"{name} {label} GF({F.q})", M, endo
        S5 = catalog.suite_group("S5")
        yield f"S5 perm GF({F.q})", rep.permutation_module(S5, F), None


def main() -> int:
    t0, runs, bad = time.perf_counter(), 0, []
    for label, M, endo in cases():
        for seed in SEEDS:
            cert = rep.decompose(M, seed=seed, endo=endo)
            classes, mults = iso_classes_by_module_iso(
                [c.module for c in cert.components])
            runs += 1
            if [c.iso_class for c in cert.components] != classes or (
                cert.multiplicities != mults
            ):
                bad.append(f"{label} seed {seed}")
    for line in bad:
        print("MISMATCH", line)
    print(f"{runs} decompositions, {len(bad)} mismatches, "
          f"{time.perf_counter() - t0:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
