"""Sweep: `rep.decompose`'s classes by head against `rep.module_iso`.

For every catalogue group of order at most 24, and for S5's permutation
module, at GF(2) and GF(4), decompose kG (through `regular_end_algebra`
and through its full endomorphism algebra), the permutation module,
P + P + k and the irreducibles twice;
decompose Res_V M over the basis of E_V(M) in the projectivity
certificate, V the Green vertex, as `vertex.green_vertex` does for the
source, for every indecomposable benchmark module and every catalogue
irreducible at GF(2) and GF(4) with V nontrivial; and compare each
summand's class and each class's multiplicity with the numbering by one
`module_iso` per class found so far.  Each module runs in its own basis
and after a random change of basis (conftest's `conjugated_with_algebra`,
which moves the algebra along with it).  Then match GL(3,2):2's PIMs over
GF(2), lifted off kG/J(kG) by `rep.pims`, one to one with those of the
decomposition of kG over End(kG) (conftest's `pim_mismatches`), heads
and multiplicities included.  Too slow for the Tier-1 suite; run it
as a script:

    PYTHONPATH=src python tests/sweep_decompose_heads.py
"""

import json
import random
import sys
import time
from pathlib import Path

from symvert import catalog, rep, vertex
from symvert.field import make_field

from conftest import conjugated_with_algebra, iso_classes_by_module_iso, pim_mismatches

MODULE_FILES = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "modules"


def modules(G, F):
    M = rep.regular_module(G, F)
    yield "regular", M, rep.regular_end_algebra(G, F, M)
    yield "regular-end", M, rep.end_algebra(M)
    P, k = rep.permutation_module(G, F), rep.trivial_module(G, F)
    irr = rep.irreducible_modules(G, F)
    yield "perm", P, None
    yield "perm+perm+k", rep.direct_sum([P, P, k]), None
    yield "irr+irr", rep.direct_sum(irr + irr[::-1]), None


def restricted_to_the_vertex(M):
    """Res_V M with E_V(M) from `is_projective`'s certificate, or None when
    M is decomposable or projective."""
    if not rep.is_indecomposable(M):
        return None
    green = vertex.green_vertex(M)
    if green.vertex.order == 1:
        return None
    res = rep.restrict(M, green.vertex)
    return res, rep.end_algebra(res, basis=green.cert.endo_basis)


def vertex_modules():
    """The benchmark's module files (read only), then the catalogue's
    irreducibles at GF(2) and GF(4)."""
    for entry in json.loads((MODULE_FILES / "index.json").read_text()):
        G = catalog.suite_group(entry["group"])
        stem = catalog._FILES[entry["group"]][: -len(".json")]
        yield f"{stem}-{entry['label']}", rep.load_module(
            MODULE_FILES / f"{stem}-{entry['label']}.json", G)
    for F in (make_field(1), make_field(2)):
        for name in catalog.SUITE_NAMES:
            G = catalog.suite_group(name)
            for i, S in enumerate(rep.irreducible_modules(G, F)):
                yield f"{name} irreducible {i} GF({F.q})", S


def cases():
    for F in (make_field(1), make_field(2)):
        for name in catalog.SUITE_NAMES:
            G = catalog.suite_group(name)
            if G.order <= 24:
                for label, M, endo in modules(G, F):
                    yield f"{name} {label} GF({F.q})", M, endo
        S5 = catalog.suite_group("S5")
        yield f"S5 perm GF({F.q})", rep.permutation_module(S5, F), None
    for label, M in vertex_modules():
        if (restricted := restricted_to_the_vertex(M)) is not None:
            yield f"{label} Res_V", *restricted


def main() -> int:
    t0, runs, bad = time.perf_counter(), 0, []
    rng = random.Random(20240401)
    for label, M, endo in cases():
        moved = conjugated_with_algebra(M, endo, rng)
        for basis, (N, E) in (("own", (M, endo)), ("conjugated", moved)):
            cert = rep.decompose(N, E)
            classes, mults = iso_classes_by_module_iso(
                [c.module for c in cert.components])
            runs += 1
            if [c.iso_class for c in cert.components] != classes or (
                cert.multiplicities != mults
            ):
                bad.append(f"{label} {basis} basis")
    t1 = time.perf_counter()
    gl32 = catalog.suite_group("GL(3,2):2")
    pims_bad = [f"GL(3,2):2 {x} GF(2)" for x in pim_mismatches(gl32, make_field(1))]
    bad += pims_bad
    for line in bad:
        print("MISMATCH", line)
    print(f"{runs} decompositions, {len(bad) - len(pims_bad)} mismatches, "
          f"{t1 - t0:.1f} s")
    print(f"GL(3,2):2 PIMs over GF(2) against the decomposition of kG: "
          f"{len(pims_bad)} mismatches, {time.perf_counter() - t1:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
