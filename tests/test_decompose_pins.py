"""Byte-for-byte pins of the decompositions, PIMs and irreducibles.

Each digest is a sha256 over the int64 bytes (and shapes) of a
`DecompositionCert`'s idempotents, iso classes and multiplicities
followed by `rep.radical` of the module's endomorphism algebra, of the
PIM and head generator matrices and multiplicity of each `pims` entry,
or of the generator matrices of a list of irreducibles: kind
`irreducibles` for conftest's `irreducibles_by_chop` (the factors of a
composition series of kG, in its own basis at key 0 and after a change
of basis at key 20240401), kind `irreducible_modules` for
`rep.irreducible_modules` (read off the tensor closure).  The library
draws from fixed starts and takes no seed; `pims` and `decompose` keep a
`seed` keyword that they ignore, and each runs at seeds 0 and 20240401
against the one pin.  They were recorded while E/J(E) was still read by a
reduction modulo a basis of J(E), the irreducibles rebuilt as
sub-quotients of kG, and the basis of J(E) carried on the certificate.
They pin that reading E/J(E) off the composition series instead, taking
the irreducibles from `chop`'s factor matrices, and reading J(E) from
`rep.radical` once `decompose` no longer builds it, moves no output.  The
`pims` pins alone were recorded again once `pims` built each PIM as kG.e
from an idempotent lifted off kG/J(kG), with its irreducible as its head:
each new PIM and head is isomorphic to exactly one recorded one, with the
same multiplicity."""

import hashlib
import random

import numpy as np
import pytest

from symvert import catalog, linalg, rep
from symvert.field import make_field

from conftest import irreducibles_by_chop

PINS = {
    ("S3", "regular", 1, 0):
        "4a1e1771989414fc680ee4cef698a147ecf94b69ef9cbba905608714f99e9bd0",
    ("S3", "pims", 1, 0):
        "e3a08af05131ff6492a6b308b50202b6b673c72d719114ef3a14a8913ee4765f",
    ("D12", "regular", 1, 0):
        "810df56b269131b40af67cfcec261c073bfacba940cf1f40f24d06007fe557ad",
    ("D12", "pims", 1, 0):
        "986073b84f62102480a648e8010a234504ef2fe2bd299f09b3e3824d05c11d35",
    ("A4", "regular", 1, 0):
        "9e829cb59ed88780aacd3d816227a3978a768d53375666779df833ecf671192f",
    ("A4", "pims", 1, 0):
        "96d585f46d1199d1635d3f9afcaee8d1b760cf43eb4d76e62d7df9ab92616bd3",
    ("C3:C4", "regular", 1, 0):
        "e094338af303b7eb39450f95263b01684946efd9598fc42c9a5dc3fcd8af6261",
    ("C3:C4", "pims", 1, 0):
        "d34dadc498799baf96d0f57def7f5acffc0266557869201c58e7142319b48b23",
    ("S4", "regular", 1, 0):
        "c3b704eeb215164a9046d74eabb449642093af5bfa6c9db1ed3b22973be9a964",
    ("S4", "pims", 1, 0):
        "3ce4d06612292db04d9344bb8cb2f765b1d618a6e182fa311193665588048388",
    ("SL(2,3)", "regular", 1, 0):
        "ff5f4647f02da4203c2c3923e5a6f6a8aaa7bcd5127abbcb3c4993f5c3efb4a6",
    ("SL(2,3)", "pims", 1, 0):
        "492634a0ac8d627dfd0a6d1eaf634ecc9963092bb251d2534373bb1b51fe090c",
    ("S4", "perm", 1, 0):
        "93a36a19fefc97dae199b3c0bb57e7148001eb5c61ffb36587579fc67f8c226a",
    ("S5", "perm", 1, 0):
        "f8abe37885b4ee74f3d482f5de7a043b7dd06c63509558f60bfd2ce74dcc4173",
    ("S3", "regular", 2, 0):
        "9945c65bb59f8aa7b88b5892cdafc7dba64d43843545e3bd9e1e6fdd12a045f2",
    ("S3", "pims", 2, 0):
        "e3a08af05131ff6492a6b308b50202b6b673c72d719114ef3a14a8913ee4765f",
    ("D12", "regular", 2, 0):
        "dcf36635c4083ba5981a2680fd2778df6cb55bf010411eac8b31a372b98e66be",
    ("D12", "pims", 2, 0):
        "986073b84f62102480a648e8010a234504ef2fe2bd299f09b3e3824d05c11d35",
    ("A4", "regular", 2, 0):
        "afb64ac511e354f0e6be6be3a1e359696830f894896fd6d34987ef9f78b0464e",
    ("A4", "pims", 2, 0):
        "dec8138c83651628e56c3f4b604448b083c10d1db3907ee19f6806129530e7ef",
    ("C3:C4", "regular", 2, 0):
        "f4a8cf990bf079cee89da85f07992cb2cf4f0da34a8ec1cacd38b2fd97c22704",
    ("C3:C4", "pims", 2, 0):
        "d34dadc498799baf96d0f57def7f5acffc0266557869201c58e7142319b48b23",
    ("S4", "regular", 2, 0):
        "277d0085f2076b80178d4df75809f2dc4915de6e95c6ad9afdbc2bb44c4808ab",
    ("S4", "pims", 2, 0):
        "3ce4d06612292db04d9344bb8cb2f765b1d618a6e182fa311193665588048388",
    ("SL(2,3)", "regular", 2, 0):
        "1111fe6c69f0e2ffdcae00f02435dbde1d3fbdbe836489b63784c081445d8a37",
    ("SL(2,3)", "pims", 2, 0):
        "34ccf5c7681e96a06391c8fd86e047992601c748c68588229aa9485e43973501",
    ("S4", "perm", 2, 0):
        "93a36a19fefc97dae199b3c0bb57e7148001eb5c61ffb36587579fc67f8c226a",
    ("S5", "perm", 2, 0):
        "f8abe37885b4ee74f3d482f5de7a043b7dd06c63509558f60bfd2ce74dcc4173",
    ("S3", "irreducibles", 1, 0):
        "e93b02bea5802215db73b0000f716feba044fd254ad8356f17a830c6952fe19a",
    ("D12", "irreducibles", 1, 0):
        "e9ea6926505cff28d3bf4983f1a92146f320849aa4b325d615b113e467db7c10",
    ("A4", "irreducibles", 1, 0):
        "f010bf3a3c0bccfb723c0773b1feccce9423c4824d1d7da26b6ec19fca805492",
    ("C3:C4", "irreducibles", 1, 0):
        "333099da0d3756f21016cfc6101b0111ab67e5fc2460fa2fb8394266fb707a65",
    ("S4", "irreducibles", 1, 0):
        "afe2d6919da8ad39261fe67012cc4108f6ce7bfb96ab1ebca32d7dbf8c3ddafb",
    ("SL(2,3)", "irreducibles", 1, 0):
        "f010bf3a3c0bccfb723c0773b1feccce9423c4824d1d7da26b6ec19fca805492",
    ("S3", "irreducibles", 2, 0):
        "e93b02bea5802215db73b0000f716feba044fd254ad8356f17a830c6952fe19a",
    ("D12", "irreducibles", 2, 0):
        "e9ea6926505cff28d3bf4983f1a92146f320849aa4b325d615b113e467db7c10",
    ("A4", "irreducibles", 2, 0):
        "af41dd155501629ccdc2720bb288ca2a545d241fa00abd8a19852115101fe91f",
    ("C3:C4", "irreducibles", 2, 0):
        "333099da0d3756f21016cfc6101b0111ab67e5fc2460fa2fb8394266fb707a65",
    ("S4", "irreducibles", 2, 0):
        "afe2d6919da8ad39261fe67012cc4108f6ce7bfb96ab1ebca32d7dbf8c3ddafb",
    ("SL(2,3)", "irreducibles", 2, 0):
        "af41dd155501629ccdc2720bb288ca2a545d241fa00abd8a19852115101fe91f",
    ("S3", "irreducible_modules", 1, None):
        "3b6b354afe1ae778c7d1f1f84a4f8231bab8e3920cfd9f4dc974b875ec5e4503",
    ("S3", "irreducible_modules", 2, None):
        "3b6b354afe1ae778c7d1f1f84a4f8231bab8e3920cfd9f4dc974b875ec5e4503",
    ("D12", "irreducible_modules", 1, None):
        "e9ea6926505cff28d3bf4983f1a92146f320849aa4b325d615b113e467db7c10",
    ("D12", "irreducible_modules", 2, None):
        "e9ea6926505cff28d3bf4983f1a92146f320849aa4b325d615b113e467db7c10",
    ("A4", "irreducible_modules", 1, None):
        "610ff64b61517eae5dab1497c706b204ed6b2daa61b70c3da48c85bd92b4fce6",
    ("A4", "irreducible_modules", 2, None):
        "48de9f5df6c3b11985fa980d768a0d2acb1b6d59564b6eb275235673bdb22e00",
    ("C3:C4", "irreducible_modules", 1, None):
        "e9ea6926505cff28d3bf4983f1a92146f320849aa4b325d615b113e467db7c10",
    ("C3:C4", "irreducible_modules", 2, None):
        "e9ea6926505cff28d3bf4983f1a92146f320849aa4b325d615b113e467db7c10",
    ("S4", "irreducible_modules", 1, None):
        "acc4a5b4708bc2f5bceb4d7d1b6c2b0c5ab601258fb047112aaedd4f4295f23e",
    ("S4", "irreducible_modules", 2, None):
        "acc4a5b4708bc2f5bceb4d7d1b6c2b0c5ab601258fb047112aaedd4f4295f23e",
    ("SL(2,3)", "irreducible_modules", 1, None):
        "610ff64b61517eae5dab1497c706b204ed6b2daa61b70c3da48c85bd92b4fce6",
    ("SL(2,3)", "irreducible_modules", 2, None):
        "af41dd155501629ccdc2720bb288ca2a545d241fa00abd8a19852115101fe91f",
}

# the irreducibles by chop of kG after the change of basis drawn from
# random.Random(20240401): kind `irreducibles` at that seed
CONJUGATED_IRREDUCIBLES = {
    ("S3", 1):
        "3b6b354afe1ae778c7d1f1f84a4f8231bab8e3920cfd9f4dc974b875ec5e4503",
    ("D12", 1):
        "151b6a58cb229ff95bd0f31e95763356f3b16cd1d888ce22011017951f963b86",
    ("A4", 1):
        "610ff64b61517eae5dab1497c706b204ed6b2daa61b70c3da48c85bd92b4fce6",
    ("C3:C4", 1):
        "151b6a58cb229ff95bd0f31e95763356f3b16cd1d888ce22011017951f963b86",
    ("S4", 1):
        "dc3bdfdd2641651caff46929ed85dc2958a58167674a1f6eb478c220a3eee954",
    ("SL(2,3)", 1):
        "610ff64b61517eae5dab1497c706b204ed6b2daa61b70c3da48c85bd92b4fce6",
    ("S3", 2):
        "92f6e87733492f8d08feca8b29e07eb3a2453f837afe9281bda2ecce80865a6d",
    ("D12", 2):
        "e232fd7709d9d7344f773667bfb6ae31cc86e2b7b3c9faf2ea9fbbd402b7c0ca",
    ("A4", 2):
        "af41dd155501629ccdc2720bb288ca2a545d241fa00abd8a19852115101fe91f",
    ("C3:C4", 2):
        "333099da0d3756f21016cfc6101b0111ab67e5fc2460fa2fb8394266fb707a65",
    ("S4", 2):
        "f0a4d73f40b5a7fc86b8e87d1f2d0d0b3772ae1f2e31250e624939225284f640",
    ("SL(2,3)", 2):
        "af41dd155501629ccdc2720bb288ca2a545d241fa00abd8a19852115101fe91f",
}


def _feed(h, arrays):
    for A in arrays:
        A = np.asarray(A, dtype=np.int64)
        h.update(repr(A.shape).encode())
        h.update(A.tobytes())


def cert_digest(cert: rep.DecompositionCert) -> str:
    h = hashlib.sha256()
    for c in cert.components:
        _feed(h, [c.idempotent, [c.iso_class]])
    _feed(h, [cert.multiplicities])
    _feed(h, rep.radical(rep.end_algebra(cert.module)))
    return h.hexdigest()


def pims_digest(ps: list[rep.PimInfo]) -> str:
    h = hashlib.sha256()
    for p in ps:
        _feed(h, p.pim.gen_matrices + p.head.gen_matrices + [[p.multiplicity]])
    return h.hexdigest()


def pinned_digest(name, kind, m, seed) -> str:
    G, F = catalog.suite_group(name), make_field(m)
    if kind == "pims":
        return pims_digest(rep.pims(G, F, seed=seed))
    if kind in ("irreducibles", "irreducible_modules"):
        h = hashlib.sha256()
        irr = (irreducibles_by_chop(G, F, random.Random(seed) if seed else None)
               if kind == "irreducibles" else rep.irreducible_modules(G, F))
        for S in irr:
            _feed(h, S.gen_matrices)
        return h.hexdigest()
    module = rep.regular_module if kind == "regular" else rep.permutation_module
    return cert_digest(rep.decompose(module(G, F), seed=seed))


def pin(name, kind, m, seed) -> str:
    """The digest a case must give: `pims` and `decompose` ignore their
    `seed`, so at 20240401 they give the seed-0 pin; the chop reference
    at 20240401 runs on a conjugated kG."""
    if seed is None:
        return PINS[name, kind, m, None]
    if kind == "irreducibles" and seed:
        return CONJUGATED_IRREDUCIBLES[name, m]
    return PINS[name, kind, m, 0]


# each library call at seeds 0 and 20240401, and the chop reference on kG
# in its own basis and after a change of basis
CASES = [(name, kind, m, seed) for name, kind, m, pinned in PINS
         for seed in ((None,) if pinned is None else (0, 20240401))]


@pytest.mark.parametrize("name, kind, m, seed", CASES)
def test_decomposition_is_pinned(name, kind, m, seed):
    assert pinned_digest(name, kind, m, seed) == pin(name, kind, m, seed)


@pytest.mark.parametrize(
    "name, kind, m, seed", [k for k in CASES if not k[1].startswith("irreducible")]
)
def test_corner_bases_have_full_rank(name, kind, m, seed, monkeypatch):
    # `split_corner` skips the rank check of its corner algebras, whose
    # bases are the pivots of one rref; rank each basis it builds here
    bases, compress = [], rep._compress_corner

    def recording(*args):
        bases.append(compress(*args))
        return bases[-1]

    monkeypatch.setattr(rep, "_compress_corner", recording)
    assert pinned_digest(name, kind, m, seed) == pin(name, kind, m, seed)
    F = make_field(m)  # S4's permutation module is indecomposable: no corners
    for basis in bases:
        flat = np.array([b.ravel() for b in basis])
        assert linalg.rank(F, flat) == len(basis)
