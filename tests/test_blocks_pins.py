"""Byte-for-byte pins of the block decompositions.

Each digest is a sha256 of the sorted-key JSON of `block_to_dict` over the
blocks `block_decomposition` returns, in order: the 10 catalogue groups
over GF(2), GF(4) and GF(2^m), m the degree of Brauer's bound
(`BRAUER_DEGREES`), and C7, whose central characters lie in GF(8), over
GF(2) and GF(4).  They were recorded while each central idempotent was
split by the CRT idempotents of a factored minimal polynomial.  They pin
that the trace splits of the Berlekamp subalgebra move no output."""

import hashlib
import json

import numpy as np
import pytest

from symvert import blocks, catalog, linalg
from symvert.field import make_field
from symvert.group import from_permutations

from conftest import BRAUER_DEGREES

PINS = {
    ("C2", 1):
        "cc727f6af95893db1051f4a6a5331bcc4b9a73fefc7968af3e5677692374e9c6",
    ("C2", 2):
        "cc727f6af95893db1051f4a6a5331bcc4b9a73fefc7968af3e5677692374e9c6",
    ("V4", 1):
        "4b5b9295d62e246e3b98fd2d4b73b87eef8a59ef4c8c8367d0260ff06aab2a2d",
    ("V4", 2):
        "4b5b9295d62e246e3b98fd2d4b73b87eef8a59ef4c8c8367d0260ff06aab2a2d",
    ("S3", 1):
        "739c3ce3f5b697d122d19e2240e97198d0e38308d9d484626bd0217d7624b749",
    ("S3", 2):
        "739c3ce3f5b697d122d19e2240e97198d0e38308d9d484626bd0217d7624b749",
    ("D12", 1):
        "2ee2ab890dc1907e619be476af67919f8c5610ce034834110c7b730f06740cb8",
    ("D12", 2):
        "2ee2ab890dc1907e619be476af67919f8c5610ce034834110c7b730f06740cb8",
    ("A4", 1):
        "a5fae3c66cfd3d06518d6f121f56bfc8ec0756f146c7b2535aed7fccc2b52941",
    ("A4", 2):
        "a5fae3c66cfd3d06518d6f121f56bfc8ec0756f146c7b2535aed7fccc2b52941",
    ("S4", 1):
        "c4536f2a1d1bf9afa3e249d332a6e7b72291bb205515d8c82e72448771584785",
    ("S4", 2):
        "c4536f2a1d1bf9afa3e249d332a6e7b72291bb205515d8c82e72448771584785",
    ("S5", 1):
        "5404980ceed11b9375827c3de9db91eb8d353e73172db0f3087800145c977b7f",
    ("S5", 2):
        "5404980ceed11b9375827c3de9db91eb8d353e73172db0f3087800145c977b7f",
    ("S5", 4):
        "5404980ceed11b9375827c3de9db91eb8d353e73172db0f3087800145c977b7f",
    ("SL(2,3)", 1):
        "31421c62691b7755e1e7dd139b2d95bdfa3ba395cc0874f6d4b1fc5744a83ae5",
    ("SL(2,3)", 2):
        "31421c62691b7755e1e7dd139b2d95bdfa3ba395cc0874f6d4b1fc5744a83ae5",
    ("GL(3,2):2", 1):
        "6d7b83e5048a9d26470c46817d568aeb4c3414d453e7969f30197f442446fe58",
    ("GL(3,2):2", 2):
        "6d7b83e5048a9d26470c46817d568aeb4c3414d453e7969f30197f442446fe58",
    ("GL(3,2):2", 6):
        "6d7b83e5048a9d26470c46817d568aeb4c3414d453e7969f30197f442446fe58",
    ("C3:C4", 1):
        "f47912aae67b40e24bd67458edf8422790160ac4b6c0e85a51d64d8e9f1a5079",
    ("C3:C4", 2):
        "f47912aae67b40e24bd67458edf8422790160ac4b6c0e85a51d64d8e9f1a5079",
    ("C7", 1):
        "9cfd10b61c3556b9a9bf5ca31a9f6712ea6d9a40daf3068f5558eb531ff4a3fa",
    ("C7", 2):
        "9cfd10b61c3556b9a9bf5ca31a9f6712ea6d9a40daf3068f5558eb531ff4a3fa",
}

C7 = from_permutations(7, [[2, 3, 4, 5, 6, 7, 1]])


def test_pins_cover_the_catalogue():
    want = {
        (name, m)
        for name in catalog.SUITE_NAMES
        for m in (1, 2, BRAUER_DEGREES[name])
    }
    assert set(PINS) == want | {("C7", 1), ("C7", 2)}


@pytest.mark.parametrize("name, m", list(PINS))
def test_block_decomposition_pinned(name, m):
    G = C7 if name == "C7" else catalog.suite_group(name)
    F = make_field(m)
    bl = blocks.block_decomposition(G, F)
    text = json.dumps([blocks.block_to_dict(b) for b in bl], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PINS[name, m]
    # each e is primitive: the Berlekamp subalgebra {a : a^q = a} of e.Z,
    # which is GF(q)^r for r primitive idempotents, has dimension 1
    Z = bl[0].centre
    for b in bl:
        eZ = linalg.Subspace(
            F, Z.n, np.array([Z.mul(b.idempotent, c) for c in linalg.eye(Z.n)])
        )
        frob = np.array([eZ.coords(Z.power(v, F.q) ^ v) for v in eZ.basis]).T
        assert eZ.dim - linalg.rank(F, frob) == 1
