"""Exact dense linear algebra over a FieldCtx.

Matrices are numpy int64 arrays of field elements (column-vector
convention: a matrix acts on the left of a column vector).  Subspaces carry
a canonical reduced-row-echelon basis, so equality of subspaces is equality
of representations.
"""

from __future__ import annotations

import numpy as np

from .field import FieldCtx


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.int64)


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def combine(F: FieldCtx, coeffs, mats) -> np.ndarray:
    """sum_i coeffs[i] * mats[i] over equal-shape matrices or vectors (at
    least one)."""
    out = np.zeros_like(mats[0], dtype=np.int64)
    for c, b in zip(coeffs, mats):
        if c:
            out ^= F.vscale(int(c), b)
    return out


def coefficient_vectors(q: int, h: int, rng, draws: int):
    """`draws` coefficient vectors of length h for a seeded combination
    search, each drawn entry by entry with rng.randrange(q): the candidates
    of `_split_once`, which raises when they run out, and of
    `_seeded_automorphism`, whose transport is optional."""
    for _ in range(draws):
        yield [rng.randrange(q) for _ in range(h)]


def mat_mul(F: FieldCtx, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Matrix product.  GF(2): one float BLAS product mod 2, as numpy has no
    integer BLAS; sums of k products of 0/1 are exact in float32 while
    k < 2^24, and in float64 beyond.  GF(2^m): bit-sliced onto exact float64
    BLAS products (after Albrecht's M4RIE).  Bit i of each element sits at
    bit s*i, so a product of A with a group of B's bit planes counts each
    carry-less plane t in its own s-bit field, whose low bit is that
    plane's parity; ``red_masks`` folds the 2m-1 parities back.
    ``FieldCtx.mat_mul_plans`` sizes the inner chunks so that every partial
    sum stays below 2^53; the plan with the fewest products wins."""
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    m, k = F.m, A.shape[1]
    if m == 1:
        t = np.float32 if k < 1 << 24 else np.float64
        return (A.astype(t) @ B.astype(t)).astype(np.int64) & 1
    h, s, chunk, spread, groups = min(
        F.mat_mul_plans, key=lambda p: len(p[4]) * -(-k // p[2])
    )
    As, C = spread[A], zeros(A.shape[0], B.shape[1])
    for g, group in zip(range(0, m, h), groups):
        P = 0
        for c in range(0, k, chunk):
            P ^= (As[:, c : c + chunk] @ group[B[c : c + chunk]]).astype(np.int64)
        for t in range(min(m + h, 2 * m - g) - 1):
            C ^= (P >> s * t & 1) * F.red_masks[g + t]
    return C


def mat_vec(F: FieldCtx, A: np.ndarray, v: np.ndarray) -> np.ndarray:
    return mat_mul(F, A, np.asarray(v, dtype=np.int64).reshape(-1, 1)).ravel()


def vec_mat(F: FieldCtx, v: np.ndarray, A: np.ndarray) -> np.ndarray:
    return mat_mul(F, np.asarray(v, dtype=np.int64).reshape(1, -1), A).ravel()


def rref(
    F: FieldCtx, A: np.ndarray, record_transform: bool = False
) -> tuple[np.ndarray, list[int], np.ndarray | None]:
    """Reduced row echelon form; optionally the transform T with T A = R."""
    R = np.array(A, dtype=np.int64, copy=True)
    rows, cols = R.shape
    T = eye(rows) if record_transform else None
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(R[r:, c])[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            R[[r, p]] = R[[p, r]]
            if T is not None:
                T[[r, p]] = T[[p, r]]
        pv = int(R[r, c])
        if pv != 1:
            s = F.inv(pv)
            R[r] = F.vscale(s, R[r])
            if T is not None:
                T[r] = F.vscale(s, T[r])
        fac = R[:, c].copy()
        fac[r] = 0
        touch = np.nonzero(fac)[0]
        if touch.size:
            R[touch] ^= F.vmul(fac[touch, None], R[r][None, :])
            if T is not None:
                T[touch] ^= F.vmul(fac[touch, None], T[r][None, :])
        pivots.append(c)
        r += 1
    return R, pivots, T


def rank(F: FieldCtx, A: np.ndarray) -> int:
    return len(rref(F, A)[1])


def kernel(F: FieldCtx, A: np.ndarray) -> np.ndarray:
    """Right null space: rows of the result v satisfy A v = 0."""
    rows, cols = A.shape
    if F.m == 1 and A.size >= 1 << 16:
        return _kernel_gf2_packed(A)
    R, pivots, _ = rref(F, A)
    free = [c for c in range(cols) if c not in pivots]
    basis = zeros(len(free), cols)
    for i, fc in enumerate(free):
        basis[i, fc] = 1
        for r, pc in enumerate(pivots):
            basis[i, pc] = int(R[r, fc])  # char 2: -x = x
    return basis


def reverse_rref(F: FieldCtx, A: np.ndarray) -> np.ndarray:
    """The basis of A's row space in the form `kernel` returns: each row
    has 1 at its own last nonzero column and 0 at the others' last columns,
    in increasing order of that column (an rref over reversed columns)."""
    R, pivots, _ = rref(F, np.asarray(A)[:, ::-1])
    return R[: len(pivots)][::-1, ::-1].copy()


def _kernel_gf2_packed(A: np.ndarray) -> np.ndarray:
    """GF(2) null space with rows packed into Python ints (fast path)."""
    packed = np.packbits((A & 1).astype(np.uint8), axis=1, bitorder="little")
    rows = (int.from_bytes(packed[i].tobytes(), "little") for i in range(A.shape[0]))
    return kernel_gf2_stream(rows, A.shape[1])


def kernel_gf2_stream(row_ints, cols: int) -> np.ndarray:
    """GF(2) null space from an iterable of bit-packed constraint rows.

    Never materializes a dense matrix, so callers can stream very wide
    systems (e.g. equivariance constraints on large modules).
    """
    piv: dict[int, int] = {}
    for cur in row_ints:
        cur = int(cur)
        while cur:
            c = (cur & -cur).bit_length() - 1
            if c in piv:
                cur ^= piv[c]
            else:
                piv[c] = cur
                break
    # back-reduce to rref
    for c in sorted(piv, reverse=True):
        row = piv[c]
        x = row & ~(1 << c)
        while x:
            lb = x & -x
            c2 = lb.bit_length() - 1
            if c2 in piv:
                row ^= piv[c2]
            x ^= lb
        piv[c] = row
    free = [c for c in range(cols) if c not in piv]
    basis = zeros(len(free), cols)
    for i, fc in enumerate(free):
        basis[i, fc] = 1
        for pc, prow in piv.items():
            if prow >> fc & 1:
                basis[i, pc] = 1
    return basis


def solve(
    F: FieldCtx, A: np.ndarray, b: np.ndarray, certificate: bool = False
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Solve A x = b.  Returns (x, None) or (None, y) with yA=0, y.b != 0.

    The inconsistency certificate y is only computed when requested (it
    needs the full row transform, which is expensive for tall systems).
    """
    b = np.asarray(b, dtype=np.int64).ravel()
    n = A.shape[1]
    if certificate:
        R, pivots, T = rref(F, A, record_transform=True)
        tb = mat_vec(F, T, b)
        for r in range(len(pivots), A.shape[0]):
            if tb[r] != 0:
                return None, T[r]
        x = zeros(1, n).ravel()
        for r, c in enumerate(pivots):
            x[c] = int(tb[r])
        return x, None
    aug = np.concatenate([A, b.reshape(-1, 1)], axis=1)
    R, pivots, _ = rref(F, aug)
    if pivots and pivots[-1] == n:
        return None, None
    x = zeros(1, n).ravel()
    for r, c in enumerate(pivots):
        x[c] = int(R[r, n])
    return x, None


def inverse(F: FieldCtx, A: np.ndarray) -> np.ndarray:
    n = A.shape[0]
    if A.shape[1] != n:
        raise ValueError("inverse of non-square matrix")
    aug = np.concatenate([A, eye(n)], axis=1)
    R, pivots, _ = rref(F, aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return R[:, n:]


def is_invertible(F: FieldCtx, A: np.ndarray) -> bool:
    return A.shape[0] == A.shape[1] and rank(F, A) == A.shape[0]


def is_nilpotent(F: FieldCtx, A: np.ndarray) -> bool:
    n = A.shape[0]
    P = A
    k = 1
    while k < max(n, 2):
        if not P.any():
            return True
        P = mat_mul(F, P, P)
        k <<= 1
    return not P.any()


def min_poly(F: FieldCtx, A: np.ndarray, coords=None) -> list[int]:
    """Monic minimal polynomial (coefficient list, index = power): the lcm
    of the unit vectors' local polynomials under A.  With ``coords``, A's
    minimal polynomial in the unital algebra that ``coords`` maps onto
    coordinates (a quotient, say): as p(L_A) 1 = p(A), that is the local
    polynomial of the identity, from the one sequence coords(A^j)."""
    from . import polys

    if coords is not None:
        powers = _orbit(lambda P: mat_mul(F, A, P), eye(A.shape[0]))
        return _first_dependency(F, map(coords, powers))
    n = A.shape[0]
    mu = [1]
    for v in eye(n):
        local = _first_dependency(F, _orbit(lambda u: mat_vec(F, A, u), v))
        mu = polys.lcm(F, mu, local)
        if polys.deg(mu) == n:
            break
    return mu


def _orbit(step, v):
    """v, step(v), step(step(v)), ... without end."""
    while True:
        yield v
        v = step(v)


def _first_dependency(F: FieldCtx, vectors) -> list[int]:
    """The monic c with sum_j c_j v_j = 0 of least degree, for the first
    vectors v_0, v_1, ... of a sequence of length-n vectors.  Each v_j
    carries a unit at trailing column j, so the first one that reduces to
    zero spells the relation out; n + 1 vectors are always dependent."""
    for j, v in enumerate(vectors):
        n = v.size
        if j == 0:
            ech = Echelon(F, n)
        w = zeros(1, 2 * n + 1).ravel()
        w[:n] = v
        w[n + j] = 1
        w = ech.reduce(w)
        if not ech.append(w):
            return [int(c) for c in w[n : n + j + 1]]


class Subspace:
    """Row-space with canonical rref basis and its pivot columns."""

    def __init__(self, F: FieldCtx, ambient: int, vectors: np.ndarray | None):
        self.F = F
        self.ambient = ambient
        if vectors is None or np.asarray(vectors).size == 0:
            self.basis = zeros(0, ambient)
            self.pivots: list[int] = []
        else:
            vv = np.asarray(vectors, dtype=np.int64).reshape(-1, ambient)
            R, self.pivots, _ = rref(F, vv)
            self.basis = R[: len(self.pivots)]

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def contains(self, v: np.ndarray) -> bool:
        return not reduce_mod(self.F, self, v).any()

    def contains_space(self, other: "Subspace") -> bool:
        return all(self.contains(r) for r in other.basis)

    def add(self, other: "Subspace") -> "Subspace":
        return Subspace(
            self.F, self.ambient, np.concatenate([self.basis, other.basis], axis=0)
        )

    def intersect(self, other: "Subspace") -> "Subspace":
        # Zassenhaus block trick
        F, n = self.F, self.ambient
        U, W = self.basis, other.basis
        if U.shape[0] == 0 or W.shape[0] == 0:
            return Subspace(F, n, None)
        top = np.concatenate([U, U], axis=1)
        bot = np.concatenate([W, zeros(W.shape[0], n)], axis=1)
        R, pivots, _ = rref(F, np.concatenate([top, bot], axis=0))
        rows = []
        for r, c in enumerate(pivots):
            if c >= n:
                rows.append(R[r, n:])
        # also rows beyond pivot count are zero; rows with pivot in right half
        return Subspace(F, n, np.array(rows) if rows else None)

    def complement_basis(self) -> np.ndarray:
        """Unit vectors, in index order, completing the basis to the full
        ambient space."""
        ech = Echelon(self.F, self.ambient)
        for row in self.basis:
            ech.append(row)  # rref rows are already reduced
        out = [e for e in eye(self.ambient) if ech.insert(e)]
        return np.array(out) if out else zeros(0, self.ambient)

    def coords(self, v: np.ndarray) -> np.ndarray:
        """Coordinates of v in the canonical basis (v must lie in the space)."""
        if not self.contains(v):
            raise ValueError("vector not in subspace")
        return np.asarray(v, dtype=np.int64).ravel()[self.pivots]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.basis.shape == other.basis.shape
            and bool((self.basis == other.basis).all())
        )

    def __hash__(self):
        return hash((self.ambient, self.basis.tobytes()))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


class Echelon:
    """Incrementally maintained row-echelon basis with unit pivots.

    Pivots are chosen among the first ``ambient`` columns only, so rows may
    carry trailing columns (e.g. coordinates) that are reduced along with
    them but never pivot.
    """

    def __init__(self, F: FieldCtx, ambient: int):
        self.F = F
        self.ambient = ambient
        self.rows: list[np.ndarray] = []
        self.pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, v: np.ndarray) -> np.ndarray:
        """A fresh copy of v with every pivot column cleared."""
        F = self.F
        w = np.array(v, dtype=np.int64).ravel()
        for row, p in zip(self.rows, self.pivots):
            c = w[p]
            if c:  # unit coefficients (all of them over GF(2)) need no scaling
                w ^= row if c == 1 else F.vscale(int(c), row)
        return w

    def append(self, w: np.ndarray) -> bool:
        """Add an already-reduced row; False, changing nothing, when it is
        zero in the ambient columns."""
        nz = np.nonzero(w[: self.ambient])[0]
        if nz.size == 0:
            return False
        p = int(nz[0])
        self.rows.append(self.F.vscale(self.F.inv(int(w[p])), w))
        self.pivots.append(p)
        return True

    def contains(self, v: np.ndarray) -> bool:
        return not self.reduce(v).any()

    def insert(self, v: np.ndarray) -> bool:
        """Add v to the span; returns True when the dimension grew."""
        return self.append(self.reduce(v))


def reduce_mod(F: FieldCtx, S: Subspace, vecs: np.ndarray) -> np.ndarray:
    """Canonical representatives of the given row vectors modulo S."""
    vecs = np.atleast_2d(np.asarray(vecs, dtype=np.int64))
    if S.dim == 0:
        return vecs.copy()
    return vecs ^ mat_mul(F, vecs[:, S.pivots], S.basis)


def free_columns(S: Subspace) -> list[int]:
    """The non-pivot columns of S's rref basis, in increasing order."""
    pivots = set(S.pivots)
    return [i for i in range(S.ambient) if i not in pivots]


def pivot_complement(S: Subspace) -> np.ndarray:
    """Unit vectors at the non-pivot columns of S's rref basis.

    The canonical-representative map v -> v mod S lands exactly in the span
    of these vectors, so they are the right complement for quotient
    coordinates.
    """
    return eye(S.ambient)[free_columns(S)]


def full_space(F: FieldCtx, n: int) -> Subspace:
    return Subspace(F, n, eye(n))


def col_space(F: FieldCtx, A: np.ndarray) -> Subspace:
    return Subspace(F, A.shape[0], A.T)


def kron(F: FieldCtx, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kronecker product with field multiplication."""
    a0, a1 = A.shape
    b0, b1 = B.shape
    out = F.vmul(A[:, None, :, None], B[None, :, None, :])
    return out.reshape(a0 * b0, a1 * b1)
