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
    """Matrix product, by one of three exact routes; each returns int64.

    A product of at most `small_product_macs(F.m)` multiply-adds (a*k*b):
    4096 over GF(2) and 1024*m over GF(2^m) for 2 <= m <= 8, the crossover
    measured on a 2-core Xeon with one BLAS thread, takes `_mat_mul_small`
    with no floating point and no BLAS call: over GF(2), numpy's integer
    product mod 2; over GF(2^m), one gather from ``F.mul_table`` and an
    XOR reduction.  Every other product, and every product for m > 8 (no
    table), takes `_mat_mul_blas`: over GF(2) one float BLAS product mod
    2, over GF(2^m) bit-sliced exact float64 BLAS products."""
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    if A.shape[0] * A.shape[1] * B.shape[1] <= small_product_macs(F.m):
        return _mat_mul_small(F, A, B)
    return _mat_mul_blas(F, A, B)


def small_product_macs(m: int) -> int:
    """The crossover of `mat_mul` over GF(2^m), in multiply-adds: 4096 at
    GF(2), 1024*m for 2 <= m <= 8, and -1 above, where no product takes
    the small route (there is no ``mul_table``).  Measured on a 2-core
    Xeon with one BLAS thread, per call, on cubic and one-column shapes of
    512 to 32768 multiply-adds: the small route stops winning near 4096 at
    m = 1, 2048 at m = 2, 4096 at m = 3 and 4, 8192 at m = 5 and 6, and
    16384 at m = 8, as the bit-sliced cost grows with the planes; the
    rule stays at or below each."""
    if m == 1:
        return 4096
    return 1024 * m if m <= 8 else -1


def _mat_mul_small(F: FieldCtx, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Products with few multiply-adds.  GF(2): the int64 product mod 2,
    exact while k < 2^63.  GF(2^m): C[i, j] = XOR over t of
    mul_table[A[i, t], B[t, j]], one a x k x b gather."""
    if F.m == 1:
        return (A @ B) & 1
    if A.shape[1] != B.shape[0]:  # the gather would broadcast a length 1
        raise ValueError(f"mat_mul: shapes {A.shape} and {B.shape} do not match")
    return np.bitwise_xor.reduce(F.mul_table[A[:, :, None], B], axis=1)


def _mat_mul_blas(F: FieldCtx, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Products through BLAS.  GF(2): one float BLAS product mod 2, as numpy
    has no integer BLAS; sums of k products of 0/1 are exact in float32
    while k < 2^24, and in float64 beyond.  GF(2^m): bit-sliced onto exact
    float64 BLAS products (after Albrecht's M4RIE).  Bit i of each element
    sits at bit s*i, so a product of A with a group of B's bit planes counts
    each carry-less plane t in its own s-bit field, whose low bit is that
    plane's parity; ``red_masks`` folds the 2m-1 parities back.
    ``FieldCtx.mat_mul_plans`` sizes the inner chunks so that every partial
    sum stays below 2^53; the plan with the fewest products wins."""
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


def rref(F: FieldCtx, A: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form R of A and its pivot columns: the library's
    one batch elimination (`Echelon` is the incremental one).  The rows of
    R past the pivots are zero."""
    R = np.array(A, dtype=np.int64, copy=True)
    rows, cols = R.shape
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
        pv = int(R[r, c])
        if pv != 1:
            R[r] = F.vscale(F.inv(pv), R[r])
        fac = R[:, c].copy()
        fac[r] = 0
        touch = np.nonzero(fac)[0]
        if touch.size:
            R[touch] ^= F.vmul(fac[touch, None], R[r][None, :])
        pivots.append(c)
        r += 1
    return R, pivots


def rank(F: FieldCtx, A: np.ndarray) -> int:
    return len(rref(F, A)[1])


def kernel(F: FieldCtx, A: np.ndarray) -> np.ndarray:
    """Right null space: rows of the result v satisfy A v = 0."""
    if F.m == 1 and A.size >= 1 << 16:
        return _kernel_gf2_packed(A)
    return _kernel_from_rref(*rref(F, A), A.shape[1])


def _kernel_from_rref(R: np.ndarray, pivots: list[int], cols: int) -> np.ndarray:
    """The null space basis read off a reduced echelon form: one row per
    free column f, with 1 at f and R[i, f] at the i-th pivot (char 2:
    -x = x), in increasing order of f."""
    is_free = np.ones(cols, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    basis = zeros(len(free), cols)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = R[: len(pivots)][:, free].T
    return basis


def reverse_rref(F: FieldCtx, A: np.ndarray) -> np.ndarray:
    """The basis of A's row space in the form `kernel` returns: each row
    has 1 at its own last nonzero column and 0 at the others' last columns,
    in increasing order of that column (an rref over reversed columns)."""
    R, pivots = rref(F, np.asarray(A)[:, ::-1])
    return R[: len(pivots)][::-1, ::-1].copy()


def _kernel_gf2_packed(A: np.ndarray) -> np.ndarray:
    """GF(2) null space with rows packed into Python ints (fast path)."""
    packed = np.packbits((A & 1).astype(np.uint8), axis=1, bitorder="little")
    rows = (int.from_bytes(packed[i].tobytes(), "little") for i in range(A.shape[0]))
    return kernel_gf2_stream(rows, A.shape[1])


def kernel_gf2_stream(row_ints, cols: int) -> np.ndarray:
    """GF(2) null space from an iterable of bit-packed constraint rows, the
    same basis `kernel` returns.

    Never materializes a dense matrix of the constraints, so callers can
    stream very wide systems (e.g. equivariance constraints on large
    modules); only the reduced pivot rows are unpacked.
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
    pivots = sorted(piv)
    for c in reversed(pivots):
        row = piv[c]
        x = row & ~(1 << c)
        while x:
            lb = x & -x
            c2 = lb.bit_length() - 1
            if c2 in piv:
                row ^= piv[c2]
            x ^= lb
        piv[c] = row
    nbytes = (cols + 7) // 8
    packed = b"".join(piv[c].to_bytes(nbytes, "little") for c in pivots)
    R = np.unpackbits(
        np.frombuffer(packed, dtype=np.uint8).reshape(len(pivots), nbytes),
        axis=1, count=cols, bitorder="little",
    )
    return _kernel_from_rref(R, pivots, cols)


def solve(
    F: FieldCtx, A: np.ndarray, b: np.ndarray, certificate: bool = False
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Solve A x = b.  Returns (x, None), or (None, y) when b is not in A's
    column space: y is None unless a certificate is asked for, and then the
    first row of the left kernel with y.b != 0, so yA = 0 (Fredholm: such
    a row exists exactly when the system is inconsistent)."""
    b = np.asarray(b, dtype=np.int64).ravel()
    n = A.shape[1]
    R, pivots = rref(F, np.concatenate([A, b.reshape(-1, 1)], axis=1))
    if pivots and pivots[-1] == n:
        if not certificate:
            return None, None
        Y = kernel(F, A.T)
        return None, Y[np.flatnonzero(mat_vec(F, Y, b))[0]]
    x = zeros(1, n).ravel()
    x[pivots] = R[: len(pivots), n]
    return x, None


def inverse(F: FieldCtx, A: np.ndarray) -> np.ndarray:
    n = A.shape[0]
    if A.shape[1] != n:
        raise ValueError("inverse of non-square matrix")
    R, pivots = rref(F, np.concatenate([A, eye(n)], axis=1))
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
            R, self.pivots = rref(F, vv)
            self.basis = R[: len(self.pivots)]

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def contains(self, v: np.ndarray) -> bool:
        return not reduce_mod(self.F, self, v).any()

    def add(self, other: "Subspace") -> "Subspace":
        return Subspace(
            self.F, self.ambient, np.concatenate([self.basis, other.basis], axis=0)
        )

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


def col_space(F: FieldCtx, A: np.ndarray) -> Subspace:
    return Subspace(F, A.shape[0], A.T)


def kron(F: FieldCtx, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kronecker product with field multiplication."""
    a0, a1 = A.shape
    b0, b1 = B.shape
    out = F.vmul(A[:, None, :, None], B[None, :, None, :])
    return out.reshape(a0 * b0, a1 * b1)
