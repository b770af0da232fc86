"""Exact linear algebra over GF(2^m)."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symvert import linalg, polys
from symvert.field import make_field

from conftest import rref_dense_reference

F2 = make_field(1)
F4 = make_field(2)


def matrices(F, rows, cols):
    return st.lists(
        st.lists(st.integers(0, F.q - 1), min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    ).map(lambda m: np.array(m, dtype=np.int64))


@given(matrices(F4, 3, 3), matrices(F4, 3, 3), matrices(F4, 3, 3))
def test_mat_mul_associative_distributive(A, B, C):
    assert (
        linalg.mat_mul(F4, linalg.mat_mul(F4, A, B), C)
        == linalg.mat_mul(F4, A, linalg.mat_mul(F4, B, C))
    ).all()
    assert (
        linalg.mat_mul(F4, A, B ^ C)
        == linalg.mat_mul(F4, A, B) ^ linalg.mat_mul(F4, A, C)
    ).all()


def _scalar_mat_mul(F, A, B):
    C = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    for i in range(A.shape[0]):
        for j in range(B.shape[1]):
            for a, b in zip(A[i], B[:, j]):
                C[i, j] ^= F.mul(int(a), int(b))
    return C


@pytest.mark.parametrize("m", [1, 2, 3, 4, 8, 9])
def test_mat_mul_matches_scalar_reference(m):
    F = make_field(m)
    rng = np.random.default_rng(m)
    shapes = [(3, k, 4) for k in (0, 1, 2, 9)] + [(1, 9, 1), (5, 1, 1)]
    # at the small route's crossover and one multiply-add past it
    T = linalg.small_product_macs(m)
    shapes += [(1, max(T, 0), 1), (1, T + 1, 1), (T + 1, 1, 1), (4, 1, 5)]
    if T >= 256:
        shapes.append((16, T // 256, 16))
    if m > 1:
        # wider than the inner chunk of the plan with the most planes
        shapes.append((1, F.mat_mul_plans[0][2] + 1, 1))
        if m > 2:
            shapes.append((2, 2 * F.mat_mul_plans[0][2] + 3, 3))
    for r, k, c in shapes:
        # all-ones bits fill every field of the spread product
        for A, B in [
            (rng.integers(0, F.q, (r, k)), rng.integers(0, F.q, (k, c))),
            (np.full((r, k), F.q - 1), np.full((k, c), F.q - 1)),
        ]:
            got = linalg.mat_mul(F, A, B)
            assert got.shape == (r, c) and got.dtype == np.int64
            assert (got == _scalar_mat_mul(F, A, B)).all(), (r, k, c)


def test_gf2_mat_mul_float_path_is_exact():
    # the float BLAS product against the integer one it replaced
    rng = np.random.default_rng(2)
    for r, k, c in [(3, 0, 4), (1, 40, 1), (200, 7, 3), (3, 7, 200), (336, 336, 336),
                    (17, 17, 17)]:
        A, B = rng.integers(0, 2, (r, k)), rng.integers(0, 2, (k, c))
        got = linalg.mat_mul(F2, A, B)
        assert got.dtype == np.int64 and (got == (A @ B) & 1).all(), (r, k, c)
    # an odd sum of 100,001 ones keeps its parity
    k = 100_001
    got = linalg.mat_mul(F2, np.ones((2, k), np.int64), np.ones((k, 3), np.int64))
    assert (got == 1).all()


@pytest.mark.parametrize("m", [1, 2, 3, 4, 8])
def test_mat_mul_kernels_agree(m):
    # the BLAS kernel keeps coverage at the small shapes mat_mul no longer
    # sends it
    F = make_field(m)
    rng = np.random.default_rng(100 + m)
    for r, k, c in [(3, 0, 4), (1, 1, 1), (1, 40, 1), (7, 5, 1), (4, 1, 6), (8, 8, 8), (13, 9, 2)]:
        A, B = rng.integers(0, F.q, (r, k)), rng.integers(0, F.q, (k, c))
        small = linalg._mat_mul_small(F, A, B)
        blas = linalg._mat_mul_blas(F, A, B)
        assert small.dtype == blas.dtype == np.int64
        assert small.shape == blas.shape == (r, c)
        assert (small == blas).all(), (r, k, c)


@pytest.mark.parametrize("m", [1, 2, 8, 9])
def test_mat_mul_takes_one_route(m, monkeypatch):
    F = make_field(m)
    T = linalg.small_product_macs(m)
    routes = []
    for name in ("_mat_mul_small", "_mat_mul_blas"):
        orig = getattr(linalg, name)
        monkeypatch.setattr(
            linalg, name,
            lambda F, A, B, _orig=orig, _name=name: routes.append(_name) or _orig(F, A, B),
        )
    for r, k, c in [(1, max(T, 0), 1), (1, T + 1, 1), (T + 1, 1, 1), (2, 0, 3)]:
        routes.clear()
        linalg.mat_mul(F, np.ones((r, k), np.int64), np.ones((k, c), np.int64))
        want = "_mat_mul_small" if r * k * c <= T else "_mat_mul_blas"
        assert routes == [want], (r, k, c)


def test_mat_mul_small_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        linalg.mat_mul(F4, np.ones((2, 1), np.int64), np.ones((3, 2), np.int64))


def test_gf2_small_products_raise_no_warning():
    # the shapes that once raised a stray RuntimeWarning from the float32
    # product (7x5 by 5x1, and one-row by one-column) under pyproject's
    # filterwarnings = ["error"]; each against a pure-Python parity
    rng = np.random.default_rng(7)
    cases = [(7, 5, 1)] * 2000 + [(1, k, 1) for k in range(41) for _ in range(50)]
    for r, k, c in cases:
        A, B = rng.integers(0, 2, (r, k)), rng.integers(0, 2, (k, c))
        want = [
            [sum(int(a) * int(b) for a, b in zip(row, col)) & 1 for col in B.T]
            for row in A
        ]
        got = linalg.mat_mul(F2, A, B)
        assert got.dtype == np.int64 and got.tolist() == want, (r, k, c)


@pytest.mark.parametrize("seed", [0, 20240401])
@pytest.mark.parametrize("q, h", [(2, 5), (4, 3)])
def test_coefficient_vectors_draw_order(q, h, seed):
    # entry-by-entry draws from the caller's rng
    ref = random.Random(seed)
    want = [[ref.randrange(q) for _ in range(h)] for _ in range(7)]
    rng = random.Random(seed)
    got = list(linalg.coefficient_vectors(q, h, rng, 7))
    assert got == want
    assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("m", [1, 2])
def test_combine_matches_scalar_reference(m):
    F = make_field(m)
    rng = np.random.default_rng(m)
    for shape in [(3, 4), (5,)]:
        mats = list(rng.integers(0, F.q, (4,) + shape))
        coeffs = [0, 1, F.q - 1, int(rng.integers(0, F.q))]
        want = np.zeros(shape, dtype=np.int64)
        for idx in np.ndindex(*shape):
            for c, b in zip(coeffs, mats):
                want[idx] ^= F.mul(c, int(b[idx]))
        got = linalg.combine(F, np.array(coeffs), mats)
        assert got.dtype == np.int64 and (got == want).all()

@given(matrices(F2, 4, 6))
def test_rref_rank_kernel_dims(A):
    r = linalg.rank(F2, A)
    K = linalg.kernel(F2, A)
    assert r + len(K) == A.shape[1]  # rank-nullity
    if len(K):
        assert not linalg.mat_mul(F2, A, K.T).any()
        assert linalg.rank(F2, K) == len(K)


@given(matrices(F4, 4, 4), st.lists(st.integers(0, 3), min_size=4, max_size=4))
def test_solve_consistency(A, x):
    x = np.array(x, dtype=np.int64)
    b = linalg.mat_vec(F4, A, x)
    sol, _ = linalg.solve(F4, A, b)
    assert sol is not None
    assert (linalg.mat_vec(F4, A, sol) == b).all()


@given(matrices(F4, 4, 4))
def test_inverse_round_trip(A):
    if not linalg.is_invertible(F4, A):
        return
    Ai = linalg.inverse(F4, A)
    assert (linalg.mat_mul(F4, A, Ai) == linalg.eye(4)).all()
    assert (linalg.mat_mul(F4, Ai, A) == linalg.eye(4)).all()


@given(
    st.sampled_from([F2, F4]).flatmap(
        lambda F: st.tuples(st.just(F), matrices(F, 5, 5))
    )
)
def test_min_poly_annihilates(F_A):
    F, A = F_A  # over GF(4) the Krylov pivots need not be 1
    mu = linalg.min_poly(F, A)
    assert not polys.eval_matrix(F, mu, A).any()
    assert mu[-1] == 1  # monic
    # minimality: no proper divisor annihilates
    for f in polys.factor(F, mu):
        q, r = polys.divmod_(F, mu, f)
        assert r == []
        if polys.deg(q) >= 1 or q != [1]:
            if polys.eval_matrix(F, q, A).any():
                continue
            pytest.fail("min_poly not minimal")


def test_is_nilpotent():
    N = np.array([[0, 1], [0, 0]], dtype=np.int64)
    assert linalg.is_nilpotent(F2, N)
    assert not linalg.is_nilpotent(F2, linalg.eye(2))
    # unipotent is not nilpotent
    assert not linalg.is_nilpotent(F2, N ^ linalg.eye(2))


@given(matrices(F2, 3, 8))
def test_subspace_membership_and_complement(A):
    S = linalg.Subspace(F2, 8, A)
    for row in A:
        assert S.contains(row)


@given(matrices(F2, 3, 6), matrices(F2, 3, 6))
def test_subspace_sum_intersection_dims(A, B):
    S, T = linalg.Subspace(F2, 6, A), linalg.Subspace(F2, 6, B)
    U = S.add(T)
    # the sum is the span of both generating sets, in canonical form
    assert U == linalg.Subspace(F2, 6, np.vstack([A, B]))
    assert U.dim == linalg.rank(F2, np.vstack([A, B]))
    assert all(U.contains(v) for v in np.vstack([A, B]))


def test_subspace_coords():
    S = linalg.Subspace(F4, 3, np.array([[1, 2, 0], [0, 0, 1]], dtype=np.int64))
    v = np.array([2, 3, 1], dtype=np.int64)  # 2*(1,2,0) + 1*(0,0,1)
    assert S.pivots == [0, 2]
    c = S.coords(v)
    back = np.zeros(3, dtype=np.int64)
    for ci, bi in zip(c, S.basis):
        back ^= F4.vscale(int(ci), bi)
    assert (back == v).all()
    with pytest.raises(ValueError):
        S.coords(np.array([0, 1, 0], dtype=np.int64))


def test_echelon_incremental():
    E = linalg.Echelon(F2, 4)
    assert E.insert(np.array([1, 1, 0, 0]))
    assert E.insert(np.array([0, 1, 1, 0]))
    assert not E.insert(np.array([1, 0, 1, 0]))  # dependent
    assert E.dim == 2
    assert E.contains(np.array([1, 0, 1, 0]))
    assert not E.contains(np.array([0, 0, 0, 1]))
    # trailing coordinate columns are reduced along but never pivot
    C = linalg.Echelon(F4, 2)
    assert C.insert(np.array([2, 1, 1, 0]))  # pivot 2 is scaled to 1
    assert C.pivots == [0] and (C.rows[0] == [1, 3, 3, 0]).all()
    w = C.reduce(np.array([1, 3, 0, 1]))
    assert (w == [0, 0, 3, 1]).all()
    assert not C.append(w)  # dependent: only trailing entries are left
    assert C.dim == 1


def test_kernel_gf2_stream_matches_dense():
    # the streamed basis is the dense reference's, byte for byte
    rng = np.random.default_rng(5)
    shapes = [(10, 17), (1, 1), (5, 3), (3, 9), (12, 64), (7, 70)]
    cases = [rng.integers(0, 2, size=s) for s in shapes]
    cases += [
        np.zeros((4, 11), dtype=np.int64),  # zero: every column is free
        linalg.eye(9),  # full rank, square: no free column
        np.hstack([linalg.eye(6), cases[0][:6, :5]]),  # full row rank, wide
    ]
    for A in cases:
        A = A.astype(np.int64)
        dense = linalg._kernel_from_rref(*rref_dense_reference(A), A.shape[1])
        ints = [int("".join(str(b) for b in row[::-1]), 2) for row in A]
        stream = linalg.kernel_gf2_stream(iter(ints), A.shape[1])
        assert stream.dtype == dense.dtype == np.int64
        assert stream.shape == dense.shape and stream.tobytes() == dense.tobytes(), A.shape
        assert not linalg.mat_mul(F2, A, stream.T).any()


def _assert_rref_is_the_reference(A):
    R, pivots = linalg.rref(F2, A)
    R0, pivots0 = rref_dense_reference(A)
    assert pivots == pivots0
    assert R.dtype == R0.dtype == np.int64 and R.shape == R0.shape
    assert R.tobytes() == R0.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 80),
    st.integers(0, 600),
    st.floats(0, 1),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["int64", "duplicated", "reversed", "bool", "uint8"]),
)
def test_rref_gf2_matches_the_dense_reference(rows, cols, density, seed, kind):
    # widths on both sides of the 62-column bound of the one-product
    # packing; the reduced echelon form is unique, so R matches byte for byte
    A = (np.random.default_rng(seed).random((rows, cols)) < density).astype(np.int64)
    if kind == "duplicated" and rows:
        A = A[np.arange(2 * rows) % rows]
    elif kind == "reversed":
        A = A[:, ::-1]  # a view, as `reverse_rref` passes it
    elif kind in ("bool", "uint8"):
        A = A.astype(kind)
    _assert_rref_is_the_reference(A)


@pytest.mark.parametrize("cols", [0, 1, 8, 62, 63, 64, 65, 130])
def test_rref_gf2_edge_cases(cols):
    rng = np.random.default_rng(cols)
    A = rng.integers(0, 2, size=(cols + 3, cols))
    for case in (
        np.zeros((5, cols), dtype=np.int64),
        np.zeros((0, cols), dtype=np.int64),
        linalg.eye(cols),
        linalg.eye(cols)[::-1],
        np.vstack([A, A]),  # every row twice
        np.vstack([A[:1]] * 4),
        A[:, ::-1],
        A.T,
        A.astype(bool),
        A.astype(np.uint8),
    ):
        _assert_rref_is_the_reference(case)


@pytest.mark.parametrize("rows", [255, 256])
def test_kernel_takes_one_rref(rows, monkeypatch):
    # both sides of 2^16 entries: one rref call, the reference basis
    A = np.random.default_rng(rows).integers(0, 2, size=(rows, 256))
    calls = []
    rref = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda F, M: calls.append(F.m) or rref(F, M))
    K = linalg.kernel(F2, A)
    assert calls == [1]
    K0 = linalg._kernel_from_rref(*rref_dense_reference(A), 256)
    assert K.dtype == K0.dtype and K.shape == K0.shape and K.tobytes() == K0.tobytes()


def test_rref_packs_rows_over_gf2_only(monkeypatch):
    packed = []
    engine = linalg._rref_gf2_packed
    monkeypatch.setattr(
        linalg, "_rref_gf2_packed", lambda rows, cols: packed.append(cols) or engine(rows, cols)
    )
    A = np.random.default_rng(4).integers(0, 4, size=(20, 30))
    K = linalg.kernel(F4, A)
    assert packed == [] and K.shape == (10, 30)
    assert not linalg.mat_mul(F4, A, K.T).any()
    assert linalg.Subspace(F4, 30, K).dim == 10
    linalg.kernel(F2, A & 1)
    assert packed == [30]


@given(matrices(F4, 4, 7), matrices(F4, 3, 3))
def test_reverse_rref_gives_the_kernel_basis(A, T):
    K = linalg.kernel(F4, A)
    assert (linalg.reverse_rref(F4, K) == K).all()
    # any spanning set of the null space is brought to the same basis
    spanning = np.vstack([linalg.mat_mul(F4, T, K[:3]), K[::-1]])
    assert (linalg.reverse_rref(F4, spanning) == K).all()


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([F2, F4]),
    st.integers(0, 70),
    st.integers(0, 80),
    st.sampled_from(["random", "sparse", "zero", "full-rank"]),
    st.integers(0, 2**32 - 1),
)
@example(F2, 0, 0, "zero", 0)
@example(F2, 63, 0, "random", 0)  # empty
@example(F2, 62, 5, "zero", 0)
@example(F2, 64, 70, "random", 1)
@example(F4, 65, 3, "full-rank", 2)
def test_kernel_is_a_fixed_point_of_reverse_rref(F, cols, rows, kind, seed):
    # the Kronecker Hom route returns `kernel`'s basis as `reverse_rref`
    # would bring it, with no second elimination; columns cross the 62 and
    # 64 of one packed GF(2) word
    rng = np.random.default_rng(seed)
    if kind == "zero":
        A = linalg.zeros(rows, cols)
    elif kind == "full-rank":  # a trivial kernel, and an empty one to bring
        A = np.vstack([linalg.eye(cols), rng.integers(0, F.q, size=(rows, cols))])
    else:
        A = rng.integers(0, F.q, size=(rows, cols))
        if kind == "sparse":
            A *= rng.random((rows, cols)) < 0.1
    K = linalg.kernel(F, A)
    assert K.shape == (cols - linalg.rank(F, A), cols)
    assert not linalg.mat_mul(F, A, K.T).any()
    assert (linalg.reverse_rref(F, K) == K).all()


@given(matrices(F4, 2, 2), matrices(F4, 2, 2), matrices(F4, 2, 2), matrices(F4, 2, 2))
def test_kron_mixed_product(A, B, C, D):
    left = linalg.mat_mul(
        F4, linalg.kron(F4, A, B), linalg.kron(F4, C, D)
    )
    right = linalg.kron(
        F4, linalg.mat_mul(F4, A, C), linalg.mat_mul(F4, B, D)
    )
    assert (left == right).all()


def test_pivot_complement():
    S = linalg.Subspace(F2, 4, np.array([[1, 1, 0, 0], [0, 0, 1, 1]], dtype=np.int64))
    C = linalg.pivot_complement(S)
    assert C.shape == (2, 4)
    whole = linalg.Subspace(F2, 4, np.vstack([S.basis, C]))
    assert whole.dim == 4


@settings(max_examples=30)
@given(
    st.integers(0, 2**30 - 1),
    st.sampled_from([F2, F4]),
    st.sampled_from([(4, 3), (6, 2), (2, 5), (3, 3)]),
)
def test_solve_certificate_on_inconsistent_system(seed, F, shape):
    rng = np.random.default_rng(seed)
    A = rng.integers(0, F.q, size=shape).astype(np.int64)
    b = rng.integers(0, F.q, size=shape[0]).astype(np.int64)
    sol, cert = linalg.solve(F, A, b, certificate=True)
    assert (sol is None) == (linalg.solve(F, A, b)[0] is None)
    if sol is not None:
        assert (linalg.mat_vec(F, A, sol) == b).all()
        assert cert is None
    else:
        # Fredholm certificate: y A = 0 but y.b != 0
        assert cert is not None
        assert not linalg.mat_mul(F, cert.reshape(1, -1), A).any()
        assert linalg.mat_vec(F, cert.reshape(1, -1), b)[0] != 0
