"""Univariate polynomial arithmetic over a FieldCtx.

Polynomials are lists of field elements indexed by power, with no trailing
zeros (the zero polynomial is the empty list).  Includes the factorization
pipeline needed to split commutative algebras in characteristic 2:
squarefree decomposition, distinct-degree and equal-degree factorization.
"""

from __future__ import annotations

import random

from .field import FieldCtx

Poly = list


def trim(p: Poly) -> Poly:
    while p and p[-1] == 0:
        p.pop()
    return p


def deg(p: Poly) -> int:
    return len(p) - 1


def add(F: FieldCtx, a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] ^= c
    for i, c in enumerate(b):
        out[i] ^= c
    return trim(out)


def scale(F: FieldCtx, c: int, a: Poly) -> Poly:
    if c == 0:
        return []
    return [F.mul(c, x) for x in a]


def mul(F: FieldCtx, a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] ^= F.mul(x, y)
    return trim(out)


def divmod_(F: FieldCtx, a: Poly, b: Poly) -> tuple[Poly, Poly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    inv_lead = F.inv(b[-1])
    while len(r) >= len(b):
        c = F.mul(r[-1], inv_lead)
        s = len(r) - len(b)
        q[s] = c
        for i, y in enumerate(b):
            r[s + i] ^= F.mul(c, y)
        trim(r)
        if not r:
            break
    return trim(q), r


def mod(F: FieldCtx, a: Poly, b: Poly) -> Poly:
    return divmod_(F, a, b)[1]


def monic(F: FieldCtx, a: Poly) -> Poly:
    if not a or a[-1] == 1:
        return list(a)
    return scale(F, F.inv(a[-1]), a)


def gcd(F: FieldCtx, a: Poly, b: Poly) -> Poly:
    a, b = list(a), list(b)
    while b:
        a, b = b, mod(F, a, b)
    return monic(F, a)


def lcm(F: FieldCtx, a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return []
    g = gcd(F, a, b)
    q, _ = divmod_(F, mul(F, a, b), g)
    return monic(F, q)


def inverse_mod(F: FieldCtx, a: Poly, m: Poly) -> Poly:
    """The inverse of a modulo m (extended Euclid); a and m must be coprime."""
    r0, r1 = list(m), mod(F, a, m)
    s0, s1 = [], [1]
    while r1:
        q, r2 = divmod_(F, r0, r1)
        r0, r1 = r1, r2
        s0, s1 = s1, add(F, s0, mul(F, q, s1))
    if deg(r0) != 0:
        raise ValueError("not coprime")
    return scale(F, F.inv(r0[0]), mod(F, s0, m))


def crt_idempotents(F: FieldCtx, fac: list[tuple[Poly, int]]) -> list[Poly]:
    """Chinese-remainder idempotents of a factorization [(p_i, m_i), ...].

    u_i is 1 modulo p_i^m_i and 0 modulo every other primary factor,
    reduced modulo the product of all of them, so the u_i sum to 1.
    """
    primary = []
    for p, m in fac:
        q = [1]
        for _ in range(m):
            q = mul(F, q, p)
        primary.append(q)
    total = [1]
    for q in primary:
        total = mul(F, total, q)
    out = []
    for q in primary:
        rest = divmod_(F, total, q)[0]
        out.append(mod(F, mul(F, rest, inverse_mod(F, rest, q)), total))
    return out


def pow_mod(F: FieldCtx, a: Poly, e: int, m: Poly) -> Poly:
    r = [1]
    a = mod(F, a, m)
    while e:
        if e & 1:
            r = mod(F, mul(F, r, a), m)
        a = mod(F, mul(F, a, a), m)
        e >>= 1
    return r


def eval_matrix(F, p: Poly, A):
    """p(A) for a square matrix A (Horner)."""
    from . import linalg

    n = A.shape[0]
    acc = linalg.zeros(n, n)
    for c in reversed(p):
        acc = linalg.mat_mul(F, acc, A)
        if c:
            acc = acc ^ (c * linalg.eye(n))
    return acc


def derivative(F: FieldCtx, p: Poly) -> Poly:
    # characteristic 2: even-power terms vanish
    out = [0] * max(len(p) - 1, 0)
    for i in range(1, len(p)):
        if i & 1:
            out[i - 1] = p[i]
    return trim(out)


def _sqrt_poly(F: FieldCtx, p: Poly) -> Poly:
    """For p with only even-power terms, the q with q^2 = p."""
    out = [0] * ((len(p) + 1) // 2)
    for i in range(0, len(p), 2):
        out[i // 2] = F.sqrt(p[i])
    return trim(out)


def factor(F: FieldCtx, p: Poly) -> list[tuple[Poly, int]]:
    """Full factorization into (monic irreducible, multiplicity) pairs,
    sorted: the random splits change no answer."""
    p = monic(F, p)
    out: dict[tuple, int] = {}
    _factor_rec(F, p, 1, out, random.Random(0))
    return sorted(
        ([list(k), e] for k, e in out.items()), key=lambda t: (deg(t[0]), t[0])
    )


def _factor_rec(F, p: Poly, mult: int, out: dict, rng) -> None:
    if deg(p) == 0:
        return
    dp = derivative(F, p)
    if not dp:
        _factor_rec(F, _sqrt_poly(F, p), 2 * mult, out, rng)
        return
    g = gcd(F, p, dp)
    sqfree, _ = divmod_(F, p, g)
    for irr in _factor_squarefree(F, monic(F, sqfree), rng):
        key = tuple(irr)
        out[key] = out.get(key, 0) + mult
        # strip this factor fully out of g so recursion sees the rest
    if deg(g) > 0:
        _factor_rec(F, g, mult, out, rng)


def _factor_squarefree(F: FieldCtx, p: Poly, rng) -> list[Poly]:
    """Distinct-degree then equal-degree split of a squarefree monic p."""
    factors: list[Poly] = []
    x = [0, 1]
    h = list(x)
    d = 0
    rest = list(p)
    while deg(rest) > 0:
        d += 1
        if 2 * d > deg(rest):
            factors.append(rest)
            break
        h = pow_mod(F, h, F.q, rest)
        g = gcd(F, add(F, h, x), rest)
        if deg(g) > 0:
            factors.extend(_equal_degree_split(F, g, d, rng))
            rest, _ = divmod_(F, rest, g)
            h = mod(F, h, rest)
    return factors


def _equal_degree_split(F: FieldCtx, p: Poly, d: int, rng) -> list[Poly]:
    """Cantor–Zassenhaus in characteristic 2 via the trace map."""
    if deg(p) == d:
        return [p]
    n = deg(p)
    while True:
        h = [rng.randrange(F.q) for _ in range(n)]
        trim(h)
        if deg(h) < 1:
            continue
        # T(h) = h + h^2 + h^4 + ... + h^(2^(m*d - 1)) mod p
        t = list(h)
        acc = list(h)
        for _ in range(F.m * d - 1):
            t = mod(F, mul(F, t, t), p)
            acc = add(F, acc, t)
        g = gcd(F, acc, p)
        if 0 < deg(g) < deg(p):
            q, _ = divmod_(F, p, g)
            return _equal_degree_split(F, g, d, rng) + _equal_degree_split(
                F, monic(F, q), d, rng
            )
