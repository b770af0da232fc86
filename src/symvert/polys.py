"""Univariate polynomial arithmetic over a FieldCtx.

Polynomials are lists of field elements indexed by power, with no trailing
zeros (the zero polynomial is the empty list).  `factor` returns the
distinct irreducible factors, all that splitting a commutative algebra in
characteristic 2 needs: distinct-degree factorization, then a
deterministic equal-degree split by the trace to GF(2).
"""

from __future__ import annotations

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


def pow_mod(F: FieldCtx, a: Poly, e: int, m: Poly) -> Poly:
    r = [1]
    a = mod(F, a, m)
    while e:
        if e & 1:
            r = mod(F, mul(F, r, a), m)
        a = mod(F, mul(F, a, a), m)
        e >>= 1
    return r


def factor(F: FieldCtx, p: Poly) -> list[Poly]:
    """The distinct monic irreducible factors of p, sorted by (degree,
    coefficients).

    Distinct-degree on p itself: the step-d gcd g is the product of the
    degree-d factors, stripped out of rest with all their powers, so every
    factor left has degree > d and rest is irreducible once 2d > deg rest.
    """
    x = [0, 1]
    h = list(x)
    d = 0
    rest = monic(F, p)
    out: list[Poly] = []
    while deg(rest) > 0:
        d += 1
        if 2 * d > deg(rest):
            out.append(rest)
            break
        h = pow_mod(F, h, F.q, rest)
        g = gcd(F, add(F, h, x), rest)
        if deg(g) > 0:
            out.extend(_equal_degree_split(F, g, d))
            while deg(g) > 0:
                rest = divmod_(F, rest, g)[0]
                g = gcd(F, rest, g)
            h = mod(F, h, rest)
    return sorted(out, key=lambda f: (deg(f), f))


def _equal_degree_split(F: FieldCtx, g: Poly, d: int) -> list[Poly]:
    """The factors of a squarefree monic g whose r irreducible factors all
    have degree d, by the trace to GF(2): modulo g, T(h) = h + h^2 + ... +
    h^(2^(md-1)) is 0 or 1 on each factor, and gcd(T(h), g) splits g when
    it is neither on all of them.  T maps the GF(2)-basis c x^j (c = 2^k,
    j < deg g) onto GF(2)^r, and a constant has the same trace on every
    factor, so some c x^j with j >= 1 splits g when r > 1."""
    n = deg(g)
    if n == d:
        return [g]
    for j in range(1, n):
        for k in range(F.m):
            t = [0] * j + [1 << k]
            acc = list(t)
            for _ in range(F.m * d - 1):
                t = mod(F, mul(F, t, t), g)
                acc = add(F, acc, t)
            f = gcd(F, acc, g)
            if 0 < deg(f) < n:
                q = divmod_(F, g, f)[0]
                return _equal_degree_split(F, f, d) + _equal_degree_split(F, q, d)
    raise AssertionError("no trace splits the equal-degree product")
