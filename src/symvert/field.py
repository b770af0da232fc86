"""Exact arithmetic in GF(2^m).

Field elements are plain Python ints in ``range(2**m)``: bit ``i`` is the
coefficient of ``x**i`` in the polynomial basis.  All arithmetic goes through
a :class:`FieldCtx`, which fixes a deterministic irreducible modulus per
degree so serialized data is portable.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

MAX_DEGREE = 16  # larger degrees only build ever larger tables and plans


def _poly_mulmod_gf2(a: int, b: int, modulus: int, m: int) -> int:
    """Carry-less multiply of bit-polynomials a, b reduced mod modulus."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> m & 1:
            a ^= modulus
    return r


def _is_irreducible_gf2(poly: int, m: int) -> bool:
    """Rabin test for a degree-m bit-polynomial over the 2-element field."""
    x = 0b10 ^ poly if m == 1 else 0b10  # x reduced mod poly

    def xpow2k(k: int) -> int:
        t = x
        for _ in range(k):
            t = _poly_mulmod_gf2(t, t, poly, m)
        return t

    if xpow2k(m) != x:
        return False
    for p in _prime_factors(m):
        t = xpow2k(m // p)
        if _poly_gcd(poly, t ^ x) != 1:
            return False
    return True


def _prime_factors(n: int) -> set[int]:
    """The distinct prime factors of n, by trial division."""
    primes = set()
    d = 2
    while d * d <= n:
        if n % d == 0:
            primes.add(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        primes.add(n)
    return primes


def _poly_gcd(a: int, b: int) -> int:
    while b:
        while a.bit_length() >= b.bit_length() and a:
            a ^= b << (a.bit_length() - b.bit_length())
        a, b = b, a
    return a


def default_modulus(m: int) -> int:
    """Smallest (as an integer) irreducible degree-m modulus over GF(2)."""
    if m == 1:
        return 0b11  # x + 1
    for low in range(1, 1 << m, 2):  # constant term must be 1
        cand = (1 << m) | low
        if _is_irreducible_gf2(cand, m):
            return cand
    raise AssertionError("no irreducible polynomial found")


class FieldCtx:
    """Arithmetic context for GF(2^m) with log/exp tables.

    Immutable after construction; safe to share.
    """

    def __init__(self, m: int):
        if not 1 <= m <= MAX_DEGREE:
            raise ValueError(f"field degree must be between 1 and {MAX_DEGREE}")
        self.m = m
        self.q = 1 << m
        self.modulus = default_modulus(m)
        # discrete log tables over a generator of the multiplicative group
        exp = np.zeros(2 * self.q, dtype=np.int64)
        log = np.zeros(self.q, dtype=np.int64)
        g = self._find_generator()
        t = 1
        for i in range(self.q - 1):
            exp[i] = t
            log[t] = i
            t = _poly_mulmod_gf2(t, g, self.modulus, m)
        exp[self.q - 1 : 2 * (self.q - 1)] = exp[: self.q - 1]
        self._exp = exp
        self._log = log
        # the scalar ops read Python lists: indexing a numpy array one
        # element at a time costs more than the product itself.  Two periods
        # of exp, sharing their ints, so a sum of two logs needs no mod
        self._exps = exp[: self.q - 1].tolist() * 2
        self._logs = log.tolist()
        # full multiplication table (q x q); q <= 256 in practice
        if self.q <= 256:
            idx = np.arange(self.q)
            self.mul_table = self._mul_via_logs(
                np.repeat(idx, self.q), np.tile(idx, self.q)
            ).reshape(self.q, self.q)
        else:
            self.mul_table = None
        # x^t mod the modulus for t < 2m-1, folding bit-plane products back
        masks = []
        t = 1
        for _ in range(2 * m - 1):
            masks.append(t)
            t <<= 1
            if t >> m & 1:
                t ^= self.modulus
        self.red_masks = masks
        # bit-sliced mat_mul plans (h, s, chunk, spread, group spreads): with
        # B's bit planes taken h at a time, a float64 product has m + h - 1
        # fields of s bits, each counting at most chunk * min(m, h) bit
        # products, so all partial sums stay below 2^53.  spread[a] puts bit i
        # of a at bit s*i; a group spread does so for bits g..g+h-1 of b only
        self.mat_mul_plans = []
        elems, bits = np.arange(self.q), np.arange(m)
        for h in range(m, 0, -1):
            s = 53 // (m + h - 1)
            chunk = ((1 << s) - 1) // min(m, h)
            if chunk:
                spread = ((elems[:, None] >> bits & 1) * 2.0 ** (s * bits)).sum(1)
                groups = [spread[elems >> g & (1 << h) - 1] for g in range(0, m, h)]
                self.mat_mul_plans.append((h, s, chunk, spread, groups))

    def _find_generator(self) -> int:
        order = self.q - 1
        factors = _prime_factors(order)
        for g in range(2, self.q):
            if all(self._powmod(g, order // p) != 1 for p in factors):
                return g
        return 1  # q = 2

    def _powmod(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = _poly_mulmod_gf2(r, a, self.modulus, self.m)
            a = _poly_mulmod_gf2(a, a, self.modulus, self.m)
            e >>= 1
        return r

    def _mul_via_logs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]
        return np.where((a == 0) | (b == 0), 0, out)

    # -- scalar ops -------------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exps[self._logs[a] + self._logs[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._exps[-self._logs[a] % (self.q - 1)]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            return 0 if e else 1
        return self._exps[self._logs[a] * e % (self.q - 1)]

    # -- vectorized ops on int64 arrays ----------------------------------

    def vmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise product of broadcastable arrays of field elements."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.mul_table is not None:
            return self.mul_table[a, b]
        return self._mul_via_logs(a, b)  # broadcasts a and b on its own

    def vscale(self, c: int, a: np.ndarray) -> np.ndarray:
        if c == 0:
            return np.zeros_like(np.asarray(a, dtype=np.int64))
        if c == 1:
            return np.asarray(a, dtype=np.int64).copy()
        return self.vmul(np.int64(c), a)

    def elements(self) -> range:
        return range(self.q)

    # -- serialization ----------------------------------------------------

    @staticmethod
    def elem_to_hex(a: int) -> str:
        return format(a, "x")

    @staticmethod
    def elem_from_hex(s: str) -> int:
        return int(s, 16)

    def __repr__(self) -> str:
        return f"FieldCtx(m={self.m}, modulus={bin(self.modulus)})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldCtx)
            and self.m == other.m
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.m, self.modulus))


@lru_cache(maxsize=None)
def make_field(m: int) -> FieldCtx:
    """Field context with the fixed deterministic modulus for degree m."""
    return FieldCtx(m)


def splitting_degree(group) -> int:
    """The least m for which GF(2^m) splits the group algebra: the order of
    x -> x^2 on the 2-regular classes.  The irreducibles S over GF(q) match
    the orbits of x -> x^q on those classes (`rep.simple_module_count`),
    and S splits over the closure into dim End(S) conjugates (End(S) is a
    finite field, so its Schur index is 1): so GF(q) splits exactly when
    x -> x^q fixes every 2-regular class, GF(2^m) when this order divides m."""
    classes = group.conjugacy_classes()
    square = [group.class_of(group.power(c.rep, 2)) if c.is_2regular else i
              for i, c in enumerate(classes)]
    m, power = 1, square  # power[i]: the class of x^(2^m), x in class i
    while power != list(range(len(classes))):
        m, power = m + 1, [square[j] for j in power]
    return m
