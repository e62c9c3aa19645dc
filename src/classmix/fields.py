"""Arithmetic in GF(p^k) with integer-encoded elements.

An element is encoded as an integer in [0, q): the base-p digits are the
polynomial coefficients, least significant digit = constant term.  The modulus
is a monic irreducible polynomial stored as little-endian coefficients of
length k + 1.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from .errors import UnsupportedParameters

MAX_FIELD_SIZE = 2**20

# -- polynomial helpers over GF(p), little-endian coefficient tuples ---------


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_rem(a: list[int], mod: list[int], p: int) -> list[int]:
    """Remainder of a modulo the monic polynomial mod."""
    a = list(a)
    d = len(mod) - 1
    while len(a) > d:
        coef = a.pop()  # cancelled by coef * x^(len(a) - d) * mod
        for i, mi in enumerate(mod[:d]):
            a[len(a) - d + i] = (a[len(a) - d + i] - coef * mi) % p
    return _poly_trim(a)


def is_irreducible(coeffs: tuple[int, ...] | list[int], p: int) -> bool:
    """Irreducibility over GF(p), by trial division by every monic polynomial of degree 1..k/2."""
    f = _poly_trim(list(coeffs))
    k = len(f) - 1
    return k >= 1 and all(
        _poly_rem(f, _digits(m, p, d) + [1], p) for d in range(1, k // 2 + 1) for m in range(p**d)
    )


def prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_prime(n: int) -> bool:
    return n > 1 and prime_factors(n) == [n]


def _digits(m: int, p: int, k: int) -> list[int]:
    out = []
    for _ in range(k):
        out.append(m % p)
        m //= p
    return out


class Field:
    """Vectorized arithmetic in GF(p^k) modulo `modulus`; elements are ints in [0, q).

    Every operation takes ints or integer numpy arrays, broadcasts, and is a
    gather through three int64 tables of a primitive element g: exp, log and
    the Zech logarithms log(1 + g^d).  They take about 72 bytes per element
    and are built on first use, so constructing a large field stays cheap.
    """

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = modulus  # little-endian, length k+1, monic
        self._place = [self.p**i for i in range(self.k)]

    def _digit_array(self, a: np.ndarray) -> np.ndarray:
        """(..., k) base-p digits of an array of encodings."""
        return a[..., None] // np.asarray(self._place, dtype=np.int64) % self.p

    def _times(self, a: np.ndarray, c: int) -> np.ndarray:
        """a * c for a fixed scalar c, as the GF(p)-linear map x^i -> x^i c on digits."""
        rows = [_digits(c, self.p, self.k)]  # row i = digits of x^i * c
        for _ in range(1, self.k):
            v = rows[-1]
            top = v[-1]
            rows.append([(s - top * m) % self.p for s, m in zip([0] + v[:-1], self.modulus)])
        # entries stay below k * p^2 < 2^53, so float64 matrix products are exact
        prod = self._digit_array(a).astype(np.float64) @ np.asarray(rows, dtype=np.float64)
        return (prod.astype(np.int64) % self.p) @ np.asarray(self._place, dtype=np.int64)

    def _scalar_pow(self, a: int, e: int) -> int:
        result, acc = np.ones(1, dtype=np.int64), a
        while e:
            if e & 1:
                result = self._times(result, acc)
            acc = int(self._times(np.array([acc]), acc)[0])
            e >>= 1
        return int(result[0])

    @cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(exp, log, zech) of the least primitive element g, with zero folded in.

        With n = q - 1, log[0] is a sentinel 2n that lands every product
        involving zero in the zero-filled tail of exp, so mul is one gather with
        no masking.  zech[d + 2n] = log(1 + g^d) for |d| < n, zech[i] = i - 2n
        for i < n and zech[i] = 0 for i >= 3n, so that add(0, b) = b and
        add(a, 0) = a need no masking either.
        """
        n = self.q - 1
        factors = prime_factors(n)
        g = next(c for c in range(1, self.q) if all(self._scalar_pow(c, n // r) != 1 for r in factors))
        powers = np.ones(1, dtype=np.int64)
        while len(powers) < n:  # doubling: g^(m + i) = g^i * g^m
            powers = np.concatenate([powers, self._times(powers, self._scalar_pow(g, len(powers)))])
        powers = powers[:n]
        exp = np.concatenate([powers, powers, np.zeros(2 * n + 1, dtype=np.int64)])
        log = np.empty(self.q, dtype=np.int64)
        log[powers] = np.arange(n)
        log[0] = 2 * n
        x = exp[: 2 * n]  # g^d for d in [-n, n); adding 1 changes only the lowest base-p digit
        one_plus_x = x - x % self.p + (x + 1) % self.p
        zech = np.concatenate([np.arange(-2 * n, -n), log[one_plus_x], np.zeros(n + 1, dtype=np.int64)])
        return exp, log, zech

    def add(self, a, b):
        exp, log, zech = self._tables
        la = log[a]  # a + b = a (1 + b / a)
        return exp[la + zech[log[b] - la + 2 * (self.q - 1)]]

    def neg(self, a):
        exp, log, _ = self._tables
        return exp[log[a] + log[self.p - 1]]  # log(-1) is (q - 1) / 2, or 0 in characteristic 2

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        exp, log, _ = self._tables
        return exp[log[a] + log[b]]

    def inv(self, a):
        if np.any(np.asarray(a) == 0):
            raise ZeroDivisionError("inverse of zero in a finite field")
        exp, log, _ = self._tables
        return exp[self.q - 1 - log[a]]


@lru_cache(maxsize=None)
def field(p: int, k: int) -> Field:
    """GF(p^k) with a deterministic modulus.

    The modulus is the first irreducible monic polynomial x^k + c_{k-1}x^{k-1}
    + ... + c_0 in ascending order of the integer encoding of (c_0, ..., c_{k-1})
    base p.  Reproducible by construction.
    """
    if k < 1:
        raise UnsupportedParameters(f"extension degree must be >= 1, got {k}")
    if not is_prime(p):
        raise UnsupportedParameters(f"characteristic {p} is not prime")
    if p**k > MAX_FIELD_SIZE:
        raise UnsupportedParameters(f"field size {p}^{k} exceeds {MAX_FIELD_SIZE}")
    moduli = (tuple(_digits(m, p, k)) + (1,) for m in range(p**k))
    return Field(p, k, next(f for f in moduli if is_irreducible(f, p)))


def field_for_size(q: int) -> Field:
    """Field of size q; raises UnsupportedParameters when q is not a prime power."""
    if q < 2:
        raise UnsupportedParameters(f"field size must be >= 2, got {q}")
    p, *others = prime_factors(q)
    if others:
        raise UnsupportedParameters(f"{q} is not a prime power")
    k = 1
    while p**k < q:
        k += 1
    return field(p, k)
