"""Brute-force reference computations, independent of the production code.

These deliberately re-derive everything from first principles with plain
Python data structures so they can serve as oracles for the package paths.
Only usable for small groups.  The interleave references at the end are plain
numpy kernels (a per-tuple fold and a decode-and-fold Monte Carlo loop) that
the production kernels must match count for count.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np


def sym_elements(n: int) -> list[tuple[int, ...]]:
    return sorted(itertools.permutations(range(n)))


def alt_elements(n: int) -> list[tuple[int, ...]]:
    return [p for p in sym_elements(n) if _parity(p) == 0]


def _parity(p: tuple[int, ...]) -> int:
    seen = [False] * len(p)
    parity = 0
    for i in range(len(p)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        parity ^= (length - 1) & 1
    return parity


def perm_mul(a, b):
    # (a*b)(x) = a(b(x))
    return tuple(a[x] for x in b)


def perm_inv(a):
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def mat_mul(a, b, p):
    """Product of 2x2 matrices over prime GF(p), entries row-major."""
    a11, a12, a21, a22 = a
    b11, b12, b21, b22 = b
    return (
        (a11 * b11 + a12 * b21) % p,
        (a11 * b12 + a12 * b22) % p,
        (a21 * b11 + a22 * b21) % p,
        (a21 * b12 + a22 * b22) % p,
    )


def mat_inv(a, p):
    a11, a12, a21, a22 = a
    d = pow((a11 * a22 - a12 * a21) % p, p - 2, p)
    return (a22 * d % p, -a12 * d % p, -a21 * d % p, a11 * d % p)


def psl2_lift(a, p):
    """The lift of {a, -a} whose first entry differing from its negation is smaller."""
    neg = tuple(-x % p for x in a)
    for x, y in zip(a, neg):
        if x != y:
            return a if x < y else neg
    return a


def sl2_elements(p, projective=False):
    """SL2(p) or PSL2(p) (canonical lifts): identity first, the rest sorted."""
    lift = (lambda m: psl2_lift(m, p)) if projective else (lambda m: m)
    elems = {lift(m) for m in itertools.product(range(p), repeat=4) if (m[0] * m[3] - m[1] * m[2]) % p == 1}
    identity = (1, 0, 0, 1)
    return [identity] + sorted(elems - {identity})


def brute_conjugacy_classes(elements):
    """Orbits under conjugation by every group element."""
    elems = set(elements)
    classes = []
    assigned = {}
    for g in sorted(elems):
        if g in assigned:
            continue
        orbit = {perm_mul(perm_mul(h, g), perm_inv(h)) for h in elems}
        idx = len(classes)
        classes.append(sorted(orbit))
        for x in orbit:
            assigned[x] = idx
    return classes, assigned


def brute_pair_distribution(class_x, class_y, assigned, class_sizes):
    """Exact per-class probabilities of u*v over a full double loop."""
    counts = [0] * len(class_sizes)
    for u in class_x:
        for v in class_y:
            counts[assigned[perm_mul(u, v)]] += 1
    total = len(class_x) * len(class_y)
    return [Fraction(c, total * class_sizes[k]) for k, c in enumerate(counts)]


def partition_class_count_alt(n: int) -> int:
    """Number of conjugacy classes of Alt(n) from partition combinatorics.

    Even partitions (even number of even parts) each give one class, and a
    class splits in two exactly when all parts are odd and distinct.
    """
    count = 0
    for part in _partitions(n):
        evens = sum(1 for p in part if p % 2 == 0)
        if evens % 2 != 0:
            continue
        count += 1
        if all(p % 2 == 1 for p in part) and len(set(part)) == len(part):
            count += 1
    return count


def _partitions(n: int, maxpart: int | None = None):
    if n == 0:
        yield ()
        return
    if maxpart is None:
        maxpart = n
    for first in range(min(n, maxpart), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _decode(codes, arity, order):
    """(len, arity) int64 coordinates of base-order tuple codes."""
    rem = np.asarray(codes, dtype=np.int64).copy()
    out = np.empty((len(rem), arity), dtype=np.int64)
    for i in range(arity):
        out[:, i] = rem % order
        rem //= order
    return out


def fold_exact_counts(mul, a_codes, b_codes, arity):
    """Exact interleave counts folding all of B once per tuple of A (the per-tuple fold)."""
    order = len(mul)
    b_rows = _decode(b_codes, arity, order)
    counts = np.zeros(order, dtype=np.int64)
    for a_row in _decode(a_codes, arity, order):
        acc = mul[a_row[0], b_rows[:, 0]]
        for i in range(1, arity):
            acc = mul[acc, a_row[i]]
            acc = mul[acc, b_rows[:, i]]
        counts += np.bincount(acc, minlength=order)
    return counts


def decode_fold_mc_counts(mul, a_codes, b_codes, arity, samples, stream, block):
    """Monte Carlo interleave counts decoding every drawn code and folding the 2-D table."""
    order = len(mul)
    counts = np.zeros(order, dtype=np.int64)
    done = 0
    while done < samples:
        n = min(block, samples - done)
        a_rows = _decode(a_codes[stream.integers(0, len(a_codes), size=n)], arity, order)
        b_rows = _decode(b_codes[stream.integers(0, len(b_codes), size=n)], arity, order)
        acc = mul[a_rows[:, 0], b_rows[:, 0]]
        for i in range(1, arity):
            acc = mul[acc, a_rows[:, i]]
            acc = mul[acc, b_rows[:, i]]
        counts += np.bincount(acc, minlength=order)
        done += n
    return counts
