"""Brute-force reference computations, independent of the production code.

These deliberately re-derive everything from first principles with plain
Python data structures so they can serve as oracles for the package paths.
Only usable for small groups.  The references at the end are plain numpy
kernels (an interleave per-tuple fold, a decode-and-fold Monte Carlo loop and
one whole-group sweep per class for the structure constants) that the
production kernels must match count for count.
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


def gf2m_mul(a, b, modulus):
    """Product in GF(2^m) = GF(2)[x]/(modulus); elements and modulus as bit masks (bit i = x^i)."""
    top = 1 << (modulus.bit_length() - 1)
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= modulus
    return out


def sl2_char2_elements(modulus):
    """SL2(2^m) = PSL2(2^m) over GF(2)[x]/(modulus), with its product and inverse.

    In characteristic 2 the determinant is ad + bc and the inverse is (d, b, c, a).
    """
    q = 1 << (modulus.bit_length() - 1)

    def mul(a, b):
        a11, a12, a21, a22 = a
        b11, b12, b21, b22 = b
        return (
            gf2m_mul(a11, b11, modulus) ^ gf2m_mul(a12, b21, modulus),
            gf2m_mul(a11, b12, modulus) ^ gf2m_mul(a12, b22, modulus),
            gf2m_mul(a21, b11, modulus) ^ gf2m_mul(a22, b21, modulus),
            gf2m_mul(a21, b12, modulus) ^ gf2m_mul(a22, b22, modulus),
        )

    def inv(a):
        return (a[3], a[1], a[2], a[0])

    elements = [
        m for m in itertools.product(range(q), repeat=4)
        if gf2m_mul(m[0], m[3], modulus) ^ gf2m_mul(m[1], m[2], modulus) == 1
    ]
    return elements, mul, inv


def perm_closure(gens):
    """Every product of the permutation generators, by breadth-first search from the identity."""
    identity = tuple(range(len(gens[0])))
    seen = {identity}
    frontier = [identity]
    while frontier:
        frontier = [g for g in {perm_mul(x, s) for x in frontier for s in gens} if g not in seen]
        seen.update(frontier)
    return sorted(seen)


def brute_conjugacy_classes(elements, mul=perm_mul, inv=perm_inv):
    """Orbits under conjugation by every group element, ordered by their smallest member."""
    elems = set(elements)
    classes = []
    assigned = {}
    for g in sorted(elems):
        if g in assigned:
            continue
        orbit = {mul(mul(h, g), inv(h)) for h in elems}
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


def brute_structure_constants(elements, mul=perm_mul, inv=perm_inv):
    """Classes and tensor[i][j][l] = #{(u, v) in C_i x C_j : u v = rep(C_l)} by pair counting.

    Classes and their representatives (smallest members) come from
    brute_conjugacy_classes; every u in G is paired with v = u^-1 rep(C_l).
    """
    classes, assigned = brute_conjugacy_classes(elements, mul, inv)
    k = len(classes)
    tensor = [[[0] * k for _ in range(k)] for _ in range(k)]
    for l, cls in enumerate(classes):
        for u in elements:
            tensor[assigned[u]][assigned[mul(inv(u), cls[0])]][l] += 1
    return classes, tensor


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


def full_sweep_structure_constants(table, classes):
    """Class-algebra constants from one sweep of the whole group per class representative.

    u contributes to (i, j, l) with i = class(u) and j = class(u^-1 z_l), for the
    representative z_l of class l.
    """
    k = classes.k
    tensor = np.zeros((k, k, k), dtype=np.int64)
    for l, rep in enumerate(classes.reps):
        j_arr = classes.class_of[table.right_mul_indices(rep)[table.inverses]]
        tensor[:, :, l] = np.bincount(classes.class_of * k + j_arr, minlength=k * k).reshape(k, k)
    return tensor
