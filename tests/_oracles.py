"""Brute-force reference computations, independent of the production code.

These deliberately re-derive everything from first principles with plain
Python data structures so they can serve as oracles for the package paths.
Only usable for small groups.  GF(p^k) addition, negation and multiplication
digit by digit are the references for the field tables.  The references at
the end are the dense multiplication table one right-multiplication sweep per
column, a scalar interleaved product (one table entry per factor), plain
numpy kernels (an interleave per-tuple fold, a decode-and-fold Monte Carlo
loop, the rectangle acceptance over whole arrays of fiber draws, one
whole-group sweep per class for the structure constants and one for the
translated-inverse coupling) that the production kernels must match count
for count, and a Dixon character table split with list-of-lists
algebra mod P from the whole tensor, whose values the production table must
match bit for bit.  The class numbering by np.unique must match conj_classes
byte for byte.  The per-pair probability, l2, distance-to-uniform and coverage
formulas of one class pair are the references for the array path
classmix.mixing.pair_stats.  The exact checks that only tests call live here as well: the
coverage/norm link of a pair distribution, the character-bound fraction, the
engine sweep of every element's inverse, the per-pair cover of a rectangle
protocol (its output bits and first bad pairs in input order), the
validation of a protocol on every pair of G^t x G^t, its exact acceptance by
fiber enumeration and the rectangle-decomposition inequality, the
tuple-set file writer, G^t itself as a tuple set, and the conjugation
permutation of one element, which the class map computes for all generators
in one sweep.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from classmix import config
from classmix.characters import _least_dixon_prime, _primitive_root_of_order, class_rows, witten_zeta
from classmix.errors import InvariantViolation, LoopBudgetExceeded, OverlappingRectangles, SpecSyntax, UncoveredProbe
from classmix.groups import GroupSpec
from classmix.interleave import (
    TupleSet, _complete_rows, decode_tuples, encode_tuples, exact_distribution, fiber_sample,
)

# D4 x C3 on seven points: its order-3 and order-6 classes come in inverse pairs
PERMGEN_FILE = "n=7\n(1 2)(3 4)\n(1 3)\n(5 6 7)\n"
# two matrices over GF(9) generating a group of order 24
MATGEN_FILE = "1,1,0,1\n0,1,2,0\n"
ORACLE_LABELS = ["S:3", "S:4", "S:5", "A:5", "A:6", "PSL2:7", "PSL2:8", "SL2:5", "permgen", "trivial"]


def oracle_spec(label, tmp_path):
    """Spec of an ORACLE_LABELS group; "permgen" and "matgen" write their generator file into tmp_path."""
    if label == "permgen":
        (tmp_path / "g.txt").write_text(PERMGEN_FILE)
        return GroupSpec.parse(f"permgen:{tmp_path / 'g.txt'}")
    if label == "matgen":
        (tmp_path / "m.txt").write_text(MATGEN_FILE)
        return GroupSpec.parse(f"matgen:{tmp_path / 'm.txt'},q=9")
    if label == "trivial":
        return GroupSpec.from_perm_generators([tuple(range(3))])
    return GroupSpec.parse(label)


def mul_indices(table, i, j) -> np.ndarray:
    """Elementwise index(i * j) for index arrays of equal ndim that broadcast."""
    return table.lookup(table.engine.mul(table.rows_of(i), table.rows_of(j)))


def inverses(table) -> np.ndarray:
    """Array with inverses[g] = index(g^-1), from one engine sweep of the whole group."""
    return table._sweep(table.engine.inv)[0]


def conjugation_permutation(table, h: int) -> np.ndarray:
    """Array c with c[g] = index(h g h^-1), from the table's chunked sweep with one image."""
    engine, h_row = table.engine, table.rows_of(h)
    h_inv = engine.inv(h_row[None])
    return table._sweep(lambda rows: engine.left(h_row, engine.right(rows, h_inv)[:, 0]))[0]


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


def _field_digits(f, a):
    """Base-p digits of GF(p^k) encodings, constant term first."""
    a = np.asarray(a, dtype=np.int64)
    return [a // f.p**i % f.p for i in range(f.k)]


def field_add(f, a, b):
    """a + b in GF(p^k), digit by digit in base p."""
    return sum((x + y) % f.p * f.p**i for i, (x, y) in enumerate(zip(_field_digits(f, a), _field_digits(f, b))))


def field_neg(f, a):
    """-a in GF(p^k), digit by digit in base p."""
    return sum(-x % f.p * f.p**i for i, x in enumerate(_field_digits(f, a)))


def field_mul(f, a, b):
    """a * b in GF(p^k): schoolbook product of the digit polynomials, reduced by the monic f.modulus."""
    k, p = f.k, f.p
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(_field_digits(f, a)):
        for j, y in enumerate(_field_digits(f, b)):
            prod[i + j] = (prod[i + j] + x * y) % p
    for top in range(2 * k - 2, k - 1, -1):  # x^top = -x^(top - k) (modulus - x^k)
        for i, m in enumerate(f.modulus[:k]):
            prod[top - k + i] = (prod[top - k + i] - prod[top] * m) % p
    return sum(c * p**i for i, c in enumerate(prod[:k]))


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


def column_mul_table(table) -> np.ndarray:
    """Dense multiplication table built column by column: column g is the sweep h -> index(h g)."""
    mul = np.empty((table.order, table.order), dtype=np.int32)
    for g in range(table.order):
        mul[:, g] = table.right_mul_indices(g)
    return mul


def interleave_product(table, a, b) -> int:
    """Index of a1 b1 a2 b2 ... at bt for index tuples of equal arity, one dense-table entry per factor."""
    mul = table.full_mul_table()
    acc = 0
    for ai, bi in zip(a, b, strict=True):
        acc = int(mul[mul[acc, int(ai)], int(bi)])
    return acc


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


def whole_array_acceptance(protocol, table, g, arity, stream, samples):
    """Share of `samples` fiber draws for g that the protocol accepts: one fiber_sample call, every row encoded and
    evaluated at once, so it raises on the first bad pair of all the draws."""
    a_rows, b_rows = fiber_sample(table, g, arity, stream, draws=samples)
    bits = evaluate_codes(protocol, encode_tuples(a_rows, table.order), encode_tuples(b_rows, table.order))
    return float(bits.mean())


def class_members(table, c):
    """The element indices of class c, ascending."""
    return np.flatnonzero(table.class_map[1] == c)


def full_sweep_structure_constants(table):
    """Class-algebra constants from one sweep of the whole group per class representative.

    u contributes to (i, j, l) with i = class(u) and j = class(u^-1 z_l), for the
    representative z_l of class l.
    """
    reps, class_of = table.class_map
    k, inverse = len(reps), inverses(table)
    tensor = np.zeros((k, k, k), dtype=np.int64)
    for l, rep in enumerate(reps):
        j_arr = class_of[table.right_mul_indices(rep)[inverse]]
        tensor[:, :, l] = np.bincount(class_of * k + j_arr, minlength=k * k).reshape(k, k)
    return tensor


def translated_inverse_counts(table, a):
    """(k, k) counts of x with x in C_i and x^-1 a in C_j, from one product per element."""
    reps, class_of = table.class_map
    k = len(reps)
    partner = mul_indices(table, inverses(table), [a])
    return np.bincount(class_of * k + class_of[partner], minlength=k * k).reshape(k, k)


def coverage_norm_link_holds(dist, classes) -> bool:
    """Exact check of: coverage fraction 1 - delta implies N >= 1/(1 - delta).

    Both sides are rationals, from the exact pair counts.
    """
    sizes = classes.sizes
    total_pairs = sum(dist.counts)
    support = sum(s for s, c in zip(sizes, dist.counts) if c > 0)
    # N = |G| * sum_k |C_k| p_k^2 with p_k = counts_k / (pairs * |C_k|)
    n_exact = (
        Fraction(classes.order)
        * sum(Fraction(c * c, s) for c, s in zip(dist.counts, sizes))
        / (Fraction(total_pairs) ** 2)
    )
    return n_exact >= Fraction(classes.order, support)


# Per-pair statistics of one class pair, one formula each, as the references for the
# array path classmix.mixing.pair_stats.


class PairDistribution(NamedTuple):
    """Per-class values of the product distribution for one class pair.

    probs[k] is the probability of each single element of class k, and
    counts[k] the exact number of pairs in C_x x C_y with product in class k.
    """

    x_class: int
    y_class: int
    probs: np.ndarray
    order: int
    source: str  # "char" | "brute"
    counts: tuple[int, ...] = ()


def from_constants(xc: int, yc: int, row: np.ndarray, classes, source: str) -> PairDistribution:
    """The distribution of one class pair from its row a_xy of class-algebra constants."""
    sizes = np.asarray(classes.sizes, dtype=np.int64)
    counts = row * sizes
    probs = counts / (float(sizes[xc] * sizes[yc]) * sizes.astype(np.float64))
    return PairDistribution(xc, yc, probs, classes.order, source, counts=tuple(counts.tolist()))


def l2_sq(dist: PairDistribution, classes) -> float:
    """Squared l2 norm: sum over g of p(g)^2, via class sizes."""
    sizes = np.asarray(classes.sizes, dtype=np.float64)
    return float(sizes @ (dist.probs * dist.probs))


class DistanceReport(NamedTuple):
    l1: float
    l2_sq: float  # squared l2 distance to uniform, computed directly
    linf: float


def dist_to_uniform(dist: PairDistribution, classes) -> DistanceReport:
    sizes = np.asarray(classes.sizes, dtype=np.float64)
    u = 1.0 / dist.order
    diff = dist.probs - u
    return DistanceReport(
        l1=float(sizes @ np.abs(diff)),
        l2_sq=float(sizes @ (diff * diff)),
        linf=float(np.abs(diff).max()),
    )


class CoverageReport(NamedTuple):
    support: int  # |x^G y^G| in elements
    fraction: float


def coverage(dist: PairDistribution, classes) -> CoverageReport:
    """Support of the product set from the distribution's exact pair counts."""
    sizes = np.asarray(classes.sizes, dtype=np.int64)
    support = int(sizes[np.asarray(dist.counts) > 0].sum())
    return CoverageReport(support=support, fraction=support / dist.order)


def class_rows_support(table, classes, i: int, j: int) -> int:
    """|C_i C_j| from one class_rows row: class l lies in C_i C_j exactly when a_ijl > 0.  Costs |C_i| products."""
    return int(np.asarray(classes.sizes)[class_rows(table, classes, i, np.array([j]))[0] > 0].sum())


class CharBoundReport(NamedTuple):
    fraction: float
    lower_bound: float  # 2 - zeta_G(s)
    s: float
    binding: bool  # whether the bound was below 1 and thus asserted


def char_bound_fraction(table, classes, chartable, s: float) -> CharBoundReport:
    """Class-size-weighted fraction of x with |chi(x)| <= chi(1)^(s/2) for all chi.

    The fraction is guaranteed to exceed 2 - zeta_G(s) whenever that bound is
    below 1; a violation means the character table is wrong, so it raises.
    """
    if s <= 0:
        raise SpecSyntax(f"character-bound fraction needs s > 0, got {s}")
    vals = np.abs(chartable.values)
    bounds = np.asarray(chartable.degrees, dtype=np.float64) ** (s / 2.0)
    good_cols = np.all(vals <= bounds[:, None] + 1e-9, axis=0)  # 1e-9: float slack on the lifted values
    sizes = np.asarray(classes.sizes, dtype=np.int64)
    fraction = Fraction(int(sizes[good_cols].sum()), table.order)
    bound = 2.0 - witten_zeta(chartable, s)
    binding = bound < 1.0
    if binding and not float(fraction) > bound:
        raise InvariantViolation(
            f"character-bound fraction {float(fraction)} fails lower bound {bound}"
        )
    return CharBoundReport(fraction=float(fraction), lower_bound=bound, s=s, binding=binding)


def tuple_rows(tset) -> np.ndarray:
    return tset.columns.astype(np.int64)


def cover(protocol, a_codes, b_codes):
    """Output bits (-1 where no rectangle covers the pair), then the first multiply covered and the first
    uncovered pair, each as (a code, b code) or None."""
    bits = np.full(len(a_codes), -1, dtype=np.int8)
    twice = np.zeros(len(a_codes), dtype=bool)
    for rect in protocol.rectangles:
        inside = rect.a_set.contains(a_codes) & rect.b_set.contains(b_codes)
        twice |= inside & (bits >= 0)
        bits[inside] = rect.bit
    return bits, first_pair(twice, a_codes, b_codes), first_pair(bits < 0, a_codes, b_codes)


def first_pair(flags, a_codes, b_codes) -> tuple[int, int] | None:
    if not flags.any():
        return None
    i = int(np.argmax(flags))
    return int(a_codes[i]), int(b_codes[i])


def evaluate_codes(protocol, a_codes, b_codes) -> np.ndarray:
    """Vectorized evaluation, one membership test per code; raises on the first bad pair in input order, a
    multiply covered pair before an uncovered one."""
    bits, twice, uncovered = cover(protocol, a_codes, b_codes)
    if twice is not None:
        raise OverlappingRectangles(f"pair (a={twice[0]}, b={twice[1]}) multiply covered")
    if uncovered is not None:
        raise UncoveredProbe(f"pair (a={uncovered[0]}, b={uncovered[1]}) not covered")
    return bits


def validate_protocol_exact(protocol, table):
    """Evaluate the protocol on every pair of G^t x G^t; it raises unless its rectangles partition them."""
    total = table.order ** protocol.rectangles[0].a_set.arity
    codes = np.arange(total, dtype=np.int64)
    evaluate_codes(protocol, np.repeat(codes, total), np.tile(codes, total))


def enumerate_fiber(table, g: int, arity: int):
    """Return (a_rows, b_rows): every (a, b) with a . b = g, by sweeping the free coordinates."""
    order = table.order
    free = 2 * arity - 1
    total = order**free
    if total > config.loop_budget():
        raise LoopBudgetExceeded(f"fiber enumeration needs {total} tuples")
    free_rows = decode_tuples(np.arange(total, dtype=np.int64), free, order)
    a_rows = free_rows[:, :arity]
    b_rows = np.empty((total, arity), dtype=free_rows.dtype)
    b_rows[:, : arity - 1] = free_rows[:, arity:]
    mul = table.full_mul_table()
    _complete_rows(mul, mul[inverses(table), g], a_rows, b_rows)
    return a_rows, b_rows


def exact_conditional_acceptance(protocol, table, g: int) -> Fraction:
    """Exact Pr[P(a,b) = 1 | a . b = g] by full fiber enumeration."""
    arity = protocol.rectangles[0].a_set.arity
    a_rows, b_rows = enumerate_fiber(table, g, arity)
    a_codes = encode_tuples(a_rows, table.order)
    b_codes = encode_tuples(b_rows, table.order)
    bits = evaluate_codes(protocol, a_codes, b_codes)
    return Fraction(int(bits.sum()), len(bits))


def rectangle_bound_check(protocol, table, g: int, h: int) -> tuple[float, float]:
    """Assemble the rectangle-decomposition inequality from exact data.

    Returns (|p_g - p_h| exact, 2^c * 2 * max over rectangles of D * alpha *
    beta * |G|).  The factor 2 is the triangle bound through the uniform
    distribution; the left side can never exceed the right.
    """
    lhs = abs(
        float(
            exact_conditional_acceptance(protocol, table, g)
            - exact_conditional_acceptance(protocol, table, h)
        )
    )
    worst = 0.0
    for rect in protocol.rectangles:
        est = exact_distribution(rect.a_set, rect.b_set, table)
        normalized = est.linf_dev * float(rect.a_set.density) * float(rect.b_set.density) * table.order
        worst = max(worst, normalized)
    rhs = (2.0**protocol.bit_budget) * 2.0 * worst
    return lhs, rhs


def full_tuple_set(table, arity: int) -> TupleSet:
    """All of G^t, as `interleave --alpha 1` draws it."""
    return TupleSet(arity, table.order, packed(np.ones(table.order**arity, dtype=bool)))


def packed(mask) -> np.ndarray:
    """TupleSet bits of a bool membership mask over the tuple codes."""
    return np.packbits(mask, bitorder="little")


def mask_of(tset) -> np.ndarray:
    """The bool membership mask of a tuple set, one entry per tuple of G^t (the pad bits dropped)."""
    return np.unpackbits(tset.bits, count=tset.group_order**tset.arity, bitorder="little").view(bool)


def save_tuple_set(path, tset, group_label: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"t={tset.arity} group={group_label}\n")
        for row in tuple_rows(tset):
            fh.write(",".join(str(int(x)) for x in row) + "\n")


def unique_labelling_classes(table):
    """(reps, sizes, class_of, inverse_class, power_map) of conj_classes, labelled by np.unique.

    The same min-label fixpoint as conj_classes, over whole-group conjugation
    permutations (int64, no blocks), numbered by np.unique's sort; the power maps
    and inverse classes follow from the representatives' rows.
    """
    everything = np.arange(table.order)
    gens = table.generator_indices
    inverse = inverses(table)
    perms = [mul_indices(table, mul_indices(table, [h], everything), [inverse[h]]) for h in gens]
    labels = everything
    while True:
        prev = labels
        for perm in perms:
            labels = np.minimum(labels, labels[perm])
        labels = labels[labels]
        if np.array_equal(labels, prev):
            break
    reps, class_of, sizes = np.unique(labels, return_inverse=True, return_counts=True)
    k = len(reps)
    rep_rows = table.rows_of(reps)
    powers = [np.zeros(k, dtype=np.int64)]
    orders = np.zeros(k, dtype=np.int64)
    cur = rep_rows
    while not orders.all():
        idx = table.lookup(cur)
        orders[(idx == 0) & (orders == 0)] = len(powers)
        powers.append(idx)
        cur = table.engine.mul(cur, rep_rows)
    m = np.arange(math.lcm(*orders.tolist()) + 1)[:, None]
    power_map = class_of[np.array(powers)[m % orders, np.arange(k)]]
    inverse_class = tuple(class_of[table.lookup(table.engine.inv(rep_rows))].tolist())
    return tuple(reps.tolist()), tuple(sizes.tolist()), class_of, inverse_class, power_map


# -- Dixon character table from whole class matrices, lists of Python ints mod P


def _mat_vec(m, v, p):
    return [sum(mij * vj for mij, vj in zip(row, v)) % p for row in m]


def _rref(rows, p, ncols):
    """Row-reduce in place; returns pivot column list."""
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] % p), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def _nullspace(m, p):
    """Basis of the right nullspace of a d x d matrix, echelon order."""
    d = len(m)
    rows = [list(r) for r in m]
    pivots = _rref(rows, p, d)
    free = [c for c in range(d) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * d
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-rows[r][fc]) % p
        basis.append(v)
    return basis


def _solve_in_span(basis_cols, targets, p):
    """Coordinates X with B X = Y; raises if a target leaves the span of B's columns."""
    n = len(basis_cols[0])
    d = len(basis_cols)
    t = len(targets)
    rows = [[basis_cols[j][i] for j in range(d)] + [targets[m][i] for m in range(t)] for i in range(n)]
    pivots = _rref(rows, p, d)
    if len(pivots) != d:
        raise AssertionError("restriction basis is rank deficient")
    for i in range(d, n):
        if any(x % p for x in rows[i]):
            raise AssertionError("subspace is not invariant under the class matrix")
    return [[rows[r][d + m] for m in range(t)] for r in range(d)]


def _char_poly_mod(m, p):
    """det(xI - M) mod p by Faddeev-LeVerrier, little-endian (exact while p > d)."""
    d = len(m)
    coeffs = [0] * (d + 1)
    coeffs[d] = 1
    acc = [[0] * d for _ in range(d)]
    for j in range(1, d + 1):
        work = [row[:] for row in acc]
        for i in range(d):
            work[i][i] = (work[i][i] + coeffs[d - j + 1]) % p
        acc = [[sum(m[i][t] * work[t][l] for t in range(d)) % p for l in range(d)] for i in range(d)]
        trace = sum(acc[i][i] for i in range(d)) % p
        coeffs[d - j] = (-trace * pow(j, p - 2, p)) % p
    return coeffs


def _poly_roots_mod(coeffs, p):
    xs = np.arange(p, dtype=np.int64)
    acc = np.zeros(p, dtype=np.int64)
    for c in reversed(coeffs):
        acc = (acc * xs + c) % p
    return [int(x) for x in np.nonzero(acc == 0)[0]]


def list_split_eigenvectors(tensor, p):
    """Common one-dimensional eigenspaces of the whole class matrices, split in class-index order."""
    k = tensor.shape[0]
    blocks = [[[1 if i == j else 0 for i in range(k)] for j in range(k)]]
    for idx in range(1, k):
        if all(len(b) == 1 for b in blocks):
            break
        m = [[int(tensor[idx, j, l]) % p for l in range(k)] for j in range(k)]
        new_blocks = []
        for basis in blocks:
            if len(basis) == 1:
                new_blocks.append(basis)
                continue
            r = _solve_in_span(basis, [_mat_vec(m, v, p) for v in basis], p)
            d = len(basis)
            split_dim = 0
            for lam in _poly_roots_mod(_char_poly_mod(r, p), p):
                shifted = [[(r[i][j] - (lam if i == j else 0)) % p for j in range(d)] for i in range(d)]
                eigvecs = _nullspace(shifted, p)
                if eigvecs:
                    new_blocks.append([[sum(basis[t][i] * nv[t] for t in range(d)) % p for i in range(k)] for nv in eigvecs])
                    split_dim += len(eigvecs)
            assert split_dim == d, f"block of dimension {d} split into {split_dim} dimensions"
        blocks = new_blocks
    assert all(len(b) == 1 for b in blocks), "a block is unresolved"
    return [b[0] for b in blocks]


def list_dixon_table(classes, tensor):
    """(degrees, values, P) of the Dixon table: list-based split, then a per-class lift loop.

    The lift accumulates the complex values in the order the production lift must keep,
    so the two tables agree bit for bit.
    """
    k, order, e = classes.k, classes.order, classes.exponent
    p = _least_dixon_prime(e, order)
    size_inv = [pow(s % p, p - 2, p) for s in classes.sizes]
    theta = _primitive_root_of_order(e, p) if e > 1 else 1
    rows = []
    for vec in list_split_eigenvectors(tensor, p):
        norm = pow(vec[0], p - 2, p)
        omega = [v * norm % p for v in vec]
        denom = sum(omega[i] * omega[classes.inverse_class[i]] * size_inv[i] for i in range(k)) % p
        target = order * pow(denom, p - 2, p) % p
        degree = next(d for d in range(1, math.isqrt(order) + 1) if d * d % p == target)
        s = [degree * omega[j] * size_inv[j] % p for j in range(k)]
        values = []
        for j in range(k):
            nj = classes.orders[j]
            if nj == 1:
                values.append(complex(degree, 0.0))
                continue
            theta_j_inv = pow(pow(theta, e // nj, p), p - 2, p)
            inv_nj = pow(nj, p - 2, p)
            powers = [pow(theta_j_inv, t, p) for t in range(nj)]
            s_pow = [s[classes.power_map[l, j]] for l in range(nj)]
            val = 0j
            for mm in range(nj):
                mu = sum(s_pow[l] * powers[l * mm % nj] for l in range(nj)) * inv_nj % p
                if mu:
                    val += mu * cmath.exp(2j * cmath.pi * mm / nj)
            values.append(val)
        rows.append((degree, values))
    rows.sort(key=lambda r: (r[0], tuple((-round(v.real, 10), -round(v.imag, 10)) for v in r[1])))
    return tuple(r[0] for r in rows), np.array([r[1] for r in rows], dtype=np.complex128), p
