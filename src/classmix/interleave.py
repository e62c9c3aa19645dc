"""Interleaved products over G^t and the rectangle distinguishing experiment.

A t-tuple pair (a, b) multiplies out as a1 b1 a2 b2 ... at bt.  Tuple sets are
materialized explicitly, as packed membership bits over the base-|G| codes of G^t
(one bit per tuple), so densities are exact rationals and exact enumeration is
possible within the loop budget.  The bits are counted once and decoded in
`ROW_CHUNK`-code chunks, and `advantage` reads one bit per sampled code, so only
exact enumeration unpacks a whole set.  Monte Carlo reads only the member
columns (`TupleSet.columns`), never the bits.
The conditional sampler for a fixed product g uses the free-coordinate
bijection: a and b1..b_{t-1} determine b_t, so drawing the free coordinates
uniformly is exactly uniform on the fiber.  `advantage` checks exactly, before
any draw, that the protocol's rectangles partition G^t x G^t.
"""

from __future__ import annotations

import collections
import copy
import functools
import itertools
import math
import os
import threading
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import config
from .errors import (
    ArityMismatch,
    InvariantViolation,
    LoopBudgetExceeded,
    OverlappingRectangles,
    SpecSyntax,
    UncoveredProbe,
    parse_int,
    read_input_text,
)
from .groups import ROW_CHUNK, GroupTable, pack_digits, unpack_digits

MAX_MATERIALIZED = 64_000_000  # tuples of G^t or sampled tuple entries kept in memory
MIN_MC_SAMPLES = 10**4  # fewest Monte Carlo samples, checked by mc_distribution and `interleave --mc`
MC_BLOCK = 1_000_000  # Monte Carlo draws per block; A's and B's index draws alternate per block, so it fixes the draw


def _workers() -> int:
    """The number of usable CPUs: the size of each pipeline's pool."""
    if hasattr(os, "sched_getaffinity"):  # Linux: the CPUs this process may run on
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pipeline(fn, items):
    """Yields fn(x) for each x of `items`, in order, each run on a worker thread of a pool of its own.

    The kernels hand the workers numpy calls that release the interpreter lock (gathers, table lookups,
    bincount, floor division), and each worker writes only its own slice of any shared output, so the
    results do not depend on the number of workers.  Items are taken one at a time on the caller's thread,
    where the stream draws happen, so draws keep the calls and order of a serial loop.  Each item is
    submitted as it is taken, and once 2 x `_workers()` are outstanding the oldest result is yielded before
    the next item is taken.  Once submitted, an item is held only by its task, so it is freed as soon as
    fn(item) returns.  Nothing runs unless the caller uses up the generator: the pool starts when the first
    result is asked for, and its threads are joined before the generator ends or is closed.
    """
    from concurrent.futures import ThreadPoolExecutor  # not at import: `import classmix.cli` starts no thread

    workers, pending = _workers(), collections.deque()
    with ThreadPoolExecutor(workers) as pool:
        for future in map(functools.partial(pool.submit, fn), items):  # no name holds an item once it is submitted
            pending.append(future)
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


class TupleSet:
    """Subset of G^t held as packed membership bits over tuple codes (base |G| digits = coordinates)."""

    def __init__(self, arity: int, group_order: int, bits: np.ndarray):
        self.arity = arity
        self.group_order = group_order
        # uint8, ceil(|G|^t / 8) bytes, np.packbits(mask, bitorder="little") of the membership mask: code c is a
        # member when bit c & 7 of byte c >> 3 is set; the pad bits past |G|^t are zero
        self.bits = bits

    @cached_property
    def _chunk_counts(self) -> list[int]:
        """Members in each `_CHUNK_BYTES`-byte chunk of the bits, each chunk unpacked once for size and columns."""
        chunks = (self.bits[lo : lo + _CHUNK_BYTES] for lo in range(0, len(self.bits), _CHUNK_BYTES))
        return [np.count_nonzero(_unpack(chunk)) for chunk in chunks]

    @cached_property
    def size(self) -> int:
        return int(sum(self._chunk_counts))

    @property
    def density(self) -> Fraction:
        return Fraction(self.size, self.group_order**self.arity)

    @cached_property
    def columns(self) -> np.ndarray:
        """Coordinates, shape (size, arity): column i is coordinate i, each tuple one contiguous row."""
        out = np.empty((self.size, self.arity), dtype=np.min_scalar_type(self.group_order - 1))
        starts = range(0, len(self.bits), _CHUNK_BYTES)  # no int64 array of every member code at once
        ends = np.cumsum(self._chunk_counts)

        def decode(i):  # chunk i fills rows ends[i-1]:ends[i] of out
            codes = np.flatnonzero(_unpack(self.bits[starts[i] : starts[i] + _CHUNK_BYTES])) + 8 * starts[i]
            out[ends[i] - len(codes) : ends[i]] = decode_tuples(codes, self.arity, self.group_order)

        for _ in _pipeline(decode, range(len(starts))):
            pass
        return out

    def contains(self, codes: np.ndarray) -> np.ndarray:
        """Membership flags of int64 tuple codes, each read from its own bit: the set is never unpacked."""
        return ((self.bits.take(codes >> 3) >> (codes.astype(np.uint8) & 7)) & 1).view(bool)


_CHUNK_BYTES = -(-ROW_CHUNK // 8)  # bytes of packed bits per chunk: ROW_CHUNK tuple codes, rounded up to whole bytes


def _unpack(bits: np.ndarray) -> np.ndarray:
    """Bool flags of packed bits, 8 per byte: flat-non-zero reads a bool view about twice as fast as uint8."""
    return np.unpackbits(bits, bitorder="little").view(bool)


def _pack_codes(codes: np.ndarray, total: int) -> np.ndarray:
    """Packed bits of `total` tuple codes in which exactly the given int64 codes are set."""
    bits = np.zeros(-(-total // 8), dtype=np.uint8)
    np.bitwise_or.at(bits, codes >> 3, np.left_shift(np.uint8(1), codes.astype(np.uint8) & 7))
    return bits


def encode_tuples(rows: np.ndarray, order: int) -> np.ndarray:
    """int64 codes of tuples given as rows of coordinates, coordinate i the base-order digit i."""
    return pack_digits(rows, order, np.int64)


def decode_tuples(codes: np.ndarray, arity: int, order: int) -> np.ndarray:
    """Coordinates of tuple codes, shape (len, arity), in the smallest unsigned dtype holding order - 1."""
    out = np.empty((len(codes), arity), dtype=np.min_scalar_type(order - 1))
    return unpack_digits(np.asarray(codes), order, out)


def _tuple_count(order: int, arity: int) -> int:
    if arity < 1:
        raise ArityMismatch(f"arity must be >= 1, got {arity}")
    # order^arity >= 2^arity > MAX_MATERIALIZED past its bit length: refused before the power is taken
    if order > 1 and (arity > MAX_MATERIALIZED.bit_length() or order**arity > MAX_MATERIALIZED):
        raise LoopBudgetExceeded(f"G^t has {order}^{arity} tuples; materialization is capped at {MAX_MATERIALIZED}")
    return order**arity


def explicit_tuple_set(table: GroupTable, rows: list[tuple[int, ...]]) -> TupleSet:
    if not rows:
        raise SpecSyntax("tuple set cannot be empty")
    t = len(rows[0])
    total = _tuple_count(table.order, t)
    for r in rows:
        if len(r) != t:
            raise ArityMismatch(f"tuple {r} has arity {len(r)}, expected {t}")
        if any(not (0 <= x < table.order) for x in r):
            raise SpecSyntax(f"element index out of range in tuple {r}")
    bits = _pack_codes(encode_tuples(np.array(rows, dtype=np.int64), table.order), total)
    tset = TupleSet(arity=t, group_order=table.order, bits=bits)
    if tset.size != len(rows):
        raise SpecSyntax("duplicate tuples in explicit tuple set")
    return tset


def seeded_tuple_set(table: GroupTable, arity: int, density: float, stream: np.random.Generator) -> TupleSet:
    """Uniform random subset of G^t of the given density, materialized explicitly.

    The set holds max(1, round(density * |G|^t)) tuples, so a density that rounds to
    no tuple still draws one; the draw is reproducible from the stream.  When the
    count rounds to all of G^t the set is G^t and nothing is drawn.
    """
    total = _tuple_count(table.order, arity)
    if not (0.0 < density <= 1.0):
        raise SpecSyntax(f"density must lie in (0, 1], got {density}")
    m = max(1, round(density * total))
    if m == total:
        bits = np.full(-(-total // 8), 0xFF, dtype=np.uint8)
        bits[-1] >>= -total % 8  # the pad bits stay zero
    else:
        bits = _draw_bits(total, m, stream)
    return TupleSet(arity=arity, group_order=table.order, bits=bits)


_UNSET = np.iinfo(np.uint32).max  # no step swapped into this position; steps are below MAX_MATERIALIZED
_END = _UNSET - 1  # this tail position ends a chain, so it is not a member; also above every position


def _draw_bits(total: int, m: int, stream: np.random.Generator) -> np.ndarray:
    """Packed membership bits of stream.choice(total, m, replace=False), leaving the stream where choice does.

    Where numpy's choice takes Floyd's algorithm it holds O(m), and is called.  On its other
    branch, the tail shuffle, choice swaps position i of an int64 arange(total) with a uniform
    j_i <= i, for i = total - 1 down to max(total - m, 1), and returns the last m positions.
    That branch is replayed here: the same draws fill first[y] = the smallest step i != y with
    j_i = y, 4 bytes per code against choice's 12.  A head position y < total - m ends holding
    value y unless a step hit it; if one did, it ends holding the value at the end of the chain
    y -> first[y] -> first[first[y]] -> ..., a tail position.  So the members are the hit head
    positions and every tail position that ends no chain.  The pool gets each ROW_CHUNK block of
    steps as its top step and int32 swaps, and fills `first` under a lock.  Then each chain end is
    marked _END in `first` itself, one item per ROW_CHUNK head positions: a step has one swap, so
    each position has at most one predecessor, the chains are disjoint paths, and marking one
    chain's end changes no other chain's walk.  The bits are read off `first` last, one item per
    chunk, so a draw holds `first` and the bits, 4 1/8 bytes per code.
    """
    if total <= 10_000 or m <= total // 50:  # numpy's own test for Floyd's algorithm
        return _pack_codes(stream.choice(total, size=m, replace=False), total)
    head, stop = total - m, max(total - m, 1)
    first = np.full(total, _UNSET, dtype=np.uint32)
    lock = threading.Lock()  # the element-wise minimum does not depend on the order in which blocks land

    def draw(hi):  # steps hi - 1 down to the block's end, as choice draws them
        steps = np.arange(hi - 1, max(hi - ROW_CHUNK, stop) - 1, -1, dtype=np.uint32)
        return hi, stream.integers(0, steps, endpoint=True, dtype=np.int32)  # the int64 call's values

    def fill(item):  # under the lock, one fill's transients are alive at a time
        hi, swaps = item
        with lock:
            steps = np.arange(hi - 1, hi - 1 - len(swaps), -1, dtype=np.uint32)
            steps[swaps == steps] = _UNSET  # a step that swaps a position with itself hits nothing
            np.minimum.at(first, swaps, steps)

    for _ in _pipeline(fill, map(draw, range(total, stop, -ROW_CHUNK))):  # fill returns nothing: this runs the blocks
        pass

    def clear_chain_ends(lo):  # chains from distinct head positions end at distinct tail positions
        hits = first[lo : min(lo + ROW_CHUNK, head)]
        ends = hits[hits != _UNSET]
        live, nxt = np.arange(len(ends)), first.take(ends)
        more = np.flatnonzero(nxt != _UNSET)
        while more.size:  # take and put: about 25% faster here than integer-array indexing
            live = live.take(more)
            ends.put(live, nxt.take(more))
            nxt = first.take(ends.take(live))
            more = np.flatnonzero(nxt != _UNSET)
        first.put(ends, _END)

    for _ in _pipeline(clear_chain_ends, range(0, head, ROW_CHUNK)):
        pass
    bits = np.empty(-(-total // 8), dtype=np.uint8)

    def pack(lo):  # bytes lo:lo + _CHUNK_BYTES, from codes 8 lo onwards; packbits leaves the last byte's pad bits zero
        part = first[8 * lo : 8 * (lo + _CHUNK_BYTES)]
        flags = part != _END  # a tail position is a member unless it ends a chain
        heads = min(max(head - 8 * lo, 0), len(part))  # the head positions come first
        np.not_equal(part[:heads], _UNSET, out=flags[:heads])  # a head position is a member when a step hit it
        bits[lo : lo + _CHUNK_BYTES] = np.packbits(flags, bitorder="little")

    for _ in _pipeline(pack, range(0, len(bits), _CHUNK_BYTES)):
        pass
    return bits


# ---------------------------------------------------------------------------
# products


def _chain(mul: np.ndarray, factors) -> np.ndarray:
    """Indices of f0 f1 f2 ... for index arrays (or scalars) broadcasting to f0: one lookup per factor."""
    flat = mul.ravel()
    acc = np.array(factors[0], dtype=np.intp)
    for f in factors[1:]:
        acc *= mul.shape[0]
        acc += f
        acc = flat.take(acc)
    return acc


def _interleave(a_cols, b_cols) -> list:
    return [col for pair in zip(a_cols, b_cols) for col in pair]


class InterleaveEstimate(NamedTuple):
    """Distribution of a . b per group element, exact or Monte Carlo."""

    probs: np.ndarray  # float64, length |G|
    counts: np.ndarray  # int64 draws or exact pair counts
    total: int
    linf_dev: float
    work: dict | None = None  # counts of the work done, for run metadata (never in the report)


def _estimate_from_counts(counts: np.ndarray, total: int, order: int, work: dict) -> InterleaveEstimate:
    probs = counts / float(total)
    # deviation computed in exact integers: max |counts * |G| - total| / (total * |G|)
    dev_num = int(np.abs(counts * np.int64(order) - total).max())
    linf = dev_num / (total * order) if dev_num else 0.0
    return InterleaveEstimate(probs=probs, counts=counts, total=total, linf_dev=float(linf), work=work)


def exact_distribution(a_set: TupleSet, b_set: TupleSet, table: GroupTable) -> InterleaveEstimate:
    """Exact counts of a . b over all of A x B, within the loop budget (at most 2^53 - 1 pairs).

    a . b = a1 h where h = b1 a2 b2 ... at bt depends on a only through s = (a2..at):
    B is folded once per suffix s into tails[s, h], and pair_counts = firsts^T tails,
    where row s of A's unpacked mask viewed as (|G|^(t-1), |G|) is the first-coordinate histogram of s.
    """
    _check_compat((a_set.arity, b_set.arity), a_set.group_order == b_set.group_order == table.order)
    pairs = a_set.size * b_set.size
    limit = min(config.loop_budget(), 2**53 - 1)
    if pairs > limit:
        raise LoopBudgetExceeded(f"{pairs} pairs exceed the loop budget")
    order = table.order
    mul = table.full_mul_table()
    by_suffix = _unpack(a_set.bits)[: order**a_set.arity].reshape(-1, order)  # row: suffix (a2..at), column: a1
    suffixes = np.flatnonzero(by_suffix.any(axis=1))
    per = max(1, ROW_CHUNK // order)  # suffixes per firsts^T tails product, so none is a thin update
    step = max(1, ROW_CHUNK // max(b_set.size, order))  # suffixes per fold block, about ROW_CHUNK products each
    pair_counts = np.zeros((order, order))  # float64 BLAS; every sum is at most |A||B| < 2^53, so exact
    for lo in range(0, len(suffixes), per):
        rows = suffixes[lo : lo + per]
        tails = np.empty((len(rows), order))
        for i in range(0, len(rows), step):
            chunk = rows[i : i + step]
            n = len(chunk)
            heads = np.broadcast_to(b_set.columns[:, 0], (n, b_set.size))
            s_cols = decode_tuples(chunk, a_set.arity - 1, order).T[:, :, None]
            h = _chain(mul, [heads] + _interleave(s_cols, b_set.columns.T[1:]))
            h += np.arange(n)[:, None] * order
            tails[i : i + n] = np.bincount(h.ravel(), minlength=n * order).reshape(n, order)
        pair_counts += by_suffix[rows].T.astype(np.float64) @ tails
    counts = np.rint(np.bincount(mul.ravel(), weights=pair_counts.ravel(), minlength=order)).astype(np.int64)
    if int(counts.sum()) != pairs:
        raise InvariantViolation(f"exact counts sum to {int(counts.sum())}, not {pairs} pairs")
    lookups = len(suffixes) * b_set.size * (2 * a_set.arity - 1)
    work = {
        "pairs": pairs,
        "loop_budget": limit,
        "suffixes": len(suffixes),
        "fold_lookups": lookups,
        "tail_products": -(-len(suffixes) // per),
    }
    return _estimate_from_counts(counts, pairs, order, work)


def mc_distribution(
    a_cols: np.ndarray,
    b_cols: np.ndarray,
    samples: int,
    stream: np.random.Generator,
    table: GroupTable,
) -> InterleaveEstimate:
    """Monte Carlo estimate with uniform draws from A and B, given as member columns (TupleSet.columns), no bits.

    Each block of MC_BLOCK samples draws its A indices, then its B indices, one int32 call per
    ROW_CHUNK slice: the bounded int32 draw takes the stream one value at a time, so these are the
    values of one call per block.  A's block is replayed, not held: at the block's start the stream
    is copied and passes A's block one slice at a time, the values discarded.  The pool gets one
    lazy run of (A slice from the copy, B slice from the stream) pairs over all blocks, each drawn
    as the pipeline takes it, so at most 2 x `_workers()` pairs are held, each freed once counted.
    The replay costs one more bounded draw per sample on the caller's thread.
    """
    _check_compat((a_cols.shape[1], b_cols.shape[1]), max(a_cols.max(), b_cols.max()) < table.order)
    if samples < MIN_MC_SAMPLES:
        raise SpecSyntax(f"at least {MIN_MC_SAMPLES} samples required, got {samples}")
    mul = table.full_mul_table()

    def count(drawn):
        a, b = a_cols.take(drawn[0], axis=0), b_cols.take(drawn[1], axis=0)
        return np.bincount(_chain(mul, _interleave(a.T, b.T)), minlength=table.order)

    def indices(source, cols, k):  # int32, the same values as int64 ones: |A| and |B| are below MAX_MATERIALIZED
        return source.integers(0, len(cols), size=k, dtype=np.int32)

    def draw(lo):
        n = min(MC_BLOCK, samples - lo)
        sizes = [min(ROW_CHUNK, n - i) for i in range(0, n, ROW_CHUNK)]
        replay = copy.deepcopy(stream)  # the stream where A's block starts
        for k in sizes:  # the stream passes A's block while the workers count the pairs in the window
            indices(stream, a_cols, k)
        # lazy: a fresh pair per take (zip would keep its last pair alive in the tuple it reuses)
        return ((indices(replay, a_cols, k), indices(stream, b_cols, k)) for k in sizes)

    counts = np.zeros(table.order, dtype=np.int64)
    pairs = itertools.chain.from_iterable(map(draw, range(0, samples, MC_BLOCK)))
    for slice_counts in _pipeline(count, pairs):
        counts += slice_counts
    return _estimate_from_counts(counts, samples, table.order, {"samples": samples})


def _check_compat(arities: tuple[int, int], in_group: bool):
    """Raise unless A and B have one arity and their coordinates come from the table's group."""
    if arities[0] != arities[1]:
        raise ArityMismatch(f"arity {arities[0]} vs {arities[1]}")
    if not in_group:
        raise SpecSyntax("tuple sets were built over a different group order")


# ---------------------------------------------------------------------------
# conditional fiber sampling


def fiber_sample(
    table: GroupTable, g: int, arity: int, stream: np.random.Generator, draws: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Draw (a, b) pairs exactly uniform on the fiber {(a, b) : a . b = g}.

    a and b1..b_{t-1} are uniform; b_t is the unique completion, and the map
    to the free coordinates is a bijection, so uniformity is exact.
    """
    if arity < 1:
        raise ArityMismatch(f"arity must be >= 1, got {arity}")
    a_rows = _draw_rows(stream, table.order, draws, arity, np.int64)
    b_rows = np.empty((draws, arity), dtype=np.int64)
    b_rows[:, :-1] = _draw_rows(stream, table.order, draws, arity - 1, np.int64)
    mul = table.full_mul_table()
    _complete_rows(mul, mul[mul.argmin(axis=1), g], a_rows, b_rows)
    return a_rows, b_rows


def _draw_rows(stream: np.random.Generator, order: int, draws: int, arity: int, dtype) -> np.ndarray:
    """stream.integers(0, order, size=(draws, arity)) in `dtype`, drawn in ROW_CHUNK int32 calls.

    For order < 2**32 these draw the values of one int64 call and leave the stream where it does.
    """
    rows = np.empty((draws, arity), dtype=dtype)
    for lo in range(0, draws, ROW_CHUNK):
        chunk = rows[lo : lo + ROW_CHUNK]
        chunk[:] = stream.integers(0, order, size=chunk.shape, dtype=np.int32)
    return rows


def _complete_rows(mul: np.ndarray, completion: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Fill b_t with the unique completion: prefix = a1 b1 ... b_{t-1} a_t, b_t = prefix^-1 g = completion[prefix],
    where completion = mul[mul.argmin(axis=1), g]: x^-1 is the column where row x of the table holds index 0."""
    b[:, -1] = completion[_chain(mul, _interleave(a.T, b.T)[:-1])]


# ---------------------------------------------------------------------------
# rectangle protocols


class Rectangle(NamedTuple):
    a_set: TupleSet
    b_set: TupleSet
    bit: int


class RectangleProtocol(NamedTuple):
    """Deterministic transcript partition: disjoint rectangles with output bits."""

    rectangles: tuple[Rectangle, ...]

    @property
    def bit_budget(self) -> int:
        n = len(self.rectangles)
        return 0 if n <= 1 else math.ceil(math.log2(n))


def _check_partition(protocol: RectangleProtocol):
    """Raise unless the rectangles partition G^t x G^t, naming the least bad pair in (a code, b code) order; an
    overlap before a gap.  Two rectangles share (A_r & A_s) x (B_r & B_s), whose least pair is the least code of
    each AND of packed bits, and disjoint rectangles cover all |G|^(2t) pairs when their |A_r||B_r| sum to that."""
    rects = protocol.rectangles
    shared = [(_least_code(r.a_set.bits & s.a_set.bits), _least_code(r.b_set.bits & s.b_set.bits))
              for i, r in enumerate(rects) for s in rects[:i]]
    if overlaps := [pair for pair in shared if None not in pair]:
        raise OverlappingRectangles("pair (a={}, b={}) multiply covered".format(*min(overlaps)))
    total = rects[0].a_set.group_order ** rects[0].a_set.arity
    if sum(r.a_set.size * r.b_set.size for r in rects) != total**2:
        raise UncoveredProbe("pair (a={}, b={}) not covered".format(*_least_uncovered(rects, total)))


def _least_code(bits: np.ndarray) -> int | None:
    """The least code whose bit is set in packed bits, or None when none is."""
    i = int(np.argmax(bits != 0))
    return 8 * i + int(np.argmax(_unpack(bits[i : i + 1]))) if bits[i] else None


def _least_uncovered(rects: tuple[Rectangle, ...], total: int) -> tuple[int, int]:
    """The least pair of disjoint rectangles that cover fewer than |G|^(2t) pairs: row a is whole when the B_r of
    the A_r holding a sum to |G|^t.  The least short row is found one chunk of a codes at a time."""
    for lo in range(0, total, 8 * _CHUNK_BYTES):
        sizes = sum(_unpack(r.a_set.bits[lo // 8 : lo // 8 + _CHUNK_BYTES]) * r.b_set.size for r in rects)
        if (short := np.flatnonzero(sizes[: total - lo] < total)).size:  # the pad codes past |G|^t are no rows
            a = lo + int(short[0])
            held = [r.b_set.bits for r in rects if r.a_set.contains(np.array([a]))[0]]
            return a, _least_code(~functools.reduce(np.bitwise_or, held, np.zeros_like(rects[0].b_set.bits)))


def advantage(
    protocol: RectangleProtocol,
    table: GroupTable,
    g: int,
    h: int,
    samples: int,
    stream: np.random.Generator,
) -> tuple[float, float]:
    """Monte Carlo acceptance rates (p_g, p_h) of the protocol on the fibers of g and h, by fiber sampling."""
    if samples < 1:
        raise SpecSyntax(f"advantage needs at least one sample, got {samples}")
    arity = protocol.rectangles[0].a_set.arity
    if samples * arity > MAX_MATERIALIZED:
        raise LoopBudgetExceeded(
            f"{samples} samples of arity {arity} exceed the {MAX_MATERIALIZED} materialized tuple entries"
        )
    _check_partition(protocol)
    return tuple(_acceptance(protocol, table, target, arity, stream, samples) for target in (g, h))


def _acceptance(protocol: RectangleProtocol, table: GroupTable, g: int, arity: int, stream, samples: int) -> float:
    """Share of `samples` fiber draws for g in the bit-1 rectangles of the protocol, a checked partition.

    The stream is drawn as fiber_sample draws it: every a first (kept in the narrowest dtype), then
    b's free coordinates.  The pool gets one item per ROW_CHUNK samples, its start and its b draw,
    drawn as the pipeline takes it: the bounded int32 draw takes the stream one value at a time.
    """
    order, mul = table.order, table.full_mul_table()
    completion, ones = mul[mul.argmin(axis=1), g], [r for r in protocol.rectangles if r.bit]
    a_rows = _draw_rows(stream, order, samples, arity, np.min_scalar_type(order - 1))

    def draw(lo):
        return lo, stream.integers(0, order, size=(min(ROW_CHUNK, samples - lo), arity - 1), dtype=np.int32)

    def accept(chunk):  # O(ROW_CHUNK) temporaries
        lo, free = chunk
        a, b = a_rows[lo : lo + len(free)], np.empty((len(free), arity), dtype=np.intp)
        b[:, :-1] = free
        _complete_rows(mul, completion, a, b)
        a_codes, b_codes = encode_tuples(a, order), encode_tuples(b, order)
        del b  # its intp rows are freed before the bit tests run
        return sum(int(np.count_nonzero(r.a_set.contains(a_codes) & r.b_set.contains(b_codes))) for r in ones)

    return sum(_pipeline(accept, map(draw, range(0, samples, ROW_CHUNK)))) / samples


# ---------------------------------------------------------------------------
# file formats


def load_tuple_set(path, table: GroupTable) -> TupleSet:
    header, _, body = read_input_text(path, "tuple-set file").partition("\n")
    m = _parse_header(header.strip())
    if m["group"] != table.spec.label:
        raise SpecSyntax(f"tuple set was built for {m['group']}, not {table.spec.label}")
    arity = parse_int(m["t"], "tuple-set arity t=")
    rows = []
    for line in body.split("\n"):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != arity:
            raise SpecSyntax(f"tuple {line!r} does not have arity {arity}")
        rows.append(tuple(parse_int(p, "tuple entry") for p in parts))
    return explicit_tuple_set(table, rows)


def _parse_header(header: str) -> dict:
    fields = {}
    for chunk in header.split():
        if "=" not in chunk:
            raise SpecSyntax(f"bad tuple-set header {header!r}")
        key, _, value = chunk.partition("=")
        fields[key] = value
    if "t" not in fields or "group" not in fields:
        raise SpecSyntax(f"tuple-set header must carry t= and group=: {header!r}")
    return fields


def load_protocol(path, table: GroupTable) -> RectangleProtocol:
    """Protocol file: one rectangle per line, `bit,<afile>,<bfile>` (paths relative to the file).

    A tuple-set file named the same way on several lines is parsed once, and those rectangles share
    one TupleSet.
    """
    text = read_input_text(path, "protocol file")
    base = os.path.dirname(os.path.abspath(path))
    tuple_set = functools.cache(lambda name: load_tuple_set(os.path.join(base, name), table))
    rects = []
    for line in text.split("\n"):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise SpecSyntax(f"protocol line must be bit,<afile>,<bfile>: {line!r}")
        bit = parse_int(parts[0], "protocol output bit")
        if bit not in (0, 1):
            raise SpecSyntax(f"protocol output bit must be 0 or 1, got {parts[0]}")
        rects.append(Rectangle(a_set=tuple_set(parts[1]), b_set=tuple_set(parts[2]), bit=bit))
    if not rects:
        raise SpecSyntax("protocol file has no rectangles")
    arities = sorted({s.arity for r in rects for s in (r.a_set, r.b_set)})
    if len(arities) > 1:
        raise ArityMismatch(f"protocol tuple sets mix arities {arities}")
    return RectangleProtocol(rectangles=tuple(rects))
