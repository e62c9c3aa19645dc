"""Interleaved products over G^t and the rectangle distinguishing experiment.

A t-tuple pair (a, b) multiplies out as a1 b1 a2 b2 ... at bt.  Tuple sets are
materialized explicitly (as membership masks over the base-|G| codes of G^t) so
densities are exact rationals and exact enumeration is possible within the loop
budget.
The conditional sampler for a fixed product g uses the free-coordinate
bijection: a and b1..b_{t-1} determine b_t, so drawing the free coordinates
uniformly is exactly uniform on the fiber.
"""

from __future__ import annotations

import functools
import math
import os
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
    UnsupportedParameters,
    parse_int,
    read_input_text,
)
from .groups import ROW_CHUNK, GroupTable, pack_digits, unpack_digits

MAX_MATERIALIZED = 64_000_000  # tuples of G^t or sampled tuple entries kept in memory
MIN_MC_SAMPLES = 10**4  # fewest Monte Carlo samples, checked by mc_distribution and `interleave --mc`

_POOL = None  # worker threads of _pmap and _pipeline, one per usable CPU, started by the first kernel that uses them


def _workers() -> int:
    """The number of usable CPUs: the pool's size."""
    if hasattr(os, "sched_getaffinity"):  # Linux: the CPUs this process may run on
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool():
    global _POOL
    if _POOL is None:
        from concurrent.futures import ThreadPoolExecutor  # not at import: `import classmix.cli` starts no pool

        _POOL = ThreadPoolExecutor(_workers())
    return _POOL


def _pmap(fn, items) -> list:
    """[fn(x) for x in items], run on the worker threads; a single item runs on the caller's thread.

    The kernels hand the workers numpy calls that release the interpreter lock (gathers, table
    lookups, bincount, floor division), and each worker writes only its own slice of any shared
    output, so the results do not depend on the number of workers.  Stream draws stay on the
    caller's thread, in the calls and order of a serial loop; the one pipeline rule (`_pipeline`)
    is that the caller submits block k, draws block k + 1, and only then collects block k.
    """
    items = list(items)
    if len(items) <= 1:
        return [fn(x) for x in items]
    return list(_pool().map(fn, items))


def _pipeline(fn, draw, keys) -> list:
    """[fn(x) for key in keys for x in draw(key)], where draw(key) draws a block of items from a stream.

    Block k + 1 is drawn on the caller's thread while the workers run block k, so at most two
    blocks are alive and no item of block k + 1 runs beside one of block k.  A single block has
    nothing to overlap and goes to _pmap.
    """
    if len(keys) <= 1:
        return _pmap(fn, [x for key in keys for x in draw(key)])
    pool, done, pending = _pool(), [], []
    for key in keys:
        block = draw(key)  # drawn while the pending block runs
        done += [f.result() for f in pending]
        pending = [pool.submit(fn, x) for x in block]
    return done + [f.result() for f in pending]


class TupleSet:
    """Subset of G^t held as a membership mask over tuple codes (base |G| digits = coordinates)."""

    def __init__(self, arity: int, group_order: int, mask: np.ndarray):
        self.arity = arity
        self.group_order = group_order
        self.mask = mask  # bool, length |G|^t; entry c is True when the tuple with code c is a member

    @cached_property
    def size(self) -> int:
        return int(np.count_nonzero(self.mask))

    @property
    def density(self) -> Fraction:
        return Fraction(self.size, self.group_order**self.arity)

    @cached_property
    def columns(self) -> np.ndarray:
        """Coordinates, shape (size, arity): column i is coordinate i, each tuple one contiguous row."""
        out = np.empty((self.size, self.arity), dtype=np.min_scalar_type(self.group_order - 1))
        starts = range(0, len(self.mask), ROW_CHUNK)  # no int64 array of every member code at once
        ends = np.cumsum([np.count_nonzero(self.mask[lo : lo + ROW_CHUNK]) for lo in starts])

        def decode(i):  # chunk i fills rows ends[i-1]:ends[i] of out
            codes = np.flatnonzero(self.mask[starts[i] : starts[i] + ROW_CHUNK]) + starts[i]
            out[ends[i] - len(codes) : ends[i]] = decode_tuples(codes, self.arity, self.group_order)

        _pmap(decode, range(len(starts)))
        return out


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
    total = order**arity
    if total > MAX_MATERIALIZED:
        raise LoopBudgetExceeded(f"G^t has {total} tuples; materialization is capped at {MAX_MATERIALIZED}")
    return total


def explicit_tuple_set(table: GroupTable, rows: list[tuple[int, ...]]) -> TupleSet:
    if not rows:
        raise SpecSyntax("tuple set cannot be empty")
    t = len(rows[0])
    if table.order**t > 2**63 - 1:  # codes are int64
        raise UnsupportedParameters(f"|G|^t = {table.order}^{t} tuple codes overflow int64")
    mask = np.zeros(_tuple_count(table.order, t), dtype=bool)
    for r in rows:
        if len(r) != t:
            raise ArityMismatch(f"tuple {r} has arity {len(r)}, expected {t}")
        if any(not (0 <= x < table.order) for x in r):
            raise SpecSyntax(f"element index out of range in tuple {r}")
    mask[encode_tuples(np.array(rows, dtype=np.int64), table.order)] = True
    if np.count_nonzero(mask) != len(rows):
        raise SpecSyntax("duplicate tuples in explicit tuple set")
    return TupleSet(arity=t, group_order=table.order, mask=mask)


def seeded_tuple_set(table: GroupTable, arity: int, density: float, stream: np.random.Generator) -> TupleSet:
    """Uniform random subset of G^t of the given density, materialized explicitly.

    The realized density is exactly round(density * |G|^t) / |G|^t; the draw is
    reproducible from the stream.
    """
    total = _tuple_count(table.order, arity)
    if not (0.0 < density <= 1.0):
        raise SpecSyntax(f"density must lie in (0, 1], got {density}")
    m = max(1, round(density * total))
    return TupleSet(arity=arity, group_order=table.order, mask=_draw_mask(total, m, stream))


_UNSET = np.iinfo(np.uint32).max  # no step swapped into this position; steps are below MAX_MATERIALIZED


def _draw_mask(total: int, m: int, stream: np.random.Generator) -> np.ndarray:
    """Membership mask of stream.choice(total, m, replace=False), leaving the stream where choice does.

    Where numpy's choice takes Floyd's algorithm it holds O(m), and is called.  On its other
    branch, the tail shuffle, choice swaps position i of an int64 arange(total) with a uniform
    j_i <= i, for i = total - 1 down to max(total - m, 1), and returns the last m positions.
    That branch is replayed here: the same draws fill first[y] = the smallest step i != y with
    j_i = y, 4 bytes per code against choice's 12.  A head position y < total - m ends holding
    value y unless a step hit it; if one did, it ends holding the value at the end of the chain
    y -> first[y] -> first[first[y]] -> ..., a tail position.  So the members are the hit head
    positions and every tail position that ends no chain.  A worker fills `first` from one block of
    draws while the caller draws the next.
    """
    if total <= 10_000 or m <= total // 50:  # numpy's own test for Floyd's algorithm
        mask = np.zeros(total, dtype=bool)
        mask[stream.choice(total, size=m, replace=False)] = True
        return mask
    head, stop = total - m, max(total - m, 1)
    first = np.full(total, _UNSET, dtype=np.uint32)

    def draw(hi):  # steps hi - 1 down to the block's end, as choice draws them
        steps = np.arange(hi - 1, max(hi - ROW_CHUNK, stop) - 1, -1, dtype=np.uint32)
        return [(steps, stream.integers(0, steps, endpoint=True))]

    def fill(block):  # one item per block, so first has a single writer
        steps, swaps = block
        moved = swaps != steps
        np.minimum.at(first, swaps[moved], steps[moved])

    _pipeline(fill, draw, range(total, stop, -ROW_CHUNK))
    mask = np.ones(total, dtype=bool)

    def clear_chain_ends(lo):  # chains from distinct head positions end at distinct tail positions
        hit = mask[lo : min(lo + ROW_CHUNK, head)]
        hits = first[lo : lo + len(hit)]
        np.not_equal(hits, _UNSET, out=hit)
        ends = hits[hit]
        live, nxt = np.arange(len(ends)), first.take(ends)
        more = np.flatnonzero(nxt != _UNSET)
        while more.size:  # take and put: about 25% faster here than integer-array indexing
            live = live.take(more)
            ends.put(live, nxt.take(more))
            nxt = first.take(ends.take(live))
            more = np.flatnonzero(nxt != _UNSET)
        mask.put(ends, False)

    _pmap(clear_chain_ends, range(0, head, ROW_CHUNK))
    return mask


def full_tuple_set(table: GroupTable, arity: int) -> TupleSet:
    mask = np.ones(_tuple_count(table.order, arity), dtype=bool)
    return TupleSet(arity=arity, group_order=table.order, mask=mask)


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
    mode: str  # "exact" | "montecarlo"
    linf_dev: float
    stderr: np.ndarray | None = None  # per-cell standard error in MC mode
    work: dict | None = None  # counts of the work done, for run metadata (never in the report)


def _estimate_from_counts(counts: np.ndarray, total: int, order: int, mode: str, work: dict) -> InterleaveEstimate:
    probs = counts / float(total)
    # deviation computed in exact integers: max |counts * |G| - total| / (total * |G|)
    dev_num = int(np.abs(counts * np.int64(order) - total).max())
    linf = dev_num / (total * order) if dev_num else 0.0
    stderr = None
    if mode == "montecarlo":
        stderr = np.sqrt(probs * (1.0 - probs) / total)
    return InterleaveEstimate(
        probs=probs, counts=counts, total=total, mode=mode, linf_dev=float(linf), stderr=stderr, work=work
    )


def exact_distribution(a_set: TupleSet, b_set: TupleSet, table: GroupTable) -> InterleaveEstimate:
    """Exact counts of a . b over all of A x B, within the loop budget (at most 2^53 - 1 pairs).

    a . b = a1 h where h = b1 a2 b2 ... at bt depends on a only through s = (a2..at):
    B is folded once per suffix s into tails[s, h], and pair_counts = firsts^T tails,
    where row s of A's mask viewed as (|G|^(t-1), |G|) is the first-coordinate histogram of s.
    """
    _check_compat(a_set, b_set, table)
    pairs = a_set.size * b_set.size
    limit = min(config.loop_budget(), 2**53 - 1)
    if pairs > limit:
        raise LoopBudgetExceeded(f"{pairs} pairs exceed the loop budget")
    order = table.order
    mul = table.full_mul_table()
    by_suffix = a_set.mask.reshape(-1, order)  # row: suffix code (a2..at), column: a1
    suffixes = np.flatnonzero(by_suffix.any(axis=1))
    per = max(1, ROW_CHUNK // order)  # suffixes per firsts^T tails product, so none is a thin update
    step = max(1, ROW_CHUNK // max(b_set.size, order))  # suffixes per fold block: about ROW_CHUNK products
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
    return _estimate_from_counts(counts, pairs, order, "exact", work)


def mc_distribution(
    a_set: TupleSet,
    b_set: TupleSet,
    samples: int,
    stream: np.random.Generator,
    table: GroupTable,
    block: int = 1_000_000,
) -> InterleaveEstimate:
    """Monte Carlo estimate with uniform draws from A and B, in stream-split blocks.

    The caller's thread draws block k + 1 while the workers gather, chain and count block k's slices.
    """
    _check_compat(a_set, b_set, table)
    if samples < MIN_MC_SAMPLES:
        raise SpecSyntax(f"at least {MIN_MC_SAMPLES} samples required, got {samples}")
    mul, a_cols, b_cols = table.full_mul_table(), a_set.columns, b_set.columns

    def count(drawn):
        a, b = a_cols.take(drawn[0], axis=0), b_cols.take(drawn[1], axis=0)
        return np.bincount(_chain(mul, _interleave(a.T, b.T)), minlength=table.order)

    def draw(lo):  # int32 indices, the same values as int64 ones: |A| and |B| are below MAX_MATERIALIZED
        n = min(block, samples - lo)
        ia = stream.integers(0, a_set.size, size=n, dtype=np.int32)
        ib = stream.integers(0, b_set.size, size=n, dtype=np.int32)
        return [(ia[i : i + ROW_CHUNK], ib[i : i + ROW_CHUNK]) for i in range(0, n, ROW_CHUNK)]

    counts = np.sum(_pipeline(count, draw, range(0, samples, block)), axis=0, dtype=np.int64)
    return _estimate_from_counts(counts, samples, table.order, "montecarlo", {"samples": samples})


def _check_compat(a_set: TupleSet, b_set: TupleSet, table: GroupTable):
    if a_set.arity != b_set.arity:
        raise ArityMismatch(f"arity {a_set.arity} vs {b_set.arity}")
    if a_set.group_order != table.order or b_set.group_order != table.order:
        raise SpecSyntax("tuple sets were built over a different group order")


# ---------------------------------------------------------------------------
# deviation shapes


class DeviationReport(NamedTuple):
    """l-infinity deviation and the implied decay exponent at desk scale.

    normalized = D * alpha * beta * |G|; the implied exponent solves
    normalized = base^(-c * t) with base = n (alternating) or q (Lie type,
    rank folded in by the caller through t).  c > 0 is the qualitative pass.
    """

    linf_dev: float
    alpha: float
    beta: float
    order: int
    arity: int
    family: str
    base: float
    normalized: float
    implied_exponent: float  # inf when the deviation is exactly 0


def deviation_report(
    estimate: InterleaveEstimate,
    alpha: float,
    beta: float,
    family: str,
    base: float,
    arity: int,
) -> DeviationReport:
    order = len(estimate.probs)
    normalized = estimate.linf_dev * alpha * beta * order
    if normalized <= 0.0:
        implied = math.inf
    else:
        implied = -math.log(normalized) / (arity * math.log(base))
    return DeviationReport(
        linf_dev=estimate.linf_dev,
        alpha=alpha,
        beta=beta,
        order=order,
        arity=arity,
        family=family,
        base=float(base),
        normalized=float(normalized),
        implied_exponent=implied,
    )


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
    if arity > 1:
        b_rows[:, : arity - 1] = stream.integers(0, table.order, size=(draws, arity - 1))
    _complete_rows(table.full_mul_table(), table.inverses, a_rows, b_rows, g)
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


def _complete_rows(mul: np.ndarray, inverses: np.ndarray, a: np.ndarray, b: np.ndarray, g: int):
    """Fill b_t with the unique completion: prefix = a1 b1 ... b_{t-1} a_t, b_t = prefix^-1 g."""
    prefix = _chain(mul, _interleave(a.T, b.T)[:-1])
    b[:, -1] = _chain(mul, [inverses[prefix], g])


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

    def cover(self, a_codes: np.ndarray, b_codes: np.ndarray):
        """Output bits (-1 where no rectangle covers the pair), then the first multiply covered and the first
        uncovered pair, each as (a code, b code) or None."""
        bits = np.full(len(a_codes), -1, dtype=np.int8)
        twice = np.zeros(len(a_codes), dtype=bool)
        for rect in self.rectangles:
            mask = rect.a_set.mask.take(a_codes) & rect.b_set.mask.take(b_codes)
            twice |= mask & (bits >= 0)
            bits[mask] = rect.bit
        return bits, _first_pair(twice, a_codes, b_codes), _first_pair(bits < 0, a_codes, b_codes)


def _first_pair(flags: np.ndarray, a_codes: np.ndarray, b_codes: np.ndarray) -> tuple[int, int] | None:
    if not flags.any():
        return None
    i = int(np.argmax(flags))
    return int(a_codes[i]), int(b_codes[i])


def _check_cover(twice: tuple[int, int] | None, uncovered: tuple[int, int] | None):
    """Raise on a multiply covered pair before an uncovered one."""
    if twice is not None:
        raise OverlappingRectangles(f"pair (a={twice[0]}, b={twice[1]}) multiply covered")
    if uncovered is not None:
        raise UncoveredProbe(f"pair (a={uncovered[0]}, b={uncovered[1]}) not covered")


class AdvantageReport(NamedTuple):
    p_g: float
    p_h: float
    advantage: float
    stderr: float
    bit_budget: int
    samples: int


def advantage(
    protocol: RectangleProtocol,
    table: GroupTable,
    g: int,
    h: int,
    samples: int,
    stream: np.random.Generator,
) -> AdvantageReport:
    """Monte Carlo |p_g - p_h| via conditional fiber sampling."""
    if samples < 1:
        raise SpecSyntax(f"advantage needs at least one sample, got {samples}")
    arity = protocol.rectangles[0].a_set.arity
    if samples * arity > MAX_MATERIALIZED:
        raise LoopBudgetExceeded(
            f"{samples} samples of arity {arity} exceed the {MAX_MATERIALIZED} materialized tuple entries"
        )
    p_g, p_h = (_acceptance(protocol, table, target, arity, stream, samples) for target in (g, h))
    se = math.sqrt((p_g * (1 - p_g) + p_h * (1 - p_h)) / samples)
    return AdvantageReport(
        p_g=p_g,
        p_h=p_h,
        advantage=abs(p_g - p_h),
        stderr=se,
        bit_budget=protocol.bit_budget,
        samples=samples,
    )


def _acceptance(protocol: RectangleProtocol, table: GroupTable, g: int, arity: int, stream, samples: int) -> float:
    """Share of `samples` fiber draws for g that the protocol accepts; raises on the first bad pair in draw order.

    The stream is drawn as fiber_sample draws it: every a first (kept in the narrowest dtype), then
    b's free coordinates, one chunk per worker at a time, while the workers complete, encode and
    evaluate the chunks drawn before.
    """
    order, mul, inverses = table.order, table.full_mul_table(), table.inverses
    a_rows = _draw_rows(stream, order, samples, arity, np.min_scalar_type(order - 1))
    per = ROW_CHUNK * _workers()

    def draw(lo):
        free = stream.integers(0, order, size=(min(per, samples - lo), arity - 1), dtype=np.int32)
        return [(lo + i, free[i : i + ROW_CHUNK]) for i in range(0, len(free), ROW_CHUNK)]

    def accept(chunk):  # O(ROW_CHUNK) temporaries
        lo, free = chunk
        a, b = a_rows[lo : lo + len(free)], np.empty((len(free), arity), dtype=np.intp)
        b[:, :-1] = free
        _complete_rows(mul, inverses, a, b, g)
        bits, twice, uncovered = protocol.cover(encode_tuples(a, order), encode_tuples(b, order))
        return int(np.count_nonzero(bits > 0)), twice, uncovered

    accepted, twice, uncovered = zip(*_pipeline(accept, draw, range(0, samples, per)))
    _check_cover(*(next(filter(None, pairs), None) for pairs in (twice, uncovered)))
    return sum(accepted) / samples


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
