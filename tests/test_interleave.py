import json
import math
import os
import re
import sys
import threading
import tracemalloc
import types
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from classmix import interleave
from classmix.cli import main
from classmix.errors import (
    ArityMismatch,
    LoopBudgetExceeded,
    OverlappingRectangles,
    SpecSyntax,
    UncoveredProbe,
)
from classmix.groups import GroupSpec, group_build
from classmix.interleave import (
    Rectangle,
    RectangleProtocol,
    TupleSet,
    advantage,
    exact_distribution,
    explicit_tuple_set,
    encode_tuples,
    fiber_sample,
    load_protocol,
    load_tuple_set,
    mc_distribution,
    seeded_tuple_set,
)
from classmix.rng import make_stream

from _oracles import (
    decode_fold_mc_counts,
    enumerate_fiber,
    evaluate_codes,
    exact_conditional_acceptance,
    fold_exact_counts,
    full_tuple_set,
    interleave_product,
    mask_of,
    packed,
    rectangle_bound_check,
    save_tuple_set,
    tuple_rows,
    validate_protocol_exact,
    whole_array_acceptance,
)


@pytest.fixture(scope="module")
def s3():
    return group_build(GroupSpec.sym(3))


@pytest.fixture(scope="module")
def a5():
    return group_build(GroupSpec.alt(5))


def test_interleave_identity_tuples(s3):
    assert interleave_product(s3, (0, 0, 0), (0, 0, 0)) == 0


def test_interleave_matches_unrolled_product(s3):
    mul = s3.full_mul_table()
    stream = make_stream(1)
    for _ in range(100):
        a = [int(x) for x in stream.integers(0, s3.order, size=2)]
        b = [int(x) for x in stream.integers(0, s3.order, size=2)]
        direct = mul[mul[mul[a[0], b[0]], a[1]], b[1]]
        assert interleave_product(s3, a, b) == direct


def test_interleave_inverse_tuple_gives_identity(s3):
    stream = make_stream(2)
    for _ in range(50):
        a = [int(x) for x in stream.integers(0, s3.order, size=3)]
        b = [int(s3.inverses[x]) for x in a]
        # sequential cancellation requires interleaving a_i with its own inverse
        assert interleave_product(s3, a, b) == 0


def test_arity_mismatch(s3):
    a = explicit_tuple_set(s3, [(0, 1)])
    b = explicit_tuple_set(s3, [(0, 1, 2)])
    with pytest.raises(ArityMismatch):
        exact_distribution(a, b, s3)
    with pytest.raises(ArityMismatch):
        mc_distribution(a.columns, b.columns, 10**4, make_stream(0), s3)


def test_tuple_sets_from_another_group(s3, a5):
    """Coordinates beyond the table's group are refused by both kernels, before any product."""
    a = explicit_tuple_set(a5, [(0, 59)])
    with pytest.raises(SpecSyntax):
        exact_distribution(a, a, s3)
    with pytest.raises(SpecSyntax):
        mc_distribution(a.columns, a.columns, 10**4, make_stream(0), s3)


def test_full_density_exactly_uniform(s3):
    full = full_tuple_set(s3, 2)
    est = exact_distribution(full, full, s3)
    assert est.linf_dev == 0.0
    assert np.all(est.counts == est.counts[0])


def test_point_mass(s3):
    a = explicit_tuple_set(s3, [(1, 2)])
    b = explicit_tuple_set(s3, [(3, 4)])
    est = exact_distribution(a, b, s3)
    target = interleave_product(s3, (1, 2), (3, 4))
    assert est.probs[target] == 1.0
    assert est.linf_dev == pytest.approx(1.0 - 1.0 / s3.order)


def test_exact_distribution_matches_naive_loop(s3):
    stream = make_stream(9)
    a = seeded_tuple_set(s3, 2, 0.5, stream)
    b = seeded_tuple_set(s3, 2, 0.5, stream)
    est = exact_distribution(a, b, s3)
    counts = [0] * s3.order
    for ra in tuple_rows(a):
        for rb in tuple_rows(b):
            counts[interleave_product(s3, ra, rb)] += 1
    assert list(est.counts) == counts
    assert sum(counts) == a.size * b.size


def _pair_loop_counts(table, a_set, b_set):
    counts = np.zeros(table.order, dtype=np.int64)
    for ra in tuple_rows(a_set):
        for rb in tuple_rows(b_set):
            counts[interleave_product(table, ra, rb)] += 1
    return counts


def _exact_shapes(table, t, stream):
    """(A, B) pairs: singletons, A on one shared suffix, A on distinct suffixes, and small G^t."""
    order = table.order

    def draw():
        return tuple(int(x) for x in stream.integers(0, order, size=t))

    b_set = seeded_tuple_set(table, t, min(1.0, 30 / order**t), stream)
    suffix = draw()[1:]
    suffixes = {draw()[1:] for _ in range(40)}
    shapes = [
        (explicit_tuple_set(table, [draw()]), explicit_tuple_set(table, [draw()])),
        (explicit_tuple_set(table, [(x, *suffix) for x in range(order)]), b_set),
        (explicit_tuple_set(table, [(int(stream.integers(order)), *s) for s in suffixes]), b_set),
    ]
    if t <= 2 and order ** (2 * t) <= 5000:
        shapes.append((full_tuple_set(table, t), full_tuple_set(table, t)))
    return shapes


@pytest.mark.parametrize("label", ["S:3", "A:5"])
@pytest.mark.parametrize("t", [1, 2, 3])
def test_exact_distribution_matches_pair_loop(group_cache, label, t):
    table = group_cache(label)[0]
    for a_set, b_set in _exact_shapes(table, t, make_stream(60 + t)):
        est = exact_distribution(a_set, b_set, table)
        assert np.array_equal(est.counts, _pair_loop_counts(table, a_set, b_set))
        assert est.total == a_set.size * b_set.size


@pytest.mark.parametrize(
    "label,t,density,dtype,chunk_sizes",
    [
        ("A:5", 2, 1.0, np.uint8, (1, 7)),
        ("A:5", 3, 0.01, np.uint8, (1, 7)),
        ("PSL2:7", 2, 0.05, np.uint8, (1, 7)),
        ("PSL2:17", 2, 1e-4, np.uint16, ()),
    ],
    ids=["A5-t2-full", "A5-t3", "PSL27-t2", "PSL217-t2-uint16"],
)
def test_exact_distribution_matches_per_tuple_fold(monkeypatch, label, t, density, dtype, chunk_sizes):
    table = group_build(GroupSpec.parse(label))
    a_set = seeded_tuple_set(table, t, density, make_stream(70))
    b_set = seeded_tuple_set(table, t, density, make_stream(71))
    assert a_set.columns.dtype == dtype
    a_codes, b_codes = np.flatnonzero(mask_of(a_set)), np.flatnonzero(mask_of(b_set))
    reference = fold_exact_counts(table.full_mul_table(), a_codes, b_codes, t)
    assert np.array_equal(exact_distribution(a_set, b_set, table).counts, reference)
    for suffixes_per_chunk in chunk_sizes:
        monkeypatch.setattr(interleave, "ROW_CHUNK", suffixes_per_chunk * max(b_set.size, table.order))
        assert np.array_equal(exact_distribution(a_set, b_set, table).counts, reference)


@pytest.mark.parametrize("label,t,chunk", [("S:3", 3, 20), ("A:5", 2, 150), ("A:5", 2, 59)])
def test_exact_distribution_batches_tail_products(monkeypatch, group_cache, label, t, chunk):
    """With |B| > ROW_CHUNK a fold block holds one suffix, yet the tails products still take ROW_CHUNK // |G| rows."""
    table = group_cache(label)[0]
    a_set = seeded_tuple_set(table, t, 0.5, make_stream(72))
    b_set = seeded_tuple_set(table, t, 0.5, make_stream(73))
    assert b_set.size > chunk
    monkeypatch.setattr(interleave, "ROW_CHUNK", chunk)
    est = exact_distribution(a_set, b_set, table)
    if table.order <= 6:
        reference = _pair_loop_counts(table, a_set, b_set)
    else:
        a_codes, b_codes = np.flatnonzero(mask_of(a_set)), np.flatnonzero(mask_of(b_set))
        reference = fold_exact_counts(table.full_mul_table(), a_codes, b_codes, t)
    assert np.array_equal(est.counts, reference)
    rows = max(1, chunk // table.order)
    assert est.work["tail_products"] == math.ceil(est.work["suffixes"] / rows)


@pytest.mark.parametrize("t", [2, 3])
def test_mc_distribution_matches_decode_fold_loop(monkeypatch, a5, t):
    a_set = seeded_tuple_set(a5, t, 0.5, make_stream(80))
    b_set = seeded_tuple_set(a5, t, 0.5, make_stream(81))
    monkeypatch.setattr(interleave, "MC_BLOCK", 12_345)
    est = mc_distribution(a_set.columns, b_set.columns, 50_000, make_stream(82), a5)
    mul = a5.full_mul_table()
    a_codes, b_codes = np.flatnonzero(mask_of(a_set)), np.flatnonzero(mask_of(b_set))
    reference = decode_fold_mc_counts(mul, a_codes, b_codes, t, 50_000, make_stream(82), 12_345)
    assert np.array_equal(est.counts, reference)


def test_exact_budget_guard(s3, monkeypatch):
    full = full_tuple_set(s3, 2)
    monkeypatch.setenv("MIXER_LOOP_BUDGET", "100")
    with pytest.raises(LoopBudgetExceeded):
        exact_distribution(full, full, s3)


def test_mixture_identity(s3):
    """Splitting A into halves recovers the exact mixture of distributions."""
    stream = make_stream(21)
    a = seeded_tuple_set(s3, 2, 0.5, stream)
    b = seeded_tuple_set(s3, 2, 0.5, stream)
    rows = tuple_rows(a)
    half = len(rows) // 2
    a1 = explicit_tuple_set(s3, [tuple(r) for r in rows[:half]])
    a2 = explicit_tuple_set(s3, [tuple(r) for r in rows[half:]])
    est = exact_distribution(a, b, s3)
    est1 = exact_distribution(a1, b, s3)
    est2 = exact_distribution(a2, b, s3)
    assert np.array_equal(est1.counts + est2.counts, est.counts)


def test_mc_agrees_with_exact(s3):
    stream = make_stream(33)
    a = seeded_tuple_set(s3, 2, 0.5, stream)
    b = seeded_tuple_set(s3, 2, 0.5, stream)
    exact = exact_distribution(a, b, s3)
    mc = mc_distribution(a.columns, b.columns, 200_000, make_stream(34), s3)
    for g in range(s3.order):
        se = max(math.sqrt(mc.probs[g] * (1.0 - mc.probs[g]) / mc.total), 1e-9)
        assert abs(mc.probs[g] - exact.probs[g]) < 4 * se


def test_mc_determinism(s3):
    a = seeded_tuple_set(s3, 2, 0.5, make_stream(40))
    b = seeded_tuple_set(s3, 2, 0.5, make_stream(41))
    m1 = mc_distribution(a.columns, b.columns, 50_000, make_stream(42), s3)
    m2 = mc_distribution(a.columns, b.columns, 50_000, make_stream(42), s3)
    assert np.array_equal(m1.counts, m2.counts)


def test_mc_requires_min_samples(s3):
    a = full_tuple_set(s3, 2)
    with pytest.raises(SpecSyntax):
        mc_distribution(a.columns, a.columns, 100, make_stream(0), s3)


def test_seeded_tuple_set_reproducible(s3):
    t1 = seeded_tuple_set(s3, 2, 0.5, make_stream(7))
    t2 = seeded_tuple_set(s3, 2, 0.5, make_stream(7))
    assert np.array_equal(t1.bits, t2.bits)
    assert t1.density == Fraction(18, 36)


@pytest.mark.parametrize(
    "label,t,density",
    [("S:3", 2, 0.5), ("A:5", 3, 0.01), ("A:5", 4, 0.5), ("PSL2:7", 2, 0.5)],
    ids=["S3-t2", "A5-t3-floyd", "A5-t4-tail-shuffle", "PSL27-t2"],
)
def test_seeded_tuple_set_is_the_sorted_choice(label, t, density):
    """The bits hold exactly numpy's choice draw, one bit per tuple, and leave the caller's stream where the draw
    left it."""
    table = group_build(GroupSpec.parse(label))
    total = table.order**t
    stream, reference = make_stream(90), make_stream(90)
    tset = seeded_tuple_set(table, t, density, stream)
    expected = np.sort(reference.choice(total, size=max(1, round(density * total)), replace=False))
    codes = np.flatnonzero(mask_of(tset))
    assert codes.dtype == np.int64 and np.array_equal(codes, expected)
    assert stream.bit_generator.state == reference.bit_generator.state
    assert tset.bits.dtype == np.uint8 and tset.bits.shape == (-(-total // 8),) and tset.size == len(expected)


@pytest.mark.parametrize("t", [2, 4], ids=["at-most-10000-tuples", "over-10000-tuples"])
def test_seeded_tuple_set_density_rounding_to_zero_draws_one_tuple(a5, t):
    """A density below half a tuple still draws one: the set holds max(1, round(density |G|^t)) tuples.  A:5 has
    3,600 pairs and 12,960,000 4-tuples; with one tuple, both take choice's Floyd branch."""
    total = a5.order**t
    stream, reference = make_stream(91), make_stream(91)
    tset = seeded_tuple_set(a5, t, 1e-300, stream)
    assert tset.size == 1 and tset.density == Fraction(1, total)
    assert np.flatnonzero(mask_of(tset)).tolist() == reference.choice(total, size=1, replace=False).tolist()
    assert stream.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("label,t", [("trivial", 1), ("trivial", 2), ("trivial", 3), ("S:3", 1)])
def test_bits_pad_stays_zero(tmp_path, label, t):
    """|G|^t % 8 != 0 leaves pad bits in the last byte: every producer keeps them zero, so a held set is
    ceil(|G|^t / 8) bytes and its size is the count of the unpacked mask."""
    if label == "trivial":  # the trivial group, as a permgen file
        (tmp_path / "g.txt").write_text("n=3\n()\n")
        label = f"permgen:{tmp_path / 'g.txt'}"
    table = group_build(GroupSpec.parse(label))
    total = table.order**t
    assert total % 8
    sets = [seeded_tuple_set(table, t, alpha, make_stream(119)) for alpha in (0.5, 1.0)]
    sets.append(explicit_tuple_set(table, [(table.order - 1,) * t]))
    for tset in sets:
        assert tset.bits.dtype == np.uint8 and tset.bits.nbytes == -(-total // 8)
        assert not np.unpackbits(tset.bits, bitorder="little")[total:].any()
        assert tset.size == np.count_nonzero(mask_of(tset)) == np.count_nonzero(np.unpackbits(tset.bits))
    assert sets[1].size == total
    assert main(["interleave", label, "--t", str(t), "--alpha", "1", "--quiet", "--out", str(tmp_path)]) == 0
    meta = json.loads(next(tmp_path.glob("interleave__*.meta.json")).read_text())
    assert meta["tuple_set_bytes"] == 2 * -(-total // 8)


@pytest.mark.parametrize("label,t", [("A:5", 1), ("A:5", 2), ("S:3", 3)])
def test_cover_bit_test_reads_the_unpacked_masks(label, t):
    """cover reads one bit per code; on random codes it gives what the unpacked masks give, overlaps and gaps too."""
    table = group_build(GroupSpec.parse(label))
    total = table.order**t
    sets = [seeded_tuple_set(table, t, density, make_stream(120 + i)) for i, density in enumerate((0.5, 0.3, 0.7))]
    protocol = RectangleProtocol((Rectangle(sets[0], sets[1], 1), Rectangle(sets[2], sets[0], 0)))
    a_codes, b_codes = (make_stream(s).integers(0, total, size=20_000) for s in (124, 125))
    for tset in sets:
        assert np.array_equal(tset.contains(a_codes), mask_of(tset)[a_codes])
    bits, twice = np.full(len(a_codes), -1, dtype=np.int8), np.zeros(len(a_codes), dtype=bool)
    for rect in protocol.rectangles:
        inside = mask_of(rect.a_set)[a_codes] & mask_of(rect.b_set)[b_codes]
        twice |= inside & (bits >= 0)
        bits[inside] = rect.bit
    got, first_twice, first_uncovered = protocol.cover(a_codes, b_codes)
    assert np.array_equal(got, bits) and twice.any() and (bits < 0).any()
    i, j = np.argmax(twice), np.argmax(bits < 0)
    assert first_twice == (a_codes[i], b_codes[i]) and first_uncovered == (a_codes[j], b_codes[j])


class _RecordingStream:
    """Forwards to a Generator and records the names of the methods called on it."""

    def __init__(self, stream):
        self.stream, self.calls = stream, set()

    def __getattr__(self, name):
        self.calls.add(name)
        return getattr(self.stream, name)


@pytest.mark.parametrize(
    "total,m,method,chunk",
    [
        (10001, 200, "choice", 1 << 16),
        (10001, 201, "integers", 1 << 16),
        (10001, 10000, "integers", 1 << 16),
        (10001, 10001, "integers", 1 << 16),
        (200000, 4000, "choice", 1 << 16),
        (200000, 4001, "integers", 1 << 16),
        (60**4, 60**4 // 2, "integers", 7777),
    ],
    ids=["floyd", "tail", "tail-m1", "tail-no-head", "floyd-200k", "tail-200k", "A5-t4-7777"],
)
def test_draw_mask_at_choice_branch_edges(monkeypatch, total, m, method, chunk):
    """numpy's choice runs Floyd's algorithm up to m = total // 50 and the tail shuffle past it, which the replay
    draws through `integers`.  m = total has no head, and its last step bound is 1.  Blocks of 7777 divide
    neither the head of A:5 t=4 nor its step count, so the last head slice stops inside a block.  With 3 workers
    several swap fills contend for the lock on `first`."""
    monkeypatch.setattr(interleave, "ROW_CHUNK", chunk)
    expected = np.zeros(total, dtype=bool)
    reference = make_stream(93)
    expected[reference.choice(total, size=m, replace=False)] = True
    for workers in (1, 3):
        monkeypatch.setattr(interleave, "_workers", lambda: workers)
        stream = make_stream(93)
        recorder = _RecordingStream(stream)
        with ThreadPoolExecutor(workers) as pool:
            monkeypatch.setattr(interleave, "_POOL", pool)
            bits = interleave._draw_bits(total, m, recorder)
        assert np.array_equal(bits, packed(expected)), workers
        assert stream.bit_generator.state == reference.bit_generator.state
        assert recorder.calls == {method}


def test_swap_fills_hold_the_one_lock(monkeypatch):
    """Every swap fill of the tail-shuffle branch runs under the one lock that _draw_bits makes, and the lock never
    has two holders.  A stand-in for threading.Lock, a real lock that counts its entries and holders, makes this a
    count rather than a race: a fill outside the lock, or under a lock of its own, is caught on every run."""
    total, m, chunk = 200_000, 100_000, 7777
    monkeypatch.setattr(interleave, "ROW_CHUNK", chunk)
    seen = Counter()  # entries, current holders and the most holders at once, over every lock made
    made, guard = [], threading.Lock()

    class RecordingLock:
        def __init__(self):
            self.lock = threading.Lock()
            made.append(self)

        def __enter__(self):
            self.lock.acquire()
            with guard:
                seen["entries"] += 1
                seen["holders"] += 1
                seen["most"] = max(seen["most"], seen["holders"])

        def __exit__(self, *exc):
            with guard:
                seen["holders"] -= 1
            self.lock.release()

    monkeypatch.setattr(interleave, "threading", types.SimpleNamespace(Lock=RecordingLock))
    monkeypatch.setattr(interleave, "_workers", lambda: 3)
    stream, reference = make_stream(97), make_stream(97)
    with ThreadPoolExecutor(3) as pool:
        monkeypatch.setattr(interleave, "_POOL", pool)
        bits = interleave._draw_bits(total, m, stream)
    expected = np.zeros(total, dtype=bool)
    expected[reference.choice(total, size=m, replace=False)] = True
    assert np.array_equal(bits, packed(expected))
    assert stream.bit_generator.state == reference.bit_generator.state
    assert len(made) == 1
    assert seen == {"entries": len(range(total, total - m, -chunk)), "holders": 0, "most": 1}


@pytest.mark.parametrize(
    "hi,stop",
    [(60**4, 60**4 // 2), (5000, 1), (interleave.MAX_MATERIALIZED, interleave.MAX_MATERIALIZED - 200_000)],
    ids=["A5-t4", "to-step-1", "near-cap"],
)
def test_swap_draws_in_int32_equal_the_int64_draw(hi, stop):
    """_draw_bits draws each block's swaps as int32 against array bounds: for every block of steps hi - 1 down to
    stop, as its `draw` makes them, the values and the stream state after them are those of the int64 call."""
    s32, s64 = make_stream(119), make_stream(119)
    for top in range(hi, stop, -interleave.ROW_CHUNK):
        steps = np.arange(top - 1, max(top - interleave.ROW_CHUNK, stop) - 1, -1, dtype=np.uint32)
        swaps = s32.integers(0, steps, endpoint=True, dtype=np.int32)
        assert swaps.dtype == np.int32 and np.array_equal(swaps, s64.integers(0, steps, endpoint=True))
        assert s32.bit_generator.state == s64.bit_generator.state
    assert steps[-1] == stop


def test_seeded_tuple_sets_from_a_shared_stream(s3):
    stream, reference = make_stream(9), make_stream(9)
    a = seeded_tuple_set(s3, 2, 0.5, stream)
    b = seeded_tuple_set(s3, 2, 0.5, stream)
    for tset in (a, b):
        assert np.array_equal(np.flatnonzero(mask_of(tset)), np.sort(reference.choice(36, size=18, replace=False)))
    assert stream.bit_generator.state == reference.bit_generator.state


def test_columns_decode_in_chunks(monkeypatch, a5):
    """A ragged prime chunk: 97 codes round up to 13 bytes, so 2,077 chunks of 104 codes, 717 of them empty, the
    last holding 96."""
    monkeypatch.setattr(interleave, "ROW_CHUNK", 97)
    tset = seeded_tuple_set(a5, 3, 0.01, make_stream(91))
    assert np.array_equal(tset.columns, interleave.decode_tuples(np.flatnonzero(mask_of(tset)), 3, a5.order))
    assert tset.columns.dtype == np.uint8


@pytest.mark.parametrize("workers", [1, 3])
def test_pipeline_holds_a_window_of_lazy_items(monkeypatch, workers):
    """Results come back in item order; items are taken one at a time from a lazy iterator, as the pipeline needs
    them; and at most 2 x workers are taken but not yet yielded, and at some point exactly that many are."""
    log = []  # the caller's takes and yields, in order

    def items():
        for i in range(23):
            log.append(("take", i))
            yield i

    monkeypatch.setattr(interleave, "_workers", lambda: workers)
    with ThreadPoolExecutor(workers) as pool:
        monkeypatch.setattr(interleave, "_POOL", pool)
        results, pipeline = [], interleave._pipeline(lambda item: item, items())
        assert not log  # nothing is taken before the caller asks for a result
        for item in pipeline:
            log.append(("yield", item))
            results.append(item)
    assert results == list(range(23))
    assert [i for kind, i in log if kind == "take"] == results
    held = np.cumsum([1 if kind == "take" else -1 for kind, _ in log])  # taken but not yet yielded
    assert held.max() == 2 * workers and held[-1] == 0
    assert log[: 2 * workers + 1] == [("take", i) for i in range(2 * workers)] + [("yield", 0)]


class _CountingPool(ThreadPoolExecutor):
    """Thread pool that counts the tasks handed to it, by the name of the function each task runs."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.tasks = Counter()

    def submit(self, fn, *args, **kwargs):
        self.tasks[fn.__name__] += 1
        return super().submit(fn, *args, **kwargs)


def _fanned_out(pool, kernel, *names):
    """kernel(), after checking that it handed the pool more than one task, and more than one of each named task."""
    pool.tasks.clear()
    result = kernel()
    assert pool.tasks.total() > 1 and all(pool.tasks[name] > 1 for name in names), pool.tasks
    return result


def _kernel_results(monkeypatch, table, workers):
    """Seeded bits, MC counts, decoded columns, fiber rows and an advantage report, on a pool of `workers` threads.

    The pipelined kernels (the swap fill of a seeded draw, the MC counts and the acceptance chunks) must each hand
    the pool more than one task of their own; fiber_sample runs on the calling thread."""
    monkeypatch.setattr(interleave, "MC_BLOCK", 12_345)
    with _CountingPool(workers) as pool:
        monkeypatch.setattr(interleave, "_POOL", pool)
        a_set = _fanned_out(pool, lambda: seeded_tuple_set(table, 3, 0.5, make_stream(96)), "fill", "clear_chain_ends")
        b_set = _fanned_out(pool, lambda: seeded_tuple_set(table, 3, 0.5, make_stream(97)), "fill", "clear_chain_ends")
        a_cols = _fanned_out(pool, lambda: a_set.columns)
        b_cols = _fanned_out(pool, lambda: b_set.columns)
        mc = _fanned_out(pool, lambda: mc_distribution(a_cols, b_cols, 50_000, make_stream(98), table), "count")
        fresh = _fanned_out(pool, lambda: TupleSet(a_set.arity, a_set.group_order, a_set.bits).columns)
        fiber = fiber_sample(table, 7, 3, make_stream(99), draws=40_000)
        protocol = _half_split_protocol(table)
        report = _fanned_out(
            pool, lambda: advantage(protocol, table, 0, 5, samples=30_000, stream=make_stream(100)), "accept"
        )
    return (a_set.bits, b_set.bits, mc.counts, fresh, a_cols, b_cols, *fiber, report)


def test_kernels_do_not_depend_on_worker_count(monkeypatch, a5):
    """More workers than cores, switching threads often: each worker's slice of the output stays its own."""
    monkeypatch.setattr(interleave, "ROW_CHUNK", 7777)  # several slices per block and set, draw calls per fiber
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        one = _kernel_results(monkeypatch, a5, 1)
        three = _kernel_results(monkeypatch, a5, 3)
    finally:
        sys.setswitchinterval(interval)
    for x, y in zip(one[:-1], three[:-1]):
        assert x.dtype == y.dtype and np.array_equal(x, y)
    assert one[-1] == three[-1]
    total = a5.order**3
    a_codes, b_codes = (np.sort(make_stream(s).choice(total, size=total // 2, replace=False)) for s in (96, 97))
    assert np.array_equal(np.flatnonzero(np.unpackbits(one[0], bitorder="little")), a_codes)
    assert np.array_equal(np.flatnonzero(np.unpackbits(one[1], bitorder="little")), b_codes)
    assert np.array_equal(one[3], interleave.decode_tuples(a_codes, 3, a5.order))
    reference = decode_fold_mc_counts(a5.full_mul_table(), a_codes, b_codes, 3, 50_000, make_stream(98), 12_345)
    assert np.array_equal(one[2], reference)
    a_rows, b_rows = one[6], one[7]
    assert all(interleave_product(a5, ra, rb) == 7 for ra, rb in zip(a_rows[::997], b_rows[::997]))


def test_pool_without_sched_getaffinity(monkeypatch, a5):
    """Where os has no sched_getaffinity (macOS, Windows) the pool takes os.cpu_count() workers, same counts."""
    monkeypatch.setattr(interleave, "ROW_CHUNK", 7777)
    a_set = seeded_tuple_set(a5, 3, 0.5, make_stream(96))
    b_set = seeded_tuple_set(a5, 3, 0.5, make_stream(97))
    a_codes, b_codes = np.flatnonzero(mask_of(a_set)), np.flatnonzero(mask_of(b_set))
    reference = decode_fold_mc_counts(a5.full_mul_table(), a_codes, b_codes, 3, 50_000, make_stream(98), 12_345)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setattr(interleave, "_POOL", None)
    monkeypatch.setattr(interleave, "MC_BLOCK", 12_345)
    try:
        again = seeded_tuple_set(a5, 3, 0.5, make_stream(96))
        assert interleave._POOL._max_workers == interleave._workers() == 3
        mc = mc_distribution(a_set.columns, b_set.columns, 50_000, make_stream(98), a5)
    finally:
        if interleave._POOL is not None:
            interleave._POOL.shutdown()
    assert np.array_equal(again.bits, a_set.bits)
    assert np.array_equal(mc.counts, reference)


def test_seeded_tuple_set_memory(monkeypatch, a5):
    """A held set costs one bit per tuple of G^t; drawing a second holds 4 1/8 bytes more: `first` (uint32) and its
    bits.

    tracemalloc counts numpy's data buffers exactly, so these bounds do not depend on the allocator.  Two
    workers fix how many chain slices hold their O(ROW_CHUNK) transients at once.
    """
    total = a5.order**4
    streams = make_stream(92), make_stream(93)  # made first: the first stream imports numpy.random, about 0.7 MB
    with ThreadPoolExecutor(2) as pool:
        monkeypatch.setattr(interleave, "_POOL", pool)
        tracemalloc.start()
        try:
            held = seeded_tuple_set(a5, 4, 0.5, streams[0])
            current, _ = tracemalloc.get_traced_memory()
            second = seeded_tuple_set(a5, 4, 0.5, streams[1])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert current <= total // 8 + (64 << 10)
    assert peak <= 4 * total + total // 4 + (4 << 20)
    assert held.size == second.size == total // 2


def test_mc_distribution_index_memory(monkeypatch, a5):
    """Monte Carlo holds at most 2 x workers pairs of int32 index slices (8 bytes per sample) plus each worker's
    O(ROW_CHUNK) slice transients, whatever the block size: A's block is replayed, not held."""
    a_set, b_set = (seeded_tuple_set(a5, 4, 0.5, make_stream(s)) for s in (106, 107))
    a_set.columns, b_set.columns, a5.full_mul_table()
    workers, chunk = 2, interleave.ROW_CHUNK
    monkeypatch.setattr(interleave, "_workers", lambda: workers)
    for block in (500_000, 1_000_000):
        monkeypatch.setattr(interleave, "MC_BLOCK", block)
        with ThreadPoolExecutor(workers) as pool:
            monkeypatch.setattr(interleave, "_POOL", pool)
            tracemalloc.start()
            try:
                mc_distribution(a_set.columns, b_set.columns, 2 * block + 12_345, make_stream(108), a5)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak <= 48 * chunk * workers + 2 * workers * 8 * chunk, block


def test_mc_distribution_memory_does_not_grow_with_samples(monkeypatch, a5):
    """Each slice's counts are added into one array as the pipeline yields them, so 8,000 slices peak where 200
    do: a list of every slice's bincount grows about 1 KB per slice."""
    monkeypatch.setattr(interleave, "ROW_CHUNK", 100)
    monkeypatch.setattr(interleave, "MC_BLOCK", 10_000)
    cols = [seeded_tuple_set(a5, 2, 0.5, make_stream(s)).columns for s in (110, 111)]
    a5.full_mul_table()
    peaks = []
    with ThreadPoolExecutor(2) as pool:
        monkeypatch.setattr(interleave, "_POOL", pool)
        for slices in (200, 8000):
            tracemalloc.start()
            try:
                mc_distribution(*cols, 100 * slices, make_stream(112), a5)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert peaks[1] <= peaks[0] + (512 << 10), peaks


@pytest.mark.parametrize("bound", [7, 1800, 3_240_000])
def test_mc_slice_draws_equal_the_block_draw(bound):
    """mc_distribution draws a block's indices one int32 call per ROW_CHUNK slice: the values, and the stream state
    after them, of one int32 or int64 call for the whole block (71,000 is not a multiple of ROW_CHUNK)."""
    n = 71_000
    streams = [make_stream(118) for _ in range(3)]
    slices = [
        streams[0].integers(0, bound, size=min(interleave.ROW_CHUNK, n - i), dtype=np.int32)
        for i in range(0, n, interleave.ROW_CHUNK)
    ]
    assert len(slices) == 2
    whole32 = streams[1].integers(0, bound, size=n, dtype=np.int32)
    whole64 = streams[2].integers(0, bound, size=n)
    assert np.array_equal(np.concatenate(slices), whole32) and np.array_equal(whole32, whole64)
    assert streams[0].bit_generator.state == streams[1].bit_generator.state == streams[2].bit_generator.state


def test_mc_pair_indices_die_once_counted(monkeypatch, a5):
    """Each Monte Carlo pair's index arrays are held only by its task.  With one worker, pair j is counted after
    pairs 0..j-1 have finished, and by then their arrays are dead; at most the window, 2 pairs, is alive then; and
    once count j is added to the total, every earlier pair's arrays are dead."""
    monkeypatch.setattr(interleave, "ROW_CHUNK", 1000)
    monkeypatch.setattr(interleave, "MC_BLOCK", 4000)  # 4 pairs per block
    monkeypatch.setattr(interleave, "_workers", lambda: 1)
    cols = [seeded_tuple_set(a5, 2, 0.5, make_stream(s)).columns for s in (113, 114)]
    taken, chained, live, added = [], [], [], []
    pipeline, chain = interleave._pipeline, interleave._chain

    def dead(pairs):
        return all(ref() is None for refs in pairs for ref in refs)

    def recorded(items):  # weak references to each pair's two index arrays, in take order
        for pair in items:
            taken.append([weakref.ref(x) for x in pair])
            yield pair
            del pair

    def checking_pipeline(fn, items):
        for j, result in enumerate(pipeline(fn, recorded(items))):
            yield result
            added.append(dead(taken[:j]))  # mc_distribution has added count j to its total

    def checking_chain(mul, factors):  # runs once per pair, in take order on one worker
        j = len(chained)
        chained.append(dead(taken[:j]))
        live.append(sum(not dead([refs]) for refs in taken))
        return chain(mul, factors)

    monkeypatch.setattr(interleave, "_pipeline", checking_pipeline)
    monkeypatch.setattr(interleave, "_chain", checking_chain)
    with ThreadPoolExecutor(1) as pool:
        monkeypatch.setattr(interleave, "_POOL", pool)
        est = mc_distribution(*cols, 16_000, make_stream(115), a5)
    assert est.counts.sum() == 16_000 and len(taken) == 16
    assert chained == added == [True] * 16 and max(live) <= 2
    assert dead(taken)


def test_explicit_tuple_set_capped(monkeypatch, s3):
    monkeypatch.setattr(interleave, "MAX_MATERIALIZED", 35)
    with pytest.raises(LoopBudgetExceeded):
        explicit_tuple_set(s3, [(0, 1)])
    assert explicit_tuple_set(s3, [(0,)]).size == 1


def test_explicit_rejects_duplicates(s3):
    with pytest.raises(SpecSyntax):
        explicit_tuple_set(s3, [(0, 1), (0, 1)])


# -- deviation shapes ----------------------------------------------------------


def _deviation(capsys, *argv):
    """The deviation block of the report of `classmix interleave <argv>`, with the exponent recomputed."""
    assert main(["interleave", *argv]) == 0
    dev = json.loads(capsys.readouterr().out)["deviation"]
    assert dev["normalized"] == dev["linf_dev"] * dev["alpha"] * dev["beta"] * dev["order"]
    if dev["normalized"] > 0:
        assert dev["implied_exponent"] == -math.log(dev["normalized"]) / (dev["arity"] * math.log(dev["base"]))
    return dev


def test_deviation_uniform_is_infinite_exponent(capsys):
    dev = _deviation(capsys, "S:3", "--t", "2", "--alpha", "1.0")
    assert dev["linf_dev"] == 0.0
    assert dev["implied_exponent"] == "inf"


def test_deviation_point_mass(s3, capsys):
    # alpha = 0.01 keeps round(0.36) -> 1 of the 36 tuples on each side, so a . b is one element
    dev = _deviation(capsys, "S:3", "--t", "2", "--alpha", "0.01")
    assert dev["linf_dev"] == pytest.approx(1.0 - 1.0 / s3.order)
    assert dev["alpha"] == dev["beta"] == 1 / 36
    # with the true singleton densities the (alpha beta)^-1 factor keeps the
    # normalized quantity below 1, so the implied exponent stays positive
    assert dev["normalized"] < 1.0
    assert dev["implied_exponent"] > 0


def test_deviation_a5_density_half_positive_exponent(capsys):
    dev = _deviation(capsys, "A:5", "--t", "2", "--alpha", "0.5", "--seed", "100")
    assert (dev["family"], dev["base"], dev["arity"], dev["alpha"]) == ("alt", 5.0, 2, 0.5)
    assert dev["implied_exponent"] > 0


# -- fiber sampling --------------------------------------------------------------


def test_fiber_sample_always_lands_on_target(s3):
    stream = make_stream(55)
    for g in range(s3.order):
        a_rows, b_rows = fiber_sample(s3, g, 2, stream, draws=200)
        for ra, rb in zip(a_rows, b_rows):
            assert interleave_product(s3, ra, rb) == g


def test_fiber_sample_arity_one(s3):
    stream = make_stream(56)
    a_rows, b_rows = fiber_sample(s3, 4, 1, stream, draws=100)
    mul = s3.full_mul_table()
    for ra, rb in zip(a_rows, b_rows):
        assert mul[ra[0], rb[0]] == 4
        assert rb[0] == mul[s3.inverses[ra[0]], 4]


@pytest.mark.parametrize("arity", [1, 3])
def test_fiber_sample_draws_what_one_int64_call_draws(monkeypatch, a5, arity):
    """a is drawn in ROW_CHUNK int32 calls, as advantage draws it: the values and stream state of one int64 call."""
    monkeypatch.setattr(interleave, "ROW_CHUNK", 7777)
    stream, reference = make_stream(57), make_stream(57)
    a_rows, b_rows = fiber_sample(a5, 11, arity, stream, draws=30_001)
    assert a_rows.dtype == b_rows.dtype == np.int64
    assert np.array_equal(a_rows, reference.integers(0, a5.order, size=(30_001, arity)))
    assert np.array_equal(b_rows[:, :-1], reference.integers(0, a5.order, size=(30_001, arity - 1)))
    assert stream.bit_generator.state == reference.bit_generator.state


def test_fiber_enumeration_size(s3):
    a_rows, b_rows = enumerate_fiber(s3, 0, 2)
    assert len(a_rows) == s3.order ** 3
    for ra, rb in zip(a_rows[:500], b_rows[:500]):
        assert interleave_product(s3, ra, rb) == 0


def test_fiber_sampler_chi2_uniform(s3):
    """Empirical fiber distribution vs exact enumeration, chi-square at 1e-3."""
    from scipy.stats import chi2

    draws = 200_000
    a_rows, b_rows = fiber_sample(s3, 0, 2, make_stream(77), draws=draws)
    # key = free coordinates (a1, a2, b1); the fiber is their bijective image
    keys = (a_rows[:, 0] * 36 + a_rows[:, 1] * 6 + b_rows[:, 0]).astype(np.int64)
    counts = np.bincount(keys, minlength=216)
    expected = draws / 216
    stat = float(((counts - expected) ** 2 / expected).sum())
    assert stat < chi2.ppf(1 - 1e-3, df=215)


# -- protocols -------------------------------------------------------------------


def _half_split_protocol(table, arity=2):
    total = table.order**arity
    half = total // 2
    rows = [tuple(r) for r in np.array(np.unravel_index(np.arange(total), (table.order,) * arity)).T[::-1]]
    # simpler: codes 0..half-1 and half..total-1 decoded through the module helpers
    from classmix.interleave import decode_tuples

    lower = [tuple(r) for r in decode_tuples(np.arange(half, dtype=np.int64), arity, table.order)]
    upper = [tuple(r) for r in decode_tuples(np.arange(half, total, dtype=np.int64), arity, table.order)]
    full = full_tuple_set(table, arity)
    return RectangleProtocol(
        rectangles=(
            Rectangle(a_set=explicit_tuple_set(table, lower), b_set=full, bit=1),
            Rectangle(a_set=explicit_tuple_set(table, upper), b_set=full, bit=0),
        )
    )


def _seeded_split_protocol(table, arity, seed):
    """(A x G^t, bit 1) and (A' x G^t, bit 0) for a seeded half A of G^t and its complement A'."""
    half, full = seeded_tuple_set(table, arity, 0.5, make_stream(seed)), full_tuple_set(table, arity)
    rest = TupleSet(arity, table.order, packed(~mask_of(half)))
    return RectangleProtocol(rectangles=(Rectangle(half, full, 1), Rectangle(rest, full, 0)))


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_advantage_matches_whole_array_acceptance(monkeypatch, a5, arity):
    """The chunked acceptance draws what one fiber_sample call draws and accepts the same pairs, with any number of
    workers; 30,001 samples are not a multiple of the 7,777-sample chunks."""
    monkeypatch.setattr(interleave, "ROW_CHUNK", 7777)
    protocol = _seeded_split_protocol(a5, arity, 101)
    reference = make_stream(102)
    p_g, p_h = (whole_array_acceptance(protocol, a5, x, arity, reference, 30_001) for x in (3, 41))
    assert 0 < p_g < 1
    for workers in (1, 3):
        monkeypatch.setattr(interleave, "_workers", lambda: workers)
        stream = make_stream(102)
        with ThreadPoolExecutor(workers) as pool:
            monkeypatch.setattr(interleave, "_POOL", pool)
            rates = advantage(protocol, a5, 3, 41, samples=30_001, stream=stream)
        assert rates == (p_g, p_h), workers
        assert stream.bit_generator.state == reference.bit_generator.state


def test_advantage_names_a_later_overlap_before_an_earlier_uncovered_pair(monkeypatch, a5):
    """Sample 0 is uncovered and a pair first drawn in a later chunk is covered twice: as over whole arrays, the
    multiply covered pair is reported."""
    monkeypatch.setattr(interleave, "ROW_CHUNK", 7777)
    g, samples, total = 5, 20_000, a5.order**2
    a_rows, b_rows = fiber_sample(a5, g, 2, make_stream(103), draws=samples)
    a_codes, b_codes = encode_tuples(a_rows, a5.order), encode_tuples(b_rows, a5.order)
    pairs = a_codes * total + b_codes
    later = next(i for i in range(7777, samples) if a_codes[i] != a_codes[0] and pairs[i] not in pairs[:i])
    rest, one_a, one_b = np.ones(total, dtype=bool), np.zeros(total, dtype=bool), np.zeros(total, dtype=bool)
    rest[a_codes[0]] = False  # no rectangle covers a pair with a = a_codes[0]
    one_a[a_codes[later]] = one_b[b_codes[later]] = True
    protocol = RectangleProtocol(
        rectangles=(
            Rectangle(TupleSet(2, a5.order, packed(rest)), full_tuple_set(a5, 2), 1),
            Rectangle(TupleSet(2, a5.order, packed(one_a)), TupleSet(2, a5.order, packed(one_b)), 0),
        )
    )
    with pytest.raises(OverlappingRectangles) as expected:
        whole_array_acceptance(protocol, a5, g, 2, make_stream(103), samples)
    assert str(expected.value) == f"pair (a={a_codes[later]}, b={b_codes[later]}) multiply covered"
    with pytest.raises(OverlappingRectangles, match=f"^{re.escape(str(expected.value))}$"):
        advantage(protocol, a5, g, 0, samples=samples, stream=make_stream(103))


def test_advantage_memory(monkeypatch, a5):
    """advantage keeps each sample's a coordinates, one byte each for A:5, plus O(ROW_CHUNK) per worker: the b draws
    of the pipeline's window and each chunk's completion, codes and bits."""
    protocol = _seeded_split_protocol(a5, 2, 104)
    a5.full_mul_table(), a5.inverses
    samples, workers = 1_000_000, 2
    monkeypatch.setattr(interleave, "_workers", lambda: workers)  # window size, on a machine of any size
    with ThreadPoolExecutor(workers) as pool:
        monkeypatch.setattr(interleave, "_POOL", pool)
        tracemalloc.start()
        try:
            advantage(protocol, a5, 0, 5, samples=samples, stream=make_stream(105))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak <= samples * 2 + 64 * interleave.ROW_CHUNK * workers


def test_constant_protocol_zero_advantage(s3):
    full = full_tuple_set(s3, 2)
    proto = RectangleProtocol(rectangles=(Rectangle(a_set=full, b_set=full, bit=1),))
    assert advantage(proto, s3, 1, 2, samples=20_000, stream=make_stream(5)) == (1.0, 1.0)
    assert proto.bit_budget == 0
    exact = exact_conditional_acceptance(proto, s3, 1)
    assert exact == 1


def test_two_rectangle_protocol_matches_exact(s3):
    proto = _half_split_protocol(s3)
    validate_protocol_exact(proto, s3)
    g, h = 1, 2
    exact_g = float(exact_conditional_acceptance(proto, s3, g))
    exact_h = float(exact_conditional_acceptance(proto, s3, h))
    p_g, p_h = advantage(proto, s3, g, h, samples=200_000, stream=make_stream(99))
    se = max(math.sqrt((p_g * (1 - p_g) + p_h * (1 - p_h)) / 200_000), 1e-9)
    assert abs(p_g - exact_g) < 4 * se
    assert abs(p_h - exact_h) < 4 * se
    assert proto.bit_budget == 1


def test_rectangle_inequality(s3):
    proto = _half_split_protocol(s3)
    for g, h in [(0, 1), (1, 2), (3, 5)]:
        lhs, rhs = rectangle_bound_check(proto, s3, g, h)
        assert lhs <= rhs + 1e-12


def test_uncovered_probe_raises(s3):
    lower = explicit_tuple_set(s3, [(0, 0)])
    proto = RectangleProtocol(rectangles=(Rectangle(a_set=lower, b_set=lower, bit=1),))
    with pytest.raises(UncoveredProbe):
        advantage(proto, s3, 0, 1, samples=10_000, stream=make_stream(3))


def test_overlapping_rectangles_detected(s3):
    full = full_tuple_set(s3, 2)
    proto = RectangleProtocol(
        rectangles=(
            Rectangle(a_set=full, b_set=full, bit=1),
            Rectangle(a_set=full, b_set=full, bit=0),
        )
    )
    with pytest.raises(OverlappingRectangles):
        advantage(proto, s3, 0, 1, samples=10_000, stream=make_stream(4))


def test_protocol_errors_name_first_pair_in_input_order(s3):
    """The first bad pair in input order is reported, not the one with the smallest code."""
    full = full_tuple_set(s3, 1)
    low = explicit_tuple_set(s3, [(0,), (1,), (2,)])
    b_codes = np.array([3, 1, 4, 0])
    partial = RectangleProtocol(rectangles=(Rectangle(a_set=low, b_set=full, bit=1),))
    with pytest.raises(UncoveredProbe, match=r"pair \(a=5, b=1\) not covered"):
        evaluate_codes(partial, np.array([0, 5, 1, 3]), b_codes)
    pair = explicit_tuple_set(s3, [(2,), (4,)])
    double = RectangleProtocol(
        rectangles=(Rectangle(a_set=full, b_set=full, bit=1), Rectangle(a_set=pair, b_set=full, bit=0))
    )
    with pytest.raises(OverlappingRectangles, match=r"pair \(a=4, b=1\) multiply covered"):
        evaluate_codes(double, np.array([0, 4, 1, 2]), b_codes)


# -- files -----------------------------------------------------------------------


def test_tuple_set_file_roundtrip(s3, tmp_path):
    tset = seeded_tuple_set(s3, 2, 0.5, make_stream(8))
    path = tmp_path / "a.tuples"
    save_tuple_set(path, tset, "S:3")
    loaded = load_tuple_set(path, s3)
    assert np.array_equal(loaded.bits, tset.bits)


def test_tuple_set_group_mismatch(s3, tmp_path):
    tset = seeded_tuple_set(s3, 2, 0.5, make_stream(8))
    path = tmp_path / "a.tuples"
    save_tuple_set(path, tset, "S:4")
    with pytest.raises(SpecSyntax):
        load_tuple_set(path, s3)


def test_protocol_file_roundtrip(s3, tmp_path):
    proto = _half_split_protocol(s3)
    save_tuple_set(tmp_path / "a1.tuples", proto.rectangles[0].a_set, "S:3")
    save_tuple_set(tmp_path / "a2.tuples", proto.rectangles[1].a_set, "S:3")
    save_tuple_set(tmp_path / "b.tuples", proto.rectangles[0].b_set, "S:3")
    (tmp_path / "proto.txt").write_text("1,a1.tuples,b.tuples\n0,a2.tuples,b.tuples\n")
    loaded = load_protocol(tmp_path / "proto.txt", s3)
    assert loaded.rectangles[0].b_set is loaded.rectangles[1].b_set  # b.tuples is parsed once
    assert loaded.bit_budget == 1
    assert loaded.rectangles[0].bit == 1
    g = 2
    assert exact_conditional_acceptance(loaded, s3, g) == exact_conditional_acceptance(proto, s3, g)
