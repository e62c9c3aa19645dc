import hashlib
import tracemalloc

import numpy as np
import pytest

from classmix.errors import CapExceeded, InvariantViolation, MixedGroups, SpecSyntax, UnsupportedParameters
from classmix.characters import dixon_character_table
from classmix.fields import field_for_size
from classmix import groups
from classmix.groups import (
    ROW_CHUNK,
    GroupSpec,
    Mat2Engine,
    PermEngine,
    conj_classes,
    group_build,
    parse_cycles,
)
from classmix.interleave import decode_tuples, encode_tuples
from classmix.rng import make_stream

from _oracles import (
    ORACLE_LABELS,
    _decode,
    alt_elements,
    brute_conjugacy_classes,
    column_mul_table,
    mat_inv,
    mat_mul,
    mul_indices,
    oracle_spec,
    partition_class_count_alt,
    perm_mul,
    psl2_lift,
    sl2_elements,
    unique_labelling_classes,
)


def test_alt5_order():
    table = group_build(GroupSpec.alt(5))
    assert table.order == 60


def test_psl2_7_order():
    table = group_build(GroupSpec.psl2(7))
    assert table.order == 168


def test_sl2_5_order():
    table = group_build(GroupSpec.sl2(5))
    assert table.order == 120


@pytest.mark.parametrize("q,expected", [(4, 60), (8, 504), (9, 360), (11, 660), (13, 1092)])
def test_psl2_orders(q, expected):
    assert group_build(GroupSpec.psl2(q)).order == expected


def test_identity_is_index_zero():
    for spec in [GroupSpec.alt(5), GroupSpec.sym(4), GroupSpec.psl2(7)]:
        table = group_build(spec)
        assert table.elements[0] == table.engine.identity.tobytes()
        assert table.full_mul_table()[0, 3] == 3
        assert table.full_mul_table()[3, 0] == 3


def test_elements_sorted_after_identity():
    table = group_build(GroupSpec.psl2(7))
    rest = table.elements[1:]
    assert rest == sorted(rest)


def test_cap_exceeded():
    with pytest.raises(CapExceeded):
        group_build(GroupSpec.alt(11))  # order 19,958,400 > default cap
    with pytest.raises(CapExceeded):
        group_build(GroupSpec.alt(7), max_order=100)


def test_known_order_mismatch_is_an_invariant_violation():
    """A named family whose generators close to a group of another order fails an invariant (exit 13)."""
    gens = (parse_cycles("(1 2 3)", 5), parse_cycles("(2 3 4)", 5))  # they generate A:4 on points 1..4
    with pytest.raises(InvariantViolation, match="enumerated order 12 != known order 60"):
        group_build(GroupSpec("alt", 5, gens, "A:5", 60))


# (order, generator_indices, sha256 of the codes as int64) of one table per kind; a change
# to a family's generators or their order, or to the element encoding, changes them
FAMILY_TABLES = {
    "A:6": (360, (72, 16), "10d4b7010ba9cf7cbef0754482a6a768598cf028755ed3b489f2c6500fecd85b"),
    "S:5": (120, (24, 33), "8e6eaf3c928cdcb9eb8142a41663c7162b97718621b33d7885821f81f17d4e6a"),
    "SL2:8": (504, (64, 72, 88, 1), "c8cbd61327b5588872847dc22f216e5a9df94e2ab9ed8ce974b08d4c27640f02"),
    "SL2:9": (720, (81, 99, 1), "4a36d3e8b522296e59ccef017e1fda3d7f61b571e17e3f1529b8f51bae130850"),
    "PSL2:16": (4080, (256, 272, 304, 368, 1), "ab00538836bb83b5721ccdef6dbc655db28bf238ea88c50851efd3a8c3c6d476"),
    "PSL2:25": (7800, (325, 425, 1), "28b8403782fc818bc063b762eb5d0fc997e5be9145453ad8e8f9af2ecbc23116"),
    "permgen": (24, (6, 12, 1), "bb2423f5bcf16aac34037e9828a8cb166c7fbb240c23ab0d899f8f7963a37190"),
    "matgen": (24, (9, 1), "fff84343b6a28497df248bbcd791f6a86238436604dbc753de8bb62050fe79b4"),
}


@pytest.mark.parametrize("label", FAMILY_TABLES)
def test_family_table_identity(label, tmp_path):
    spec = oracle_spec(label, tmp_path)
    table = group_build(spec)
    got = (table.order, table.generator_indices, hashlib.sha256(table.codes.astype(np.int64).tobytes()).hexdigest())
    assert got == FAMILY_TABLES[label]
    assert table.codes.dtype == np.int32  # every code of these tables is below 2^31
    assert spec.order == (None if label in ("permgen", "matgen") else table.order)


def test_degenerate_generators_flagged():
    spec = GroupSpec.from_perm_generators([tuple(range(4))])
    table = group_build(spec)
    assert table.order == 1


def test_element_ops_and_identity_law():
    table = group_build(GroupSpec.alt(5))
    mul, inv = table.full_mul_table(), table.inverses
    stream = make_stream(7)
    for g in stream.integers(0, table.order, size=50).tolist():
        assert mul[0, g] == g
        assert mul[g, 0] == g
        assert mul[g, inv[g]] == 0
        assert mul[inv[g], g] == 0


def test_cycle_inverse_example():
    # inverse of (1 2 3 4 5) is (1 5 4 3 2)
    img = parse_cycles("(1 2 3 4 5)")
    table = group_build(GroupSpec.from_perm_generators([img], label="c5"))
    g = table.index_of(bytes(img))
    assert table.elements[table.inverses[g]] == bytes(parse_cycles("(1 5 4 3 2)"))


def test_mixed_groups_rejected():
    t1 = group_build(GroupSpec.alt(4))
    t2 = group_build(GroupSpec.sym(4))
    odd = bytes(parse_cycles("(1 2)", 4))  # a transposition: in S:4, not in A:4
    assert t2.elements[t2.index_of(odd)] == odd
    with pytest.raises(MixedGroups):
        t1.index_of(odd)
    with pytest.raises(MixedGroups):
        t1.index_of(bytes(parse_cycles("(1 2 3)", 5)))  # a key of another width


def test_psl2_canonical_identifies_negation():
    from classmix.fields import field_for_size
    from classmix.groups import Mat2Engine

    for q in (5, 7, 9, 11, 13):
        sl2 = group_build(GroupSpec.sl2(q))
        gf = field_for_size(q)
        proj = Mat2Engine(gf, projective=True)
        assert np.array_equal(proj.canonical(sl2.rows), proj.canonical(gf.neg(sl2.rows)))


def test_mul_table_consistency_small():
    for spec in [GroupSpec.sym(4), GroupSpec.alt(5)]:
        table = group_build(spec)
        elems = [tuple(e) for e in table.elements]
        idx = np.arange(table.order)
        grid = mul_indices(table, idx[:, None], idx[None, :])
        assert np.array_equal(grid, table.full_mul_table())
        for i in range(table.order):
            for j in range(table.order):
                assert elems[grid[i, j]] == perm_mul(elems[i], elems[j])


@pytest.mark.parametrize("label", ["A:5", "S:4", "PSL2:7", "SL2:4", "permgen"])
def test_full_mul_table_matches_column_sweeps(label, tmp_path):
    """Row gathers from the generators' rows equal one right-multiplication sweep per column.

    The generators of A:5 and of "permgen" (whose 3-cycle (5 6 7) has no inverse among
    them) are not closed under inverses, so every row is reached by products alone.
    """
    table = group_build(oracle_spec(label, tmp_path))
    assert np.array_equal(table.full_mul_table(), column_mul_table(table))


def test_mul_table_consistency_sampled():
    table = group_build(GroupSpec.alt(7))
    stream = make_stream(3)
    idx = stream.integers(0, table.order, size=(1000, 2))
    prods = mul_indices(table, idx[:, 0], idx[:, 1])
    mul = table.full_mul_table()
    for (i, j), k in zip(idx.tolist(), prods.tolist()):
        assert table.elements[k] == bytes(perm_mul(table.elements[i], table.elements[j]))
        assert mul[i, j] == k


@pytest.mark.parametrize("label", ["SL2:5", "SL2:7", "PSL2:7", "PSL2:11"])
def test_matrix_groups_match_oracle(label):
    table = group_build(GroupSpec.parse(label))
    p = table.spec.base
    lift = (lambda m: psl2_lift(m, p)) if table.spec.kind == "psl2" else (lambda m: m)
    expected = sl2_elements(p, projective=table.spec.kind == "psl2")
    assert table.elements == [bytes(m) for m in expected]
    idx = make_stream(5).integers(0, table.order, size=(500, 2))
    prods = mul_indices(table, idx[:, 0], idx[:, 1])
    for (i, j), k in zip(idx.tolist(), prods.tolist()):
        assert expected[k] == lift(mat_mul(expected[i], expected[j], p))
    for i, m in enumerate(expected):
        assert expected[table.inverses[i]] == lift(mat_inv(m, p))


# -- conjugacy classes -------------------------------------------------------


def test_alt5_class_sizes_match_oracle():
    table = group_build(GroupSpec.alt(5))
    classes = conj_classes(table)
    assert sorted(classes.sizes) == [1, 12, 12, 15, 20]

    oracle_classes, _ = brute_conjugacy_classes(alt_elements(5))
    assert sorted(len(c) for c in oracle_classes) == sorted(classes.sizes)


# S:4, S:5, A:5, D4 x C3 from three generators on 7 points, and the trivial group
CLASS_ORACLE_SPECS = [
    GroupSpec.sym(4),
    GroupSpec.sym(5),
    GroupSpec.alt(5),
    GroupSpec.from_perm_generators(
        [parse_cycles("(1 2)(3 4)", 7), parse_cycles("(1 3)", 7), parse_cycles("(5 6 7)", 7)]
    ),
    GroupSpec.from_perm_generators([tuple(range(3))]),
]


@pytest.mark.parametrize("spec", CLASS_ORACLE_SPECS, ids=["S4", "S5", "A5", "permgen-3-gens", "trivial"])
def test_conj_classes_match_brute_orbits(spec):
    """Partition, representatives and numbering equal the orbits under conjugation by every element.

    Permutation rows sort like their tuples and the identity is the smallest, so
    the oracle's classes (ordered by smallest member) number the classes the same way.
    """
    table = group_build(spec)
    classes = conj_classes(table)
    elements = [tuple(key) for key in table.elements]
    oracle_classes, _ = brute_conjugacy_classes(elements)
    members = [sorted(elements[i] for i in classes.members(c)) for c in range(classes.k)]
    assert members == oracle_classes
    assert [elements[r] for r in classes.reps] == [c[0] for c in oracle_classes]
    assert list(classes.sizes) == [len(c) for c in oracle_classes]
    assert list(classes.reps) == sorted(classes.reps)


def test_psl2_7_class_count():
    table = group_build(GroupSpec.psl2(7))
    classes = conj_classes(table)
    assert classes.k == 6


def test_identity_class_is_singleton():
    for label_spec in [GroupSpec.sym(3), GroupSpec.alt(6), GroupSpec.psl2(8)]:
        classes = conj_classes(group_build(label_spec))
        assert classes.sizes[0] == 1
        assert classes.reps[0] == 0


def test_class_sizes_sum_and_divide(group_cache):
    for label in ["A:5", "A:6", "S:4", "PSL2:7", "PSL2:9"]:
        table, classes, _, _ = group_cache(label)
        assert sum(classes.sizes) == table.order
        for s in classes.sizes:
            assert table.order % s == 0


def test_conjugation_invariance(group_cache):
    table, classes, _, _ = group_cache("A:6")
    mul = table.full_mul_table()
    stream = make_stream(11)
    pairs = stream.integers(0, table.order, size=(1000, 2))
    for g, h in pairs:
        conj = mul[mul[h, g], table.inverses[h]]
        assert classes.class_of[conj] == classes.class_of[int(g)]


def _traced_peak(fn):
    """(fn(), peak bytes traced while it ran); tracemalloc counts numpy's data buffers exactly."""
    tracemalloc.start()
    try:
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


@pytest.mark.parametrize("label, per_product", [("S:9", 40), ("PSL2:49", 160)], ids=["S:9", "PSL2:49"])
def test_conjugation_permutation_memory(group_cache, label, per_product):
    """Conjugation holds its int32 result and one block of rows and their lookup.

    S:9's traced peak is 3.8 MB, against 14.9 MB when the whole group went
    through at once.  PSL2:49 goes through in one block of 58,800 products at
    8.5 MB: the matrix product and its PSL2 sign choice hold about 137 bytes of
    int64 field gathers per product, where a permutation product holds its row.
    """
    table, _, _, _ = group_cache(label)
    expected = mul_indices(table, mul_indices(table, [1], np.arange(0, table.order, 997)), [table.inverses[1]])
    perm, peak = _traced_peak(lambda: table.conjugation_permutation(1))
    assert np.array_equal(perm[::997], expected)
    assert peak < 4 * table.order + per_product * ROW_CHUNK


def test_stage_memory_s9():
    """Each S:9 stage holds what it keeps plus O(ROW_CHUNK) of transients (peaks 5.5, 6.2 and 0.5 MB).

    group_build keeps 13 bytes per element (int32 codes and uint8 rows);
    conj_classes keeps an int32 class map while int32 labels, two int32
    conjugation permutations and one gather of the labels pass through; Dixon
    keeps nothing of size |G|.  With int64 codes, a copy of the labels per
    round and an intp class map the first two peaked at 7.7 and 9.1 MB;
    unblocked sweeps and np.unique at 17.0 and 25.3 MB.
    """
    table, build_peak = _traced_peak(lambda: group_build(GroupSpec.sym(9)))
    classes, classes_peak = _traced_peak(lambda: conj_classes(table))
    _, dixon_peak = _traced_peak(lambda: dixon_character_table(table, classes))
    n = table.order
    assert build_peak < 14 * n + 24 * ROW_CHUNK
    assert classes_peak < 18 * n + 16 * ROW_CHUNK
    assert dixon_peak < 4 * n + 48 * ROW_CHUNK


def test_class_memory_psl2_59():
    """conj_classes on PSL2:59 keeps its power map to the largest order, 59, not the exponent, 51,330.

    Traced peak 10.1 MB; expanding the power map to the exponent peaked at 28.6 MB.
    """
    table = group_build(GroupSpec.parse("PSL2:59"))
    classes, peak = _traced_peak(lambda: conj_classes(table))
    assert classes.power_map.shape == (max(classes.orders) + 1, classes.k)
    assert peak < 26 * table.order + 160 * ROW_CHUNK


def test_code_dtype_follows_base_and_width():
    """Codes are int32 while base**width <= 2**31: up to degree 9 (9^9) and q = 211 (211^4)."""
    assert PermEngine(9).code_dtype == np.int32
    assert PermEngine(10).code_dtype == np.int64
    assert Mat2Engine(field_for_size(211)).code_dtype == np.int32
    assert Mat2Engine(field_for_size(223)).code_dtype == np.int64


def _codec_codes(top, dtype, n=5_000):
    """n codes below top in dtype, the smallest and largest among them."""
    return np.r_[0, make_stream(7).integers(0, top, size=n - 2), top - 1].astype(dtype)


@pytest.mark.parametrize(
    "engine",
    [PermEngine(7), PermEngine(10), Mat2Engine(field_for_size(125)), Mat2Engine(field_for_size(257))],
    ids=["S7-uint8-int32", "S10-uint8-int64", "q125-uint8-int32", "q257-u2be-int64"],
)
def test_element_rows_round_trip_the_digit_codec(monkeypatch, engine):
    """Element rows are big-endian digits of their rank codes: the oracle's little-endian digits reversed, in the
    engine's row dtype, in chunks of ROW_CHUNK codes; packing them gives the codes back in the code dtype."""
    monkeypatch.setattr(groups, "ROW_CHUNK", 777)
    width = len(engine.identity)
    codes = _codec_codes(engine.base**width, engine.code_dtype)
    rows = groups._decode(codes, engine)
    assert rows.dtype == engine.dtype and np.array_equal(rows, _decode(codes, width, engine.base)[:, ::-1])
    packed = groups._codes(rows, engine)
    assert packed.dtype == engine.code_dtype and np.array_equal(packed, codes)


@pytest.mark.parametrize("arity", [1, 2, 3, 4])
def test_tuple_codes_round_trip_the_digit_codec(arity):
    """Tuple coordinate i is little-endian digit i of the code, in the narrowest dtype holding |G| - 1."""
    codes = _codec_codes(60**arity, np.int64)
    rows = decode_tuples(codes, arity, 60)
    assert rows.dtype == np.uint8 and np.array_equal(rows, _decode(codes, arity, 60))
    packed = encode_tuples(rows, 60)
    assert packed.dtype == np.int64 and np.array_equal(packed, codes)


A5_SQUARED = "(1 2 3)\n(1 2 3 4 5)\n(6 7 8)\n(6 7 8 9 10)\n"  # A_5 x A_5 on ten points


@pytest.mark.parametrize("label", ["A:6", "PSL2:25", "A5xA5"])
def test_lookup_matches_per_row_search(label, tmp_path):
    """lookup sorts a block's codes, searches them in order and scatters the indices back.

    The oracle searches each row's code on its own.  Shapes (), (N,) and (N, G)
    of a seeded sample with repeats, the identity and the last element.  A:6 and
    PSL2:25 have int32 codes; A_5 x A_5 on ten points has int64 codes (10^10 > 2^31).
    """
    if label == "A5xA5":
        (tmp_path / "g.txt").write_text(A5_SQUARED)
        label = f"permgen:{tmp_path / 'g.txt'}"
    table = group_build(GroupSpec.parse(label))
    codes = table.codes
    assert codes.dtype == (np.int64 if table.engine.base == 10 else np.int32)

    def search(row):
        code = sum(int(e) * table.engine.base**i for i, e in enumerate(row[::-1].tolist()))
        return 0 if code == codes[0] else 1 + int(np.searchsorted(codes[1:], code))

    picks = make_stream(17).integers(0, table.order, size=(30, 7))
    picks[0, :3] = 0, table.order - 1, 0
    picks[-1, -1] = table.order - 1
    for idx in (picks[0, 1], picks[:, 0], picks):
        rows = table.rows[idx]
        got = table.lookup(rows)
        want = np.array([search(r) for r in rows.reshape(-1, rows.shape[-1])]).reshape(np.shape(idx))
        assert np.shape(got) == np.shape(idx) and got.dtype == codes.dtype
        assert np.array_equal(got, want) and np.array_equal(got, idx)


def test_perm_engine_fixed_factor_products_match_mul():
    """right is the column gather rows[:, gs] and left the table gather h[rows], each equal to mul."""
    engine = PermEngine(7)
    stream = make_stream(19)
    rows = np.argsort(stream.random((50, 7)), axis=-1).astype(engine.dtype)
    gs, h = rows[:3], rows[7]
    right = engine.right(rows, gs)
    assert right.shape == (50, 3, 7) and right.dtype == engine.dtype
    assert np.array_equal(right, engine.mul(rows[:, None], gs[None]))
    left = engine.left(h, rows)
    assert left.shape == (50, 7) and left.dtype == engine.dtype
    assert np.array_equal(left, engine.mul(np.broadcast_to(h, rows.shape), rows))
    assert np.array_equal(engine.left(h, right), engine.mul(np.broadcast_to(h, right.shape), right))


@pytest.mark.parametrize("label", ["A:5", "PSL2:7"])
def test_lookup_of_one_row(label):
    """One 1-D row looks up to a 0-d index, which index_of turns into an int."""
    table = group_build(GroupSpec.parse(label))
    for i in (0, 1, table.order - 1):
        assert np.ndim(table.lookup(table.rows[i])) == 0
        assert int(table.lookup(table.rows[i])) == i
        assert table.index_of(table.elements[i]) == i


@pytest.mark.parametrize("label", ORACLE_LABELS + ["A:9", "S:9", "PSL2:27", "PSL2:31", "SL2:16", "PSL2:59"])
def test_class_labelling_matches_unique(label, tmp_path):
    """The sort-free class numbering gives the np.unique labelling's values, in int32.

    The oracle's power map runs to the exponent (51,330 for PSL2:59); conj_classes
    keeps its rows up to the largest representative order (59).  The oracle's
    class map and power map are intp; conj_classes keeps both as int32.
    """
    table = group_build(oracle_spec(label, tmp_path))
    classes = conj_classes(table)
    expected = list(unique_labelling_classes(table))
    expected[4] = expected[4][: max(classes.orders) + 1]
    got = (classes.reps, classes.sizes, classes.class_of, classes.inverse_class, classes.power_map)
    names = ("reps", "sizes", "class_of", "inverse_class", "power_map")
    for name, a, b in zip(names, got, expected):
        a, b = np.asarray(a), np.asarray(b)
        assert a.shape == b.shape and np.array_equal(a, b), name
    assert classes.class_of.dtype == classes.power_map.dtype == np.int32


def test_power_map_coherence(group_cache):
    table, classes, _, _ = group_cache("PSL2:7")
    mul = table.full_mul_table()
    stream = make_stream(13)
    for _ in range(1000):
        g = int(stream.integers(0, table.order))
        m = int(stream.integers(1, classes.exponent + 1))
        power = 0
        for _step in range(m):
            power = mul[power, g]
        c = classes.class_of[g]
        assert classes.class_of[power] == classes.power_map[m % classes.orders[c], c]


def test_power_map_row_one_is_identity_map(group_cache):
    _, classes, _, _ = group_cache("A:5")
    assert list(classes.power_map[1]) == list(range(classes.k))


def test_inverse_class_involution(group_cache):
    for label in ["A:5", "S:4", "PSL2:7", "PSL2:13"]:
        _, classes, _, _ = group_cache(label)
        inv = classes.inverse_class
        for c in range(classes.k):
            assert inv[inv[c]] == c


@pytest.mark.parametrize("label", ["A:5", "S:5", "PSL2:7", "PSL2:8", "SL2:5"])
def test_inverse_class_from_representatives(label):
    """inverse_class, taken from the representatives' inverses, is the class of every member's inverse."""
    table = group_build(GroupSpec.parse(label))
    classes = conj_classes(table)
    reps = np.asarray(classes.reps)
    assert list(classes.inverse_class) == classes.class_of[table.inverses[reps]].tolist()
    assert np.array_equal(np.asarray(classes.inverse_class)[classes.class_of], classes.class_of[table.inverses])


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
def test_alt_class_count_matches_partitions(n, group_cache):
    _, classes, _, _ = group_cache(f"A:{n}")
    assert classes.k == partition_class_count_alt(n)


def test_random_element_determinism():
    table = group_build(GroupSpec.alt(5))
    first = int(make_stream(42).integers(0, table.order))
    s1 = make_stream(42)
    s2 = make_stream(42)
    seq1 = [int(s1.integers(0, table.order)) for _ in range(100)]
    seq2 = [int(s2.integers(0, table.order)) for _ in range(100)]
    assert seq1 == seq2
    assert first == seq1[0]


def test_random_element_uniformity_chi2():
    from scipy.stats import chi2

    table = group_build(GroupSpec.alt(5))
    stream = make_stream(2024)
    draws = stream.integers(0, table.order, size=10**6)
    counts = np.bincount(draws, minlength=table.order)
    expected = 10**6 / table.order
    stat = float(((counts - expected) ** 2 / expected).sum())
    assert stat < chi2.ppf(1 - 1e-3, df=table.order - 1)


def test_trivial_group_random_element():
    table = group_build(GroupSpec.from_perm_generators([tuple(range(3))]))
    stream = make_stream(0)
    assert table.order == 1
    assert int(stream.integers(0, table.order)) == 0


# -- parsing ------------------------------------------------------------------


def test_parse_cycles_roundtrip():
    img = parse_cycles("(1 2 3)(4 5)")
    assert img == (1, 2, 0, 4, 3)


def test_parse_cycles_rejects_garbage():
    with pytest.raises(SpecSyntax):
        parse_cycles("1 2 3")
    with pytest.raises(SpecSyntax):
        parse_cycles("(1 2)(2 3)")


def test_spec_validation():
    with pytest.raises(UnsupportedParameters):
        GroupSpec.alt(2)
    with pytest.raises(UnsupportedParameters):
        GroupSpec.alt(13)
    with pytest.raises(UnsupportedParameters):
        GroupSpec.psl2(6)
    with pytest.raises(UnsupportedParameters):
        GroupSpec.psl2(2)
