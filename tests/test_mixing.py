import math
from fractions import Fraction

import numpy as np
import pytest

from classmix import cli
from classmix.errors import InvariantViolation, LoopBudgetExceeded, SpecSyntax
from classmix.groups import ClassData, GroupSpec, conj_classes, group_build
from classmix.characters import class_products, class_rows, dixon_character_table, structure_constants, witten_zeta
from classmix.mixing import (
    PairStats,
    l2_sq_char,
    p_brute,
    p_char,
    pair_stats,
    survey,
    thompson_search,
)
from classmix.rng import make_stream

from _oracles import (
    ORACLE_LABELS,
    alt_elements,
    brute_conjugacy_classes,
    brute_pair_distribution,
    char_bound_fraction,
    class_members,
    class_rows_support,
    coverage,
    coverage_norm_link_holds,
    dist_to_uniform,
    from_constants,
    full_sweep_structure_constants,
    inverses,
    l2_sq,
    oracle_spec,
    sym_elements,
    translated_inverse_counts,
)

ORACLE_GROUPS = ["A:5", "S:4", "S:3", "PSL2:7"]


def _bijection(table, mapping):
    """The coupling y = mapping[x] of a permutation of element indices: its class-pair counts over |G|."""
    reps, class_of = table.class_map
    k = len(reps)
    counts = np.bincount(class_of * k + class_of[list(mapping)], minlength=k * k).reshape(k, k)
    return lambda tensor: counts / table.order


def _coupling(table, classes, text):
    """The coupling the CLI builds for --coupling text."""
    return cli._parse_coupling(table, classes, text)[1]


def _one(dist, xc, yc, classes) -> PairStats:
    """pair_stats of one class pair: entry 0 of each statistic (probs is the pair's (k,) row)."""
    return PairStats(*(v[0] for v in pair_stats(dist.row[None], [xc], [yc], classes)))


def test_p_char_identity_times_class_is_uniform_on_class(group_cache):
    table, classes, _, chartable = group_cache("A:5")
    for yc in range(classes.k):
        probs = _one(p_char(0, yc, chartable), 0, yc, classes).probs
        expected = np.zeros(classes.k)
        expected[yc] = 1.0 / classes.sizes[yc]
        assert np.allclose(probs, expected, atol=1e-12)


def test_p_char_identity_pair_is_point_mass(group_cache):
    _, classes, _, chartable = group_cache("PSL2:7")
    probs = _one(p_char(0, 0, chartable), 0, 0, classes).probs
    assert probs[0] == pytest.approx(1.0, abs=1e-12)
    assert np.abs(probs[1:]).max() < 1e-12


def test_s3_brute_matches_hand_count(group_cache):
    table, classes, _, _ = group_cache("S:3")
    tc = classes.sizes.index(3)  # transpositions
    dist = p_brute(tc, tc, table, classes)
    probs = _one(dist, tc, tc, classes).probs
    # 9 pairs: 3 give the identity, 6 give a 3-cycle (class of size 2)
    assert probs[0] == pytest.approx(3 / 9)
    three_cycle = classes.sizes.index(2)
    assert probs[three_cycle] == pytest.approx((6 / 9) / 2)
    assert dist.counts == tuple(
        3 if k == 0 else (6 if k == three_cycle else 0) for k in range(classes.k)
    )


def test_brute_matches_independent_oracle():
    """Cross-check p_brute against a from-scratch implementation on S_4."""
    table = group_build(GroupSpec.sym(4))
    classes = conj_classes(table)
    elements = sym_elements(4)
    oracle_classes, assigned = brute_conjugacy_classes(elements)
    # align oracle classes with package classes via sorted size+order signature
    for xc in range(classes.k):
        for yc in range(classes.k):
            dist = _one(p_brute(xc, yc, table, classes), xc, yc, classes)
            ox = [tuple(table.elements[i]) for i in class_members(table, xc)]
            oy = [tuple(table.elements[i]) for i in class_members(table, yc)]
            sizes = [len(c) for c in oracle_classes]
            probs = brute_pair_distribution(ox, oy, assigned, sizes)
            # map package classes to oracle classes by a member element
            for k in range(classes.k):
                member = tuple(table.elements[class_members(table, k)[0]])
                ok = assigned[member]
                assert float(probs[ok]) == pytest.approx(dist.probs[k], abs=1e-15)


@pytest.mark.parametrize("label", ORACLE_GROUPS)
def test_oracle_equivalence_all_pairs(label, group_cache):
    table, classes, _, chartable = group_cache(label)
    for xc in range(classes.k):
        for yc in range(classes.k):
            brute = _one(p_brute(xc, yc, table, classes), xc, yc, classes)
            char = _one(p_char(xc, yc, chartable), xc, yc, classes)
            assert np.abs(brute.probs - char.probs).max() < 1e-9


@pytest.mark.parametrize("label", ORACLE_GROUPS)
def test_normalization_all_pairs(label, group_cache):
    table, classes, _, chartable = group_cache(label)
    sizes = np.asarray(classes.sizes, dtype=np.float64)
    for xc in range(classes.k):
        for yc in range(classes.k):
            char = _one(p_char(xc, yc, chartable), xc, yc, classes)
            assert abs(float(sizes @ char.probs) - 1.0) < 1e-10


def test_l2_examples(group_cache):
    table, classes, _, chartable = group_cache("A:5")
    # identity pair -> point mass -> 1
    assert _one(p_char(0, 0, chartable), 0, 0, classes).l2_sq == pytest.approx(1.0, abs=1e-10)
    # identity x class -> 1/|class|
    for yc in range(1, classes.k):
        val = _one(p_char(0, yc, chartable), 0, yc, classes).l2_sq
        assert val == pytest.approx(1.0 / classes.sizes[yc], abs=1e-12)


def test_a5_five_cycle_frozen_value(group_cache):
    """A_5, x = y = 5-cycle class: ||p||_2^2 = 265/8640, confirmed by the oracle."""
    table, classes, _, chartable = group_cache("A:5")
    five_cycles = [c for c in range(classes.k) if classes.orders[c] == 5]
    for c in five_cycles:
        brute = _one(p_brute(c, c, table, classes), c, c, classes)
        assert brute.l2_sq == pytest.approx(265 / 8640, abs=1e-9)
        assert l2_sq_char(c, c, chartable) == pytest.approx(265 / 8640, abs=1e-9)


def test_lemma_dual_path_identity(group_cache):
    for label in ORACLE_GROUPS:
        table, classes, _, chartable = group_cache(label)
        for xc in range(classes.k):
            for yc in range(classes.k):
                a = _one(p_char(xc, yc, chartable), xc, yc, classes).l2_sq
                b = l2_sq_char(xc, yc, chartable)
                assert abs(a - b) <= 1e-9 * max(abs(a), abs(b))


def test_n_stat_symmetry(group_cache):
    _, classes, _, chartable = group_cache("PSL2:11")
    for xc in range(classes.k):
        for yc in range(xc, classes.k):
            assert l2_sq_char(xc, yc, chartable) == pytest.approx(
                l2_sq_char(yc, xc, chartable), rel=1e-12
            )


def test_distance_identities(group_cache):
    for label in ORACLE_GROUPS:
        table, classes, _, chartable = group_cache(label)
        for xc in range(classes.k):
            for yc in range(classes.k):
                st = _one(p_char(xc, yc, chartable), xc, yc, classes)
                assert abs(st.l2_sq_dist - (st.l2_sq - 1.0 / table.order)) < 1e-12
                assert st.l1 <= math.sqrt(table.order * st.l2_sq_dist) + 1e-12


def test_distance_trivial_cases(group_cache):
    table, classes, _, chartable = group_cache("A:5")
    # x = identity, y of class size m: l1 = 2(1 - m/|G|)
    for yc in range(classes.k):
        l1 = _one(p_char(0, yc, chartable), 0, yc, classes).l1
        m = classes.sizes[yc]
        assert l1 == pytest.approx(2 * (1 - m / table.order), abs=1e-10)


def test_uniform_distribution_zero_distance(group_cache):
    """A row of 1/|G| on the identity pair (|C_1|^2 = 1) is the uniform distribution itself."""
    table, classes, _, _ = group_cache("A:5")
    st = pair_stats(np.full((1, classes.k), 1.0 / table.order), [0], [0], classes)
    assert (st.l1[0], st.l2_sq_dist[0], st.linf[0]) == (0.0, 0.0, 0.0)
    assert st.support[0] == table.order


def test_coverage_examples(group_cache):
    table, classes, _, chartable = group_cache("A:5")
    for yc in range(classes.k):
        assert _one(p_brute(0, yc, table, classes), 0, yc, classes).support == classes.sizes[yc]
    # oracle-confirmed: a 5-cycle class squared misses the double
    # transpositions, covering 45 of 60; the 3-cycle class covers everything
    five = next(c for c in range(classes.k) if classes.orders[c] == 5)
    assert _one(p_brute(five, five, table, classes), five, five, classes).support == 45
    three = next(c for c in range(classes.k) if classes.orders[c] == 3)
    assert _one(p_brute(three, three, table, classes), three, three, classes).support == 60


@pytest.mark.parametrize("label", ORACLE_LABELS)
def test_coverage_brute_counts_match_support_table(label, tmp_path):
    """|C_i C_j| from one class_rows row equals both routes' per-pair coverage, the one-sweep-per-class
    tensor's and pair_stats' over one class_rows sweep per x class."""
    table = group_build(oracle_spec(label, tmp_path))
    classes = conj_classes(table)
    chartable = dixon_character_table(table, classes)
    supports = (full_sweep_structure_constants(table) > 0) @ np.asarray(classes.sizes, dtype=np.int64)
    ys = np.arange(classes.k)
    for xc in range(classes.k):
        swept = pair_stats(class_rows(table, classes, xc, ys), np.full(classes.k, xc), ys, classes).support
        for yc in range(classes.k):
            support = class_rows_support(table, classes, xc, yc)
            brute = from_constants(xc, yc, p_brute(xc, yc, table, classes).row, classes, "brute")
            char = from_constants(xc, yc, p_char(xc, yc, chartable).row, classes, "char")
            assert support == coverage(brute, classes).support
            assert support == coverage(char, classes).support
            assert support == supports[xc, yc] == swept[yc]


@pytest.mark.parametrize("label", ["A:5", "PSL2:7", "S:6", "SL2:8"])
def test_one_pair_stats_match_per_pair_oracles_bit_for_bit(label, group_cache):
    """A one-pair pair_stats call equals the per-pair reference formulas bit for bit, by both routes."""
    table, classes, _, chartable = group_cache(label)
    for xc in range(classes.k):
        for yc in range(classes.k):
            for source, dist in (
                ("char", p_char(xc, yc, chartable)),
                ("brute", p_brute(xc, yc, table, classes)),
            ):
                st = _one(dist, xc, yc, classes)
                ref = from_constants(xc, yc, dist.row, classes, source)
                dr = dist_to_uniform(ref, classes)
                assert st.probs.tobytes() == ref.probs.tobytes(), (label, xc, yc, source)
                got = np.array([st.l1, st.l2_sq, st.l2_sq_dist, st.linf])
                assert got.tobytes() == np.array([dr.l1, l2_sq(ref, classes), dr.l2_sq, dr.linf]).tobytes(), (
                    label, xc, yc, source,
                )
                assert st.support == coverage(ref, classes).support, (label, xc, yc, source)


@pytest.mark.parametrize("label", ORACLE_LABELS)
def test_char_and_brute_counts_are_the_structure_constants(label, tmp_path):
    """Both routes give exact pair counts, a_xyl |C_l| of the whole-group sweep, as integers."""
    table = group_build(oracle_spec(label, tmp_path))
    classes = conj_classes(table)
    chartable = dixon_character_table(table, classes)
    counts = full_sweep_structure_constants(table) * np.asarray(classes.sizes, dtype=np.int64)
    for xc in range(classes.k):
        for yc in range(classes.k):
            char = p_char(xc, yc, chartable)
            brute = p_brute(xc, yc, table, classes)
            assert char.counts == brute.counts == tuple(counts[xc, yc].tolist())
            assert all(type(c) is int for c in char.counts + brute.counts)


def test_p_char_rejects_moved_residue(group_cache):
    """One character value mod P moved by 1 leaves the float row as it was, so a residue disagrees."""
    _, classes, _, chartable = group_cache("A:5")
    residues = chartable.residues.copy()
    residues[1, 1] = (residues[1, 1] + 1) % chartable.modulus_prime
    with pytest.raises(InvariantViolation, match="mod P"):
        p_char(1, 0, chartable._replace(residues=residues))


def test_coverage_norm_link(group_cache):
    for label in ["S:3", "S:4", "A:5"]:
        table, classes, _, _ = group_cache(label)
        for xc in range(classes.k):
            for yc in range(classes.k):
                assert coverage_norm_link_holds(p_brute(xc, yc, table, classes), classes)


def test_loop_budget_guard(group_cache, monkeypatch):
    table, classes, _, _ = group_cache("A:5")
    monkeypatch.setenv("MIXER_LOOP_BUDGET", "10")
    with pytest.raises(LoopBudgetExceeded):
        p_brute(1, 1, table, classes)


def test_loop_budget_counts_products(group_cache, monkeypatch):
    """p_brute spends |C_x| element products: S:8 classes 14 x 15 fit a budget of |C_14| = 5760, not 5759."""
    table, classes, _, _ = group_cache("S:8")
    assert classes.sizes[14] == 5760
    monkeypatch.setenv("MIXER_LOOP_BUDGET", "5760")
    assert sum(p_brute(14, 15, table, classes).counts) == 5760 * classes.sizes[15]
    monkeypatch.setenv("MIXER_LOOP_BUDGET", "5759")
    with pytest.raises(LoopBudgetExceeded):
        p_brute(14, 15, table, classes)


def test_p_brute_loop_path_without_mul_table(group_cache):
    # A_8 is above the dense-table threshold, exercising the elementwise loop
    table, classes, _, chartable = group_cache("A:8")
    yc = int(np.argsort(classes.sizes)[1])  # smallest nontrivial class
    brute = _one(p_brute(0, yc, table, classes), 0, yc, classes)
    char = _one(p_char(0, yc, chartable), 0, yc, classes)
    assert np.abs(brute.probs - char.probs).max() < 1e-9


# -- thompson ------------------------------------------------------------------


def test_thompson_a5_witness_is_three_cycle(group_cache):
    # oracle-confirmed witness: the 3-cycle class (the 5-cycle classes cover 45/60)
    table, classes, _, _ = group_cache("A:5")
    supports = thompson_search(table, classes)
    assert max(supports) == table.order
    assert classes.orders[supports.index(max(supports))] == 3


@pytest.mark.parametrize("q", [5, 7, 8, 9, 11, 13])
def test_thompson_psl2_witness(q, group_cache):
    table, classes, _, _ = group_cache(f"PSL2:{q}")
    assert max(thompson_search(table, classes)) == table.order


def test_thompson_trivial_group():
    table = group_build(GroupSpec.from_perm_generators([tuple(range(3))]))
    classes = conj_classes(table)
    assert thompson_search(table, classes) == [table.order]


def test_thompson_matches_brute_squares(group_cache):
    table, classes, _, _ = group_cache("S:4")
    supports = thompson_search(table, classes)
    assert len(supports) == classes.k
    for c, support in enumerate(supports):
        brute = from_constants(c, c, p_brute(c, c, table, classes).row, classes, "brute")
        assert coverage(brute, classes).support == support


# -- surveys -------------------------------------------------------------------


def test_survey_independent_total_probability(group_cache):
    table, classes, _, chartable = group_cache("A:5")
    rep = survey(chartable, _coupling(table, classes, "independent"), thresholds=(0.5, 1.0))
    weights = sum(p.weight for p in rep.pairs)
    assert weights == pytest.approx(1.0, abs=1e-10)
    # delta = infinity: every pair counts
    big = survey(chartable, _coupling(table, classes, "independent"), thresholds=(float("inf"),))
    assert big.thresholds[0][1] == pytest.approx(1.0, abs=1e-10)


def test_survey_weighted_mean_consistency(group_cache):
    table, classes, _, chartable = group_cache("A:5")
    rep = survey(chartable, _coupling(table, classes, "independent"))
    mean_from_report = sum(p.weight * p.n_stat for p in rep.pairs)
    direct = 0.0
    for i in range(classes.k):
        for j in range(classes.k):
            w = classes.sizes[i] * classes.sizes[j] / table.order**2
            direct += w * table.order * l2_sq_char(i, j, chartable)
    assert mean_from_report == pytest.approx(direct, rel=1e-12)


def test_survey_diagonal_weights(group_cache):
    table, classes, _, chartable = group_cache("S:4")
    rep = survey(chartable, _coupling(table, classes, "diagonal"))
    for p in rep.pairs:
        assert p.x_class == p.y_class
        assert p.weight == pytest.approx(classes.sizes[p.x_class] / table.order)


def test_survey_translated_inverse_matches_full_sweep(group_cache):
    table, classes, _, chartable = group_cache("PSL2:11")
    stream = make_stream(5)
    a = int(stream.integers(0, table.order))
    rep = survey(chartable, _coupling(table, classes, f"transinv:{a}"))
    # independent recomputation of the pair weights
    mul, inverse = table.full_mul_table(), inverses(table)
    counts = {}
    for x in range(table.order):
        y = mul[inverse[x], a]
        key = (int(table.class_map[1][x]), int(table.class_map[1][y]))
        counts[key] = counts.get(key, 0) + 1
    for p in rep.pairs:
        assert p.weight == counts[(p.x_class, p.y_class)] / table.order
    rep2 = survey(chartable, _coupling(table, classes, f"transinv:{a}"))
    assert rep == rep2  # every field, floats exactly


@pytest.mark.parametrize("label", ORACLE_LABELS + ["A:9", "S:9"])
def test_translated_inverse_weights_match_element_sweep(label, tmp_path, group_cache):
    """transinv:a weights, the tensor slice a_ij,cl(a) / |G|, equal a count over every x in G.

    A:9 and S:9 add groups of more than 10^5 elements.
    """
    if label in ORACLE_LABELS:
        table = group_build(oracle_spec(label, tmp_path))
        classes = conj_classes(table)
        chartable = dixon_character_table(table, classes)
    else:
        table, classes, _, chartable = group_cache(label)
    for a in make_stream(29).integers(0, table.order, size=3).tolist():
        rep = survey(chartable, _coupling(table, classes, f"transinv:{a}"))
        counts = translated_inverse_counts(table, a)
        xs, ys = np.nonzero(counts)
        assert [(p.x_class, p.y_class) for p in rep.pairs] == list(zip(xs.tolist(), ys.tolist()))
        assert [p.weight for p in rep.pairs] == (counts[xs, ys] / table.order).tolist()


def test_survey_bijection_coupling(group_cache):
    table, classes, _, chartable = group_cache("S:4")
    stream = make_stream(17)
    mapping = tuple(int(i) for i in stream.permutation(table.order))
    rep = survey(chartable, _bijection(table, mapping))
    assert sum(p.weight for p in rep.pairs) == pytest.approx(1.0, abs=1e-10)


def test_bijection_validation(tmp_path):
    """A bijection file that is not a permutation of the element indices is refused where it is read."""
    (tmp_path / "b.txt").write_text("0 0 2 3 4 5\n")
    s3 = group_build(GroupSpec.sym(3))
    with pytest.raises(SpecSyntax, match="not a permutation"):
        cli._parse_coupling(s3, conj_classes(s3), f"bijfile:{tmp_path / 'b.txt'}")


def test_survey_quantiles_monotone(group_cache):
    table, classes, _, chartable = group_cache("A:6")
    rep = survey(chartable, _coupling(table, classes, "independent"))
    values = [v for _, v in rep.quantiles]
    assert values == sorted(values)


def _all_couplings(table, classes):
    stream = make_stream(23)
    a = int(stream.integers(0, table.order))
    mapping = tuple(int(i) for i in stream.permutation(table.order))
    texts = ("independent", "diagonal", f"transinv:{a}")
    return [*(_coupling(table, classes, text) for text in texts), _bijection(table, mapping)]


@pytest.mark.parametrize("label", ["A:5", "S:4", "PSL2:7"])
def test_survey_pairs_match_per_pair_routes(label, group_cache):
    """Batched survey rows equal the per-pair character, distance and brute coverage routes."""
    table, classes, _, chartable = group_cache(label)
    for coupling in _all_couplings(table, classes):
        rep = survey(chartable, coupling)
        assert [(p.x_class, p.y_class) for p in rep.pairs] == sorted((p.x_class, p.y_class) for p in rep.pairs)
        for p in rep.pairs:
            x, y = p.x_class, p.y_class
            char = from_constants(x, y, p_char(x, y, chartable).row, classes, "char")
            assert p.l1 == pytest.approx(dist_to_uniform(char, classes).l1, abs=1e-12)
            assert p.n_stat == table.order * l2_sq_char(x, y, chartable)
            brute = from_constants(x, y, p_brute(x, y, table, classes).row, classes, "brute")
            assert p.coverage_fraction == coverage(brute, classes).fraction


@pytest.mark.parametrize("label", ["A:5", "PSL2:7", "S:6"])
def test_survey_l1_equals_one_pair_stats_bit_for_bit(label, group_cache):
    """Each survey pair's l1 is a one-pair pair_stats call's on its p_char row, bit for bit, so survey and mixpair
    print the same l1 for the same pair whatever other pairs the survey holds."""
    table, classes, _, chartable = group_cache(label)
    for coupling in _all_couplings(table, classes):
        for p in survey(chartable, coupling).pairs:
            one = _one(p_char(p.x_class, p.y_class, chartable), p.x_class, p.y_class, classes)
            assert p.l1 == one.l1, (label, coupling, p.x_class, p.y_class)


@pytest.mark.parametrize("label", ["A:5", "S:4", "PSL2:7"])
def test_survey_thresholds_are_exact(label, group_cache):
    """P[N <= 1 + delta] counts a pair exactly when its rational N, from brute pair counts, does."""
    table, classes, _, chartable = group_cache(label)
    deltas = (0.0, 0.5, 1.0, 2.0, 3.0)
    for coupling in _all_couplings(table, classes):
        rep = survey(chartable, coupling, thresholds=deltas)
        for delta, prob in rep.thresholds:
            expected = 0.0
            for p in rep.pairs:
                counts = p_brute(p.x_class, p.y_class, table, classes).counts
                pairs = classes.sizes[p.x_class] * classes.sizes[p.y_class]
                n_exact = table.order * sum(Fraction(c * c, s) for c, s in zip(counts, classes.sizes)) / pairs**2
                if n_exact <= 1 + Fraction(delta):
                    expected += p.weight
            assert prob == pytest.approx(expected, abs=1e-12), (coupling, delta)


def test_survey_threshold_ties_count(group_cache):
    """Pairs with N exactly 1 + delta count: A_5 (identity, 3-cycles) has N = 3, float 3.0000000000000004."""
    for label, exact in (("A:5", Fraction(3521, 3600)), ("PSL2:7", Fraction(28001, 28224))):
        table, classes, _, chartable = group_cache(label)
        rep = survey(chartable, _coupling(table, classes, "independent"), thresholds=(2.0,))
        assert dict(rep.thresholds)[2.0] == pytest.approx(float(exact), abs=1e-12), label


def test_survey_rejects_nan_threshold(group_cache):
    table, classes, _, chartable = group_cache("S:4")
    with pytest.raises(SpecSyntax):
        survey(chartable, _coupling(table, classes, "independent"), thresholds=(1.0, float("nan")))
    rep = survey(chartable, _coupling(table, classes, "independent"), thresholds=(-math.inf, math.inf))
    assert rep.thresholds[0][1] == 0.0
    assert rep.thresholds[1][1] == pytest.approx(1.0, abs=1e-12)


def test_survey_rejects_imaginary_character_noise(group_cache):
    table, classes, _, chartable = group_cache("A:5")
    noisy = chartable._replace(values=chartable.values + 1e-6j * np.arange(classes.k))
    with pytest.raises(InvariantViolation):
        survey(noisy, _coupling(table, classes, "independent"))
    with pytest.raises(InvariantViolation):
        p_char(1, 2, noisy)


@pytest.mark.parametrize("label", ["A:5", "PSL2:7", "S:6"])
def test_class_level_answers_from_class_data_alone(label, group_cache):
    """class_products, structure_constants, witten_zeta and survey need only the class algebra: with the ClassData
    rebuilt from plain copies of the sizes, orders and power map, and no GroupTable in scope, they are
    bit-identical to the enumerated group's.  The surveyed bijection is x -> x^-1, whose class-pair counts
    |C_i| [j = i*] are class data too."""
    _, classes, _, chartable = group_cache(label)
    bare = chartable._replace(
        classes=ClassData(tuple(classes.sizes), tuple(classes.orders), np.array(classes.power_map.tolist()))
    )
    k = chartable.k
    xs, ys = np.divmod(np.arange(k * k), k)
    assert class_products(bare, xs, ys).tobytes() == class_products(chartable, xs, ys).tobytes()
    assert structure_constants(bare).tensor.tobytes() == structure_constants(chartable).tensor.tobytes()
    for s in (1.0, 2.0):
        assert repr(witten_zeta(bare, s)) == repr(witten_zeta(chartable, s))
    order = bare.classes.order
    w = np.asarray(bare.classes.sizes, dtype=np.float64) / order
    inverse_counts = np.diag(bare.classes.sizes)[:, bare.classes.inverse_class]
    couplings = (
        lambda tensor: np.outer(w, w),
        lambda tensor: np.diag(w),
        lambda tensor: tensor[:, :, k - 1] / order,
        lambda tensor: inverse_counts / order,
    )
    for coupling in couplings:
        assert repr(survey(bare, coupling)) == repr(survey(chartable, coupling))


# -- character-bound fraction ----------------------------------------------------


def test_char_bound_large_s_gives_one(group_cache):
    table, classes, _, chartable = group_cache("A:5")
    rep = char_bound_fraction(table, classes, chartable, s=2.0)
    assert rep.fraction == 1.0


def test_char_bound_a5(group_cache):
    table, classes, _, chartable = group_cache("A:5")
    rep = char_bound_fraction(table, classes, chartable, s=1.0)
    assert rep.lower_bound == pytest.approx(2.0 - witten_zeta(chartable, 1.0))
    if rep.binding:
        assert rep.fraction > rep.lower_bound


def test_char_bound_psl2_13(group_cache):
    table, classes, _, chartable = group_cache("PSL2:13")
    rep = char_bound_fraction(table, classes, chartable, s=1.0)
    assert rep.fraction > rep.lower_bound


def test_char_bound_rejects_nonpositive_s(group_cache):
    table, classes, _, chartable = group_cache("A:5")
    with pytest.raises(SpecSyntax):
        char_bound_fraction(table, classes, chartable, s=0.0)
