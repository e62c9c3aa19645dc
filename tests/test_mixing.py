import math
from fractions import Fraction

import numpy as np
import pytest

from classmix import cli
from classmix.errors import InvariantViolation, LoopBudgetExceeded, SpecSyntax
from classmix.groups import GroupSpec, conj_classes, group_build
from classmix.characters import ClassRows, dixon_character_table, witten_zeta
from classmix.mixing import (
    BijectionCoupling,
    Diagonal,
    Independent,
    TranslatedInverse,
    coverage,
    dist_to_uniform,
    l2_sq,
    l2_sq_char,
    p_brute,
    p_char,
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
    coverage_norm_link_holds,
    full_sweep_structure_constants,
    oracle_spec,
    sym_elements,
    translated_inverse_counts,
)

ORACLE_GROUPS = ["A:5", "S:4", "S:3", "PSL2:7"]


def test_p_char_identity_times_class_is_uniform_on_class(group_cache):
    table, classes, _, chartable = group_cache("A:5")
    for yc in range(classes.k):
        dist = p_char(0, yc, chartable, classes)
        expected = np.zeros(classes.k)
        expected[yc] = 1.0 / classes.sizes[yc]
        assert np.allclose(dist.probs, expected, atol=1e-12)


def test_p_char_identity_pair_is_point_mass(group_cache):
    _, classes, _, chartable = group_cache("PSL2:7")
    dist = p_char(0, 0, chartable, classes)
    assert dist.probs[0] == pytest.approx(1.0, abs=1e-12)
    assert np.abs(dist.probs[1:]).max() < 1e-12


def test_s3_brute_matches_hand_count(group_cache):
    table, classes, _, _ = group_cache("S:3")
    tc = classes.sizes.index(3)  # transpositions
    dist = p_brute(tc, tc, table, classes)
    # 9 pairs: 3 give the identity, 6 give a 3-cycle (class of size 2)
    assert dist.probs[0] == pytest.approx(3 / 9)
    three_cycle = classes.sizes.index(2)
    assert dist.probs[three_cycle] == pytest.approx((6 / 9) / 2)
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
            dist = p_brute(xc, yc, table, classes)
            ox = [tuple(table.elements[i]) for i in classes.members(xc)]
            oy = [tuple(table.elements[i]) for i in classes.members(yc)]
            sizes = [len(c) for c in oracle_classes]
            probs = brute_pair_distribution(ox, oy, assigned, sizes)
            # map package classes to oracle classes by a member element
            for k in range(classes.k):
                member = tuple(table.elements[classes.members(k)[0]])
                ok = assigned[member]
                assert float(probs[ok]) == pytest.approx(dist.probs[k], abs=1e-15)


@pytest.mark.parametrize("label", ORACLE_GROUPS)
def test_oracle_equivalence_all_pairs(label, group_cache):
    table, classes, _, chartable = group_cache(label)
    for xc in range(classes.k):
        for yc in range(classes.k):
            brute = p_brute(xc, yc, table, classes)
            char = p_char(xc, yc, chartable, classes)
            assert np.abs(brute.probs - char.probs).max() < 1e-9


@pytest.mark.parametrize("label", ORACLE_GROUPS)
def test_normalization_all_pairs(label, group_cache):
    table, classes, _, chartable = group_cache(label)
    sizes = np.asarray(classes.sizes, dtype=np.float64)
    for xc in range(classes.k):
        for yc in range(classes.k):
            char = p_char(xc, yc, chartable, classes)
            assert abs(float(sizes @ char.probs) - 1.0) < 1e-10


def test_l2_examples(group_cache):
    table, classes, _, chartable = group_cache("A:5")
    # identity pair -> point mass -> 1
    assert l2_sq(p_char(0, 0, chartable, classes), classes) == pytest.approx(1.0, abs=1e-10)
    # identity x class -> 1/|class|
    for yc in range(1, classes.k):
        val = l2_sq(p_char(0, yc, chartable, classes), classes)
        assert val == pytest.approx(1.0 / classes.sizes[yc], abs=1e-12)


def test_a5_five_cycle_frozen_value(group_cache):
    """A_5, x = y = 5-cycle class: ||p||_2^2 = 265/8640, confirmed by the oracle."""
    table, classes, _, chartable = group_cache("A:5")
    five_cycles = [c for c in range(classes.k) if classes.orders[c] == 5]
    for c in five_cycles:
        brute = p_brute(c, c, table, classes)
        assert l2_sq(brute, classes) == pytest.approx(265 / 8640, abs=1e-9)
        assert l2_sq_char(c, c, chartable) == pytest.approx(265 / 8640, abs=1e-9)


def test_lemma_dual_path_identity(group_cache):
    for label in ORACLE_GROUPS:
        table, classes, _, chartable = group_cache(label)
        for xc in range(classes.k):
            for yc in range(classes.k):
                a = l2_sq(p_char(xc, yc, chartable, classes), classes)
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
                dist = p_char(xc, yc, chartable, classes)
                dr = dist_to_uniform(dist, classes)
                assert abs(dr.l2_sq - (l2_sq(dist, classes) - 1.0 / table.order)) < 1e-12
                assert dr.l1 <= math.sqrt(table.order * dr.l2_sq) + 1e-12


def test_distance_trivial_cases(group_cache):
    table, classes, _, chartable = group_cache("A:5")
    # x = identity, y of class size m: l1 = 2(1 - m/|G|)
    for yc in range(classes.k):
        dr = dist_to_uniform(p_char(0, yc, chartable, classes), classes)
        m = classes.sizes[yc]
        assert dr.l1 == pytest.approx(2 * (1 - m / table.order), abs=1e-10)


def test_uniform_distribution_zero_distance(group_cache):
    table, classes, _, chartable = group_cache("A:5")
    from classmix.mixing import PairDistribution

    uniform = PairDistribution(
        x_class=0,
        y_class=0,
        probs=np.full(classes.k, 1.0 / table.order),
        order=table.order,
        source="char",
    )
    dr = dist_to_uniform(uniform, classes)
    assert (dr.l1, dr.l2_sq, dr.linf) == (0.0, 0.0, 0.0)


def test_coverage_examples(group_cache):
    table, classes, _, chartable = group_cache("A:5")
    for yc in range(classes.k):
        cov = coverage(p_brute(0, yc, table, classes), classes)
        assert cov.support == classes.sizes[yc]
    # oracle-confirmed: a 5-cycle class squared misses the double
    # transpositions, covering 45 of 60; the 3-cycle class covers everything
    five = next(c for c in range(classes.k) if classes.orders[c] == 5)
    cov = coverage(p_brute(five, five, table, classes), classes)
    assert cov.support == 45
    three = next(c for c in range(classes.k) if classes.orders[c] == 3)
    cov3 = coverage(p_brute(three, three, table, classes), classes)
    assert cov3.support == 60 and cov3.fraction == 1.0


@pytest.mark.parametrize("label", ORACLE_LABELS)
def test_coverage_brute_counts_match_support_table(label, tmp_path):
    """ClassRows.support(i, j) is |C_i C_j| by both routes' exact counts and by the one-sweep-per-class tensor."""
    table = group_build(oracle_spec(label, tmp_path))
    classes = conj_classes(table)
    chartable = dixon_character_table(table, classes)
    rows = ClassRows(table, classes)
    supports = (full_sweep_structure_constants(table, classes) > 0) @ np.asarray(classes.sizes, dtype=np.int64)
    for xc in range(classes.k):
        for yc in range(classes.k):
            support = rows.support(xc, yc)
            assert support == coverage(p_brute(xc, yc, table, classes), classes).support
            assert support == coverage(p_char(xc, yc, chartable, classes), classes).support
            assert support == supports[xc, yc]


@pytest.mark.parametrize("label", ORACLE_LABELS)
def test_char_and_brute_counts_are_the_structure_constants(label, tmp_path):
    """Both routes give exact pair counts, a_xyl |C_l| of the whole-group sweep, as integers."""
    table = group_build(oracle_spec(label, tmp_path))
    classes = conj_classes(table)
    chartable = dixon_character_table(table, classes)
    counts = full_sweep_structure_constants(table, classes) * np.asarray(classes.sizes, dtype=np.int64)
    for xc in range(classes.k):
        for yc in range(classes.k):
            char = p_char(xc, yc, chartable, classes)
            brute = p_brute(xc, yc, table, classes)
            assert char.counts == brute.counts == tuple(counts[xc, yc].tolist())
            assert all(type(c) is int for c in char.counts + brute.counts)


def test_p_char_rejects_moved_residue(group_cache):
    """One character value mod P moved by 1 leaves the float row as it was, so a residue disagrees."""
    _, classes, _, chartable = group_cache("A:5")
    residues = chartable.residues.copy()
    residues[1, 1] = (residues[1, 1] + 1) % chartable.modulus_prime
    with pytest.raises(InvariantViolation, match="mod P"):
        p_char(1, 0, chartable._replace(residues=residues), classes)


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
    brute = p_brute(0, yc, table, classes)
    char = p_char(0, yc, chartable, classes)
    assert np.abs(brute.probs - char.probs).max() < 1e-9


# -- thompson ------------------------------------------------------------------


def test_thompson_a5_witness_is_three_cycle(group_cache):
    # oracle-confirmed witness: the 3-cycle class (the 5-cycle classes cover 45/60)
    table, classes, _, _ = group_cache("A:5")
    res = thompson_search(table, classes)
    assert res.witness
    assert classes.orders[res.best_class] == 3


@pytest.mark.parametrize("q", [5, 7, 8, 9, 11, 13])
def test_thompson_psl2_witness(q, group_cache):
    table, classes, _, _ = group_cache(f"PSL2:{q}")
    res = thompson_search(table, classes)
    assert res.witness


def test_thompson_trivial_group():
    table = group_build(GroupSpec.from_perm_generators([tuple(range(3))]))
    classes = conj_classes(table)
    res = thompson_search(table, classes)
    assert res.witness and res.fraction == 1.0


def test_thompson_matches_brute_squares(group_cache):
    table, classes, _, _ = group_cache("S:4")
    res = thompson_search(table, classes)
    for c, support in res.per_class:
        cov = coverage(p_brute(c, c, table, classes), classes)
        assert cov.support == support


# -- surveys -------------------------------------------------------------------


def test_survey_independent_total_probability(group_cache):
    table, classes, _, chartable = group_cache("A:5")
    rep = survey(table, classes, chartable, Independent(), thresholds=(0.5, 1.0))
    weights = sum(p.weight for p in rep.pairs)
    assert weights == pytest.approx(1.0, abs=1e-10)
    # delta = infinity: every pair counts
    big = survey(table, classes, chartable, Independent(), thresholds=(float("inf"),))
    assert big.thresholds[0][1] == pytest.approx(1.0, abs=1e-10)


def test_survey_weighted_mean_consistency(group_cache):
    table, classes, _, chartable = group_cache("A:5")
    rep = survey(table, classes, chartable, Independent())
    mean_from_report = sum(p.weight * p.n_stat for p in rep.pairs)
    direct = 0.0
    for i in range(classes.k):
        for j in range(classes.k):
            w = classes.sizes[i] * classes.sizes[j] / table.order**2
            direct += w * table.order * l2_sq_char(i, j, chartable)
    assert mean_from_report == pytest.approx(direct, rel=1e-12)


def test_survey_diagonal_weights(group_cache):
    table, classes, _, chartable = group_cache("S:4")
    rep = survey(table, classes, chartable, Diagonal())
    for p in rep.pairs:
        assert p.x_class == p.y_class
        assert p.weight == pytest.approx(classes.sizes[p.x_class] / table.order)


def test_survey_translated_inverse_matches_full_sweep(group_cache):
    table, classes, _, chartable = group_cache("PSL2:11")
    stream = make_stream(5)
    a = int(stream.integers(0, table.order))
    rep = survey(table, classes, chartable, TranslatedInverse(a))
    # independent recomputation of the pair weights
    mul = table.full_mul_table()
    counts = {}
    for x in range(table.order):
        y = mul[table.inverses[x], a]
        key = (int(classes.class_of[x]), int(classes.class_of[y]))
        counts[key] = counts.get(key, 0) + 1
    for p in rep.pairs:
        assert p.weight == counts[(p.x_class, p.y_class)] / table.order
    rep2 = survey(table, classes, chartable, TranslatedInverse(a))
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
        rep = survey(table, classes, chartable, TranslatedInverse(a))
        counts = translated_inverse_counts(table, classes, a)
        xs, ys = np.nonzero(counts)
        assert [(p.x_class, p.y_class) for p in rep.pairs] == list(zip(xs.tolist(), ys.tolist()))
        assert [p.weight for p in rep.pairs] == (counts[xs, ys] / table.order).tolist()


def test_survey_bijection_coupling(group_cache):
    table, classes, _, chartable = group_cache("S:4")
    stream = make_stream(17)
    mapping = tuple(int(i) for i in stream.permutation(table.order))
    rep = survey(table, classes, chartable, BijectionCoupling(mapping))
    assert sum(p.weight for p in rep.pairs) == pytest.approx(1.0, abs=1e-10)


def test_bijection_validation(tmp_path):
    """A bijection file that is not a permutation of the element indices is refused where it is read."""
    (tmp_path / "b.txt").write_text("0 0 2 3 4 5\n")
    with pytest.raises(SpecSyntax, match="not a permutation"):
        cli._parse_coupling(group_build(GroupSpec.sym(3)), f"bijfile:{tmp_path / 'b.txt'}")


def test_survey_quantiles_monotone(group_cache):
    table, classes, _, chartable = group_cache("A:6")
    rep = survey(table, classes, chartable, Independent())
    values = [v for _, v in rep.quantiles]
    assert values == sorted(values)


def _all_couplings(table):
    stream = make_stream(23)
    a = int(stream.integers(0, table.order))
    mapping = tuple(int(i) for i in stream.permutation(table.order))
    return [Independent(), Diagonal(), TranslatedInverse(a), BijectionCoupling(mapping)]


@pytest.mark.parametrize("label", ["A:5", "S:4", "PSL2:7"])
def test_survey_pairs_match_per_pair_routes(label, group_cache):
    """Batched survey rows equal the per-pair character, distance and brute coverage routes."""
    table, classes, _, chartable = group_cache(label)
    for coupling in _all_couplings(table):
        rep = survey(table, classes, chartable, coupling)
        assert [(p.x_class, p.y_class) for p in rep.pairs] == sorted((p.x_class, p.y_class) for p in rep.pairs)
        for p in rep.pairs:
            dist = p_char(p.x_class, p.y_class, chartable, classes)
            assert p.l1 == pytest.approx(dist_to_uniform(dist, classes).l1, abs=1e-12)
            assert p.n_stat == table.order * l2_sq_char(p.x_class, p.y_class, chartable)
            brute = coverage(p_brute(p.x_class, p.y_class, table, classes), classes)
            assert p.coverage_fraction == brute.fraction


@pytest.mark.parametrize("label", ["A:5", "S:4", "PSL2:7"])
def test_survey_thresholds_are_exact(label, group_cache):
    """P[N <= 1 + delta] counts a pair exactly when its rational N, from brute pair counts, does."""
    table, classes, _, chartable = group_cache(label)
    deltas = (0.0, 0.5, 1.0, 2.0, 3.0)
    for coupling in _all_couplings(table):
        rep = survey(table, classes, chartable, coupling, thresholds=deltas)
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
        rep = survey(table, classes, chartable, Independent(), thresholds=(2.0,))
        assert dict(rep.thresholds)[2.0] == pytest.approx(float(exact), abs=1e-12), label


def test_survey_rejects_nan_threshold(group_cache):
    table, classes, _, chartable = group_cache("S:4")
    with pytest.raises(SpecSyntax):
        survey(table, classes, chartable, Independent(), thresholds=(1.0, float("nan")))
    rep = survey(table, classes, chartable, Independent(), thresholds=(-math.inf, math.inf))
    assert rep.thresholds[0][1] == 0.0
    assert rep.thresholds[1][1] == pytest.approx(1.0, abs=1e-12)


def test_survey_rejects_imaginary_character_noise(group_cache):
    table, classes, _, chartable = group_cache("A:5")
    noisy = chartable._replace(values=chartable.values + 1e-6j * np.arange(classes.k))
    with pytest.raises(InvariantViolation):
        survey(table, classes, noisy, Independent())
    with pytest.raises(InvariantViolation):
        p_char(1, 2, noisy, classes)


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
