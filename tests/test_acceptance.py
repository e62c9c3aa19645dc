"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with: pytest tests/test_acceptance.py -v -s
Golden values marked FROZEN were computed by the stated oracle on the first
exact run and are regression-guarded here.
"""

import math

import numpy as np
import pytest

from classmix.characters import (
    dixon_character_table,
    verify_orthogonality,
    witten_zeta,
)
from classmix.groups import GroupSpec, conj_classes, group_build
from classmix.interleave import (
    Rectangle,
    RectangleProtocol,
    advantage,
    decode_tuples,
    deviation_report,
    exact_distribution,
    explicit_tuple_set,
    fiber_sample,
    full_tuple_set,
    mc_distribution,
    seeded_tuple_set,
)
from classmix.mixing import (
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
    char_bound_fraction,
    exact_conditional_acceptance,
    interleave_product,
    rectangle_bound_check,
    validate_protocol_exact,
)

TEST_GROUPS = ["A:5", "A:6", "A:7", "S:4", "PSL2:7", "PSL2:11", "PSL2:13"]
ORACLE_GROUPS = ["A:5", "S:4", "S:3", "PSL2:7"]


def _ok(name: str):
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_01_character_table_validity(group_cache):
    """Row/column orthogonality < 1e-8 |G|; sum of degree squares exact; deterministic."""
    for label in TEST_GROUPS:
        table, classes, _, chartable = group_cache(label)
        report = verify_orthogonality(chartable)
        assert report.max_row_residual < 1e-8 * table.order, label
        assert report.max_col_residual < 1e-8 * table.order, label
        assert sum(d * d for d in chartable.degrees) == table.order, label
        # determinism: full rebuild gives byte-identical values
        table2 = group_build(table.spec)
        classes2 = conj_classes(table2)
        chartable2 = dixon_character_table(table2, classes2)
        assert chartable2.degrees == chartable.degrees, label
        assert np.array_equal(chartable2.values, chartable.values), label
        assert np.array_equal(chartable2.residues, chartable.residues), label
        assert chartable2.class_sizes == chartable.class_sizes, label
        assert chartable2.order == chartable.order, label
        assert chartable2.row_residual == chartable.row_residual, label
        assert chartable2.col_residual == chartable.col_residual, label
    _ok("1 character-table validity")


def test_criterion_02_zeta_special_values(group_cache):
    """zeta(0) = k(G) and zeta(-2) = |G| within 1e-6 relative."""
    for label in TEST_GROUPS:
        table, classes, _, chartable = group_cache(label)
        z0 = witten_zeta(chartable, 0.0)
        zm2 = witten_zeta(chartable, -2.0)
        assert abs(z0 - classes.k) <= 1e-6 * classes.k, label
        assert abs(zm2 - table.order) <= 1e-6 * table.order, label
    _ok("2 zeta special values")


def test_criterion_03_lemma_dual_path(group_cache):
    """l2_sq(p_brute) vs l2_sq_char within 1e-9 relative on ALL class pairs."""
    for label in ORACLE_GROUPS:
        table, classes, _, chartable = group_cache(label)
        for xc in range(classes.k):
            for yc in range(classes.k):
                brute_val = l2_sq(p_brute(xc, yc, table, classes), classes)
                char_val = l2_sq_char(xc, yc, chartable)
                assert abs(brute_val - char_val) <= 1e-9 * max(brute_val, char_val), (
                    label, xc, yc,
                )
    _ok("3 Lemma dual-path equality")


def test_criterion_04_distance_identities(group_cache):
    """||p-U||_2^2 = ||p||_2^2 - 1/|G| within 1e-12; l1 <= sqrt(|G|) ||p-U||_2."""
    for label in ORACLE_GROUPS:
        table, classes, _, chartable = group_cache(label)
        for xc in range(classes.k):
            for yc in range(classes.k):
                for dist in (
                    p_char(xc, yc, chartable, classes),
                    p_brute(xc, yc, table, classes),
                ):
                    dr = dist_to_uniform(dist, classes)
                    identity_rhs = l2_sq(dist, classes) - 1.0 / table.order
                    assert abs(dr.l2_sq - identity_rhs) < 1e-12, (label, xc, yc)
                    assert dr.l1 <= math.sqrt(table.order * dr.l2_sq) + 1e-12, (label, xc, yc)
    _ok("4 distance identities")


def test_criterion_05_frozen_a5_value(group_cache):
    """A_5 five-cycle pair: ||p||_2^2 = 265/8640 (oracle-confirmed, FROZEN)."""
    table, classes, _, chartable = group_cache("A:5")
    five_cycle_classes = [c for c in range(classes.k) if classes.orders[c] == 5]
    assert len(five_cycle_classes) == 2
    for c in five_cycle_classes:
        brute_val = l2_sq(p_brute(c, c, table, classes), classes)
        assert abs(brute_val - 265 / 8640) <= 1e-9
        assert abs(l2_sq_char(c, c, chartable) - 265 / 8640) <= 1e-9
    _ok("5 frozen oracle value 265/8640")


def test_criterion_06_thompson_witnesses(group_cache):
    """A full-coverage class exists in A_5..A_9 and PSL2(q), q in {5,7,8,9,11,13}."""
    labels = [f"A:{n}" for n in range(5, 10)] + [f"PSL2:{q}" for q in (5, 7, 8, 9, 11, 13)]
    for label in labels:
        table, classes, _, _ = group_cache(label)
        res = thompson_search(table, classes)
        assert res.witness, label
        assert res.fraction == 1.0, label
    _ok("6 Thompson desk verification")


def test_criterion_07_char_bound_inequality(group_cache):
    """Weighted fraction with |chi(x)| <= chi(1)^(1/2) exceeds 2 - zeta(1) when binding."""
    for label in TEST_GROUPS:
        table, classes, _, chartable = group_cache(label)
        rep = char_bound_fraction(table, classes, chartable, s=1.0)
        if rep.binding:
            assert rep.fraction > rep.lower_bound, label
    _ok("7 character-bound fraction inequality")


# FROZEN golden values for criterion 8: independent-coupling P[N <= 2],
# recorded from the first exact run of the character pipeline.
GOLDEN_TREND_PSL2 = {
    7: 0.9881306689342404,
    11: 0.996971992653811,
    13: 0.9981693367682378,
    17: 0.9991831734055279,
    19: 0.9994152901747547,
}
GOLDEN_TREND_ALT = {
    5: 0.9669444444444445,
    6: 0.9944521604938272,
    7: 0.9961200869236584,
    8: 0.9987114394368857,
    9: 0.998988520748377,
}


def test_criterion_08_survey_trend(group_cache):
    """P[N <= 2] non-decreasing in q (PSL2) and n (Alt) within 0.05 slack; FROZEN."""
    for family, golden in (("PSL2", GOLDEN_TREND_PSL2), ("A", GOLDEN_TREND_ALT)):
        probs = []
        for param, expected in golden.items():
            table, classes, _, chartable = group_cache(f"{family}:{param}")
            rep = survey(table, classes, chartable, Independent(), thresholds=(1.0,))
            value = dict(rep.thresholds)[1.0]
            assert abs(value - expected) < 1e-9, (family, param)
            probs.append(value)
        for earlier, later in zip(probs, probs[1:]):
            assert later >= earlier - 0.05, family
    _ok("8 survey trend in q and n")


def test_criterion_09_translated_inverse_bit_identical(group_cache):
    """TranslatedInverse surveys reproduce an exact full-sweep recomputation."""
    for label in ("A:5", "PSL2:11"):
        table, classes, _, chartable = group_cache(label)
        for seed in (101, 202, 303):
            a = int(make_stream(seed).integers(0, table.order))
            rep = survey(table, classes, chartable, TranslatedInverse(a))
            # independent full sweep over x, exact integer weights
            mul = table.full_mul_table()
            counts = {}
            for x in range(table.order):
                y = mul[table.inverses[x], a]
                key = (int(classes.class_of[x]), int(classes.class_of[y]))
                counts[key] = counts.get(key, 0) + 1
            assert len(rep.pairs) == len(counts)
            for pair in rep.pairs:
                assert pair.weight == counts[(pair.x_class, pair.y_class)] / table.order
                assert pair.n_stat == table.order * l2_sq_char(pair.x_class, pair.y_class, chartable)
            rerun = survey(table, classes, chartable, TranslatedInverse(a))
            assert rerun == rep  # every field, floats exactly
    _ok("9 coupling coverage bit-identical")


# FROZEN golden deviations for criterion 10 (seed 2024, density 1/2 per t):
# t=2 exact over 1800x1800 pairs; t=3 MC 4e7 draws; t=4 MC 1e8 draws.
GOLDEN_DECAY = {
    2: 8.888888888888889e-05,
    3: 5.9516666666666665e-05,
    4: 3.4956666666666663e-05,
}
DECAY_SAMPLES = {3: 40_000_000, 4: 100_000_000}


def test_criterion_10_interleave_exactness_and_decay(group_cache):
    """Full density exactly uniform; seeded density-1/2 decay on A_5 (FROZEN golden)."""
    table, _, _, _ = group_cache("A:5")
    full = full_tuple_set(table, 2)
    est = exact_distribution(full, full, table)
    assert est.linf_dev == 0.0

    devs = {}
    for t in (2, 3, 4):
        a_set = seeded_tuple_set(table, t, 0.5, make_stream(2024, 1))
        b_set = seeded_tuple_set(table, t, 0.5, make_stream(2024, 2))
        if t == 2:
            est = exact_distribution(a_set, b_set, table)
        else:
            est = mc_distribution(
                a_set, b_set, DECAY_SAMPLES[t], make_stream(2024, 3), table, block=2_000_000
            )
        rep = deviation_report(
            est, float(a_set.density), float(b_set.density), family="alt", base=5.0, arity=t
        )
        assert rep.implied_exponent > 0, t
        devs[t] = est.linf_dev
        assert abs(est.linf_dev - GOLDEN_DECAY[t]) <= 1e-9 * GOLDEN_DECAY[t], t
    assert devs[2] >= devs[3] >= devs[4]
    _ok("10 interleave exactness and decay")


def test_criterion_11_fiber_sampler(group_cache):
    """Chi-square uniformity over the exact fiber at 1e-3; pairs always hit g."""
    from scipy.stats import chi2

    draws = 10**6
    for label in ("S:3", "A:5"):
        table, _, _, _ = group_cache(label)
        n = table.order
        g = 0
        a_rows, b_rows = fiber_sample(table, g, 2, make_stream(4096), draws=draws)
        # free coordinates (a1, a2, b1) parameterize the fiber bijectively
        keys = a_rows[:, 0] * n * n + a_rows[:, 1] * n + b_rows[:, 0]
        counts = np.bincount(keys.astype(np.int64), minlength=n**3)
        expected = draws / n**3
        stat = float(((counts - expected) ** 2 / expected).sum())
        threshold = chi2.ppf(1 - 1e-3, df=n**3 - 1)
        assert stat < threshold, label
        sample = slice(0, 2000)
        for ra, rb in zip(a_rows[sample], b_rows[sample]):
            assert interleave_product(table, ra, rb) == g
    _ok("11 fiber sampler")


def _half_split_protocol(table, arity=2):
    total = table.order**arity
    half = total // 2
    lower = [tuple(r) for r in decode_tuples(np.arange(half, dtype=np.int64), arity, table.order)]
    upper = [tuple(r) for r in decode_tuples(np.arange(half, total, dtype=np.int64), arity, table.order)]
    full = full_tuple_set(table, arity)
    return RectangleProtocol(
        rectangles=(
            Rectangle(a_set=explicit_tuple_set(table, lower), b_set=full, bit=1),
            Rectangle(a_set=explicit_tuple_set(table, upper), b_set=full, bit=0),
        )
    )


def test_criterion_12_advantage_experiment(group_cache):
    """Constant protocols give exactly 0; two-rectangle matches exact within 4 sigma;
    the assembled rectangle inequality holds on every tested protocol."""
    table, _, _, _ = group_cache("S:3")
    full = full_tuple_set(table, 2)
    protocols = []

    for bit in (0, 1):
        proto = RectangleProtocol(rectangles=(Rectangle(a_set=full, b_set=full, bit=bit),))
        rep = advantage(proto, table, 1, 2, samples=20_000, stream=make_stream(12))
        assert rep.advantage == 0.0
        protocols.append(proto)

    proto = _half_split_protocol(table)
    validate_protocol_exact(proto, table)
    protocols.append(proto)
    g, h = 1, 2
    exact_g = float(exact_conditional_acceptance(proto, table, g))
    exact_h = float(exact_conditional_acceptance(proto, table, h))
    rep = advantage(proto, table, g, h, samples=400_000, stream=make_stream(13))
    sigma = max(rep.stderr, 1e-9)
    assert abs(rep.p_g - exact_g) < 4 * sigma
    assert abs(rep.p_h - exact_h) < 4 * sigma

    for proto in protocols:
        for gg, hh in [(0, 1), (1, 2), (2, 5)]:
            lhs, rhs = rectangle_bound_check(proto, table, gg, hh)
            assert lhs <= rhs + 1e-12, (gg, hh)
    _ok("12 advantage experiment")
