import time

import numpy as np
import pytest

from classmix import characters
from classmix.characters import (
    CharacterTable,
    ClassRows,
    _least_dixon_prime,
    _matmul_mod,
    _nullspace,
    _roots_mod,
    dixon_character_table,
    structure_constants,
    verify_orthogonality,
    witten_zeta,
)
from classmix.errors import InvariantViolation, NoSuitablePrime
from classmix.groups import GroupSpec, conj_classes, group_build

from _oracles import (
    ORACLE_LABELS,
    alt_elements,
    brute_structure_constants,
    full_sweep_structure_constants,
    list_dixon_table,
    mat_inv,
    mat_mul,
    oracle_spec,
    perm_closure,
    psl2_lift,
    sl2_char2_elements,
    sl2_elements,
    sym_elements,
)


def test_least_dixon_prime():
    """A prime P = 1 (mod exponent) above 2 sqrt(|G|); NoSuitablePrime when none lies below 2^31."""
    assert _least_dixon_prime(2520, 362880) == 2521  # S:9
    assert _least_dixon_prime(360696, 721392) == 1082089  # PSL2:113
    assert _least_dixon_prime(6, 60) == 19
    assert _least_dixon_prime(6, 12) == 7  # A:4: 6 divides 2 isqrt(12) = 6, and 7^2 = 49 > 48
    assert _least_dixon_prime(1, 1) == 3  # the trivial group: 3^2 > 4
    with pytest.raises(NoSuitablePrime):
        _least_dixon_prime(2**31, 4)


def _rebuild(label, group_cache):
    return group_cache(label)


def test_s3_transposition_squared_count(group_cache):
    table, classes, constants, _ = group_cache("S:3")
    # the transposition class has size 3; squaring it hits the identity 3 ways
    tc = classes.sizes.index(3)
    assert constants.tensor[tc, tc, 0] == 3


def test_identity_row_is_kronecker(group_cache):
    for label in ["S:3", "A:5", "PSL2:7"]:
        _, classes, constants, _ = group_cache(label)
        k = classes.k
        assert np.array_equal(constants.tensor[0], np.eye(k, dtype=np.int64))


def test_structure_constant_row_sums(group_cache):
    table, classes, constants, _ = group_cache("A:5")
    sizes = np.asarray(classes.sizes)
    for i in range(classes.k):
        for j in range(classes.k):
            assert int(constants.tensor[i, j] @ sizes) == classes.sizes[i] * classes.sizes[j]


def test_structure_constants_nonnegative(group_cache):
    for label in ["S:4", "PSL2:7"]:
        _, _, constants, _ = group_cache(label)
        assert constants.tensor.min() >= 0


def _oracle_group(label, table):
    """Plain-Python elements, product and inverse of the group built for `label`."""
    kind, _, param = label.partition(":")
    if kind in ("S", "A"):
        return (sym_elements if kind == "S" else alt_elements)(int(param)), {}
    if kind == "PSL2" and table.engine.field.p == 2:
        modulus = sum(c << i for i, c in enumerate(table.engine.field.modulus))
        elements, mul, inv = sl2_char2_elements(modulus)
        return elements, {"mul": mul, "inv": inv}
    if kind in ("SL2", "PSL2"):
        p = int(param)
        lift = (lambda m: psl2_lift(m, p)) if kind == "PSL2" else (lambda m: m)
        ops = {"mul": lambda a, b: lift(mat_mul(a, b, p)), "inv": lambda a: lift(mat_inv(a, p))}
        return sl2_elements(p, projective=kind == "PSL2"), ops
    return perm_closure(table.spec.generators), {}


@pytest.mark.parametrize("label", ORACLE_LABELS)
def test_structure_constants_match_oracles(label, tmp_path):
    """The tensor read off the character table equals brute pair counting and the one-sweep-per-class tensor exactly.

    PSL2:7 has the inverse-pair classes 7A/7B and SL2:5 a central involution.
    """
    table = group_build(oracle_spec(label, tmp_path))
    classes = conj_classes(table)
    tensor = structure_constants(dixon_character_table(table, classes), classes).tensor
    assert np.array_equal(tensor, full_sweep_structure_constants(table, classes))

    elements, ops = _oracle_group(label, table)
    oracle_classes, oracle_tensor = brute_structure_constants(elements, **ops)
    # production class of each oracle class, found through its smallest member
    perm = [int(classes.class_of[table.index_of(bytes(c[0]))]) for c in oracle_classes]
    assert sorted(perm) == list(range(classes.k))
    assert [classes.sizes[c] for c in perm] == [len(c) for c in oracle_classes]
    assert np.array_equal(tensor[np.ix_(perm, perm, perm)], np.array(oracle_tensor, dtype=np.int64))
    if label == "PSL2:7":
        assert any(classes.inverse_class[c] != c for c in range(classes.k))


@pytest.mark.parametrize("label", ["S:8", "PSL2:27", "PSL2:31", "SL2:16", "A:9"])
def test_structure_constants_match_sweep_on_bench_groups(label, group_cache):
    """The benchmark's survey and thompson groups: P from 547 to 29761, k up to 22, |G| up to 181,440."""
    table, classes, constants, _ = group_cache(label)
    assert np.array_equal(constants.tensor, full_sweep_structure_constants(table, classes))


@pytest.mark.parametrize("label", ORACLE_LABELS + ["A:8"])
def test_dixon_row_sources_match_list_oracle(label, tmp_path):
    """Pivot rows from the group give the list-based split's table, from the whole tensor, bit for bit.

    ClassRows also reproduces every whole class matrix; A:8 uses 11 of its 13
    non-identity class matrices, the deepest split of these groups.
    """
    table = group_build(oracle_spec(label, tmp_path))
    classes = conj_classes(table)
    tensor = full_sweep_structure_constants(table, classes)
    rows = ClassRows(table, classes)
    for j in range(classes.k):
        assert np.array_equal(rows.rows(j, np.arange(classes.k)), tensor[j])
    degrees, values, prime = list_dixon_table(classes, tensor)
    chartable = dixon_character_table(table, classes)
    assert chartable.degrees == degrees
    assert chartable.modulus_prime == prime
    assert np.array_equal(chartable.values, values)
    assert chartable.values.tobytes() == values.tobytes()  # signed zeros too
    if label == "A:8":
        assert chartable.work["class_matrices"] == 11


def test_class_rows_reject_wrong_inverse_classes(group_cache):
    """With the inverse classes of 3A (20) and 2A (15) in A:5 swapped, some row does not divide."""
    table, classes, _, _ = group_cache("A:5")
    inv = list(classes.inverse_class)
    three_a, two_a = classes.sizes.index(20), classes.sizes.index(15)
    inv[three_a], inv[two_a] = inv[two_a], inv[three_a]
    rows = ClassRows(table, classes._replace(inverse_class=tuple(inv)))
    with pytest.raises(InvariantViolation):
        for j in range(classes.k):
            rows.rows(j, np.arange(classes.k))


def test_matmul_mod_exact_below_2_31():
    """Products of residues mod 2^31 - 1 over a 70-term inner dimension match Python integers."""
    p = 2**31 - 1
    rng = np.random.default_rng(0)
    a, b = rng.integers(p - 1000, p, size=(5, 70)), rng.integers(p - 1000, p, size=(70, 6))
    expected = [[sum(int(x) * int(y) for x, y in zip(row, col)) % p for col in b.T] for row in a]
    assert _matmul_mod(a, b, p).tolist() == expected


def test_nullspace_basis_is_reduced_on_free_columns():
    p = 13
    m = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 1]], dtype=np.int64)
    basis, free = _nullspace(m, p)
    assert free == [2]
    assert np.array_equal(basis[free], np.eye(1, dtype=np.int64))
    assert not (_matmul_mod(m, basis, p)).any()


def test_root_search_above_2_24():
    """Planted roots of a cubic mod 16777259, the least prime above 2^24, in under a second."""
    p = 16777259
    roots = [5, 123456, p - 2]
    coeffs = [1]  # little-endian product of (x - r)
    for r in roots:
        coeffs = [(lo - r * hi) % p for lo, hi in zip([0] + coeffs, coeffs + [0])]
    start = time.perf_counter()
    found = _roots_mod(np.array(coeffs, dtype=np.int64), p)
    assert time.perf_counter() - start < 1.0
    assert found.tolist() == roots


def test_structure_constants_reject_wrong_inverse_classes(group_cache):
    """Swapping the inverse classes of 3A (20) and 2A (15) in A:5 breaks the identity column."""
    table, classes, _, chartable = group_cache("A:5")
    inv = list(classes.inverse_class)
    three_a, two_a = classes.sizes.index(20), classes.sizes.index(15)
    inv[three_a], inv[two_a] = inv[two_a], inv[three_a]
    with pytest.raises(InvariantViolation):
        structure_constants(chartable, classes._replace(inverse_class=tuple(inv)))


def test_structure_constants_reject_wrong_residue(group_cache):
    """One character value mod P moved by 1 leaves the float tensor as it was, so a residue disagrees."""
    _, classes, _, chartable = group_cache("A:5")
    residues = chartable.residues.copy()
    residues[1, 1] = (residues[1, 1] + 1) % chartable.modulus_prime
    with pytest.raises(InvariantViolation, match="mod P"):
        structure_constants(chartable._replace(residues=residues), classes)


def test_structure_constants_reject_perturbed_values(group_cache):
    """A character value moved by 1 shifts some rounded constants by less than P, away from their residues."""
    _, classes, _, chartable = group_cache("PSL2:7")
    values = chartable.values.copy()
    values[1, 1] += 1.0
    with pytest.raises(InvariantViolation, match="mod P"):
        structure_constants(chartable._replace(values=values), classes)


def test_dixon_degree_multisets(group_cache):
    _, _, _, t5 = group_cache("A:5")
    assert sorted(t5.degrees) == [1, 3, 3, 4, 5]
    _, _, _, t7 = group_cache("PSL2:7")
    assert sorted(t7.degrees) == [1, 3, 3, 6, 7, 8]


def test_degree_squares_sum_to_order(group_cache):
    for label in ["S:3", "S:4", "A:5", "A:6", "A:7", "PSL2:7", "PSL2:11", "PSL2:13", "SL2:5"]:
        table, _, _, chartable = group_cache(label)
        assert sum(d * d for d in chartable.degrees) == table.order


def test_trivial_character_row_first(group_cache):
    for label in ["S:4", "A:6", "PSL2:11"]:
        _, _, _, chartable = group_cache(label)
        assert np.allclose(chartable.values[0], 1.0, atol=0)


def test_identity_column_equals_degrees(group_cache):
    for label in ["A:5", "PSL2:7", "SL2:5"]:
        _, _, _, chartable = group_cache(label)
        col = chartable.values[:, 0]
        assert np.abs(col.imag).max() < 1e-10
        assert np.array_equal(col.real.astype(int), np.array(chartable.degrees))


def test_degrees_divide_order(group_cache):
    for label in ["S:4", "A:5", "A:6", "A:7", "PSL2:7", "PSL2:11", "SL2:5"]:
        table, _, _, chartable = group_cache(label)
        for d in chartable.degrees:
            assert table.order % d == 0


def test_orthogonality_residuals(group_cache):
    for label in ["S:3", "S:4", "A:5", "A:6", "A:7", "PSL2:7", "PSL2:11", "PSL2:13"]:
        table, classes, _, chartable = group_cache(label)
        report = verify_orthogonality(chartable)
        assert report.passed
        assert report.max_row_residual < 1e-8 * table.order
        assert report.max_col_residual < 1e-8 * table.order


def test_perturbed_table_fails_orthogonality(group_cache):
    """verify_orthogonality reads the residuals a table carries; these are the perturbed values' own."""
    _, _, _, chartable = group_cache("A:5")
    values = chartable.values.copy()
    values[1, 1] += 1e-3
    row_res, col_res = characters._residuals(values, chartable.class_sizes, chartable.order)
    broken = CharacterTable(
        values=values,
        residues=chartable.residues,
        degrees=chartable.degrees,
        class_sizes=chartable.class_sizes,
        order=chartable.order,
        modulus_prime=chartable.modulus_prime,
        row_residual=row_res,
        col_residual=col_res,
    )
    assert not verify_orthogonality(broken).passed


def test_dixon_refuses_residual_at_tolerance(monkeypatch):
    """A:5's residuals (about 2.4e-14) reach ORTHOGONALITY_TOL * |G| once the tolerance is 1e-30."""
    table = group_build(GroupSpec.alt(5))
    classes = conj_classes(table)
    monkeypatch.setattr(characters, "ORTHOGONALITY_TOL", 1e-30)
    with pytest.raises(InvariantViolation, match="orthogonality residual"):
        dixon_character_table(table, classes)


def test_trivial_group_residual_zero():
    table = group_build(GroupSpec.from_perm_generators([tuple(range(3))]))
    classes = conj_classes(table)
    chartable = dixon_character_table(table, classes)
    assert chartable.degrees == (1,)
    assert chartable.row_residual == 0.0
    assert chartable.col_residual == 0.0


def test_second_orthogonality_identity_column(group_cache):
    for label in ["A:5", "PSL2:7"]:
        table, _, _, chartable = group_cache(label)
        col = chartable.values[:, 0]
        total = float(np.abs(col) @ np.abs(col))
        assert abs(total - table.order) < 1e-8


def test_dixon_bit_identical_across_runs():
    spec = GroupSpec.alt(5)
    tables = []
    for _ in range(2):
        table = group_build(spec)
        classes = conj_classes(table)
        tables.append(dixon_character_table(table, classes))
    a, b = tables
    assert a.degrees == b.degrees
    assert np.array_equal(a.values, b.values)  # exact float equality
    assert np.array_equal(a.residues, b.residues)
    assert a.class_sizes == b.class_sizes
    assert a.order == b.order
    assert a.row_residual == b.row_residual
    assert a.col_residual == b.col_residual


# -- zeta ---------------------------------------------------------------------


def test_zeta_special_values(group_cache):
    for label in ["S:3", "S:4", "A:5", "A:6", "PSL2:7", "SL2:5"]:
        table, classes, _, chartable = group_cache(label)
        assert witten_zeta(chartable, 0) == classes.k
        assert abs(witten_zeta(chartable, -2) - table.order) < 1e-6 * table.order


def test_zeta_a5_at_2(group_cache):
    _, _, _, chartable = group_cache("A:5")
    assert abs(witten_zeta(chartable, 2) - 4769 / 3600) < 1e-12


def test_zeta_strictly_decreasing(group_cache):
    for label in ["A:5", "PSL2:7", "S:4"]:
        _, _, _, chartable = group_cache(label)
        values = [witten_zeta(chartable, s) for s in (-1.0, 0.0, 0.5, 1.0, 2.0, 3.0)]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_zeta_trend_alternating_bounded(group_cache):
    excesses = []
    for n in (5, 6, 7, 8, 9):
        _, _, _, chartable = group_cache(f"A:{n}")
        excesses.append((witten_zeta(chartable, 1.0) - 1.0) * n)  # (zeta - 1) n^s at s = 1
    assert max(excesses) / min(excesses) < 8.0


def test_zeta_trend_psl2_bounded(group_cache):
    # golden envelope from the first exact run: excesses stay within [8, 15]
    excesses = []
    for q in (5, 7, 9, 11, 13):
        _, _, _, chartable = group_cache(f"PSL2:{q}")
        excesses.append((witten_zeta(chartable, 2.0) - 1.0) * q**2)  # (zeta - 1) q^s at s = 2
    assert max(excesses) < 16.0
    assert min(excesses) > 0.0
    assert max(excesses) / min(excesses) < 2.0


def test_character_table_json_roundtrip(group_cache, capsys):
    import json

    from classmix.cli import main

    _, _, _, chartable = group_cache("A:5")
    assert main(["chartable", "A:5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["order"] == 60
    assert payload["degrees"] == [1, 3, 3, 4, 5]
    assert payload["schema"] == 1
    values = np.array([[complex(re, im) for re, im in row] for row in payload["values"]])
    assert np.array_equal(values, chartable.values)
