import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import field_add, field_mul, field_neg
from classmix.errors import UnsupportedParameters
from classmix.fields import _digits, field, field_for_size, is_irreducible, is_prime


def _prime_power(q: int):
    """(p, k) with p^k = q by trial division, or None when q is not a prime power."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    k = 0
    while q % p == 0:
        q //= p
        k += 1
    return (p, k) if q == 1 else None


def test_prime_field_spec():
    f = field(7, 1)
    assert f.q == 7
    # degree-1 modulus is the "x - 0" convention and is never used
    assert f.modulus == (0, 1)


def test_gf4_modulus_is_unique_irreducible_quadratic():
    f = field(2, 2)
    assert f.q == 4
    assert f.modulus == (1, 1, 1)  # x^2 + x + 1


def test_composite_characteristic_rejected():
    with pytest.raises(UnsupportedParameters):
        field(4, 1)


def test_oversized_field_rejected():
    with pytest.raises(UnsupportedParameters):
        field(2, 21)


def test_modulus_is_irreducible_and_monic():
    for p, k in [(2, 3), (2, 8), (3, 4), (5, 3), (7, 2), (11, 2)]:
        f = field(p, k)
        assert f.modulus[-1] == 1
        assert len(f.modulus) == k + 1
        assert is_irreducible(f.modulus, p)


# moduli of the fields that goldens and benchmark jobs use, as first chosen by the Frobenius test
PINNED_MODULI = {
    8: (1, 1, 0, 1),
    9: (1, 0, 1),
    16: (1, 1, 0, 0, 1),
    25: (2, 0, 1),
    27: (1, 2, 0, 1),
    64: (1, 1, 0, 0, 0, 0, 1),
    512: (1, 1, 0, 0, 0, 0, 0, 0, 0, 1),
}


@pytest.mark.parametrize("q", sorted(PINNED_MODULI))
def test_pinned_moduli(q):
    assert field_for_size(q).modulus == PINNED_MODULI[q]


def _mobius(n: int) -> int:
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_irreducible_count_is_gauss(p):
    """The number of monic irreducibles of degree k is (1/k) sum_{d | k} mu(d) p^(k/d), for p^k <= 1024."""
    k = 1
    while p**k <= 1024:
        count = sum(is_irreducible(_digits(m, p, k) + [1], p) for m in range(p**k))
        assert k * count == sum(_mobius(d) * p ** (k // d) for d in range(1, k + 1) if k % d == 0), (p, k)
        k += 1


def _operand_pairs(f, seeded: int | None):
    """Every pair (a, b) of GF(q), or `seeded` random pairs with zero operands and b = -a mixed in."""
    if seeded is None:
        return np.divmod(np.arange(f.q * f.q, dtype=np.int64), f.q)
    rng = np.random.default_rng(f.q)
    a, b = rng.integers(0, f.q, (2, seeded))
    a[:100], b[50:150] = 0, 0
    b[200:1200] = field_neg(f, a[200:1200])
    return a, b


def _check_against_oracle(f, a, b):
    assert np.array_equal(f.add(a, b), field_add(f, a, b))
    assert np.array_equal(f.sub(a, b), field_add(f, a, field_neg(f, b)))
    assert np.array_equal(f.neg(b), field_neg(f, b))
    assert np.array_equal(f.mul(a, b), field_mul(f, a, b))
    nonzero = b[b != 0]
    assert np.all(field_mul(f, nonzero, f.inv(nonzero)) == 1)


@pytest.mark.parametrize("q", [q for q in range(2, 257) if _prime_power(q)])
def test_operations_match_digit_oracle_on_every_pair(q):
    f = field_for_size(q)
    _check_against_oracle(f, *_operand_pairs(f, None))


@pytest.mark.parametrize("q", [512, 3**9, 55103])
def test_operations_match_digit_oracle_on_seeded_pairs(q):
    f = field_for_size(q)
    a, b = _operand_pairs(f, 20_000)
    assert np.any(a == 0) and np.any(b == 0) and np.any(field_add(f, a, b) == 0)
    _check_against_oracle(f, a, b)


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        field_for_size(9).inv(np.array([1, 0]))


def test_reducible_polynomials_detected():
    # x^2 + 1 = (x+1)^2 over GF(2); x^4 + x^2 + 1 = (x^2+x+1)^2 over GF(2)
    assert not is_irreducible((1, 0, 1), 2)
    assert not is_irreducible((1, 0, 1, 0, 1), 2)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49, 64, 81, 121, 512])
def test_every_nonzero_element_invertible(q):
    f = field_for_size(q)
    assert f.q == q
    for a in range(1, q):
        assert f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("p,k", [(2, 4), (3, 3), (5, 2)])
def test_field_axioms_exhaustive(p, k):
    f = field(p, k)
    q = f.q
    for a in range(q):
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
    # associativity and distributivity on a grid
    pts = list(range(min(q, 9)))
    for a in pts:
        for b in pts:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in pts:
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))


@given(st.sampled_from([(2, 5), (3, 2), (7, 2), (13, 1)]), st.data())
@settings(max_examples=60, deadline=None)
def test_field_properties_random(pk, data):
    f = field(*pk)
    a = data.draw(st.integers(0, f.q - 1))
    b = data.draw(st.integers(0, f.q - 1))
    c = data.draw(st.integers(0, f.q - 1))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    if a != 0:
        assert f.mul(f.inv(a), f.mul(a, b)) == b


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for n in range(32):
        assert is_prime(n) == (n in primes)
    assert is_prime(2521)
    assert not is_prime(1261)  # 13 * 97
    assert is_prime(1082089)  # PSL2:113's Dixon prime


def test_field_for_size_rejects_non_prime_powers():
    with pytest.raises(UnsupportedParameters):
        field_for_size(6)
    with pytest.raises(UnsupportedParameters):
        field_for_size(12)


def test_field_for_size_matches_trial_division():
    """Every q <= 4096: GF(p^k) when q = p^k, UnsupportedParameters otherwise (q < 2 included)."""
    for q in range(-1, 4097):
        expected = _prime_power(q) if q >= 2 else None
        if expected is None:
            with pytest.raises(UnsupportedParameters):
                field_for_size(q)
        else:
            f = field_for_size(q)
            assert (f.p, f.k, f.q) == (*expected, q), q


def test_large_field_without_tables():
    f = field(2, 10)  # q = 1024
    for a in [1, 17, 513, 1023]:
        assert f.mul(a, f.inv(a)) == 1
        assert f.add(a, f.neg(a)) == 0
