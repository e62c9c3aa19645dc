import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classmix.errors import NonPrimeCharacteristic, UnsupportedParameters
from classmix.fields import field, field_for_size, is_irreducible, is_prime


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
    with pytest.raises(NonPrimeCharacteristic):
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


def test_field_for_size_rejects_non_prime_powers():
    with pytest.raises(UnsupportedParameters):
        field_for_size(6)
    with pytest.raises(UnsupportedParameters):
        field_for_size(12)


def _prime_power(q: int):
    """(p, k) with p^k = q by trial division, or None when q is not a prime power."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    k = 0
    while q % p == 0:
        q //= p
        k += 1
    return (p, k) if q == 1 else None


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
