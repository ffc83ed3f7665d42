"""Factorization, divisor sums, and the exact sigma sieve."""
import math
import random

import pytest

from robinlab.arithmetic import (
    Factorization,
    factorize,
    is_prime,
    log_n_of,
    sigma_of,
    sigma_ratio_of,
    sigma_sieve,
)
from robinlab.errors import CapacityError


def _sigma_by_enumeration(n):
    # independent oracle: walk all divisors
    total = 0
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            total += d
            if d != n // d:
                total += n // d
    return total


def test_factorize_unit():
    assert factorize(1).factors == ()
    assert factorize(1).is_unit


def test_factorize_examples():
    assert factorize(5040).factors == ((2, 4), (3, 2), (5, 1), (7, 1))
    assert factorize(9999991).factors == ((9999991, 1),)
    assert factorize(2**63).factors == ((2, 63),)
    assert factorize(2**64 - 1).factors == (
        (3, 1), (5, 1), (17, 1), (257, 1), (641, 1), (65537, 1), (6700417, 1),
    )


def test_factorize_round_trip():
    rng = random.Random(20260817)
    for _ in range(300):
        n = rng.randrange(1, 1 << 50)
        f = factorize(n)
        assert f.value() == n
        assert all(is_prime(q) for q, _ in f.factors)


def test_factorize_domain():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(1 << 64)


def test_is_prime_edges():
    assert not is_prime(1)
    assert is_prime(2)
    assert not is_prime(4)
    assert is_prime(9999991)
    assert is_prime(2**61 - 1)
    assert not is_prime(3215031751)  # strong pseudoprime to several small bases
    assert not is_prime(10**12)


def test_factorization_validation():
    with pytest.raises(ValueError):
        Factorization(((3, 1), (2, 1)))  # bases must increase
    with pytest.raises(ValueError):
        Factorization(((2, 0),))  # exponents start at 1


def test_sigma_of():
    assert sigma_of(factorize(1)) == 1
    assert sigma_of(factorize(6)) == 12
    assert sigma_of(factorize(12)) == 28
    assert sigma_of(factorize(5040)) == 19344
    assert sigma_of(factorize(2**63)) == 2**64 - 1


def test_sigma_of_overflow():
    # sigma(3 * 2^62) = 4 * (2^63 - 1) does not fit in 64 bits
    with pytest.raises(CapacityError):
        sigma_of(factorize(3 * 2**62))


def test_sigma_ratio():
    assert sigma_ratio_of(factorize(1)) == 1.0
    r = sigma_ratio_of(Factorization(((7, 1),)))
    assert math.isclose(r, 8 / 7, rel_tol=1e-15)
    assert r <= 1 + 1 / 6 + 1e-15
    assert math.isclose(sigma_ratio_of(factorize(5040)), 19344 / 5040, rel_tol=1e-14)


def test_log_n():
    assert log_n_of(factorize(1)) == 0.0
    assert math.isclose(log_n_of(factorize(2)), math.log(2), rel_tol=1e-15)
    assert math.isclose(log_n_of(factorize(5040)), math.log(5040), rel_tol=1e-14)


def test_log_n_without_materializing():
    # exponent vector far beyond 64 bits stays finite and accurate
    f = Factorization(((2, 100), (3, 60), (5, 40), (7, 20)))
    expect = 100 * math.log(2) + 60 * math.log(3) + 40 * math.log(5) + 20 * math.log(7)
    assert math.isclose(log_n_of(f), expect, rel_tol=1e-14)


def test_sigma_sieve_basics():
    table = sigma_sieve(1)
    assert table.of(1) == 1
    table = sigma_sieve(12)
    assert table.of(12) == 28
    assert table.sigma[:13].tolist() == [0, 1, 3, 4, 7, 6, 12, 8, 15, 13, 18, 12, 28]


def test_sigma_sieve_bounds():
    table = sigma_sieve(10)
    with pytest.raises(ValueError):
        table.of(0)
    with pytest.raises(ValueError):
        table.of(11)


def test_sigma_sieve_vs_factorization():
    table = sigma_sieve(10_000)
    for n in range(1, 10_001):
        assert table.of(n) == sigma_of(factorize(n)), n


def test_sigma_sieve_vs_enumeration_sample():
    table = sigma_sieve(3_000)
    rng = random.Random(7)
    for n in [1, 2, 960, 2310] + [rng.randrange(1, 3_001) for _ in range(50)]:
        assert table.of(n) == _sigma_by_enumeration(n), n


def test_sigma_sieve_every_small_limit():
    # square and non-square limits, so the last strided slice ends both ways
    expect = [0] + [_sigma_by_enumeration(n) for n in range(1, 201)]
    for limit in range(1, 201):
        assert sigma_sieve(limit).sigma.tolist() == expect[: limit + 1], limit


def test_sigma_sieve_tail_and_squares(sigma1e6):
    limit = 1_000_000
    ns = list(range(limit - 99, limit + 1)) + [r * r for r in range(1, 1001)]
    for n in ns:
        assert sigma1e6.of(n) == sigma_of(factorize(n)), n


def test_sigma_multiplicative(sigma1e5):
    rng = random.Random(20260817)
    pairs = 0
    while pairs < 200:
        a = rng.randrange(2, 1000)
        b = rng.randrange(2, 100_000 // a)
        if math.gcd(a, b) != 1:
            continue
        assert sigma1e5.of(a * b) == sigma1e5.of(a) * sigma1e5.of(b)
        pairs += 1


def test_ratio_and_log_consistency(sigma1e5):
    rng = random.Random(99)
    for n in [1, 2, 5040, 100_000] + [rng.randrange(2, 100_001) for _ in range(400)]:
        f = factorize(n)
        assert abs(sigma_ratio_of(f) - sigma1e5.of(n) / n) <= 1e-12
        assert abs(log_n_of(f) - math.log(n)) <= 1e-12
