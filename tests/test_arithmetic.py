"""Factorization, divisor sums, and the exact sigma sieve."""
import decimal
import math
import multiprocessing
import multiprocessing.pool
import os
import random
import sys

import numpy as np
import pytest

import robinlab.arithmetic
from robinlab.arithmetic import (
    Factorization,
    _divisor_pair_sweep,
    factorize,
    factorize_all,
    is_prime,
    sigma_of,
    sieve_dtype,
    sigma_sieve,
    sigma_window,
)
from robinlab.errors import CapacityError
from robinlab.robin import log_of, robin_check


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


def _random_prime(rng, bits):
    while True:
        c = rng.getrandbits(bits - 1) | (1 << (bits - 1)) | 1
        if is_prime(c):
            return c


def _known_batch(seed):
    """(n, factors) pairs whose factorization is known by construction, shuffled."""
    rng = random.Random(seed)

    def case(*primes):
        n, counts = 1, {}
        for q in primes:
            n *= q
            counts[q] = counts.get(q, 0) + 1
        return n, tuple(sorted(counts.items()))

    cases = [case(_random_prime(rng, 31), _random_prime(rng, 32)) for _ in range(4)]
    cases += [case(*(_random_prime(rng, 20) for _ in range(3))) for _ in range(3)]
    cases += [case(q, q) for q in (_random_prime(rng, 31) for _ in range(2))]
    cases += [case(_random_prime(rng, 61)) for _ in range(2)]
    cases += [(1, ()), (2**64 - 1, ((3, 1), (5, 1), (17, 1), (257, 1), (641, 1), (65537, 1), (6700417, 1)))]
    cases += cases[:3]  # duplicates
    rng.shuffle(cases)
    return cases


def _set_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


@pytest.mark.parametrize("cpus", [1, 2])
def test_factorize_all_known_batch(monkeypatch, cpus):
    # same results, in input order, whether the rho work runs here or in a pool
    cases = _known_batch(20261019)
    pools = []
    pool_map = multiprocessing.pool.Pool.map

    def counted_map(self, *args, **kwargs):
        pools.append(self)
        return pool_map(self, *args, **kwargs)

    monkeypatch.setattr(multiprocessing.pool.Pool, "map", counted_map)
    _set_cpus(monkeypatch, cpus)
    got = factorize_all([n for n, _ in cases])
    assert [f.factors for f in got] == [factors for _, factors in cases]
    assert factorize_all([]) == []
    assert len(pools) == (cpus > 1)
    assert multiprocessing.active_children() == []


class RhoFailure(Exception):
    pass


def _failing_rho(n):
    raise RhoFailure(os.getpid())


def test_factorize_all_worker_error_reaches_caller(monkeypatch):
    rng = random.Random(7)
    ns = [_random_prime(rng, 31) * _random_prime(rng, 32) for _ in range(3)]
    _set_cpus(monkeypatch, 2)
    monkeypatch.setattr(robinlab.arithmetic, "_rho_split", _failing_rho)
    with pytest.raises(RhoFailure) as info:
        factorize_all(ns)
    assert info.value.args[0] != os.getpid()  # raised in a worker
    assert multiprocessing.active_children() == []
    with pytest.raises(RhoFailure):
        factorize_all(ns[:1])  # one cofactor runs here
    for bad in (0, 2**64):
        with pytest.raises(ValueError, match="factorize needs"):
            factorize_all([*ns, bad])  # checked before any rho work


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
    # sigma(n)/n of a row is the exact integer quotient, correctly rounded
    with pytest.raises(ValueError):
        robin_check(factorize(1))  # n = 1 has no row
    assert factorize(1).divisor_sum() == 1
    r = robin_check(Factorization(((7, 1),))).sigma_ratio
    assert r == 8 / 7
    assert r <= 1 + 1 / 6 + 1e-15
    assert robin_check(factorize(5040)).sigma_ratio == 19344 / 5040


def test_log_n():
    assert log_of(1) == 0.0
    assert math.isclose(robin_check(factorize(2)).log_n, math.log(2), rel_tol=1e-15)
    assert math.isclose(robin_check(factorize(5040)).log_n, math.log(5040), rel_tol=1e-14)


def test_log_n_without_materializing():
    # exponent vector far beyond 64 bits stays finite and accurate
    f = Factorization(((2, 100), (3, 60), (5, 40), (7, 20)))
    expect = 100 * math.log(2) + 60 * math.log(3) + 40 * math.log(5) + 20 * math.log(7)
    ev = robin_check(f)
    assert math.isclose(ev.log_n, expect, rel_tol=1e-14)
    assert ev.sigma_ratio == f.divisor_sum() / f.value()


def test_log_past_float_range_against_decimal():
    # past float range log_of takes math.log of the int itself, within an ulp
    # of the 40-digit value; the last int with a float takes the numpy branch
    big = int(sys.float_info.max)
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        for n in (big, big + 1, 2**1024, 3**700 + 1, 10**400 - 1, 2**5000 * 3**7, 7**3000):
            got = log_of(n)
            if n > big:
                assert got == math.log(n), n
            assert abs(decimal.Decimal(got) - decimal.Decimal(n).ln()) <= decimal.Decimal(math.ulp(got)), n
    ev = robin_check(Factorization(((2, 1100), (3, 5))))
    assert ev.log_n == log_of(2**1100 * 3**5)
    assert ev.sigma_ratio == (2**1101 - 1) * 364 / (2**1100 * 3**5)


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
        if n == 1:
            with pytest.raises(ValueError):
                robin_check(f)
            continue
        ev = robin_check(f)
        assert ev.sigma_ratio == sigma1e5.of(n) / n
        assert abs(ev.log_n - math.log(n)) <= 1e-12


def test_sigma_window_equals_table_slice():
    rng = random.Random(20261018)
    windows = [(lo, lo + w) for lo in (1, 2, 3, 4, 99, 10**6 - 5)
               for w in (0, 1, 2, 7, 64, rng.randrange(100, 5000))]
    # windows that start just below a square and end just past it, some
    # narrower than sqrt(hi) so each divisor row hits them at most once
    for _ in range(40):
        r = rng.randrange(2, 1000)
        windows.append((r * r - rng.randrange(0, min(r * r - 1, 300)), r * r + rng.randrange(1, 300)))
    for lo, hi in windows:
        if hi < 2:
            assert sigma_window(lo, hi).tolist() == []
            continue
        expect = sigma_sieve(hi - 1).sigma[lo:hi]
        got = sigma_window(lo, hi)
        assert got.dtype == np.int64
        assert got.tolist() == expect.tolist(), (lo, hi)


def test_sigma_window_far_from_origin():
    rng = random.Random(5)
    for lo in (10**9 - 50, 2**40 + 1, rng.randrange(10**12, 10**13)):
        got = sigma_window(lo, lo + 50)
        assert got.tolist() == [sigma_of(factorize(n)) for n in range(lo, lo + 50)], lo


def _exact_sweep_bound(n):
    # n * (exp(gamma) L + 0.6483 / L) + isqrt(n), L = log log n, to 40
    # digits, free of float rounding
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        gamma = decimal.Decimal("0.5772156649015328606065120900824024310422")
        loglog = decimal.Decimal(n).ln().ln()
        return n * (gamma.exp() * loglog + decimal.Decimal("0.6483") / loglog) + math.isqrt(n)


# the largest n whose sieve buffer is int32, and int64
INT32_EDGE = 388_129_549
INT64_EDGE = 1_352_383_080_871_964_031


def test_sieve_dtype_edges():
    assert _exact_sweep_bound(INT32_EDGE) < 2**31 <= _exact_sweep_bound(INT32_EDGE + 1)
    assert sieve_dtype(INT32_EDGE) == np.int32
    assert sieve_dtype(INT32_EDGE + 1) == np.int64
    assert all(sieve_dtype(n) == np.int32 for n in (-1, 0, 1, 2, 6, 7, 10**7))
    # the bound holds for every n from 7 on, and above every sigma(n) + sqrt(n) of n < 7
    assert all(_exact_sweep_bound(n) > 12 + math.sqrt(6) for n in (7, 8, 12))
    # the float bound crosses 2**63 19 n before the exact one: int64 is
    # only ever picked where the exact bound fits
    assert _exact_sweep_bound(INT64_EDGE) < 2**63 <= _exact_sweep_bound(INT64_EDGE + 20)
    assert sieve_dtype(INT64_EDGE) == np.int64
    for n in (INT64_EDGE + 1, INT64_EDGE + 20, 2**62, 2**64):
        with pytest.raises(CapacityError):
            sieve_dtype(n)


def test_sigma_window_past_int64_raises_before_sieving(monkeypatch):
    def no_sweep(*args):
        raise AssertionError("sieved past the int64 domain")

    monkeypatch.setattr(robinlab.arithmetic, "_divisor_pair_sweep", no_sweep)
    with pytest.raises(CapacityError):
        sigma_window(2**62, 2**62 + 1)
    with pytest.raises(CapacityError):
        sigma_window(INT64_EDGE + 2, INT64_EDGE + 3)
    with pytest.raises(CapacityError):
        sigma_sieve(2**62)


def _square_windows(rng, count, step):
    # windows that start just below a square and end just past it
    windows = []
    for _ in range(count):
        r = rng.randrange(2, 2000)
        lo = max(1, r * r - rng.randrange(0, 300))
        if step == 2:
            lo |= 1
        windows.append((lo, rng.randrange(1, 300)))
    return windows


def test_int32_sweep_equals_int64_window():
    rng = random.Random(32)
    # 367567200 = 2^5 3^3 5^2 7 11 13 17 is superabundant, with sigma = 0.88 * 2**31
    windows = [(INT32_EDGE - 5000, 5001), (INT32_EDGE, 1), (367567200 - 100, 201), (1, 3000)]
    windows += _square_windows(rng, 40, 1)
    for lo, width in windows:
        sigma = np.arange(lo, lo + width, dtype=sieve_dtype(lo + width - 1))
        assert sigma.dtype == np.int32
        _divisor_pair_sweep(sigma, lo)
        assert sigma.dtype == np.int32
        assert sigma.tolist() == sigma_window(lo, lo + width).tolist(), (lo, width)


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_odd_sweep_equals_every_other_window_entry(dtype):
    rng = random.Random(2)
    windows = [(lo, w) for lo in (1, 3, 5, 17, 99, 10**6 + 1) for w in (0, 1, 2, 3, 64)]
    windows += [(rng.randrange(1, 10**7) | 1, rng.randrange(1, 5000)) for _ in range(40)]
    windows += [(INT32_EDGE - 4000, 2001)]
    windows += _square_windows(rng, 40, 2)
    for lo, width in windows:
        sigma = np.arange(lo, lo + 2 * width, 2, dtype=dtype)
        _divisor_pair_sweep(sigma, lo, 2)
        assert sigma.tolist() == sigma_window(lo, lo + 2 * width)[::2].tolist(), (lo, width)
    with pytest.raises(ValueError):
        _divisor_pair_sweep(np.arange(4, 10, 2), 4, 2)


def test_sigma_window_domain():
    with pytest.raises(ValueError):
        sigma_window(0, 5)
    with pytest.raises(ValueError):
        sigma_window(5, 4)

