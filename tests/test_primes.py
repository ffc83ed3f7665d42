"""Prime table construction, gaps, and the log-weighted prime sum."""
import math
import random

import numpy as np
import pytest

from robinlab.errors import ENV_MEM_BUDGET_MB, CapacityError
from robinlab.primes import (
    chebyshev_theta,
    nth_prime,
    prime_gap,
    primes_in_range,
    primes_up_to,
    table_for_count,
)


def _simple_sieve(limit):
    # independent oracle: plain bytearray sieve, no shared code path
    if limit < 2:
        return []
    flags = bytearray(b"\x01") * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return [i for i, f in enumerate(flags) if f]


_SMALL = _simple_sieve(31650)  # covers sqrt of any window start below 1e9


def _trial_division_window(lo, hi):
    out = []
    for n in range(max(lo, 2), hi):
        if all(n % q for q in _SMALL if q * q <= n):
            out.append(n)
    return out


def test_empty_below_two():
    assert primes_up_to(0).count == 0
    assert primes_up_to(1).count == 0


def test_first_primes():
    table = primes_up_to(10)
    assert table.primes.tolist() == [2, 3, 5, 7]
    assert table.count == 4


def test_pi_values(table7):
    # counts match the standard reference values for pi(x)
    assert table7.pi(10) == 4
    assert table7.pi(100) == 25
    assert table7.pi(100_000) == 9592
    assert table7.pi(1_000_000) == 78498
    assert table7.pi(10_000_000) == 664579
    assert table7.pi(1) == 0
    assert table7.pi(2) == 1


def test_nth_prime(table7):
    assert nth_prime(1, table=table7) == 2
    assert nth_prime(3, table=table7) == 5
    # the last prime below 1e7
    assert nth_prime(664579, table=table7) == 9999991
    assert table7.nth(664580) == 10000019


def test_nth_prime_domain(table7):
    with pytest.raises(ValueError):
        nth_prime(0, table=table7)
    small = primes_up_to(10)
    with pytest.raises(IndexError):
        small.nth(5)


def test_nth_prime_grows_table_on_demand():
    assert nth_prime(10_000) == 104729


def test_gaps(table7):
    assert prime_gap(1, table=table7) == 1
    assert prime_gap(2, table=table7) == 2
    assert prime_gap(4, table=table7) == 4
    gaps = np.diff(table7.primes[:1001])
    assert gaps[0] == 1
    assert all(int(g) % 2 == 0 for g in gaps[1:])
    assert all(int(g) >= 1 for g in gaps)


def test_segmented_matches_simple_sieve():
    assert primes_up_to(10_000).primes.tolist() == _simple_sieve(10_000)


def test_tiny_segment_size_same_output():
    a = primes_up_to(100_000)
    b = primes_up_to(100_000, segment_size=1 << 16)
    assert np.array_equal(a.primes, b.primes)


def test_random_windows_match_trial_division():
    rng = random.Random(20260817)
    starts = [0, 999_000] + [rng.randrange(10**9) for _ in range(3)]
    for lo in starts:
        hi = lo + 10_000
        got = primes_in_range(lo, hi).tolist()
        assert got == _trial_division_window(lo, hi), f"window [{lo}, {hi})"


def test_theta_empty(table7):
    assert chebyshev_theta(1, table7).theta == 0.0


def test_theta_at_ten(table7):
    rec = chebyshev_theta(10, table7)
    oracle = math.fsum(math.log(p) for p in (2, 3, 5, 7))
    assert rec.pi_x == 4
    assert abs(rec.theta - oracle) <= 1e-14
    assert abs(rec.theta - 5.347107) <= 1e-6


def test_theta_near_x_at_large_x(table7):
    rec = chebyshev_theta(10_000_000, table7)
    assert 0.996 < rec.theta / 10_000_000 < 1.001


def test_theta_monotone_and_deterministic(table7):
    xs = [10, 100, 1_000, 10_000, 100_000]
    vals = [chebyshev_theta(x, table7).theta for x in xs]
    assert vals == sorted(vals)
    again = [chebyshev_theta(x, table7).theta for x in xs]
    assert vals == again  # bit-identical reruns


def test_theta_out_of_range(table7):
    small = primes_up_to(100)
    with pytest.raises(ValueError):
        chebyshev_theta(1_000, small)


def test_table_for_count():
    table = table_for_count(25)
    assert table.count >= 25
    assert table.nth(25) == 97


def test_table_immutable(table7):
    with pytest.raises(ValueError):
        table7.primes[0] = 1


def test_capacity_budget(monkeypatch):
    monkeypatch.setenv(ENV_MEM_BUDGET_MB, "1")
    with pytest.raises(CapacityError, match="budget"):
        primes_up_to(10_000_000)


def test_capacity_budget_covers_any_window(monkeypatch):
    monkeypatch.setenv(ENV_MEM_BUDGET_MB, "1")
    # a 1e7-wide window far from the origin holds about 480k primes (3.9 MB)
    with pytest.raises(CapacityError, match=r"primes in \[1000000000, 1010000000\)"):
        primes_in_range(10**9, 10**9 + 10**7)
    assert primes_in_range(10**9, 10**9 + 100).tolist() == _trial_division_window(10**9, 10**9 + 100)
