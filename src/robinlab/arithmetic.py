"""Exact factorization and sum-of-divisors arithmetic below 2**64.

Factorization runs trial division by primes under 1000, then a deterministic
Miller-Rabin primality test and Brent-cycle Pollard rho for what remains.
All sigma values are exact integers; anything that would leave 64 bits is a
CapacityError rather than a silently wrong number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, require_capacity
from .primes import _small_primes

U64_LIMIT = 1 << 64
# bytes per entry of an int64 sigma table or window
SIGMA_BYTES_PER_N = 8
_TRIAL_PRIMES = tuple(int(p) for p in _small_primes(999))
# witness set proven sufficient for every n < 3.3e24, far past 2**64
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@dataclass(frozen=True)
class Factorization:
    """Prime factorization as ((q1, e1), (q2, e2), ...) with q1 < q2 < ...

    The empty tuple represents n = 1. Primality of the bases is the
    producer's responsibility; ordering and positivity are checked here.
    """

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        last = 1
        for q, e in self.factors:
            if q <= last:
                raise ValueError(f"factor bases must be strictly increasing, got {self.factors}")
            if e < 1:
                raise ValueError(f"exponents must be >= 1, got {self.factors}")
            last = q

    @property
    def is_unit(self) -> bool:
        return not self.factors

    def value(self) -> int:
        """Exact represented integer; can be astronomically large."""
        out = 1
        for q, e in self.factors:
            out *= q**e
        return out


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for every n below 2**64."""
    if n >= U64_LIMIT:
        raise ValueError(f"primality test supported below 2**64, got {n}")
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_split(n: int) -> int:
    """Nontrivial factor of an odd composite n, Brent cycle, deterministic.

    The polynomial constant starts at 1 and is bumped on failure, so repeated
    runs always walk the same sequence.
    """
    c = 1
    while True:
        y, r, q = 2, 1, 1
        g = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        c += 1


def factorize(n: int) -> Factorization:
    """Full prime factorization of 1 <= n < 2**64."""
    if not 1 <= n < U64_LIMIT:
        raise ValueError(f"factorize needs 1 <= n < 2**64, got {n}")
    counts: dict[int, int] = {}
    rest = n
    for p in _TRIAL_PRIMES:
        if p * p > rest:
            break
        while rest % p == 0:
            counts[p] = counts.get(p, 0) + 1
            rest //= p
    if rest > 1:
        stack = [rest]
        while stack:
            v = stack.pop()
            if is_prime(v):
                counts[v] = counts.get(v, 0) + 1
            else:
                d = _rho_split(v)
                stack.append(d)
                stack.append(v // d)
    return Factorization(tuple(sorted(counts.items())))


def sigma_of(f: Factorization) -> int:
    """Exact sum of divisors of the represented n.

    Both n and sigma(n) must stay below 2**64; otherwise CapacityError.
    Callers probing huge exponent vectors should use sigma_ratio_of.
    """
    n = 1
    total = 1
    for q, e in f.factors:
        n *= q**e
        if n >= U64_LIMIT:
            raise CapacityError("represented n leaves 64 bits; use sigma_ratio_of")
        total *= (q ** (e + 1) - 1) // (q - 1)
        if total >= U64_LIMIT:
            raise CapacityError("sigma(n) leaves 64 bits; use sigma_ratio_of")
    return total


def sigma_ratio_of(f: Factorization) -> float:
    """sigma(n)/n as a float product over prime powers, safe for huge n."""
    ratio = 1.0
    for q, e in f.factors:
        qf = float(q)
        ratio *= (1.0 - qf ** (-(e + 1))) / (1.0 - 1.0 / qf)
    return ratio


def log_n_of(f: Factorization) -> float:
    """log n as the correctly rounded sum of e * log q."""
    return math.fsum(e * math.log(q) for q, e in f.factors)


@dataclass(frozen=True, eq=False)
class SigmaTable:
    """sigma(n) for every 1 <= n <= limit; sigma[0] is unused and zero."""

    limit: int
    sigma: np.ndarray

    def __post_init__(self) -> None:
        self.sigma.setflags(write=False)

    def of(self, n: int) -> int:
        if not 1 <= n <= self.limit:
            raise ValueError(f"n={n} outside table range [1, {self.limit}]")
        return int(self.sigma[n])


def _divisor_pair_sweep(sigma: np.ndarray, lo: int) -> None:
    """Turn sigma[i] = lo + i into sigma(lo + i) in place, for lo >= 1.

    Every divisor pair (d, n/d) with d <= sqrt(n) is added once: d = 1 by
    one add over the window, and each d up to isqrt(hi - 1) as a strided
    slice from its first multiple n >= max(d*d, lo).
    """
    hi = lo + sigma.size
    if hi == lo:
        return
    sigma += 1  # pairs (1, n)
    root = math.isqrt(hi - 1)
    for d in range(2, root + 1):
        first = max(d * d, -(-lo // d) * d)
        if first < hi:
            # pairs (d, k) for max(d, lo/d) <= k <= (hi-1) // d land on n = d*k
            sigma[first - lo :: d] += np.arange(d + first // d, d + (hi - 1) // d + 1, dtype=np.int64)
    # squares counted their root twice in the pair sweep above
    roots = np.arange(math.isqrt(lo - 1) + 1, root + 1, dtype=np.int64)
    sigma[roots * roots - lo] -= roots


def sigma_window(lo: int, hi: int) -> np.ndarray:
    """Exact int64 sigma(n) for every n in [lo, hi), 1 <= lo <= hi.

    Costs 8 bytes per entry plus one transient of at most 4 bytes per
    entry, whatever lo is, so windows near 1e9 need no more memory than
    windows near 1. Time has one Python step per d up to isqrt(hi - 1), which
    dominates narrow windows far from 1. The caller budgets the result;
    sigma_sieve and scan_range do.
    """
    if not 1 <= lo <= hi:
        raise ValueError(f"need 1 <= lo <= hi, got [{lo}, {hi})")
    sigma = np.arange(lo, hi, dtype=np.int64)
    _divisor_pair_sweep(sigma, lo)
    return sigma


def sigma_sieve(limit: int) -> SigmaTable:
    """Exact sigma table: sigma_window(1, limit + 1) with a zero in front.

    The window kernel fills a view of the table in place, so the table is
    never copied. Costs 8 bytes per entry plus one transient of at most 4
    bytes per entry; the budget guard checks the table itself.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    require_capacity(SIGMA_BYTES_PER_N * (limit + 1), f"divisor-sum table up to {limit}")
    sigma = np.arange(limit + 1, dtype=np.int64)  # sigma[0] stays 0
    _divisor_pair_sweep(sigma[1:], 1)
    return SigmaTable(limit=limit, sigma=sigma)
