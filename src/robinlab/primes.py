"""Segmented prime sieve, prime gaps, and the log-weighted prime sum theta.

The sieve is odd-only and works in fixed-size segments so windows far from
the origin can be enumerated without sieving everything below them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import require_capacity
from .summation import prefix_sums

# odd entries per segment; one segment covers twice this many integers
DEFAULT_SEGMENT_ODDS = 1 << 20


def _small_primes(limit: int) -> np.ndarray:
    """Dense sieve used for base primes (limit ~ sqrt of the real bound)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask).astype(np.int64)


def primes_in_range(lo: int, hi: int, *, segment_size: int = DEFAULT_SEGMENT_ODDS) -> np.ndarray:
    """All primes in [lo, hi), ascending.

    Memory stays O(segment_size + pi(sqrt(hi)) + output); only the window
    itself is sieved, so windows near 1e9 are cheap.
    """
    if segment_size < 1:
        raise ValueError(f"segment_size must be positive, got {segment_size}")
    lo = max(lo, 2)
    if hi <= lo:
        return np.empty(0, dtype=np.int64)
    base = _small_primes(math.isqrt(hi - 1))
    odd_base = [int(p) for p in base[base > 2]]
    pieces = []
    if lo <= 2 < hi:
        pieces.append(np.array([2], dtype=np.int64))
    seg_lo = lo | 1  # first odd candidate, lo >= 2 so seg_lo >= 3
    while seg_lo < hi:
        n_odd = min(segment_size, (hi - seg_lo + 1) // 2)
        seg_max = seg_lo + 2 * (n_odd - 1)
        mask = np.ones(n_odd, dtype=bool)
        for p in odd_base:
            if p * p > seg_max:
                break
            # composites in the window all have a multiple >= p*p of some base p
            first = max(p * p, ((seg_lo + p - 1) // p) * p)
            if first % 2 == 0:
                first += p
            if first > seg_max:
                continue
            mask[(first - seg_lo) // 2 :: p] = False
        pieces.append(seg_lo + 2 * np.flatnonzero(mask).astype(np.int64))
        seg_lo = seg_max + 2
    return np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class PrimeTable:
    """Immutable ascending table of all primes up to `limit`."""

    limit: int
    primes: np.ndarray

    def __post_init__(self) -> None:
        self.primes.setflags(write=False)

    @property
    def count(self) -> int:
        return int(self.primes.size)

    def nth(self, n: int) -> int:
        """1-based: nth(1) = 2."""
        if n < 1:
            raise ValueError(f"prime index must be >= 1, got {n}")
        if n > self.count:
            raise IndexError(f"table holds {self.count} primes, asked for #{n}")
        return int(self.primes[n - 1])

    def gap(self, n: int) -> int:
        """Gap following the nth prime; needs prime n+1 in the table."""
        if n < 1:
            raise ValueError(f"prime index must be >= 1, got {n}")
        if n + 1 > self.count:
            raise IndexError(f"gap #{n} needs prime #{n + 1}, table holds {self.count}")
        return int(self.primes[n] - self.primes[n - 1])

    def pi(self, x: float) -> int:
        """Number of primes <= x within the table range."""
        return int(np.searchsorted(self.primes, x, side="right"))


def primes_up_to(limit: int, *, segment_size: int = DEFAULT_SEGMENT_ODDS) -> PrimeTable:
    """Sieve all primes <= limit into a PrimeTable."""
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    if limit >= 17:
        est_out = int(8 * 1.3 * limit / math.log(limit))
        require_capacity(est_out + segment_size, f"prime table up to {limit}")
    return PrimeTable(limit=limit, primes=primes_in_range(2, limit + 1, segment_size=segment_size))


def table_for_count(m: int, *, segment_size: int = DEFAULT_SEGMENT_ODDS) -> PrimeTable:
    """Smallest convenient PrimeTable guaranteed to hold at least m primes."""
    if m < 1:
        raise ValueError(f"need a positive prime count, got {m}")
    if m < 6:
        bound = 13
    else:
        # p_m < m (log m + log log m) for m >= 6
        bound = int(m * (math.log(m) + math.log(math.log(m)))) + 16
    table = primes_up_to(bound, segment_size=segment_size)
    while table.count < m:  # defensive, the analytic bound already suffices
        bound = bound * 3 // 2 + 64
        table = primes_up_to(bound, segment_size=segment_size)
    return table


def nth_prime(n: int, table: PrimeTable | None = None) -> int:
    """1-based nth prime, sieving on demand when no table covers it."""
    if n < 1:
        raise ValueError(f"prime index must be >= 1, got {n}")
    if table is not None and table.count >= n:
        return table.nth(n)
    return table_for_count(n).nth(n)


def prime_gap(n: int, table: PrimeTable | None = None) -> int:
    """Gap p_{n+1} - p_n, sieving on demand when no table covers it."""
    if n < 1:
        raise ValueError(f"prime index must be >= 1, got {n}")
    if table is not None and table.count >= n + 1:
        return table.gap(n)
    return table_for_count(n + 1).gap(n)


@dataclass(frozen=True)
class ThetaRecord:
    x: int
    theta: float
    pi_x: int


def chebyshev_theta(x: int, table: PrimeTable) -> ThetaRecord:
    """Sum of log p over primes p <= x.

    Logs are accumulated in ascending prime order with compensation, so the
    value for a fixed x is bit-identical across runs.
    """
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    if x > table.limit:
        raise ValueError(f"x={x} beyond table limit {table.limit}")
    k = table.pi(x)
    theta = float(prefix_sums(np.log(table.primes[:k]))[-1]) if k else 0.0
    return ThetaRecord(x=x, theta=theta, pi_x=k)
