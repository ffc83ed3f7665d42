"""Segmented prime sieve, prime gaps, and the log-weighted prime sum theta.

The sieve is odd-only and works in fixed-size segments so windows far from
the origin can be enumerated without sieving everything below them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

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


def _segment_bytes(lo: int, width: int, bytes_per_prime: int) -> int:
    """Budgeted bytes of one segment of the given width starting near lo.

    A one-byte-per-odd mask, plus bytes_per_prime for each of the about
    1.3 width / log(lo + width) primes it holds.
    """
    end = max(lo + width, 3)
    return int(bytes_per_prime * 1.3 * width / math.log(end)) + (width + 1) // 2


def prime_segments(lo: int, hi: int, *, segment_size: int = DEFAULT_SEGMENT_ODDS,
                   bytes_per_prime: int = 8) -> Iterator[np.ndarray]:
    """The primes in [lo, hi), ascending, one array per sieve segment that holds any.

    A segment covers 2 * segment_size integers. Memory stays
    O(segment_size + pi(sqrt(hi))) however wide the range: only the current
    segment is held. The budget check, before anything is sieved, counts the
    first segment's mask and bytes_per_prime for each prime it may hold; a
    caller that keeps per-prime arrays of its own passes their total.
    """
    if segment_size < 1:
        raise ValueError(f"segment_size must be positive, got {segment_size}")
    lo = max(lo, 2)
    if hi <= lo:
        return
    require_capacity(_segment_bytes(lo, min(2 * segment_size, hi - lo), bytes_per_prime),
                     f"one segment of primes in [{lo}, {hi})")
    base = _small_primes(math.isqrt(hi - 1))
    odd_base = [int(p) for p in base[base > 2]]
    if lo <= 2 < hi:
        yield np.array([2], dtype=np.int64)
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
        found = [np.flatnonzero(mask).astype(np.int64, copy=False)]
        del mask
        found[0] *= 2
        found[0] += seg_lo
        if found[0].size:
            # handed over, not kept: while the caller works on it, this frame holds no reference
            yield found.pop()
        seg_lo = seg_max + 2


def primes_in_range(lo: int, hi: int, *, segment_size: int = DEFAULT_SEGMENT_ODDS) -> np.ndarray:
    """All primes in [lo, hi), ascending: the segments of prime_segments joined.

    The output, estimated from the width of the window, and one segment are
    checked against the memory budget before anything is sieved, so windows
    near 1e9 are cheap and wide ones fail fast.
    """
    if segment_size < 1:
        raise ValueError(f"segment_size must be positive, got {segment_size}")
    lo = max(lo, 2)
    if hi <= lo:
        return np.empty(0, dtype=np.int64)
    # about 1.3 (hi - lo) / log hi primes of 8 bytes, plus a one-byte-per-odd segment mask
    est_out = int(8 * 1.3 * (hi - lo) / math.log(hi))
    require_capacity(est_out + min(segment_size, (hi - lo + 1) // 2), f"primes in [{lo}, {hi})")
    pieces = list(prime_segments(lo, hi, segment_size=segment_size))
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
    return PrimeTable(limit=limit, primes=primes_in_range(2, limit + 1, segment_size=segment_size))


def _count_bound(m: int) -> int:
    """A limit with at least m primes below it, m >= 1."""
    if m < 6:
        return 13
    # p_m < m (log m + log log m) for m >= 6
    return int(m * (math.log(m) + math.log(math.log(m)))) + 16


def table_for_count(m: int, *, segment_size: int = DEFAULT_SEGMENT_ODDS) -> PrimeTable:
    """Smallest convenient PrimeTable guaranteed to hold at least m primes."""
    if m < 1:
        raise ValueError(f"need a positive prime count, got {m}")
    bound = _count_bound(m)
    table = primes_up_to(bound, segment_size=segment_size)
    while table.count < m:  # defensive, the analytic bound already suffices
        bound = bound * 3 // 2 + 64
        table = primes_up_to(bound, segment_size=segment_size)
    return table


def primes_through(limit: int, *, table: PrimeTable | None = None,
                   segment_size: int = DEFAULT_SEGMENT_ODDS,
                   bytes_per_prime: int = 8) -> Iterator[np.ndarray]:
    """The primes <= limit, ascending, in pieces.

    From a table that covers limit, one slice of it; otherwise the sieve
    segments of prime_segments, budgeted at bytes_per_prime per prime.
    """
    if table is not None:
        if table.limit < limit:
            raise ValueError(f"prime table covers {table.limit}, need primes up to {limit}")
        yield table.primes[: table.pi(limit)]
        return
    yield from prime_segments(2, limit + 1, segment_size=segment_size, bytes_per_prime=bytes_per_prime)


def first_primes(m: int, *, table: PrimeTable | None = None,
                 segment_size: int = DEFAULT_SEGMENT_ODDS,
                 bytes_per_prime: int = 8) -> Iterator[np.ndarray]:
    """The first m primes, ascending, in pieces.

    From a table that holds m primes, one slice of it; otherwise the sieve
    segments of prime_segments up to the m-th prime, budgeted at
    bytes_per_prime per prime.
    """
    if m < 1:
        raise ValueError(f"need a positive prime count, got {m}")
    if table is not None and table.count >= m:
        yield table.primes[:m]
        return
    left = m
    for seg in prime_segments(2, _count_bound(m) + 1, segment_size=segment_size,
                              bytes_per_prime=bytes_per_prime):
        yield seg[:left]
        left -= min(left, seg.size)
        if not left:
            return
    raise ArithmeticError(f"fewer than {m} primes below {_count_bound(m)}")


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
