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

# row cells (rows, times k for condition_sweep) that a streamed function
# hands to on_rows per call, so dense rows cost one block of columns
ROW_BLOCK = 1 << 14


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


def _segments(every: int, *, limit: int | None = None, count: int | None = None, skip: int = 0,
              segment_size: int = DEFAULT_SEGMENT_ODDS,
              bytes_per_prime: int = 8) -> Iterator[tuple[np.ndarray, int, np.ndarray]]:
    """The primes <= limit, or the first count primes, as (primes, done, rows) per sieve segment.

    primes is one segment's primes, ascending, and done the number of primes
    in earlier segments. Prime number done + j + 1 counts as item
    done + j + 1 - skip, and rows holds, ascending, the indices j of the
    items that are a multiple of every, plus the segment's last prime when
    it is the last of the stream. Prime 2 is a segment of its own, the only
    one whose item is 0 when skip is 1. Segments holding no prime are not
    yielded, and only one segment is held at a time: the stream ends at the
    largest prime <= limit, found first by a short sieve below the limit, or
    at the count-th prime, so the segment that holds it is known to be the
    last. The budget counts bytes_per_prime per prime, and the rows.
    """
    if every < 1:
        raise ValueError(f"checkpoint_every must be >= 1, got {every}")
    if count is None:
        if limit < 0:
            raise ValueError(f"limit must be >= 0, got {limit}")
        if limit < 2:
            return
        width = 64
        while not (near := primes_in_range(limit + 1 - width, limit + 1)).size:
            width *= 2
        end = int(near[-1])
    else:
        end = _count_bound(count)
    done = 0
    # the rows add 8 bytes for one prime in every
    for seg in prime_segments(2, end + 1, segment_size=segment_size,
                              bytes_per_prime=bytes_per_prime + (every + 7) // every):
        if count is not None:
            seg = seg[: count - done]
        last = seg[-1] == end if count is None else done + seg.size == count
        rows = np.arange(every - 1 - (done - skip) % every, seg.size, every)
        if last and (not rows.size or rows[-1] != seg.size - 1):
            rows = np.append(rows, seg.size - 1)
        size, box = seg.size, [seg]
        del seg
        # handed over, not kept: while the caller works on it, this frame holds no reference
        yield box.pop(), done, rows
        if last:
            return
        done += size
    raise ArithmeticError(f"fewer than {count} primes below {end}")


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
