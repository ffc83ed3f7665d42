"""Partial Euler products, the Mertens deviation, and rigorous zeta tails.

All products live on the log scale. log(1 - t) always goes through log1p so
tiny t keep full precision, and partial sums accumulate in ascending prime
order under compensation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterator, Sequence

import numpy as np

from .primes import DEFAULT_SEGMENT_ODDS, PrimeTable, first_primes, table_for_count
from .robin import EULER_GAMMA
from .summation import PrefixCarry, prefix_sums

# p**-(k+1) underflows float64 well before this cap for every prime, so
# larger exponents only saturate the products anyway
MAX_EXPONENT = 60

# log1p arguments of smaller magnitude take glibc's tiny branch (_log1p_neg)
LOG1P_TINY = 2.0**-29

# width of the first chunk of the first-hold search; each next chunk doubles
FIRST_HOLD_CHUNK = 1024

# width of the blocks in which verdicts past the first hold are settled
# from a bound; narrow enough that the right-hand side rises less across one
# than the condition's margin for k <= 5 past m = 1024
HOLD_BLOCK = 64

# far above the few ulps by which numpy's log(log p) + gamma and libm's can
# differ, so numpy's value less this is a lower bound of _rhs_log
RHS_MARGIN = 1e-12

# relative error bound, with room to spare, of the computed log of a partial
# zeta product, less Sum2's gamma**2 term (derived in zeta_enclosure); it
# also raises the tail bound past its own roundings
ZETA_LOG_REL_ERR = 2.0**-50

# bytes per prime that one streamed segment holds at its peak, from
# tracemalloc: the segment, the Mertens prefix, one k's terms and the
# carried prefix's 24
SWEEP_BYTES_PER_PRIME = 40


def _check_k(k: int) -> None:
    if not 1 <= k <= MAX_EXPONENT:
        raise ValueError(f"k must be in [1, {MAX_EXPONENT}], got {k}")


def _table_for(m: int, table: PrimeTable | None) -> PrimeTable:
    if table is not None and table.count >= m:
        return table
    return table_for_count(m)


def _libm(fn: Callable[..., float], values: np.ndarray, *args: object) -> np.ndarray:
    """fn(v, *args) for each v, by libm as in scalar code; map keeps the loop in C.

    numpy's SIMD log and log1p differ from libm in the last bit on up to 35k
    of the primes below 1e7; for log1p libm was closer in 28 of 29. So log
    and every log1p argument outside glibc's tiny branch (see _log1p_neg) go
    through here. pow does not: _factor_logs takes it from np.float_power.
    """
    return np.fromiter(map(fn, memoryview(values), *map(repeat, args)), dtype=np.float64,
                       count=values.size)


def _mertens_terms(primes: np.ndarray) -> np.ndarray:
    """log (1 - 1/p)**-1 for each prime."""
    return -_libm(math.log1p, np.divide(-1.0, primes))


def _log1p_neg(x: np.ndarray) -> np.ndarray:
    """log1p(-x) for each x in [0, 1), bit for bit as libm's log1p.

    For |x| < 2**-29 glibc's log1p (s_log1p.c) returns x - x*x*0.5, or x
    itself below 2**-54, where that expression rounds to x anyway. Those are
    plain IEEE operations, so numpy computes them exactly; the rest go to libm.
    """
    half_sq = x * x
    half_sq *= 0.5
    out = np.negative(x)
    out -= half_sq  # -x - x*x*0.5, in place to hold one array fewer
    del half_sq
    wide = x >= LOG1P_TINY
    out[wide] = _libm(math.log1p, -x[wide])
    return out


def _factor_logs(primes: np.ndarray, k: int) -> np.ndarray:
    """log (1 - p**-(k+1)) for each prime; all terms are negative.

    p**-(k+1) is libm's pow, called on each element by np.float_power: that
    ufunc has no SIMD loop, while np.power's differs from libm on about 35k
    of the primes below 1e7. libm pow(p, -2) also differs from the correctly
    rounded 1/(p*p) on 570 of those primes.
    """
    return _log1p_neg(np.float_power(primes, -(k + 1.0)))


def _rhs_log(primes: np.ndarray) -> np.ndarray:
    """log(exp(gamma) * log p) for each prime."""
    return EULER_GAMMA + _libm(math.log, _libm(math.log, primes))


def _rhs_at(m: int, table: PrimeTable) -> float:
    return float(_rhs_log(table.primes[m - 1 : m])[0])


def mertens_product_log(m: int, *, table: PrimeTable | None = None) -> float:
    """log of the product of (1 - 1/p)**-1 over the first m primes."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    table = _table_for(m, table)
    return float(prefix_sums(_mertens_terms(table.primes[:m]))[-1])


def mertens_deviation(m: int, *, table: PrimeTable | None = None) -> float:
    """Gap between the partial Mertens product and its asymptote.

    Equals mertens_product_log(m) - (log log p_m + gamma); tends to zero as
    m grows. Note log log p_1 = log log 2 is negative, which is fine here.
    """
    table = _table_for(m, table)
    return mertens_product_log(m, table=table) - _rhs_at(m, table)


def _log_zeta_partial(m: int, k: int, table: PrimeTable) -> float:
    """log of the product of (1 - p**-(k+1))**-1 over the first m primes."""
    return -float(prefix_sums(_factor_logs(table.primes[:m], k))[-1])


@dataclass(frozen=True)
class ConditionVerdict:
    """Product-form check: lhs_log <= rhs_log means the condition holds."""

    lhs_log: float
    rhs_log: float
    holds: bool


def product_condition(m: int, k: int, *, table: PrimeTable | None = None) -> ConditionVerdict:
    """Check the finite product condition at the first m primes.

    lhs is log of prod (1-1/p)**-1 * prod (1 - p**-(k+1)); rhs is
    log(exp(gamma) * log p_m). Both sides on the log scale.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    _check_k(k)
    table = _table_for(m, table)
    lhs = mertens_product_log(m, table=table) - _log_zeta_partial(m, k, table)
    rhs = _rhs_at(m, table)
    return ConditionVerdict(lhs_log=lhs, rhs_log=rhs, holds=lhs <= rhs)


@dataclass(frozen=True)
class DeficitVerdict:
    """Rearranged check: deviation <= log_zeta_partial means it holds."""

    deviation: float
    log_zeta_partial: float
    holds: bool


def deficit_condition(m: int, k: int, *, table: PrimeTable | None = None) -> DeficitVerdict:
    """Same condition as product_condition, rearranged around the deviation.

    The Mertens deviation at p_m must not exceed the log of the partial zeta
    product at exponent k+1. Algebraically identical to product_condition;
    computed independently so the two can cross-check each other.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    _check_k(k)
    table = _table_for(m, table)
    dev = mertens_deviation(m, table=table)
    tail = _log_zeta_partial(m, k, table)
    return DeficitVerdict(deviation=dev, log_zeta_partial=tail, holds=dev <= tail)


def tail_bound_log(s: float, x: float) -> float:
    """Closed-form bound s/(s-1) * x**(1-s) for the log of a zeta tail at x.

    Dominates the log of the missing Euler factors over primes > x for any
    s > 1, x > 0.
    """
    if s <= 1:
        raise ValueError(f"tail bound needs s > 1, got {s}")
    if x <= 0:
        raise ValueError(f"tail bound needs x > 0, got {x}")
    return s / (s - 1.0) * x ** (1.0 - s)


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi


def zeta_enclosure(k: int, m: int, *, table: PrimeTable | None = None) -> Interval:
    """Two-sided enclosure of zeta(k+1) from the first m Euler factors.

    Lower end is the partial product, upper end multiplies in the closed-form
    tail bound anchored at p_m. The true value always lies inside: both ends
    round outward from the float error bound of L, the computed log of the
    partial product. With u = 2**-53:
    - Each term log1p(-p**-(k+1)) is one libm pow and one libm log1p. The
      glibc manual's table of known maximum errors gives at most 1 ulp for
      pow, log1p and exp on x86_64, so 2u relative. log1p(-x) has condition
      number at most 1.16 for x <= 1/4, so each term is within
      1.16*2u + 2u = 4.32u of its exact value. A p**-(k+1) below 2**-1022 is
      off by at most 2**-1074 instead, far below u*L, since L > 2**-62.
    - The terms share one sign, so Sum2 adds at most (u + gamma**2) * L,
      gamma = (m-1)u / (1 - (m-1)u) (Ogita, Rump and Oishi 2005, Prop. 4.5).
    err = (2**-50 + gamma**2) * L exceeds that 5.32u + gamma**2 by enough to
    absorb the rounding of L - err and L + err. lo is the float below
    exp(L - err): one step covers exp's error of at most 1 ulp. hi is the
    float above exp(L + err + tail), with tail_bound_log raised by a factor
    1 + 2**-50 past its own roundings (a division, a pow and a product). So
    every width is at least one ulp.
    """
    _check_k(k)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    table = _table_for(m, table)
    log_partial = _log_zeta_partial(m, k, table)
    u = 2.0**-53
    gamma = (m - 1) * u / (1.0 - (m - 1) * u)
    err = (ZETA_LOG_REL_ERR + gamma * gamma) * log_partial
    tail = tail_bound_log(float(k + 1), float(table.nth(m))) * (1.0 + ZETA_LOG_REL_ERR)
    lo = math.nextafter(math.exp(log_partial - err), 0.0)
    hi = math.nextafter(math.exp(log_partial + err + tail), math.inf)
    return Interval(lo=lo, hi=hi)


@dataclass
class SweepSummary:
    """What a sweep found for each k, beside the rows.

    last_failure[k] is the largest m <= m_max where the condition fails, or
    None if it holds at every m; fails_after_hold[k] counts the m past
    first_hold[k] where it fails again.
    """

    m_max: int
    p_max: int
    first_hold: dict[int, int | None]
    final_deviation: float
    last_failure: dict[int, int | None]
    fails_after_hold: dict[int, int]


def _doubling_chunks(n: int) -> Iterator[tuple[int, int]]:
    """[lo, hi) chunks covering range(n) in order, FIRST_HOLD_CHUNK wide, then doubling."""
    lo, width = 0, FIRST_HOLD_CHUNK
    while lo < n:
        yield lo, min(lo + width, n)
        lo, width = lo + width, 2 * width


def _failures(lhs: np.ndarray, primes: np.ndarray, start: int) -> np.ndarray:
    """The indices i >= start where lhs[i] > _rhs_log(primes[i]), ascending.

    lhs and the right-hand side both rise with m, so a HOLD_BLOCK-wide block
    whose largest lhs is at most a lower bound of the right-hand side at the
    block's first prime holds throughout. That bound is numpy's log(log p)
    + gamma less RHS_MARGIN; only the other blocks evaluate the exact
    right-hand side.
    """
    starts = np.arange(start, lhs.size, HOLD_BLOCK)
    if not starts.size:
        return starts
    top = np.maximum.reduceat(lhs[start:], starts - start)
    floor = EULER_GAMMA + np.log(np.log(primes[starts])) - RHS_MARGIN
    bad = [s + np.flatnonzero(lhs[s : s + HOLD_BLOCK] > _rhs_log(primes[s : s + HOLD_BLOCK]))
           for s in starts[top > floor].tolist()]
    return np.concatenate(bad) if bad else starts[:0]


def condition_sweep(
    m_max: int,
    ks: Sequence[int],
    *,
    checkpoint_every: int = 1,
    table: PrimeTable | None = None,
    on_rows: Callable[[list[np.ndarray]], None] | None = None,
    segment_size: int = DEFAULT_SEGMENT_ODDS,
) -> SweepSummary:
    """Sweep of the condition over m = 1..m_max for each k.

    Every m reads the same prefix sums, term helpers and right-hand side as
    the one-shot functions, so row values are bit-identical to theirs at the
    same m. Rows go to on_rows m-major, at the checkpoint cadence plus always
    at m_max, one call per segment that holds any, as the columns m, p_m, k,
    lhs_log, rhs_log, holds (product_condition's form), deviation,
    log_zeta_partial and deficit_holds (deficit_condition's). First-hold
    tracking walks m in ascending order, in chunks that double in size, up
    to the first m that holds, whatever the cadence; the right-hand side is
    evaluated only on the chunks walked (shared by all k), at the rows, and
    on the blocks past the first hold that _failures cannot settle from a
    bound.

    Without a table that holds m_max primes, they are sieved one segment at
    a time, and only running state outlives a segment: the prefix carries
    and, for each k, the first hold and the failures after it.
    """
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    if checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
    ks = list(ks)
    if not ks:
        raise ValueError("need at least one k")
    for k in ks:
        _check_k(k)
    uniq = list(dict.fromkeys(ks))  # a repeated k is the same condition, not a second product
    want_rows = on_rows is not None
    mert_carry, prod_carries = PrefixCarry(), [PrefixCarry() for _ in uniq]
    first_hold: dict[int, int | None] = dict.fromkeys(uniq)
    last_fail: dict[int, int | None] = dict.fromkeys(uniq)
    fails_after = dict.fromkeys(uniq, 0)
    done = 0  # primes in earlier segments
    for primes in first_primes(m_max, table=table, segment_size=segment_size,
                               bytes_per_prime=SWEEP_BYTES_PER_PRIME):
        size = primes.size
        mert = prefix_sums(_mertens_terms(primes), mert_carry)
        at = np.arange(checkpoint_every - 1 - done % checkpoint_every, size if want_rows else 0,
                       checkpoint_every)
        if want_rows and done + size == m_max and (at.size == 0 or at[-1] != size - 1):
            at = np.append(at, size - 1)
        rhs_chunks: dict[int, np.ndarray] = {}  # _rhs_log of each chunk's part in this segment, by its lo
        prods = np.empty((len(uniq), at.size))  # prefix of log1p(-p**-(k+1)) at each row
        for j, k in enumerate(uniq):
            lhs = prefix_sums(_factor_logs(primes, k), prod_carries[j])
            prods[j] = lhs[at]
            lhs += mert
            fails, start = [], 0  # failures past the first hold, and where they are still to find
            if first_hold[k] is None:
                start = size
                for lo, hi in _doubling_chunks(m_max):
                    if hi <= done:
                        continue
                    if lo >= done + size:
                        break
                    a, b = max(lo - done, 0), min(hi - done, size)
                    if lo not in rhs_chunks:
                        rhs_chunks[lo] = _rhs_log(primes[a:b])
                    holds = lhs[a:b] <= rhs_chunks[lo]
                    i = int(np.argmax(holds))
                    if holds[i]:
                        first_hold[k] = done + a + i + 1
                        fails.append(a + i + np.flatnonzero(~holds[i:]))
                        start = b
                        break
            if first_hold[k] is not None:
                fails = np.concatenate([*fails, _failures(lhs, primes, start)])
                if fails.size:
                    fails_after[k] += fails.size
                    last_fail[k] = done + int(fails[-1]) + 1
            del lhs
        if at.size:
            width = len(ks)
            zeta_m = prods[[uniq.index(k) for k in ks]].T.ravel()  # m-major, k within m
            np.negative(zeta_m, out=zeta_m)  # log_zeta_partial; mert - zeta is mert + prod exactly
            mert_m, rhs_m = np.repeat(mert[at], width), np.repeat(_rhs_log(primes[at]), width)
            lhs_m, dev = mert_m - zeta_m, mert_m - rhs_m
            del mert_m
            on_rows([np.repeat(done + at + 1, width), np.repeat(primes[at], width), np.tile(ks, at.size),
                     lhs_m, rhs_m, lhs_m <= rhs_m, dev, zeta_m, dev <= zeta_m])
            del zeta_m, rhs_m, lhs_m, dev
        done += size
        p_max, mert_last = int(primes[-1]), float(mert[-1])
        del mert
    last_failure = {}
    for k in uniq:
        if first_hold[k] is None:
            last_failure[k] = m_max
        elif last_fail[k] is None and first_hold[k] > 1:
            last_failure[k] = first_hold[k] - 1
        else:
            last_failure[k] = last_fail[k]
    return SweepSummary(m_max=m_max, p_max=p_max, first_hold=first_hold,
                        final_deviation=mert_last - float(_rhs_log(np.array([p_max]))[0]),
                        last_failure=last_failure, fails_after_hold=fails_after)
