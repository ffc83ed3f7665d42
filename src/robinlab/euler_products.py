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

from .primes import PrimeTable, table_for_count
from .robin import EULER_GAMMA
from .summation import prefix_sums

# p**-(k+1) underflows float64 well before this cap for every prime, so
# larger exponents only saturate the products anyway
MAX_EXPONENT = 60

# log1p arguments of smaller magnitude take glibc's tiny branch (_log1p_neg)
LOG1P_TINY = 2.0**-29

# width of the first chunk of the first-hold search; each next chunk doubles
FIRST_HOLD_CHUNK = 1024


def _check_k(k: int) -> None:
    if not 1 <= k <= MAX_EXPONENT:
        raise ValueError(f"k must be in [1, {MAX_EXPONENT}], got {k}")


def _table_for(m: int, table: PrimeTable | None) -> PrimeTable:
    if table is not None and table.count >= m:
        return table
    return table_for_count(m)


def _libm(fn: Callable[..., float], values: np.ndarray, *args: object) -> np.ndarray:
    """fn(v, *args) for each v, by libm as in scalar code; map keeps the loop in C.

    numpy's SIMD log, log1p and power differ from libm in the last bit on up
    to 35k of the primes below 1e7; for log1p libm was closer in 28 of 29.
    So pow, log and every log1p argument outside glibc's tiny branch (see
    _log1p_neg) go through here; libm pow(p, -2) also differs from the
    correctly rounded 1/(p*p) on 570 of those primes.
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
    out = -x - x * x * 0.5
    wide = x >= LOG1P_TINY
    out[wide] = _libm(math.log1p, -x[wide])
    return out


def _factor_logs(primes: np.ndarray, k: int) -> np.ndarray:
    """log (1 - p**-(k+1)) for each prime; all terms are negative."""
    return _log1p_neg(_libm(math.pow, primes.astype(np.float64), -(k + 1.0)))


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
    tail bound anchored at p_m. The true value always lies inside.
    """
    _check_k(k)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    table = _table_for(m, table)
    log_partial = _log_zeta_partial(m, k, table)
    lo = math.exp(log_partial)
    hi = math.exp(log_partial + tail_bound_log(float(k + 1), float(table.nth(m))))
    return Interval(lo=lo, hi=hi)


@dataclass(frozen=True)
class ConditionRow:
    """One sweep row; carries both forms of the check for cross-validation."""

    m: int
    p_m: int
    k: int
    lhs_log: float
    rhs_log: float
    holds: bool
    deviation: float
    log_zeta_partial: float
    deficit_holds: bool


@dataclass
class SweepSummary:
    m_max: int
    p_max: int
    first_hold: dict[int, int | None]
    final_deviation: float


def _doubling_chunks(n: int) -> Iterator[tuple[int, int]]:
    """[lo, hi) chunks covering range(n) in order, FIRST_HOLD_CHUNK wide, then doubling."""
    lo, width = 0, FIRST_HOLD_CHUNK
    while lo < n:
        yield lo, min(lo + width, n)
        lo, width = lo + width, 2 * width


def condition_sweep(
    m_max: int,
    ks: Sequence[int],
    *,
    checkpoint_every: int = 1,
    table: PrimeTable | None = None,
    on_row: Callable[[ConditionRow], None] | None = None,
) -> SweepSummary:
    """Sweep of the condition over m = 1..m_max for each k.

    Every m reads the same prefix sums, term helpers and right-hand side as
    the one-shot functions, so row values are bit-identical to theirs at the
    same m. Rows are delivered m-major at the checkpoint cadence plus always
    at m_max. First-hold tracking walks m in ascending order, in chunks that
    double in size, up to the first m that holds, whatever the cadence; the
    right-hand side is evaluated only on the chunks walked (shared by all k)
    and at the rows.
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
    table = _table_for(m_max, table)
    primes = table.primes[:m_max]
    mert = prefix_sums(_mertens_terms(primes))
    at = np.array([*range(checkpoint_every, m_max, checkpoint_every), m_max] if on_row else [],
                  dtype=np.intp) - 1
    first_hold: dict[int, int | None] = {}
    rhs_chunks: dict[int, np.ndarray] = {}  # _rhs_log of each chunk walked so far, by its lo
    prods = np.empty((len(ks), at.size))  # prefix of log1p(-p**-(k+1)) at each row
    for j, k in enumerate(ks):
        prod = prefix_sums(_factor_logs(primes, k))
        first_hold[k] = None
        for lo, hi in _doubling_chunks(m_max):
            if lo not in rhs_chunks:
                rhs_chunks[lo] = _rhs_log(primes[lo:hi])
            holds = mert[lo:hi] + prod[lo:hi] <= rhs_chunks[lo]
            i = int(np.argmax(holds))
            if holds[i]:
                first_hold[k] = lo + i + 1
                break
        prods[j] = prod[at]
        del prod
    for col, (i, rhs_m) in enumerate(zip(at.tolist(), _rhs_log(primes[at]).tolist())):
        p, lm = int(primes[i]), float(mert[i])
        dev = lm - rhs_m
        for k, prod_m in zip(ks, prods[:, col].tolist()):
            lhs = lm + prod_m
            on_row(ConditionRow(
                m=i + 1, p_m=p, k=k, lhs_log=lhs, rhs_log=rhs_m, holds=lhs <= rhs_m,
                deviation=dev, log_zeta_partial=-prod_m, deficit_holds=dev <= -prod_m,
            ))
    return SweepSummary(m_max=m_max, p_max=int(primes[-1]), first_hold=first_hold,
                        final_deviation=float(mert[-1]) - _rhs_at(m_max, table))
