"""Divisor-sum bound checks on the ratio scale.

Everything compares sigma(n)/n against exp(gamma) * log log n rather than
sigma(n) against n * exp(gamma) * log log n, so huge n never overflow and a
factorization alone is enough to evaluate a candidate.
"""

from __future__ import annotations

import heapq
import logging
import math
import sys
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .arithmetic import (
    Factorization,
    SigmaTable,
    _divisor_pair_sweep,
    sieve_dtype,
    sigma_sieve,  # noqa: F401  unused here, but bench/tracer.py wraps robin.sigma_sieve
)
from .errors import require_capacity
from .primes import table_for_count

log = logging.getLogger(__name__)

# float nearest the Euler-Mascheroni constant, and exp of exactly that float
EULER_GAMMA = 0.5772156649015329
EXP_GAMMA = math.exp(EULER_GAMMA)
# limsup bound exp(gamma) * (4 - 2*sqrt(2) + gamma - log(4*pi)) for the
# normalized excess statistic
RAMANUJAN_LIMSUP = EXP_GAMMA * (4.0 - 2.0 * math.sqrt(2.0) + EULER_GAMMA - math.log(4.0 * math.pi))

SPECIAL_NORMAL = "normal"
SPECIAL_LOGLOG_NONPOSITIVE = "loglog_nonpositive"

# exact float ties are decided as non-violations; anything this close gets
# logged so a human can look at it
NEAR_TIE_BAND = 1e-12

# scanned values per scan_range window; a scan holds one window's sigma at
# a time, so its peak memory does not grow with hi. 2**19 int32 entries are
# 2 MB, the L2 size of the machine this was tuned on
SCAN_WINDOW = 1 << 19
# scanned values per _scan_window call: the row math makes about a dozen
# passes over its arrays, and at this size they stay in cache
ROW_BLOCK = 1 << 15

# peak transient bytes per row of a _scan_window block, as measured by
# tracemalloc: four float64 arrays (n -> log n -> sqrt(log n), sigma/n,
# bound, delta) plus two byte masks; the window's sigma comes on top
SCAN_BYTES_PER_N = 34

# the largest int that float() rounds to a finite value
_FLOAT_MAX_INT = int(sys.float_info.max)


def ramanujan_constant() -> float:
    """Limsup of the normalized excess (sigma/n - bound) * sqrt(log n)."""
    return RAMANUJAN_LIMSUP


@dataclass(frozen=True)
class RobinEvaluation:
    log_n: float
    loglog_n: float
    sigma_ratio: float
    robin_rhs_ratio: float
    delta: float
    violates: bool
    special: str


def _is_at_least_3(f: Factorization) -> bool:
    return bool(f.factors) and f.factors != ((2, 1),)


def log_of(n: int) -> float:
    """log n of an exact integer n >= 1, the one log n every row here uses.

    numpy's log of the nearest float while n has one, which is the value the
    scan's vector np.log gives at every position; past float range, math.log
    of the int itself.
    """
    if n <= _FLOAT_MAX_INT:
        return float(np.log(np.float64(n)))
    return math.log(n)


def bound_columns(log_n: np.ndarray, ratio: np.ndarray) -> tuple[np.ndarray, ...]:
    """bound, delta, violates and near-tie masks of rows with these log n and sigma(n)/n.

    The one row formula: bound = exp(gamma) log log n, delta = (ratio -
    bound) * sqrt(log n), violates = ratio > bound (exact ties are not
    violations), near = |ratio - bound| < NEAR_TIE_BAND. log_n is
    overwritten with sqrt(log n), so a caller's work buffer is reused and
    the peak is four float64 arrays and two byte masks per row.
    """
    bound = np.log(log_n)
    bound *= EXP_GAMMA
    delta = ratio - bound
    near = delta < NEAR_TIE_BAND
    near &= delta > -NEAR_TIE_BAND
    violates = ratio > bound
    delta *= np.sqrt(log_n, out=log_n)
    return bound, delta, violates, near


def robin_check_batch(fs: Sequence[Factorization]) -> list[RobinEvaluation]:
    """robin_check of every factorization, with one bound_columns call for all.

    Each row takes the exact integer quotient sigma(n) / n, correctly
    rounded at any size, and log_of(n). The scan's sig / n is the same
    quotient while sigma(n) < 2**53, so there the two rows are equal bit for
    bit. Rows do not depend on the batch.
    """
    if any(f.is_unit for f in fs):
        raise ValueError("n = 1 has no log log n; nothing to check")
    ns = [f.value() for f in fs]
    logs = [log_of(n) for n in ns]
    ratios = [f.divisor_sum() / n for f, n in zip(fs, ns)]
    loglogs = np.log(logs).tolist()  # the log log n inside bound_columns
    bound, delta, violates, near = bound_columns(np.array(logs), np.array(ratios))
    out = []
    for i, log_n in enumerate(logs):
        special = SPECIAL_NORMAL if loglogs[i] > 0 else SPECIAL_LOGLOG_NONPOSITIVE
        if special == SPECIAL_NORMAL and near[i]:
            log.warning("near tie at n with log_n=%.17g: |ratio-bound|=%.3e", log_n, abs(ratios[i] - bound[i]))
        out.append(RobinEvaluation(log_n=log_n, loglog_n=loglogs[i], sigma_ratio=ratios[i],
                                   robin_rhs_ratio=float(bound[i]), delta=float(delta[i]),
                                   violates=bool(violates[i]), special=special))
    return out


def robin_check(f: Factorization) -> RobinEvaluation:
    """Evaluate the divisor bound for n >= 2 given its factorization.

    n = 2 has log log n < 0, which makes the bound negative and the
    comparison trivially true; that case is flagged as special rather than
    treated as evidence. Exact ties count as non-violations. The row is
    robin_check_batch's, which is the scan's row for the same n.
    """
    return robin_check_batch([f])[0]


def robin_delta(f: Factorization) -> float:
    """Normalized excess (sigma/n - exp(gamma) log log n) * sqrt(log n), n >= 3."""
    if not _is_at_least_3(f):
        raise ValueError("delta statistic is defined for n >= 3")
    return robin_check(f).delta


@dataclass(frozen=True)
class RobinRow:
    n: int
    sigma: int
    sigma_ratio: float
    bound_ratio: float
    delta: float
    violates: bool


@dataclass(frozen=True)
class ScanResult:
    violator_rows: list[RobinRow]
    top_rows: list[RobinRow]
    near_ties: list[int]

    @property
    def violators(self) -> list[int]:
        return [r.n for r in self.violator_rows]

    @property
    def max_delta_records(self) -> list[tuple[int, float]]:
        return [(r.n, r.delta) for r in self.top_rows]


def top_k_indices(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest values, largest first, ties by smaller index.

    The same indices as np.argsort(-values, kind="stable")[:k], but only the
    values at or above the k-th largest get sorted.
    """
    size = values.size
    k = min(k, size)
    if k <= 0:
        return np.empty(0, dtype=np.intp)
    kth = np.partition(values, size - k)[size - k]
    picked = np.flatnonzero(values >= kth)
    return picked[np.lexsort((picked, -values[picked]))][:k]


def _rank(r: RobinRow) -> tuple[float, int]:
    return (-r.delta, r.n)


def _scan_window(
    sig: np.ndarray, start: int, step: int, top_k: int
) -> tuple[list[RobinRow], list[RobinRow], list[int]]:
    """Violator rows, top rows and near ties of n = start + step * i, i < sig.size.

    sig[i] is sigma(start + step * i), int32 or int64. sig / n is one IEEE
    division of two exact values while sigma(n) < 2**53, so it is the
    correctly rounded quotient robin_check takes, and the columns come from
    the same bound_columns. Every element goes through the same numpy
    operations whatever the window or block, so rows do not depend on
    where their boundaries fall. scan_range hands it ROW_BLOCK values at a
    time.
    """
    # float64 n is exact below 2**53; the buffer then holds log n, sqrt(log n)
    work = np.arange(start, start + step * sig.size, step, dtype=np.float64)
    ratio = sig / work
    np.log(work, out=work)
    bound, delta, violates, near = bound_columns(work, ratio)
    del work  # top_k_indices partitions a copy of delta in its place
    viol_idx = np.flatnonzero(violates)
    near_idx = np.flatnonzero(near)
    del violates, near

    def row(i: int) -> RobinRow:
        return RobinRow(
            n=start + step * int(i),
            sigma=int(sig[i]),
            sigma_ratio=float(ratio[i]),
            bound_ratio=float(bound[i]),
            delta=float(delta[i]),
            violates=bool(ratio[i] > bound[i]),
        )

    violator_rows = [row(i) for i in viol_idx]
    top_rows = [row(i) for i in top_k_indices(delta, top_k)]
    return violator_rows, top_rows, [start + step * int(i) for i in near_idx]


def scan_range(
    lo: int,
    hi: int,
    *,
    odd_only: bool = False,
    table: SigmaTable | None = None,
    top_k: int = 10,
) -> ScanResult:
    """Scan [lo, hi] for bound violations using exact integer sigma.

    Works through windows of SCAN_WINDOW scanned values in ascending order.
    Each window takes sigma(n) from a view of `table` when one is given;
    otherwise the divisor-pair sweep sieves exactly the scanned n (only the
    odd ones under odd_only) into a buffer of sieve_dtype(hi), int32 up to
    hi of about 1.1e8 and int64 past it. The row math then runs over the
    window in blocks of ROW_BLOCK values, so its arrays stay in cache.
    Nothing else differs, and rows do not depend on where window or block
    boundaries fall. Peak memory is one window's sieve (its entries plus
    the half-width arange transient of d = 2) plus one block's
    SCAN_BYTES_PER_N per row, checked against the budget before anything
    is sieved, whatever hi is. n = 2 is skipped as the special
    log log n < 0 case; violators are ascending, top rows are the largest
    delta values, ties broken by smaller n.
    """
    if not 2 <= lo <= hi:
        raise ValueError(f"need 2 <= lo <= hi, got [{lo}, {hi}]")
    if table is not None and table.limit < hi:
        raise ValueError(f"sigma table covers {table.limit}, scan needs {hi}")
    start = max(lo, 3)
    if odd_only and start % 2 == 0:
        start += 1
    step = 2 if odd_only else 1
    count = max(0, (hi - start) // step + 1)
    window = min(SCAN_WINDOW, count)
    dtype = sieve_dtype(hi)
    sieve_bytes = 0 if table is not None else dtype.itemsize * (window + window // 2)
    require_capacity(sieve_bytes + SCAN_BYTES_PER_N * min(ROW_BLOCK, window),
                     f"scan transients and sigma for a window of {window} values in [{lo}, {hi}]")
    violator_rows: list[RobinRow] = []
    top_rows: list[RobinRow] = []
    near_ties: list[int] = []
    for first in range(start, start + step * count, step * SCAN_WINDOW):
        last = min(hi, first + step * (SCAN_WINDOW - 1))
        if table is None:
            sig = np.arange(first, last + 1, step, dtype=dtype)
            _divisor_pair_sweep(sig, first, step)
        else:
            sig = table.sigma[first : last + 1 : step]
        for b in range(0, sig.size, ROW_BLOCK):
            viol, top, near = _scan_window(sig[b : b + ROW_BLOCK], first + step * b, step, top_k)
            violator_rows += viol
            near_ties += near
            top_rows += top
            if len(top_rows) > 2 * top_k:  # keeps the merge linear in the rows seen
                top_rows = sorted(top_rows, key=_rank)[:top_k]
        del sig  # free this window's sieve before the next one is allocated
    top_rows = sorted(top_rows, key=_rank)[: max(top_k, 0)]
    if near_ties:
        log.warning("scan [%d, %d]: %d values within %g of the bound: %s",
                    lo, hi, len(near_ties), NEAR_TIE_BAND, near_ties[:20])
    return ScanResult(violator_rows, top_rows, near_ties)


# strengthened right-hand sides, all on the sigma(n)/n scale
VARIANT_SCALED = "scaled"  # log log of c*n
VARIANT_EXPANDED = "expanded"  # log log of c*n*exp(sqrt(log n) * exp(sqrt(log log n)))
VARIANT_ADDITIVE = "additive"  # additive c * exp(sqrt(log log n)) / sqrt(log n) term
BOUND_VARIANTS = (VARIANT_SCALED, VARIANT_EXPANDED, VARIANT_ADDITIVE)


def bound_rhs(variant: str, f: Factorization, c: float = 1.0) -> float:
    """Right-hand side of one of the strengthened divisor bounds.

    "scaled" needs n >= 2, the other two need n >= 3 so the inner log log n
    is positive. c >= 1 throughout.
    """
    if c < 1.0:
        raise ValueError(f"constant must be >= 1, got {c}")
    if f.is_unit:
        raise ValueError("bounds are defined for n >= 2")
    log_n = log_of(f.value())
    if variant == VARIANT_SCALED:
        return EXP_GAMMA * math.log(math.log(c) + log_n)
    if variant not in BOUND_VARIANTS:
        raise ValueError(f"unknown bound variant {variant!r}")
    if not _is_at_least_3(f):
        raise ValueError(f"variant {variant!r} needs n >= 3")
    loglog_n = math.log(log_n)
    if variant == VARIANT_EXPANDED:
        inner = math.log(c) + log_n + math.sqrt(log_n) * math.exp(math.sqrt(loglog_n))
        return EXP_GAMMA * math.log(inner)
    return EXP_GAMMA * loglog_n + c * math.exp(math.sqrt(loglog_n)) / math.sqrt(log_n)


@dataclass(frozen=True)
class ExtremalCandidate:
    """Exponent vector over the first m primes, non-increasing left to right."""

    factorization: Factorization
    exponent_cap: int | None = None

    def __post_init__(self) -> None:
        exps = [e for _, e in self.factorization.factors]
        if any(a < b for a, b in zip(exps, exps[1:])):
            raise ValueError(f"exponents must be non-increasing, got {exps}")
        if self.exponent_cap is not None and exps and exps[0] > self.exponent_cap:
            raise ValueError(f"exponent {exps[0]} above cap {self.exponent_cap}")


def extremal_candidates(
    m_max: int, budget: int, *, exponent_cap: int | None = None
) -> Iterator[ExtremalCandidate]:
    """Yield candidates in ascending log n order, at most `budget` of them.

    Non-increasing exponent vectors over consecutive first primes are exactly
    the shapes that can maximize sigma(n)/n for their size, so scans for
    extreme delta values only need these. Enumeration is a min-heap walk
    keyed on log_of(n), the log n their rows print, so printed log n never
    decreases; every successor multiplies n by one prime, so the heap order
    is global.
    """
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if budget == 0:
        return
    table = table_for_count(m_max)
    plist = [table.nth(i + 1) for i in range(m_max)]
    heap: list[tuple[float, tuple[int, ...]]] = []
    seen: set[tuple[int, ...]] = set()

    def push(exps: tuple[int, ...], n: int) -> None:
        if exps not in seen:
            seen.add(exps)
            heapq.heappush(heap, (log_of(n), exps))

    push((1,), plist[0])
    emitted = 0
    while heap and emitted < budget:
        _, exps = heapq.heappop(heap)
        fz = Factorization(tuple((plist[i], e) for i, e in enumerate(exps)))
        yield ExtremalCandidate(factorization=fz, exponent_cap=exponent_cap)
        emitted += 1
        n = fz.value()
        m = len(exps)
        for i in range(m):
            if (i == 0 or exps[i - 1] > exps[i]) and (exponent_cap is None or exps[i] < exponent_cap):
                push(exps[:i] + (exps[i] + 1,) + exps[i + 1 :], n * plist[i])
        if m < m_max:
            push(exps + (1,), n * plist[m])
