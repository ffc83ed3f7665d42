"""Divisor-sum bound checks on the ratio scale.

Everything compares sigma(n)/n against exp(gamma) * log log n rather than
sigma(n) against n * exp(gamma) * log log n, so huge n never overflow and a
factorization alone is enough to evaluate a candidate.
"""

from __future__ import annotations

import heapq
import logging
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .arithmetic import (
    SIGMA_BYTES_PER_N,
    Factorization,
    SigmaTable,
    log_n_of,
    sigma_ratio_of,
    sigma_sieve,  # noqa: F401  unused here, but bench/tracer.py wraps robin.sigma_sieve
    sigma_window,
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

# scanned values per scan_range window; a scan holds one window's arrays at
# a time, so its peak memory does not grow with hi
SCAN_WINDOW = 1 << 18

# peak transient bytes per scanned n of a window, as measured by
# tracemalloc: four float64 arrays (n -> log n -> sqrt(log n), sigma/n,
# bound, delta) plus two byte masks; the window's sigma (SIGMA_BYTES_PER_N
# per n it spans) comes on top
SCAN_BYTES_PER_N = 34


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


def robin_bound_ratio(log_n: float) -> float:
    """exp(gamma) * log log n given log n > 0."""
    if log_n <= 0:
        raise ValueError(f"needs log n > 0, got {log_n}")
    return EXP_GAMMA * math.log(log_n)


def _is_at_least_3(f: Factorization) -> bool:
    return bool(f.factors) and f.factors != ((2, 1),)


def robin_check(f: Factorization) -> RobinEvaluation:
    """Evaluate the divisor bound for n >= 2 given its factorization.

    n = 2 has log log n < 0, which makes the bound negative and the
    comparison trivially true; that case is flagged as special rather than
    treated as evidence. Exact ties count as non-violations.
    """
    if f.is_unit:
        raise ValueError("n = 1 has no log log n; nothing to check")
    log_n = log_n_of(f)
    loglog_n = math.log(log_n)
    sigma_ratio = sigma_ratio_of(f)
    bound = EXP_GAMMA * loglog_n
    special = SPECIAL_NORMAL if loglog_n > 0 else SPECIAL_LOGLOG_NONPOSITIVE
    delta = (sigma_ratio - bound) * math.sqrt(log_n)
    violates = sigma_ratio > bound
    if special == SPECIAL_NORMAL and abs(sigma_ratio - bound) < NEAR_TIE_BAND:
        log.warning("near tie at n with log_n=%.17g: |ratio-bound|=%.3e", log_n, abs(sigma_ratio - bound))
    return RobinEvaluation(
        log_n=log_n,
        loglog_n=loglog_n,
        sigma_ratio=sigma_ratio,
        robin_rhs_ratio=bound,
        delta=delta,
        violates=violates,
        special=special,
    )


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

    sig[i] is sigma(start + step * i). Every element goes through the same
    numpy operations whatever the window, so rows do not depend on where
    window boundaries fall.
    """
    # float64 n is exact below 2**53; the buffer then holds log n, sqrt(log n)
    work = np.arange(start, start + step * sig.size, step, dtype=np.float64)
    ratio = sig / work
    np.log(work, out=work)
    bound = np.log(work)
    bound *= EXP_GAMMA
    delta = ratio - bound
    viol_idx = np.flatnonzero(ratio > bound)
    near = delta < NEAR_TIE_BAND
    near &= delta > -NEAR_TIE_BAND
    near_idx = np.flatnonzero(near)
    del near
    delta *= np.sqrt(work, out=work)
    del work  # top_k_indices partitions a copy of delta in its place

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
    Each window takes sigma(n) from a view of `table` when one is given and
    from sigma_window otherwise; nothing else differs. Peak memory is one
    window's: SCAN_BYTES_PER_N per scanned n in transients plus
    SIGMA_BYTES_PER_N per n the window spans, checked against the budget
    before anything is sieved, whatever hi is. n = 2 is skipped as the
    special log log n < 0 case; violators are ascending, top rows are the
    largest delta values, ties broken by smaller n.
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
    require_capacity((SCAN_BYTES_PER_N + SIGMA_BYTES_PER_N * step) * window,
                     f"scan transients and sigma for a window of {window} values in [{lo}, {hi}]")
    violator_rows: list[RobinRow] = []
    top_rows: list[RobinRow] = []
    near_ties: list[int] = []
    for first in range(start, start + step * count, step * SCAN_WINDOW):
        last = min(hi, first + step * (SCAN_WINDOW - 1))
        if table is None:
            sig = sigma_window(first, last + 1)[::step]
        else:
            sig = table.sigma[first : last + 1 : step]
        viol, top, near = _scan_window(sig, first, step, top_k)
        violator_rows += viol
        near_ties += near
        top_rows += top
        if len(top_rows) > 2 * top_k:  # keeps the merge linear in the rows seen
            top_rows = sorted(top_rows, key=_rank)[:top_k]
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
    log_n = log_n_of(f)
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
    extreme delta values only need these. Enumeration is a min-heap walk on
    log n; every successor adds one exponent, so the heap order is global.
    """
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if budget == 0:
        return
    table = table_for_count(m_max)
    plist = [table.nth(i + 1) for i in range(m_max)]
    logs = [math.log(p) for p in plist]

    def log_n(exps: tuple[int, ...]) -> float:
        return math.fsum(e * lg for e, lg in zip(exps, logs))

    start = (1,)
    heap: list[tuple[float, tuple[int, ...]]] = [(logs[0], start)]
    seen = {start}
    emitted = 0
    while heap and emitted < budget:
        _, exps = heapq.heappop(heap)
        fz = Factorization(tuple((plist[i], e) for i, e in enumerate(exps)))
        yield ExtremalCandidate(factorization=fz, exponent_cap=exponent_cap)
        emitted += 1
        m = len(exps)
        for i in range(m):
            if (i == 0 or exps[i - 1] > exps[i]) and (exponent_cap is None or exps[i] < exponent_cap):
                nxt = exps[:i] + (exps[i] + 1,) + exps[i + 1 :]
                if nxt not in seen:
                    seen.add(nxt)
                    heapq.heappush(heap, (log_n(nxt), nxt))
        if m < m_max:
            nxt = exps + (1,)
            if nxt not in seen:
                seen.add(nxt)
                heapq.heappush(heap, (log_n(nxt), nxt))
