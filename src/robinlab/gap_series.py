"""The prime-gap series, its running supremum, and the theta inequality.

The series term for consecutive primes (p, p_next) is

    (log p - (p_next - p)) / (sqrt(p) * log(p)**2)

summed in ascending order under compensation. Its partial sums supply the
constants for the pointwise bound theta(p) <= p + c * sqrt(p) * log(p)**2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .primes import DEFAULT_SEGMENT_ODDS, ROW_BLOCK, PrimeTable, _segments, primes_up_to, table_for_count
from .summation import PrefixCarry, prefix_sums

DEFAULT_CHECKPOINT_EVERY = 100_000
# bytes per prime that one streamed segment holds at its peak, from
# tracemalloc: the segment, the carried prefix's 24 and one work array
SEGMENT_BYTES_PER_PRIME = 32


def gap_terms(primes: np.ndarray) -> np.ndarray:
    """Series terms for each consecutive pair of an ascending prime array."""
    p = primes[:-1]
    lp = np.log(p)
    return (lp - np.diff(primes)) / (np.sqrt(p) * lp * lp)


def gap_term(p: int, p_next: int) -> float:
    """Series term for the consecutive prime pair (p, p_next)."""
    if p < 2 or p_next <= p:
        raise ValueError(f"need a consecutive prime pair, got ({p}, {p_next})")
    return float(gap_terms(np.array([p, p_next], dtype=np.int64))[0])


@dataclass(frozen=True)
class GapSeriesState:
    """Final accumulator state after n terms ending at p_n."""

    n: int
    p_n: int
    partial_sum: float
    compensation: float  # partial_sum minus the plain running sum
    running_sup: float
    sup_at: int


def series_scan(
    limit: int,
    *,
    checkpoint_every: int | None = None,
    on_rows: Callable[[list[np.ndarray]], None] | None = None,
    segment_size: int = DEFAULT_SEGMENT_ODDS,
) -> GapSeriesState:
    """Sum the series over consecutive prime pairs drawn from primes <= limit.

    Term n uses the pair (p_n, p_{n+1}), so the last term is the one whose
    upper prime still fits under the limit. Accumulation is ascending with
    compensation; reruns are bit-identical. Running_sup is the largest
    partial sum seen so far and sup_at the first index achieving it. Given
    on_rows, every `checkpoint_every`-th term and always the final one go to
    it as the columns n, p_n, gap, term, partial_sum and running_sup, in
    calls of at most ROW_BLOCK rows.

    The primes are sieved one segment at a time, and only running state
    outlives a segment: the prefix carry, the sup and one look-ahead prime.
    Memory does not grow with the limit.
    """
    if limit < 3:
        raise ValueError(f"limit must be >= 3 for at least one pair, got {limit}")
    every = DEFAULT_CHECKPOINT_EVERY if checkpoint_every is None else checkpoint_every
    carry = PrefixCarry()
    sup, sup_at = -math.inf, 0
    pairs = np.empty(0, dtype=np.int64)
    # term n belongs to its upper prime, prime n + 1: skip=1 counts terms
    for seg, done, rows in _segments(every, limit=limit, skip=1, segment_size=segment_size,
                                     bytes_per_prime=SEGMENT_BYTES_PER_PRIME):
        # the previous segment's last prime opens this segment's first pair
        pairs = np.concatenate((pairs[-1:], seg))
        size = seg.size
        del seg
        if pairs.size < 2:  # prime 2, alone in the first segment: no term, so no row
            continue
        terms = gap_terms(pairs)
        sums = prefix_sums(terms, carry)
        first = done + size - terms.size  # the number of terms[0]
        if on_rows is not None and rows.size:
            sups = np.maximum.accumulate(sums)
            np.maximum(sups, sup, out=sups)
            for lo in range(0, rows.size, ROW_BLOCK):
                ns = done + rows[lo : lo + ROW_BLOCK]
                at = ns - first  # the terms whose upper primes sit at these rows of the segment
                on_rows([ns, pairs[at], pairs[at + 1] - pairs[at], terms[at], sums[at], sups[at]])
            del sups
        top = int(np.argmax(sums))
        if sums[top] > sup:
            sup, sup_at = float(sums[top]), first + top
        n, p_n, partial_sum = first + terms.size - 1, int(pairs[-2]), float(sums[-1])
        del terms, sums
    return GapSeriesState(n=n, p_n=p_n, partial_sum=partial_sum, compensation=partial_sum - carry.plain,
                          running_sup=sup, sup_at=sup_at)


def equivalence_check(
    indices: Iterable[int],
    *,
    table: PrimeTable | None = None,
    rel_tol: float = 1e-12,
) -> bool:
    """Verify both algebraic forms of the term agree at the given indices.

    Form one is (1 - gap/log p) / (sqrt(p) log p), form two the production
    (log p - gap) / (sqrt(p) log(p)**2). Disagreement is measured against
    the term magnitude floored at 1/(sqrt(p) log(p)**2): when log p lands
    within float noise of the gap both forms cancel and a ratio against the
    tiny result itself would be meaningless.
    """
    idx = sorted(set(int(i) for i in indices))
    if not idx:
        return True
    if idx[0] < 1:
        raise ValueError(f"indices must be >= 1, got {idx[0]}")
    if table is None or table.count < idx[-1] + 1:
        table = table_for_count(idx[-1] + 1)
    terms = gap_terms(table.primes[: idx[-1] + 1])
    for n in idx:
        p = table.nth(n)
        gap = table.gap(n)
        lp = math.log(p)
        sq = math.sqrt(p)
        a = (1.0 - gap / lp) / (sq * lp)
        b = float(terms[n - 1])
        scale = max(abs(a), abs(b), 1.0 / (sq * lp * lp))
        if abs(a - b) > rel_tol * scale:
            return False
    return True


def theta_bound_constants(limit: int, *, table: PrimeTable | None = None) -> list[tuple[int, float]]:
    """Constants c_n with c_{n+1} = c_n + term(n), as (index, value) pairs.

    The step recursion (plain accumulation) and the closed form (compensated
    partial sum of the series) are both computed; they must agree within
    1e-10 at every step, otherwise ArithmeticError. The returned values are
    the closed-form ones, starting at index 2 since c_2 equals the first
    term.
    """
    if limit < 3:
        raise ValueError(f"limit must be >= 3, got {limit}")
    if table is None:
        table = primes_up_to(limit)
    idx = table.pi(limit)
    if idx < 2:
        raise ValueError(f"no prime pair below {limit}")
    terms = gap_terms(table.primes[:idx])
    closed = prefix_sums(terms)
    drift = np.cumsum(terms) - closed
    bad = np.flatnonzero(np.abs(drift) > 1e-10)
    if bad.size:
        i = int(bad[0])
        raise ArithmeticError(
            f"step recursion drifted {drift[i]:.3e} from the closed form at n={i + 1}"
        )
    return list(zip(range(2, idx + 1), closed.tolist()))


@dataclass(frozen=True)
class ThetaCheckResult:
    limit: int
    c0: float
    all_satisfied: bool
    max_c_needed: float
    max_c_needed_at: int
    first_failure: int | None
    checked: int


def theta_inequality_check(
    limit: int,
    c0: float,
    *,
    checkpoint_every: int | None = None,
    on_rows: Callable[[list[np.ndarray]], None] | None = None,
    segment_size: int = DEFAULT_SEGMENT_ODDS,
) -> ThetaCheckResult:
    """Check theta(p) <= p + c0 * sqrt(p) * log(p)**2 at every prime p <= limit.

    c_needed is the smallest constant that would make the bound tight at p;
    a prime satisfies the bound exactly when c_needed <= c0. Given on_rows,
    the primes at the checkpoint cadence, the first failure if one occurs
    and always the last prime go to it, ascending, as the columns p_n,
    theta, c_needed and satisfied, in calls of at most ROW_BLOCK rows. The
    primes are sieved one segment at a time, and only running state outlives
    a segment: the theta carry, the largest c_needed and the first failure.
    """
    if limit < 2:
        raise ValueError(f"limit must be >= 2 so there is a prime to check, got {limit}")
    every = DEFAULT_CHECKPOINT_EVERY if checkpoint_every is None else checkpoint_every
    carry = PrefixCarry()
    top_c, top_at, first_failure = -math.inf, 0, None
    for primes, done, at in _segments(every, limit=limit, segment_size=segment_size,
                                      bytes_per_prime=SEGMENT_BYTES_PER_PRIME):
        lp = np.log(primes)
        theta = prefix_sums(lp, carry)
        # (theta - p) / (sqrt(p) * lp * lp), in place to hold one array fewer
        scale = np.sqrt(primes)
        scale *= lp
        scale *= lp
        del lp
        c_needed = theta - primes
        c_needed /= scale
        del scale
        satisfied = c_needed <= c0
        if first_failure is None and not satisfied.all():
            i = int(np.argmin(satisfied))
            first_failure = int(primes[i])
            if i not in at:  # at cadence 1 it always is, and union1d would copy and sort all rows
                at = np.sort(np.append(at, i))
        if on_rows is not None:
            for lo in range(0, at.size, ROW_BLOCK):
                rows = at[lo : lo + ROW_BLOCK]
                on_rows([primes[rows], theta[rows], c_needed[rows], satisfied[rows]])
        top = int(np.argmax(c_needed))
        if c_needed[top] > top_c:
            top_c, top_at = float(c_needed[top]), int(primes[top])
        checked = done + primes.size
        del theta, c_needed, satisfied
    return ThetaCheckResult(
        limit=limit,
        c0=c0,
        all_satisfied=first_failure is None,
        max_c_needed=top_c,
        max_c_needed_at=top_at,
        first_failure=first_failure,
        checked=checked,
    )
