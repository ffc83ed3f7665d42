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

from .primes import DEFAULT_SEGMENT_ODDS, PrimeTable, primes_through, primes_up_to, table_for_count
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


@dataclass(frozen=True)
class GapCheckpoint:
    n: int
    p_n: int
    gap: int
    term: float
    partial_sum: float
    running_sup: float


def series_scan(
    limit: int,
    *,
    checkpoint_every: int | None = None,
    on_checkpoint: Callable[[GapCheckpoint], None] | None = None,
    table: PrimeTable | None = None,
    segment_size: int = DEFAULT_SEGMENT_ODDS,
) -> GapSeriesState:
    """Sum the series over consecutive prime pairs drawn from primes <= limit.

    Term n uses the pair (p_n, p_{n+1}), so the last term is the one whose
    upper prime still fits under the limit. Accumulation is ascending with
    compensation; reruns are bit-identical. When a checkpoint callback is
    given it fires every `checkpoint_every` terms and always on the final
    term. Running_sup is the largest partial sum seen so far and sup_at the
    first index achieving it.

    Without a table the primes are sieved one segment at a time, and only
    running state outlives a segment: the prefix carry, the sup and one
    look-ahead prime. Memory does not grow with the limit.
    """
    if limit < 3:
        raise ValueError(f"limit must be >= 3 for at least one pair, got {limit}")
    if checkpoint_every is not None and checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
    every = checkpoint_every or DEFAULT_CHECKPOINT_EVERY
    carry = PrefixCarry()
    n, sup, sup_at, last = 0, -math.inf, 0, None
    pairs = np.empty(0, dtype=np.int64)
    for seg in primes_through(limit, table=table, segment_size=segment_size,
                              bytes_per_prime=SEGMENT_BYTES_PER_PRIME):
        # the previous segment's last prime opens this segment's first pair
        pairs = np.concatenate((pairs[-1:], seg))
        del seg
        if pairs.size < 2:
            continue
        terms = gap_terms(pairs)
        sums = prefix_sums(terms, carry)
        if on_checkpoint is not None:
            sups = np.maximum(np.maximum.accumulate(sums), sup)
            for i in range(every - 1 - n % every, terms.size, every):
                on_checkpoint(GapCheckpoint(n=n + i + 1, p_n=int(pairs[i]), gap=int(pairs[i + 1] - pairs[i]),
                                            term=float(terms[i]), partial_sum=float(sums[i]),
                                            running_sup=float(sups[i])))
            del sups
        top = int(np.argmax(sums))
        if sums[top] > sup:
            sup, sup_at = float(sums[top]), n + top + 1
        n += terms.size
        last = GapCheckpoint(n=n, p_n=int(pairs[-2]), gap=int(pairs[-1] - pairs[-2]), term=float(terms[-1]),
                             partial_sum=float(sums[-1]), running_sup=sup)
        del terms, sums
    if last is None:
        raise ValueError(f"no prime pair below {limit}")
    if on_checkpoint is not None and n % every:
        on_checkpoint(last)
    return GapSeriesState(n=n, p_n=last.p_n, partial_sum=last.partial_sum,
                          compensation=last.partial_sum - carry.plain,
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
class ThetaCheckRecord:
    p_n: int
    theta: float
    c_needed: float
    satisfied: bool


@dataclass(frozen=True)
class ThetaCheckResult:
    limit: int
    c0: float
    records: list[ThetaCheckRecord]
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
    table: PrimeTable | None = None,
    segment_size: int = DEFAULT_SEGMENT_ODDS,
) -> ThetaCheckResult:
    """Check theta(p) <= p + c0 * sqrt(p) * log(p)**2 at every prime p <= limit.

    c_needed is the smallest constant that would make the bound tight at p;
    a prime satisfies the bound exactly when c_needed <= c0. Records are
    kept at the checkpoint cadence, always for the last prime, and always
    for the first failure if one occurs. Without a table the primes are
    sieved one segment at a time, and besides the records only running
    state outlives a segment: the theta carry, the largest c_needed and the
    first failure.
    """
    if limit < 2:
        raise ValueError(f"limit must be >= 2 so there is a prime to check, got {limit}")
    if checkpoint_every is not None and checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
    every = checkpoint_every or DEFAULT_CHECKPOINT_EVERY
    carry = PrefixCarry()
    checked, top_c, top_at, first_failure = 0, -math.inf, 0, None
    records: list[ThetaCheckRecord] = []
    for primes in primes_through(limit, table=table, segment_size=segment_size,
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
        keep = set(range(every - 1 - checked % every, primes.size, every))
        if first_failure is None and not satisfied.all():
            i = int(np.argmin(satisfied))
            first_failure = int(primes[i])
            keep.add(i)

        def record(i: int) -> ThetaCheckRecord:
            return ThetaCheckRecord(p_n=int(primes[i]), theta=float(theta[i]),
                                    c_needed=float(c_needed[i]), satisfied=bool(satisfied[i]))

        records += map(record, sorted(keep))
        last = record(primes.size - 1)
        top = int(np.argmax(c_needed))
        if c_needed[top] > top_c:
            top_c, top_at = float(c_needed[top]), int(primes[top])
        checked += primes.size
        del theta, c_needed, satisfied
    if not records or records[-1].p_n != last.p_n:
        records.append(last)
    return ThetaCheckResult(
        limit=limit,
        c0=c0,
        records=records,
        all_satisfied=first_failure is None,
        max_c_needed=top_c,
        max_c_needed_at=top_at,
        first_failure=first_failure,
        checked=checked,
    )
