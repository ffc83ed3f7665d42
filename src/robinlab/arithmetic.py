"""Exact factorization and sum-of-divisors arithmetic below 2**64.

Factorization runs trial division by primes under 1000, then a deterministic
Miller-Rabin primality test and Brent-cycle Pollard rho for what remains;
factorize_all splits a batch's rho work across the CPUs the process may use.
All sigma values are exact integers. Factorization.divisor_sum has no size
limit; everywhere else, anything that would leave 64 bits is a
CapacityError rather than a silently wrong number.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CapacityError, require_capacity
from .primes import _small_primes

U64_LIMIT = 1 << 64
# bytes per entry of an int64 sigma table or window
SIGMA_BYTES_PER_N = 8
_TRIAL_PRIMES = tuple(int(p) for p in _small_primes(999))
# witness set proven sufficient for every n < 3.3e24, far past 2**64
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# float nearest the Euler-Mascheroni constant, and exp of exactly that float
EULER_GAMMA = 0.5772156649015329
EXP_GAMMA = math.exp(EULER_GAMMA)
# sigma(n)/n < exp(gamma) log log n + ROBIN_1984_C / log log n for n >= 3
# (Robin 1984: equality at n = 12 with 0.6482...)
ROBIN_1984_C = 0.6483


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

    @classmethod
    def _unchecked(cls, factors: tuple[tuple[int, int], ...]) -> Factorization:
        """A Factorization whose producer built it valid, without the checks."""
        f = object.__new__(cls)
        object.__setattr__(f, "factors", factors)
        return f

    @property
    def is_unit(self) -> bool:
        return not self.factors

    def value(self) -> int:
        """Exact represented integer; can be astronomically large."""
        out = 1
        for q, e in self.factors:
            out *= q**e
        return out

    def divisor_sum(self) -> int:
        """Exact sigma of the represented integer, at any size."""
        out = 1
        for q, e in self.factors:
            out *= (q ** (e + 1) - 1) // (q - 1)
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


def _cofactor_primes(v: int) -> list[int]:
    """Prime factors of 1 < v < 2**64, with multiplicity: rho until every part is prime."""
    stack, out = [v], []
    while stack:
        v = stack.pop()
        if is_prime(v):
            out.append(v)
        else:
            d = _rho_split(v)
            stack += (d, v // d)
    return out


def _split_cofactors(cofactors: list[int]) -> list[list[int]]:
    """_cofactor_primes of each cofactor, in input order.

    With at least two cofactors, two CPUs in this process's affinity mask and
    fork, a pool of one worker per CPU (at most one per cofactor) takes them
    largest first, one at a time; otherwise they run here. Workers are forked
    because they then start in milliseconds from this process's modules,
    where spawn would re-import numpy in each; they run integer arithmetic
    only and allocate nothing large, and all of them are joined on return,
    also when one raises.
    """
    can_fork = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    workers = min(len(cofactors), len(os.sched_getaffinity(0))) if can_fork else 1
    if workers < 2:
        return [_cofactor_primes(v) for v in cofactors]
    import multiprocessing  # here, not at module load: its import costs every CLI start ~10 ms

    order = sorted(range(len(cofactors)), key=cofactors.__getitem__, reverse=True)
    with multiprocessing.get_context("fork").Pool(workers) as pool:
        found = pool.map(_cofactor_primes, [cofactors[i] for i in order], chunksize=1)
    return [primes for _, primes in sorted(zip(order, found))]


def factorize_all(ns: Sequence[int]) -> list[Factorization]:
    """Full prime factorization of each 1 <= n < 2**64, in input order.

    Every n is checked before any work starts. Trial division by the primes
    under 1000 and the primality test of what remains run here; the
    composite cofactors left, the Pollard rho work, go to _split_cofactors.
    The result does not depend on how many workers ran.
    """
    for n in ns:
        if not 1 <= n < U64_LIMIT:
            raise ValueError(f"factorize needs 1 <= n < 2**64, got {n}")
    all_counts: list[dict[int, int]] = []
    composite: dict[int, int] = {}  # index in ns -> cofactor that needs rho
    for i, n in enumerate(ns):
        counts: dict[int, int] = {}
        rest = n
        for p in _TRIAL_PRIMES:
            if p * p > rest:
                break
            while rest % p == 0:
                counts[p] = counts.get(p, 0) + 1
                rest //= p
        if rest > 1:
            if is_prime(rest):
                counts[rest] = 1
            else:
                composite[i] = rest
        all_counts.append(counts)
    for i, primes in zip(composite, _split_cofactors(list(composite.values()))):
        counts = all_counts[i]
        for q in primes:
            counts[q] = counts.get(q, 0) + 1
    return [Factorization(tuple(sorted(counts.items()))) for counts in all_counts]


def factorize(n: int) -> Factorization:
    """Full prime factorization of 1 <= n < 2**64: factorize_all([n])[0]."""
    return factorize_all([n])[0]


def sigma_of(f: Factorization) -> int:
    """Exact sum of divisors of the represented n.

    Both n and sigma(n) must stay below 2**64; otherwise CapacityError.
    Factorization.divisor_sum has no such limit.
    """
    if f.value() >= U64_LIMIT:
        raise CapacityError("represented n leaves 64 bits")
    total = f.divisor_sum()
    if total >= U64_LIMIT:
        raise CapacityError("sigma(n) leaves 64 bits")
    return total


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


def sieve_dtype(n_max: int) -> np.dtype:
    """Narrowest sieve buffer dtype, int32 or int64, for every n <= n_max.

    By Robin's unconditional bound sigma(n) < n * g(n) with g(n) = exp(gamma)
    log log n + ROBIN_1984_C / log log n for n >= 3, and n * g(n) increases
    from n = 7 on, where it already exceeds every sigma(n) + sqrt(n) of
    n < 7. The pair sweep only adds positive terms, so before its square
    fix-up an entry stays at or below sigma(n) + sqrt(n), and n_max *
    g(n_max) + isqrt(n_max) bounds every running sum: int32 up to n_max =
    388129549, int64 up to about 1.35e18, and past that a CapacityError,
    not a silent wrap.
    """
    if n_max < 7:
        return np.dtype(np.int32)
    loglog = math.log(math.log(n_max))
    bound = n_max * (EXP_GAMMA * loglog + ROBIN_1984_C / loglog) + math.isqrt(n_max)
    if bound < 2**31:
        return np.dtype(np.int32)
    if bound < 2**63:
        return np.dtype(np.int64)
    raise CapacityError(f"sigma sieve up to {n_max} could leave int64 (running sums up to {bound:.3g})")


def _divisor_pair_sweep(sigma: np.ndarray, lo: int, step: int = 1) -> None:
    """Turn sigma[i] = lo + step*i into sigma(lo + step*i) in place, for lo >= 1.

    step is 1, or 2 for a buffer of odd n from an odd lo: odd n have only
    odd divisors, so then only odd d and odd cofactors are walked. Every
    divisor pair (d, n/d) with d <= sqrt(n) is added once: d = 1 by one add
    over the buffer, and each d up to isqrt(last n) as a strided slice from
    its first cofactor k >= max(d, lo/d) of the right parity. Each n of a
    slice is d*k, the next one d*(k + step), step*d values on. The
    transients take their dtype from sigma, whose range the caller checks
    with sieve_dtype.
    """
    if sigma.size == 0:
        return
    if step == 2 and lo % 2 == 0:
        raise ValueError(f"an odd-n sweep needs an odd lo, got {lo}")
    last = lo + step * (sigma.size - 1)
    sigma += 1  # pairs (1, n)
    root = math.isqrt(last)
    for d in range(1 + step, root + 1, step):
        k = max(d, -(-lo // d))
        k += (k + 1) % step  # the first odd cofactor when step is 2
        if d * k <= last:
            # pairs (d, k), (d, k + step), ... up to k <= last // d land on n = d*k, ...
            sigma[(d * k - lo) // step :: d] += np.arange(d + k, d + last // d + 1, step, dtype=sigma.dtype)
    # squares counted their root twice in the pair sweep above
    first_root = math.isqrt(lo - 1) + 1
    first_root += (first_root + 1) % step
    roots = np.arange(first_root, root + 1, step, dtype=sigma.dtype)
    sigma[(roots * roots - lo) // step] -= roots


def sigma_window(lo: int, hi: int) -> np.ndarray:
    """Exact int64 sigma(n) for every n in [lo, hi), 1 <= lo <= hi.

    Costs 8 bytes per entry plus one transient of at most 4 bytes per
    entry (the d = 2 slice's arange), whatever lo is, so windows near 1e9
    need no more memory than windows near 1. Time has one Python step per
    d up to isqrt(hi - 1), which dominates narrow windows far from 1. A
    window whose sums could leave int64 (hi past about 1.35e18) raises
    CapacityError before anything is sieved. The caller budgets the
    result; sigma_sieve does.
    """
    if not 1 <= lo <= hi:
        raise ValueError(f"need 1 <= lo <= hi, got [{lo}, {hi})")
    sieve_dtype(hi - 1)  # the domain check; the result stays int64 either way
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
    sieve_dtype(limit)  # the domain check; the table stays int64
    require_capacity(SIGMA_BYTES_PER_N * (limit + 1), f"divisor-sum table up to {limit}")
    sigma = np.arange(limit + 1, dtype=np.int64)  # sigma[0] stays 0
    _divisor_pair_sweep(sigma[1:], 1)
    return SigmaTable(limit=limit, sigma=sigma)
