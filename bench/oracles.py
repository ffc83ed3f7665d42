"""Independent checks of the CLI's stdout, one checker per command.

Nothing here imports robinlab. Primes come from a local numpy sieve, sums
from math.fsum, sigma from sympy or, for inputs built from known primes,
from those primes. Integer and boolean columns must match
exactly; floats within REL_TOL relative. Where a column is a difference of
two nearly equal quantities (delta, c_needed) the tolerance is REL_TOL of the
operands' magnitude, the error the inputs' own tolerance already allows.
A boolean decided by a margin inside that tolerance is checked against the
program's own float columns instead, since no oracle can decide it.

A checker takes the command's stdout text and returns a list of problems;
an empty list means the output is correct.
"""

from __future__ import annotations

import math

import numpy as np
import sympy

REL_TOL = 1e-12
EULER_GAMMA = 0.5772156649015329
EXP_GAMMA = math.exp(EULER_GAMMA)
# OEIS A067698 from n = 3: every n whose sigma(n) reaches exp(gamma) n log log n
A067698_FROM_3 = [3, 4, 5, 6, 8, 9, 10, 12, 16, 18, 20, 24, 30, 36, 48, 60, 72, 84,
                  120, 180, 240, 360, 720, 840, 2520, 5040]
PAPER45_SUM = -1.4148587017655956
SCAN_TOP_K = 10  # scan_range's default top_k, which robin-scan uses
HEADERS = {
    "robin-scan": "n,sigma,sigma_ratio,bound_ratio,delta,violates",
    "robin-eval": "n,sigma,sigma_ratio,bound_ratio,delta,violates",
    "robin-extremal": "log_n,exponents,sigma_ratio,bound_ratio,delta,violates,special",
    "gap-series": "n,p_n,gap,term,partial_sum,running_sup",
    "theta-check": "p_n,theta,c_needed,satisfied",
    "condition7": "m,p_m,k,lhs_log,rhs_log,holds",
}


class Problems(list):
    def close(self, what: str, got: float, want: float, scale: float = 0.0) -> None:
        if not abs(got - want) <= REL_TOL * max(abs(want), scale):
            self.append(f"{what}: got {got!r}, want {want!r}")

    def equal(self, what: str, got, want) -> None:
        if got != want:
            self.append(f"{what}: got {got!r}, want {want!r}")

    def verdict(self, what: str, got: bool, lhs: float, rhs: float, own_lhs: float, own_rhs: float) -> None:
        """got must be lhs > rhs; near ties fall back to the program's own sides."""
        if abs(lhs - rhs) > 2 * REL_TOL * max(abs(lhs), abs(rhs)):
            self.equal(what, got, lhs > rhs)
        else:
            self.equal(what + " (near tie)", got, own_lhs > own_rhs)


def primes_upto(limit: int) -> np.ndarray:
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    mask[4::2] = False
    for p in range(3, math.isqrt(limit) + 1, 2):
        if mask[p]:
            mask[p * p :: 2 * p] = False
    return np.flatnonzero(mask)


def _rows(text: str, command: str, problems: Problems) -> list[list[str]]:
    lines = text.splitlines()
    if not lines or lines[0] != HEADERS[command]:
        problems.append(f"{command}: bad header {lines[:1]!r}")
        return []
    width = HEADERS[command].count(",") + 1
    rows = [line.split(",") for line in lines[1:]]
    if any(len(r) != width for r in rows):
        problems.append(f"{command}: a row does not have {width} fields")
        return []
    return rows


def _bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"not a boolean: {text!r}")
    return text == "true"


def _check_divisor_row(p: Problems, row: list[str], sigma_of) -> None:
    n, sigma = int(row[0]), int(row[1])
    ratio, bound, delta, violates = float(row[2]), float(row[3]), float(row[4]), _bool(row[5])
    want_sigma = sigma_of(n)
    p.equal(f"n={n} sigma", sigma, want_sigma)
    want_ratio = want_sigma / n  # int true division is correctly rounded
    log_n = math.log(n)
    want_bound = EXP_GAMMA * math.log(log_n)
    p.close(f"n={n} sigma_ratio", ratio, want_ratio)
    p.close(f"n={n} bound_ratio", bound, want_bound)
    p.close(f"n={n} delta", delta, (want_ratio - want_bound) * math.sqrt(log_n),
            (abs(want_ratio) + abs(want_bound)) * math.sqrt(log_n))
    p.verdict(f"n={n} violates", violates, want_ratio, want_bound, ratio, bound)


def _delta(n: int, sigma: int) -> float:
    log_n = math.log(n)
    return (sigma / n - EXP_GAMMA * math.log(log_n)) * math.sqrt(log_n)


def robin_scan_checker(hi: int):
    """robin-scan --lo 3 --hi hi: the A067698 violators, then the SCAN_TOP_K largest delta.

    Only a violator has delta > 0, so when the SCAN_TOP_K-th largest delta
    among the violators is positive, the top rows are those violators,
    ordered by delta and then n.
    """
    cache: dict[int, int] = {}

    def sigma_of(n: int) -> int:
        if n not in cache:
            cache[n] = int(sympy.divisor_sigma(n))
        return cache[n]

    ranked = sorted((-_delta(n, sigma_of(n)), n) for n in A067698_FROM_3)[:SCAN_TOP_K]
    if ranked[-1][0] >= 0:
        raise ValueError(f"fewer than {SCAN_TOP_K} violators with delta > 0")
    want_top = [n for _, n in ranked]

    def check(text: str) -> list[str]:
        p = Problems()
        rows = _rows(text, "robin-scan", p)
        if len(rows) != len(A067698_FROM_3) + SCAN_TOP_K:
            p.append(f"robin-scan: {len(rows)} rows, want {len(A067698_FROM_3) + SCAN_TOP_K}")
            return p
        violators, top = rows[:-SCAN_TOP_K], rows[-SCAN_TOP_K:]
        p.equal("violators", [int(r[0]) for r in violators], A067698_FROM_3)
        p.equal("top rows, by delta then n", [int(r[0]) for r in top], want_top)
        for row in rows:
            if not 3 <= int(row[0]) <= hi:
                p.append(f"n={row[0]} outside the scanned range")
                continue
            _check_divisor_row(p, row, sigma_of)
        return p

    return check


def robin_eval_checker(ns: list[int], known: dict[int, int]):
    """robin-eval ns: one row per n, in order.

    sigma is taken from `known` (semiprimes built from their two primes) or
    from sympy, computed once here.
    """
    sigma = {n: known[n] if n in known else int(sympy.divisor_sigma(n)) for n in set(ns)}

    def check(text: str) -> list[str]:
        p = Problems()
        rows = _rows(text, "robin-eval", p)
        p.equal("robin-eval n column", [int(r[0]) for r in rows], ns)
        if not p:
            for row in rows:
                _check_divisor_row(p, row, sigma.__getitem__)
        return p

    return check


def robin_extremal_checker(m_max: int, budget: int):
    """robin-extremal: budget distinct non-increasing exponent vectors over the
    first m_max primes, in ascending log n, closed under taking a smaller one."""
    plist = primes_upto(20 * m_max + 20)[:m_max].tolist()  # p_m < 20 m for every m < 10^7
    logs = [math.log(q) for q in plist]
    # log of sigma(q^e)/q^e = log(1 - q^-(e+1)) - log(1 - 1/q)
    base = [math.log1p(-1.0 / q) for q in plist]

    def check(text: str) -> list[str]:
        p = Problems()
        rows = _rows(text, "robin-extremal", p)
        p.equal("robin-extremal rows", len(rows), budget)
        seen: set[tuple[int, ...]] = set()
        last_log_n = -math.inf
        for row in rows:
            exps = tuple(int(e) for e in row[1].split(" "))
            log_n, ratio, bound, delta = (float(v) for v in (row[0], row[2], row[3], row[4]))
            what = f"exponents {row[1]!r}"
            if not 1 <= len(exps) <= m_max or any(a < b for a, b in zip(exps, exps[1:])) or exps[-1] < 1:
                p.append(f"{what}: not a non-increasing vector over the first {m_max} primes")
                continue
            if exps in seen:
                p.append(f"{what}: emitted twice")
            seen.add(exps)
            if log_n < last_log_n:
                p.append(f"{what}: log_n {log_n!r} below the previous {last_log_n!r}")
            last_log_n = log_n
            want_log_n = math.fsum(e * lg for e, lg in zip(exps, logs))
            want_ratio = math.exp(math.fsum(
                math.log1p(-float(q) ** -(e + 1)) - b for q, e, b in zip(plist, exps, base)))
            loglog = math.log(want_log_n)
            want_bound = EXP_GAMMA * loglog
            p.close(f"{what} log_n", log_n, want_log_n)
            p.close(f"{what} sigma_ratio", ratio, want_ratio)
            p.close(f"{what} bound_ratio", bound, want_bound)
            p.close(f"{what} delta", delta, (want_ratio - want_bound) * math.sqrt(want_log_n),
                    (abs(want_ratio) + abs(want_bound)) * math.sqrt(want_log_n))
            p.verdict(f"{what} violates", _bool(row[5]), want_ratio, want_bound, ratio, bound)
            p.equal(f"{what} special", row[6], "normal" if loglog > 0 else "loglog_nonpositive")
        for exps in seen:
            smaller = [exps[:i] + (exps[i] - 1,) + exps[i + 1:] for i in range(len(exps))
                       if exps[i] > 1 and (i + 1 == len(exps) or exps[i + 1] < exps[i])]
            if exps[-1] == 1 and len(exps) > 1:
                smaller.append(exps[:-1])
            missing = [s for s in smaller if s not in seen]
            if missing:
                p.append(f"exponents {exps} emitted but smaller {missing[0]} missing")
                break
        return p

    return check


class PrimeSeries:
    """Shared oracle state for gap-series, theta-check and condition7 up to limit."""

    def __init__(self, limit: int, every: int) -> None:
        self.every = every
        self.primes = primes_upto(limit)
        pf = self.primes.astype(np.float64)
        lp = np.log(pf)
        self.plist = self.primes.tolist()
        self.logs = lp.tolist()
        gaps = np.diff(pf)
        self.terms = ((lp[:-1] - gaps) / (np.sqrt(pf[:-1]) * lp[:-1] ** 2)).tolist()
        # plain prefix sums only locate the first index attaining each running
        # maximum; the value reported for it comes from fsum
        prefix = np.cumsum(self.terms)
        record = prefix > np.concatenate(([-np.inf], np.maximum.accumulate(prefix)[:-1]))
        self._argmax = np.maximum.accumulate(np.where(record, np.arange(prefix.size), 0))
        self._cache: dict[tuple, float] = {}

    def partial(self, n: int) -> float:
        key = ("partial", n)
        if key not in self._cache:
            self._cache[key] = math.fsum(self.terms[:n])
        return self._cache[key]

    def running_sup(self, n: int) -> float:
        return self.partial(int(self._argmax[n - 1]) + 1)

    def theta(self, n: int) -> float:
        key = ("theta", n)
        if key not in self._cache:
            self._cache[key] = math.fsum(self.logs[:n])
        return self._cache[key]

    def euler(self, m: int, k: int | None) -> float:
        """fsum over the first m primes of -log1p(-1/p) (k None) or log1p(-p^-(k+1))."""
        key = ("euler", m, k)
        if key not in self._cache:
            if k is None:
                vals = -np.log1p(-1.0 / self.primes[:m])
            else:
                vals = np.log1p(-(self.primes[:m].astype(np.float64) ** -(k + 1)))
            self._cache[key] = math.fsum(vals.tolist())
        return self._cache[key]

    def checkpoints(self, count: int) -> list[int]:
        return [i for i in range(self.every, count + 1, self.every)] + ([count] if count % self.every else [])

    def gap_series(self, text: str) -> list[str]:
        p = Problems()
        rows = _rows(text, "gap-series", p)
        want_n = self.checkpoints(len(self.terms))
        p.equal("gap-series n column", [int(r[0]) for r in rows], want_n)
        if p:
            return p
        for row in rows:
            n, p_n, gap = int(row[0]), int(row[1]), int(row[2])
            term, partial, sup = float(row[3]), float(row[4]), float(row[5])
            p.equal(f"gap-series n={n} p_n", p_n, self.plist[n - 1])
            p.equal(f"gap-series n={n} gap", gap, self.plist[n] - self.plist[n - 1])
            lg = math.log(self.plist[n - 1])
            scale = math.sqrt(self.plist[n - 1]) * lg * lg
            p.close(f"gap-series n={n} term", term, (lg - gap) / scale, (lg + gap) / scale)
            p.close(f"gap-series n={n} partial_sum", partial, self.partial(n))
            p.close(f"gap-series n={n} running_sup", sup, self.running_sup(n))
        p.close("gap-series final partial_sum", float(rows[-1][4]), PAPER45_SUM)
        return p

    def theta_check(self, text: str) -> list[str]:
        """theta-check with c0 = the series running sup over the same primes."""
        p = Problems()
        rows = _rows(text, "theta-check", p)
        if p:
            return p
        c0 = self.running_sup(len(self.terms))
        count = len(self.plist)
        pf = self.primes.astype(np.float64)
        approx_c = (np.cumsum(np.log(pf)) - pf) / (np.sqrt(pf) * np.log(pf) ** 2)
        failing = np.flatnonzero(approx_c > c0)
        want_n = set(self.checkpoints(count))
        if failing.size:
            want_n.add(int(failing[0]) + 1)
        got_n = [int(np.searchsorted(self.primes, int(r[0]))) + 1 for r in rows]
        p.equal("theta-check rows at", got_n, sorted(want_n))
        if p:
            return p
        for n, row in zip(got_n, rows):
            prime = self.plist[n - 1]
            p.equal(f"theta-check n={n} p_n", int(row[0]), prime)
            theta, c_needed = float(row[1]), float(row[2])
            want_theta = self.theta(n)
            lg = math.log(prime)
            scale = math.sqrt(prime) * lg * lg
            want_c = (want_theta - prime) / scale
            p.close(f"theta-check n={n} theta", theta, want_theta)
            p.close(f"theta-check n={n} c_needed", c_needed, want_c, abs(want_theta) / scale)
            # satisfied means c_needed <= c0, i.e. not (c_needed > c0)
            p.verdict(f"theta-check n={n} not satisfied", not _bool(row[3]), want_c, c0, c_needed, c0)
        return p

    def condition7(self, text: str, m_max: int, ks: list[int]) -> list[str]:
        p = Problems()
        rows = _rows(text, "condition7", p)
        want = [(m, k) for m in self.checkpoints(m_max) for k in ks]
        p.equal("condition7 (m, k) columns", [(int(r[0]), int(r[2])) for r in rows], want)
        if p:
            return p
        for row in rows:
            m, k = int(row[0]), int(row[2])
            lhs, rhs = float(row[3]), float(row[4])
            p_m = self.plist[m - 1]
            p.equal(f"condition7 m={m} p_m", int(row[1]), p_m)
            want_lhs = self.euler(m, None) + self.euler(m, k)
            want_rhs = EULER_GAMMA + math.log(math.log(p_m))
            p.close(f"condition7 m={m} k={k} lhs_log", lhs, want_lhs)
            p.close(f"condition7 m={m} k={k} rhs_log", rhs, want_rhs)
            # holds means lhs <= rhs, i.e. not (lhs > rhs)
            p.verdict(f"condition7 m={m} k={k} fails", not _bool(row[5]), want_lhs, want_rhs, lhs, rhs)
        return p
