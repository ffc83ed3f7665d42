"""Divisor-bound evaluation, range scans, and extremal candidate walks."""
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import robinlab.robin
from robinlab.arithmetic import (Factorization, SigmaTable, factorize, sieve_dtype, sigma_of, sigma_sieve,
                                 sigma_window)
from robinlab.errors import CapacityError, memory_budget_bytes
from robinlab.robin import (
    EULER_GAMMA,
    EXP_GAMMA,
    SCAN_BYTES_PER_N,
    ExtremalCandidate,
    RobinRow,
    bound_rhs,
    extremal_candidates,
    ramanujan_constant,
    robin_check,
    robin_check_batch,
    robin_delta,
    scan_range,
    top_k_indices,
)

# the complete violator list below 10^6; every entry re-confirmed here with
# exact integer sigma
VIOLATORS = [3, 4, 5, 6, 8, 9, 10, 12, 16, 18, 20, 24, 30, 36, 48, 60, 72,
             84, 120, 180, 240, 360, 720, 840, 2520, 5040]


def test_constants():
    assert EULER_GAMMA == 0.5772156649015329
    assert abs(EXP_GAMMA - math.exp(EULER_GAMMA)) <= 1e-15 * EXP_GAMMA


def test_ramanujan_constant():
    v = ramanujan_constant()
    assert v < 0
    assert -1.3933 < v < -1.3931
    closed = EXP_GAMMA * (4 - 2 * math.sqrt(2) + EULER_GAMMA - math.log(4 * math.pi))
    assert math.isclose(v, closed, rel_tol=1e-15)


def test_check_rejects_unit():
    with pytest.raises(ValueError):
        robin_check(factorize(1))


def test_check_two_is_special():
    ev = robin_check(factorize(2))
    assert ev.special == "loglog_nonpositive"
    assert ev.violates  # bound is negative, trivially exceeded
    assert ev.loglog_n < 0


def test_check_small_values():
    ev = robin_check(factorize(3))
    assert ev.special == "normal"
    assert ev.violates
    assert math.isclose(ev.sigma_ratio, 4 / 3, rel_tol=1e-14)
    assert math.isclose(ev.robin_rhs_ratio, 0.16750599173999958, rel_tol=1e-13)
    ev7 = robin_check(factorize(7))
    assert 1.18 <= ev7.robin_rhs_ratio < 1.19
    assert not ev7.violates


def test_check_5040_and_5041():
    ev = robin_check(factorize(5040))
    assert ev.violates
    assert math.isclose(ev.sigma_ratio, 19344 / 5040, rel_tol=1e-14)
    assert math.isclose(ev.robin_rhs_ratio, 3.8168772880285116, rel_tol=1e-13)
    assert math.isclose(ev.delta, 0.061951913795248982, rel_tol=1e-10)
    ev = robin_check(factorize(5041))
    assert not ev.violates
    assert sigma_of(factorize(5041)) == 5113


def test_delta_values():
    assert math.isclose(robin_delta(factorize(3)), 1.2219585168431835, rel_tol=1e-12)
    d16 = robin_delta(factorize(16))
    assert d16 > 0  # 31/16 = 1.9375 sits above the bound 1.8163
    assert math.isclose(d16, 0.2018035847012521, rel_tol=1e-12)
    assert math.isclose(robin_delta(factorize(963761198400)), -0.8883980178444654,
                        rel_tol=1e-12)
    with pytest.raises(ValueError):
        robin_delta(factorize(2))


def test_delta_matches_definition():
    for n in (3, 16, 5040, 10080, 123456):
        ev = robin_check(factorize(n))
        expect = (ev.sigma_ratio - ev.robin_rhs_ratio) * math.sqrt(ev.log_n)
        assert math.isclose(ev.delta, expect, rel_tol=1e-14)


def test_bound_rhs_scaled_reduces_to_plain_bound():
    for n in (2, 3, 16, 5040, 5041, 10080, 963761198400):
        f = factorize(n)
        got = bound_rhs("scaled", f, 1.0)
        expect = EXP_GAMMA * math.log(math.log(n))
        assert abs(got - expect) <= 1e-14 * max(abs(expect), 1.0), n


def test_bound_rhs_values_at_5040():
    f = factorize(5040)
    assert math.isclose(bound_rhs("additive", f, 1.0), 5.297400320320253, rel_tol=1e-12)
    assert math.isclose(bound_rhs("expanded", f, 1.0), 5.434927146741071, rel_tol=1e-12)
    assert math.isclose(bound_rhs("scaled", f, 2.0), 3.9561030321767445, rel_tol=1e-12)


def test_bound_rhs_ordering():
    # the scaled form never exceeds the expanded form at c = 1
    for n in (3, 5, 16, 100, 5040, 5041, 720720, 10**6, 10**9, 963761198400):
        f = factorize(n)
        assert bound_rhs("scaled", f, 1.0) <= bound_rhs("expanded", f, 1.0), n


def test_bound_rhs_domain():
    with pytest.raises(ValueError):
        bound_rhs("scaled", factorize(3), 0.5)
    with pytest.raises(ValueError):
        bound_rhs("unknown", factorize(3), 1.0)
    with pytest.raises(ValueError):
        bound_rhs("expanded", factorize(2), 1.0)
    with pytest.raises(ValueError):
        bound_rhs("additive", factorize(2), 1.0)
    # scaled tolerates n = 2 (its inner log stays positive)
    assert bound_rhs("scaled", factorize(2), 1.0) < 0


def test_scan_finds_all_violators(sigma1e5):
    res = scan_range(3, 100_000, table=sigma1e5)
    assert res.violators == VIOLATORS
    assert max(res.violators) == 5040
    for n in res.violators:
        f = factorize(n)
        assert sigma_of(f) / n > EXP_GAMMA * math.log(math.log(n)), n


def test_scan_excludes_two(sigma1e5):
    res = scan_range(2, 10, table=sigma1e5)
    assert res.violators == [3, 4, 5, 6, 8, 9, 10]


def test_scan_empty_above_5040(sigma1e5):
    assert scan_range(5041, 100_000, table=sigma1e5).violators == []


def test_scan_odd_only(sigma1e5):
    assert scan_range(17, 100_000, odd_only=True, table=sigma1e5).violators == []
    odd_low = scan_range(3, 15, odd_only=True, table=sigma1e5)
    assert odd_low.violators == [3, 5, 9]


def test_scan_top_rows(sigma1e5):
    res = scan_range(3, 100_000, table=sigma1e5)
    assert len(res.top_rows) == 10
    deltas = [r.delta for r in res.top_rows]
    assert deltas == sorted(deltas, reverse=True)
    top = res.top_rows[0]
    assert (top.n, top.sigma) == (4, 7)
    assert math.isclose(top.delta, 1.3754983427787613, rel_tol=1e-12)
    assert res.max_delta_records[0][0] == 4


def test_scan_agrees_with_direct_check(sigma1e5):
    res = scan_range(3, 10_000, table=sigma1e5)
    flagged = set(res.violators)
    for n in range(3, 10_001):
        ev = robin_check(factorize(n))
        assert ev.violates == (n in flagged), n
        assert ev.violates == (ev.delta > 0), n


def _factorizations(limit):
    # every n in [3, limit] from a smallest-prime-factor table; a descending
    # pass leaves each entry at its smallest prime
    spf = np.arange(limit + 1)
    for p in range(math.isqrt(limit), 1, -1):
        spf[p * p :: p] = p
    spf = spf.tolist()
    out = []
    for n in range(3, limit + 1):
        counts = {}
        while n > 1:
            counts[spf[n]] = counts.get(spf[n], 0) + 1
            n //= spf[n]
        out.append(Factorization(tuple(sorted(counts.items()))))
    return out


def test_scan_rows_equal_check_rows(sigma1e5):
    # one row per n: the scan and robin_check print the same bits for every n
    limit = 100_000
    rows = sorted(scan_range(3, limit, table=sigma1e5, top_k=limit).top_rows, key=lambda r: r.n)
    assert [r.n for r in rows] == list(range(3, limit + 1))
    fs = _factorizations(limit)

    def same(row, ev):
        return (row.sigma_ratio, row.bound_ratio, row.delta, row.violates) == (
            ev.sigma_ratio, ev.robin_rhs_ratio, ev.delta, ev.violates)

    for row, f, ev in zip(rows, fs, robin_check_batch(fs)):
        assert f.value() == row.n and same(row, ev), row
    # the 1-element calls robin-eval makes; every 10th n keeps the suite's time
    for row, f in zip(rows[::10], fs[::10]):
        assert same(row, robin_check(f)), row


def test_scan_domain(sigma1e5):
    with pytest.raises(ValueError):
        scan_range(1, 10, table=sigma1e5)
    with pytest.raises(ValueError):
        scan_range(10, 3, table=sigma1e5)
    with pytest.raises(ValueError):
        scan_range(3, 200_000, table=sigma1e5)  # table too small


def _reference_scan(table, lo, hi, odd_only, top_k):
    # the straightforward formula: int64 n, gathered sigma, full stable sort
    start = max(lo, 3)
    if odd_only and start % 2 == 0:
        start += 1
    ns = np.arange(start, hi + 1, 2 if odd_only else 1, dtype=np.int64)
    sig = table.sigma[ns]
    ratio = sig / ns
    log_ns = np.log(ns)
    bound = EXP_GAMMA * np.log(log_ns)
    delta = (ratio - bound) * np.sqrt(log_ns)
    viol = ratio > bound

    def row(i):
        return RobinRow(int(ns[i]), int(sig[i]), float(ratio[i]), float(bound[i]),
                        float(delta[i]), bool(viol[i]))

    order = np.argsort(-delta, kind="stable")[: max(top_k, 0)]
    return [row(i) for i in np.flatnonzero(viol)], [row(i) for i in order]


@pytest.mark.parametrize("lo, hi, odd_only", [(3, 100_000, False), (17, 100_000, True),
                                              (2, 10, False), (4, 1001, True)])
@pytest.mark.parametrize("top_k", [0, 1, 10, 37, 200_000])
def test_scan_rows_equal_reference_formula(sigma1e5, lo, hi, odd_only, top_k):
    res = scan_range(lo, hi, odd_only=odd_only, table=sigma1e5, top_k=top_k)
    violators, top = _reference_scan(sigma1e5, lo, hi, odd_only, top_k)
    assert res.violator_rows == violators
    assert res.top_rows == top
    assert res.near_ties == []


def test_top_k_ties_straddle_kth():
    values = np.array([1.0, 5.0, 3.0, 5.0, 3.0, 3.0, -2.0, 3.0, 0.0, -0.0])
    stable = np.argsort(-values, kind="stable")
    for k in range(-1, values.size + 3):
        assert top_k_indices(values, k).tolist() == stable[: max(k, 0)].tolist(), k
    # k = 3 cuts through the four 3.0 entries: the smaller indices win
    assert top_k_indices(values, 3).tolist() == [1, 3, 2]
    assert top_k_indices(np.full(6, 7.0), 4).tolist() == [0, 1, 2, 3]


def test_scan_budget_covers_transients(monkeypatch):
    # table 0.8 MB; one row block 1.11 MB, plus 0.6 MB of int32 sieve without a table
    monkeypatch.setenv("ROBINLAB_MEM_BUDGET_MB", "1")
    table = sigma_sieve(100_000)
    with pytest.raises(CapacityError, match="scan transients"):
        scan_range(3, 100_000, table=table)
    with pytest.raises(CapacityError, match="scan transients"):
        scan_range(3, 100_000)
    # the odd half of a smaller window fits: 24999 rows, 0.85 MB
    assert scan_range(3, 100_001 // 2, odd_only=True, table=table).violators == [3, 5, 9]
    # 29998 rows fit with a table (1.02 MB) but not with their sieve (1.20 MB)
    assert scan_range(3, 30_000, table=table).violators == VIOLATORS
    with pytest.raises(CapacityError, match="scan transients"):
        scan_range(3, 30_000)
    monkeypatch.delenv("ROBINLAB_MEM_BUDGET_MB")
    assert SCAN_BYTES_PER_N * (10**7 - 2) + 8 * (10**7 + 1) <= memory_budget_bytes()


def test_scan_transients_within_budgeted_figure(sigma1e5):
    tracemalloc.start()
    try:
        scan_range(3, 100_000, table=sigma1e5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= SCAN_BYTES_PER_N * min(robinlab.robin.ROW_BLOCK, 99_998) + (1 << 16)


# the ranges of test_scan_rows_equal_reference_formula; one-value windows
# or row blocks cost a Python round trip per n (about 0.1 ms), so they stop
# the two 1e5-wide ranges at 1e4
_WINDOW_GRID = [(window, lo, min(hi, 10_000) if window == 1 else hi, odd_only)
                for window in (1, 7, 4096)
                for lo, hi, odd_only in [(3, 100_000, False), (17, 100_000, True),
                                         (2, 10, False), (4, 1001, True)]]


@pytest.mark.parametrize("window, lo, hi, odd_only", _WINDOW_GRID)
@pytest.mark.parametrize("top_k", [0, 1, 10, 37, 200_000])
def test_windowed_scan_rows_equal_reference_formula(monkeypatch, sigma1e5, window, lo, hi,
                                                    odd_only, top_k):
    monkeypatch.setattr(robinlab.robin, "SCAN_WINDOW", window)
    res = scan_range(lo, hi, odd_only=odd_only, table=sigma1e5, top_k=top_k)
    violators, top = _reference_scan(sigma1e5, lo, hi, odd_only, top_k)
    assert res.violator_rows == violators
    assert res.top_rows == top
    assert res.near_ties == []


@pytest.mark.parametrize("window, lo, hi, odd_only", _WINDOW_GRID)
def test_windowed_scan_without_table_equals_reference_formula(monkeypatch, sigma1e5, window, lo,
                                                              hi, odd_only):
    # one scan that keeps every row: each smaller top-k is a prefix of it,
    # and the merge for each k is covered by the table runs above
    monkeypatch.setattr(robinlab.robin, "SCAN_WINDOW", window)
    res = scan_range(lo, hi, odd_only=odd_only, top_k=200_000)
    violators, top = _reference_scan(sigma1e5, lo, hi, odd_only, 200_000)
    assert res.violator_rows == violators
    assert res.top_rows == top
    assert res.near_ties == []


def _scan_peak(lo, hi):
    tracemalloc.start()
    try:
        scan_range(lo, hi)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _one_window_figure(window, itemsize):
    # the sieve and the d = 2 slice's half-width arange, plus one row block
    block = min(robinlab.robin.ROW_BLOCK, window)
    return itemsize * (window + window // 2) + SCAN_BYTES_PER_N * block + (1 << 16)


def test_scan_peak_is_one_window_without_table():
    window = robinlab.robin.SCAN_WINDOW
    assert window < 10**6  # the scan spans several windows
    assert sieve_dtype(2 * 10**6) == np.int32
    assert _scan_peak(3, 2 * 10**6) <= _one_window_figure(window, 4)


def test_scan_past_int32_range_keeps_exact_sigma():
    lo, hi = 10**9 - 1000, 10**9
    rows = sorted(scan_range(lo, hi, top_k=hi - lo + 1).top_rows, key=lambda r: r.n)
    expect = sigma_window(lo, hi + 1).tolist()
    assert max(expect) >= 2**31  # these sums leave int32
    assert [r.n for r in rows] == list(range(lo, hi + 1))
    assert [r.sigma for r in rows] == expect


def test_int64_scan_peak_is_one_window():
    lo, hi = 10**9 - (1 << 18), 10**9
    assert sieve_dtype(hi) == np.int64
    assert _scan_peak(lo, hi) <= _one_window_figure(hi - lo + 1, 8)


@pytest.mark.parametrize("block, lo, hi, odd_only", _WINDOW_GRID)
@pytest.mark.parametrize("top_k", [0, 1, 10, 37, 200_000])
def test_row_blocks_equal_reference_formula(monkeypatch, sigma1e5, block, lo, hi, odd_only, top_k):
    monkeypatch.setattr(robinlab.robin, "ROW_BLOCK", block)
    res = scan_range(lo, hi, odd_only=odd_only, table=sigma1e5, top_k=top_k)
    violators, top = _reference_scan(sigma1e5, lo, hi, odd_only, top_k)
    assert res.violator_rows == violators
    assert res.top_rows == top
    assert res.near_ties == []


@pytest.mark.parametrize("window, block", [(4096, 1024), (5000, 7)])
def test_row_blocks_within_sieved_windows(monkeypatch, sigma1e5, window, block):
    # blocks that do and do not divide the window, over the int32 sieve
    monkeypatch.setattr(robinlab.robin, "SCAN_WINDOW", window)
    monkeypatch.setattr(robinlab.robin, "ROW_BLOCK", block)
    for lo, hi, odd_only in [(3, 100_000, False), (17, 100_000, True)]:
        res = scan_range(lo, hi, odd_only=odd_only, top_k=37)
        violators, top = _reference_scan(sigma1e5, lo, hi, odd_only, 37)
        assert res.violator_rows == violators
        assert res.top_rows == top


def test_top_k_tie_across_window_boundary_keeps_smaller_n(monkeypatch):
    # a made-up table: zero everywhere except n = 6 and n = 7, whose huge
    # sigma values give the two largest delta values, and exactly equal ones
    def delta(sig, n):
        log_n = np.log(np.float64(n))
        return (sig / np.float64(n) - EXP_GAMMA * np.log(log_n)) * np.sqrt(log_n)

    s6 = np.int64(10**17)
    d6 = delta(s6, 6)
    guess = int(d6 / math.sqrt(math.log(7)) * 7)
    cand = np.arange(guess - 200_000, guess + 200_000, dtype=np.int64)
    s7 = cand[np.flatnonzero(delta(cand, 7) == d6)[0]]
    sigma = np.zeros(21, dtype=np.int64)
    sigma[6], sigma[7] = s6, s7
    table = SigmaTable(limit=20, sigma=sigma)
    tops = []
    for window in (4, 1 << 18):  # windows [3, 6], [7, 10], ... and one window
        monkeypatch.setattr(robinlab.robin, "SCAN_WINDOW", window)
        top = scan_range(3, 20, table=table, top_k=2).top_rows
        assert [r.n for r in top] == [6, 7]
        assert top[0].delta == top[1].delta
        assert scan_range(3, 20, table=table, top_k=1).top_rows == top[:1]
        tops.append(top)
    assert tops[0] == tops[1]


def test_extremal_single_prime():
    cands = list(extremal_candidates(1, 3))
    values = [c.factorization.value() for c in cands]
    assert values == [2, 4, 8]
    assert [tuple(e for _, e in c.factorization.factors) for c in cands] == [
        (1,), (2,), (3,)]


def test_extremal_ascending_and_monotone():
    cands = list(extremal_candidates(6, 500))
    logs = [sum(e * math.log(q) for q, e in c.factorization.factors) for c in cands]
    assert logs == sorted(logs)
    values = [c.factorization.value() for c in cands]
    assert len(set(values)) == len(values)
    for c in cands:
        exps = [e for _, e in c.factorization.factors]
        assert all(a >= b for a, b in zip(exps, exps[1:]))


def test_extremal_exponent_cap():
    cands = list(extremal_candidates(3, 50, exponent_cap=1))
    # squarefree means primorial prefixes only
    assert [c.factorization.value() for c in cands] == [2, 6, 30]
    with pytest.raises(ValueError):
        ExtremalCandidate(Factorization(((2, 3),)), exponent_cap=2)


def test_extremal_rejects_increasing_exponents():
    with pytest.raises(ValueError):
        ExtremalCandidate(Factorization(((2, 1), (3, 2))))


def test_extremal_budget_semantics():
    assert list(extremal_candidates(4, 0)) == []
    with pytest.raises(ValueError):
        list(extremal_candidates(0, 5))


def test_extremal_largest_ratio_within_5040():
    cands = [c for c in extremal_candidates(8, 400)
             if c.factorization.value() <= 5040]
    assert any(c.factorization.value() == 5040 for c in cands)
    by_ratio = max(cands, key=lambda c: robin_check(c.factorization).sigma_ratio)
    assert by_ratio.factorization.value() == 5040
    assert tuple(e for _, e in by_ratio.factorization.factors) == (4, 2, 1, 1)
    # the delta statistic is a different ranking: small n dominate it
    by_delta = max((c for c in cands if c.factorization.value() >= 3),
                   key=lambda c: robin_delta(c.factorization))
    assert by_delta.factorization.value() == 4


def test_extremal_dominates_scan_delta(sigma1e5):
    res = scan_range(3, 100_000, table=sigma1e5)
    cands = [c for c in extremal_candidates(10, 2_000)
             if 3 <= c.factorization.value() <= 100_000]
    best = max(robin_delta(c.factorization) for c in cands)
    assert res.top_rows[0].delta <= best + 1e-9


def test_extremal_no_violations_between_logs_10_and_50():
    checked = 0
    cands = extremal_candidates(18, 10_000_000)
    while fs := [c.factorization for c in itertools.islice(cands, 4096)]:
        evs = robin_check_batch(fs)
        for f, ev in zip(fs, evs):
            if 10.0 <= ev.log_n <= 50.0:
                checked += 1
                assert not ev.violates, f.factors
        if evs[-1].log_n > 50.0:
            break
    assert checked > 90_000  # exhaustive walk of the shape family in range
