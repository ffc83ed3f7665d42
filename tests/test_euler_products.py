"""Mertens products, the finite product condition, and zeta enclosures."""
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from robinlab import euler_products
from robinlab.euler_products import (
    LOG1P_TINY,
    _factor_logs,
    _libm,
    _log1p_neg,
    _mertens_terms,
    _rhs_log,
    condition_sweep,
    deficit_condition,
    mertens_deviation,
    mertens_product_log,
    product_condition,
    tail_bound_log,
    zeta_enclosure,
)
from robinlab.robin import EULER_GAMMA, EXP_GAMMA
from robinlab.summation import prefix_sums

from conftest import ROW_FIELDS

ZETA2 = math.pi**2 / 6
ZETA4 = math.pi**4 / 90


def test_mertens_product_small(table7):
    assert abs(mertens_product_log(1, table=table7) - math.log(2)) <= 1e-15
    # 2 * (3/2) * (5/4) = 3.75
    assert abs(mertens_product_log(3, table=table7) - math.log(3.75)) <= 1e-14
    with pytest.raises(ValueError):
        mertens_product_log(0, table=table7)


def test_mertens_asymptotic(table7):
    m = table7.pi(1_000_000)
    p_m = table7.nth(m)
    ratio = math.exp(mertens_product_log(m, table=table7)) / (EXP_GAMMA * math.log(p_m))
    assert 0.997 < ratio < 1.003


def test_deviation_values(table7):
    assert math.isclose(mertens_deviation(1, table=table7), 0.48244443624007677,
                        rel_tol=1e-12)
    e3 = mertens_deviation(3, table=table7)
    assert abs(e3 - 0.268655) <= 1e-6
    assert math.isclose(e3, 0.26865517975367603, rel_tol=1e-12)
    assert math.isclose(mertens_deviation(100, table=table7),
                        0.0052129667473215235, rel_tol=1e-10)


def test_deviation_definition(table7):
    for m in (1, 2, 10, 500):
        expect = (mertens_product_log(m, table=table7)
                  - (math.log(math.log(table7.nth(m))) + EULER_GAMMA))
        assert mertens_deviation(m, table=table7) == expect


def test_condition_first_three_m(table7):
    v1 = product_condition(1, 1, table=table7)
    assert abs(v1.lhs_log - math.log(1.5)) <= 1e-14
    assert math.isclose(v1.rhs_log, EULER_GAMMA + math.log(math.log(2)), rel_tol=1e-13)
    assert not v1.holds
    v2 = product_condition(2, 1, table=table7)
    assert abs(v2.lhs_log - math.log(2.0)) <= 1e-14
    assert not v2.holds
    v3 = product_condition(3, 1, table=table7)
    assert math.isclose(math.exp(v3.lhs_log), 2.4, rel_tol=1e-13)
    assert math.isclose(math.exp(v3.rhs_log), 2.8665254743040998, rel_tol=1e-12)
    assert v3.holds


def test_deficit_form(table7):
    d3 = deficit_condition(3, 1, table=table7)
    assert math.isclose(d3.deviation, 0.26865517975367603, rel_tol=1e-12)
    # -log(0.64) over the three zeta factors
    assert math.isclose(d3.log_zeta_partial, -math.log(0.64), rel_tol=1e-13)
    assert d3.holds
    assert not deficit_condition(1, 1, table=table7).holds


def test_forms_agree_on_sample(table7):
    for m in (1, 2, 3, 7, 50, 311, 1000):
        for k in (1, 2, 3, 4, 5):
            a = product_condition(m, k, table=table7)
            b = deficit_condition(m, k, table=table7)
            assert a.holds == b.holds, (m, k)
            gap_a = a.lhs_log - a.rhs_log
            gap_b = b.deviation - b.log_zeta_partial
            assert abs(gap_a - gap_b) <= 1e-10, (m, k)


def test_k_domain(table7):
    product_condition(1, 60, table=table7)  # saturation cap is inclusive
    for bad in (0, 61):
        with pytest.raises(ValueError):
            product_condition(1, bad, table=table7)
        with pytest.raises(ValueError):
            deficit_condition(1, bad, table=table7)
        with pytest.raises(ValueError):
            zeta_enclosure(bad, 5, table=table7)


def test_tail_bound_values():
    assert tail_bound_log(2.0, 10.0) == 0.2
    assert math.isclose(tail_bound_log(3.0, 100.0), 1.5e-4, rel_tol=1e-15)
    with pytest.raises(ValueError):
        tail_bound_log(1.0, 10.0)
    with pytest.raises(ValueError):
        tail_bound_log(2.0, 0.0)


def test_tail_bound_dominates_direct_tail():
    # directly computed tail of the s = 2 Euler product past x = 10,
    # partial product over 2,3,5,7 held as an exact rational
    partial = Fraction(1)
    for p in (2, 3, 5, 7):
        partial *= Fraction(p * p, p * p - 1)
    actual = math.log(ZETA2) - math.log(float(partial))
    assert abs(actual - 0.030793912639590137) <= 1e-12
    assert actual <= tail_bound_log(2.0, 10.0)


def test_enclosure_first_factors(table7):
    iv = zeta_enclosure(1, 4, table=table7)
    exact_lo = Fraction(4, 3) * Fraction(9, 8) * Fraction(25, 24) * Fraction(49, 48)
    assert math.isclose(iv.lo, float(exact_lo), rel_tol=1e-14)
    assert math.isclose(iv.hi, iv.lo * math.exp(2.0 / 7.0), rel_tol=1e-14)
    assert iv.lo <= ZETA2 <= iv.hi


def test_enclosure_tightens(table7):
    prev = None
    for m in (1, 4, 25, 100):
        iv = zeta_enclosure(1, m, table=table7)
        assert iv.lo <= ZETA2 <= iv.hi
        width = iv.hi - iv.lo
        if prev is not None:
            assert width < prev
        prev = width
    assert prev < 0.02


def test_enclosure_fourth_power(table7):
    iv = zeta_enclosure(3, 10, table=table7)
    assert iv.lo <= ZETA4 <= iv.hi
    assert iv.hi - iv.lo < 1e-4


def _bernoulli(n):
    """B_0..B_n as Fractions, from sum_{j<=i} C(i+1, j) B_j = 0."""
    b = [Fraction(1)]
    for i in range(1, n + 1):
        b.append(-sum(math.comb(i + 1, j) * b[j] for j in range(i)) / (i + 1))
    return b


def _zeta_decimal(s, bernoulli, n=40):
    """zeta(s) by Euler-Maclaurin from n on, with terms up to B_40: error far below 1e-40."""
    big = Decimal(n)
    total = sum(Decimal(i) ** -s for i in range(1, n)) + big ** (1 - s) / (s - 1) + big ** -s / 2
    rising = Decimal(s)  # s(s+1)...(s+2j-2)
    for j in range(1, len(bernoulli) // 2 + 1):
        coeff = bernoulli[2 * j] / math.factorial(2 * j)
        total += Decimal(coeff.numerator) / coeff.denominator * rising * big ** (1 - s - 2 * j)
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    return total


def test_enclosure_contains_zeta_on_grid(table7):
    # both ends against zeta(k+1) to 40 digits, and lo against the exact
    # partial product, which lies below zeta(k+1)
    bernoulli = _bernoulli(40)
    with localcontext() as ctx:
        ctx.prec = 50
        primes = [Decimal(p) for p in table7.primes[:2000].tolist()]
        power = primes
        for s, pi_power in ((2, "1.644934066848226436472415166646025189218949901"),  # pi**2/6
                            (4, "1.082323233711138191516003696541167902774750952")):  # pi**4/90
            assert abs(_zeta_decimal(s, bernoulli) - Decimal(pi_power)) < Decimal("1e-45")
        for k in range(1, 61):
            zeta = _zeta_decimal(k + 1, bernoulli)
            power = [q * p for q, p in zip(power, primes)]  # p**(k+1)
            partial, done = Decimal(1), 0
            for m in (1, 2, 3, 5, 10, 30, 100, 300, 1000, 2000):
                for q in power[done:m]:
                    partial += partial / (q - 1)
                done = m
                iv = zeta_enclosure(k, m, table=table7)
                assert Decimal(iv.lo) <= partial and zeta <= Decimal(iv.hi), (k, m, iv)


def test_sweep_summary(table7):
    summary = condition_sweep(1000, [1, 2, 3, 4, 5], table=table7)
    assert summary.first_hold == {1: 3, 2: 5, 3: 10, 4: 17, 5: 35}
    # a repeated k is the same condition, not a second product
    assert condition_sweep(50, [1, 1], table=table7).first_hold == {1: 3}
    assert summary.p_max == 7919
    assert summary.final_deviation == mertens_deviation(1000, table=table7)
    assert math.isclose(summary.final_deviation, 0.0012397105445680623, rel_tol=1e-10)


def test_sweep_rows_match_one_shot(table7, row_log):
    rows = row_log("condition7")
    condition_sweep(200, [2], checkpoint_every=50, table=table7, on_rows=rows)
    assert [(r.m, r.k) for r in rows] == [(50, 2), (100, 2), (150, 2), (200, 2)]
    every_m = row_log("condition7")
    condition_sweep(2000, [1, 2, 3, 4, 5], table=table7, on_rows=every_m)
    assert [(r.m, r.k) for r in every_m] == [(m, k) for m in range(1, 2001) for k in range(1, 6)]
    for r in rows + every_m:
        a = product_condition(r.m, r.k, table=table7)
        b = deficit_condition(r.m, r.k, table=table7)
        # incremental accumulators replay the same operations: exact equality
        assert r.lhs_log == a.lhs_log and r.rhs_log == a.rhs_log
        assert r.deviation == b.deviation
        assert r.log_zeta_partial == b.log_zeta_partial
        assert r.holds == a.holds and r.deficit_holds == b.holds


def test_sweep_stabilizes_for_k1(table7, row_log):
    rows = row_log("condition7")
    condition_sweep(300, [1], checkpoint_every=1, table=table7, on_rows=rows)
    held = [r.m for r in rows if r.holds]
    assert min(held) == 3
    assert all(r.holds for r in rows if r.m >= 3)


def test_factor_logs_equal_libm(table7):
    primes = table7.primes[: table7.pi(10**6)]
    for k in (1, 2, 3, 4, 5, 60):
        old = _libm(math.log1p, -_libm(pow, primes.astype(np.float64), -(k + 1)))
        assert np.array_equal(_factor_logs(primes, k).view(np.int64), old.view(np.int64)), k


def test_float_power_equals_libm_pow():
    # np.float_power's float64 loop calls libm pow on each element; a numpy
    # build that sends it to SIMD code must fail here, not be skipped
    rng = np.random.default_rng(20123)
    x = np.floor(np.exp2(rng.uniform(1.0, 53.0, size=200_000)))  # integers in [2, 2**53)
    e = rng.integers(2, 62, size=x.size)
    got = np.empty_like(x)
    for k in range(2, 62):
        at = e == k
        got[at] = np.float_power(x[at].astype(np.int64), -float(k))
    want = np.fromiter(map(math.pow, x.tolist(), (-e).astype(np.float64).tolist()), np.float64, x.size)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    tiny = np.finfo(np.float64).tiny
    assert np.count_nonzero((got > 0) & (got < tiny)) > 1000  # subnormal results
    assert np.count_nonzero(got == 0) > 1000  # results that underflow to 0


def test_sweep_takes_no_pow_from_libm(table7, monkeypatch):
    seen = set()

    def spy(fn, values, *args):
        seen.add(fn)
        return _libm(fn, values, *args)

    monkeypatch.setattr(euler_products, "_libm", spy)
    condition_sweep(20000, [1, 2, 3, 4, 5], checkpoint_every=1000, table=table7, on_rows=lambda columns: None)
    assert seen == {math.log1p, math.log}


def _tiny_edges():
    up, down = (lambda x: math.nextafter(x, 1.0)), (lambda x: math.nextafter(x, 0.0))
    return [LOG1P_TINY, up(LOG1P_TINY), down(LOG1P_TINY),
            2.0**-54, up(2.0**-54), down(2.0**-54), 5e-324]


def test_log1p_tiny_branch_equals_libm():
    # glibc's own tiny branch, evaluated in numpy; another libm that rounds
    # these differently must fail here, not be skipped
    rng = np.random.default_rng(20121)
    x = rng.integers(1, np.float64(LOG1P_TINY).view(np.uint64), size=1_000_000,
                     dtype=np.uint64).view(np.float64)  # every binade in [2**-1074, 2**-29)
    x = np.concatenate([x, [e for e in _tiny_edges() if e < LOG1P_TINY]])
    libm = _libm(math.log1p, -x).view(np.int64)
    assert np.array_equal((-x - x * x * 0.5).view(np.int64), libm)
    assert np.array_equal(_log1p_neg(x).view(np.int64), libm)
    edges = np.array(_tiny_edges() + [0.0, 0.25, 0.5, 1 - 2.0**-53])
    assert np.array_equal(_log1p_neg(edges).view(np.int64),
                          np.array([math.log1p(-e) for e in edges]).view(np.int64))


def test_log1p_takes_libm_from_tiny_bound(monkeypatch):
    seen = []

    def spy(fn, values, *args):
        seen.append((fn, values.tolist()))
        return _libm(fn, values, *args)

    monkeypatch.setattr(euler_products, "_libm", spy)
    _log1p_neg(np.array(_tiny_edges()))
    assert seen == [(math.log1p, [-LOG1P_TINY, -math.nextafter(LOG1P_TINY, 1.0)])]


def _reference_sweep(table, m_max, ks):
    # the full-vector form: right-hand side at every m, first hold by argmax
    primes = table.primes[:m_max]
    mert = prefix_sums(_mertens_terms(primes))
    rhs = _rhs_log(primes)
    prod = np.array([prefix_sums(_factor_logs(primes, k)) for k in ks]).T
    holds = mert[:, None] + prod <= rhs[:, None]
    first = holds.argmax(axis=0)
    first_hold = {k: int(i) + 1 if holds[i, j] else None for j, (k, i) in enumerate(zip(ks, first))}
    return mert, rhs, prod, first_hold


def test_sweep_equals_full_vector_reference(table7):
    ks, m_max = [1, 2, 3, 4, 5], 100_000
    chunks = []
    summary = condition_sweep(m_max, ks, checkpoint_every=1, table=table7, on_rows=chunks.append)
    mert, rhs, prod, first_hold = _reference_sweep(table7, m_max, ks)
    assert summary.first_hold == first_hold == {1: 3, 2: 5, 3: 10, 4: 17, 5: 35}
    assert summary.final_deviation == mert[-1] - rhs[-1]

    def column(name):
        at = ROW_FIELDS["condition7"].index(name)
        return np.concatenate([c[at] for c in chunks]).reshape(m_max, len(ks))

    m = np.arange(1, m_max + 1)[:, None]
    assert np.array_equal(column("m"), np.broadcast_to(m, prod.shape))
    assert np.array_equal(column("k"), np.broadcast_to(ks, prod.shape))
    assert np.array_equal(column("p_m")[:, 0], table7.primes[:m_max])
    lhs, dev = mert[:, None] + prod, (mert - rhs)[:, None]
    for name, expect in [("lhs_log", lhs), ("rhs_log", rhs[:, None]), ("deviation", dev),
                         ("log_zeta_partial", -prod), ("holds", lhs <= rhs[:, None]),
                         ("deficit_holds", dev <= -prod)]:
        got = column(name)
        assert np.array_equal(got, np.broadcast_to(expect, got.shape)), name


@pytest.mark.parametrize("width", [1, 2, 3, 17, 34])
def test_first_hold_across_chunk_edges(table7, monkeypatch, width):
    monkeypatch.setattr(euler_products, "FIRST_HOLD_CHUNK", width)
    ks = [1, 2, 3, 4, 5]
    expect = {1: 3, 2: 5, 3: 10, 4: 17, 5: 35}
    for m_max in (35, 36, 100, 5000):
        summary = condition_sweep(m_max, ks, table=table7)
        assert summary.first_hold == expect, (width, m_max)
    assert condition_sweep(34, ks, table=table7).first_hold == {**expect, 5: None}
    assert condition_sweep(2, [1], table=table7).first_hold == {1: None}
    assert condition_sweep(1, [1], table=table7).first_hold == {1: None}


def test_sweep_reads_rhs_only_where_needed(table7, monkeypatch, row_log):
    evaluated = []

    def spy(primes):
        evaluated.append(primes.size)
        return _rhs_log(primes)

    monkeypatch.setattr(euler_products, "_rhs_log", spy)
    rows = row_log("condition7")
    summary = condition_sweep(664579, [1, 2, 3, 4, 5], checkpoint_every=100_000, table=table7,
                              on_rows=rows)
    assert summary.first_hold == {1: 3, 2: 5, 3: 10, 4: 17, 5: 35}
    assert len(rows) == 35
    # one first chunk for every k, seven row values and the final deviation
    assert sum(evaluated) == euler_products.FIRST_HOLD_CHUNK + 7 + 1


# (odds per segment, largest m_max): the tiniest segments sieve a shorter range
SWEEP_STREAM_CASES = [(3, 300), (7, 800), (1000, 20_000)]


@pytest.mark.parametrize("segment_size, top", SWEEP_STREAM_CASES)
def test_streamed_sweep_equals_table_path(table7, row_log, segment_size, top):
    ks = [1, 2, 3, 4, 5, 10, 2]
    for m_max, every in ((1, 1), (2, 1), (50, 1), (top, 1 if top < 2000 else 97)):
        a, b = row_log("condition7"), row_log("condition7")
        want = condition_sweep(m_max, ks, checkpoint_every=every, table=table7, on_rows=a)
        got = condition_sweep(m_max, ks, checkpoint_every=every, segment_size=segment_size, on_rows=b)
        assert got == want and b == a, (m_max, every)


@pytest.mark.parametrize("block", [1, 5, 64])
def test_last_failure_equals_full_vector_reference(table7, monkeypatch, block):
    monkeypatch.setattr(euler_products, "HOLD_BLOCK", block)
    ks, m_max = list(range(1, 11)), 100_000 if block == 64 else 10_000
    summary = condition_sweep(m_max, ks, table=table7)
    # the last failure and the failures past the first hold, from the verdict at every m
    mert, rhs, prod, first_hold = _reference_sweep(table7, m_max, ks)
    fails = mert[:, None] + prod > rhs[:, None]
    last, after = {}, {}
    for j, k in enumerate(ks):
        bad = np.flatnonzero(fails[:, j])
        last[k] = int(bad[-1]) + 1 if bad.size else None
        after[k] = 0 if first_hold[k] is None else int(np.count_nonzero(bad >= first_hold[k]))
    assert summary.first_hold == first_hold
    assert summary.last_failure == last
    assert summary.fails_after_hold == after
    # the bound that lets a block hold without the exact right-hand side
    floor = EULER_GAMMA + np.log(np.log(table7.primes[:m_max]))
    assert np.abs(floor - rhs).max() < euler_products.RHS_MARGIN / 100


def test_last_failure_golden_values_below_1e7(table7):
    summary = condition_sweep(664_579, [4, 5, 10], table=table7)
    assert summary.first_hold == {4: 17, 5: 35, 10: 1401}
    assert summary.last_failure == {4: 21, 5: 46, 10: 6145}
    assert summary.fails_after_hold == {4: 2, 5: 4, 10: 2495}
