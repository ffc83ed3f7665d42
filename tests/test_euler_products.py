"""Mertens products, the finite product condition, and zeta enclosures."""
import math
from fractions import Fraction

import pytest

from robinlab.euler_products import (
    condition_sweep,
    deficit_condition,
    mertens_deviation,
    mertens_product_log,
    product_condition,
    product_state,
    tail_bound_log,
    zeta_enclosure,
)
from robinlab.robin import EULER_GAMMA, EXP_GAMMA

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


def test_product_state(table7):
    st = product_state(4, 1, table=table7)
    assert st.m == 4 and st.p_m == 7 and st.k == 1
    assert st.log_mertens == mertens_product_log(4, table=table7)
    assert st.deviation == mertens_deviation(4, table=table7)
    assert math.isclose(math.exp(st.log_zeta_partial),
                        zeta_enclosure(1, 4, table=table7).lo, rel_tol=1e-14)
    assert product_state(4, table=table7).log_zeta_partial is None


def test_sweep_summary(table7):
    summary = condition_sweep(1000, [1, 2, 3, 4, 5], table=table7)
    assert summary.first_hold == {1: 3, 2: 5, 3: 10, 4: 17, 5: 35}
    # a repeated k is the same condition, not a second product
    assert condition_sweep(50, [1, 1], table=table7).first_hold == {1: 3}
    assert summary.p_max == 7919
    assert summary.final_deviation == mertens_deviation(1000, table=table7)
    assert math.isclose(summary.final_deviation, 0.0012397105445680623, rel_tol=1e-10)


def test_sweep_rows_match_one_shot(table7):
    rows = []
    condition_sweep(200, [2], checkpoint_every=50, table=table7, on_row=rows.append)
    assert [(r.m, r.k) for r in rows] == [(50, 2), (100, 2), (150, 2), (200, 2)]
    every_m = []
    condition_sweep(2000, [1, 2, 3, 4, 5], table=table7, on_row=every_m.append)
    assert [(r.m, r.k) for r in every_m] == [(m, k) for m in range(1, 2001) for k in range(1, 6)]
    for r in rows + every_m:
        a = product_condition(r.m, r.k, table=table7)
        b = deficit_condition(r.m, r.k, table=table7)
        # incremental accumulators replay the same operations: exact equality
        assert r.lhs_log == a.lhs_log and r.rhs_log == a.rhs_log
        assert r.deviation == b.deviation
        assert r.log_zeta_partial == b.log_zeta_partial
        assert r.holds == a.holds and r.deficit_holds == b.holds


def test_sweep_stabilizes_for_k1(table7):
    rows = []
    condition_sweep(300, [1], checkpoint_every=1, table=table7, on_row=rows.append)
    held = [r.m for r in rows if r.holds]
    assert min(held) == 3
    assert all(r.holds for r in rows if r.m >= 3)
