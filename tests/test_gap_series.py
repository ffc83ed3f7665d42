"""Gap series accumulation, checkpoints, and the theta inequality scan."""
import itertools
import math
import tracemalloc

import pytest

from robinlab.gap_series import (
    SEGMENT_BYTES_PER_PRIME,
    equivalence_check,
    gap_term,
    series_scan,
    theta_bound_constants,
    theta_inequality_check,
)
from robinlab.primes import _segment_bytes, primes_up_to

FIRST_TERM = -0.45161067402361027


def test_gap_term_values():
    assert math.isclose(gap_term(2, 3), FIRST_TERM, rel_tol=1e-15)
    assert math.isclose(gap_term(3, 5), -0.4311834673036344, rel_tol=1e-15)
    assert math.isclose(gap_term(5, 7), -0.06743053823317703, rel_tol=1e-15)
    assert math.isclose(gap_term(7, 11), -0.20503351185092394, rel_tol=1e-15)


def test_gap_term_domain():
    for p, q in ((1, 2), (3, 3), (5, 3)):
        with pytest.raises(ValueError):
            gap_term(p, q)


def test_scan_single_pair():
    st = series_scan(3)
    assert st.n == 1 and st.p_n == 2
    assert st.partial_sum == gap_term(2, 3)
    assert st.running_sup == st.partial_sum and st.sup_at == 1


def test_scan_two_pairs():
    st = series_scan(5)
    assert st.n == 2 and st.p_n == 3
    assert math.isclose(st.partial_sum, -0.88279414132724465, rel_tol=1e-15)
    # negative terms: the first partial sum stays the supremum
    assert st.running_sup == gap_term(2, 3) and st.sup_at == 1


def test_scan_reference_values(table7):
    st = series_scan(100, table=table7)
    assert st.n == 24 and st.p_n == 89
    assert math.isclose(st.partial_sum, -1.319914033672075, rel_tol=1e-14)
    assert st.running_sup == FIRST_TERM and st.sup_at == 1
    st = series_scan(1000, table=table7)
    assert st.n == 167
    assert math.isclose(st.partial_sum, -1.3659064662579306, rel_tol=1e-14)
    st = series_scan(100_000, table=table7)
    assert st.n == 9591
    assert math.isclose(st.partial_sum, -1.3983115845490548, rel_tol=1e-14)
    assert abs(st.compensation) < 1e-12


def test_scan_domain():
    with pytest.raises(ValueError):
        series_scan(2)
    with pytest.raises(ValueError):
        series_scan(1)
    with pytest.raises(ValueError):
        series_scan(1000, table=primes_up_to(100))
    with pytest.raises(ValueError):
        series_scan(100, checkpoint_every=0)


def test_scan_bit_identical_reruns(table7):
    a = series_scan(50_000, table=table7)
    b = series_scan(50_000, table=table7)
    assert (a.partial_sum, a.compensation, a.running_sup) == (
        b.partial_sum, b.compensation, b.running_sup)


def test_checkpoint_cadence(table7, row_log):
    cps = row_log("gap-series")
    st = series_scan(100, checkpoint_every=5, table=table7, on_rows=cps)
    assert [c.n for c in cps] == [5, 10, 15, 20, 24]
    assert cps[0].p_n == 11 and cps[0].gap == 2
    assert cps[0].term == gap_term(11, 13)
    assert cps[-1].partial_sum == st.partial_sum
    assert cps[-1].running_sup == st.running_sup
    sups = [c.running_sup for c in cps]
    assert sups == sorted(sups)  # nondecreasing
    for c in cps:
        assert c.running_sup >= c.partial_sum


def test_equivalence_of_term_forms(table7):
    assert equivalence_check(range(1, 501), table=table7)
    assert equivalence_check([1, 9591, 100_000], table=table7)
    assert equivalence_check([])
    with pytest.raises(ValueError):
        equivalence_check([0])


def test_bound_constants(table7):
    cs = theta_bound_constants(100_000, table=table7)
    assert len(cs) == 9591
    assert cs[0] == (2, FIRST_TERM)
    n_last, c_last = cs[-1]
    assert n_last == 9592
    assert c_last == series_scan(100_000, table=table7).partial_sum
    with pytest.raises(ValueError):
        theta_bound_constants(2)


def test_theta_check_single_prime():
    res = theta_inequality_check(2, 0.0)
    assert res.checked == 1 and res.all_satisfied
    assert res.first_failure is None
    assert math.isclose(res.max_c_needed, -1.9233607946440099, rel_tol=1e-14)
    assert res.max_c_needed_at == 2
    with pytest.raises(ValueError):
        theta_inequality_check(1, 0.0)


def test_theta_check_small_range(table7, row_log):
    records = row_log("theta-check")
    res = theta_inequality_check(100, 1.0, table=table7, on_rows=records)
    assert res.all_satisfied and res.checked == 25
    assert math.isclose(res.max_c_needed, -0.045290683533358335, rel_tol=1e-13)
    assert res.max_c_needed_at == 73
    # default cadence keeps only the final prime
    assert [r.p_n for r in records] == [97]


def test_theta_check_failure_is_recorded(table7, row_log):
    records = row_log("theta-check")
    res = theta_inequality_check(100, -3.0, checkpoint_every=100, table=table7, on_rows=records)
    assert not res.all_satisfied
    assert res.first_failure == 2
    assert [r.p_n for r in records] == [2, 97]
    assert not records[0].satisfied


def test_theta_check_flag_matches_threshold(table7, row_log):
    records = row_log("theta-check")
    res = theta_inequality_check(200, -0.5, checkpoint_every=1, table=table7, on_rows=records)
    assert res.checked == len(records)
    for r in records:
        assert r.satisfied == (r.c_needed <= res.c0)
    assert res.max_c_needed == max(r.c_needed for r in records)


# (odds per segment, largest limit): the tiniest segments sieve a shorter range
STREAM_CASES = [(3, 1_000), (7, 3_000), (1000, 50_000)]


@pytest.mark.parametrize("segment_size, top", STREAM_CASES)
def test_streamed_scans_equal_table_path(table7, row_log, segment_size, top):
    # c0 = -3 fails at p = 2, -0.5 first fails later, 1 never fails
    c0s = itertools.cycle([-3.0, -0.5, 1.0, -0.5])
    for limit in (3, 5, 6, 100, top - 7, top):
        for every in (1, 7, None):
            a, b = row_log("gap-series"), row_log("gap-series")
            want = series_scan(limit, checkpoint_every=every, on_rows=a, table=table7)
            got = series_scan(limit, checkpoint_every=every, on_rows=b, segment_size=segment_size)
            assert got == want and b == a, (limit, every)
            c0 = next(c0s)
            a, b = row_log("theta-check"), row_log("theta-check")
            want = theta_inequality_check(limit, c0, checkpoint_every=every, on_rows=a, table=table7)
            got = theta_inequality_check(limit, c0, checkpoint_every=every, on_rows=b, segment_size=segment_size)
            assert got == want and b == a, (limit, every, c0)


def test_streamed_scan_memory_is_one_segment():
    segment_size = 1 << 16
    budgeted = _segment_bytes(2, 2 * segment_size, SEGMENT_BYTES_PER_PRIME)
    peaks = []
    for limit in (1_000_000, 4_000_000):
        tracemalloc.start()
        try:
            series_scan(limit, segment_size=segment_size)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) <= budgeted
    assert peaks[1] <= peaks[0] * 1.05
