"""The compensated prefix-sum kernel: accuracy against math.fsum, and its budget."""
import math
import tracemalloc

import numpy as np
import pytest

from robinlab.errors import CapacityError, memory_budget_bytes
from robinlab.euler_products import _factor_logs, _mertens_terms, condition_sweep
from robinlab.gap_series import gap_terms, series_scan, theta_inequality_check
from robinlab.primes import primes_up_to
from robinlab.summation import PREFIX_BYTES_PER_TERM, PrefixCarry, prefix_sums


def fsum_prefixes(terms, ends):
    """math.fsum(terms[:n]) for each n in ascending ends, in one pass.

    The sum so far is carried exactly as a few floats: fsum gives the
    rounded exact sum, then the rounded exact residual, until the residual
    is zero. Each prefix is then one fsum over the carry and the new terms.
    """
    values = terms.tolist()
    carry, start, out = [], 0, []
    for n in ends:
        parts = carry + values[start:n]
        start = n
        carry = []
        while (r := math.fsum(parts + [-c for c in carry])) != 0.0:
            carry.append(r)
        out.append(carry[0] if carry else 0.0)
    return out


def mixed_terms(rng, n):
    return rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8.0, 8.0, n)


def test_every_prefix_equals_fsum_on_mixed_magnitudes():
    rng = np.random.default_rng(20261018)
    lengths = [1, 2, 3, 2000, *rng.integers(4, 2000, size=20).tolist()]
    for n in lengths:
        x = mixed_terms(rng, n)
        want = [math.fsum(x[: i + 1].tolist()) for i in range(n)]
        assert prefix_sums(x).tolist() == want, n
    x = mixed_terms(rng, 500)
    assert fsum_prefixes(x, range(1, 501)) == [math.fsum(x[:n].tolist()) for n in range(1, 501)]


def test_cancellation():
    x = np.array([1e16, 1.0, -1e16])
    assert np.cumsum(x)[-1] == 0.0
    assert prefix_sums(x).tolist() == [1e16, 1e16, 1.0]


def test_empty_and_shape():
    out = prefix_sums(np.array([]))
    assert out.dtype == np.float64 and out.size == 0
    assert prefix_sums([3.0]).tolist() == [3.0]
    with pytest.raises(ValueError):
        prefix_sums(np.ones((2, 2)))


def test_reruns_and_prefixes_identical():
    x = mixed_terms(np.random.default_rng(7), 5000)
    full = prefix_sums(x)
    assert np.array_equal(full, prefix_sums(x.copy()))
    # a shorter input replays the same operations, so one-shot sums at m
    # equal the sweep's prefix at m
    for m in (1, 2, 17, 4096):
        assert np.array_equal(prefix_sums(x[:m]), full[:m])


@pytest.fixture(scope="module")
def real_terms(table7):
    primes = table7.primes[: table7.pi(10**7)]
    return {
        "gap": gap_terms(primes),
        "log p": np.log(primes),
        "mertens": _mertens_terms(primes),
        "zeta k=1": -_factor_logs(primes, 1),
    }


def test_real_term_vectors_equal_fsum(real_terms):
    rng = np.random.default_rng(300)
    for name, terms in real_terms.items():
        ends = np.unique(rng.integers(1, terms.size + 1, size=300)).tolist()
        got = prefix_sums(terms)[np.array(ends) - 1].tolist()
        assert got == fsum_prefixes(terms, ends), name


def test_transients_within_budgeted_figure():
    x = np.ones(100_000)
    tracemalloc.start()
    try:
        prefix_sums(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= PREFIX_BYTES_PER_TERM * x.size + (1 << 16)


def test_budget_covers_kernel_transients(monkeypatch):
    # table estimate 2.5 MB fits; 149k terms need 3.6 MB of kernel transients
    monkeypatch.setenv("ROBINLAB_MEM_BUDGET_MB", "3")
    table = primes_up_to(2_000_000)
    with pytest.raises(CapacityError, match="prefix sums"):
        prefix_sums(gap_terms(table.primes))
    # the streamed functions budget one segment: at 2e6 it holds every prime
    with pytest.raises(CapacityError, match="one segment"):
        series_scan(2_000_000)
    with pytest.raises(CapacityError, match="one segment"):
        theta_inequality_check(2_000_000, 0.0)
    with pytest.raises(CapacityError, match="one segment"):
        condition_sweep(table.count, [1])
    assert series_scan(1_000_000, segment_size=1 << 16).n == 78_497
    monkeypatch.delenv("ROBINLAB_MEM_BUDGET_MB")
    table_1e7 = 8 * 1.3 * 10**7 / math.log(10**7)
    assert PREFIX_BYTES_PER_TERM * 664_579 + table_1e7 <= memory_budget_bytes()


@pytest.mark.parametrize("width", [1, 7, 1000])
def test_carried_chunks_equal_one_shot(real_terms, width):
    # the vectors above fed through a carry, at most 1000 chunks of each
    rng = np.random.default_rng(20261018)
    vectors = [mixed_terms(rng, n) for n in (1, 2, 3, 2000)]
    vectors += [np.array([1e16, 1.0, -1e16]), np.array([-0.0, -0.0, 0.0, -0.0]), np.array([]),
                *real_terms.values()]
    for x in vectors:
        x = x[: 1000 * width]
        carry = PrefixCarry()
        got = np.concatenate([prefix_sums(x[i : i + width], carry) for i in range(0, max(x.size, 1), width)])
        assert np.array_equal(got.view(np.int64), prefix_sums(x).view(np.int64)), (width, x.size)
        if x.size:
            assert carry.plain == np.cumsum(x)[-1]
            assert carry.plain + carry.error == got[-1]
