"""Compensated prefix sums, the one kernel behind every per-prime accumulation.

The prefix form of Sum2 from Ogita, Rump and Oishi, "Accurate sum and dot
product" (SIAM J. Sci. Comput. 26, 2005): a running sum in index order, the
exact rounding error of each step from TwoSum, and the running sum of those
errors added back. Each prefix is as accurate as if summed in twice the
working precision and rounded once.
"""

from __future__ import annotations

import numpy as np

from .errors import require_capacity

# peak bytes per term inside prefix_sums, as measured by tracemalloc: the
# float64 result plus two float64 work arrays
PREFIX_BYTES_PER_TERM = 24


def prefix_sums(terms: np.ndarray) -> np.ndarray:
    """out[i] is the compensated sum of terms[0..i], accumulated in index order."""
    x = np.asarray(terms, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"need a 1-d term vector, got shape {x.shape}")
    require_capacity(PREFIX_BYTES_PER_TERM * x.size, f"prefix sums of {x.size} terms")
    out = np.cumsum(x)
    prev, cur, step = out[:-1], out[1:], x[1:]
    # TwoSum: cur + err == prev + step exactly, with err built from the two
    # parts of the step that cur dropped
    kept = cur - prev
    err = cur - kept
    np.subtract(prev, err, out=err)
    np.subtract(step, kept, out=kept)
    err += kept
    del kept
    np.cumsum(err, out=err)
    cur += err
    return out
