"""Compensated prefix sums, the one kernel behind every per-prime accumulation.

The prefix form of Sum2 from Ogita, Rump and Oishi, "Accurate sum and dot
product" (SIAM J. Sci. Comput. 26, 2005): a running sum in index order, the
exact rounding error of each step from TwoSum, and the running sum of those
errors added back. Each prefix is as accurate as if summed in twice the
working precision and rounded once.

The state between two terms is two floats, the plain running sum and the
running error sum, so a long sequence can be fed chunk by chunk through a
PrefixCarry and give the same bits as one call over the whole sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import require_capacity

# peak bytes per term inside prefix_sums, as measured by tracemalloc: the
# float64 result plus two float64 work arrays
PREFIX_BYTES_PER_TERM = 24


@dataclass
class PrefixCarry:
    """Sum2 state after the terms summed so far, carried into the next chunk.

    plain is the uncompensated running sum, None before the first term;
    error is the running sum of TwoSum errors. It starts at -0.0, the one
    float that adding leaves every value unchanged, signed zeros included.
    """

    plain: float | None = None
    error: float = -0.0


def prefix_sums(terms: np.ndarray, carry: PrefixCarry | None = None) -> np.ndarray:
    """out[i] is the compensated sum of terms[0..i], accumulated in index order.

    With a carry the sums continue from its state, and the carry is advanced
    past these terms: chunks fed in order give the same bits as one call over
    their concatenation. Without one, this is a single chunk from nothing.
    """
    x = np.asarray(terms, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"need a 1-d term vector, got shape {x.shape}")
    require_capacity(PREFIX_BYTES_PER_TERM * x.size, f"prefix sums of {x.size} terms")
    if carry is None or carry.plain is None:
        # the first term starts the running sum and has no rounding error
        out = np.cumsum(x)
        prev, cur, step = out[:-1], out[1:], x[1:]
    else:
        buf = np.empty(x.size + 1)
        buf[0] = carry.plain
        buf[1:] = x
        np.cumsum(buf, out=buf)
        out = buf[1:]
        prev, cur, step = buf[:-1], out, x
    # TwoSum: cur + err == prev + step exactly, with err built from the two
    # parts of the step that cur dropped
    kept = cur - prev
    err = cur - kept
    np.subtract(prev, err, out=err)
    np.subtract(step, kept, out=kept)
    err += kept
    del kept
    if carry is not None and x.size:
        if err.size:
            err[0] += carry.error
        carry.plain = float(out[-1])
    np.cumsum(err, out=err)
    if carry is not None and err.size:
        carry.error = float(err[-1])
    cur += err
    return out
