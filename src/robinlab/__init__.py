"""Desk-scale toolkit for divisor-sum bounds, Euler products, and prime gaps.

The pieces: a segmented prime sieve with the log-weighted prime sum, exact
factorization and sum-of-divisors arithmetic below 2**64, ratio-scale checks
of the exp(gamma) log log n divisor bound, partial Euler products with
rigorous zeta tails, and the prime-gap series whose running supremum feeds a
pointwise theta inequality. Every long accumulation is compensated and runs
in a fixed ascending order, so results are reproducible to the bit.
"""

from .arithmetic import (
    Factorization,
    SigmaTable,
    factorize,
    factorize_all,
    is_prime,
    sigma_of,
    sigma_sieve,
)
from .errors import CapacityError
from .euler_products import (
    ConditionVerdict,
    DeficitVerdict,
    Interval,
    SweepSummary,
    condition_sweep,
    deficit_condition,
    mertens_deviation,
    mertens_product_log,
    product_condition,
    tail_bound_log,
    zeta_enclosure,
)
from .gap_series import (
    GapSeriesState,
    ThetaCheckResult,
    equivalence_check,
    gap_term,
    series_scan,
    theta_bound_constants,
    theta_inequality_check,
)
from .primes import (
    PrimeTable,
    ThetaRecord,
    chebyshev_theta,
    nth_prime,
    prime_gap,
    primes_in_range,
    primes_up_to,
    table_for_count,
)
from .robin import (
    EULER_GAMMA,
    EXP_GAMMA,
    RAMANUJAN_LIMSUP,
    BOUND_VARIANTS,
    RobinEvaluation,
    RobinRow,
    ScanResult,
    bound_rhs,
    extremal_candidates,
    ramanujan_constant,
    robin_check,
    robin_delta,
    scan_range,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "ConditionVerdict",
    "DeficitVerdict",
    "EULER_GAMMA",
    "EXP_GAMMA",
    "Factorization",
    "GapSeriesState",
    "Interval",
    "PrimeTable",
    "RAMANUJAN_LIMSUP",
    "BOUND_VARIANTS",
    "RobinEvaluation",
    "RobinRow",
    "ScanResult",
    "SigmaTable",
    "SweepSummary",
    "ThetaCheckResult",
    "ThetaRecord",
    "bound_rhs",
    "chebyshev_theta",
    "condition_sweep",
    "deficit_condition",
    "equivalence_check",
    "extremal_candidates",
    "factorize",
    "factorize_all",
    "gap_term",
    "is_prime",
    "mertens_deviation",
    "mertens_product_log",
    "nth_prime",
    "prime_gap",
    "primes_in_range",
    "primes_up_to",
    "product_condition",
    "ramanujan_constant",
    "robin_check",
    "robin_delta",
    "scan_range",
    "series_scan",
    "sigma_of",
    "sigma_sieve",
    "table_for_count",
    "tail_bound_log",
    "theta_bound_constants",
    "theta_inequality_check",
    "zeta_enclosure",
]
