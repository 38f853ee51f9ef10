"""Closed-form and recursive constants for the mixed-norm inequalities.

Three families live here:

* the sharp real Khinchin constants A_p comparing the l2 norm of
  coefficients with the p-average of a random sign combination, with the
  classical two-branch formula that switches at the root p0 of
  Gamma((p+1)/2) = sqrt(pi)/2;
* the (sqrt 2)^(m-1) baseline of the mixed (l1, l2) Littlewood inequality
  and the recursion C_m <= A_{(2m-2)/m}^{-1} C_{m-1} it combines with;
* interpolation of unblocked exponent tuples (harmonic mean coordinatewise,
  geometric mean of the constants), which turns the m mixed Littlewood
  tuples into the Bohnenblust-Hille exponent.

The sandwich C_{m-1} <= C_{2,(2m-2)/m,...} <= A_{(2m-2)/m}^{-1} C_{m-1}
has multiplicative width A_{(2m-2)/m}^{-1} -> 1, so the (2, q, ..., q)
constants grow like the Bohnenblust-Hille constants themselves;
`equivalence_gap` reports that width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .mixed_norms import ExponentTuple

_SQRT_PI = math.sqrt(math.pi)

#: Branch point of the Khinchin constant formulas, cached at x-tolerance 1e-13.
_P0_TOL = 1e-13

#: Largest degree `bh_upper_bound` accepts: its recursion takes one step
#: per degree, about 0.2 s at the cap.
MAX_BH_DEGREE = 10 ** 5


@dataclass(frozen=True)
class KhinchinValue:
    """A_p together with the closed-form branch that produced it."""

    p: float
    value: float
    regime: str  # "flat" (2^(1/2-1/p)) or "gamma" (sqrt2*(Gamma((p+1)/2)/sqrt(pi))^(1/p))


@dataclass(frozen=True)
class InterpolationResult:
    exponents: ExponentTuple
    constant_bound: float
    weights: tuple[float, ...]


@lru_cache(maxsize=None)
def solve_p0(tol: float) -> float:
    """Root of Gamma((p+1)/2) = sqrt(pi)/2 in (1.5, 2), located to within
    `tol` by bisection.

    The map p -> Gamma((p+1)/2) - sqrt(pi)/2 is positive at 1.5, crosses
    zero once at p0 ~ 1.84742, stays negative up to the second root at
    p = 2; bisection keeps the positive side on the left, so it converges
    to the interior root.  The residual at the result is also <= tol
    (the derivative has magnitude < 1 near the root).
    """
    if not tol > 0:  # also rejects NaN
        raise ValueError(f"tolerance must be positive, got {tol}")
    target = _SQRT_PI / 2.0
    lo, hi = 1.5, 2.0
    for _ in range(200):  # bracket reaches float resolution long before this
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if math.gamma((mid + 1.0) / 2.0) - target > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _khinchin_flat(p: float) -> float:
    return 2.0 ** (0.5 - 1.0 / p)


def _khinchin_gamma(p: float) -> float:
    return math.sqrt(2.0) * (math.gamma((p + 1.0) / 2.0) / _SQRT_PI) ** (1.0 / p)


def khinchin_A(p: float) -> KhinchinValue:
    """Sharp real Khinchin constant A_p for 0 < p <= 2.

    Below the branch point the two-point witness (equal weights on two
    signs) is extremal and A_p = 2^(1/2-1/p); above it the Gaussian
    witness takes over and A_p = sqrt2*(Gamma((p+1)/2)/sqrt(pi))^(1/p).
    The branches agree at the branch point by its defining equation.
    """
    if not 0.0 < p <= 2.0:
        raise ValueError(f"Khinchin constant defined for 0 < p <= 2, got {p}")
    p0 = solve_p0(_P0_TOL)
    if p <= p0:
        return KhinchinValue(p, _khinchin_flat(p), "flat")
    return KhinchinValue(p, _khinchin_gamma(p), "gamma")


def sqrt2_baseline(m: int) -> float:
    """(sqrt 2)^(m-1): the degree-m mixed (l1, l2) Littlewood constant."""
    if m < 1:
        raise ValueError(f"degree must be >= 1, got {m}")
    return 2.0 ** ((m - 1) / 2.0)


def interpolate(
    tuples: Sequence[ExponentTuple],
    weights: Sequence[float],
    constants: Sequence[float],
) -> InterpolationResult:
    """Interpolate unblocked exponent tuples of a common degree.

    Coordinate j of the output satisfies 1/q_j = sum_i w_i / q_j^(i) and
    the constant bound is the weighted geometric mean prod c_i^(w_i).
    Weights must be nonnegative and sum to 1.
    """
    if not tuples:
        raise ValueError("need at least one exponent tuple")
    if len(weights) != len(tuples) or len(constants) != len(tuples):
        raise ValueError("tuples, weights and constants must have equal length")
    degree = tuples[0].degree
    for t in tuples:
        if not t.is_unblocked:
            raise ValueError(f"interpolation needs unblocked tuples, got {t}")
        if t.degree != degree:
            raise ValueError(f"degree mismatch: {t.degree} vs {degree}")
    if any(not w >= 0 for w in weights):  # also rejects NaN
        raise ValueError(f"weights must be nonnegative, got {list(weights)}")
    total = math.fsum(weights)
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"weights must sum to 1 (got {total!r})")
    if any(not 0 < c < math.inf for c in constants):
        raise ValueError(f"constants must be finite and positive, got {list(constants)}")

    mixed = []
    for j in range(degree):
        inv = math.fsum(w / t.exponents[j] for w, t in zip(weights, tuples))
        mixed.append(1.0 / inv)
    bound = math.exp(math.fsum(w * math.log(c) for w, c in zip(weights, constants)))
    return InterpolationResult(
        ExponentTuple.unblocked(mixed), bound, tuple(float(w) for w in weights)
    )


def bh_upper_bound(m: int) -> float:
    """Upper bound for the degree-m Bohnenblust-Hille constant from the
    Khinchin recursion C_1 = 1, C_m = A_{(2m-2)/m}^{-1} C_{m-1}."""
    if m < 1:
        raise ValueError(f"degree must be >= 1, got {m}")
    if m > MAX_BH_DEGREE:
        raise ValueError(f"degree must be <= {MAX_BH_DEGREE}, got {m}")
    bound = 1.0
    for j in range(2, m + 1):
        bound /= khinchin_A((2.0 * j - 2.0) / j).value
    return bound


def equivalence_gap(m: int) -> float:
    """Multiplicative width A_{(2m-2)/m}^{-1} of the sandwich relating the
    degree-(m-1) Bohnenblust-Hille constant to the (2, q, ..., q) mixed
    constant.  Tends to 1 as m grows, so the two sequences are
    asymptotically equivalent."""
    if m < 2:
        raise ValueError(f"gap defined for degree >= 2, got {m}")
    return 1.0 / khinchin_A((2.0 * m - 2.0) / m).value
