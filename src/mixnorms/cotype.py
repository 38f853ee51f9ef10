"""Exact Rademacher averages and cotype-2 ratios of finite families in l_r.

The cotype-2 inequality with average exponent s bounds
(sum_k ||x_k||^2)^(1/2) by a constant times the s-average of
||sum_k eps_k x_k|| over independent signs eps.  For finitely many
vectors the average over [0,1] of the Rademacher combination equals the
uniform average over all 2^n sign patterns, which this module enumerates
exactly (capped at n = 24; no sampling fallback).  Every pattern's sum is
one entry of a half table for the high vectors plus one entry of a half
table for the low ones, so no sign row is ever built per pattern.

For l_r with 1 <= r <= 2 the smallest constant is known in closed form up
to the Khinchin branch point p0 ~ 1.84742: it equals 2^(1/r - 1/2) for
r <= p0, and for r > p0 that value is still a lower bound while
(1/sqrt2)*(Gamma((r+1)/2)/sqrt(pi))^(-1/r) bounds it above.  The pair
x1 = (1, 1), x2 = (1, -1) attains the lower bound for every s, since all
four sign combinations land on a vector of norm 2.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sized
from dataclasses import dataclass

import numpy as np

from .constants import _P0, _khinchin_gamma
from .forms import (  # noqa: F401 (read by bench/tests)
    _CHUNK, MultilinearForm, _is_number, _map_blocks, _sign_vertices, sup_norm,
)
from .mixed_norms import ExponentTuple, _nested_norm, _outer_sums
from .search import certify

#: Exact sign enumeration bound: instances with more vectors are rejected.
MAX_ENUM_VECTORS = 24

#: r within this distance above the branch point still counts as sharp.
SHARP_EDGE = 1e-9


@dataclass(frozen=True)
class CotypeInstance:
    """A finite vector family in l_r with its exact cotype-2 ratio for
    average exponent s: lhs = (sum ||x_k||_r^2)^(1/2), rhs = the exact
    Rademacher s-average, ratio = lhs/rhs."""

    r: float
    s: float
    vectors: np.ndarray
    lhs: float
    rhs: float
    ratio: float


@dataclass(frozen=True)
class CotypeBounds:
    r: float
    lower: float
    upper: float
    sharp: bool  # lower == upper, i.e. r at or below the branch point


def _as_matrix(vectors) -> np.ndarray:
    try:
        mat = np.asarray(vectors, dtype=float)
    except ValueError:  # lengths are read only once numpy has refused the family
        # A 0-d array is Sized but has no length.
        lengths = [len(v) for v in vectors if isinstance(v, Sized) and getattr(v, "ndim", 1) == 1]
        if len(set(lengths)) > 1:
            raise ValueError(f"vectors must share one dimension, got lengths {lengths}") from None
        raise ValueError("vectors must be a list of equal-length lists of numbers") from None
    if mat.ndim != 2 or mat.shape[0] < 1 or mat.shape[1] < 1:
        raise ValueError("need n >= 1 vectors of a common dimension d >= 1")
    if not np.all(np.isfinite(mat)):
        raise ValueError("vector entries must be finite")
    return mat


def rademacher_average(vectors, r: float, s: float) -> float:
    """(mean over all 2^n sign patterns of ||sum eps_k x_k||_r^s)^(1/s).

    Exact enumeration by split sums; n is capped at MAX_ENUM_VECTORS.
    Since ||-v|| = ||v||, the last sign is fixed at +1 and only the
    2^(n-1) patterns of the others are enumerated.  The free vectors split
    into a low half (the first lo = (n-1)//2) and a high half; the half
    tables A = signs_hi @ X_hi + x_last and B = signs_lo @ X_lo hold at
    most 2^12 rows each, and the pattern with high part j and low part l
    sums to A[j] + B[l].  Blocks of A rows against all of B keep the two
    buffers of a block at forms._CHUNK entries whatever n is.  Each block
    holds the patterns' sums of |.|^r over coordinates, and `_outer_sums`
    of the mixed-norm kernel takes them to the outer (s, r) level, p^(s/r).
    From n = 17 on there are several blocks, and `_map_blocks` shares them
    between the caller and its helper threads, each with its own buffers;
    `math.fsum` of the block sums makes the average independent of their
    order.
    """
    mat = _as_matrix(vectors)
    n, d = mat.shape
    if n > MAX_ENUM_VECTORS:
        raise ValueError(f"exact enumeration capped at {MAX_ENUM_VECTORS} vectors, got {n}")
    if not 1.0 <= r < math.inf:  # also rejects NaN
        raise ValueError(f"need r >= 1 (finite), got {r}")
    if not 0.0 < s < math.inf:
        raise ValueError(f"need s > 0 (finite), got {s}")
    lo = (n - 1) // 2
    free, last = mat[:-1], mat[-1]
    # Coordinate-major, so each coordinate's block is one broadcast add.
    high = np.ascontiguousarray((_sign_vertices(n - 1 - lo) @ free[lo:] + last).T)
    low = np.ascontiguousarray((_sign_vertices(lo) @ free[:lo]).T)
    n_high, width = high.shape[1], low.shape[1]
    step = min(n_high, _CHUNK // width)  # powers of two: the blocks tile A

    def block(start: int) -> float:
        acc, term = np.empty((2, step, width))
        # Summing coordinates in order matches numpy's row sum for d < 8.
        for i in range(d):
            out = term if i else acc
            np.add(high[i, start:start + step, None], low[i], out=out)
            np.abs(out, out=out)
            if r != 1.0:
                out **= r
            if i:
                acc += term
        return float(_outer_sums(acc, (s, r)).sum())

    partials = _map_blocks(block, range(0, n_high, step))
    return (math.fsum(partials) / 2 ** (n - 1)) ** (1.0 / s)


def cotype_ratio(vectors, r: float, s: float) -> float:
    """Smallest constant making the cotype-2 inequality hold for this
    family: (sum ||x_k||_r^2)^(1/2) divided by the Rademacher s-average."""
    return make_instance(vectors, r, s).ratio


def make_instance(vectors, r: float, s: float) -> CotypeInstance:
    mat = _as_matrix(vectors)
    if not np.any(mat):
        raise ValueError("cotype ratio undefined for an all-zero family")
    with np.errstate(over="ignore", under="ignore"):
        rhs = rademacher_average(mat, r, s)  # first: it validates r and s
        lhs = _nested_norm(mat, (2.0, r))
    # Both sides of a nonzero family are positive and finite; anything else
    # means a power overflowed or underflowed float64.
    if not (0.0 < lhs < math.inf and 0.0 < rhs < math.inf):
        raise ValueError(f"cotype sides of this family under r = {r}, s = {s} "
                         "fall outside float64 range")
    mat = mat.copy()
    mat.flags.writeable = False
    return CotypeInstance(float(r), float(s), mat, lhs, rhs, lhs / rhs)


def extremal_instance(r: float) -> CotypeInstance:
    """The pair (1, 1), (1, -1) in l_r with s = r; every sign pattern gives
    a vector of norm 2, so the ratio is exactly 2^(1/r - 1/2) regardless
    of the average exponent."""
    return make_instance([[1.0, 1.0], [1.0, -1.0]], r, r)


def cotype_bounds(r: float) -> CotypeBounds:
    """Best known bounds for the cotype-2 constant of l_r, 1 <= r <= 2.

    The lower bound 2^(1/r - 1/2) holds for every average exponent; it is
    the exact constant up to the branch point, and above it the reciprocal
    of the gamma-branch Khinchin constant bounds from above.
    """
    if not 1.0 <= r <= 2.0:
        raise ValueError(f"bounds defined for 1 <= r <= 2, got {r}")
    lower = 2.0 ** (1.0 / r - 0.5)
    sharp = r <= _P0 + SHARP_EDGE
    # max() only absorbs rounding noise: the true constant is >= lower, so
    # raising a computed upper bound to lower keeps it valid (at r = 2 the
    # gamma branch evaluates one ulp below 1).
    upper = lower if sharp else max(lower, 1.0 / _khinchin_gamma(r))
    return CotypeBounds(float(r), lower, upper, sharp)


def bilinear_cotype_certificate(form: MultilinearForm, r: float) -> float:
    """Certified lower bound for the cotype-2 constant of l_r from one
    bilinear form: its (2, r) mixed norm over its sup norm.

    Fixing the second argument at basis vectors turns the form into an
    operator into l_r whose norm is at most the form's; the cotype
    inequality applied to its basis images then yields exactly this ratio
    as a lower bound.
    """
    if form.degree != 2:
        raise ValueError(f"certificate needs a bilinear form, got degree {form.degree}")
    if not 1.0 <= r <= 2.0:
        raise ValueError(f"certificate defined for 1 <= r <= 2, got {r}")
    return certify(form, ExponentTuple(((1, 2.0), (1, float(r))))).ratio


# ---------------------------------------------------------------------------
# JSON instance files: { "r": v, "s": v, "vectors": [[...], [...]] }
# ---------------------------------------------------------------------------

def instance_from_dict(doc: dict) -> CotypeInstance:
    try:
        r, s, vectors = doc["r"], doc["s"], doc["vectors"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"instance document needs r, s and vectors: {exc}") from exc
    if not (_is_number(r) and _is_number(s)):
        raise ValueError(f"instance r and s must be numbers, got {r!r}, {s!r}")
    if not (isinstance(vectors, list)
            and all(isinstance(v, list) and all(map(_is_number, v)) for v in vectors)):
        raise ValueError("instance vectors must be a list of lists of numbers")
    return make_instance(vectors, r, s)


def load_instance(path) -> CotypeInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_dict(json.load(fh))
