"""Independent reference values for checking benchmark outputs.

None of these call into mixnorms.  They use different algorithms from the
library so that a defect in a library kernel cannot also hide in its check:

* the sup norm maximises over the sign vectors of every slot but the last
  and takes the closed-form maximum over the last slot, which is the l1
  norm of the contracted vector (the form is affine in each slot);
* nested norms take the root at every level instead of carrying powers;
* Rademacher averages use the symmetry ||-v|| = ||v|| to fix the last sign
  and enumerate half of the patterns.
"""

from __future__ import annotations

import math

import numpy as np

#: Largest number of head sign combinations the closed-form sup enumerates.
MAX_HEAD_ROWS = 2 ** 22

#: Root of Gamma((p+1)/2) = sqrt(pi)/2 in (1.5, 2), the Khinchin branch point.
P0 = 1.8474163360763387

_CHUNK = 1 << 14


def sign_rows(d: int) -> np.ndarray:
    """All 2**d sign vectors of length d, one per row."""
    bits = (np.arange(2 ** d, dtype=np.int64)[:, None] >> np.arange(d)) & 1
    return 1.0 - 2.0 * bits


def head_rows(dims) -> int:
    """Sign combinations of every slot but the last."""
    return math.prod(2 ** d for d in dims[:-1])


def closed_form_sup(coeffs: np.ndarray) -> float | None:
    """Exact sup norm over the c0 unit balls, or None when the head grid
    exceeds MAX_HEAD_ROWS."""
    coeffs = np.asarray(coeffs, dtype=float)
    if head_rows(coeffs.shape) > MAX_HEAD_ROWS:
        return None
    arr = coeffs
    for d in coeffs.shape[:-1]:
        # Contract the leading data axis; sign axes collect at the back.
        arr = np.tensordot(arr, sign_rows(d), axes=(0, 1))
    last = arr.reshape(coeffs.shape[-1], -1)
    return float(np.abs(last).sum(axis=0).max())


def nested_norm(coeffs: np.ndarray, exponents) -> float:
    """Unblocked nested mixed norm, first exponent outermost."""
    vals = np.abs(np.asarray(coeffs, dtype=float))
    if vals.ndim != len(exponents):
        raise ValueError(f"{len(exponents)} exponents for a degree-{vals.ndim} tensor")
    for q in reversed(exponents):
        vals = (vals ** q).sum(axis=-1) ** (1.0 / q)
    return float(vals)


def rademacher_half(vectors: np.ndarray, r: float, s: float) -> float:
    """(mean over sign patterns of ||sum eps_k x_k||_r^s)^(1/s), enumerating
    the 2^(n-1) patterns whose last sign is +1."""
    mat = np.asarray(vectors, dtype=float)
    free, last = mat[:-1], mat[-1]
    n_free = free.shape[0]
    total = 2 ** n_free
    partials = []
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        signs = 1.0 - 2.0 * ((idx[:, None] >> np.arange(n_free)) & 1)
        sums = signs @ free + last
        norms = (np.abs(sums) ** r).sum(axis=1) ** (1.0 / r)
        partials.append(float((norms ** s).sum()))
    return (math.fsum(partials) / total) ** (1.0 / s)


def khinchin(p: float) -> float:
    """Sharp real Khinchin constant A_p for 1 <= p <= 2 (Haagerup's formula)."""
    if p <= P0:
        return 2.0 ** (0.5 - 1.0 / p)
    return math.sqrt(2.0) * (math.gamma((p + 1.0) / 2.0) / math.sqrt(math.pi)) ** (1.0 / p)


def cotype_lower(r: float) -> float:
    """2^(1/r - 1/2), the cotype-2 constant of l_r up to the branch point."""
    return 2.0 ** (1.0 / r - 0.5)


def rel_diff(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)
