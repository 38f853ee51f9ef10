"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately written with plain Python loops over
itertools enumerations so it shares no code path with the library: the
library contracts tensors with numpy, the oracles multiply scalars.
`half_rademacher` is the exception: it is the library's former chunked
numpy enumeration, kept to check the split-sum kernel at n too large for
the scalar loops.
"""

import itertools
import math

import numpy as np


def brute_eval(coeffs, points):
    """Multilinear expansion term by term."""
    coeffs = np.asarray(coeffs, dtype=float)
    total = 0.0
    for idx in itertools.product(*[range(d) for d in coeffs.shape]):
        term = float(coeffs[idx])
        for vec, j in zip(points, idx):
            term *= vec[j]
        total += term
    return total


def brute_sup(coeffs):
    """Exact sup norm by enumerating every sign-vertex combination."""
    coeffs = np.asarray(coeffs, dtype=float)
    dims = coeffs.shape
    best = 0.0
    count = 0
    for signs in itertools.product(
        *[itertools.product((-1.0, 1.0), repeat=d) for d in dims]
    ):
        count += 1
        best = max(best, abs(brute_eval(coeffs, signs)))
    return best, count


def brute_mixed(coeffs, blocks):
    """Nested mixed norm by direct recursion over block indices.

    `blocks` is a sequence of (size, exponent); a block's shared index
    ranges over the smallest support among the slots it covers.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    dims = coeffs.shape
    ranges = []
    pos = 0
    for n, _ in blocks:
        ranges.append(range(min(dims[pos:pos + n])))
        pos += n

    def nested(level, chosen):
        if level == len(blocks):
            idx = []
            for (n, _), i in zip(blocks, chosen):
                idx.extend([i] * n)
            return abs(float(coeffs[tuple(idx)]))
        q = blocks[level][1]
        return sum(nested(level + 1, chosen + [i]) ** q for i in ranges[level]) ** (1.0 / q)

    return nested(0, [])


def brute_rademacher(vectors, r, s):
    """Exact Rademacher s-average in l_r over all sign patterns."""
    vectors = [list(map(float, v)) for v in vectors]
    n = len(vectors)
    d = len(vectors[0])
    total = 0.0
    for eps in itertools.product((-1.0, 1.0), repeat=n):
        combo = [sum(e * vec[i] for e, vec in zip(eps, vectors)) for i in range(d)]
        norm = sum(abs(c) ** r for c in combo) ** (1.0 / r)
        total += norm ** s
    return (total / 2 ** n) ** (1.0 / s)


def half_rademacher(vectors, r, s):
    """Exact Rademacher s-average in l_r from the 2^(n-1) patterns whose
    last sign is +1, one chunk of explicit sign rows at a time."""
    mat = np.asarray(vectors, dtype=float)
    free, last = mat[:-1], mat[-1]
    total = 2 ** free.shape[0]
    chunk = 1 << 14
    partials = []
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        signs = 1.0 - 2.0 * ((idx[:, None] >> np.arange(free.shape[0])) & 1)
        sums = signs @ free + last
        norms = (np.abs(sums) ** r).sum(axis=1) ** (1.0 / r)
        partials.append(float((norms ** s).sum()))
    return (math.fsum(partials) / total) ** (1.0 / s)
