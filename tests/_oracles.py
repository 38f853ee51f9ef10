"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately written with plain Python loops over
itertools enumerations so it shares no code path with the library: the
library contracts tensors with numpy, the oracles multiply scalars.
`half_rademacher`, `sequential_ascent_sup` and `sequential_optimize` are
the exceptions: they are the library's former chunked numpy enumeration,
its former one-restart-at-a-time sup-norm ascent and its former restart
loop without a climb memo, kept to check the split-sum and lockstep
kernels and the memoised search.  `reference_ratio` is the public
certificate path, against which the search's own ratio model is checked.
"""

import itertools
import math

import numpy as np

from mixnorms import MultilinearForm, certify
from mixnorms.forms import _random_signs
from mixnorms.search import _Moves, _climb, _refine


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


def _slot_gradient(coeffs, signs, slot):
    """Contract every slot except `slot` with its sign vector."""
    arr = coeffs
    for axis in range(coeffs.ndim - 1, -1, -1):
        if axis != slot:
            arr = np.tensordot(arr, signs[axis], axes=(axis, 0))
    return arr


def _ascent(coeffs, rng, max_evals):
    """One run of alternating sign ascent from a random vertex; a step is
    accepted only when it changes a sign and raises the value."""
    dims = coeffs.shape
    signs = [1.0 - 2.0 * rng.integers(0, 2, size=d).astype(float) for d in dims]
    val = coeffs
    for v in signs:
        val = np.tensordot(v, val, axes=(0, 0))
    value = abs(float(val))
    evals = 1
    improved = True
    while improved:
        improved = False
        for slot in range(coeffs.ndim):
            if evals + dims[slot] > max_evals:
                return value, evals
            grad = _slot_gradient(coeffs, signs, slot)
            evals += dims[slot]
            new_signs = np.where(grad > 0, 1.0, np.where(grad < 0, -1.0, signs[slot]))
            new_value = float(np.dot(new_signs, grad))
            if new_value > value and not np.array_equal(new_signs, signs[slot]):
                signs[slot] = new_signs
                value = new_value
                improved = True
    return value, evals


def sequential_ascent_sup(coeffs, budget, restarts=32, seed=7):
    """(best value, evaluations) of the heuristic sup norm, its restarts
    run one after another, restart k seeded with (seed, k) and given the
    budget the earlier ones left."""
    coeffs = np.asarray(coeffs, dtype=float)
    best = 0.0
    used = 0
    for k in range(restarts):
        if used >= budget:
            break
        value, evals = _ascent(coeffs, np.random.default_rng((seed, k)), budget - used)
        used += evals
        best = max(best, value)
    return best, used


def reference_ratio(coeffs, exps):
    """mixed/sup ratio of a tensor through `certify`; -inf for the zero
    tensor, which has no certificate."""
    if not np.any(coeffs):
        return -math.inf
    return certify(MultilinearForm(coeffs), exps).ratio


def sequential_optimize(dims, exps, budget, seed, restarts=None, refine=False):
    """(witness, ratio) of `optimize_ratio`'s restarts with no climb memo:
    restart k draws its start from seed + k, climbs it with the budget the
    earlier restarts left and, with `refine`, polishes it; ties between
    restarts go to the later seed."""
    dims = tuple(dims)
    moves = _Moves(dims, exps)
    best_key = best_coeffs = None
    used = 0
    k = 0
    while used < budget and (restarts is None or k < restarts):
        coeffs, ratio, spent = _climb(_random_signs(dims, seed + k), moves, budget - used)
        used += spent
        if refine and used < budget:
            coeffs, ratio, spent = _refine(coeffs, lambda c: reference_ratio(c, exps),
                                           budget - used)
            used += spent
        if best_key is None or (ratio, seed + k) > best_key:
            best_key = (ratio, seed + k)
            best_coeffs = coeffs.copy()
        k += 1
    return best_coeffs, best_key[0]
