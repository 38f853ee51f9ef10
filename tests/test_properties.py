"""Property-based differential tests of the exact kernels.

The exact sup norm, the nested mixed norm and the climb's ratio function
are checked against the brute-force oracles and the certificate on random
dims, with the largest slot (and ties) in every position, and the climb's
batched move scores against the ratio function of each moved tensor.  The
split-sum Rademacher average is checked against the full enumeration.
Hypothesis runs derandomized with a bounded number of examples, so the
suite stays deterministic and fast.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mixnorms import (
    ExponentTuple,
    MultilinearForm,
    certify,
    mixed_norm,
    rademacher_average,
    sup_norm,
)
from mixnorms.mixed_norms import _nested_norm, _outer_sums
from mixnorms.search import _Moves, _climb, _fast_ratio_fn

from _oracles import brute_mixed, brute_rademacher, brute_sup

PROPERTY = settings(max_examples=30, derandomize=True, deadline=None, database=None)

#: Degree 1-4, each support size 1-4, at most 2^12 sign vertices.
DIMS = st.lists(st.integers(1, 4), min_size=1, max_size=4).filter(lambda d: sum(d) <= 12)

SEEDS = st.integers(0, 2 ** 32 - 1)


def _coeffs(dims, seed, integer):
    """{-1, 0, +1} or Gaussian coefficients; at least one entry is nonzero."""
    rng = np.random.default_rng(seed)
    if integer:
        coeffs = rng.integers(-1, 2, size=dims).astype(float)
    else:
        coeffs = rng.standard_normal(dims)
    coeffs.flat[0] = coeffs.flat[0] or 1.0
    return coeffs


@PROPERTY
@given(dims=DIMS, seed=SEEDS, integer=st.booleans())
@example(dims=[4, 1, 1], seed=1, integer=True)
@example(dims=[1, 4, 1], seed=2, integer=False)
@example(dims=[1, 1, 4], seed=3, integer=True)
@example(dims=[3, 3, 1], seed=4, integer=False)
@example(dims=[1, 3, 3], seed=5, integer=True)
@example(dims=[2, 3, 2, 3], seed=6, integer=False)
@example(dims=[4], seed=7, integer=True)
def test_exact_sup_matches_brute_force(dims, seed, integer):
    coeffs = _coeffs(dims, seed, integer)
    result = sup_norm(MultilinearForm(coeffs))
    expected, count = brute_sup(coeffs)
    assert result.exact is True
    assert result.evaluations == count == 2 ** sum(dims)
    if integer:
        assert result.value == expected  # small integers: no rounding at all
    else:
        assert math.isclose(result.value, expected, rel_tol=1e-12)


def _exponent_tuple(draw, degree):
    """Random blocks covering `degree` slots, exponents in [1, 3]."""
    blocks = []
    left = degree
    while left:
        n = draw(st.integers(1, left))
        blocks.append((n, draw(st.sampled_from([1.0, 4 / 3, 1.5, 2.0, 3.0]))))
        left -= n
    return ExponentTuple(tuple(blocks))


@pytest.mark.filterwarnings("ignore::mixnorms.RaggedBlockWarning")
@PROPERTY
@given(data=st.data(), dims=DIMS, seed=SEEDS, integer=st.booleans())
def test_fast_ratio_matches_certificate(data, dims, seed, integer):
    coeffs = _coeffs(dims, seed, integer)
    exps = _exponent_tuple(data.draw, len(dims))
    fast = _fast_ratio_fn(exps)(coeffs)
    cert = certify(MultilinearForm(coeffs), exps)
    assert fast == cert.ratio  # one nested-norm kernel and one sup kernel


@pytest.mark.filterwarnings("ignore::mixnorms.RaggedBlockWarning")
@PROPERTY
@given(data=st.data(), dims=DIMS, seed=SEEDS, integer=st.booleans())
def test_mixed_norm_matches_brute_force(data, dims, seed, integer):
    coeffs = _coeffs(dims, seed, integer)
    exps = _exponent_tuple(data.draw, len(dims))
    value = mixed_norm(MultilinearForm(coeffs), exps)
    assert math.isclose(value, brute_mixed(coeffs, exps.blocks), rel_tol=1e-13)


@PROPERTY
@given(data=st.data(), dims=DIMS, seed=SEEDS, batch=st.integers(1, 4))
def test_outer_sums_batch_independent_tensors(data, dims, seed, batch):
    exponents = [data.draw(st.sampled_from([1.0, 4 / 3, 1.5, 2.0, 3.0])) for _ in dims]
    stack = np.stack([_coeffs(dims, seed + b, False) for b in range(batch)])
    batched = _outer_sums((np.abs(stack) ** exponents[-1]).sum(axis=-1), exponents)
    for b in range(batch):
        # The root stays a scalar power, as in `_nested_norm` and the climb.
        assert float(batched[b] ** (1.0 / exponents[0])) == _nested_norm(stack[b], exponents)


@PROPERTY
@given(n=st.integers(1, 10), d=st.integers(1, 5), seed=SEEDS,
       r=st.one_of(st.just(2.0), st.floats(1.0, 3.0)), s=st.floats(0.3, 4.0))
@example(n=1, d=3, seed=1, r=1.0, s=1.0)   # lo = 0: the low table is one zero row
@example(n=2, d=1, seed=2, r=2.0, s=0.3)
@example(n=9, d=5, seed=3, r=3.0, s=4.0)   # n - 1 even: halves of equal width
@example(n=10, d=2, seed=4, r=1.5, s=2.0)  # n - 1 odd: the high half is wider
def test_rademacher_average_matches_brute_force(n, d, seed, r, s):
    vectors = np.random.default_rng(seed).standard_normal((n, d))
    expected = brute_rademacher(vectors.tolist(), r, s)
    assert math.isclose(rademacher_average(vectors, r, s), expected, rel_tol=1e-12)


def test_zero_form():
    zero = np.zeros((2, 3))
    assert _fast_ratio_fn(ExponentTuple.parse("1,2"))(zero) == -math.inf
    result = sup_norm(MultilinearForm(zero))
    assert (result.value, result.exact, result.evaluations) == (0.0, True, 32)


def _sign_tensor(dims, seed, zeros):
    """{-1, 0, +1} tensor with about a `zeros` share of zero entries."""
    rng = np.random.default_rng(seed)
    return rng.choice([-1.0, 0.0, 1.0], size=dims, p=[(1 - zeros) / 2, zeros, (1 - zeros) / 2])


ZEROS = st.sampled_from([0.0, 0.3, 0.9, 1.0])


@st.composite
def _dims_and_tuple(draw):
    dims = draw(DIMS)
    return dims, _exponent_tuple(draw, len(dims))


@pytest.mark.filterwarnings("ignore::mixnorms.RaggedBlockWarning")
@PROPERTY
@given(case=_dims_and_tuple(), seed=SEEDS, zeros=ZEROS)
@example(case=([2, 2, 2], ExponentTuple.parse("2:1|1:2")), seed=0, zeros=0.9)
@example(case=([3, 2, 2], ExponentTuple.parse("2:1|1:2")), seed=1, zeros=0.3)  # ragged block
def test_move_scores_match_ratio_of_moved_tensor(case, seed, zeros):
    dims, exps = case
    coeffs = _sign_tensor(dims, seed, zeros)
    ratio = _fast_ratio_fn(exps)
    moves = _Moves(tuple(dims), exps)
    state = moves.start(coeffs)
    flat = coeffs.ravel()
    assert moves.base(state) == ratio(coeffs)
    sups, nested = moves.score(flat, state, 0, flat.size)
    for i, old in enumerate(flat.tolist()):
        alternatives = [v for v in (-1.0, 0.0, 1.0) if v != old]
        for a, value in enumerate(alternatives):
            moved = coeffs.copy()
            moved.flat[i] = value
            assert moves.ratio(sups[i][a], nested[i, a]) == ratio(moved)  # exact, or both -inf
        part_sups, part_nested = moves.score(flat, state, i // 2, i + 1)
        assert part_sups == sups[i // 2:i + 1]
        assert np.array_equal(part_nested, nested[i // 2:i + 1])


def test_move_to_the_zero_tensor_scores_minus_inf():
    coeffs = np.zeros((2, 3))
    coeffs[1, 2] = -1.0
    moves = _Moves((2, 3), ExponentTuple.parse("1,2"))
    sups, nested = moves.score(coeffs.ravel(), moves.start(coeffs), 5, 6)
    to_zero, to_one = (moves.ratio(sup, n) for sup, n in zip(sups[0], nested[0]))
    assert (to_zero, to_one) == (-math.inf, 1.0)


@pytest.mark.filterwarnings("ignore::mixnorms.RaggedBlockWarning")
@PROPERTY
@given(data=st.data(), case=_dims_and_tuple(), seed=SEEDS, zeros=ZEROS)
def test_applied_moves_keep_the_state_exact(data, case, seed, zeros):
    dims, exps = case
    coeffs = _sign_tensor(dims, seed, zeros)
    moves = _Moves(tuple(dims), exps)
    state = moves.start(coeffs)
    flat = coeffs.ravel()
    for _ in range(data.draw(st.integers(1, 12))):
        moves.move(flat, state, data.draw(st.integers(0, flat.size - 1)),
                   data.draw(st.sampled_from([-1.0, 0.0, 1.0])))
    for kept, fresh in zip(state, moves.start(coeffs)):
        assert np.array_equal(kept, fresh)


def _reference_climb(coeffs, ratio_fn, budget):
    """The climb written per candidate: every tried value rebuilds the ratio."""
    current = ratio_fn(coeffs)
    used = 1
    flat = coeffs.ravel()
    improved = True
    while improved and used < budget:
        improved = False
        for i in range(flat.size):
            old = flat[i]
            for candidate in (-1.0, 0.0, 1.0):
                if candidate == old:
                    continue
                if used >= budget:
                    return coeffs, current, used
                flat[i] = candidate
                trial = ratio_fn(coeffs)
                used += 1
                if trial > current:
                    current, old, improved = trial, candidate, True
                else:
                    flat[i] = old
    return coeffs, current, used


@pytest.mark.filterwarnings("ignore::mixnorms.RaggedBlockWarning")
@PROPERTY
@given(case=_dims_and_tuple(), seed=SEEDS, zeros=ZEROS,
       budget=st.integers(1, 400), block=st.sampled_from([None, 1, 2, 5]))
def test_climb_follows_the_per_candidate_trajectory(case, seed, zeros, budget, block):
    dims, exps = case
    coeffs = _sign_tensor(dims, seed, zeros)
    moves = _Moves(tuple(dims), exps)
    if block is not None:
        moves.block = block  # scoring in small blocks crosses block edges often
    got = _climb(coeffs.copy(), moves, budget)
    want = _reference_climb(coeffs.copy(), _fast_ratio_fn(exps), budget)
    assert np.array_equal(got[0], want[0])
    assert got[1:] == want[1:]
