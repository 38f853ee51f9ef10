"""Property-based differential tests of the exact kernels.

The exact sup norm and the nested mixed norm are checked against the
brute-force oracles, and the search's ratio model against the certificate,
on random dims with the largest slot (and ties) in every position; the
climb's batched move scores are checked against the certificate's ratio
of each moved tensor.
`sup_norm` is exact exactly when the exact kernel's work fits its budget.  The
split-sum Rademacher average is checked against the full enumeration, and
the lockstep heuristic sup norm against its restarts run one by one.  The
climb returns the same result under every budget it did not reach, and
the optimizer's climb memo changes no result of the restart loop.
Hypothesis runs derandomized with a bounded number of examples, so the
suite stays deterministic and fast.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mixnorms import (
    ExponentTuple,
    MultilinearForm,
    certify,
    mixed_norm,
    optimize_ratio,
    rademacher_average,
    search,
    sup_norm,
)
from mixnorms.forms import _ascent_sup
from mixnorms.mixed_norms import _nested_norm, _outer_sums
from mixnorms.search import _Moves, _climb

from _oracles import (
    brute_mixed,
    brute_rademacher,
    brute_sup,
    reference_ratio,
    sequential_ascent_sup,
    sequential_optimize,
)

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


def _exact_work(dims) -> int:
    """`_exact_sup`'s work: its sign patterns times max(dims) l1 terms each."""
    top = max(dims)
    return top * 2 ** (sum(dims) - top - len(dims) + 1)


@PROPERTY
@given(dims=DIMS, seed=SEEDS, offset=st.integers(-3, 3))
@example(dims=[4, 4, 4], seed=0, offset=0)
@example(dims=[4, 4, 4], seed=1, offset=-1)
@example(dims=[2, 3, 1, 2], seed=2, offset=0)
@example(dims=[4], seed=3, offset=-1)
@example(dims=[1, 1], seed=4, offset=0)
def test_sup_norm_is_exact_iff_the_exact_work_fits(dims, seed, offset):
    # Budgets on both sides of the work, far below the grid of 2^sum(dims).
    coeffs = _coeffs(dims, seed, integer=True)
    budget = max(1, _exact_work(dims) + offset)
    result = sup_norm(MultilinearForm(coeffs), budget=budget)
    assert result.exact is (_exact_work(dims) <= budget)
    if 2 ** sum(dims) <= budget:
        assert result.exact  # exact under the full-grid rule stays exact
    if result.exact:
        assert (result.value, result.evaluations) == brute_sup(coeffs)


@PROPERTY
@given(dims=DIMS.filter(lambda d: sum(d) <= 10 and max(d) > 1), seed=SEEDS,
       integer=st.booleans(), share=st.floats(0.0, 1.0))
@example(dims=[2], seed=0, integer=True, share=1.0)
@example(dims=[2, 1, 1, 1], seed=1, integer=False, share=1.0)
@example(dims=[4, 1, 3], seed=2, integer=True, share=1.0)
@example(dims=[1, 4], seed=3, integer=False, share=0.5)
def test_heuristic_sup_matches_sequential_restarts(dims, seed, integer, share):
    # Every budget below the exact kernel's work, from 1 (share 0) to work - 1
    # (share 1); all-ones dims have work 1 and never reach the ascent here.
    coeffs = _coeffs(dims, seed, integer)
    budget = 1 + int(share * (_exact_work(dims) - 2))
    result = sup_norm(MultilinearForm(coeffs), budget=budget)
    value, evaluations = sequential_ascent_sup(coeffs, budget)
    assert result.exact is False
    assert result.evaluations <= budget
    if integer:
        assert (result.value, result.evaluations) == (value, evaluations)
    else:
        assert math.isclose(result.value, value, rel_tol=1e-12)
        assert result.value <= brute_sup(coeffs)[0] * (1 + 1e-12)


@PROPERTY
@given(dims=st.lists(st.integers(1, 7), min_size=1, max_size=4), seed=SEEDS,
       integer=st.booleans(), budget=st.integers(1, 10 ** 6))
@example(dims=[7, 1, 7, 1], seed=4, integer=True, budget=10 ** 6)
@example(dims=[7, 7, 7, 7], seed=5, integer=False, budget=10 ** 6)
def test_lockstep_ascent_matches_sequential_restarts(dims, seed, integer, budget):
    # The ascent itself, past the exact-sup dispatch: budgets can let every restart converge.
    coeffs = _coeffs(dims, seed, integer)
    got = _ascent_sup(coeffs, budget)
    value, evaluations = sequential_ascent_sup(coeffs, budget)
    if integer:
        assert got == (value, evaluations)
    else:
        assert math.isclose(got[0], value, rel_tol=1e-12)


def _exponent_tuple(draw, degree):
    """Random blocks covering `degree` slots, exponents in [1, 3]."""
    blocks = []
    left = degree
    while left:
        n = draw(st.integers(1, left))
        blocks.append((n, draw(st.sampled_from([1.0, 4 / 3, 1.5, 2.0, 3.0]))))
        left -= n
    return ExponentTuple(tuple(blocks))


@st.composite
def _long_slot_case(draw):
    """Degree 1-4, one slot of support 1-12 anywhere and the others 1-4,
    and an exponent tuple: the ratio model sums its row l1 norms down the
    largest slot, which numpy would sum pairwise along a fast axis of 8
    or more entries."""
    dims = draw(st.lists(st.integers(1, 4), min_size=0, max_size=3))
    dims.insert(draw(st.integers(0, len(dims))), draw(st.integers(1, 12)))
    return dims, _exponent_tuple(draw, len(dims))


@pytest.mark.filterwarnings("ignore::mixnorms.RaggedBlockWarning")
@settings(PROPERTY, max_examples=100)
@given(case=_long_slot_case(), seed=SEEDS)
@example(case=([8, 8], ExponentTuple.parse("1.5,1.5")), seed=0)
@example(case=([3, 9], ExponentTuple.parse("2:1")), seed=1)  # one ragged block
@example(case=([2, 12, 3], ExponentTuple.parse("2:4/3|1:2")), seed=2)  # ragged block
@example(case=([12], ExponentTuple.parse("3")), seed=3)  # degree 1
def test_ratio_model_matches_certificate(case, seed):
    dims, exps = case
    coeffs = np.random.default_rng(seed).standard_normal(dims)
    cert = certify(MultilinearForm(coeffs), exps)
    # bit for bit, so the search ranks real tensors as certificates do
    assert _Moves(tuple(dims), exps).ratio_of(coeffs) == cert.ratio


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
    assert _Moves((2, 3), ExponentTuple.parse("1,2")).ratio_of(zero) == -math.inf
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
@example(case=([2, 3, 2], ExponentTuple.parse("3:1")), seed=2, zeros=0.3)  # one ragged block
@example(case=([3], ExponentTuple.parse("1")), seed=3, zeros=0.3)  # degree 1
def test_move_scores_match_ratio_of_moved_tensor(case, seed, zeros):
    dims, exps = case
    coeffs = _sign_tensor(dims, seed, zeros)
    moves = _Moves(tuple(dims), exps)
    state = moves.start(coeffs)
    flat = coeffs.ravel()
    assert moves.base(state) == reference_ratio(coeffs, exps)
    sups, nested = moves.score(flat, state, 0, flat.size)
    for i, old in enumerate(flat.tolist()):
        alternatives = [v for v in (-1.0, 0.0, 1.0) if v != old]
        for a, value in enumerate(alternatives):
            moved = coeffs.copy()
            moved.flat[i] = value
            assert moves.ratio(sups[i][a], nested[i, a]) == reference_ratio(moved, exps)
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
    want = _reference_climb(coeffs.copy(), lambda c: reference_ratio(c, exps), budget)
    assert np.array_equal(got[0], want[0])
    assert got[1:] == want[1:]


@pytest.mark.filterwarnings("ignore::mixnorms.RaggedBlockWarning")
@PROPERTY
@given(data=st.data(), case=_dims_and_tuple(), seed=SEEDS, zeros=ZEROS,
       budget=st.integers(1, 400))
def test_climb_is_the_same_under_every_budget_it_did_not_reach(data, case, seed, zeros, budget):
    # the invariant the optimizer's climb memo rests on
    dims, exps = case
    coeffs = _sign_tensor(dims, seed, zeros)
    moves = _Moves(tuple(dims), exps)
    want = _climb(coeffs.copy(), moves, budget)
    got = _climb(coeffs.copy(), moves, data.draw(st.integers(want[2], budget)))
    assert np.array_equal(got[0], want[0])
    assert got[1:] == want[1:]


@st.composite
def _small_dims_and_tuple(draw):
    """At most 8 entries, so random sign starts repeat within one call."""
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)
                .filter(lambda d: math.prod(d) <= 8))
    return dims, _exponent_tuple(draw, len(dims))


#: (2, 2) `1,2` budget-20 runs in which a start repeats after the budget
#: left has fallen below its cached count, so the memo reruns its climb.
RERUN_SEEDS = [1, 18]


@pytest.mark.filterwarnings("ignore::mixnorms.RaggedBlockWarning")
@PROPERTY
@given(case=_small_dims_and_tuple() | _dims_and_tuple(), seed=SEEDS,
       budget=st.integers(1, 2_000), restarts=st.sampled_from([None, 1, 3, 7]),
       refine=st.booleans())
@example(case=([2, 2], ExponentTuple.parse("1,2")), seed=RERUN_SEEDS[0], budget=20,
         restarts=None, refine=False)
@example(case=([2, 2], ExponentTuple.parse("1,2")), seed=RERUN_SEEDS[1], budget=20,
         restarts=None, refine=False)
@example(case=([2, 2], ExponentTuple.parse("1,2")), seed=0, budget=10_000,
         restarts=None, refine=True)
def test_optimize_equals_the_memo_free_restart_loop(case, seed, budget, restarts, refine):
    dims, exps = case
    with mock.patch.object(search, "certify", wraps=search.certify) as spy:
        cert = optimize_ratio(dims, exps, budget=budget, seed=seed, restarts=restarts,
                              refine=refine)
    witness, ratio = sequential_optimize(dims, exps, budget, seed, restarts, refine)
    assert np.array_equal(spy.call_args.args[0].coeffs, witness)
    want = certify(MultilinearForm(witness), exps)
    assert (cert.ratio, cert.mixed, cert.sup) == (want.ratio, want.mixed, want.sup)
    assert cert.ratio == ratio


def _climbed_starts(dims, exps, budget, seed):
    """The start tensor of every climb one `optimize_ratio` call runs."""
    starts = []

    def climb(coeffs, moves, left):
        starts.append(coeffs.tobytes())
        return _climb(coeffs, moves, left)

    with mock.patch.object(search, "_climb", climb):
        optimize_ratio(dims, exps, budget=budget, seed=seed)
    return starts


@pytest.mark.parametrize("seed", RERUN_SEEDS)
def test_memo_reruns_a_start_whose_count_no_longer_fits(seed):
    starts = _climbed_starts((2, 2), ExponentTuple.parse("1,2"), 20, seed)
    assert len(set(starts)) < len(starts)


def test_memo_climbs_each_distinct_start_once():
    # 16 distinct +-1 starts on 2 x 2 and one budget-cut rerun at the end,
    # against 756 climbs without the memo
    starts = _climbed_starts((2, 2), ExponentTuple.parse("1,2"), 10_000, 0)
    assert len(starts) <= 17
