"""Property-based differential tests of the exact kernels.

The exact sup norm and the nested mixed norm are checked against the
brute-force oracles, and the search's ratio model against the certificate,
on random dims with the largest slot (and ties) in every position; the
climb's batched move scores, over stacks of tensors, are checked against
the certificate's ratio of each moved tensor, and skipped unit powers
against explicit ones.
`sup_norm` is exact exactly when the exact kernel's work fits its budget
or the form's size, so a form whose work is its size is exact at every
budget.  The split-sum Rademacher average is checked against the full
enumeration, and the lockstep heuristic sup norm against its restarts run
one by one.
The search's raw-word sign draw is checked against numpy's bounded-integer
draw.  Climbs run in lockstep follow the per-candidate climb of each
start, and return the same result under every budget they did not reach; the
optimizer's groups of restarts and its climb memo change no result of the
restart loop.
Hypothesis runs derandomized with a bounded number of examples, so the
suite stays deterministic and fast.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mixnorms import (
    ExponentTuple,
    MultilinearForm,
    certify,
    forms,
    mixed_norm,
    optimize_ratio,
    rademacher_average,
    random_sign_form,
    search,
    sup_norm,
)
from mixnorms.forms import ASCENT_RESTARTS, _ascent_sup, _random_signs
from mixnorms.mixed_norms import _nested_norm, _outer_sums
from mixnorms.search import _Moves, _climb, _refine

from _oracles import (
    brute_mixed,
    brute_rademacher,
    brute_sup,
    reference_ratio,
    sequential_ascent_sup,
    sequential_optimize,
    sign_start,
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
    assert result.exact is (_exact_work(dims) <= max(budget, math.prod(dims)))
    if 2 ** sum(dims) <= budget:
        assert result.exact  # exact under the full-grid rule stays exact
    if result.exact:
        assert (result.value, result.evaluations) == brute_sup(coeffs)


@PROPERTY
@given(dims=DIMS.filter(lambda d: sum(d) <= 10 and len(d) > 1 and sorted(d)[-2] >= 3),
       seed=SEEDS, integer=st.booleans(), share=st.floats(0.0, 1.0))
@example(dims=[3, 3], seed=0, integer=True, share=1.0)
@example(dims=[3, 1, 1, 3], seed=1, integer=False, share=1.0)
@example(dims=[4, 1, 3], seed=2, integer=True, share=1.0)
@example(dims=[3, 4], seed=3, integer=False, share=0.5)
def test_heuristic_sup_matches_sequential_restarts(dims, seed, integer, share):
    # Every budget below the exact kernel's work, from 1 (share 0) to work - 1
    # (share 1).  An enumerated slot (any but the largest) of size >= 3 puts
    # the work above the form's size, so every one of them reaches the ascent.
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
@given(dims=st.lists(st.integers(1, 7), min_size=2, max_size=4), seed=SEEDS,
       integer=st.booleans(), budget=st.integers(1, 10 ** 6))
@example(dims=[7, 1, 7, 1], seed=4, integer=True, budget=10 ** 6)
@example(dims=[7, 7, 7, 7], seed=5, integer=False, budget=10 ** 6)
@example(dims=[3, 7, 3, 5], seed=6, integer=True, budget=10 ** 6)
@example(dims=[2, 6, 6, 1], seed=7, integer=True, budget=10 ** 6)
@example(dims=[3, 2, 4, 3, 2], seed=8, integer=True, budget=10 ** 6)
@example(dims=[3, 7, 3, 5], seed=9, integer=True, budget=1 + 18 + 3 + 7 + 1)
@example(dims=[2, 6, 6, 1], seed=10, integer=True, budget=1 + 2 * 15 + 2)
@example(dims=[3, 2, 4, 3, 2], seed=11, integer=True, budget=1 + 14 + 3 + 2 + 4 + 3)
def test_lockstep_ascent_matches_sequential_restarts(dims, seed, integer, budget):
    # The ascent itself, past the exact-sup dispatch: budgets can let every
    # restart converge, or stop a group mid-sweep.  The largest slot need
    # not come first, so the cached first products change at other steps.
    coeffs = _coeffs(dims, seed, integer)
    got = _ascent_sup(coeffs, budget)
    value, evaluations = sequential_ascent_sup(coeffs, budget)
    if integer:
        assert got == (value, evaluations)
    else:
        assert math.isclose(got[0], value, rel_tol=1e-12)


@st.composite
def _unenumerated_dims(draw):
    """Dims with no enumerated slot above 2 (degree 1 included) and at most
    2^12 vertices: slots of size 1-2 and one of any size, anywhere."""
    dims = draw(st.lists(st.integers(1, 2), max_size=5))
    dims.insert(draw(st.integers(0, len(dims))), draw(st.integers(1, 12 - sum(dims))))
    return dims


@PROPERTY
@given(dims=_unenumerated_dims(), seed=SEEDS)
@example(dims=[12], seed=0)
@example(dims=[2, 2, 2, 2, 2, 2], seed=1)
@example(dims=[2, 1, 9], seed=2)
def test_sup_norm_is_exact_when_the_work_is_the_size(dims, seed):
    # The exact kernel's work equals the form's size here, and no budget
    # sends such a form to the ascent.
    coeffs = _coeffs(dims, seed, integer=True)
    assert _exact_work(dims) == coeffs.size
    expected = brute_sup(coeffs)
    for budget in range(1, coeffs.size + 1):
        result = sup_norm(MultilinearForm(coeffs), budget=budget)
        assert result.exact is True
        assert (result.value, result.evaluations) == expected


@pytest.mark.parametrize("coeffs, budget, reruns", [
    (random_sign_form((2, 64), 0).coeffs, 300, 12),
    (np.random.default_rng(7).integers(-2, 3, size=(7, 7)).astype(float), 500, 5),
], ids=["sign (2, 64)", "int (7, 7) seed=7"])
def test_ascent_reruns_alone_the_restarts_the_budget_cuts(coeffs, budget, reruns):
    # All 32 restarts run as one group on the whole budget; each that then
    # spent more than the earlier ones left reruns as a group of one.
    groups = []
    lockstep = forms._lockstep_ascent

    def spy(grads, starts, cap):
        groups.append(len(starts[0]))
        return lockstep(grads, starts, cap)

    with mock.patch.object(forms, "_lockstep_ascent", spy):
        got = _ascent_sup(coeffs, budget)
    assert groups == [ASCENT_RESTARTS] + [1] * reruns
    assert got == sequential_ascent_sup(coeffs, budget)


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


def _explicit_nested_norm(arr, exponents):
    """`_nested_norm` with every power taken by np.power, unit ones too."""
    out = np.power(np.abs(arr), exponents[-1]).sum(axis=-1)
    for level in range(len(exponents) - 1, 0, -1):
        out = np.power(out, exponents[level - 1] / exponents[level]).sum(axis=-1)
    return float(out ** (1.0 / exponents[0]))


@PROPERTY
@given(dims=DIMS, seed=SEEDS, integer=st.booleans(),
       pool=st.lists(st.sampled_from([1.0, 1.5, 2.0]), min_size=4, max_size=4))
@example(dims=[3, 3, 2], seed=0, integer=False, pool=[2.0, 2.0, 1.0, 1.0])
def test_unit_powers_are_skipped_bit_for_bit(dims, seed, integer, pool):
    # Repeated exponents give unit level ratios; q_last = 1 skips the inner power.
    exponents = pool[:len(dims)]
    assume(exponents[-1] == 1.0 or any(a == b for a, b in zip(exponents, exponents[1:])))
    coeffs = _coeffs(dims, seed, integer)
    assert _nested_norm(coeffs, exponents) == _explicit_nested_norm(coeffs, exponents)


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


def _stack(dims, seed, zeros, count):
    """`count` {-1, 0, +1} tensors stacked along a leading restart axis."""
    return np.stack([_sign_tensor(dims, seed + i, zeros) for i in range(count)])


@pytest.mark.filterwarnings("ignore::mixnorms.RaggedBlockWarning")
@PROPERTY
@given(case=_dims_and_tuple(), seed=SEEDS, zeros=ZEROS)
@example(case=([2, 2, 2], ExponentTuple.parse("2:1|1:2")), seed=0, zeros=0.9)
@example(case=([3, 2, 2], ExponentTuple.parse("2:1|1:2")), seed=1, zeros=0.3)  # ragged block
@example(case=([2, 3, 2], ExponentTuple.parse("3:1")), seed=2, zeros=0.3)  # one ragged block
@example(case=([3], ExponentTuple.parse("1")), seed=3, zeros=0.3)  # degree 1
def test_move_scores_match_ratio_of_moved_tensor(case, seed, zeros):
    # Every move of both tensors of a stack, scored in one call in a
    # shuffled order, and again in the sub-batch [j // 2, j + 1) of each
    # position j.
    dims, exps = case
    stack = _stack(dims, seed, zeros, 2)
    moves = _Moves(tuple(dims), exps)
    state = moves.start(stack)
    flats = stack.reshape(len(stack), -1)
    assert moves.ratios(state) == [reference_ratio(c, exps) for c in stack]
    order = np.random.default_rng(seed).permutation(flats.size)
    rows, entries = np.divmod(order, flats.shape[1])
    sups, nested = moves.score(flats, state, rows, entries)
    for j, (r, i) in enumerate(zip(rows.tolist(), entries.tolist())):
        alternatives = [v for v in (-1.0, 0.0, 1.0) if v != flats[r, i]]
        for a, value in enumerate(alternatives):
            moved = stack[r].copy()
            moved.flat[i] = value
            assert moves.ratio(sups[2 * j + a], nested[2 * j + a]) == reference_ratio(moved, exps)
    for j in range(len(rows)):
        lo, hi = j // 2, j + 1
        part_sups, part_nested = moves.score(flats, state, rows[lo:hi], entries[lo:hi])
        assert part_sups == sups[2 * lo:2 * hi]
        assert part_nested == nested[2 * lo:2 * hi]


def _single(n):
    """Restart rows of n moves of the one tensor of a stack."""
    return np.zeros(n, dtype=np.intp)


def test_move_scores_match_on_generated_sign_rows():
    # (15, 15) enumerates a slot past _TABLE_BITS, whose sign rows are
    # copied in runs rather than sliced from one cached table.  The diagonal entries meet every
    # coordinate of both slots; scoring each move of all 225 entries
    # against sub-ranges, as the property above does, takes seconds.
    dims, exps = (15, 15), ExponentTuple.parse("1,2")
    coeffs = _sign_tensor(dims, 4, 0.3)
    moves = _Moves(dims, exps)
    flat = coeffs.ravel()
    sups, nested = moves.score(flat[None], moves.start(coeffs[None]), _single(flat.size),
                               np.arange(flat.size))
    for i in range(0, flat.size, 16):
        alternatives = [v for v in (-1.0, 0.0, 1.0) if v != flat[i]]
        for a, value in enumerate(alternatives):
            moved = coeffs.copy()
            moved.flat[i] = value
            assert moves.ratio(sups[2 * i + a], nested[2 * i + a]) == reference_ratio(moved, exps)


def test_move_to_the_zero_tensor_scores_minus_inf():
    coeffs = np.zeros((2, 3))
    coeffs[1, 2] = -1.0
    moves = _Moves((2, 3), ExponentTuple.parse("1,2"))
    sups, nested = moves.score(coeffs.reshape(1, -1), moves.start(coeffs[None]), _single(1),
                               np.array([5]))
    to_zero, to_one = (moves.ratio(sup, n) for sup, n in zip(sups, nested))
    assert (to_zero, to_one) == (-math.inf, 1.0)


@pytest.mark.filterwarnings("ignore::mixnorms.RaggedBlockWarning")
@PROPERTY
@given(data=st.data(), case=_dims_and_tuple(), seed=SEEDS, zeros=ZEROS)
def test_applied_moves_keep_the_state_exact(data, case, seed, zeros):
    # Each call moves one entry of some of the stack's tensors.
    dims, exps = case
    stack = _stack(dims, seed, zeros, 3)
    moves = _Moves(tuple(dims), exps)
    state = moves.start(stack)
    flats = stack.reshape(len(stack), -1)
    for _ in range(data.draw(st.integers(1, 12))):
        rows = np.array(data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=3,
                                           unique=True)))
        entries = np.array([data.draw(st.integers(0, flats.shape[1] - 1)) for _ in rows])
        values = np.array([data.draw(st.sampled_from([-1.0, 0.0, 1.0])) for _ in rows])
        moves.move(flats, state, rows, entries, values)
    for kept, fresh in zip(state, moves.start(stack)):
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
@given(case=_dims_and_tuple(), seed=SEEDS, zeros=ZEROS, count=st.integers(1, 4),
       budget=st.integers(1, 400), block=st.sampled_from([None, 1, 2, 5]))
def test_climb_follows_the_per_candidate_trajectory(case, seed, zeros, count, budget, block):
    # Several starts climbed in lockstep each follow their own climb.
    dims, exps = case
    stack = _stack(dims, seed, zeros, count)
    moves = _Moves(tuple(dims), exps)
    if block is not None:
        moves.block = block  # scoring in small blocks crosses block edges often
    finals, ratios, used = _climb(stack.copy(), moves, budget)
    for start, final, ratio, spent in zip(stack, finals, ratios, used):
        want = _reference_climb(start.copy(), lambda c: reference_ratio(c, exps), budget)
        assert np.array_equal(final, want[0])
        assert (ratio, spent) == want[1:]
        # the least cost of a climb that its budget does not stop, which
        # sizes the optimizer's first group of restarts
        assert spent == budget or spent >= 2 * start.size + 1


@pytest.mark.filterwarnings("ignore::mixnorms.RaggedBlockWarning")
@PROPERTY
@given(data=st.data(), case=_dims_and_tuple(), seed=SEEDS, zeros=ZEROS,
       count=st.integers(1, 4), budget=st.integers(1, 400))
def test_climb_is_the_same_under_every_budget_it_did_not_reach(data, case, seed, zeros,
                                                                count, budget):
    # the invariant the optimizer's climb memo rests on, for a climb run
    # alone or in a stack with others
    dims, exps = case
    stack = _stack(dims, seed, zeros, count)
    moves = _Moves(tuple(dims), exps)
    finals, ratios, used = _climb(stack.copy(), moves, budget)
    i = data.draw(st.integers(0, count - 1))
    got = _climb(stack[i:i + 1].copy(), moves, data.draw(st.integers(used[i], budget)))
    assert np.array_equal(got[0][0], finals[i])
    assert (got[1][0], got[2][0]) == (ratios[i], used[i])


@PROPERTY
@given(dims=st.lists(st.integers(1, 7), min_size=1, max_size=4),
       seeds=st.lists(st.integers(0, 2 ** 130), min_size=1, max_size=4))
@example(dims=[1], seeds=[0])
@example(dims=[3, 5], seeds=[0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 3, 2 ** 130])
@example(dims=[257, 256], seeds=[2 ** 32 - 1, 2 ** 130])  # over 2^16 entries
def test_random_signs_equal_the_bounded_integer_draw(dims, seeds):
    stack = _random_signs(tuple(dims), seeds)
    assert stack.shape == (len(seeds), *dims) and stack.flags.writeable
    for start, seed in zip(stack, seeds):
        assert np.array_equal(start, sign_start(dims, seed))
        assert np.array_equal(random_sign_form(dims, seed).coeffs, start)


@st.composite
def _small_dims_and_tuple(draw):
    """At most 8 entries, so random sign starts repeat within one call."""
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)
                .filter(lambda d: math.prod(d) <= 8))
    return dims, _exponent_tuple(draw, len(dims))


#: (2, 2) `1,2` budget-20 runs in which a start repeats after the budget
#: left has fallen below its cached count, so the memo reruns its climb.
RERUN_SEEDS = [1, 18]

#: (2, 2) `1,2` runs at the edges of a group of restarts climbed in
#: lockstep: (budget, seed, restarts).
LAST_RESTART_CUT_INSIDE_A_GROUP = (150, 0, None)  # later draws of its group go unpaid
FEWER_RESTARTS_THAN_A_GROUP = (100, 0, 3)
START_REPEATED_IN_ITS_GROUP = (200, 0, None)  # a memo hit on this group's own climb


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
@example(case=([2, 2], ExponentTuple.parse("1,2")), seed=LAST_RESTART_CUT_INSIDE_A_GROUP[1],
         budget=LAST_RESTART_CUT_INSIDE_A_GROUP[0], restarts=None, refine=False)
@example(case=([2, 2], ExponentTuple.parse("1,2")), seed=FEWER_RESTARTS_THAN_A_GROUP[1],
         budget=FEWER_RESTARTS_THAN_A_GROUP[0], restarts=3, refine=False)
@example(case=([2, 2], ExponentTuple.parse("1,2")), seed=START_REPEATED_IN_ITS_GROUP[1],
         budget=START_REPEATED_IN_ITS_GROUP[0], restarts=None, refine=False)
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


def _events(dims, exps, budget, seed, restarts=None, refine=False):
    """What one `optimize_ratio` call does, in order: ("draw", seed) per
    start drawn and ("climb", starts) per `_climb` call."""
    events = []

    def draw(dims, seeds):
        events.extend(("draw", seed) for seed in seeds)
        return _random_signs(dims, seeds)

    def climb(stack, moves, left):
        events.append(("climb", [start.tobytes() for start in stack]))
        return _climb(stack, moves, left)

    with mock.patch.object(search, "_random_signs", draw), \
            mock.patch.object(search, "_climb", climb):
        optimize_ratio(dims, exps, budget=budget, seed=seed, restarts=restarts, refine=refine)
    return events


def _climbed_starts(dims, exps, budget, seed):
    """The start tensor of every climb one `optimize_ratio` call runs."""
    return [start for kind, starts in _events(dims, exps, budget, seed) if kind == "climb"
            for start in starts]


@pytest.mark.parametrize("seed", RERUN_SEEDS)
def test_memo_reruns_a_start_whose_count_no_longer_fits(seed):
    starts = _climbed_starts((2, 2), ExponentTuple.parse("1,2"), 20, seed)
    assert len(set(starts)) < len(starts)


def test_memo_climbs_each_distinct_start_once():
    # 16 distinct +-1 starts on 2 x 2 and one budget-cut rerun at the end,
    # against 756 climbs without the memo
    starts = _climbed_starts((2, 2), ExponentTuple.parse("1,2"), 10_000, 0)
    assert len(starts) <= 17


def _first_group(events):
    """The draws before the first climb, and the starts it climbs."""
    kinds = [kind for kind, _ in events]
    return kinds.index("climb"), events[kinds.index("climb")][1]


def test_group_edge_examples_reach_their_edges():
    # The examples above keep testing what they are named for.
    exps = ExponentTuple.parse("1,2")
    budget, seed, _ = LAST_RESTART_CUT_INSIDE_A_GROUP
    events = _events((2, 2), exps, budget, seed)
    with mock.patch("_oracles.sign_start", wraps=sign_start) as paid:  # one call per seed
        sequential_optimize((2, 2), exps, budget, seed)
    assert [kind for kind, _ in events].count("draw") > paid.call_count
    assert events[-1][0] == "climb" and len(events[-1][1]) == 1  # the cut restart's rerun
    budget, seed, restarts = FEWER_RESTARTS_THAN_A_GROUP
    assert _first_group(_events((2, 2), exps, budget, seed))[0] > restarts
    assert _first_group(_events((2, 2), exps, budget, seed, restarts))[0] == restarts
    budget, seed, _ = START_REPEATED_IN_ITS_GROUP
    draws, climbed = _first_group(_events((2, 2), exps, budget, seed))
    assert draws > len(climbed)


def test_optimize_scores_each_group_in_lockstep():
    # One score call per lockstep step of each group, 10 in all; there
    # were 106 when every restart climbed alone.
    with mock.patch.object(_Moves, "score", autospec=True, side_effect=_Moves.score) as score:
        optimize_ratio((3, 3), ExponentTuple.parse("1,2"), budget=1000, seed=0)
    assert score.call_count == 10


def _greedy_after_first():
    """A polish that charges all the budget left from its second call on."""
    calls = []

    def polish(coeffs, ratio_fn, left):
        coeffs, ratio, spent = _refine(coeffs, ratio_fn, left)
        calls.append(left)
        return coeffs, ratio, spent if len(calls) == 1 else left
    return polish


def test_refine_using_up_the_budget_ends_the_group():
    # A real polish spends about the same on every restart, so groups
    # sized by the first restart's cost leave room for it.  This one
    # charges all the budget left on the second restart, the first of the
    # second group, so the rest of that group goes unpaid, as in the
    # memo-free loop.
    exps = ExponentTuple.parse("1,2")
    with mock.patch.object(search, "_refine", _greedy_after_first()), \
            mock.patch.object(search, "_climb", wraps=_climb) as climb:
        cert = optimize_ratio((2, 2), exps, budget=2_000, seed=3, refine=True)
    assert len(climb.call_args_list[0].args[0]) == 1
    assert len(climb.call_args_list[1].args[0]) > 1
    with mock.patch("_oracles._refine", _greedy_after_first()):
        witness, ratio = sequential_optimize((2, 2), exps, 2_000, 3, None, True)
    assert cert.ratio == ratio
    assert cert.ratio == certify(MultilinearForm(witness), exps).ratio


#: The search benchmark's (dims, tuple) kinds.
SEARCH_KINDS = [((2, 2), "1,2"), ((3, 3), "1,2"), ((4, 4), "4/3,4/3"), ((2, 2, 2), "2,2,1"),
                ((4, 4, 2), "2,2,1")]


@pytest.mark.parametrize("refine", [False, True])
def test_groups_draw_few_starts_past_the_last_paid_restart(refine):
    # Group sizes follow what restarts cost; a guess that drifts from the
    # climb's or the polish's real cost shows as unpaid draws.
    draws = paid = 0
    for dims, e in SEARCH_KINDS:
        for seed in range(2):
            exps = ExponentTuple.parse(e)
            events = _events(dims, exps, 1000, seed, refine=refine)
            draws += [kind for kind, _ in events].count("draw")
            with mock.patch("_oracles.sign_start", wraps=sign_start) as drawn:
                sequential_optimize(dims, exps, 1000, seed, None, refine)
            paid += drawn.call_count
    assert paid <= draws <= 1.1 * paid
