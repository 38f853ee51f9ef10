import math
import re

import numpy as np
import pytest

from mixnorms import (
    ExponentTuple,
    MultilinearForm,
    RaggedBlockWarning,
    admissible,
    bh_exponents,
    littlewood2,
    minkowski_compare,
    mixed_norm,
    random_sign_form,
    sup_norm,
    triple221,
)
from mixnorms.mixed_norms import _blocked_tensor, parse_number

from _oracles import brute_mixed

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# exponent tuples
# ---------------------------------------------------------------------------

def test_exponent_tuple_basics():
    e = ExponentTuple(((1, 1.0), (2, 2.0)))
    assert e.k == 2
    assert e.degree == 3
    assert e.exponents == (1.0, 2.0)
    assert not e.is_unblocked
    assert ExponentTuple.unblocked((1, 2)).is_unblocked


def test_exponent_tuple_validation():
    with pytest.raises(ValueError, match="at least one"):
        ExponentTuple(())
    with pytest.raises(ValueError, match="exponent"):
        ExponentTuple(((1, 0.5),))
    with pytest.raises(ValueError, match="block size"):
        ExponentTuple(((0, 2.0),))
    with pytest.raises(ValueError, match="exponent"):
        ExponentTuple(((1, math.inf),))


@pytest.mark.parametrize("bad", [True, np.True_, "2", None, 2 + 0j])
def test_an_exponent_that_is_no_real_number_is_rejected(bad):
    # True and "2" once passed through float() and printed as 1 and 2.
    with pytest.raises(ValueError, match=re.escape(f"exponent must be a real number, got {bad!r}")):
        ExponentTuple(((1, 1.0), (1, bad)))


@pytest.mark.parametrize("blocks", [((1, 10 ** 400), (1, 2)), ((1, 2), (1, 10 ** 400)),
                                    ((1, 2), (2, -10 ** 400))],
                         ids=["outer", "inner", "negative"])
def test_an_exponent_beyond_float64_is_rejected(blocks):
    # math.isfinite once let an OverflowError out for such an integer.
    q = max(blocks, key=lambda b: abs(b[1]))[1]
    with pytest.raises(ValueError, match=re.escape(f"exponent must fit in a float64, got {q}")):
        ExponentTuple(blocks)


def test_numpy_exponents_act_as_floats():
    e = ExponentTuple(((1, np.float32(1.5)), (2, np.int64(2)), (1, np.float64(1.25))))
    assert e.blocks == ((1, 1.5), (2, 2.0), (1, 1.25))
    assert all(type(q) is float for q in e.exponents)


def test_parse_unblocked():
    e = ExponentTuple.parse("2,2,1")
    assert e.blocks == ((1, 2.0), (1, 2.0), (1, 1.0))
    assert ExponentTuple.parse("4/3,4/3").exponents == (4.0 / 3.0, 4.0 / 3.0)


def test_parse_blocked():
    e = ExponentTuple.parse("1:2|2:3/2")
    assert e.blocks == ((1, 2.0), (2, 1.5))


def test_parse_errors_name_token():
    with pytest.raises(ValueError, match="'x'"):
        ExponentTuple.parse("1,x,2")
    with pytest.raises(ValueError, match="'1:2:3'"):
        ExponentTuple.parse("1:2:3|1:1")
    with pytest.raises(ValueError, match="empty"):
        ExponentTuple.parse("   ")


def test_str_roundtrip():
    for text in ("2,2,1", "1.5,1.5", "1:2|2:1.5"):
        e = ExponentTuple.parse(text)
        assert ExponentTuple.parse(str(e)) == e


def test_parse_number_fraction():
    assert parse_number("4/3") == 4.0 / 3.0
    assert parse_number(" 1.25 ") == 1.25


@pytest.mark.parametrize("token", ["1/0", "1/0.0", "3/-0"])
def test_parse_number_rejects_zero_denominator(token):
    with pytest.raises(ValueError, match="zero denominator"):
        parse_number(token)
    with pytest.raises(ValueError, match="zero denominator"):
        ExponentTuple.parse(f"{token},2")


# ---------------------------------------------------------------------------
# mixed norms: golden values (each checked against the brute oracle)
# ---------------------------------------------------------------------------

def test_littlewood2_one_two():
    value = mixed_norm(littlewood2(), ExponentTuple.parse("1,2"))
    assert value == pytest.approx(2.0 * SQRT2, abs=1e-12)
    assert value == pytest.approx(brute_mixed(littlewood2().coeffs, [(1, 1.0), (1, 2.0)]), abs=1e-12)


def test_triple221_two_two_one():
    value = mixed_norm(triple221(), ExponentTuple.parse("2,2,1"))
    assert value == pytest.approx(4.0 * SQRT2, abs=1e-12)
    assert value == pytest.approx(
        brute_mixed(triple221().coeffs, [(1, 2.0), (1, 2.0), (1, 1.0)]), abs=1e-12
    )


def test_littlewood2_diagonal_block():
    value = mixed_norm(littlewood2(), ExponentTuple(((2, 2.0),)))
    assert value == pytest.approx(SQRT2, abs=1e-12)
    assert value == pytest.approx(brute_mixed(littlewood2().coeffs, [(2, 2.0)]), abs=1e-12)


def test_single_coefficient_any_exponents():
    form = MultilinearForm(np.array([[-3.5]]))
    for text in ("1,1", "2,2", "1.5,1.7"):
        assert mixed_norm(form, ExponentTuple.parse(text)) == pytest.approx(3.5, abs=1e-12)


def test_mixed_norm_matches_oracle_random():
    rng = np.random.default_rng(17)
    for seed in range(6):
        form = random_sign_form((3, 2, 2), seed)
        qs = tuple(rng.uniform(1.0, 3.0, size=3))
        blocks = [(1, q) for q in qs]
        assert mixed_norm(form, ExponentTuple.unblocked(qs)) == pytest.approx(
            brute_mixed(form.coeffs, blocks), rel=1e-12
        )


def test_blocked_mixed_norm_matches_oracle():
    rng = np.random.default_rng(3)
    form = MultilinearForm(rng.normal(size=(3, 3, 2)))
    blocks = ((2, 1.5), (1, 1.0))
    assert mixed_norm(form, ExponentTuple(blocks)) == pytest.approx(
        brute_mixed(form.coeffs, blocks), rel=1e-12
    )


def test_blocked_mixed_norm_past_26_blocks_matches_oracle():
    rng = np.random.default_rng(4)
    form = MultilinearForm(rng.normal(size=(2, 2, 2, 2, 2) + (1,) * 23))
    blocks = ((2, 1.0), (1, 2.0), (1, 1.5), (1, 3.0)) + ((1, 2.0),) * 23
    assert len(blocks) == 27
    assert mixed_norm(form, ExponentTuple(blocks)) == pytest.approx(
        brute_mixed(form.coeffs, blocks), rel=1e-12
    )


def test_blocked_tensor_batches_leading_axes():
    stack = np.random.default_rng(5).normal(size=(2, 3, 3, 4, 2, 2))
    exps = ExponentTuple(((2, 1.5), (2, 2.0)))
    blocked, ragged = _blocked_tensor(stack, exps)
    singles = [_blocked_tensor(t, exps) for t in stack.reshape(6, 3, 4, 2, 2)]
    assert ragged and all(r for _, r in singles)
    assert blocked.shape == (2, 3, 3, 2)
    assert np.array_equal(blocked.reshape(6, 3, 2), np.stack([b for b, _ in singles]))


def test_blocked_tuple_past_52_blocks_is_rejected():
    def diagonal_form(k):  # (2, 2) then k - 1 singleton slots, blocked 2:1|1:2|...
        form = MultilinearForm(np.ones((2, 2) + (1,) * (k - 1)))
        return form, ExponentTuple(((2, 1.0),) + ((1, 2.0),) * (k - 1))

    assert mixed_norm(*diagonal_form(52)) == 2.0
    with pytest.raises(ValueError, match="at most 52 blocks, got 53"):
        mixed_norm(*diagonal_form(53))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_overflowing_norm_is_rejected():
    # The true value is 2^(2001/2000), but 2^2000 overflows at the outer level.
    with pytest.raises(ValueError, match="overflows float64"):
        mixed_norm(littlewood2(), ExponentTuple.parse("2000,1"))


def test_underflowing_norm_is_rejected():
    # The true value is 2e-200, but every (1e-200)^2 underflows to 0.
    with pytest.raises(ValueError, match="under 2,2 underflows float64"):
        mixed_norm(littlewood2().scaled(1e-200), ExponentTuple.parse("2,2"))


@pytest.mark.parametrize("coeffs, exps", [
    ([[0.0, 0.0], [0.0, 0.0]], "2,2"),
    ([[0.0, 1.0], [1.0, 0.0]], "2:2"),  # nonzero, but zero on the block's diagonal
])
def test_a_zero_norm_of_zero_entries_is_not_an_underflow(coeffs, exps):
    assert mixed_norm(MultilinearForm(np.array(coeffs)), ExponentTuple.parse(exps)) == 0.0


def test_ragged_block_warns_and_uses_min_range():
    form = MultilinearForm(np.arange(6, dtype=float).reshape(2, 3) + 1.0)
    with pytest.warns(RaggedBlockWarning):
        value = mixed_norm(form, ExponentTuple(((2, 2.0),)))
    # shared index runs over min(2, 3) = 2: diagonal entries 1 and 5
    assert value == pytest.approx(math.hypot(1.0, 5.0), abs=1e-12)


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError, match="degree"):
        mixed_norm(littlewood2(), ExponentTuple.parse("2,2,1"))


# ---------------------------------------------------------------------------
# bh exponents and admissibility
# ---------------------------------------------------------------------------

def test_bh_exponents_values():
    assert bh_exponents(2).exponents == (4.0 / 3.0, 4.0 / 3.0)
    assert bh_exponents(3).exponents == (1.5, 1.5, 1.5)
    assert bh_exponents(1).exponents == (1.0,)
    with pytest.raises(ValueError):
        bh_exponents(0)


def test_admissible_examples():
    assert admissible(ExponentTuple.parse("1,2,2"))
    assert not admissible(ExponentTuple.parse("1,1,2"))
    assert admissible(ExponentTuple.parse("2,2"))


def test_bh_exponents_admissible_on_boundary_up_to_50():
    for m in range(1, 51):
        e = bh_exponents(m)
        assert admissible(e)
        total = math.fsum(1.0 / q for q in e.exponents)
        assert total == pytest.approx((e.k + 1) / 2.0, abs=1e-12)


def test_admissible_rejects_out_of_range_exponents():
    with pytest.raises(ValueError, match=r"\[1, 2\]"):
        admissible(ExponentTuple.parse("1,2.5"))


# ---------------------------------------------------------------------------
# minkowski comparison
# ---------------------------------------------------------------------------

def test_minkowski_littlewood2_symmetric():
    v_pq, v_qp = minkowski_compare(littlewood2(), 1.0, 2.0)
    assert v_pq == pytest.approx(2.0 * SQRT2, abs=1e-12)
    assert v_qp == pytest.approx(2.0 * SQRT2, abs=1e-12)


def test_minkowski_asymmetric_example():
    form = MultilinearForm(np.array([[1.0, 0.0], [1.0, 1.0]]))
    v_pq, v_qp = minkowski_compare(form, 1.0, 2.0)
    assert v_pq == pytest.approx(1.0 + SQRT2, abs=1e-12)       # row norms 1 and sqrt2
    assert v_qp == pytest.approx(math.sqrt(5.0), abs=1e-12)    # column sums 2 and 1
    assert v_qp <= v_pq


def test_minkowski_equal_exponents():
    form = random_sign_form((3, 3), 2)
    v_pq, v_qp = minkowski_compare(form, 1.5, 1.5)
    assert v_pq == pytest.approx(v_qp, rel=1e-12)


def test_minkowski_ordering_random_forms():
    rng = np.random.default_rng(23)
    for _ in range(40):
        form = MultilinearForm(rng.normal(size=(3, 4)))
        p = float(rng.uniform(1.0, 3.0))
        q = float(rng.uniform(p, 4.0))
        v_pq, v_qp = minkowski_compare(form, p, q)
        assert v_qp <= v_pq + 1e-12


def test_minkowski_rejects_bad_arguments():
    with pytest.raises(ValueError, match="p <= q"):
        minkowski_compare(littlewood2(), 2.0, 1.0)
    with pytest.raises(ValueError, match="bilinear"):
        minkowski_compare(triple221(), 1.0, 2.0)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_exponent_monotonicity():
    rng = np.random.default_rng(31)
    forms = [random_sign_form((3, 3), s) for s in range(3)]
    forms.append(MultilinearForm(rng.normal(size=(2, 4))))
    for form in forms:
        for _ in range(20):
            qs = rng.uniform(1.0, 3.0, size=2)
            j = int(rng.integers(0, 2))
            bumped = qs.copy()
            bumped[j] += float(rng.uniform(0.0, 2.0))
            low = mixed_norm(form, ExponentTuple.unblocked(qs))
            high = mixed_norm(form, ExponentTuple.unblocked(bumped))
            assert high <= low + 1e-12


def test_mixed_norm_homogeneity():
    rng = np.random.default_rng(13)
    form = random_sign_form((2, 3), 5)
    for _ in range(10):
        c = float(rng.uniform(-5.0, 5.0))
        if c == 0.0:
            continue
        scaled = MultilinearForm(c * form.coeffs)
        assert mixed_norm(scaled, ExponentTuple.parse("1,2")) == pytest.approx(
            abs(c) * mixed_norm(form, ExponentTuple.parse("1,2")), rel=1e-12
        )


def test_all_equal_exponents_give_flat_norm():
    rng = np.random.default_rng(29)
    form = MultilinearForm(rng.normal(size=(3, 2, 2)))
    for q in (1.0, 1.5, 2.0, 2.7):
        flat = float(np.sum(np.abs(form.coeffs) ** q) ** (1.0 / q))
        assert mixed_norm(form, ExponentTuple.unblocked((q, q, q))) == pytest.approx(
            flat, rel=1e-12
        )


def test_admissible_ratios_within_loose_envelope():
    # sanity envelope: admissible tuples on small sign forms stay well below
    # 4x the sqrt2 baseline
    tuples = [
        ExponentTuple.parse("1,2"),
        ExponentTuple.parse("2,2"),
        bh_exponents(2),
        ExponentTuple.parse("1,2,2"),
        ExponentTuple.parse("2,2,1"),
        bh_exponents(3),
    ]
    for e in tuples:
        assert admissible(e)
        for seed in range(4):
            dims = tuple([3] * e.degree)
            form = random_sign_form(dims, seed)
            ratio = mixed_norm(form, e) / sup_norm(form).value
            envelope = (SQRT2 ** (e.degree - 1)) * 4.0
            assert ratio <= envelope
