import json
import math

import numpy as np
import pytest

from mixnorms import (
    ExponentTuple,
    MultilinearForm,
    bilinear_cotype_certificate,
    certify,
    cotype_bounds,
    cotype_ratio,
    extremal_instance,
    littlewood2,
    load_instance,
    make_instance,
    mixed_norm,
    rademacher_average,
    random_sign_form,
    solve_p0,
    triple221,
)

from _fresh import fresh_peak
from _oracles import brute_rademacher, half_rademacher

SQRT2 = math.sqrt(2.0)
EXTREMAL_PAIR = [[1.0, 1.0], [1.0, -1.0]]


# ---------------------------------------------------------------------------
# rademacher averages
# ---------------------------------------------------------------------------

def test_single_vector_average_is_its_norm():
    for r, s in ((1.0, 1.0), (1.5, 0.7), (2.0, 4.0)):
        value = rademacher_average([[3.0, -4.0]], r, s)
        expected = (3.0 ** r + 4.0 ** r) ** (1.0 / r)
        assert value == pytest.approx(expected, rel=1e-12)


def test_extremal_pair_average_is_two_for_any_exponents():
    for r in (1.0, 1.3, 2.0, 5.0):
        for s in (0.5, 1.0, 2.0, 4.0):
            assert rademacher_average(EXTREMAL_PAIR, r, s) == pytest.approx(2.0, rel=1e-12)


def test_orthonormal_pair_l2_average():
    value = rademacher_average([[1.0, 0.0], [0.0, 1.0]], 2.0, 2.0)
    assert value == pytest.approx(SQRT2, rel=1e-12)


def test_average_of_a_skew_pair_is_correctly_rounded():
    # Exactly 4.17051156385963132514...; each pattern's outer level is the
    # mixed-norm kernel's single power p^(s/r).
    assert rademacher_average([[1, 2], [3, -1]], 1.5, 2) == 4.170511563859631


def test_average_matches_oracle_on_random_families():
    rng = np.random.default_rng(77)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        d = int(rng.integers(1, 5))
        vectors = rng.normal(size=(n, d))
        r = float(rng.uniform(1.0, 3.0))
        s = float(rng.uniform(0.3, 4.0))
        assert rademacher_average(vectors, r, s) == pytest.approx(
            brute_rademacher(vectors.tolist(), r, s), rel=1e-12
        )


@pytest.mark.parametrize("n", [1, 2, 5])
def test_average_half_enumeration_matches_oracle(n):
    # n = 1 leaves no free signs: the average is the norm of the one vector
    vectors = np.random.default_rng(n).normal(size=(n, 3))
    for r, s in [(1.0, 1.0), (1.5, 2.5), (2.0, 0.5)]:
        assert rademacher_average(vectors, r, s) == pytest.approx(
            brute_rademacher(vectors.tolist(), r, s), rel=1e-12
        )


@pytest.mark.parametrize("n, d, r, s", [(17, 3, 1.7, 1.0), (20, 2, 2.0, 2.0),
                                        (20, 9, 1.2, 0.6)])
def test_split_sums_match_chunked_half_enumeration(n, d, r, s):
    # Both n take A in several row blocks: 2 at n = 17, 16 at n = 20
    vectors = np.random.default_rng([n, d]).standard_normal((n, d))
    assert rademacher_average(vectors, r, s) == pytest.approx(
        half_rademacher(vectors, r, s), rel=1e-12
    )


def test_average_memory_is_bounded_at_the_cap(workers=None):
    vectors = np.random.default_rng(24).standard_normal((24, 2))
    value, peak = fresh_peak(rademacher_average, vectors, 1.5, 1.5, workers=workers)
    assert math.isfinite(value) and value > 0.0
    assert peak < 4 * 2 ** 20


def test_average_rejects_bad_input():
    with pytest.raises(ValueError, match="capped"):
        rademacher_average(np.ones((25, 2)), 2.0, 2.0)
    with pytest.raises(ValueError, match="n >= 1"):
        rademacher_average([], 2.0, 2.0)
    with pytest.raises(ValueError, match="s > 0"):
        rademacher_average(EXTREMAL_PAIR, 2.0, 0.0)
    with pytest.raises(ValueError, match="r >= 1"):
        rademacher_average(EXTREMAL_PAIR, 0.5, 1.0)


def test_average_rejects_nan_exponents():
    with pytest.raises(ValueError, match="r >= 1"):
        rademacher_average(EXTREMAL_PAIR, math.nan, 1.0)
    with pytest.raises(ValueError, match="s > 0"):
        rademacher_average(EXTREMAL_PAIR, 2.0, math.nan)
    with pytest.raises(ValueError, match="r >= 1"):
        cotype_ratio(EXTREMAL_PAIR, math.nan, 2.0)
    with pytest.raises(ValueError, match="r >= 1"):
        extremal_instance(math.nan)


@pytest.mark.parametrize("r, s", [(math.inf, 1.0), (-math.inf, 1.0), (1.5, math.inf)])
def test_average_rejects_infinite_exponents(r, s):
    # The power formula has no l_inf limit: r = inf used to give rhs 1, not 2
    with pytest.raises(ValueError, match="finite"):
        rademacher_average(EXTREMAL_PAIR, r, s)
    with pytest.raises(ValueError, match="finite"):
        cotype_ratio(EXTREMAL_PAIR, r, s)


def test_extremal_instance_rejects_infinite_r():
    with pytest.raises(ValueError, match="finite"):
        extremal_instance(math.inf)


# ---------------------------------------------------------------------------
# cotype ratios
# ---------------------------------------------------------------------------

def test_extremal_pair_ratio_r1():
    assert cotype_ratio(EXTREMAL_PAIR, 1.0, 1.0) == pytest.approx(SQRT2, rel=1e-12)


def test_extremal_pair_ratio_r_three_halves():
    assert cotype_ratio(EXTREMAL_PAIR, 1.5, 1.5) == pytest.approx(
        2.0 ** (1.0 / 6.0), rel=1e-12
    )


def test_single_unit_vector_ratio_one():
    for r in (1.0, 1.5, 2.0):
        assert cotype_ratio([[0.0, 1.0, 0.0]], r, r) == pytest.approx(1.0, rel=1e-12)


def test_all_zero_family_rejected():
    with pytest.raises(ValueError, match="all-zero"):
        cotype_ratio([[0.0, 0.0], [0.0, 0.0]], 1.5, 1.5)


@pytest.mark.parametrize("vectors, r, s", [
    ([[1e200, 1.0], [1.0, 1.0]], 2.0, 2.0),      # overflows: lhs and rhs inf
    ([[1e-200, 0.0], [0.0, 1e-200]], 1.5, 1.5),  # lhs underflows to 0
    ([[1e-170, 0.0], [0.0, 1e-170]], 2.0, 4.0),  # rhs underflows to 0
])
def test_ratio_outside_float64_range_rejected(vectors, r, s):
    with pytest.raises(ValueError, match="outside float64 range"):
        make_instance(vectors, r, s)


def test_tiny_entry_beside_unit_entries_is_in_range():
    # Its powers underflow, but they are negligible next to the others'
    assert cotype_ratio([[1e-200, 1.0], [1.0, 1.0]], 2.0, 2.0) == pytest.approx(
        math.sqrt(3.0) / brute_rademacher([[0.0, 1.0], [1.0, 1.0]], 2.0, 2.0), rel=1e-12
    )


def test_ratio_scaling_invariance():
    rng = np.random.default_rng(5)
    vectors = rng.normal(size=(4, 3))
    base = cotype_ratio(vectors, 1.4, 1.4)
    for c in (0.01, 3.0, -7.5):
        assert cotype_ratio(c * vectors, 1.4, 1.4) == pytest.approx(base, rel=1e-12)


def test_ratio_nonincreasing_in_s():
    rng = np.random.default_rng(99)
    for _ in range(10):
        vectors = rng.normal(size=(int(rng.integers(2, 7)), int(rng.integers(2, 5))))
        r = float(rng.uniform(1.0, 2.0))
        ratios = [cotype_ratio(vectors, r, s) for s in (0.5, 1.0, r, 2.0, 4.0)]
        for a, b in zip(ratios, ratios[1:]):
            assert b <= a + 1e-12


def test_ratio_uses_average_exponent():
    rng = np.random.default_rng(12)
    vectors = rng.normal(size=(5, 3))
    lhs = math.sqrt(sum(np.sum(np.abs(v) ** 1.3) ** (2.0 / 1.3) for v in vectors))
    for s in (0.7, 1.3, 2.5):
        want = lhs / brute_rademacher(vectors, 1.3, s)
        assert cotype_ratio(vectors, 1.3, s) == pytest.approx(want, rel=1e-12)
        assert cotype_ratio(vectors, 1.3, s) == make_instance(vectors, 1.3, s).ratio


# ---------------------------------------------------------------------------
# closed-form bounds
# ---------------------------------------------------------------------------

def test_bounds_at_one():
    b = cotype_bounds(1.0)
    assert b.lower == pytest.approx(SQRT2, abs=1e-12)
    assert b.upper == pytest.approx(SQRT2, abs=1e-12)
    assert b.sharp


def test_bounds_at_two():
    b = cotype_bounds(2.0)
    assert b.lower == pytest.approx(1.0, abs=1e-12)
    assert b.upper == pytest.approx(1.0, abs=1e-12)
    assert not b.sharp


def test_bounds_meet_at_branch_point():
    p0 = solve_p0(1e-10)
    below = cotype_bounds(p0)
    assert below.sharp
    just_above = cotype_bounds(p0 + 1e-7)
    assert not just_above.sharp
    assert abs(just_above.upper - just_above.lower) < 1e-6
    assert cotype_bounds(p0).upper == pytest.approx(cotype_bounds(p0).lower, abs=1e-9)


def test_bounds_ordering_across_range():
    for r in np.linspace(1.0, 2.0, 21):
        b = cotype_bounds(float(r))
        assert b.lower <= b.upper


def test_bounds_domain():
    with pytest.raises(ValueError):
        cotype_bounds(0.9)
    with pytest.raises(ValueError):
        cotype_bounds(2.1)


# ---------------------------------------------------------------------------
# bilinear certificate
# ---------------------------------------------------------------------------

def test_certificate_littlewood2_matches_closed_form():
    for r in (1.0, 1.25, 1.5, 1.84742, 2.0):
        value = bilinear_cotype_certificate(littlewood2(), r)
        assert value == pytest.approx(2.0 ** (1.0 / r - 0.5), abs=1e-12)


def test_certificate_single_coefficient():
    form = MultilinearForm(np.array([[2.0]]))
    for r in (1.0, 1.5, 2.0):
        assert bilinear_cotype_certificate(form, r) == pytest.approx(1.0, abs=1e-12)


def test_certificate_validation():
    with pytest.raises(ValueError, match="bilinear"):
        bilinear_cotype_certificate(triple221(), 1.5)
    with pytest.raises(ValueError, match="zero form"):
        bilinear_cotype_certificate(MultilinearForm(np.zeros((2, 2))), 1.5)
    with pytest.raises(ValueError, match="1 <= r <= 2"):
        bilinear_cotype_certificate(littlewood2(), 2.5)


def test_certificate_never_exceeds_upper_bound():
    for seed in range(30):
        form = random_sign_form((4, 4), seed)
        for r in (1.0, 1.3, 1.7, 2.0):
            value = bilinear_cotype_certificate(form, r)
            assert value <= cotype_bounds(r).upper + 1e-9


# ---------------------------------------------------------------------------
# extremal instances
# ---------------------------------------------------------------------------

def test_extremal_instance_golden_values():
    for r, expected in ((1.0, SQRT2), (1.5, 2.0 ** (1.0 / 6.0)), (2.0, 1.0)):
        inst = extremal_instance(r)
        assert inst.ratio == pytest.approx(expected, abs=1e-12)
        assert inst.s == r


def test_extremal_instance_recomputes():
    inst = extremal_instance(1.3)
    again = cotype_ratio(inst.vectors, inst.r, inst.s)
    assert inst.ratio == pytest.approx(again, abs=1e-12)
    assert inst.lhs / inst.rhs == pytest.approx(inst.ratio, abs=1e-12)


def test_extremal_instance_ratio_independent_of_s():
    # all sign patterns of the pair give equal norms, so the s-average is
    # constant and the ratio matches 2^(1/r - 1/2) for every s
    for r in (1.0, 1.5, 2.0):
        for s in (0.5, 1.0, 3.0):
            assert cotype_ratio(EXTREMAL_PAIR, r, s) == pytest.approx(
                2.0 ** (1.0 / r - 0.5), rel=1e-12
            )


def test_no_violation_of_sharp_bound_below_branch_point():
    # 200 random instances with r at or below the branch point, s = r
    rng = np.random.default_rng(2024)
    p0 = solve_p0(1e-10)
    for _ in range(200):
        n = int(rng.integers(1, 11))
        d = int(rng.integers(1, 7))
        vectors = rng.normal(size=(n, d))
        r = float(rng.uniform(1.0, p0))
        assert cotype_ratio(vectors, r, r) <= cotype_bounds(r).upper + 1e-9


# ---------------------------------------------------------------------------
# JSON instance files
# ---------------------------------------------------------------------------

def test_instance_file_roundtrip(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"r": 1.0, "s": 1.0, "vectors": EXTREMAL_PAIR}))
    inst = load_instance(path)
    assert inst.ratio == pytest.approx(SQRT2, abs=1e-12)


@pytest.mark.parametrize("doc, message", [
    ({"r": 1.0, "vectors": EXTREMAL_PAIR}, "needs r, s and vectors"),
    ({"r": "1.5", "s": 1.5, "vectors": EXTREMAL_PAIR}, "numbers"),
    ({"r": 1.5, "s": True, "vectors": EXTREMAL_PAIR}, "numbers"),
    ({"r": 1.5, "s": 1.5, "vectors": "1,1;1,-1"}, "lists of numbers"),
    ({"r": 1.5, "s": 1.5, "vectors": ["11", "1-1"]}, "lists of numbers"),
    ({"r": 1.5, "s": 1.5, "vectors": [["1", 1], [1, -1]]}, "lists of numbers"),
    ({"r": 1.5, "s": 1.5, "vectors": [[True, 1], [1, -1]]}, "lists of numbers"),
    ({"r": 1.5, "s": 1.5, "vectors": [[10 ** 400, 1], [1, -1]]}, "lists of numbers"),
    ({"r": 10 ** 400, "s": 1.5, "vectors": EXTREMAL_PAIR}, "numbers"),
])
def test_instance_dict_validation(doc, message):
    from mixnorms import instance_from_dict

    with pytest.raises(ValueError, match=message):
        instance_from_dict(doc)


RAGGED_MESSAGE = r"vectors must share one dimension, got lengths \[2, 1\]"


@pytest.mark.parametrize("fn", [cotype_ratio, rademacher_average, make_instance])
def test_ragged_vectors_get_the_library_message(fn):
    with pytest.raises(ValueError, match=RAGGED_MESSAGE):
        fn([[1.0, 1.0], [1.0]], 1.5, 1.5)


@pytest.mark.parametrize("vectors", [
    [1, [2, 3]], [[1, 2], [3, [4]]], [np.array(1.0), [2, 3]], [[1, 2], np.array(3.0)],
])
def test_family_ragged_below_the_top_gets_the_library_message(vectors):
    with pytest.raises(ValueError, match="^vectors must be a list of equal-length lists of numbers$"):
        cotype_ratio(vectors, 1.5, 1.5)


def test_ragged_instance_file_gets_the_library_message(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"r": 1.5, "s": 1.5, "vectors": [[1, 1], [1]]}))
    with pytest.raises(ValueError, match=RAGGED_MESSAGE):
        load_instance(path)


@pytest.mark.parametrize("r", [1.0, 4 / 3, 1.5, 2.0])
def test_lhs_is_the_two_r_mixed_norm(r):
    mat = np.random.default_rng(5).standard_normal((4, 3))
    lhs = make_instance(mat, r, 2.0).lhs
    assert lhs == mixed_norm(MultilinearForm(mat), ExponentTuple.unblocked((2.0, r)))
    expected = math.sqrt(math.fsum(math.fsum(abs(x) ** r for x in row) ** (2.0 / r) for row in mat))
    assert lhs == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("r", [1.0, 1.5, 2.0])
def test_certificate_is_the_certify_ratio(r):
    form = random_sign_form((3, 4), 2)
    cert = certify(form, ExponentTuple.unblocked((2.0, r)))
    assert bilinear_cotype_certificate(form, r) == cert.ratio


def test_make_instance_fields():
    inst = make_instance(EXTREMAL_PAIR, 1.0, 2.0)
    assert inst.lhs == pytest.approx(2.0 * SQRT2, rel=1e-12)
    assert inst.rhs == pytest.approx(2.0, rel=1e-12)
