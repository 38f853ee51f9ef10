import itertools
import math

import pytest

from mixnorms import (
    ExponentTuple,
    bh_upper_bound,
    equivalence_gap,
    interpolate,
    khinchin_A,
    solve_p0,
    sqrt2_baseline,
)

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Khinchin constants
# ---------------------------------------------------------------------------

def test_khinchin_at_two_is_one():
    val = khinchin_A(2.0)
    assert val.value == pytest.approx(1.0, abs=1e-12)
    assert val.regime == "gamma"


def test_khinchin_at_one():
    val = khinchin_A(1.0)
    assert val.value == pytest.approx(2.0 ** -0.5, abs=1e-15)
    assert val.regime == "flat"
    # attainment oracle: with a = (1, 1)/sqrt2 the exact first absolute
    # moment over the four sign patterns equals A_1 * ||a||_2 = 2^(-1/2)
    a = (1.0 / SQRT2, 1.0 / SQRT2)
    moment = sum(
        abs(e1 * a[0] + e2 * a[1]) for e1, e2 in itertools.product((-1, 1), repeat=2)
    ) / 4.0
    assert moment == pytest.approx(val.value, abs=1e-15)


def test_khinchin_at_four_thirds():
    val = khinchin_A(4.0 / 3.0)
    assert val.value == pytest.approx(2.0 ** -0.25, abs=1e-15)
    assert val.regime == "flat"


def test_khinchin_regime_switch():
    p0 = solve_p0(1e-12)
    assert khinchin_A(p0 - 1e-6).regime == "flat"
    assert khinchin_A(p0 + 1e-6).regime == "gamma"


def test_khinchin_continuous_across_branch_point():
    p0 = solve_p0(1e-12)
    below = khinchin_A(p0 - 1e-6).value
    above = khinchin_A(p0 + 1e-6).value
    assert abs(below - above) < 1e-5


def test_khinchin_range_and_monotonicity():
    values = [khinchin_A(p).value for p in (0.5, 1.0, 1.5, 1.8, 1.9, 2.0)]
    assert all(0.0 < v <= 1.0 + 1e-12 for v in values)
    assert values == sorted(values)


def test_khinchin_domain():
    with pytest.raises(ValueError):
        khinchin_A(0.0)
    with pytest.raises(ValueError):
        khinchin_A(2.5)


# ---------------------------------------------------------------------------
# branch point p0
# ---------------------------------------------------------------------------

def test_p0_value():
    assert solve_p0(1e-6) == pytest.approx(1.84742, abs=1e-5)


def test_p0_residual_within_tolerance():
    for tol in (1e-4, 1e-6, 1e-8, 1e-10):
        root = solve_p0(tol)
        assert abs(math.gamma((root + 1.0) / 2.0) - math.sqrt(math.pi) / 2.0) <= tol


def test_p0_branch_agreement():
    p0 = solve_p0(1e-12)
    flat = 2.0 ** (0.5 - 1.0 / p0)
    gamma = SQRT2 * (math.gamma((p0 + 1.0) / 2.0) / math.sqrt(math.pi)) ** (1.0 / p0)
    assert abs(flat - gamma) <= 1e-9


def test_p0_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        solve_p0(0.0)


def test_p0_rejects_nan_tolerance():
    with pytest.raises(ValueError, match="positive"):
        solve_p0(math.nan)


def test_gamma_reference_values():
    assert math.gamma(0.5) == pytest.approx(math.sqrt(math.pi), abs=1e-12)
    assert math.gamma(1.0) == pytest.approx(1.0, abs=1e-12)
    assert math.gamma(1.5) == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-12)


# ---------------------------------------------------------------------------
# baseline and interpolation
# ---------------------------------------------------------------------------

def test_sqrt2_baseline():
    assert sqrt2_baseline(1) == 1.0
    assert sqrt2_baseline(2) == pytest.approx(SQRT2, abs=1e-15)
    assert sqrt2_baseline(3) == pytest.approx(2.0, abs=1e-15)
    with pytest.raises(ValueError):
        sqrt2_baseline(0)


def test_interpolate_trilinear_mixed_tuples():
    tuples = [ExponentTuple.parse(t) for t in ("1,2,2", "2,1,2", "2,2,1")]
    res = interpolate(tuples, [1 / 3] * 3, [2.0, 2.0, SQRT2])
    assert res.exponents.exponents == pytest.approx((1.5, 1.5, 1.5), abs=1e-12)
    assert res.constant_bound == pytest.approx(2.0 ** (5.0 / 6.0), abs=1e-12)


def test_interpolate_bilinear_endpoints():
    tuples = [ExponentTuple.parse(t) for t in ("1,2", "2,1")]
    res = interpolate(tuples, [0.5, 0.5], [SQRT2, SQRT2])
    assert res.exponents.exponents == pytest.approx((4 / 3, 4 / 3), abs=1e-12)
    assert res.constant_bound == pytest.approx(SQRT2, abs=1e-12)


def test_interpolate_identity():
    e = ExponentTuple.parse("1.3,1.7")
    res = interpolate([e], [1.0], [2.5])
    assert res.exponents == e
    assert res.constant_bound == pytest.approx(2.5, abs=1e-12)


def test_interpolate_identical_tuples_gives_geometric_mean():
    e = ExponentTuple.parse("1.5,1.5")
    res = interpolate([e, e, e], [0.2, 0.3, 0.5], [2.0, 3.0, 4.0])
    assert res.exponents.exponents == pytest.approx(e.exponents, rel=1e-12)
    assert res.constant_bound == pytest.approx(
        2.0 ** 0.2 * 3.0 ** 0.3 * 4.0 ** 0.5, rel=1e-12
    )


def test_interpolate_output_exponents_between_inputs():
    tuples = [ExponentTuple.parse("1,2"), ExponentTuple.parse("2,1.5")]
    res = interpolate(tuples, [0.4, 0.6], [1.0, 1.0])
    for j, q in enumerate(res.exponents.exponents):
        inputs = [t.exponents[j] for t in tuples]
        assert min(inputs) <= q <= max(inputs)


def test_interpolate_validation():
    e = ExponentTuple.parse("1,2")
    with pytest.raises(ValueError, match="sum to 1"):
        interpolate([e, e], [0.5, 0.6], [1.0, 1.0])
    with pytest.raises(ValueError, match="degree"):
        interpolate([e, ExponentTuple.parse("1,2,2")], [0.5, 0.5], [1.0, 1.0])
    with pytest.raises(ValueError, match="unblocked"):
        interpolate([ExponentTuple(((2, 2.0),))], [1.0], [1.0])
    with pytest.raises(ValueError, match="positive"):
        interpolate([e], [1.0], [0.0])
    with pytest.raises(ValueError, match="length"):
        interpolate([e], [1.0], [1.0, 2.0])


@pytest.mark.parametrize("constant", [math.nan, math.inf, -math.inf, -1.0])
def test_interpolate_rejects_bad_constants(constant):
    e = ExponentTuple.parse("1,2")
    with pytest.raises(ValueError, match="finite and positive"):
        interpolate([e, e], [0.5, 0.5], [1.0, constant])


def test_interpolate_rejects_nan_weights():
    e = ExponentTuple.parse("1,2")
    with pytest.raises(ValueError, match="nonnegative"):
        interpolate([e, e], [math.nan, 1.0], [1.0, 1.0])


# ---------------------------------------------------------------------------
# recursion and asymptotic gap
# ---------------------------------------------------------------------------

def test_bh_upper_bound_values():
    assert bh_upper_bound(1) == 1.0
    assert bh_upper_bound(2) == pytest.approx(SQRT2, abs=1e-12)
    assert bh_upper_bound(3) == pytest.approx(2.0 ** 0.75, abs=1e-12)


def test_bh_upper_bound_beats_interpolation_at_degree_three():
    assert bh_upper_bound(3) < 2.0 ** (5.0 / 6.0)


def test_bh_upper_bound_monotone_and_below_baseline():
    previous = 0.0
    for m in range(1, 51):
        bound = bh_upper_bound(m)
        assert bound >= previous
        assert bound <= sqrt2_baseline(m) + 1e-12
        previous = bound


def test_bh_upper_bound_caps_the_degree(monkeypatch):
    from mixnorms import constants

    assert constants.MAX_BH_DEGREE == 10 ** 5
    with pytest.raises(ValueError, match="degree must be <= 100000"):
        bh_upper_bound(10 ** 8)  # rejected before the recursion starts
    monkeypatch.setattr(constants, "MAX_BH_DEGREE", 3)
    assert bh_upper_bound(3) == pytest.approx(2.0 ** 0.75, abs=1e-12)
    with pytest.raises(ValueError, match="<= 3, got 4"):
        bh_upper_bound(4)


def test_equivalence_gap_values():
    assert equivalence_gap(2) == pytest.approx(SQRT2, abs=1e-12)
    assert 1.0 < equivalence_gap(100) < 1.01


def test_equivalence_gap_decreases_toward_one():
    g10, g100, g1000 = (equivalence_gap(m) for m in (10, 100, 1000))
    assert g10 > g100 > g1000 > 1.0


def test_equivalence_gap_strictly_decreasing_from_three():
    gaps = [equivalence_gap(m) for m in range(3, 40)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    with pytest.raises(ValueError):
        equivalence_gap(1)
