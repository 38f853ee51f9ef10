"""The abstract of the source paper (PAPER.md), claim by claim: one test
per claim, each resting on exact certificates and closed-form constants,
with failure messages that name the claim.

1. The optimal bilinear Bohnenblust-Hille constant (Littlewood's 4/3
   inequality) comes from interpolating the bilinear mixed (l1, l2)
   inequalities.
2. This does not extend to the trilinear case.
3. The m-linear BH constants grow like the mixed (l_(2m+2)/(m+2), l2)
   constants.
4. Mixed Littlewood type inequalities give optimal cotype constants.

T_3 below is the ±1 form on (4, 2, 2) whose first half of x carries
(z1 + z2) * littlewood2 and whose second half carries (z1 - z2) *
littlewood2.  Its sup norm is 4 and its nested (1, 2, 2) norm is 8.
"""

import math

import numpy as np
import pytest

from mixnorms import (
    ExponentTuple,
    MultilinearForm,
    bh_upper_bound,
    certify,
    cotype_bounds,
    equivalence_gap,
    extremal_instance,
    interpolate,
    littlewood2,
    permute_slots,
    solve_p0,
)

from _oracles import brute_sup

SQRT2 = math.sqrt(2.0)


def _t3() -> MultilinearForm:
    block = littlewood2().coeffs
    c = np.zeros((4, 2, 2))
    c[:2, :, 0] = c[:2, :, 1] = c[2:, :, 0] = block
    c[2:, :, 1] = -block
    return MultilinearForm(c, label="T_3")


def _ratio(form, exps):
    cert = certify(form, ExponentTuple.parse(exps))
    assert cert.sup_exact
    return cert.ratio


def test_claim_1_bilinear_interpolation_gives_the_optimal_bh_constant():
    claim = "claim 1 (bilinear BH constant by interpolation)"
    form = littlewood2()
    assert _ratio(form, "1,2") == SQRT2, claim
    assert _ratio(permute_slots(form, (1, 0)), "2,1") == SQRT2, claim
    interpolated = interpolate([ExponentTuple.parse("1,2"), ExponentTuple.parse("2,1")],
                               [0.5, 0.5], [SQRT2, SQRT2])
    assert interpolated.exponents.exponents == pytest.approx((4 / 3, 4 / 3), abs=1e-12), claim
    assert interpolated.constant_bound == pytest.approx(SQRT2, abs=1e-12), claim
    assert _ratio(form, "4/3,4/3") == SQRT2, claim
    assert bh_upper_bound(2) == pytest.approx(SQRT2, abs=1e-12), claim


def test_claim_2_trilinear_interpolation_overshoots():
    claim = "claim 2 (no trilinear interpolation)"
    t3 = _t3()
    constants = []
    for order, exps in [((0, 1, 2), "1,2,2"), ((1, 0, 2), "2,1,2"), ((1, 2, 0), "2,2,1")]:
        constants.append(_ratio(permute_slots(t3, order), exps))
    # Minkowski and the (sqrt 2)^(m-1) theorem bound each constant by 2.
    assert constants == [2.0, 2.0, 2.0], claim
    assert brute_sup(permute_slots(t3, (1, 2, 0)).coeffs)[0] == 4.0, claim
    tuples = [ExponentTuple.parse(t) for t in ("1,2,2", "2,1,2", "2,2,1")]
    interpolated = interpolate(tuples, [1 / 3] * 3, constants)
    assert interpolated.exponents.exponents == pytest.approx((1.5,) * 3, abs=1e-12), claim
    assert interpolated.constant_bound == pytest.approx(2.0, abs=1e-12), claim
    bh = bh_upper_bound(3)
    assert bh == pytest.approx(2.0 ** 0.75, abs=1e-12), claim
    witness = _ratio(t3, "3/2,3/2,3/2")
    assert witness == pytest.approx(2.0 ** (2 / 3), abs=1e-12), claim
    assert interpolated.constant_bound > bh > witness, claim


def test_claim_3_bh_and_mixed_constants_grow_alike():
    claim = "claim 3 (same asymptotic growth)"
    gaps = [equivalence_gap(m) for m in (10, 100, 1000)]
    assert gaps == pytest.approx([1.039259, 1.003668, 1.000365], abs=1e-6), claim
    # The recursion's growth exponent is (2 - ln 2 - gamma) / 2, from
    # psi(3/2) = 2 - gamma - 2 ln 2.
    local = math.log(bh_upper_bound(10 ** 5) / bh_upper_bound(10 ** 4)) / math.log(10)
    assert local == pytest.approx((2 - math.log(2) - np.euler_gamma) / 2, abs=1e-5), claim


def test_claim_4_optimal_cotype_constants():
    claim = "claim 4 (optimal cotype constants)"
    for r in (1.0, 1.25, 1.5, 1.8, solve_p0(1e-12)):
        bounds = cotype_bounds(r)
        assert bounds.sharp and extremal_instance(r).ratio == bounds.lower, f"{claim}, r = {r}"
