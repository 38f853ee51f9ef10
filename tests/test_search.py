import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from mixnorms import (
    ExponentTuple,
    MultilinearForm,
    bh_upper_bound,
    certify,
    equivalence_demo,
    growth_witness,
    littlewood2,
    mixed_norm,
    optimize_ratio,
    random_sign_form,
    search,
    sqrt2_baseline,
    sup_norm,
    triple221,
)
from mixnorms.search import _refine

from _oracles import reference_ratio

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def test_certify_triple221():
    cert = certify(triple221(), ExponentTuple.parse("2,2,1"))
    assert cert.ratio == pytest.approx(SQRT2, abs=1e-12)
    assert cert.mixed == pytest.approx(4.0 * SQRT2, abs=1e-12)
    assert cert.sup == 4.0
    assert cert.sup_exact
    assert cert.form_label == "triple221"


def test_certify_littlewood2_attains_baseline():
    cert = certify(littlewood2(), ExponentTuple.parse("1,2"))
    assert cert.ratio == pytest.approx(SQRT2, abs=1e-12)
    assert cert.ratio == pytest.approx(sqrt2_baseline(2), abs=1e-12)


def test_certify_littlewood2_attains_bh_bound():
    cert = certify(littlewood2(), ExponentTuple.parse("4/3,4/3"))
    assert cert.ratio == pytest.approx(SQRT2, abs=1e-12)
    assert cert.ratio == pytest.approx(bh_upper_bound(2), abs=1e-12)


def test_certify_consistency_invariant():
    for seed in range(5):
        form = random_sign_form((3, 2), seed)
        cert = certify(form, ExponentTuple.parse("1,2"))
        assert cert.ratio * cert.sup == pytest.approx(cert.mixed, rel=1e-9)


def test_certify_scale_invariant_ratio():
    exps = ExponentTuple.parse("1,2")
    base = certify(littlewood2(), exps).ratio
    for c in (0.25, -3.0, 100.0):
        scaled = MultilinearForm(c * littlewood2().coeffs, label="scaled")
        assert certify(scaled, exps).ratio == pytest.approx(base, rel=1e-12)


def test_certify_rejects_zero_form():
    with pytest.raises(ValueError, match="zero form"):
        certify(MultilinearForm(np.zeros((2, 2))), ExponentTuple.parse("1,2"))


def test_admissible_certificates_within_sqrt2_baseline():
    # every admissible tuple interpolates the permuted (1,2,...,2) tuples,
    # so no certificate can beat (sqrt2)^(m-1)
    from mixnorms import admissible

    cases = [
        ExponentTuple.parse("1,2"),
        ExponentTuple.parse("2,1"),
        ExponentTuple.parse("4/3,4/3"),
        ExponentTuple.parse("2,2"),
        ExponentTuple.parse("1,2,2"),
        ExponentTuple.parse("2,2,1"),
        ExponentTuple.parse("3/2,3/2,3/2"),
    ]
    forms_pool = [littlewood2(), triple221()] + [
        random_sign_form((3, 3), s) for s in range(4)
    ] + [random_sign_form((3, 3, 3), s) for s in range(4)]
    for exps in cases:
        assert admissible(exps)
        for form in forms_pool:
            if form.degree != exps.degree:
                continue
            cert = certify(form, exps)
            assert cert.ratio <= sqrt2_baseline(exps.degree) + 1e-9


def test_certificate_json_fields():
    cert = certify(triple221(), ExponentTuple.parse("2,2,1"))
    doc = cert.to_dict()
    assert set(doc) == {
        "form_label", "dims", "exponents", "mixed", "sup", "ratio",
        "sup_exact", "seed", "budget", "version",
    }
    assert doc["exponents"] == "2,2,1"
    assert json.loads(json.dumps(doc)) == doc


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def test_optimize_trivial_dims():
    cert = optimize_ratio((1, 1), ExponentTuple.parse("1,2"), budget=50, seed=0)
    assert cert.ratio == pytest.approx(1.0, abs=1e-12)


def test_optimize_recovers_bilinear_optimum_from_every_seed():
    exps = ExponentTuple.parse("1,2")
    for seed in range(8):
        cert = optimize_ratio((2, 2), exps, budget=2_000, seed=seed)
        assert cert.ratio >= SQRT2 - 1e-9
        assert cert.sup_exact


def test_optimize_trilinear_stays_below_optimum_certificate():
    # the trilinear (2,2,1) optimum sits in a basin the single-entry climb
    # cannot enter from dense sign starts (its neighbours are all strictly
    # worse than it, but every downhill path from random starts ends in a
    # different local optimum), so the hand-built catalog form certifies a
    # strictly better bound than the search finds
    exps = ExponentTuple.parse("2,2,1")
    cert = optimize_ratio((4, 4, 2), exps, budget=5_000, seed=0, restarts=4)
    assert cert.sup_exact
    assert cert.ratio <= SQRT2 + 1e-9
    assert certify(triple221(), exps).ratio >= cert.ratio


def test_optimize_deterministic():
    exps = ExponentTuple.parse("1,2")
    a = optimize_ratio((2, 3), exps, budget=500, seed=3)
    b = optimize_ratio((2, 3), exps, budget=500, seed=3)
    assert a == b


def test_optimize_never_below_start_certificate():
    exps = ExponentTuple.parse("1,2")
    for seed in range(6):
        start_ratio = certify(random_sign_form((2, 3), seed), exps).ratio
        found = optimize_ratio((2, 3), exps, budget=300, seed=seed).ratio
        assert found >= start_ratio - 1e-12


def test_optimize_rejects_unaffordable_dims():
    with pytest.raises(ValueError, match="affordable"):
        optimize_ratio((12, 12), ExponentTuple.parse("1,2"), budget=10, seed=0)


@pytest.mark.parametrize("dims, exps", [((20000, 1), "1,2"), ((10 ** 12,), "1")])
def test_optimize_rejects_astronomical_dims_at_once(dims, exps):
    # 2^sum(dims) is never built (2^(10^12) would take about 125 GB): the
    # check reads the exponent, and the message names only the exponent.
    with pytest.raises(ValueError, match="affordable") as info:
        optimize_ratio(dims, ExponentTuple.parse(exps), budget=10, seed=0)
    assert len(str(info.value)) < 200


def test_optimize_validates_arguments():
    with pytest.raises(ValueError, match="budget"):
        optimize_ratio((2, 2), ExponentTuple.parse("1,2"), budget=0, seed=0)
    with pytest.raises(ValueError, match="slots"):
        optimize_ratio((2, 2), ExponentTuple.parse("1,2,2"), budget=10, seed=0)
    with pytest.raises(ValueError, match=r"dims must be nonempty and positive, got \(0, 2\)"):
        optimize_ratio((0, 2), ExponentTuple.parse("1,2"), budget=10, seed=0)
    with pytest.raises(ValueError, match=r"dims must be nonempty and positive, got \(\)"):
        optimize_ratio((), ExponentTuple.parse("1"), budget=10, seed=0)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        optimize_ratio((2, 2), ExponentTuple.parse("1,2"), budget=10, seed=-1)


@pytest.mark.parametrize("restarts", [0, -3])
def test_optimize_rejects_fewer_than_one_restart(restarts):
    with pytest.raises(ValueError, match=f"restarts must be >= 1, got {restarts}"):
        optimize_ratio((2, 2), ExponentTuple.parse("1,2"), budget=10, seed=0, restarts=restarts)


def test_growth_rejects_fewer_than_one_trial():
    with pytest.raises(ValueError, match="trials must be >= 1, got 0"):
        growth_witness(ExponentTuple.parse("1,2"), [2], trials=0, seed=0)


@pytest.mark.parametrize("dims, exps", [
    ((11, 11), "1,2"),
    ((3,) * 5, "8/5,8/5,8/5,8/5,8/5"),
    ((2,) * 11, "1,2,2,2,2,2,2,2,2,2,2"),
])
def test_optimize_memory_stays_bounded_on_the_largest_dims(dims, exps):
    # the climb scores moves in blocks of bounded size, so its peak does
    # not grow with the number of entries times the number of sign rows
    tracemalloc.start()
    try:
        cert = optimize_ratio(dims, ExponentTuple.parse(exps), budget=2_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.sup_exact
    assert peak < 8 * 2 ** 20


def test_optimize_memo_memory_stays_bounded():
    # the climb memo keeps one compact entry per distinct start: 25 sign
    # bits, 25 int8 entries, the ratio and the evaluations spent
    exps = ExponentTuple.parse("1,2")
    optimize_ratio((5, 5), exps, budget=100, seed=1)  # warm the per-dims caches
    tracemalloc.start()
    try:
        optimize_ratio((5, 5), exps, budget=100_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 2 ** 10


@pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
def test_refine_never_spends_more_than_its_budget(dims):
    exps = ExponentTuple.parse("1,2")
    for budget in range(1, 61):
        calls = 0

        def counting(coeffs):
            nonlocal calls
            calls += 1
            return reference_ratio(coeffs, exps)

        _, _, used = _refine(random_sign_form(dims, budget).coeffs.copy(), counting, budget)
        assert used <= budget
        assert used == calls


def test_optimize_refine_never_overspends():
    # the climb and the polish share the budget; the polish must stop
    # before a line search whose two opening evaluations do not fit
    spent = []

    def counted(step):
        def run(*args):
            result = step(*args)
            spent.append(result[2])
            return result
        return run

    with mock.patch.object(search, "_climb", counted(search._climb)), \
            mock.patch.object(search, "_refine", counted(search._refine)):
        optimize_ratio((2, 2), ExponentTuple.parse("1,2"), budget=10, seed=0, refine=True)
    assert len(spent) == 2
    assert sum(spent) <= 10


def test_optimize_refine_does_not_hurt():
    exps = ExponentTuple.parse("1,2")
    plain = optimize_ratio((2, 2), exps, budget=2_000, seed=1, restarts=2)
    polished = optimize_ratio((2, 2), exps, budget=4_000, seed=1, restarts=2, refine=True)
    assert polished.ratio >= plain.ratio - 1e-12


# ---------------------------------------------------------------------------
# growth witness
# ---------------------------------------------------------------------------

def test_growth_admissible_one_two_stays_at_sqrt2():
    rows = growth_witness(ExponentTuple.parse("1,2"), [2, 3, 4], trials=8, seed=0)
    assert [n for n, _ in rows] == [2, 3, 4]
    for _, ratio in rows:
        assert ratio <= SQRT2 + 1e-6


def test_growth_two_two_stays_at_one():
    rows = growth_witness(ExponentTuple.parse("2,2"), [2, 3, 4], trials=8, seed=0)
    for _, ratio in rows:
        assert ratio <= 1.0 + 1e-9


def test_growth_inadmissible_one_one_reaches_two():
    # the best (1,1) ratio over the search alphabet equals 2 at each of
    # these sizes (exhaustively checked over all {-1,0,+1} tensors for
    # n = 2, 3 and 4); the optimizer finds it from 8 restarts
    rows = growth_witness(ExponentTuple.parse("1,1"), [2, 3, 4], trials=8, seed=0)
    for _, ratio in rows:
        assert ratio == pytest.approx(2.0, abs=1e-9)


def test_growth_accepts_callable_family():
    rows = growth_witness(
        lambda n: ExponentTuple.parse("1,2"), [2, 3], trials=2, seed=0
    )
    assert len(rows) == 2


def test_growth_rejects_unaffordable_sizes():
    with pytest.raises(ValueError, match="affordable"):
        growth_witness(ExponentTuple.parse("1,2"), [12], trials=1, seed=0)


# ---------------------------------------------------------------------------
# lifting identity
# ---------------------------------------------------------------------------

def test_equivalence_demo_littlewood2():
    rep = equivalence_demo(littlewood2(), 3)
    assert rep.holds
    assert rep.exponent == pytest.approx(4.0 / 3.0, abs=1e-15)
    assert rep.mixed_lifted == pytest.approx(4.0 ** 0.75, abs=1e-12)
    assert rep.mixed_base == pytest.approx(4.0 ** 0.75, abs=1e-12)
    assert rep.sup_lifted == rep.sup_base == 2.0


def test_equivalence_demo_degree_one():
    rep = equivalence_demo(MultilinearForm(np.array([1.0])), 2)
    assert rep.holds
    assert rep.mixed_lifted == rep.mixed_base == 1.0
    assert rep.sup_lifted == rep.sup_base == 1.0


def test_equivalence_demo_random_forms():
    for seed in range(20):
        rep = equivalence_demo(random_sign_form((3, 3), seed), 3)
        assert rep.holds
        assert rep.rel_mixed <= 1e-12
        assert rep.rel_sup <= 1e-12


def test_equivalence_demo_validates_degree():
    with pytest.raises(ValueError, match="degree"):
        equivalence_demo(littlewood2(), 4)
    with pytest.raises(ValueError, match="m >= 2"):
        equivalence_demo(littlewood2(), 1)


def test_equivalence_demo_base_norm_matches_direct():
    form = random_sign_form((3, 3), 4)
    rep = equivalence_demo(form, 3)
    q = (2.0 * 3 - 2.0) / 3
    assert rep.mixed_base == pytest.approx(
        mixed_norm(form, ExponentTuple.unblocked((q, q))), rel=1e-15
    )
    assert rep.sup_base == sup_norm(form).value
