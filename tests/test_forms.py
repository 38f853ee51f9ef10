import itertools
import tracemalloc

import numpy as np
import pytest

from mixnorms import (
    MultilinearForm,
    evaluate,
    form_from_dict,
    form_to_dict,
    lift,
    littlewood2,
    load_form,
    permute_slots,
    random_sign_form,
    save_form,
    sup_norm,
    triple221,
)

from _oracles import brute_eval, brute_sup


# ---------------------------------------------------------------------------
# catalog forms
# ---------------------------------------------------------------------------

def test_littlewood2_coefficients():
    L = littlewood2()
    assert L.degree == 2
    assert L.dims == (2, 2)
    assert L.coeffs[0, 0] == 1.0
    assert L.coeffs[1, 1] == -1.0
    assert (L.coeffs ** 2).sum() == 4.0


def test_triple221_matches_term_expansion():
    # independent oracle: expand the two weighted littlewood blocks term by term
    expected = np.zeros((4, 4, 2))
    signs = {(0, 0): 1.0, (0, 1): 1.0, (1, 0): 1.0, (1, 1): -1.0}
    for (i, j), s in signs.items():
        for z, w in ((0, 1.0), (1, 1.0)):       # (z1 + z2) block
            expected[i, j, z] += s * w
        for z, w in ((0, 1.0), (1, -1.0)):      # (z1 - z2) block
            expected[i + 2, j + 2, z] += s * w
    T = triple221()
    assert T.dims == (4, 4, 2)
    np.testing.assert_array_equal(T.coeffs, expected)


def test_triple221_specific_entries():
    T = triple221()
    assert T.coeffs[1, 1, 0] == -1.0   # -x2 y2 z1 term
    assert T.coeffs[0, 2, 0] == 0.0    # no cross-block terms
    assert int(np.count_nonzero(T.coeffs)) == 16


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_littlewood2():
    assert evaluate(littlewood2(), [(1.0, 1.0), (1.0, -1.0)]) == 2.0


def test_evaluate_triple221_block():
    value = evaluate(triple221(), [(1, 1, 0, 0), (1, 1, 0, 0), (1, 1)])
    assert value == 4.0
    assert value == brute_eval(triple221().coeffs, [(1, 1, 0, 0), (1, 1, 0, 0), (1, 1)])


def test_evaluate_zero_slot():
    for seed in range(5):
        form = random_sign_form((2, 3, 2), seed)
        assert evaluate(form, [(1.0, -1.0), (0.0, 0.0, 0.0), (1.0, 1.0)]) == 0.0


def test_evaluate_matches_oracle_on_random_points():
    rng = np.random.default_rng(42)
    form = random_sign_form((2, 3, 2), 11)
    for _ in range(20):
        pts = [rng.uniform(-1, 1, size=d) for d in form.dims]
        assert evaluate(form, pts) == pytest.approx(brute_eval(form.coeffs, pts), abs=1e-12)


def test_evaluate_rejects_wrong_length():
    with pytest.raises(ValueError, match="slot 2"):
        evaluate(littlewood2(), [(1.0, 1.0), (1.0, 1.0, 1.0)])
    with pytest.raises(ValueError, match="2 vectors"):
        evaluate(littlewood2(), [(1.0, 1.0)])


def test_form_validation():
    with pytest.raises(ValueError, match="finite"):
        MultilinearForm(np.array([[1.0, np.inf], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="degree"):
        MultilinearForm(np.array(3.0))


# ---------------------------------------------------------------------------
# sup norm
# ---------------------------------------------------------------------------

def test_sup_norm_littlewood2_exact():
    res = sup_norm(littlewood2())
    assert res.value == 2.0
    assert res.exact
    assert res.evaluations == 16
    assert res.value == brute_sup(littlewood2().coeffs)[0]


def test_sup_norm_triple221_exact():
    res = sup_norm(triple221())
    assert res.value == 4.0
    assert res.exact
    # full vertex grid: 2^4 * 2^4 * 2^2 sign combinations
    assert res.evaluations == 1024
    oracle_value, oracle_count = brute_sup(triple221().coeffs)
    assert res.value == oracle_value
    assert res.evaluations == oracle_count


def test_sup_norm_scaling():
    scaled = littlewood2().scaled(3.0)
    assert sup_norm(scaled).value == 6.0


def test_sup_norm_matches_oracle_on_random_forms():
    for seed, dims in [(0, (2, 2)), (1, (3, 2)), (2, (2, 2, 2)), (3, (4, 3))]:
        form = random_sign_form(dims, seed)
        res = sup_norm(form)
        assert res.exact
        assert res.value == pytest.approx(brute_sup(form.coeffs)[0], abs=1e-12)


def test_sup_norm_homogeneity_exact_mode():
    rng = np.random.default_rng(5)
    for _ in range(10):
        form = MultilinearForm(rng.normal(size=(3, 3)))
        c = float(rng.uniform(0.1, 4.0))
        assert sup_norm(form.scaled(c)).value == pytest.approx(
            c * sup_norm(form).value, rel=1e-12
        )


def test_sup_norm_heuristic_is_lower_bound():
    for seed in range(8):
        form = random_sign_form((3, 3, 2), seed)
        exact = sup_norm(form)
        rough = sup_norm(form, budget=40)
        assert exact.exact and not rough.exact
        assert rough.evaluations <= 40
        assert 0.0 < rough.value <= exact.value + 1e-12


def test_sup_norm_heuristic_often_tight_on_small_forms():
    # alternating ascent with restarts should find the exact value on 2x2s
    for seed in range(6):
        form = random_sign_form((2, 2), seed)
        exact = sup_norm(form).value
        rough = sup_norm(form, budget=10).value
        assert rough == pytest.approx(exact, abs=1e-12)


def test_sup_norm_exact_dominates_random_cube_points():
    rng = np.random.default_rng(9)
    form = random_sign_form((3, 3), 1)
    bound = sup_norm(form).value
    for _ in range(100):
        pts = [rng.uniform(-1, 1, size=d) for d in form.dims]
        assert abs(evaluate(form, pts)) <= bound + 1e-12


def test_sup_norm_invalid_budget():
    with pytest.raises(ValueError, match="budget"):
        sup_norm(littlewood2(), budget=0)


def test_sup_norm_exact_memory_does_not_grow_with_budget():
    # 2^40 sign vertices, whose full grid would take 8 TiB of values.
    form = random_sign_form((20, 20), 0)
    tracemalloc.start()
    try:
        res = sup_norm(form, budget=2 ** 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.exact
    assert res.evaluations == 2 ** 40
    assert peak < 64 * 2 ** 20
    # independent value: max over x in {-1, 1}^20 of ||x^T A||_1, in chunks
    expected = 0.0
    for start in range(0, 2 ** 20, 2 ** 14):
        idx = np.arange(start, start + 2 ** 14)
        x = np.where((idx[:, None] >> np.arange(20)) & 1, -1.0, 1.0)
        expected = max(expected, float(np.abs(x @ form.coeffs).sum(axis=1).max()))
    assert res.value == expected


def test_slot_permutation_preserves_sup():
    form = random_sign_form((2, 3, 4), 3)
    for order in itertools.permutations(range(3)):
        assert sup_norm(permute_slots(form, order)).value == sup_norm(form).value


def test_permute_slots_validates():
    with pytest.raises(ValueError, match="permutation"):
        permute_slots(littlewood2(), (0, 0))


# ---------------------------------------------------------------------------
# lift
# ---------------------------------------------------------------------------

def test_lift_littlewood2():
    lifted = lift(littlewood2())
    assert lifted.dims == (1, 2, 2)
    assert sup_norm(lifted).value == 2.0


def test_lift_degree_one():
    base = MultilinearForm(np.array([1.0]))
    lifted = lift(base)
    assert lifted.dims == (1, 1)
    assert lifted.coeffs[0, 0] == 1.0


def test_lift_preserves_sup_exactly():
    for seed in range(6):
        form = random_sign_form((3, 2), seed)
        assert sup_norm(lift(form)).value == sup_norm(form).value


# ---------------------------------------------------------------------------
# random sign forms
# ---------------------------------------------------------------------------

def test_random_sign_form_deterministic():
    a = random_sign_form((2, 3), 123)
    b = random_sign_form((2, 3), 123)
    np.testing.assert_array_equal(a.coeffs, b.coeffs)
    c = random_sign_form((2, 3), 124)
    assert not np.array_equal(a.coeffs, c.coeffs)


def test_random_sign_form_entries():
    form = random_sign_form((2, 2), 7)
    assert set(np.unique(form.coeffs)) <= {-1.0, 1.0}
    assert (form.coeffs ** 2).sum() == 4.0


def test_random_sign_2x2_sup_at_least_two():
    # every +-1 bilinear 2x2 form attains at least 2 at the vertices
    for seed in range(20):
        assert sup_norm(random_sign_form((2, 2), seed)).value >= 2.0


def test_random_sign_form_validates_dims():
    with pytest.raises(ValueError, match="dims"):
        random_sign_form((), 0)
    with pytest.raises(ValueError, match="dims"):
        random_sign_form((0, 2), 0)


# ---------------------------------------------------------------------------
# JSON form files
# ---------------------------------------------------------------------------

def test_form_json_roundtrip(tmp_path):
    form = triple221()
    path = tmp_path / "t.json"
    save_form(form, path)
    back = load_form(path)
    np.testing.assert_array_equal(back.coeffs, form.coeffs)
    assert back.label == "triple221"


def test_form_dict_omitted_entries_are_zero():
    doc = {"degree": 2, "dims": [2, 2], "entries": [{"index": [1, 2], "value": 5.0}]}
    form = form_from_dict(doc)
    assert form.coeffs[0, 1] == 5.0
    assert form.coeffs[1, 0] == 0.0


def test_form_dict_duplicate_index_rejected():
    doc = {
        "degree": 2,
        "dims": [2, 2],
        "entries": [
            {"index": [1, 1], "value": 1.0},
            {"index": [1, 1], "value": 2.0},
        ],
    }
    with pytest.raises(ValueError, match="duplicate"):
        form_from_dict(doc)


def test_form_dict_bad_index_rejected():
    with pytest.raises(ValueError, match="out of range"):
        form_from_dict(
            {"degree": 2, "dims": [2, 2], "entries": [{"index": [3, 1], "value": 1.0}]}
        )
    with pytest.raises(ValueError, match="coordinates"):
        form_from_dict(
            {"degree": 2, "dims": [2, 2], "entries": [{"index": [1], "value": 1.0}]}
        )
    with pytest.raises(ValueError, match="degree"):
        form_from_dict({"degree": 3, "dims": [2, 2], "entries": []})


def test_form_dict_entries_must_be_a_list():
    with pytest.raises(ValueError, match="list"):
        form_from_dict({"degree": 1, "dims": [2], "entries": 5})


def test_form_to_dict_uses_one_based_indices():
    doc = form_to_dict(littlewood2())
    indices = {tuple(e["index"]) for e in doc["entries"]}
    assert indices == {(1, 1), (1, 2), (2, 1), (2, 2)}
