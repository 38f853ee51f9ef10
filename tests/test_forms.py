import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from mixnorms import (
    ExponentTuple,
    MultilinearForm,
    certify,
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
from mixnorms import forms
from mixnorms.forms import ASCENT_RESTARTS, MAX_FORM_ENTRIES, _ascent_starts

from _fresh import fresh_peak
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
    with pytest.raises(ValueError, match="finite"):
        MultilinearForm(np.array([np.nan, 1.0]))
    # each coefficient is finite, but the l1 norm that bounds the sup is not
    with pytest.raises(ValueError, match="l1 norm"):
        MultilinearForm(np.array([[1e308, 1e308], [1e308, -1e308]]))
    assert MultilinearForm(np.array([1e308, -7e307])).coeffs[0] == 1e308
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
    # The exact kernel's work on (4, 3, 3) is 2^4 patterns times 4 terms.
    for seed in range(8):
        form = random_sign_form((4, 3, 3), seed)
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


def test_ascent_start_tables_are_read_only_and_bounded():
    tables = _ascent_starts((3, 1, 4))
    assert [t.shape for t in tables] == [(ASCENT_RESTARTS, d) for d in (3, 1, 4)]
    for table in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0.0
    assert _ascent_starts.cache_info().maxsize is not None


@pytest.mark.parametrize("dims", [(5, 5, 5, 5), (3, 1, 4), (7, 1, 7, 1), (3, 5)])
def test_ascent_starts_draw_the_slots_from_one_generator(dims):
    # Restart k draws its slots one after another from one generator,
    # which keeps a word's spare half between draws: odd slots do not
    # start at a word boundary.
    tables = _ascent_starts(dims)
    for k in range(ASCENT_RESTARTS):
        rng = np.random.default_rng((7, k))
        for table, d in zip(tables, dims):
            assert np.array_equal(table[k], 1 - 2 * rng.integers(0, 2, size=d))


@pytest.mark.parametrize("dims", [(300, 2 ** 16 - 300), (300, 200, 7)])
def test_ascent_start_tables_draw_one_restart_at_a_time(dims):
    # The tables take ASCENT_RESTARTS bytes per coordinate; drawing every
    # restart at once in float64 would take eight times that.
    _ascent_starts((2, 2))  # the generator's first use allocates once
    _ascent_starts.cache_clear()
    tracemalloc.start()
    try:
        _ascent_starts(dims)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        _ascent_starts.cache_clear()
    assert peak < 2.5 * ASCENT_RESTARTS * sum(dims)


def test_sup_norm_heuristic_interleaved_dims_agree():
    _ascent_starts.cache_clear()
    a, b = random_sign_form((6, 5, 3), 0), random_sign_form((9, 8), 1)
    first = sup_norm(a, budget=600)
    other = sup_norm(b, budget=600)
    assert sup_norm(a, budget=600) == first
    _ascent_starts.cache_clear()
    assert sup_norm(b, budget=600) == other
    assert _ascent_starts.cache_info().currsize == 1


def test_sup_norm_heuristic_leaves_coefficients_alone():
    form = random_sign_form((7, 6, 5), 2)
    before = form.coeffs.copy()
    res = sup_norm(form, budget=3_000)  # below the exact work, 2^9 * 7
    assert not res.exact
    assert not form.coeffs.flags.writeable
    assert np.array_equal(form.coeffs, before)


def test_sup_norm_heuristic_memory_is_bounded_by_the_form():
    # A small slot: contracting it first would build a 32-fold copy.
    form = random_sign_form((200, 200, 2), 3)
    res, peak = fresh_peak(sup_norm, form)
    assert not res.exact
    assert peak < 4 * form.coeffs.nbytes


def test_ascent_makes_two_first_contractions_per_sweep():
    # Slots 1-3 contract slot 0 first, and that product holds from slot 1's
    # step to slot 0's next; slot 0 contracts slot 1 first.  Without the
    # cache a sweep would make four, one per step.
    dims = (6, 6, 6, 6)
    firsts, groups = [], []
    contract, lockstep = forms._Gradients.contract_first, forms._lockstep_ascent

    def counted(self, signs, f):
        firsts.append(f)
        return contract(self, signs, f)

    def spy(grads, starts, cap):
        evals, values = lockstep(grads, starts, cap)
        groups.append(evals)
        return evals, values

    with mock.patch.object(forms._Gradients, "contract_first", counted), \
            mock.patch.object(forms, "_lockstep_ascent", spy):
        forms._ascent_sup(random_sign_form(dims, 0).coeffs, 10 ** 9)
    (evals,) = groups  # one group, and no restart reruns
    sweeps = (max(evals) - 1) // sum(dims)  # the longest restart's
    assert sweeps >= 3
    assert len(firsts) <= 2 * sweeps + 1


def test_sup_norm_exact_dominates_random_cube_points():
    rng = np.random.default_rng(9)
    form = random_sign_form((3, 3), 1)
    bound = sup_norm(form).value
    for _ in range(100):
        pts = [rng.uniform(-1, 1, size=d) for d in form.dims]
        assert abs(evaluate(form, pts)) <= bound + 1e-12


def test_sup_norm_exact_when_the_kernel_work_fits_not_the_grid():
    # 2^11 patterns times 12 terms, though the grid has 2^24 vertices.
    assert certify(random_sign_form((12, 12), 0), ExponentTuple.parse("1,2")).sup_exact


def _walsh_sup(coeffs: np.ndarray) -> float:
    """Sup norm of a form whose slots all have size 2: up to sign, each
    slot's vertices are (1, 1) and (1, -1), so the values at the vertices
    are the entries of the Walsh-Hadamard transform along every axis."""
    arr = coeffs
    for _ in range(coeffs.ndim):
        arr = np.tensordot(np.array([[1.0, 1.0], [1.0, -1.0]]), arr, axes=(1, -1))
    return float(np.abs(arr).max())


def test_sup_norm_exact_on_sixteen_slots_of_size_two():
    # 2^32 vertices, but only 2^15 patterns times 2 terms; the ascent
    # reaches 770 within the default budget.
    form = random_sign_form((2,) * 16, 0)
    res = sup_norm(form)
    assert res.exact
    assert res.evaluations == 2 ** 32
    assert res.value == _walsh_sup(form.coeffs) == 1098.0
    assert _walsh_sup(littlewood2().coeffs) == brute_sup(littlewood2().coeffs)[0]


def test_sup_norm_exact_on_a_degree_one_form_past_the_budget():
    # A degree-1 form's exact work is its size, which any heuristic reading
    # every entry already spends; the l1 norm takes one temporary that size.
    form = random_sign_form((2 ** 20 + 2,), 0)
    res, peak = fresh_peak(sup_norm, form, 2 ** 20)
    assert res.exact
    assert res.value == 1_048_578.0
    assert res.evaluations == 2 ** (2 ** 20 + 2)
    assert peak < 2 * form.coeffs.nbytes


def test_sup_norm_result_repr_prints_an_exact_count_past_the_digit_limit():
    # 2^16386 has 4,933 digits, past Python's default int-to-str limit.
    res = sup_norm(random_sign_form((2 ** 14 + 2,), 0))
    assert repr(res) == "SupNormResult(value=16386.0, exact=True, evaluations=2^16386)"
    assert repr(sup_norm(littlewood2())) == "SupNormResult(value=2.0, exact=True, evaluations=16)"


def test_sup_norm_invalid_budget():
    with pytest.raises(ValueError, match="budget"):
        sup_norm(littlewood2(), budget=0)


@pytest.mark.parametrize("budget, match", [
    (float("nan"), "budget must be >= 1, got nan"),
    (float("inf"), "budget must be an integer >= 1, got inf"),
], ids=["nan", "inf"])
def test_sup_norm_rejects_a_non_finite_budget(budget, match):
    with pytest.raises(ValueError, match=match):
        sup_norm(littlewood2(), budget=budget)


def test_sup_norm_exact_memory_does_not_grow_with_budget():
    # 2^40 sign vertices, whose full grid would take 8 TiB of values.
    form = random_sign_form((20, 20), 0)
    res, peak = fresh_peak(sup_norm, form, budget=2 ** 40)
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


@pytest.mark.parametrize("d, start, stop", [
    (15, 0, 2 ** 15),
    (16, 2 ** 14 - 9, 2 ** 15 + 2 ** 13 + 9),
    (21, 2 ** 21 - 2 ** 14 - 3, 2 ** 21),
    (30, 2 ** 30 - 3 * 2 ** 13 - 1, 2 ** 30),
    (30, 5 * 2 ** 14, 5 * 2 ** 14),
])
def test_sign_blocks_past_the_table_equal_the_generated_rows(d, start, stop):
    # Ranges across the runs' boundaries, at multiples of 2^13, and to the table's end.
    assert np.array_equal(forms._sign_block(d, start, stop), forms._sign_rows(d, start, stop))


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


@pytest.mark.parametrize("degree, dims", [
    (2.7, [2, 2]),
    (True, [2]),
    (2, "22"),
    (2, [2.0, 2]),
    (2, [2, False]),
])
def test_form_dict_degree_and_dims_must_be_json_integers(degree, dims):
    with pytest.raises(ValueError, match="integer"):
        form_from_dict({"degree": degree, "dims": dims, "entries": []})


def test_form_dict_rejects_dims_past_the_entry_limit(monkeypatch):
    class Allocated(Exception):
        pass

    def no_alloc(*args, **kwargs):
        raise Allocated

    monkeypatch.setattr(forms.np, "zeros", no_alloc)
    for dims in ([100_000, 100_000], [MAX_FORM_ENTRIES + 1], [2] * 27):
        with pytest.raises(ValueError, match="entries"):
            form_from_dict({"degree": len(dims), "dims": dims, "entries": []})
    with pytest.raises(Allocated):  # the limit itself is allowed
        form_from_dict({"degree": 1, "dims": [MAX_FORM_ENTRIES], "entries": []})


def test_form_dict_entries_must_be_a_list():
    with pytest.raises(ValueError, match="list"):
        form_from_dict({"degree": 1, "dims": [2], "entries": 5})


def test_form_to_dict_uses_one_based_indices():
    doc = form_to_dict(littlewood2())
    indices = {tuple(e["index"]) for e in doc["entries"]}
    assert indices == {(1, 1), (1, 2), (2, 1), (2, 2)}
