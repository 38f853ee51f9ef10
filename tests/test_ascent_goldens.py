"""Frozen heuristic sup norms.

`ascent_goldens.json` holds the value and evaluation count of the
restarted ascent on seeded integer-valued forms whose full sign grid
exceeds the budget: the benchmark's three former heuristic shapes, a
degree-4 form, size-1-slot forms, and `triple221` and small forms under
budgets that stop the restarts part-way.  (Degree-1 forms are always
exact and never reach the ascent; the degree-1 cases once frozen here
are checked exact instead.)  They were recorded through `sup_norm`
with the ascent that ran its restarts one after another, when `sup_norm`
took the ascent for every such case.  It now
computes many of them exactly, so those cases call `_ascent_sup`
directly; the one case whose grid fits its budget still goes through
`sup_norm`.  On integer-valued forms every contraction is exact, so any
later ascent must reproduce them bit for bit.

Regenerate (only when a change is meant to move the heuristic) with
``PYTHONPATH=src python tests/test_ascent_goldens.py``.
"""

import json
import pathlib

import numpy as np
import pytest

from mixnorms import MultilinearForm, random_sign_form, sup_norm, triple221
from mixnorms.forms import DEFAULT_SUP_BUDGET, _ascent_sup

GOLDENS = pathlib.Path(__file__).with_name("ascent_goldens.json")

#: Budgets that cut the restarts short at different points.
SMALL_BUDGETS = (1, 5, 40, 500, 5000)

#: (name, dims or None for triple221, seed, budget).  "sign" forms have
#: entries in {-1, +1}, "int" forms in {-2, ..., 2}.
CASES = [
    ("sign", (12, 12), 0, None),
    ("sign", (64, 64), 1, None),
    ("sign", (30, 30, 30), 2, None),
    ("sign", (5, 5, 5, 5), 3, 2 ** 19),
    ("int", (1, 25), 5, None),
    ("int", (25, 1, 3), 6, None),
] + [
    (kind, dims, seed, budget)
    for kind, dims, seed in [
        ("triple221", None, 0),
        ("int", (7, 7), 7),
        ("int", (5, 4, 4), 8),
        ("int", (4, 3, 3, 3), 9),
        ("sign", (2, 5, 1, 6), 10),
    ]
    for budget in SMALL_BUDGETS
]


def _form(kind, dims, seed) -> MultilinearForm:
    if kind == "triple221":
        return triple221()
    if kind == "sign":
        return random_sign_form(dims, seed)
    return MultilinearForm(np.random.default_rng(seed).integers(-2, 3, size=dims).astype(float))


def _key(case) -> str:
    kind, dims, seed, budget = case
    return f"{kind} {dims} seed={seed} budget={budget}"


def _budget(case) -> int:
    return DEFAULT_SUP_BUDGET if case[3] is None else case[3]


def _run(case) -> dict:
    """The case through the ascent, or through `sup_norm` if its full grid
    fits the budget."""
    form = _form(*case[:3])
    if 2 ** sum(form.dims) <= _budget(case):
        res = sup_norm(form, budget=_budget(case))
        return {"value": res.value, "exact": res.exact, "evaluations": res.evaluations}
    value, evaluations = _ascent_sup(form.coeffs, _budget(case))
    return {"value": value, "exact": False, "evaluations": evaluations}


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDENS.read_text())


@pytest.mark.parametrize("case", CASES, ids=_key)
def test_heuristic_sup_is_frozen(case, goldens):
    assert _run(case) == goldens[_key(case)]


def test_goldens_reach_the_heuristic(goldens):
    # Every case but triple221 (whose 1,024 vertices fit budget 5000) pins
    # the ascent.  `sup_norm` itself takes the ascent where the exact
    # kernel's work exceeds the budget and the form's size, and is exact and
    # no lower elsewhere.
    exact = {key for key, want in goldens.items() if want["exact"]}
    assert exact == {"triple221 None seed=0 budget=5000"}
    heuristic = set()
    for case in CASES:
        want = goldens[_key(case)]
        res = sup_norm(_form(*case[:3]), budget=_budget(case))
        if res.exact:
            assert res.value >= want["value"]
        else:
            assert {"value": res.value, "exact": False, "evaluations": res.evaluations} == want
            heuristic.add(_key(case))
    assert {"sign (64, 64) seed=1 budget=None", "triple221 None seed=0 budget=40"} <= heuristic
    assert "sign (12, 12) seed=0 budget=None" not in heuristic


#: Degree-1 cases the ascent once froze, with the heuristic value it found.
#: `sup_norm` now computes them exactly at the same budgets.
DEGREE_ONE_CASES = [
    (("int", (30,), 4, None), 39.0),
    (("int", (14,), 11, 1), 7.0),
    (("int", (14,), 11, 5), 7.0),
    (("int", (14,), 11, 40), 15.0),
    (("int", (14,), 11, 500), 15.0),
    (("int", (14,), 11, 5000), 15.0),
]


@pytest.mark.parametrize("case, heuristic", DEGREE_ONE_CASES,
                         ids=[_key(case) for case, _ in DEGREE_ONE_CASES])
def test_degree_one_cases_are_exact(case, heuristic):
    # A degree-1 form's sup norm is its l1 norm, reached on 2^n sign
    # vectors; it is exact at every budget and no lower than the ascent was.
    form = _form(*case[:3])
    res = sup_norm(form, budget=_budget(case))
    assert res.exact
    assert res.value == np.abs(form.coeffs).sum() >= heuristic
    assert res.evaluations == 2 ** form.coeffs.size


if __name__ == "__main__":
    doc = {_key(case): _run(case) for case in CASES}
    GOLDENS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(doc)} cases to {GOLDENS}")
