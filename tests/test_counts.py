"""Every count argument of the library follows one rule
(`forms._checked_count`): a Python or numpy integer in range is used as
the equal Python int, and anything else is a ValueError whose message
starts with the argument's name.  Floats (integral ones and NaN too),
bools, strings and None are refused, never truncated or let through."""

import json
import math

import numpy as np
import pytest

from mixnorms import (
    ExponentTuple,
    bh_exponents,
    bh_upper_bound,
    equivalence_demo,
    equivalence_gap,
    growth_witness,
    littlewood2,
    optimize_ratio,
    random_sign_form,
    sqrt2_baseline,
    sup_norm,
)

E12 = ExponentTuple.parse("1,2")

# (site, name in the message, call with the count, a valid count)
SITES = [
    ("sup_norm.budget", "budget",
     lambda v: sup_norm(random_sign_form((5, 5, 5), 0), budget=v), 1000),
    ("random_sign_form.dims", "dims", lambda v: random_sign_form((v, 2), 0), 3),
    ("optimize_ratio.dims", "dims", lambda v: optimize_ratio((v, 2), E12, budget=40), 3),
    ("optimize_ratio.seed", "seed", lambda v: optimize_ratio((2, 2), E12, budget=40, seed=v), 1),
    ("optimize_ratio.budget", "budget", lambda v: optimize_ratio((2, 2), E12, budget=v), 40),
    ("optimize_ratio.restarts", "restarts",
     lambda v: optimize_ratio((2, 2), E12, budget=40, restarts=v), 2),
    ("growth_witness.trials", "trials",
     lambda v: growth_witness(E12, [2], trials=v, budget_per_n=100), 2),
    ("growth_witness.n", "n",
     lambda v: growth_witness(E12, [2, v], trials=2, budget_per_n=100), 3),
    ("equivalence_demo.m", "m", lambda v: equivalence_demo(littlewood2(), v), 3),
    ("ExponentTuple.blocks", "block size", lambda v: ExponentTuple(((v, 2.0), (1, 1.0))), 2),
    ("bh_exponents.m", "degree", bh_exponents, 3),
    ("sqrt2_baseline.m", "degree", sqrt2_baseline, 3),
    ("equivalence_gap.m", "degree", equivalence_gap, 3),
    ("bh_upper_bound.m", "degree", bh_upper_bound, 3),
]

BAD = [2.5, 2.0, math.nan, True, "3", None]

# restarts=None is the default, no cap on the restarts.
MALFORMED = [pytest.param(name, call, bad, id=f"{site}-{bad!r}")
             for site, name, call, _ in SITES for bad in BAD
             if (site, bad) != ("optimize_ratio.restarts", None)]


@pytest.mark.parametrize("name, call, bad", MALFORMED)
def test_a_malformed_count_is_a_value_error_naming_it(name, call, bad):
    with pytest.raises(ValueError) as info:
        call(bad)
    assert str(info.value).startswith(f"{name} must be ")


@pytest.mark.parametrize("call, valid", [s[2:] for s in SITES], ids=[s[0] for s in SITES])
def test_a_numpy_integer_count_acts_as_the_python_int(call, valid):
    # repr shows a numpy scalar as np.int64(...), so it tells the two apart
    # anywhere in the result, and it shows every float bit for bit.
    assert repr(call(np.int64(valid))) == repr(call(valid))


def test_certificate_counts_are_python_ints():
    cert = optimize_ratio((2, 2), E12, budget=np.int64(50), seed=np.int64(3))
    assert type(cert.seed) is int and type(cert.budget) is int
    assert json.loads(json.dumps(cert.to_dict()))["budget"] == 50


def test_sup_norm_never_passes_a_budget_that_is_no_integer():
    # A budget of 1000.5 once admitted 1,001 evaluations.
    assert sup_norm(random_sign_form((5, 5, 5), 0), budget=1000).evaluations <= 1000
    with pytest.raises(ValueError, match=r"budget must be an integer >= 1, got 1000\.5"):
        sup_norm(random_sign_form((5, 5, 5), 0), budget=1000.5)


def test_count_messages_name_the_bound():
    # 3.0 passed the form's degree check and failed deep inside as a TypeError.
    with pytest.raises(ValueError, match="m must be an integer >= 2, got 3.0"):
        equivalence_demo(littlewood2(), 3.0)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        optimize_ratio((2, 2), E12, budget=10, seed=np.int64(-1))
    with pytest.raises(ValueError, match="degree must be >= 2, got 1"):
        equivalence_gap(1)
    with pytest.raises(ValueError, match="degree must be <= 100000, got 100001"):
        bh_upper_bound(np.int64(100_001))
    with pytest.raises(ValueError, match="block size must be >= 1, got nan"):
        ExponentTuple(((math.nan, 2.0),))


@pytest.mark.parametrize("seed", [0, 5, np.int64(5), np.uint64(2 ** 63), 2 ** 70, (7, 3), [7, 3],
                                  (np.int32(7), 3), range(4)],
                         ids=repr)
def test_a_valid_seed_draws_the_generators_bits(seed):
    # Sequences such as (7, k) seed the ascent's starts.
    form = random_sign_form((3, 5), seed)
    expected = 2.0 * np.random.default_rng(seed).integers(0, 2, size=(3, 5)) - 1.0
    assert np.array_equal(form.coeffs, expected)


@pytest.mark.parametrize("bad, message", [
    (None, "seed must be an integer >= 0, got None"),
    (True, "seed must be an integer >= 0, got True"),
    (2.5, "seed must be an integer >= 0, got 2.5"),
    (-1, "seed must be >= 0, got -1"),
    ("3", "seed must be an integer >= 0, got '3'"),
    (b"\x01", "seed must be an integer >= 0, got b'\\x01'"),
    ((), "seed must be an integer >= 0 or a nonempty sequence of them, got ()"),
    ((7, -1), "seed must be >= 0, got -1"),
    ((7, 1.0), "seed must be an integer >= 0, got 1.0"),
    (((7, 1),), "seed must be an integer >= 0, got (7, 1)"),
    (np.array([7, 1]), "seed must be an integer >= 0, got array"),
], ids=repr)
def test_a_malformed_seed_is_a_value_error_naming_it(bad, message):
    # None once drew OS entropy, so the form changed from call to call;
    # True acted as seed 1, and 2.5 and -1 leaked numpy's errors.
    with pytest.raises(ValueError) as info:
        random_sign_form((2, 2), bad)
    assert str(info.value).startswith(message)
