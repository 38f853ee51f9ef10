"""Property-based differential tests of the exact kernels.

The exact sup norm and the climb's ratio function are checked against the
brute-force oracles on random dims, with the largest slot (and ties) in
every position.  Hypothesis runs derandomized with a bounded number of
examples, so the suite stays deterministic and fast.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mixnorms import ExponentTuple, MultilinearForm, certify, sup_norm
from mixnorms.search import _fast_ratio_fn

from _oracles import brute_sup

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


def _exponent_tuple(draw, degree):
    """Random blocks covering `degree` slots, exponents in [1, 3]."""
    blocks = []
    left = degree
    while left:
        n = draw(st.integers(1, left))
        blocks.append((n, draw(st.sampled_from([1.0, 4 / 3, 1.5, 2.0, 3.0]))))
        left -= n
    return ExponentTuple(tuple(blocks))


@pytest.mark.filterwarnings("ignore::mixnorms.RaggedBlockWarning")
@PROPERTY
@given(data=st.data(), dims=DIMS, seed=SEEDS, integer=st.booleans())
def test_fast_ratio_matches_certificate(data, dims, seed, integer):
    coeffs = _coeffs(dims, seed, integer)
    exps = _exponent_tuple(data.draw, len(dims))
    fast = _fast_ratio_fn(exps)(coeffs)
    cert = certify(MultilinearForm(coeffs), exps)
    assert math.isclose(fast, cert.ratio, rel_tol=1e-12)


def test_zero_form():
    zero = np.zeros((2, 3))
    assert _fast_ratio_fn(ExponentTuple.parse("1,2"))(zero) == -math.inf
    result = sup_norm(MultilinearForm(zero))
    assert (result.value, result.exact, result.evaluations) == (0.0, True, 32)
