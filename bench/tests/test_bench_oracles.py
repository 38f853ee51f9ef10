"""The benchmark's oracles agree with the test suite's brute-force oracles,
and its checks reject wrong outputs."""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "tests"), str(ROOT / "src")]

import mixnorms as mx  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from _oracles import brute_mixed, brute_rademacher, brute_sup  # noqa: E402

DIMS = [(1,), (4,), (2, 2), (3, 2), (1, 3), (2, 3, 2), (1, 2, 2), (2, 2, 1, 2)]


@pytest.mark.parametrize("dims", DIMS)
def test_closed_form_sup_matches_brute(dims):
    rng = np.random.default_rng(list(dims))
    for coeffs in (rng.standard_normal(dims), rng.integers(-1, 2, size=dims).astype(float)):
        assert oracles.closed_form_sup(coeffs) == pytest.approx(brute_sup(coeffs)[0], rel=1e-12)


def test_closed_form_sup_refuses_unaffordable_head():
    assert oracles.closed_form_sup(np.ones((23, 2))) is None


@pytest.mark.parametrize("dims", DIMS)
def test_nested_norm_matches_brute(dims):
    rng = np.random.default_rng([7, *dims])
    coeffs = rng.standard_normal(dims)
    exps = list(rng.uniform(1.0, 3.0, size=len(dims)))
    expected = brute_mixed(coeffs, [(1, q) for q in exps])
    assert oracles.nested_norm(coeffs, exps) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 5, 7])
@pytest.mark.parametrize("r,s", [(1.0, 1.0), (1.5, 2.0), (2.0, 1.0), (1.9, 3.0)])
def test_rademacher_half_matches_brute(n, r, s):
    vectors = np.random.default_rng([n, 3]).standard_normal((n, 3))
    expected = brute_rademacher(vectors, r, s)
    assert oracles.rademacher_half(vectors, r, s) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("p", [1.0, 4 / 3, 1.5, 1.8, 1.9, 2.0])
def test_khinchin_and_p0_agree_with_the_library(p):
    assert oracles.khinchin(p) == pytest.approx(mx.khinchin_A(p).value, rel=1e-12)
    assert oracles.P0 == pytest.approx(mx.solve_p0(1e-14), abs=1e-13)


def test_certify_check_rejects_a_wrong_sup():
    wl = workloads.Certify(mx, seed=0)
    op = wl.round(0)[0]
    cert = wl.call(op)
    assert wl.check(op, cert) == []
    bad = SimpleNamespace(**{**vars(cert), "sup": cert.sup * (1 + 1e-6)})
    assert wl.check(op, bad)


def test_cli_check_rejects_a_wrong_constant():
    argv = ["bh-bound", "--m", "3", "--json"]
    assert workloads._cli_errors(argv, {"value": 2 ** 0.75}) == []
    assert workloads._cli_errors(argv, {"value": 1.7}) == ["2^(3/4)"]


def test_golden_comparison_tolerance():
    assert workloads.same({"a": [1.0, True, "x"]}, {"a": [1.0 + 1e-15, True, "x"]})
    assert not workloads.same({"a": [1.0]}, {"a": [1.0 + 1e-9]})
    assert not workloads.same({"a": 1}, {"b": 1})
