"""The block worker pool of `forms._map_blocks`: its results equal the
inline loop's bit for bit, it carries the caller's numpy error state, it
re-raises a block's exception, only calls with several blocks of at most
`_CHUNK` elements build it, a forked child gets a fresh one, and the
memory bounds hold at its worker cap.

Every test patches the CPU count, so the pool runs on any host, and
clears the pool around itself, so each builds its own."""

import multiprocessing
import sys
import threading
import warnings

import numpy as np
import pytest

from mixnorms import (
    ExponentTuple,
    certify,
    make_instance,
    rademacher_average,
    random_sign_form,
    sup_norm,
    triple221,
)
from mixnorms import forms
from mixnorms.forms import _MAX_WORKERS, _exact_sup, _map_blocks, _pool

from test_cotype import test_average_memory_is_bounded_at_the_cap as average_memory
from test_forms import test_sup_norm_exact_memory_does_not_grow_with_budget as exact_memory
from test_search import test_optimize_memory_on_many_small_slots as optimize_memory

#: Seconds any one wait of these tests may take.
TIMEOUT = 120


def _drop_pool():
    if _pool.cache_info().currsize:
        _pool().shutdown(wait=True, cancel_futures=True)
    _pool.cache_clear()


@pytest.fixture
def cpus(monkeypatch):
    """Sets the CPU count `forms` sees; the pool is dropped before and after."""
    _drop_pool()
    monkeypatch.setattr(forms, "_cpus", lambda: 8)
    yield lambda n: monkeypatch.setattr(forms, "_cpus", lambda: n)
    _drop_pool()


def _within(seconds, fn, *args):
    """fn(*args) on a daemon thread that must finish within `seconds`."""
    out = {}

    def run():
        try:
            out["value"] = fn(*args)
        except BaseException as exc:  # handed to the caller below
            out["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"{fn.__name__} did not return within {seconds} s"
    if "error" in out:
        raise out["error"]
    return out["value"]


def _n20_families():
    rng = np.random.default_rng(2025)
    for r in (1.0, 1.5, 2.0):
        for s in (r, 2.5 - r / 2):  # s = r, and s != r on both sides of r
            yield rng.standard_normal((20, 3)), r, s


EXACT_DIMS = [(18, 18), (12, 12, 12), (5,) * 7]


def test_blocks_equal_the_inline_loop_under_a_short_switch_interval(cpus):
    cases = list(_n20_families())
    forms_ = [random_sign_form(dims, 4).coeffs for dims in EXACT_DIMS]
    cpus(1)
    inline = ([rademacher_average(*case) for case in cases],
              [_exact_sup(coeffs) for coeffs in forms_])
    assert _pool.cache_info().currsize == 0
    cpus(8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = _within(TIMEOUT, lambda: ([rademacher_average(*case) for case in cases],
                                           [_exact_sup(coeffs) for coeffs in forms_]))
    finally:
        sys.setswitchinterval(interval)
    assert _pool()._max_workers == _MAX_WORKERS
    assert pooled == inline


def test_a_raising_block_reraises_in_the_caller(cpus):
    def block(x):
        if x == 3:
            raise ArithmeticError(f"block {x}")
        return x

    with pytest.raises(ArithmeticError, match="block 3"):
        _within(TIMEOUT, _map_blocks, block, range(40))
    assert _within(TIMEOUT, _map_blocks, block, range(3)) == [0, 1, 2]


def test_workers_carry_the_callers_error_state(cpus):
    # 18 vectors take four blocks; make_instance ignores the overflow of
    # |.|^r in them and rejects the infinite average instead.
    vectors = 1e200 * np.random.default_rng(18).standard_normal((18, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="fall outside float64 range"):
            _within(TIMEOUT, make_instance, vectors, 2.0, 2.0)
    assert _pool.cache_info().currsize == 1


def test_the_pool_is_built_only_for_several_small_blocks(cpus):
    certify(triple221(), ExponentTuple.parse("2,2,1"))
    # Two top-level blocks of 2^15 elements run one after another, so as
    # not to hold both at once.
    assert sup_norm(random_sign_form((2,) * 16, 0)).exact
    # The benchmark's exact certify kinds, one top-level block each.
    for pos, (dims, exps) in enumerate([
        ((8, 8), "1,2"), ((10, 10), "4/3,4/3"), ((11, 11), "1,2"), ((7, 7, 7), "2,2,1"),
        ((5, 5, 5, 5), "8/5,8/5,8/5,8/5"), ((4, 4, 4, 4, 4), "2,2,2,2,1"), ((12, 12), "1,2"),
    ]):
        assert certify(random_sign_form(dims, pos), ExponentTuple.parse(exps)).sup_exact
    rademacher_average(np.random.default_rng(16).standard_normal((16, 4)), 1.5, 1.5)
    assert _pool.cache_info().currsize == 0


def _child_average(conn):
    conn.send(rademacher_average(np.ones((18, 2)), 1.5, 1.5))
    conn.close()


def test_a_forked_child_builds_its_own_pool(cpus):
    # Sixteen blocks leave the parent's pool with more idle credits than
    # the child's four blocks need, so a pool inherited by the child would
    # start no thread for them.
    rademacher_average(np.ones((20, 2)), 1.5, 1.5)
    assert _pool.cache_info().currsize == 1
    expected = rademacher_average(np.ones((18, 2)), 1.5, 1.5)
    ctx = multiprocessing.get_context("fork")
    parent, child = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_child_average, args=(child,))
    proc.start()
    child.close()
    try:
        assert parent.poll(TIMEOUT), "the forked child's average did not return"
        assert parent.recv() == expected
        proc.join(TIMEOUT)
        assert not proc.is_alive() and proc.exitcode == 0
    finally:
        if proc.is_alive():
            proc.kill()


@pytest.mark.parametrize("test", [average_memory, exact_memory, optimize_memory],
                         ids=lambda test: test.__name__)
def test_memory_bounds_hold_at_the_worker_cap(cpus, test):
    cpus(_MAX_WORKERS)
    test()
