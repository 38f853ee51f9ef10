"""The block map of `forms._map_blocks`, run by the caller and the helper
threads of `forms._pool` for `cotype.rademacher_average`: its results
equal the inline loop's bit for bit, it carries the caller's numpy error
state, it re-raises the lowest failing block's exception, it runs at most
`_MAX_WORKERS` blocks at once, only averages with several blocks build the
pool and the exact sup kernel never does, a forked child gets a fresh one,
and the memory bounds hold at the cap.

Every test patches the CPU count, so the pool runs on any host.  Those
that run in this process clear the pool around themselves, so each builds
its own; the memory bounds are measured in a spawned process."""

import multiprocessing
import sys
import threading
import time
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


@pytest.mark.parametrize("n", [2, 8])
def test_blocks_equal_the_inline_loop_under_a_short_switch_interval(cpus, n):
    cases = list(_n20_families())
    cpus(1)
    inline = [rademacher_average(*case) for case in cases]
    assert _pool.cache_info().currsize == 0
    cpus(n)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = _within(TIMEOUT, lambda: [rademacher_average(*case) for case in cases])
    finally:
        sys.setswitchinterval(interval)
    assert _pool()._max_workers == min(n, _MAX_WORKERS) - 1
    assert pooled == inline


def test_a_raising_block_reraises_in_the_caller(cpus):
    def block(x):
        if x == 3:
            raise ArithmeticError(f"block {x}")
        return x

    with pytest.raises(ArithmeticError, match="block 3"):
        _within(TIMEOUT, _map_blocks, block, range(40))
    assert _within(TIMEOUT, _map_blocks, block, range(3)) == [0, 1, 2]


def test_the_lowest_failing_block_reraises_though_a_later_one_fails_first(cpus):
    # Block 0 fails only after block 2 has failed, and no thread takes a
    # block after seeing a failure.
    started, failed = [], threading.Event()

    def block(x):
        started.append(x)
        if x == 0:
            failed.wait(TIMEOUT)
            raise ArithmeticError("block 0")
        if x == 2:
            failed.set()
            raise ArithmeticError("block 2")
        time.sleep(0.01)
        return x

    with pytest.raises(ArithmeticError, match="block 0"):
        _within(TIMEOUT, _map_blocks, block, range(100))
    assert {0, 1, 2} <= set(started) and len(started) < 100


def test_the_caller_and_its_helpers_run_at_most_the_cap_at_once(cpus):
    lock = threading.Lock()
    running, most, threads = [0], [0], set()

    def block(x):
        with lock:
            running[0] += 1
            most[0] = max(most[0], running[0])
            threads.add(threading.get_ident())
        time.sleep(0.002)
        with lock:
            running[0] -= 1
        return x

    def run():
        return _map_blocks(block, range(200)), threading.get_ident()

    results, caller = _within(TIMEOUT, run)
    assert results == list(range(200))
    assert most[0] <= _MAX_WORKERS
    assert caller in threads and 1 < len(threads) <= _MAX_WORKERS


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
    assert sup_norm(random_sign_form((2,) * 16, 0)).exact
    # The benchmark's exact certify kinds.
    for pos, (dims, exps) in enumerate([
        ((8, 8), "1,2"), ((10, 10), "4/3,4/3"), ((11, 11), "1,2"), ((7, 7, 7), "2,2,1"),
        ((5, 5, 5, 5), "8/5,8/5,8/5,8/5"), ((4, 4, 4, 4, 4), "2,2,2,2,1"), ((12, 12), "1,2"),
    ]):
        assert certify(random_sign_form(dims, pos), ExponentTuple.parse(exps)).sup_exact
    rademacher_average(np.random.default_rng(16).standard_normal((16, 4)), 1.5, 1.5)
    assert _pool.cache_info().currsize == 0


def test_the_sup_kernel_never_builds_the_pool(cpus):
    # Both have several top-level blocks of at most _CHUNK elements, which
    # the kernel runs one after another in the calling thread.
    for dims in [(18, 18), (13, 13, 13)]:
        _exact_sup(random_sign_form(dims, 0).coeffs)
    assert _pool.cache_info().currsize == 0


def _child_average(conn):
    average = rademacher_average(np.ones((18, 2)), 1.5, 1.5)
    conn.send((average, any(thread.is_alive() for thread in _pool()._threads)))
    conn.close()


def test_a_forked_child_builds_its_own_pool(cpus):
    # Sixteen blocks leave the parent's pool with idle credits, so a pool
    # inherited by the child would start no thread: the caller would run
    # every block, and the pool would hold only the parent's dead threads.
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
        assert parent.recv() == (expected, True)
        proc.join(TIMEOUT)
        assert not proc.is_alive() and proc.exitcode == 0
    finally:
        if proc.is_alive():
            proc.kill()


@pytest.mark.parametrize("test", [average_memory, optimize_memory],
                         ids=lambda test: test.__name__)
def test_memory_bounds_hold_at_the_worker_cap(test):
    # The measuring process reports the CPUs itself.
    test(workers=_MAX_WORKERS)
