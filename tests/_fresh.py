"""`fresh_peak`: the peak memory of one call, traced in a newly spawned
Python process.

`tracemalloc` counts only what is allocated while it traces, so a process
whose earlier work has filled the library's caches, numpy's and the
allocator's reads a lower peak than a cold one: after the rest of the
suite, the bounded peaks read 11-65% below their values in a test run
alone.  Each such bound is checked in a process of its own, so it holds
for a cold process whatever ran before.
"""

import multiprocessing
import tracemalloc
import warnings
from concurrent.futures import ProcessPoolExecutor

from mixnorms import forms


def fresh_peak(fn, *args, workers=None, **kwargs):
    """``(fn(*args, **kwargs), peak)`` from a newly spawned interpreter,
    `peak` being the most bytes `tracemalloc` traced during the call.  With
    `workers`, that process's `forms._cpus` reports that many CPUs.  `fn`,
    the arguments and the result cross by pickling, and the arguments are
    unpickled before tracing starts.  A RuntimeWarning raises, as it does
    under this suite's warning filter."""
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(1, mp_context=spawn) as child:
        return child.submit(_traced, workers, fn, args, kwargs).result()


def _traced(workers, fn, args, kwargs):
    if workers is not None:
        forms._cpus = lambda: workers
    warnings.simplefilter("error", RuntimeWarning)
    tracemalloc.start()
    try:
        return fn(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
