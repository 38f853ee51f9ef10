"""Finitely supported real multilinear forms and their sup norms.

A form of degree m is stored as a dense real coefficient tensor of shape
``dims``; evaluating it at vectors x^(1), ..., x^(m) contracts one tensor
axis per argument.  The sup norm here is the operator norm on c0: the
supremum of |U(x^(1), ..., x^(m))| over the unit balls of the sup norm.

For real scalars that supremum is attained at sign vectors, because the
form is affine in each coordinate.  The maximum over one slot is even
closed form: it is the l1 norm of the vector left after contracting every
other slot.  So the exact sup norm takes the largest slot in closed form
and enumerates the sign vectors of the others, with one sign of each
fixed, since flipping one argument only flips the sign of the value.  A
degree-m form needs 2^(sum(dims) - max(dims) - m + 1) sign combinations,
contracted in blocks of bounded size on the calling thread, and each
one's closed-form l1 norm adds up max(dims) absolute values.  The exact
value is used whenever that work fits the evaluation budget or the
form's size, which the work equals when no enumerated slot has more than
two entries.  Together the patterns and the closed form cover every
vertex, so ``exact`` means that every vertex is covered, and
``evaluations`` counts the full grid of 2^sum(dims) vertices, which can
exceed the budget.  The rest, of degree >= 2 with an
enumerated slot of size >= 3, fall back to an alternating coordinate-ascent
heuristic with a valid lower bound: 32 restarts from fixed random vertices,
each step setting one slot's signs to those of its gradient when that
changes a sign and raises the value; restart k's start is one
`_random_signs` stream of seed (7, k), split across the slots.  Restarts
advance in lockstep, in groups whose temporaries stay within max(form size,
2^15) elements, each group on the budget left at its start; a restart that
spent more than is left reruns.  A slot step contracts the coefficients
with the other slots' signs by batched matmuls over the group.  The first
of them, the only one that costs the form's size per restart, contracts
the largest other slot and is kept until that slot's signs change, so a
sweep over the m slots makes at most two such products, not m.

All user-facing I/O (the JSON form files) uses 1-based indices; the Python
API is 0-based like the underlying arrays.  A form file may declare at
most MAX_FORM_ENTRIES coefficients, checked before any allocation.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import sys
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import Callable, Sequence

import numpy as np

#: Default evaluation budget of `sup_norm`.  The exact kernel is used
#: whenever its work, 2^(sum(dims) - max(dims) - m + 1) sign patterns times
#: max(dims) terms, fits it or the form's size; the heuristic ascent spends
#: at most this many evaluations.
DEFAULT_SUP_BUDGET = 2 ** 22

#: Restarts used by the heuristic ascent when the exact kernel is unaffordable.
ASCENT_RESTARTS = 32

_ASCENT_SEED = 7  # fixed internal seed: sup_norm must be deterministic

#: Elements per contracted block in the exact sup norm and per buffer of
#: `cotype.rademacher_average`.  Peak memory of the exact path is a few
#: blocks or the form's own size, whichever is larger; it does not grow
#: with the number of sign vertices or the budget.
_CHUNK = 1 << 15

#: Most threads of `_map_blocks`, the caller's included, whatever the
#: host: each runs one block at a time, so the cap bounds the extra block
#: buffers (near 2 MiB at 4) and keeps the peak-memory bounds of the tests
#: true on any machine.
_MAX_WORKERS = 4

#: Most coefficients a JSON form file may declare (512 MiB of float64),
#: checked before the coefficient tensor is allocated.
MAX_FORM_ENTRIES = 2 ** 26

#: Slots up to this support size read their sign vectors from a cached
#: table (the largest is under 2 MiB); larger slots copy each block in
#: runs from the half-size table (`_sign_block`).
_TABLE_BITS = 14


@dataclass(frozen=True)
class MultilinearForm:
    """Dense real coefficient tensor of a finitely supported m-linear form."""

    coeffs: np.ndarray
    label: str | None = None

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=float)
        if arr.ndim < 1:
            raise ValueError("a multilinear form needs degree >= 1")
        if any(d < 1 for d in arr.shape):
            raise ValueError(f"every slot needs support size >= 1, got dims {arr.shape}")
        # The l1 norm bounds every sign sum and vertex value; a NaN or inf entry makes it one.
        with np.errstate(over="ignore"):
            l1 = np.abs(arr).sum()
        if not math.isfinite(l1):
            raise ValueError("form coefficients must be finite, with an l1 norm within float64")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @property
    def degree(self) -> int:
        return self.coeffs.ndim

    @property
    def dims(self) -> tuple[int, ...]:
        return self.coeffs.shape

    def scaled(self, c: float) -> "MultilinearForm":
        return MultilinearForm(c * self.coeffs, label=self.label)


@dataclass(frozen=True)
class SupNormResult:
    """Sup-norm value, whether it covers every sign vertex, and how many
    form evaluations it stands for.  An exact value reports the full grid
    of 2^sum(dims) vertices, which can exceed the budget that admitted it;
    a non-exact value (degree >= 2, an enumerated slot of size >= 3) counts
    the ascent's evaluations, at most the budget, and is a lower bound."""

    value: float
    exact: bool
    evaluations: int

    def __repr__(self) -> str:
        return (f"SupNormResult(value={self.value!r}, exact={self.exact!r}, "
                f"evaluations={_printable_count(self.evaluations)})")


def _printable_count(count: int) -> int | str:
    """`count`, or the string ``2^N`` for an exact result's count of 2^N
    vertices when Python's int-to-str digit limit refuses to print it."""
    try:
        str(count)
    except ValueError:
        return f"2^{count.bit_length() - 1}"
    return count


def evaluate(form: MultilinearForm, points: Sequence[Sequence[float]]) -> float:
    """Evaluate the form at one vector per slot.

    Each vector must have exactly the slot's support size; the result is
    the full multilinear expansion sum(coeff * prod points[i][j_i]).
    """
    if len(points) != form.degree:
        raise ValueError(
            f"form of degree {form.degree} needs {form.degree} vectors, got {len(points)}"
        )
    val = form.coeffs
    for i, p in enumerate(points):
        v = np.asarray(p, dtype=float)
        if v.ndim != 1 or v.shape[0] != form.dims[i]:
            raise ValueError(
                f"slot {i + 1} expects a vector of length {form.dims[i]}, "
                f"got length {v.shape[0] if v.ndim == 1 else 'non-vector'}"
            )
        val = np.tensordot(v, val, axes=(0, 0))  # slot i is the leading axis of val
    return float(val)


def _sign_rows(d: int, start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 of the table of all 2**d sign vectors of length
    d, in which row k has -1 exactly at the set bits of k."""
    idx = np.arange(start, stop, dtype=np.int64)
    return 1.0 - 2.0 * ((idx[:, None] >> np.arange(d)) & 1)


@lru_cache(maxsize=_TABLE_BITS + 1)
def _sign_vertices(d: int) -> np.ndarray:
    """All 2**d sign vectors of length d, one per row, in a fixed order."""
    out = _sign_rows(d, 0, 2 ** d)
    out.flags.writeable = False
    return out


def _sign_block(d: int, start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 of `_sign_vertices(d)`, cached only up to _TABLE_BITS.

    A larger slot's rows are copied in runs of at most 2^low rows, low =
    _TABLE_BITS - 1, split at the multiples of 2^low: in each, the low
    columns are a slice of the cached `_sign_vertices(low)` and the others
    repeat the run's high bits.  A half-size table, so what such a slot
    leaves cached stays below the largest table."""
    if d <= _TABLE_BITS:
        return _sign_vertices(d)[start:stop]
    low = _TABLE_BITS - 1
    table, size = _sign_vertices(low), 1 << low
    out = np.empty((stop - start, d))
    edges = [start, *range((start // size + 1) * size, stop, size), stop]
    for a, b in zip(edges, edges[1:]):
        high, i = divmod(a, size)
        out[a - start:b - start, :low] = table[i:i + b - a]
        out[a - start:b - start, low:] = _sign_rows(d - low, high, high + 1)
    return out


def _cpus() -> int:
    """CPUs this process may run on (all of the host's where the platform
    has no affinity mask)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@cache
def _pool():
    """The helper threads of `_map_blocks`, built on first use with one per
    CPU beyond the caller's, up to _MAX_WORKERS - 1.  The import waits
    until then: most processes never run a block on them."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(min(_cpus(), _MAX_WORKERS) - 1, thread_name_prefix="mixnorms")


# A forked child has none of the parent's threads, so a pool inherited from
# it would queue jobs that nothing runs.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _map_blocks(fn: Callable, items: Sequence) -> list:
    """`[fn(x) for x in items]`, with the calls shared between the caller
    and min(CPUs, _MAX_WORKERS) - 1 helper threads of `_pool` when there
    are two or more and the process may use more than one CPU.

    The calls must be independent and call only private helpers, which
    the benchmark's tracer does not wrap; numpy's loops release the
    interpreter lock, so blocks overlap.  Every thread takes the next index
    from one shared iterator, whose steps the interpreter lock keeps whole,
    until it runs out, so at most min(CPUs, _MAX_WORKERS) calls run at once
    and there is one job per helper, not per item.  Each call runs under
    the caller's numpy error state, which a helper does not inherit.
    Results come back in item order.  A thread that finds a call has
    raised takes no further item, and the lowest failing item's exception
    re-raises: indices are handed out in order, so every item below it has
    run, and that is the exception the one-thread loop raises."""
    helpers = min(_cpus(), _MAX_WORKERS, len(items)) - 1 if len(items) > 1 else 0
    if helpers < 1:
        return list(map(fn, items))
    err = np.geterr()
    indices = iter(range(len(items)))
    results = [None] * len(items)
    errors = {}

    def work():
        with np.errstate(**err):
            for i in indices:
                if errors:
                    return
                try:
                    results[i] = fn(items[i])
                except BaseException as exc:  # re-raised below unless a lower item failed
                    errors[i] = exc
                    return

    jobs = [_pool().submit(work) for _ in range(helpers)]
    work()
    for job in jobs:
        if not job.cancel():  # a job still queued finds nothing left to do
            job.result()
    if errors:
        raise errors[min(errors)]
    return results


def _max_l1(arr: np.ndarray, dims: tuple[int, ...], j: int) -> float:
    """Max over the sign vectors of slots j..m-2 of the l1 norm over the
    last slot, for `arr` of shape (dims[j], ..., dims[-1], P) holding P
    partial contractions (overwritten when j = m-1).  Each slot runs over
    the half of its table whose last sign is +1: flipping a whole slot
    only flips the contracted vector, which keeps its l1 norm.  Every
    level runs its blocks one after another on the calling thread."""
    d = dims[j]
    flat = arr.reshape(d, -1)
    if j == len(dims) - 1:
        # In place: a second block-sized temporary costs more than the sum.
        return float(np.abs(flat, out=flat).sum(axis=0).max())
    n = 2 ** (d - 1)
    step = max(1, _CHUNK // flat.shape[1])

    def block(start):
        # Contracting the leading axis keeps the next slot's axis leading
        # and collects the sign rows at the back.
        return _max_l1(flat.T @ _sign_block(d, start, min(n, start + step)).T, dims, j + 1)

    return max(map(block, range(0, n, step)))


def _pattern_exponent(dims: Sequence[int]) -> int:
    """Log2 of `_exact_sup`'s sign patterns: sum(dims) - max(dims) - m + 1."""
    return sum(dims) - max(dims) - len(dims) + 1


def _exact_work_fits(dims: Sequence[int], budget: int) -> bool:
    """Whether `_exact_sup`'s work on `dims` fits `budget`: its
    2^`_pattern_exponent` sign patterns times the max(dims) terms of each
    closed-form l1 norm; a degree-1 form's work is its size.  Decided from
    the exponent first, so no huge power is built."""
    exponent = _pattern_exponent(dims)
    return exponent < budget.bit_length() and max(dims) << exponent <= budget


def _slot_order(dims: Sequence[int]) -> list[int]:
    """Slots in `_exact_sup`'s order: the enumerated slots largest first
    (ties by position), then the largest slot (the last of equals)."""
    last = max(range(len(dims)), key=lambda i: (dims[i], i))
    return sorted((i for i in range(len(dims)) if i != last), key=lambda i: -dims[i]) + [last]


def _exact_sup(coeffs: np.ndarray) -> float:
    """Exact sup norm over the sign vertices of every slot.

    The largest slot goes last and is maximised in closed form (the l1
    norm of the contracted vector).  The others are enumerated, largest
    first, with one sign of each fixed at +1, since U(-x, ...) =
    -U(x, ...).  A degree-1 form gives the l1 norm of its coefficients.
    """
    if coeffs.ndim == 1:
        return float(np.abs(coeffs).sum())
    dims = coeffs.shape
    order = _slot_order(dims)
    return _max_l1(np.transpose(coeffs, order), tuple(dims[i] for i in order), 0)


@lru_cache(maxsize=16)
def _ascent_starts(dims: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Start signs of every restart, one read-only int8 table of shape
    (ASCENT_RESTARTS, d) per slot: row k negates the `_random_signs` draw
    of sum(dims) entries from seed (_ASCENT_SEED, k), drawn one restart at
    a time and split at the cumulative dims, not at word boundaries."""
    draws = np.empty((ASCENT_RESTARTS, sum(dims)), dtype=np.int8)
    for k in range(ASCENT_RESTARTS):
        draws[k] = _random_signs((sum(dims),), [(_ASCENT_SEED, k)])[0]
    np.negative(draws, out=draws)
    tables = tuple(np.split(draws, np.cumsum(dims)[:-1], axis=1))
    for table in tables:
        table.flags.writeable = False
    return tables


class _Gradients:
    """Slot gradients of a batch of sign vertices of a form of degree >= 2:
    for every row, the coefficient tensor contracted with the row's signs
    in every slot but one.  The largest other slot f is contracted first,
    by one matmul with a cached matrix layout of the coefficients
    (`contract_first`), the only product that costs the form's size per
    row; the rest one slot at a time, last first, by batched matmuls over
    the rows.  The first product depends on slot f's signs alone, so the
    caller keeps it in `firsts`, keyed by f, while those signs hold.  Every
    slot but the largest takes the largest as f, and the largest takes the
    runner-up, so there are two keys."""

    def __init__(self, coeffs: np.ndarray):
        self.dims = dims = coeffs.shape
        # For slot s, the largest other slot: the largest, or for the
        # largest itself the runner-up.
        by_size = sorted(range(len(dims)), key=lambda i: -dims[i])
        self.first = [by_size[by_size[0] == s] for s in range(len(dims))]
        self.mats = {
            f: np.moveaxis(coeffs, f, 0).reshape(dims[f], -1) for f in set(self.first)
        }
        # Elements per row of the largest temporary, the first product.
        self.row_elements = max(m.shape[1] for m in self.mats.values())

    def contract_first(self, signs: list[np.ndarray], f: int) -> np.ndarray:
        """The coefficients contracted with every row's signs in slot f."""
        return signs[f] @ self.mats[f]

    def __call__(self, signs: list[np.ndarray], slot: int,
                 firsts: dict[int, np.ndarray]) -> np.ndarray:
        """The rows' gradients in `slot`, with the first product read from
        or added to `firsts`.  On a bilinear form the gradient is a view of
        that product, so the caller must not write into it."""
        dims = self.dims
        n = signs[0].shape[0]
        f = self.first[slot]
        if f not in firsts:
            firsts[f] = self.contract_first(signs, f)
        arr = firsts[f]
        for j in reversed(range(len(dims))):
            # Slots after j are contracted already, except `slot` itself.
            if j == slot or j == f:
                continue
            if j > slot:  # j is the last axis: one matrix-vector product per row
                arr = arr.reshape(n, -1, dims[j]) @ signs[j][:, :, None]
            else:
                arr = signs[j][:, None, None, :] @ arr.reshape(n, -1, dims[j], dims[slot])
        return arr.reshape(n, dims[slot])


def _lockstep_ascent(grads: _Gradients, starts: list[np.ndarray],
                     cap: int) -> tuple[list[int], list[float]]:
    """Alternating sign ascent from every row of `starts` at once.

    Per slot, the optimal signs given the others are the signs of the
    slot gradient; ties keep the current sign.  A step is accepted when it
    changes a sign and raises the value (one that changes no sign only
    recomputes the same vertex, up to rounding), and a row stops after a sweep
    over all slots with no accepted step, or before a step that would take
    its evaluations past `cap`.  Returns each row's final evaluations and
    value, as lists of Python numbers.  Under a cap c a row takes the same
    steps as under any larger cap until a step would pass c, so a row that
    spends s evaluations returns the same value and count under every cap
    from s up.

    The running rows take the same steps, so they share one count,
    `spent`, written to a row's entry when it stops; the cap stops them all
    before the same step.  Each first product of `grads` is kept, for the
    rows still running, until a row accepts a step in its slot: each of
    the two is dropped at most once a sweep, so a sweep computes at most
    two, plus the start's one.
    """
    dims = grads.dims
    signs = [s.astype(float) for s in starts]
    rows = np.arange(len(signs[0]))  # the running rows
    evals = np.empty(rows.size, dtype=np.int64)
    value = np.empty(rows.size)
    firsts = {}
    grad = grads(signs, 0, firsts)
    cur = np.abs(np.einsum("ad,ad->a", signs[0], grad))  # the running rows' values
    spent = 1
    while rows.size:
        improved = np.zeros(rows.size, dtype=bool)
        for slot, d in enumerate(dims):
            if spent + d > cap:  # every running row stops before this step
                improved[:] = False
                break
            if grad is None:
                grad = grads(signs, slot, firsts)
            flip = grad * signs[slot] < 0
            new_value = np.abs(grad).sum(axis=1)  # the value at the gradient's signs
            accept = (new_value > cur) & flip.any(axis=1)
            spent += d
            grad = None
            if accept.any():
                flip &= accept[:, None]
                np.negative(signs[slot], out=signs[slot], where=flip)
                np.copyto(cur, new_value, where=accept)
                improved |= accept
                firsts.pop(slot, None)
        if not improved.all():
            stopped = ~improved
            evals[rows[stopped]] = spent
            value[rows[stopped]] = cur[stopped]
            signs = [s[improved] for s in signs]
            firsts = {f: p[improved] for f, p in firsts.items()}
            rows, cur = rows[improved], cur[improved]
    return evals.tolist(), value.tolist()


def _ascent_sup(coeffs: np.ndarray, budget: int) -> tuple[float, int]:
    """Best value and evaluations of ASCENT_RESTARTS ascents on a form of
    degree >= 2, restart k getting whatever budget restarts 0..k-1 left, as
    if run one after another.  Each group, small enough that no temporary
    exceeds max(coeffs.size, _CHUNK) elements, runs in lockstep on the
    budget left at its start, and keeps at most two first products of
    `_Gradients` while it runs.  Charged in restart order, a restart that
    spent more than the rest reruns alone on it, exact by the ascent's caps."""
    grads = _Gradients(coeffs)
    starts = _ascent_starts(coeffs.shape)
    group = max(1, max(coeffs.size, _CHUNK) // grads.row_elements)
    best, used = 0.0, 0
    for lo in range(0, ASCENT_RESTARTS, group):
        if used >= budget:
            break
        evals, values = _lockstep_ascent(grads, [s[lo:lo + group] for s in starts], budget - used)
        for k, spent, value in zip(range(lo, ASCENT_RESTARTS), evals, values):
            if used >= budget:
                break
            if spent > budget - used:
                (spent,), (value,) = _lockstep_ascent(grads, [s[[k]] for s in starts],
                                                      budget - used)
            used += spent
            best = max(best, value)
    return best, used


def sup_norm(form: MultilinearForm, budget: int = DEFAULT_SUP_BUDGET) -> SupNormResult:
    """Sup norm over the unit balls of c0.

    If the exact kernel's work (its 2^(sum(dims) - max(dims) - m + 1) sign
    patterns times the max(dims) terms of each closed-form l1 norm) fits
    `budget` or the form's size, which it equals when no enumerated slot
    has more than two entries, `_exact_sup` gives the exact maximum, and
    `evaluations` reports the full grid of 2^sum(dims) vertices, which can
    exceed the budget.  Otherwise ASCENT_RESTARTS alternating sign ascents
    from fixed random vertices return a deterministic lower bound flagged
    exact=False, with at most `budget` evaluations.  They share the budget
    as if run one after another (restart k gets what the earlier ones left)
    but advance in lockstep, batched over the restarts, and a sweep makes
    at most two contractions that cost the form's size per restart, not
    one per slot (`_ascent_sup`); `evaluations` counts d per step on a slot
    of size d, plus one per start vertex.
    """
    budget = _checked_count("budget", budget)
    if _exact_work_fits(form.dims, max(budget, form.coeffs.size)):
        return SupNormResult(_exact_sup(form.coeffs), True, 2 ** sum(form.dims))
    value, used = _ascent_sup(form.coeffs, budget)
    return SupNormResult(value, False, used)


def littlewood2() -> MultilinearForm:
    """The extremal 2x2 bilinear sign form x1*y1 + x1*y2 + x2*y1 - x2*y2."""
    return MultilinearForm(np.array([[1.0, 1.0], [1.0, -1.0]]), label="littlewood2")


def triple221() -> MultilinearForm:
    """The 3-linear form on supports (4, 4, 2) built from two littlewood2
    blocks weighted by (z1 + z2) and (z1 - z2).

    Its sup norm is 4 and its (2,2,1) mixed norm is 4*sqrt(2), so it
    witnesses that the (2,2,1) constant is at least sqrt(2).
    """
    block = littlewood2().coeffs
    c = np.zeros((4, 4, 2))
    c[0:2, 0:2, 0] = block
    c[0:2, 0:2, 1] = block
    c[2:4, 2:4, 0] = block
    c[2:4, 2:4, 1] = -block
    return MultilinearForm(c, label="triple221")


CATALOG = {"littlewood2": littlewood2, "triple221": triple221}


def lift(form: MultilinearForm) -> MultilinearForm:
    """Extend an m-linear form to degree m+1 by multiplying with the first
    coordinate of a new leading argument.  The sup norm is unchanged: the
    new slot has support size 1, so its sign only flips the value."""
    label = f"lift({form.label})" if form.label else None
    return MultilinearForm(form.coeffs[np.newaxis, ...], label=label)


def permute_slots(form: MultilinearForm, order: Sequence[int]) -> MultilinearForm:
    """Reorder the argument slots (0-based permutation of range(degree))."""
    if sorted(order) != list(range(form.degree)):
        raise ValueError(f"order must be a permutation of 0..{form.degree - 1}, got {order}")
    return MultilinearForm(np.transpose(form.coeffs, order), label=form.label)


def _checked_count(name: str, value, least: int = 1, most: float = math.inf) -> int:
    """`value` as a Python int if it is an integer (`_is_int`) in [least,
    most]; else a ValueError naming `name` and the bound a number (NaN too)
    misses, or for any other value (a float, bool, str or None) the rule."""
    if isinstance(value, numbers.Real) and not least <= value <= most:
        bound = f"<= {most}" if value > most else f">= {least}"
        raise ValueError(f"{name} must be {bound}, got {value}")
    if not _is_int(value):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _checked_dims(dims: Sequence[int]) -> tuple[int, ...]:
    """`dims` as a tuple of Python ints; raises unless nonempty and all >= 1."""
    dims = tuple(dims)
    if not dims or not all(_is_int(d) and d >= 1 for d in dims):
        raise ValueError(f"dims must be nonempty and positive, got {dims}")
    return tuple(_checked_count("dims", d) for d in dims)


def _random_signs(dims: tuple[int, ...], seeds: Sequence) -> np.ndarray:
    """Writable stack of i.i.d. {-1, +1} tensors, one per seed: element j
    holds the coefficients of `random_sign_form(dims, seeds[j])`; `dims`
    must already be checked.

    Entry i (C order) of seed s is +1 iff bit 31 of the low (i even) or
    high (i odd) 32-bit half of raw word i // 2 of `np.random.PCG64(s)` is
    set.  That is what `Generator.integers(0, 2, size=dims)` of a PCG64
    generator seeded with s keeps: Lemire's method on each half in turn,
    with no rejection for a range of 2.  So the draw depends only on
    PCG64's raw stream, and the bits of the whole stack are read in one
    pass over its raw words.  A generator keeps a word's spare half between
    draws, so `_ascent_starts` splits one draw across its slots."""
    n = math.prod(dims)
    words = (n + 1) // 2
    raw = np.empty((len(seeds), words), dtype=np.uint64)
    for j, seed in enumerate(seeds):
        raw[j] = np.random.PCG64(seed).random_raw(words)
    # little-endian uint32 halves: low, high, low, high, ...
    set31 = raw.astype("<u8", copy=False).view("<u4")[:, :n] >= 1 << 31
    return np.where(set31, 1.0, -1.0).reshape(len(seeds), *dims)


def _checked_seed(seed) -> int | tuple[int, ...]:
    """`seed` as a Python int, or a nonempty sequence of seeds as a tuple
    of them, each an integer >= 0 (`_checked_count`); else a ValueError
    naming it.  The draw from a checked seed is the draw from `seed`."""
    if not isinstance(seed, Sequence) or isinstance(seed, (str, bytes)):
        return _checked_count("seed", seed, least=0)
    if not seed:
        raise ValueError(f"seed must be an integer >= 0 or a nonempty sequence of them, "
                         f"got {seed!r}")
    return tuple(_checked_count("seed", s, least=0) for s in seed)


def random_sign_form(dims: Sequence[int], seed) -> MultilinearForm:
    """Deterministic form with i.i.d. coefficients in {-1, +1}: entry i
    (C order) is 2 * integers(0, 2, size=dims) - 1 of numpy's default
    generator seeded with `seed`, read off bit 31 of the halves of
    PCG64(seed)'s raw words (`_random_signs`).  `seed` is an integer
    >= 0 or a nonempty sequence of them; anything else, None included,
    is a ValueError."""
    coeffs = _random_signs(_checked_dims(dims), [_checked_seed(seed)])[0]
    return MultilinearForm(coeffs, label=f"random_sign{coeffs.shape}")


# ---------------------------------------------------------------------------
# JSON form files (1-based indices, omitted entries are zero)
# ---------------------------------------------------------------------------

def form_to_dict(form: MultilinearForm) -> dict:
    entries = [
        {"index": [j + 1 for j in idx], "value": float(form.coeffs[idx])}
        for idx in np.ndindex(*form.dims)
        if form.coeffs[idx] != 0.0
    ]
    doc = {"degree": form.degree, "dims": list(form.dims), "entries": entries}
    if form.label is not None:
        doc["label"] = form.label
    return doc


def _is_int(x) -> bool:
    """Whether `x` is a Python or numpy integer, not a bool (JSON gives only ints)."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_number(x) -> bool:
    """Whether `x` is a JSON number that converts to float64 (bool is not)."""
    return isinstance(x, float) or _is_int(x) and abs(x) <= sys.float_info.max


def form_from_dict(doc: dict) -> MultilinearForm:
    try:
        degree, dims, entries = doc["degree"], doc["dims"], doc["entries"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"form document needs degree, dims and entries: {exc}") from exc
    if not (_is_int(degree) and isinstance(dims, list) and all(map(_is_int, dims))):
        raise ValueError(
            f"form degree must be an integer and dims a list of integers, got {degree!r}, {dims!r}"
        )
    dims = tuple(dims)
    if degree != len(dims):
        raise ValueError(f"degree {degree} does not match {len(dims)} dims")
    if math.prod(dims) > MAX_FORM_ENTRIES:
        raise ValueError(
            f"dims {list(dims)} declare more than {MAX_FORM_ENTRIES} entries"
        )
    if not isinstance(entries, list):
        raise ValueError(f"form entries must be a list, got {entries!r}")
    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        raise ValueError(f"form label must be a string, got {label!r}")
    coeffs = np.zeros(dims)
    seen = set()
    for entry in entries:
        idx = entry.get("index") if isinstance(entry, dict) else None
        if not (isinstance(idx, list) and all(map(_is_int, idx))
                and _is_number(entry.get("value"))):
            raise ValueError(
                f"form entry {entry!r} needs an integer index list and a numeric value"
            )
        idx, value = tuple(idx), entry["value"]
        if len(idx) != degree:
            raise ValueError(f"index {list(idx)} must have {degree} coordinates")
        if any(j < 1 or j > d for j, d in zip(idx, dims)):
            raise ValueError(f"index {list(idx)} out of range for dims {list(dims)}")
        if idx in seen:
            raise ValueError(f"duplicate index {list(idx)}")
        seen.add(idx)
        coeffs[tuple(j - 1 for j in idx)] = value
    return MultilinearForm(coeffs, label=label)


def save_form(form: MultilinearForm, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(form_to_dict(form), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_form(path) -> MultilinearForm:
    with open(path, "r", encoding="utf-8") as fh:
        return form_from_dict(json.load(fh))
