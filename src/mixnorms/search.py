"""Ratio certificates and local search for extremal forms.

A single form certifies a lower bound on the optimal constant of a mixed
norm inequality: mixed_norm(T, e) <= C * sup_norm(T) for every form T, so
the ratio of one concrete T is a machine-checkable bound from below.  The
certificate is rigorous (up to rounding) only when the sup norm came from
the exact kernel, so the optimizer admits only dims whose exact sup-norm
work W fits the default budget, on which `sup_norm` is exact, and refuses
the others rather than silently degrading.  That refuses some exact dims
too: `sup_norm` is also exact where W equals the form's size past the
budget, as on (2,)^23, but the optimizer's memory grows as 8W bytes.

The optimizer hill-climbs over coefficient tensors with entries in
{-1, 0, +1} - the alphabet the known extremal forms live in, and one that
keeps vertex enumeration cheap - accepting only strict ratio improvements
in a fixed first-improvement scan order, with seeded random restarts.  The
climb scores the single-entry moves in batches from cached sign
contractions: on this alphabet every cached quantity is a small integer,
so the updates are exact and each score equals the full ratio bit for bit.
Restarts are drawn in groups whose climbs run in lockstep, one batched
move score per step for the whole group, and are then charged in restart
order as if run one after another, so the groups change no result.  An
optional final pass does a coordinatewise continuous line search, which
rebuilds those contractions for every trial point; from scratch they give
`certify`'s ratio bit for bit on any real tensor.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np

from ._version import VERSION
from .forms import (
    DEFAULT_SUP_BUDGET,
    MultilinearForm,
    _CHUNK,
    _checked_count,
    _checked_dims,
    _exact_work_fits,
    _pattern_exponent,
    _random_signs,
    _sign_block,
    _slot_order,
    lift,
    sup_norm,
)
from .mixed_norms import ExponentTuple, _blocked_tensor, _outer_sums, _power, mixed_norm


@dataclass(frozen=True)
class RatioCertificate:
    """A form's mixed-to-sup norm ratio: a lower bound on the optimal
    constant for its exponent tuple whenever sup_exact is True."""

    form_label: str
    dims: tuple[int, ...]
    exponents: ExponentTuple
    mixed: float
    sup: float
    ratio: float
    sup_exact: bool
    seed: int | None = None
    budget: int | None = None

    def to_dict(self) -> dict:
        return {**asdict(self), "dims": list(self.dims), "exponents": str(self.exponents),
                "version": VERSION}


@dataclass(frozen=True)
class EquivalenceReport:
    """Norm bookkeeping for the degree-lifting identity: multiplying a
    form by the first coordinate of a new leading argument changes
    neither its sup norm nor its (2, q, ..., q) mixed norm."""

    m: int
    exponent: float
    mixed_lifted: float
    mixed_base: float
    sup_lifted: float
    sup_base: float
    rel_mixed: float
    rel_sup: float
    holds: bool


def certify(form: MultilinearForm, exps: ExponentTuple) -> RatioCertificate:
    """Ratio certificate for one form under one exponent tuple."""
    if not np.any(form.coeffs):
        raise ValueError("cannot certify the zero form")
    mixed = mixed_norm(form, exps)
    sup = sup_norm(form)
    return RatioCertificate(
        form_label=form.label or f"form{form.dims}",
        dims=form.dims,
        exponents=exps,
        mixed=mixed,
        sup=sup.value,
        ratio=mixed / sup.value,
        sup_exact=sup.exact,
    )


#: The two moves of an entry with value v, in ascending order of the new
#: value, indexed [quantity, move, v + 1]: the change of the entry, and the
#: change of |entry| (so of |entry|^q).
_MOVES = np.array([
    [[1.0, -1.0, -2.0], [2.0, 1.0, -1.0]],  # to 0, -1, -1 | to +1, +1, 0
    [[-1.0, 1.0, 0.0], [0.0, 1.0, -1.0]],  # |entry| by the same moves
])


class _Moves:
    """The search's ratio model on fixed dims under one exponent tuple:
    the mixed/sup ratio of any real tensor (`ratio_of`), and exact scores
    of the single-entry moves of a stack of {-1, 0, +1} tensors, one per
    restart.

    The sup norm takes the largest slot in closed form, as `_exact_sup`
    does: with G (P x d_last) the contraction of the coefficients with
    each of the P sign rows of the other slots (one sign of each fixed;
    the first half of each slot's `_sign_block` rows, the rows `_max_l1`
    reads), the sup is the largest row l1 norm R of G, summed in
    `_max_l1`'s order.  Entry i only feeds column l_i of G, through its
    Kronecker sign column s_i, gathered per batch from each slot's table
    at the entry's coordinate; moving it by delta changes G[:, l_i] by
    delta * s_i and R by the change of |G[:, l_i]|.  The nested norm keeps
    F, the innermost fiber sums of |blocked|^q_last; a move changes one
    entry of F (none when the entry is off every block diagonal), and the
    upper levels are recomputed by `_outer_sums`, the helper of
    `_nested_norm`.  The fiber each entry feeds is read off
    `_blocked_tensor` of the tensor of flat entry indices, the layout
    `mixed_norm` blocks with, and a stack is blocked with its restart axis
    as the kernel's batch axis.  A move between -1 and +1 keeps F, and
    both moves of a zero entry make the same F, so a batch needs one trial
    F per entry.

    The state (G transposed, R, F) has a leading restart axis, and `score`
    and `move` act on many restarts per call.  Built from scratch, the
    state gives `certify`'s ratio bit for bit on any real tensor.  With
    coefficients in {-1, 0, +1}, G, R and F hold small integers, so every
    update is exact and each score equals `ratio_of` of the moved tensor
    bit for bit.  Ratios are formed from Python floats (`ratio`), whose
    power is numpy's scalar power.
    """

    def __init__(self, dims: tuple[int, ...], exps: ExponentTuple):
        self.order = _slot_order(dims)
        self.axes = (0, *(1 + i for i in self.order))  # of a stack, behind its restart axis
        *head, last = self.order
        # Slot head[j]'s sign rows transposed (d x rows), and each entry's
        # coordinate there: int8, as a slot whose table fits has d < 128.
        self.tables = [np.ascontiguousarray(_sign_block(dims[i], 0, 2 ** (dims[i] - 1)).T)
                       for i in head]
        # int32 indices: N <= W <= 2^22 entries.
        entries = np.arange(math.prod(dims), dtype=np.int32)
        self.column = entries // math.prod(dims[last + 1:]) % dims[last]
        self.coords = [(entries // math.prod(dims[i + 1:]) % dims[i]).astype(np.int8) for i in head]

        # Blocking the flat entry indices lists the entries each innermost
        # fiber sums; entries off every block diagonal keep fiber -1.
        blocked, _ = _blocked_tensor(entries.reshape(dims), exps)
        self.fiber_shape = blocked.shape[:-1]
        self.fibers = np.arange(math.prod(self.fiber_shape), dtype=np.int32)
        self.fiber = np.full(entries.size, -1, dtype=np.int32)
        self.fiber[blocked.reshape(self.fibers.size, -1)] = self.fibers[:, None]

        self.exps = exps
        self.exponents = exps.exponents
        self.root = 1.0 / self.exponents[0]
        width = max(math.prod(t.shape[1] for t in self.tables), self.fibers.size)
        self.block = max(1, _CHUNK // (2 * width))

    def _signs(self, entries: np.ndarray) -> np.ndarray:
        """Kronecker sign columns s_i of the given entries, one per row."""
        n = len(entries)
        if not self.tables:
            return np.ones((n, 1))
        s = self.tables[0].take(self.coords[0][entries], axis=0)
        for t, c in zip(self.tables[1:], self.coords[1:]):
            s = (s[:, :, None] * t.take(c[entries], axis=0)[:, None, :]).reshape(n, -1)
        return s

    def _levels(self, inner: np.ndarray) -> np.ndarray:
        """Upper levels of the nested norm from innermost fiber sums of
        shape (..., fibers); returns the outermost sums before the root."""
        return _outer_sums(inner.reshape(inner.shape[:-1] + self.fiber_shape), self.exponents)

    def start(self, stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(G transposed, R, F) of each real tensor of a stack."""
        n = len(stack)
        g = stack.transpose(self.axes).reshape(n, -1)
        for t in self.tables:
            # (sign rows so far, this slot, rest) -> (rows so far, rows of this slot, rest)
            rest = g.shape[1] // len(t)
            g = np.matmul(t.T, g.reshape(len(g), len(t), rest)).reshape(-1, rest)
        g_t = np.ascontiguousarray(g.reshape(n, -1, g.shape[1]).transpose(0, 2, 1))
        blocked, _ = _blocked_tensor(stack, self.exps)
        inner = _power(np.abs(blocked), self.exponents[-1]).sum(axis=-1).reshape(n, -1)
        return g_t, np.abs(g_t).sum(axis=1), inner

    def ratio(self, sup: float, nested: float) -> float:
        """mixed/sup from a sup and the outermost nested sum, as `certify`
        forms it: Python floats, whose power is numpy's scalar power; -inf
        for the zero tensor, so moves to it are never accepted."""
        if sup == 0.0:
            return -math.inf
        return nested ** self.root / sup

    def ratios(self, state) -> list[float]:
        """The ratio of each tensor of the stack."""
        g_t, row_l1, inner = state
        return list(map(self.ratio, row_l1.max(axis=1).tolist(), self._levels(inner).tolist()))

    def ratio_of(self, coeffs: np.ndarray) -> float:
        """mixed/sup ratio of a real tensor on these dims, or -inf where it
        overflows, as for the zero tensor, so no move to it is accepted."""
        ratio = self.ratios(self.start(coeffs[None]))[0]
        return ratio if math.isfinite(ratio) else -math.inf

    def score(self, flats: np.ndarray, state, rows: np.ndarray,
              entries: np.ndarray) -> tuple[list, list]:
        """Sups and outermost nested sums of the moves of entry entries[j]
        of tensor rows[j] to its two other values, in ascending order at
        positions 2j and 2j + 1 of each list."""
        g_t, row_l1, inner = state
        old = flats[rows, entries]
        delta, grow = _MOVES.take((old + 1.0).astype(np.intp), axis=2)
        col = g_t[rows, self.column[entries]]
        # einsum forms the products without numpy's broadcasting buffers.
        moved = np.einsum("np,an->nap", self._signs(entries), delta)
        moved += col[:, None, :]
        np.abs(moved, out=moved)
        rest = row_l1[rows]
        rest -= np.abs(col)
        moved += rest[:, None, :]
        sup = moved.max(axis=2)
        # The one trial F of each entry: |entry| lowered to 0 or raised from 0.
        on = self.fiber[entries, None] == self.fibers
        trial = inner[rows] + (1.0 - 2.0 * np.abs(old))[:, None] * on
        nested = np.where(grow == 0.0, self._levels(inner)[rows], self._levels(trial))
        return sup.ravel().tolist(), nested.T.ravel().tolist()

    def move(self, flats: np.ndarray, state, rows: np.ndarray, entries: np.ndarray,
             values: np.ndarray) -> None:
        """Set entry entries[j] of tensor rows[j] to values[j], at most one
        entry per tensor, updating the state in place."""
        g_t, row_l1, inner = state
        old = flats[rows, entries]
        columns = self.column[entries]
        col = g_t[rows, columns]
        moved = col + (values - old)[:, None] * self._signs(entries)
        row_l1[rows] += np.abs(moved) - np.abs(col)
        g_t[rows, columns] = moved
        fiber = self.fiber[entries]
        on = fiber >= 0
        inner[rows[on], fiber[on]] += np.abs(values[on]) - np.abs(old[on])
        flats[rows, entries] = values


def _scan(values: list, sups: list, nested: list, moves: _Moves, current: float,
          used: int, budget: int) -> tuple[int, float | None, float, int, bool]:
    """One climb's first-improvement scan of its batch: entry t has value
    values[t] and move scores at 2t and 2t + 1 of sups and nested.
    Returns (t, new value or None, ratio, evaluations, stopped) at the
    first entry that moves or at which the budget runs out, and t =
    len(values) if neither happens."""
    for t, old in enumerate(values):
        before = current
        new = old
        a = 2 * t
        for candidate in (-1.0, 0.0, 1.0):
            if candidate == new:
                continue
            if used >= budget:
                return t, None if new == old else new, current, used, True
            used += 1
            if candidate == old:
                trial = before
            else:
                trial = moves.ratio(sups[a], nested[a])
                a += 1
            if trial > current:
                current = trial
                new = candidate
        if new != old:
            return t, new, current, used, False
    return len(values), None, current, used, False


def _climb(stack: np.ndarray, moves: _Moves, budget: int) -> tuple[np.ndarray, list, list]:
    """First-improvement hill climbs over single entries in {-1, 0, +1},
    one from each tensor of a stack, run in lockstep.

    A climb scans entries in C order, trying alternative values in the
    fixed order (-1, 0, +1); a strictly better ratio is accepted
    immediately, and the entry's remaining values are still tried against
    it.  It stops at a local optimum or when its `budget` evaluations run
    out; each tried value costs one evaluation, and so does the starting
    ratio.

    Each step scores the next batch of entries of every running climb in
    one `_Moves.score` call, exactly and bit for bit as `_Moves.ratio_of`
    would score the moved tensors; each climb then scans its own scores,
    and the moves they accept are applied in one `_Moves.move` call.
    After an acceptance a climb drops the rest of its batch and resumes at
    the next entry.  A value equal to the entry's value before its scan
    scores the ratio the scan started from.

    Each climb is a pure function of its start and budget, whatever else
    the stack holds, and a climb that spends s evaluations under budget b
    returns the same tensor, ratio and count under every budget from s to
    b.  In a climb that ends at a local optimum no budget check fires, and
    a climb that stops on its budget has s = b.  `optimize_ratio` memoises
    climbs on this.  Returns the stack, climbed in place, and each climb's
    ratio and evaluations.
    """
    flats = stack.reshape(len(stack), -1)
    size = flats.shape[1]
    batch = min(size, moves.block)
    state = moves.start(stack)
    current = moves.ratios(state)
    used = [1] * len(stack)
    first = [0] * len(stack)
    improved = [False] * len(stack)
    offsets = np.arange(batch)
    live = list(range(len(stack))) if budget > 1 else []
    while live:
        rows = np.repeat(live, batch)
        # A batch that runs past the last entry rescores the last entry.
        entries = np.minimum(np.array([first[r] for r in live])[:, None] + offsets,
                             size - 1).ravel()
        sups, nested = moves.score(flats, state, rows, entries)
        values = flats[rows, entries].tolist()
        moved, running = [], []
        for j, r in enumerate(live):
            lo = j * batch
            hi = lo + min(batch, size - first[r])
            t, new, current[r], used[r], stopped = _scan(
                values[lo:hi], sups[2 * lo:2 * hi], nested[2 * lo:2 * hi], moves, current[r],
                used[r], budget)
            if new is not None:
                moved.append((r, first[r] + t, new))
                improved[r] = True
                t += 1
            first[r] += t
            if stopped:
                continue
            if first[r] >= size:
                if not improved[r] or used[r] >= budget:
                    continue
                first[r], improved[r] = 0, False
            running.append(r)
        if moved:
            moves.move(flats, state, *(np.array(c) for c in zip(*moved)))
        live = running
    return stack, current, used


def _refine(coeffs: np.ndarray, ratio_fn, budget: int) -> tuple[np.ndarray, float, int]:
    """Coordinatewise continuous polish: golden-section line search on each
    entry over [-1.5, 1.5], two sweeps, strict improvements only.  Stops
    before a line search that cannot open within the budget, so it never
    spends more than `budget` evaluations."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    current = ratio_fn(coeffs)
    used = 1
    flat = coeffs.ravel()
    for _ in range(2):
        for i in range(flat.size):
            if used + 2 > budget:
                return coeffs, current, used
            old = flat[i]
            a, b = -1.5, 1.5
            c = b - inv_phi * (b - a)
            d = a + inv_phi * (b - a)

            def at(t: float) -> float:
                flat[i] = t
                return ratio_fn(coeffs)

            fc, fd = at(c), at(d)
            used += 2
            for _ in range(24):
                if used + 1 > budget:
                    break
                if fc > fd:
                    b, d, fd = d, c, fc
                    c = b - inv_phi * (b - a)
                    fc = at(c)
                else:
                    a, c, fc = c, d, fd
                    d = a + inv_phi * (b - a)
                    fd = at(d)
                used += 1
            t_best, f_best = (c, fc) if fc >= fd else (d, fd)
            if f_best > current:
                flat[i] = t_best
                current = f_best
            else:
                flat[i] = old
    return coeffs, current, used


def optimize_ratio(
    dims: Sequence[int],
    exps: ExponentTuple,
    budget: int = 10_000,
    seed: int = 0,
    restarts: int | None = None,
    refine: bool = False,
) -> RatioCertificate:
    """Search coefficient tensors on `dims` for a large mixed/sup ratio.

    Restart k starts from random_sign_form(dims, seed + k) and hill-climbs
    until a local optimum; restarts continue until `budget` ratio
    evaluations are spent (or `restarts` runs, if given).  Ties between
    restarts resolve to the later seed, so the result is independent of
    evaluation order.  Deterministic for fixed arguments.

    Small dims draw the same start many times, so the call keeps each
    start's climb (final tensor, ratio, evaluations) and reuses it, charging
    its evaluations, while they fit the budget left; otherwise the climb
    reruns on what is left.  Since a climb gives the same result under
    every budget it did not reach, this changes no result.  Restarts are
    drawn in groups: the distinct starts of a group that the call has not
    climbed yet climb in lockstep, each under the budget left at the
    group's start, and the group is then charged in restart order by that
    rule.  A group holds as many restarts as the budget left pays for at
    the mean cost of the restarts so far; the first group counts twice
    the least cost of a climb (2N + 1 evaluations for N entries) per
    restart, or, with `refine`, is one restart.  A group of several
    restarts scores at most a quarter of `_Moves.block` entries per step.

    Dims are admitted iff the exact sup-norm work W fits the default budget
    (`_exact_work_fits`), so `sup_norm` is exact on them.  It is exact on
    some refused dims too, where W is the form's size past that budget, as
    on (2,)^23.  The budget counts evaluations, not work:
    each scores a move against W / max(dims) sign rows, W being that exact
    work.  Peak memory is c * 8W bytes plus a few `_CHUNK` blocks, with c
    about 4 where W is much larger than the number N of entries, and 11.8
    at (2,)^16, where N = W (README, Notes on exactness).  The final
    `certify` runs after the search's model, starts and memo are released.
    """
    dims = _checked_dims(dims)
    seed = _checked_count("seed", seed, least=0)
    if exps.degree != len(dims):
        raise ValueError(
            f"exponent tuple covers {exps.degree} slots but dims has {len(dims)}"
        )
    budget = _checked_count("budget", budget)
    if restarts is not None:
        restarts = _checked_count("restarts", restarts)
    if not _exact_work_fits(dims, DEFAULT_SUP_BUDGET):
        raise ValueError(f"dims {dims} need 2^{_pattern_exponent(dims)} * "
                         f"{max(dims)} terms of exact sup-norm work; {DEFAULT_SUP_BUDGET} "
                         "are affordable")
    moves = _Moves(dims, exps)
    # Every +-1 start has the mixed norm of the all-ones tensor, the largest
    # of any tensor the climbs visit; if it overflows, so does every climb.
    # The polish goes past it, and `ratio_of` scores an overflow as -inf.
    with np.errstate(over="ignore"):
        top = moves.ratio_of(np.ones(dims))
    if math.isinf(top):
        raise ValueError(f"mixed norm under {exps} overflows float64")

    # The first group guesses each restart at twice a climb's least cost:
    # a climb that its budget does not stop ends with a pass over all 2N
    # moves, 2N + 1 evaluations with its start.  A polish is not guessed,
    # so with `refine` the first group is one restart.  A step's
    # temporaries are about four arrays of entries x 2 x width floats, so
    # a group's steps score at most block / 4 entries: one `_CHUNK` block
    # in all.
    size = math.prod(dims)
    guess = 1 if refine else budget // (4 * size + 2)
    most = max(1, moves.block // 4 // min(size, moves.block))
    climbs: dict[bytes, tuple[bytes, float, int]] = {}

    def climb(stack: np.ndarray) -> list[tuple[bytes, float, int]]:
        """Memo entries of the climbs of a stack on the budget left."""
        finals, ratios, spent = _climb(stack, moves, budget - used)
        return list(zip((final.tobytes() for final in finals.astype(np.int8)), ratios, spent))

    best_key: tuple[float, int] | None = None
    best_coeffs: np.ndarray | None = None
    used = 0
    k = 0
    while used < budget and (restarts is None or k < restarts):
        group = max(1, min(most, (budget - used) * k // used if k else guess))
        if restarts is not None:
            group = min(group, restarts - k)
        starts = _random_signs(dims, range(seed + k, seed + k + group))
        keys = [bits.tobytes() for bits in np.packbits(starts.reshape(group, -1) > 0, axis=1)]
        fresh = {key: j for j, key in enumerate(keys) if key not in climbs}
        if fresh:
            climbs.update(zip(fresh, climb(starts[list(fresh.values())])))
        for j, start in enumerate(keys):
            if used >= budget:
                break
            final, ratio, spent = climbs[start]
            if spent > budget - used:
                climbs[start] = final, ratio, spent = climb(starts[[j]])[0]
            used += spent
            coeffs = np.frombuffer(final, dtype=np.int8).reshape(dims)
            if refine and used < budget:
                with np.errstate(over="ignore"):
                    coeffs, ratio, spent = _refine(coeffs.astype(float), moves.ratio_of,
                                                   budget - used)
                used += spent
            key = (ratio, seed + k)
            if best_key is None or key > best_key:
                best_key = key
                best_coeffs = coeffs
            k += 1

    # The certificate's sup norm sets the peak memory on many small
    # slots; the search's model, starts and memo would add to it.
    del moves, climbs, starts
    found = MultilinearForm(best_coeffs, label=f"optimized{dims}")
    return replace(certify(found, exps), seed=seed, budget=budget)


def growth_witness(
    exps: ExponentTuple,
    n_list: Sequence[int],
    trials: int = 8,
    seed: int = 0,
    budget_per_n: int = 20_000,
) -> list[tuple[int, float]]:
    """Best ratio found on dims (n, ..., n) for each n.

    For tuples without a uniform constant the optimum is unbounded in n
    but can be flat over small n: for (1,1) it is 2 at n = 2, 3, 4 and
    grows like sqrt(n).  For admissible tuples it stays bounded.  Every
    ratio has an exact sup norm, as `optimize_ratio` admits no other dims.
    """
    trials = _checked_count("trials", trials)
    ns = [_checked_count("n", n) for n in n_list]
    return [(n, optimize_ratio((n,) * exps.degree, exps, budget=budget_per_n, seed=seed,
                               restarts=trials).ratio) for n in ns]


def equivalence_demo(form: MultilinearForm, m: int) -> EquivalenceReport:
    """Check the lifting identity at degree m: with q = (2m-2)/m, the
    (2, q, ..., q) mixed norm of the lifted form equals the (q, ..., q)
    norm of the base form, and the sup norms agree."""
    m = _checked_count("m", m, least=2)
    if form.degree != m - 1:
        raise ValueError(f"form must have degree m-1 = {m - 1}, got {form.degree}")
    q = (2.0 * m - 2.0) / m
    lifted = lift(form)
    mixed_lifted = mixed_norm(lifted, ExponentTuple(((1, 2.0),) + ((1, q),) * (m - 1)))
    mixed_base = mixed_norm(form, ExponentTuple(((1, q),) * (m - 1)))
    sup_lifted = sup_norm(lifted).value
    sup_base = sup_norm(form).value
    rel_mixed = abs(mixed_lifted - mixed_base) / max(abs(mixed_base), 1e-300)
    rel_sup = abs(sup_lifted - sup_base) / max(abs(sup_base), 1e-300)
    holds = rel_mixed <= 1e-12 and rel_sup <= 1e-12
    return EquivalenceReport(
        m=m,
        exponent=q,
        mixed_lifted=mixed_lifted,
        mixed_base=mixed_base,
        sup_lifted=sup_lifted,
        sup_base=sup_base,
        rel_mixed=rel_mixed,
        rel_sup=rel_sup,
        holds=holds,
    )
