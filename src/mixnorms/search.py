"""Ratio certificates and local search for extremal forms.

A single form certifies a lower bound on the optimal constant of a mixed
norm inequality: mixed_norm(T, e) <= C * sup_norm(T) for every form T, so
the ratio of one concrete T is a machine-checkable bound from below.  The
certificate is rigorous (up to rounding) only when the sup norm came from
the exact kernel, so the optimizer refuses dims whose full vertex grid
exceeds the default sup budget rather than silently degrading.  That rule
is stricter than `sup_norm`'s, which only bounds the exact kernel's work,
because the climb caches every enumerated slot's whole sign table.

The optimizer hill-climbs over coefficient tensors with entries in
{-1, 0, +1} - the alphabet the known extremal forms live in, and one that
keeps vertex enumeration cheap - accepting only strict ratio improvements
in a fixed first-improvement scan order, with seeded random restarts.  The
climb scores the single-entry moves in batches from cached sign
contractions: on this alphabet every cached quantity is a small integer,
so the updates are exact and each score equals the full ratio bit for bit.
An optional final pass does a coordinatewise continuous line search, which
rebuilds those contractions for every trial point; from scratch they give
`certify`'s ratio bit for bit on any real tensor.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Callable, Sequence

import numpy as np

from ._version import VERSION
from .forms import (
    DEFAULT_SUP_BUDGET,
    MultilinearForm,
    _CHUNK,
    _affordable,
    _checked_dims,
    _random_signs,
    _sign_vertices,
    _slot_order,
    lift,
    sup_norm,
)
from .mixed_norms import ExponentTuple, _blocked_tensor, _outer_sums, mixed_norm


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


#: The two moves of an entry with value v, indexed by v + 1, in ascending
#: order of the new value: (change of the entry, change of |entry|^q).
_MOVES = np.array([
    [[1.0, -1.0], [2.0, 0.0]],  # -1 -> 0, -1 -> +1
    [[-1.0, 1.0], [1.0, 1.0]],  # 0 -> -1, 0 -> +1
    [[-2.0, 0.0], [-1.0, -1.0]],  # +1 -> -1, +1 -> 0
])


class _Moves:
    """The search's ratio model on fixed dims under one exponent tuple:
    the mixed/sup ratio of any real tensor (`ratio_of`), and exact scores
    of the single-entry moves of {-1, 0, +1} tensors.

    The sup norm takes the largest slot in closed form, as `_exact_sup`
    does: with G (P x d_last) the contraction of the coefficients with
    each of the P sign rows of the other slots (one sign of each fixed;
    the first half of each slot's cached `_sign_vertices` table, the rows
    `_max_l1` reads), the sup is the largest row l1 norm R of G, summed in
    `_max_l1`'s order.  Entry i only feeds column l_i of G, through its
    Kronecker sign column s_i, so moving it by delta changes G[:, l_i] by
    delta * s_i and R by the change of |G[:, l_i]|.  The nested norm keeps F, the innermost fiber
    sums of |blocked|^q_last; a move changes one entry of F (none when the
    entry is off every block diagonal), and the upper levels are
    recomputed by `_outer_sums`, the helper of `_nested_norm`.  The fiber
    each entry feeds is read off `_blocked_tensor` of the tensor of flat
    entry indices, the layout `mixed_norm` blocks with.  Built from
    scratch, the state gives `certify`'s ratio bit for bit on any real
    tensor.  With coefficients in {-1, 0, +1}, G, R and F hold small
    integers, so every update is exact and each score equals `ratio_of`
    of the moved tensor bit for bit.
    """

    def __init__(self, dims: tuple[int, ...], exps: ExponentTuple):
        self.order = _slot_order(dims)
        *head, last = self.order
        self.tables = [_sign_vertices(dims[i])[:2 ** (dims[i] - 1)] for i in head]
        index = np.indices(dims).reshape(len(dims), -1)
        self.column = index[last]
        # Row i of slot_signs[j]: the sign each row of table j gives entry i.
        self.slot_signs = [t[:, index[i]].T for t, i in zip(self.tables, head)]
        n_rows = math.prod(len(t) for t in self.tables)

        # Blocking the flat entry indices lists the entries each innermost
        # fiber sums; entries off every block diagonal keep fiber -1.
        blocked, _ = _blocked_tensor(np.arange(index.shape[1]).reshape(dims), exps)
        self.fiber_shape = blocked.shape[:-1]
        self.fibers = np.arange(math.prod(self.fiber_shape))
        self.fiber = np.full(index.shape[1], -1)
        self.fiber[blocked.reshape(self.fibers.size, -1)] = self.fibers[:, None]

        self.exps = exps
        self.exponents = exps.exponents
        self.root = 1.0 / self.exponents[0]
        width = max(n_rows, self.fibers.size)
        self.block = max(1, _CHUNK // (2 * width))

    def _signs(self, lo: int, hi: int) -> np.ndarray:
        """Kronecker sign columns s_i of entries lo..hi-1, one per row."""
        if not self.slot_signs:
            return np.ones((hi - lo, 1))
        s = self.slot_signs[0][lo:hi]
        for t in self.slot_signs[1:]:
            s = (s[:, :, None] * t[lo:hi, None, :]).reshape(hi - lo, -1)
        return s

    def _levels(self, inner: np.ndarray) -> np.ndarray:
        """Upper levels of the nested norm from innermost fiber sums of
        shape (..., fibers); returns the outermost sums before the root,
        a numpy scalar for one tensor, whose power is `_nested_norm`'s."""
        return _outer_sums(inner.reshape(inner.shape[:-1] + self.fiber_shape), self.exponents)[()]

    def start(self, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(G transposed, R, F) of a real tensor."""
        g = np.transpose(coeffs, self.order).reshape(1, -1)
        for t in self.tables:
            # (sign rows so far, this slot, rest) -> (rows so far, rows of this slot, rest)
            rest = g.shape[1] // t.shape[1]
            g = np.matmul(t, g.reshape(len(g), t.shape[1], rest)).reshape(-1, rest)
        blocked, _ = _blocked_tensor(coeffs, self.exps)
        inner = (np.abs(blocked) ** self.exponents[-1]).sum(axis=-1).reshape(-1)
        g_t = np.ascontiguousarray(g.T)
        return g_t, np.abs(g_t).sum(axis=0), inner

    def ratio(self, sup: float, nested) -> float:
        """mixed/sup from a sup and the outermost nested sum, as
        `certify` forms it (the scalar power of a numpy float); -inf for
        the zero tensor, so moves to it are never accepted."""
        if sup == 0.0:
            return -math.inf
        return float(nested ** self.root) / sup

    def base(self, state) -> float:
        g_t, row_l1, inner = state
        return self.ratio(float(row_l1.max()), self._levels(inner))

    def ratio_of(self, coeffs: np.ndarray) -> float:
        """mixed/sup ratio of a real tensor on these dims."""
        return self.base(self.start(coeffs))

    def score(self, flat: np.ndarray, state, lo: int, hi: int) -> tuple[list, np.ndarray]:
        """Sups and outermost nested sums of the moves of entries lo..hi-1
        to their two other values (ascending), each of shape (hi-lo, 2)."""
        g_t, row_l1, inner = state
        change = _MOVES[(flat[lo:hi] + 1.0).astype(np.intp)]
        col = g_t[self.column[lo:hi]]
        moved = np.abs(col[:, None, :] + change[:, :, 0, None] * self._signs(lo, hi)[:, None, :])
        sup = (moved + (row_l1 - np.abs(col))[:, None, :]).max(axis=-1)
        trial = inner + change[:, :, 1, None] * (self.fiber[lo:hi, None, None] == self.fibers)
        return sup.tolist(), self._levels(trial)

    def move(self, flat: np.ndarray, state, i: int, new: float) -> None:
        """Set entry i to `new`, updating the state in place."""
        g_t, row_l1, inner = state
        old = flat[i]
        col = g_t[self.column[i]]
        moved = col + (new - old) * self._signs(i, i + 1)[0]
        row_l1 += np.abs(moved) - np.abs(col)
        col[:] = moved
        if self.fiber[i] >= 0:
            inner[self.fiber[i]] += abs(new) - abs(old)
        flat[i] = new


def _climb(coeffs: np.ndarray, moves: _Moves, budget: int) -> tuple[np.ndarray, float, int]:
    """First-improvement hill climbing over single entries in {-1, 0, +1}.

    Scans entries in C order, trying alternative values in the fixed order
    (-1, 0, +1); a strictly better ratio is accepted immediately, and the
    entry's remaining values are still tried against it.  Stops at a local
    optimum or when the evaluation budget runs out; each tried value costs
    one evaluation, and so does the starting ratio.

    The moves are scored in batches of entries by `_Moves`, exactly and
    bit for bit as `_Moves.ratio_of` would score the moved tensors.  After
    an acceptance the batch is dropped and scoring resumes at the next
    entry.  A value equal to the entry's value before its scan scores the
    ratio the scan started from.

    The climb is a pure function of its start and budget, and a run that
    spends s evaluations under budget b returns the same tensor, ratio and
    count under every budget from s to b.  In a run that ends at a local
    optimum no budget check fires, and a run that stops on its budget has
    s = b.  `optimize_ratio` memoises climbs on this.
    """
    state = moves.start(coeffs)
    current = moves.base(state)
    used = 1
    flat = coeffs.ravel()
    improved = True
    while improved and used < budget:
        improved = False
        lo = 0
        while lo < flat.size:
            hi = min(flat.size, lo + moves.block)
            sups, nested = moves.score(flat, state, lo, hi)
            for i in range(lo, hi):
                before = current
                old = new = flat[i]
                a = 0
                for candidate in (-1.0, 0.0, 1.0):
                    if candidate == new:
                        continue
                    if used >= budget:
                        flat[i] = new
                        return coeffs, current, used
                    used += 1
                    if candidate == old:
                        trial = before
                    else:
                        trial = moves.ratio(sups[i - lo][a], nested[i - lo, a])
                        a += 1
                    if trial > current:
                        current = trial
                        new = candidate
                if new != old:
                    moves.move(flat, state, i, new)
                    improved = True
                    lo = i + 1
                    break
            else:
                lo = hi
    return coeffs, current, used


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
    every budget it did not reach, this changes no result.
    """
    dims = _checked_dims(dims)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if exps.degree != len(dims):
        raise ValueError(
            f"exponent tuple covers {exps.degree} slots but dims has {len(dims)}"
        )
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if restarts is not None and restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if not _affordable(dims, DEFAULT_SUP_BUDGET):
        raise ValueError(
            f"dims {dims} need 2^{sum(dims)} sign vertices; exact sup norms "
            f"are affordable only up to {DEFAULT_SUP_BUDGET}"
        )
    moves = _Moves(dims, exps)
    # Every +-1 start has the mixed norm of the all-ones tensor, the largest
    # of any tensor the search visits; if it overflows, so does every run.
    with np.errstate(over="ignore"):
        top = moves.ratio_of(np.ones(dims))
    if math.isinf(top):
        raise ValueError(f"mixed norm under {exps} overflows float64")

    climbs: dict[bytes, tuple[bytes, float, int]] = {}
    best_key: tuple[float, int] | None = None
    best_coeffs: np.ndarray | None = None
    used = 0
    k = 0
    while used < budget and (restarts is None or k < restarts):
        coeffs = _random_signs(dims, seed + k)
        start = np.packbits(coeffs > 0).tobytes()
        cached = climbs.get(start)
        if cached is not None and cached[2] <= budget - used:
            final, ratio, spent = cached
            coeffs = np.frombuffer(final, dtype=np.int8).reshape(dims).astype(float)
        else:
            coeffs, ratio, spent = _climb(coeffs, moves, budget - used)
            climbs[start] = (coeffs.astype(np.int8).tobytes(), ratio, spent)
        used += spent
        if refine and used < budget:
            coeffs, ratio, spent = _refine(coeffs, moves.ratio_of, budget - used)
            used += spent
        key = (ratio, seed + k)
        if best_key is None or key > best_key:
            best_key = key
            best_coeffs = coeffs.copy()
        k += 1

    found = MultilinearForm(best_coeffs, label=f"optimized{dims}")
    return replace(certify(found, exps), seed=seed, budget=budget)


def growth_witness(
    exps: ExponentTuple | Callable[[int], ExponentTuple],
    n_list: Sequence[int],
    trials: int = 8,
    seed: int = 0,
    budget_per_n: int = 20_000,
) -> list[tuple[int, float]]:
    """Best ratio found on dims (n, ..., n) for each n.

    For tuples without a uniform constant the optimum is unbounded in n
    but can be flat over small n: for (1,1) it is 2 at n = 2, 3, 4 and
    grows like sqrt(n).  For admissible tuples it stays bounded.  `exps`
    is a fixed tuple or a callable n -> tuple.  Only exact sup norms
    enter the ratios, so each n must have a full vertex grid that
    `optimize_ratio` accepts.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rows = []
    for n in n_list:
        e = exps(n) if callable(exps) else exps
        dims = (int(n),) * e.degree
        cert = optimize_ratio(dims, e, budget=budget_per_n, seed=seed, restarts=trials)
        rows.append((int(n), cert.ratio))
    return rows


def equivalence_demo(form: MultilinearForm, m: int) -> EquivalenceReport:
    """Check the lifting identity at degree m: with q = (2m-2)/m, the
    (2, q, ..., q) mixed norm of the lifted form equals the (q, ..., q)
    norm of the base form, and the sup norms agree."""
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
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
