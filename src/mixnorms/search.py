"""Ratio certificates and local search for extremal forms.

A single form certifies a lower bound on the optimal constant of a mixed
norm inequality: mixed_norm(T, e) <= C * sup_norm(T) for every form T, so
the ratio of one concrete T is a machine-checkable bound from below.  The
certificate is rigorous (up to rounding) only when the sup norm came from
full vertex enumeration, so the optimizer refuses dims whose vertex grid
is unaffordable rather than silently degrading.

The optimizer hill-climbs over coefficient tensors with entries in
{-1, 0, +1} - the alphabet the known extremal forms live in, and one that
keeps vertex enumeration cheap - accepting only strict ratio improvements
in a fixed first-improvement scan order, with seeded random restarts.  An
optional final pass does a coordinatewise continuous line search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._version import VERSION
from .forms import (
    DEFAULT_SUP_BUDGET,
    MultilinearForm,
    _exact_sup,
    lift,
    random_sign_form,
    sup_norm,
)
from .mixed_norms import ExponentTuple, _blocked_tensor, _nested_norm_numpy, mixed_norm


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
        return {
            "form_label": self.form_label,
            "dims": list(self.dims),
            "exponents": str(self.exponents),
            "mixed": self.mixed,
            "sup": self.sup,
            "ratio": self.ratio,
            "sup_exact": self.sup_exact,
            "seed": self.seed,
            "budget": self.budget,
            "version": VERSION,
        }


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


def certify(
    form: MultilinearForm,
    exps: ExponentTuple,
    seed: int | None = None,
    budget: int | None = None,
) -> RatioCertificate:
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
        seed=seed,
        budget=budget,
    )


def _fast_ratio_fn(exps: ExponentTuple) -> Callable[[np.ndarray], float]:
    """Vectorized mixed/sup ratio for the climb loop.

    The sup norm comes from the same exact kernel as `sup_norm`, which
    covers every sign vertex: the largest slot in closed form, and for each
    other slot the half of its sign vectors whose last sign is +1.  With
    coefficients in {-1, 0, +1} every value it forms is a small integer,
    so the climb's comparisons are exact.  Returns -inf for the
    zero form so such moves are never accepted.  The final certificate is
    always recomputed through the canonical compensated-summation path.
    """
    exponents = exps.exponents

    def ratio(coeffs: np.ndarray) -> float:
        sup = _exact_sup(coeffs)
        if sup == 0.0:
            return -math.inf
        blocked, _ = _blocked_tensor(coeffs, exps)
        return _nested_norm_numpy(blocked, exponents) / sup

    return ratio


def _climb(coeffs: np.ndarray, ratio_fn, budget: int) -> tuple[np.ndarray, float, int]:
    """First-improvement hill climbing over single entries in {-1, 0, +1}.

    Scans entries in C order, trying alternative values in the fixed order
    (-1, 0, +1); a strictly better ratio is accepted immediately.  Stops
    at a local optimum or when the evaluation budget runs out.
    """
    current = ratio_fn(coeffs)
    used = 1
    flat = coeffs.ravel()
    improved = True
    while improved and used < budget:
        improved = False
        for i in range(flat.size):
            old = flat[i]
            for candidate in (-1.0, 0.0, 1.0):
                if candidate == old:
                    continue
                if used >= budget:
                    return coeffs, current, used
                flat[i] = candidate
                trial = ratio_fn(coeffs)
                used += 1
                if trial > current:
                    current = trial
                    old = candidate
                    improved = True
                else:
                    flat[i] = old
    return coeffs, current, used


def _refine(coeffs: np.ndarray, ratio_fn, budget: int) -> tuple[np.ndarray, float, int]:
    """Coordinatewise continuous polish: golden-section line search on each
    entry over [-1.5, 1.5], two sweeps, strict improvements only."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    current = ratio_fn(coeffs)
    used = 1
    flat = coeffs.ravel()
    for _ in range(2):
        for i in range(flat.size):
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
            if used >= budget:
                return coeffs, current, used
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
    """
    dims = tuple(int(d) for d in dims)
    if exps.degree != len(dims):
        raise ValueError(
            f"exponent tuple covers {exps.degree} slots but dims has {len(dims)}"
        )
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    n_vertices = 1
    for d in dims:
        n_vertices *= 2 ** d
    if n_vertices > DEFAULT_SUP_BUDGET:
        raise ValueError(
            f"dims {dims} needs {n_vertices} sign vertices; exact sup norms "
            f"are affordable only up to {DEFAULT_SUP_BUDGET}"
        )

    ratio_fn = _fast_ratio_fn(exps)
    best_key: tuple[float, int] | None = None
    best_coeffs: np.ndarray | None = None
    used = 0
    k = 0
    while used < budget and (restarts is None or k < restarts):
        coeffs = np.array(random_sign_form(dims, seed + k).coeffs)
        coeffs, ratio, spent = _climb(coeffs, ratio_fn, budget - used)
        used += spent
        if refine and used < budget:
            coeffs, ratio, spent = _refine(coeffs, ratio_fn, budget - used)
            used += spent
        key = (ratio, seed + k)
        if best_key is None or key > best_key:
            best_key = key
            best_coeffs = coeffs.copy()
        k += 1

    assert best_coeffs is not None  # budget >= 1 guarantees one restart
    found = MultilinearForm(best_coeffs, label=f"optimized{dims}")
    return certify(found, exps, seed=seed, budget=budget)


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
    enter the ratios, so each n must be affordable for full vertex
    enumeration.
    """
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
