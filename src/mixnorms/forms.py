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
contracted in blocks of bounded size, and each one's closed-form l1 norm
adds up max(dims) absolute values.  The exact value is used whenever that
work, patterns times max(dims), fits the evaluation budget.  Together the
patterns and the closed form cover every vertex, so ``exact`` means that
every vertex is covered, and ``evaluations`` counts the full grid of
2^sum(dims) vertices, which can exceed the budget.  Larger forms fall back
to an alternating coordinate-ascent heuristic whose result is still a
valid lower bound: 32 restarts from fixed random vertices, each step
setting one slot's signs to those of its gradient when that changes a
sign and raises the value.  The restarts advance in lockstep, one batched
contraction per slot step, in groups whose temporaries stay within
max(form size, 2^15) elements.

All user-facing I/O (the JSON form files) uses 1-based indices; the Python
API is 0-based like the underlying arrays.  A form file may declare at
most MAX_FORM_ENTRIES coefficients, checked before any allocation.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

#: Default evaluation budget of `sup_norm`.  The exact kernel is used
#: whenever its work, 2^(sum(dims) - max(dims) - m + 1) sign patterns times
#: max(dims) terms, fits it; the heuristic ascent spends at most this many
#: evaluations.
DEFAULT_SUP_BUDGET = 2 ** 22

#: Restarts used by the heuristic ascent when the exact kernel is unaffordable.
ASCENT_RESTARTS = 32

_ASCENT_SEED = 7  # fixed internal seed: sup_norm must be deterministic

#: Elements per contracted block in the exact sup norm.  Peak memory of the
#: exact path is a few blocks or the form's own size, whichever is larger;
#: it does not grow with the number of sign vertices or the budget.
_CHUNK = 1 << 15

#: Most coefficients a JSON form file may declare (512 MiB of float64),
#: checked before the coefficient tensor is allocated.
MAX_FORM_ENTRIES = 2 ** 26

#: Slots up to this support size read their sign vectors from a cached
#: table (the largest is under 2 MiB); larger slots generate each block.
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
    a non-exact value counts the ascent's evaluations, at most the budget,
    and is always a valid lower bound of the true sup norm."""

    value: float
    exact: bool
    evaluations: int


def evaluate(form: MultilinearForm, points: Sequence[Sequence[float]]) -> float:
    """Evaluate the form at one vector per slot.

    Each vector must have exactly the slot's support size; the result is
    the full multilinear expansion sum(coeff * prod points[i][j_i]).
    """
    if len(points) != form.degree:
        raise ValueError(
            f"form of degree {form.degree} needs {form.degree} vectors, got {len(points)}"
        )
    vecs = []
    for i, p in enumerate(points):
        v = np.asarray(p, dtype=float)
        if v.ndim != 1 or v.shape[0] != form.dims[i]:
            raise ValueError(
                f"slot {i + 1} expects a vector of length {form.dims[i]}, "
                f"got length {v.shape[0] if v.ndim == 1 else 'non-vector'}"
            )
        vecs.append(v)
    return _contract(form.coeffs, vecs)


def _contract(coeffs: np.ndarray, vecs: Sequence[np.ndarray]) -> float:
    """Contract one vector into each slot of `coeffs`, first slot first."""
    val = coeffs
    for v in vecs:
        val = np.tensordot(v, val, axes=(0, 0))
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


def _max_l1(arr: np.ndarray, dims: tuple[int, ...], j: int) -> float:
    """Max over the sign vectors of slots j..m-2 of the l1 norm over the
    last slot, for `arr` of shape (dims[j], ..., dims[-1], P) holding P
    partial contractions (overwritten when j = m-1).  Each slot runs over
    the half of its table whose last sign is +1: flipping a whole slot
    only flips the contracted vector, which keeps its l1 norm."""
    d = dims[j]
    flat = arr.reshape(d, -1)
    if j == len(dims) - 1:
        # In place: a second block-sized temporary costs more than the sum.
        return float(np.abs(flat, out=flat).sum(axis=0).max())
    n = 2 ** (d - 1)
    step = max(1, _CHUNK // flat.shape[1])
    best = 0.0
    for start in range(0, n, step):
        stop = min(n, start + step)
        signs = _sign_vertices(d)[start:stop] if d <= _TABLE_BITS else _sign_rows(d, start, stop)
        # Contracting the leading axis keeps the next slot's axis leading
        # and collects the sign rows at the back.
        best = max(best, _max_l1(flat.T @ signs.T, dims, j + 1))
    return best


def _affordable(dims: Sequence[int], budget: int) -> bool:
    """Whether the 2^sum(dims) sign vertices of the slots' unit balls fit
    `budget`, decided from the exponent without building the power."""
    return sum(dims) < int(budget).bit_length()


def _exact_work_fits(dims: Sequence[int], budget: int) -> bool:
    """Whether `_exact_sup`'s work on `dims` fits `budget`: its
    2^(sum(dims) - max(dims) - m + 1) sign patterns times the max(dims)
    terms of each closed-form l1 norm; a degree-1 form's work is its size.
    Decided from the exponent first, so no huge power is built."""
    top = max(dims)
    exponent = sum(dims) - top - len(dims) + 1
    return exponent < int(budget).bit_length() and top << exponent <= budget


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
    (ASCENT_RESTARTS, d) per slot.  Restart k draws its slots in order from
    the generator seeded with (_ASCENT_SEED, k), so the starts depend on
    `dims` alone.  At one byte per sign the tables take ASCENT_RESTARTS
    bytes per slot coordinate."""
    tables = tuple(np.empty((ASCENT_RESTARTS, d), dtype=np.int8) for d in dims)
    for k in range(ASCENT_RESTARTS):
        rng = np.random.default_rng((_ASCENT_SEED, k))
        for table in tables:
            table[k] = 1 - 2 * rng.integers(0, 2, size=table.shape[1])
    for table in tables:
        table.flags.writeable = False
    return tables


class _Gradients:
    """Slot gradients of a batch of sign vertices: for every row, the
    coefficient tensor contracted with the row's signs in every slot but
    one.  The largest other slot is contracted first, by one matmul with a
    cached matrix layout of the coefficients; the rest one slot at a time,
    last first, batched over the rows."""

    def __init__(self, coeffs: np.ndarray):
        self.coeffs = coeffs
        self.dims = dims = coeffs.shape
        # For slot s, the largest other slot: the largest, or for the
        # largest itself the runner-up.
        by_size = sorted(range(len(dims)), key=lambda i: -dims[i])
        self.first = [by_size[by_size[0] == s] for s in range(len(dims))] if len(dims) > 1 else []
        self.mats = {
            f: np.moveaxis(coeffs, f, 0).reshape(dims[f], -1) for f in set(self.first)
        }

    def row_elements(self) -> int:
        """Elements per row of the largest temporary, the first product."""
        return max((m.shape[1] for m in self.mats.values()), default=self.dims[0])

    def __call__(self, signs: list[np.ndarray], slot: int) -> np.ndarray:
        dims = self.dims
        n = signs[0].shape[0]
        if len(dims) == 1:
            return np.broadcast_to(self.coeffs, (n, dims[0]))
        f = self.first[slot]
        arr = signs[f] @ self.mats[f]
        axes = [j for j in range(len(dims)) if j != f]
        for j in reversed(axes):
            if j == slot:
                continue
            p = axes.index(j)
            inner = math.prod(dims[i] for i in axes[p + 1:])
            arr = arr.reshape(n, -1, dims[j], inner)
            arr = np.einsum("axjy,aj->axy", arr, signs[j])
            axes.pop(p)
        return arr.reshape(n, dims[slot])


def _lockstep_ascent(grads: _Gradients, starts: list[np.ndarray],
                     caps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Alternating sign ascent from every row of `starts` at once.

    Per slot, the optimal signs given the others are the signs of the
    slot gradient; ties keep the current sign.  A step is accepted when it
    changes a sign and raises the value (one that changes no sign only
    recomputes the same vertex, up to rounding), and a row stops after a sweep
    over all slots with no accepted step, or before a step that would take
    its evaluations past its cap.  Returns (evaluations, value) of every
    row after every step, shape (steps + 1, rows), each row's last entry
    repeated once it has stopped.
    """
    dims = grads.dims
    signs = [s.astype(float) for s in starts]
    rows = np.arange(len(caps))
    grad = grads(signs, 0)
    value = np.abs(np.einsum("ad,ad->a", signs[0], grad))
    evals = np.ones(len(caps), dtype=np.int64)
    all_evals, all_values = evals.copy(), value.copy()
    hist_evals, hist_values = [all_evals.copy()], [all_values.copy()]
    while rows.size:
        improved = np.zeros(rows.size, dtype=bool)
        for slot, d in enumerate(dims):
            fits = evals + d <= caps[rows]
            if not fits.all():
                signs = [s[fits] for s in signs]
                rows, value, evals, improved = rows[fits], value[fits], evals[fits], improved[fits]
                grad = None
                if not rows.size:
                    break
            if grad is None:
                grad = grads(signs, slot)
            flip = grad * signs[slot] < 0
            new_value = np.abs(grad).sum(axis=1)  # the value at the gradient's signs
            accept = (new_value > value) & flip.any(axis=1)
            signs[slot] = np.where(flip & accept[:, None], -signs[slot], signs[slot])
            value = np.where(accept, new_value, value)
            evals += d
            improved |= accept
            all_evals[rows], all_values[rows] = evals, value
            hist_evals.append(all_evals.copy())
            hist_values.append(all_values.copy())
            grad = None
        signs = [s[improved] for s in signs]
        rows, value, evals = rows[improved], value[improved], evals[improved]
    return np.array(hist_evals), np.array(hist_values)


def _ascent_sup(coeffs: np.ndarray, budget: int) -> tuple[float, int]:
    """Best value and evaluations of ASCENT_RESTARTS ascents, restart k
    getting whatever budget restarts 0..k-1 left, as if run one after
    another.  The restarts run in lockstep, in groups small enough that no
    temporary exceeds max(coeffs.size, _CHUNK) elements; each group runs
    to the end, and the sequential accounting is replayed on its record."""
    grads = _Gradients(coeffs)
    starts = _ascent_starts(coeffs.shape)
    group = max(1, max(coeffs.size, _CHUNK) // grads.row_elements())
    best = 0.0
    used = 0
    for lo in range(0, ASCENT_RESTARTS, group):
        if used >= budget:
            break
        hi = min(ASCENT_RESTARTS, lo + group)
        # Restart lo + i gets at most budget - used - i: each earlier one
        # spends at least its start evaluation.
        caps = budget - used - np.arange(hi - lo)
        evals, values = _lockstep_ascent(grads, [s[lo:hi] for s in starts], caps)
        for i in range(hi - lo):
            if used >= budget:
                break
            t = int(np.searchsorted(evals[:, i], budget - used, side="right")) - 1
            used += int(evals[t, i])
            best = max(best, float(values[t, i]))
    return best, used


def sup_norm(form: MultilinearForm, budget: int = DEFAULT_SUP_BUDGET) -> SupNormResult:
    """Sup norm over the unit balls of c0.

    If the exact kernel's work fits in `budget` (its
    2^(sum(dims) - max(dims) - m + 1) sign patterns times the max(dims)
    terms of each closed-form l1 norm), `_exact_sup` gives the exact
    maximum, and `evaluations` reports the full grid of 2^sum(dims)
    vertices, which can exceed the budget.  Otherwise ASCENT_RESTARTS
    alternating sign ascents from fixed random vertices return a
    deterministic lower bound flagged exact=False, with at most `budget`
    evaluations.  They share the budget as if run one after another
    (restart k gets what the earlier ones left) but advance in lockstep,
    one batched contraction per slot step; `evaluations` counts d per step
    on a slot of size d, plus one per start vertex.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if _exact_work_fits(form.dims, budget):
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


def _checked_dims(dims: Sequence[int]) -> tuple[int, ...]:
    """`dims` as a tuple of ints; raises unless it is nonempty and positive."""
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise ValueError(f"dims must be nonempty and positive, got {dims}")
    return dims


def _random_signs(dims: tuple[int, ...], seed) -> np.ndarray:
    """Writable tensor of i.i.d. coefficients in {-1, +1}, the coefficients
    of `random_sign_form(dims, seed)`; `dims` must already be checked."""
    rng = np.random.default_rng(seed)
    return 2.0 * rng.integers(0, 2, size=dims).astype(float) - 1.0


def random_sign_form(dims: Sequence[int], seed) -> MultilinearForm:
    """Deterministic form with i.i.d. coefficients in {-1, +1}."""
    coeffs = _random_signs(_checked_dims(dims), seed)
    return MultilinearForm(coeffs, label=f"random_sign{coeffs.shape}")


# ---------------------------------------------------------------------------
# JSON form files (1-based indices, omitted entries are zero)
# ---------------------------------------------------------------------------

def form_to_dict(form: MultilinearForm) -> dict:
    entries = [
        {"index": [int(j) + 1 for j in idx], "value": float(form.coeffs[idx])}
        for idx in np.ndindex(*form.dims)
        if form.coeffs[idx] != 0.0
    ]
    doc = {"degree": form.degree, "dims": list(form.dims), "entries": entries}
    if form.label is not None:
        doc["label"] = form.label
    return doc


def _is_int(x) -> bool:
    """Whether `x` is a JSON integer (bool is not)."""
    return isinstance(x, int) and not isinstance(x, bool)


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
