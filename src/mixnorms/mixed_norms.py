"""Nested mixed norms of coefficient tensors and exponent-tuple bookkeeping.

A mixed norm is described by an ordered list of blocks (n_j, q_j): block j
covers the next n_j argument slots, all sharing one summation index, and
contributes the exponent q_j at nesting level j (first block outermost).
For blocks of size one on a degree-m form this is the plain nested norm

    ( sum_{i1} ( sum_{i2} ( ... sum_{ik} |c|^{qk} ... )^{q2/q3} )^{q1/q2} )^{1/q1}.

Writing the Bohnenblust-Hille exponent 2m/(m+1) as the constant tuple
(2m/(m+1), ..., 2m/(m+1)) makes it one point of this family; the classical
mixed Littlewood inequalities are the tuples (1,2,...,2) through (2,...,2,1).
A tuple with every q_j in [1, 2] admits a uniform constant (independent of
the support sizes) exactly when sum 1/q_j <= (k+1)/2; `admissible` tests
that boundary with a small floating-point slack so the Bohnenblust-Hille
tuple, which meets it with equality, classifies as admissible.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .forms import MultilinearForm, _checked_count, permute_slots

#: Slack added to (k+1)/2 so tuples meeting the boundary with equality
#: (e.g. the Bohnenblust-Hille exponents) classify as admissible.
ADMISSIBILITY_SLACK = 1e-12


class RaggedBlockWarning(UserWarning):
    """A block groups slots of unequal support size; the shared index runs
    over the smallest of them."""


@dataclass(frozen=True)
class ExponentTuple:
    """Ordered (size, exponent) blocks defining a nested mixed norm."""

    blocks: tuple[tuple[int, float], ...]

    def __post_init__(self):
        blocks = tuple((_checked_count("block size", n), q) for n, q in self.blocks)
        if not blocks:
            raise ValueError("an exponent tuple needs at least one block")
        for _, q in blocks:
            if isinstance(q, bool) or not isinstance(q, numbers.Real):
                raise ValueError(f"exponent must be a real number, got {q!r}")
            try:
                finite = math.isfinite(q)
            except OverflowError:  # an integer beyond float64
                raise ValueError(f"exponent must fit in a float64, got {q}") from None
            if not finite or q < 1.0:
                raise ValueError(f"exponent must be finite and >= 1, got {q}")
        object.__setattr__(self, "blocks", tuple((n, float(q)) for n, q in blocks))

    @classmethod
    def unblocked(cls, exponents: Iterable[float]) -> "ExponentTuple":
        return cls(tuple((1, float(q)) for q in exponents))

    @classmethod
    def parse(cls, text: str) -> "ExponentTuple":
        """Parse ``"q1,q2,...,qk"`` (unblocked) or ``"n1:q1|n2:q2|..."``.

        Exponents accept plain floats and simple fractions like ``4/3``.
        """
        text = text.strip()
        if not text:
            raise ValueError("empty exponent tuple")
        if "|" in text or ":" in text:
            blocks = []
            for token in text.split("|"):
                parts = token.split(":")
                if len(parts) != 2:
                    raise ValueError(f"bad block token {token!r}, expected 'n:q'")
                try:
                    n = int(parts[0])
                    q = parse_number(parts[1])
                except ValueError as exc:
                    raise ValueError(f"bad block token {token!r}: {exc}") from exc
                blocks.append((n, q))
            return cls(tuple(blocks))
        exponents = []
        for token in text.split(","):
            try:
                exponents.append(parse_number(token))
            except ValueError as exc:
                raise ValueError(f"bad exponent token {token.strip()!r}: {exc}") from exc
        return cls.unblocked(exponents)

    @property
    def k(self) -> int:
        return len(self.blocks)

    @property
    def degree(self) -> int:
        return sum(n for n, _ in self.blocks)

    @property
    def exponents(self) -> tuple[float, ...]:
        return tuple(q for _, q in self.blocks)

    @property
    def is_unblocked(self) -> bool:
        return all(n == 1 for n, _ in self.blocks)

    def __str__(self) -> str:
        if self.is_unblocked:
            return ",".join(f"{q:.12g}" for q in self.exponents)
        return "|".join(f"{n}:{q:.12g}" for n, q in self.blocks)


def parse_number(token: str) -> float:
    """Float literal or simple fraction 'a/b'."""
    token = token.strip()
    if "/" in token:
        num, _, den = token.partition("/")
        if float(den) == 0.0:
            raise ValueError(f"zero denominator in {token!r}")
        return float(num) / float(den)
    return float(token)


def _blocked_tensor(coeffs: np.ndarray, exps: ExponentTuple) -> tuple[np.ndarray, bool]:
    """Collapse each block's slots onto one shared index.

    The last `exps.degree` axes of `coeffs` are the slots, and leading axes
    batch independent tensors.  Block j's index runs over the smallest
    support among its slots; the result keeps the batch axes, then has one
    axis per block.  Each slot is labelled with its block's index in
    `np.einsum`'s sublist form, whose labels run over [0, 52).  Returns
    (tensor, ragged).
    """
    if exps.is_unblocked:  # an identity einsum would add a sixth to a 2 x 2 `mixed_norm`
        return coeffs, False
    if exps.k > 52:
        raise ValueError(f"a blocked exponent tuple has at most 52 blocks, got {exps.k}")
    shape = coeffs.shape[-exps.degree:]
    ragged = False
    labels = []
    slicer = []
    pos = 0
    for j, (n, _) in enumerate(exps.blocks):
        covered = shape[pos:pos + n]
        if len(set(covered)) > 1:
            ragged = True
        labels.extend([j] * n)
        slicer.extend([slice(min(covered))] * n)
        pos += n
    blocked = np.einsum(coeffs[(..., *slicer)], [..., *labels], [..., *range(exps.k)])
    return blocked, ragged


def _power(x: np.ndarray, p: float) -> np.ndarray:
    """x ** p, skipping the power when p = 1, where numpy has no fast path
    (x ** 1.0 equals x bit for bit)."""
    return x if p == 1.0 else x ** p


def _outer_sums(inner: np.ndarray, exponents: Sequence[float]) -> np.ndarray:
    """Levels 1..k-1 of nested norms from their innermost sums.

    `inner[..., i1, ..., i_{k-1}]` is the sum over the last index of
    |c|^q_k; leading axes batch independent tensors.  Returns the level-1
    sums, whose 1/q_1 root is the norm.
    """
    out = inner
    for level in range(len(exponents) - 1, 0, -1):
        out = _power(out, exponents[level - 1] / exponents[level]).sum(axis=-1)
    return out


def _nested_norm(arr: np.ndarray, exponents: Sequence[float]) -> float:
    """Nested norm of a tensor with one axis per exponent, outermost first."""
    inner = _power(np.abs(arr), exponents[-1]).sum(axis=-1)
    return float(_outer_sums(inner, exponents) ** (1.0 / exponents[0]))


def mixed_norm(form: MultilinearForm, exps: ExponentTuple) -> float:
    """Nested mixed norm of the form's coefficients under `exps`.

    Finitely supported forms make every sum finite, so the value is exact
    up to the rounding of numpy's sums, taken innermost level first.  A
    block covering slots of unequal support emits RaggedBlockWarning and
    ranges over the smallest.  The tuple must cover every slot of the form.
    A value that overflows float64, or underflows it to 0, raises ValueError.
    """
    if exps.degree != form.degree:
        raise ValueError(
            f"exponent tuple covers {exps.degree} slots but the form has degree {form.degree}"
        )
    blocked, ragged = _blocked_tensor(form.coeffs, exps)
    if ragged:
        warnings.warn(
            f"block structure {exps} groups slots of unequal support; "
            "shared indices range over the smallest",
            RaggedBlockWarning,
            stacklevel=2,
        )
    value = _nested_norm(blocked, exps.exponents)
    if math.isinf(value):  # finite coefficients: a power overflowed float64
        raise ValueError(f"mixed norm under {exps} overflows float64")
    if value == 0.0 and blocked.any():  # every nonzero power underflowed
        raise ValueError(f"mixed norm under {exps} underflows float64")
    return value


def bh_exponents(m: int) -> ExponentTuple:
    """The degree-m Bohnenblust-Hille tuple: m singleton blocks of 2m/(m+1)."""
    m = _checked_count("degree", m)
    q = 2.0 * m / (m + 1.0)
    return ExponentTuple.unblocked([q] * m)


def admissible(exps: ExponentTuple) -> bool:
    """Whether a uniform constant exists for this tuple: sum 1/q_j <= (k+1)/2.

    Only defined for exponents in [1, 2]; raises otherwise.
    """
    for q in exps.exponents:
        if q < 1.0 or q > 2.0:
            raise ValueError(f"admissibility is defined for exponents in [1, 2], got {q}")
    total = math.fsum(1.0 / q for q in exps.exponents)
    return total <= (exps.k + 1) / 2.0 + ADMISSIBILITY_SLACK


def minkowski_compare(form: MultilinearForm, p: float, q: float) -> tuple[float, float]:
    """Both summation orders of the (p, q) mixed norm of a bilinear form.

    value_pq sums the second slot inside (exponent q) and the first slot
    outside (exponent p); value_qp reverses the summation order, keeping
    each slot's exponent.  Minkowski's inequality for mixed sums puts the
    smaller exponent outermost on the larger side: value_qp <= value_pq.
    """
    if form.degree != 2:
        raise ValueError(f"minkowski_compare needs a bilinear form, got degree {form.degree}")
    if not 1.0 <= p <= q:
        raise ValueError(f"need 1 <= p <= q, got p={p}, q={q}")
    value_pq = mixed_norm(form, ExponentTuple.unblocked((p, q)))
    value_qp = mixed_norm(permute_slots(form, (1, 0)), ExponentTuple.unblocked((q, p)))
    return value_pq, value_qp
