"""Simplex geometry, outcome encoding, count accumulation, and seeded RNG streams.

Forecasts are probability vectors over ``k`` outcomes, outcomes are vertex
indices in ``[0, k)``, and histories are integer count vectors.  One rule,
:func:`outcome_indices`, decides what an outcome is, for ``one_hot``, a
fixed sequence, a transcript and every loss alike: an integer dtype, in
``[0, k)``.  Everything downstream (losses, forecasters, the experiment
engine) builds on the helpers here, sums over the K axis with
:func:`row_sum`, draws through the reproducible-stream contract of
:class:`RngStream`, and prints its floats with :func:`format_float`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

SIMPLEX_TOL = 1e-12
_COLUMN_SUM_DTYPES = (np.dtype(np.float64), np.dtype(np.int64))


def validate_simplex(v, tol: float = SIMPLEX_TOL) -> np.ndarray:
    """Check that ``v`` is a probability vector and return it renormalized.

    Entries must be nonnegative and sum to 1, both within ``tol``.  Tiny
    negative entries (within tolerance) are clipped to 0 and the vector is
    rescaled so the returned entries sum to 1.

    Raises ``ValueError`` if an entry is negative beyond ``tol`` or the sum
    deviates from 1 beyond ``tol``.
    """
    p = np.asarray(v, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise ValueError(f"expected a 1-d probability vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("probability vector has non-finite entries")
    low = p.min()
    if low < -tol:
        raise ValueError(f"negative probability entry {low} (tol {tol})")
    total = p.sum()
    if abs(total - 1.0) > tol:
        raise ValueError(f"probabilities sum to {total}, expected 1 (tol {tol})")
    p = np.clip(p, 0.0, None)
    return p / p.sum()


def row_sum(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=-1)``, bit for bit: the one way the K axis is summed.

    numpy reduces a short last axis row by row, and that per-row reduce costs
    several times the arithmetic.  With fewer than 8 terms numpy adds them
    left to right, starting from zero, so for 2 <= K < 8 and at least 64 rows
    of float64 or int64 the same sums are taken as whole-column adds.
    Everything else, such as a lockstep round's few rows or K >= 8, where
    numpy sums pairwise, goes to numpy's reduce.
    """
    k = a.shape[-1] if a.ndim else 0
    if not 2 <= k < 8 or a.size < 64 * k or a.dtype not in _COLUMN_SUM_DTYPES:
        return a.sum(axis=-1)
    out = a[..., 0] + a.dtype.type(0)  # numpy's start: a row of -0.0 sums to +0.0
    for j in range(1, k):
        out += a[..., j]
    return out


def uniform_point(k: int) -> np.ndarray:
    """The barycenter (1/k, ..., 1/k) of the simplex over ``k`` outcomes."""
    k = validate_integer(k, "k", 1)
    return np.full(k, 1.0 / k)


def one_hot(index: int, k: int) -> np.ndarray:
    """Vertex e_index of the simplex over ``k`` outcomes."""
    v = np.zeros(validate_integer(k, "k", 1))
    v[outcome_indices(index, k).item()] = 1.0
    return v


def outcome_indices(y, k: int) -> np.ndarray:
    """``y`` as int64 indices of ``k`` outcomes: floats, bools and any off [0, k) are refused."""
    y = np.asarray(y)
    if y.size and y.dtype.kind not in "iu":  # as numpy indexing does, refuse 1.7 and True
        raise ValueError(f"outcome index must be an integer, got dtype {y.dtype}")
    if y.size and (y.min() < 0 or y.max() >= k):  # before int64 wraps a uint64 above 2^63
        bad = y.flat[np.argmax((y < 0) | (y >= k))]  # the first, in C order
        raise ValueError(f"outcome index out of range: {bad} is not in [0, {k})")
    return y.astype(np.int64, copy=False)


def validate_integer(value, name: str, low: int | None = None) -> int:
    """``value`` as an int of at least ``low``: the one check of a count.

    Python and numpy integers pass, 2.7 and 5.0 are refused with
    ``"{name} must be an integer, got ..."``, and a value below ``low``, when
    ``low`` is given, with ``"{name} must be >= {low}"``.
    """
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}")
    return value


def validate_counts(counts) -> np.ndarray:
    """Check that ``counts`` is a vector of nonnegative integers."""
    c = np.asarray(counts)
    if c.ndim != 1 or c.size < 1:
        raise ValueError(f"expected a 1-d count vector, got shape {c.shape}")
    if not np.issubdtype(c.dtype, np.integer):
        rounded = np.rint(c)
        if not np.all(c == rounded):
            raise ValueError("counts must be integers")
        c = rounded.astype(np.int64)
    if c.min() < 0:
        raise ValueError("counts must be nonnegative")
    return c.astype(np.int64)


def mean_of_counts(counts) -> np.ndarray:
    """Empirical distribution counts / total.

    This is the benchmark point: the average of the observed one-hot
    outcomes, which minimizes cumulative loss over fixed forecasts for every
    proper loss simultaneously.

    Raises ``ValueError("empty history")`` when the total count is zero.
    """
    c = validate_counts(counts)
    total = int(c.sum())
    if total == 0:
        raise ValueError("empty history")
    return c / total


@dataclass(frozen=True)
class RngStream:
    """A named, reproducible random stream.

    Identical ``(seed, stream_id)`` pairs always reproduce identical draw
    sequences; distinct pairs give statistically independent streams.  Both
    are integers in [-2^63, 2^63), and anything else is refused: each is
    read as one unsigned 64-bit word, so a wider range would make two pairs
    alias, as -1 and 2^64 - 1 would.  Monte
    Carlo trials use ``(base_seed, trial_index)`` so each trial is
    independently reproducible regardless of execution order.  A game reads
    its stream in one layout: the forecaster's whole (T, K) noise block
    first, then the adversary's outcomes.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            value = validate_integer(getattr(self, name), name)
            if not -(1 << 63) <= value < 1 << 63:
                raise ValueError(f"{name} must lie in [-2^63, 2^63), got {value}")
            object.__setattr__(self, name, value)

    def generator(self) -> np.random.Generator:
        """A fresh generator positioned at the start of this stream."""
        # SeedSequence wants nonnegative entropy words; wrap to unsigned 64-bit,
        # which maps [-2^63, 2^63) one to one.
        words = [self.seed & 0xFFFFFFFFFFFFFFFF, self.stream_id & 0xFFFFFFFFFFFFFFFF]
        return np.random.default_rng(np.random.SeedSequence(words))


def format_float(x: float) -> str:
    """Render a float at 12 significant digits for CSV output."""
    return f"{x:.12g}"
