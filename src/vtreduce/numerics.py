"""Small deterministic dense-array kernels used by every other module.

All values are float64 internally regardless of how traces are stored;
selection logic is rank-based, so the extra precision only tightens
golden-value checks. Every function here but the in-place ``unit_rows``
is pure and safe to call from concurrent workers.
"""

import math

import numpy as np

from .errors import BudgetError, DegenerateInputError, ShapeError

__all__ = [
    "as_tensor",
    "round_half_up",
    "softmax_rows",
    "top_k_indices",
    "cosine_similarity",
]


def check_shape(arr: np.ndarray, ndim: int | None = None) -> None:
    """The shape half of ``as_tensor``: rank >= 1 (``ndim`` if given), dims >= 1."""
    if arr.ndim == 0:
        raise ShapeError("expected an array with at least one dimension, got a scalar")
    if ndim is not None and arr.ndim != ndim:
        raise ShapeError(f"expected a {ndim}-D array, got shape {arr.shape}")
    if any(d < 1 for d in arr.shape):
        raise ShapeError(f"dimensions must all be >= 1, got shape {arr.shape}")


def as_tensor(values, ndim: int | None = None) -> np.ndarray:
    """Validate and convert to a C-order float64 array.

    Enforces the tensor invariants: every dimension >= 1 and every entry
    finite. ``ndim``, when given, additionally pins the expected rank.
    """
    arr = np.ascontiguousarray(values, dtype=np.float64)
    check_shape(arr, ndim)
    if not np.isfinite(arr).all():
        raise DegenerateInputError("array contains NaN or Inf")
    return arr


def round_half_up(x: float) -> int:
    """Round to the nearest integer with halves going up.

    A 1e-9 epsilon guards against float dust in retention * count
    products (0.35 * 10 is slightly below 3.5 in binary floats).
    """
    return int(math.floor(x + 0.5 + 1e-9))


def softmax_rows(logits) -> np.ndarray:
    """Row-wise softmax of a 2-D array with per-row max subtraction."""
    arr = as_tensor(logits, ndim=2)
    shifted = arr - arr.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=1, keepdims=True)


def top_k_indices(scores, k: int) -> list[int]:
    """Indices of the k largest scores, ascending, ties to the lower index."""
    arr = as_tensor(scores, ndim=1)
    n = arr.shape[0]
    if not 0 <= k <= n:
        raise BudgetError(f"k={k} outside [0, {n}]")
    if k == 0:
        return []
    # stable argsort on negated scores keeps the lower index first on ties
    order = np.argsort(-arr, kind="stable")[:k]
    return sorted(int(i) for i in order)


def cosine_similarity(a, b) -> float:
    """Cosine of the angle between two vectors, clamped to [-1, 1]."""
    va = as_tensor(a, ndim=1)
    vb = as_tensor(b, ndim=1)
    if va.shape != vb.shape:
        raise ShapeError(f"vector lengths differ: {va.shape[0]} vs {vb.shape[0]}")
    rows = np.stack([va, vb])
    peaks = row_peaks(rows)
    if not peaks.all():
        raise DegenerateInputError("cosine similarity undefined for zero-norm vector")
    # a cosine ignores scale: scaled exactly, even vectors whose squares are
    # subnormal keep every bit of their angle
    ua, ub = unit_rows(_unit_peaks(rows, peaks))
    return float(np.clip(ua @ ub, -1.0, 1.0))


def row_peaks(arr: np.ndarray) -> np.ndarray:
    """Largest magnitude in each row of a 2-D float64 array; raises as
    ``as_tensor`` does when an entry is NaN or Inf."""
    peaks = np.maximum(arr.max(axis=1), -arr.min(axis=1))
    if not np.isfinite(peaks).all():
        raise DegenerateInputError("array contains NaN or Inf")
    return peaks


def _unit_peaks(rows: np.ndarray, peaks: np.ndarray) -> np.ndarray:
    """``rows`` times the powers of two that bring their peaks into [0.5, 1)."""
    return np.ldexp(rows, -np.frexp(peaks)[1][:, None])


def unit_rows(rows: np.ndarray) -> np.ndarray:
    """Divide the rows of a C-order float64 array, none all zero, by their
    L2 norms, in place; returns ``rows``. A row whose peak's square is
    subnormal (peak below 2**-511), or whose plain norm overflows, is first
    put through ``_unit_peaks``; every other row keeps its plain norm's
    rounding, which the generator's bytes are pinned to. Each row's result
    depends on that row alone, not on the others in ``rows``."""
    # norms of blocks of rows: the same values, without a buffer of squares
    # as large as ``rows``
    with np.errstate(over="ignore"):  # an overflowed norm is redone below
        norms = np.concatenate([np.linalg.norm(rows[i:i + 128], axis=1, keepdims=True)
                                for i in range(0, len(rows), 128)])
    peaks = row_peaks(rows)
    lost = (norms.ravel() == np.inf) | (peaks < 2.0**-511)
    if lost.any():
        rows[lost] = _unit_peaks(rows[lost], peaks[lost])
        norms[lost] = np.linalg.norm(rows[lost], axis=1, keepdims=True)
    rows /= norms
    return rows
