"""Analyst-side debiasing of randomized-response counts.

The debias maps are affine corrections that turn raw response counts C into
unbiased estimates of the true histograms. Bins may go negative; downstream
thresholds are calibrated for the unbiased estimator, so nothing is clamped.
Sum identities hold exactly by algebra: quad and sign bins sum to the
subgroup size k, paired bins to 2k.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


class MalformedInputError(ValueError):
    """Input no run can produce: malformed reports, counts or transcripts."""


def _debias(eps: float, k: int, counts: Sequence[float], outputs: int) -> np.ndarray:
    """H_hat(a) = (e^eps+d-1)/(e^eps-1) * (C(a) - k/(e^eps+d-1)), d = outputs,
    over the trailing axis: one histogram, or one per row of a matrix.

    Written with w = e^-eps to stay finite as eps grows large (the factors
    reduce to 1 and 0 in the no-randomization limit)."""
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    counts = np.asarray(counts, dtype=np.float64)
    if counts.shape[-1:] != (outputs,):
        raise MalformedInputError(f"expected {outputs} counts, got shape {counts.shape}")
    w = math.exp(-eps)
    spread = (outputs - 1) * w
    return (1.0 + spread) / (1.0 - w) * (counts - k * (w / (1.0 + spread)))


def debias_quad_counts(eps: float, k: int, counts: Sequence[float]) -> np.ndarray:
    """Debiased counts over {0,1,2,3}; they sum to k (per row of a matrix)."""
    return _debias(eps, k, counts, 4)


def debias_sign_counts(eps: float, k: int, counts: Sequence[float]) -> np.ndarray:
    """Debiased counts as [H(-1), H(+1)]; they sum to k."""
    return _debias(eps, k, counts, 2)


def pair_adjacent_bins(quad_bins: np.ndarray) -> np.ndarray:
    """bins[a] + bins[(a+1) mod 4] for each a, over the trailing axis."""
    b = np.asarray(quad_bins, dtype=np.float64)
    return b + np.roll(b, -1, axis=-1)


def quad_counts_from_values(values: np.ndarray) -> np.ndarray:
    """Counts over {0,1,2,3} of a vector of values; of a matrix of values,
    one row of counts per row."""
    v = np.asarray(values, dtype=np.int64)
    if v.size and not 0 <= v.min() <= v.max() <= 3:
        raise MalformedInputError("quad values must lie in {0,1,2,3}")
    if v.ndim == 1:
        return np.bincount(v, minlength=4).astype(np.float64)
    rows = v.shape[0]
    cells = v + 4 * np.arange(rows)[:, None]
    return np.bincount(cells.ravel(), minlength=4 * rows).reshape(rows, 4).astype(np.float64)


def sign_counts_from_values(values: np.ndarray) -> np.ndarray:
    """Counts as [count(-1), count(+1)]."""
    v = np.asarray(values, dtype=np.int64)
    plus = int(np.count_nonzero(v == 1))
    return np.array([v.shape[0] - plus, plus], dtype=np.float64)
