"""Analyst-side debiasing of randomized-response counts.

The debias maps are affine corrections that turn raw response counts C into
unbiased estimates of the true histograms. Bins may go negative; downstream
thresholds are calibrated for the unbiased estimator, so nothing is clamped.
Sum identities hold exactly by algebra: quad and sign bins sum to the
subgroup size k, paired bins to 2k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class MalformedInputError(ValueError):
    """Input no run can produce: malformed reports, counts or transcripts."""


@dataclass(frozen=True)
class QuadHistogram:
    """Debiased counts over {0,1,2,3} for one level; bins sum to k."""

    level_j: int
    bins: np.ndarray
    k: int

    def max_bin(self) -> float:
        return float(np.max(self.bins))

    def argmax_bin(self) -> int:
        return int(np.argmax(self.bins))


@dataclass(frozen=True)
class PairedHistogram:
    """Adjacent-pair sums of a quad histogram; bins sum to 2k."""

    level_j: int
    bins: np.ndarray
    k: int

    def min_bin(self) -> float:
        return float(np.min(self.bins))


@dataclass(frozen=True)
class SignHistogram:
    """Debiased counts over {-1,+1}, stored as [H(-1), H(+1)]; sums to k."""

    bins: np.ndarray
    k: int

    @property
    def minus(self) -> float:
        return float(self.bins[0])

    @property
    def plus(self) -> float:
        return float(self.bins[1])


def _quad_debias_factors(eps: float) -> tuple:
    # (e^eps + 3)/(e^eps - 1) and 1/(e^eps + 3), written to stay finite as
    # eps grows large (both reduce to 1 and 0 in the no-randomization limit).
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    w = math.exp(-eps)
    return (1.0 + 3.0 * w) / (1.0 - w), w / (1.0 + 3.0 * w)


def _sign_debias_factors(eps: float) -> tuple:
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    w = math.exp(-eps)
    return (1.0 + w) / (1.0 - w), w / (1.0 + w)


def debias_quad_counts(eps: float, k: int, counts: Sequence[float]) -> np.ndarray:
    """H_hat(a) = (e^eps+3)/(e^eps-1) * (C(a) - k/(e^eps+3)) for a in 0..3."""
    scale, offset = _quad_debias_factors(eps)
    counts = np.asarray(counts, dtype=np.float64)
    if counts.shape != (4,):
        raise MalformedInputError(f"expected 4 quad counts, got shape {counts.shape}")
    return scale * (counts - k * offset)


def debias_sign_counts(eps: float, k: int, counts: Sequence[float]) -> np.ndarray:
    """H_hat(a) = (e^eps+1)/(e^eps-1) * (C(a) - k/(e^eps+1)), a in (-1,+1)."""
    scale, offset = _sign_debias_factors(eps)
    counts = np.asarray(counts, dtype=np.float64)
    if counts.shape != (2,):
        raise MalformedInputError(f"expected 2 sign counts, got shape {counts.shape}")
    return scale * (counts - k * offset)


def pair_adjacent_bins(quad_bins: np.ndarray) -> np.ndarray:
    """bins[a] + bins[(a+1) mod 4] for each a."""
    b = np.asarray(quad_bins, dtype=np.float64)
    return b + np.roll(b, -1)


def quad_counts_from_values(values: np.ndarray) -> np.ndarray:
    return np.bincount(np.asarray(values, dtype=np.int64), minlength=4).astype(np.float64)


def sign_counts_from_values(values: np.ndarray) -> np.ndarray:
    """Counts as [count(-1), count(+1)]."""
    v = np.asarray(values, dtype=np.int64)
    plus = int(np.count_nonzero(v == 1))
    return np.array([v.shape[0] - plus, plus], dtype=np.float64)
