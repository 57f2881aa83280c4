"""User-side local randomizers.

Each kernel privatizes many users at once: one private sample plus public
parameters and the user's own uniform draws give exactly one report per
user. The parameters that differ between subgroups (the level, the lattice
offset and spacing, the noise numerator) may be scalars or arrays with one
entry per user, and broadcast elementwise, so one call can span users of
many subgroups and give each the bits of a call for their subgroup alone.
The kernels are the only code that reads raw samples, and the one
implementation of user-side randomization. Every randomizer satisfies a
pure epsilon local-privacy bound. The exact audits in `harness` certify it
by calling these kernels through `protocols.privatize`, as runs do, with the
draw that keeps the true report or adds zero noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ldpgauss.numerics import floor_div_mod4_array, laplace_from_uniform


@dataclass(frozen=True)
class LatticeSpec:
    """Arithmetic progression {offset + b * spacing : b integer}. For
    `nearest_points`, offset and spacing may also be per-user arrays."""

    offset: float
    spacing: float

    def __post_init__(self):
        positive = self.spacing > 0.0
        if not (positive.all() if isinstance(positive, np.ndarray) else positive):
            raise ValueError(f"lattice spacing must be positive, got {self.spacing}")

    def nearest_points(self, xs: np.ndarray) -> np.ndarray:
        """Closest lattice point to each x; exact midpoints go to the lower
        point."""
        b = np.ceil((np.asarray(xs, dtype=np.float64) - self.offset) / self.spacing - 0.5)
        return self.offset + b * self.spacing


def _require_positive_eps(eps: float) -> None:
    if not eps > 0.0:
        raise ValueError(f"privacy budget eps must be positive, got {eps}")


def quad_keep_prob(eps: float) -> float:
    """Probability of reporting the true quad value: e^eps / (e^eps + 3)."""
    _require_positive_eps(eps)
    return 1.0 / (1.0 + 3.0 * math.exp(-eps))


def sign_keep_prob(eps: float) -> float:
    """Probability of reporting the true sign: e^eps / (e^eps + 1)."""
    _require_positive_eps(eps)
    return 1.0 / (1.0 + math.exp(-eps))


def sign_with_positive_zero(values: np.ndarray) -> np.ndarray:
    """Sign in {-1,+1} with sign(0) defined as +1."""
    return np.where(np.asarray(values) >= 0.0, 1, -1).astype(np.int64)


# ---------------------------------------------------------------------------
# Vectorized kernels.

def rr1_values(eps, xs, level_j, u_keep, u_alt):
    """Four-way randomized response on floor(x / 2^level_j) mod 4."""
    p = quad_keep_prob(eps)
    truth = floor_div_mod4_array(xs, level_j)
    # truth + 1 + a lies in [1, 6], so its low two bits are its value mod 4
    alt = (truth + 1 + (np.asarray(u_alt) * 3.0).astype(np.int64)) & 3
    return np.where(np.asarray(u_keep) <= p, truth, alt)


def sign_rr_values(eps, xs, centers, sigma, u_keep):
    """Two-way randomized response on the sign of (x - center) / sigma, with
    sign(0) = +1."""
    p = sign_keep_prob(eps)
    signs = sign_with_positive_zero((np.asarray(xs, dtype=np.float64) - centers) / sigma)
    return np.where(np.asarray(u_keep) <= p, signs, -signs)


def uv_rr2_values(eps, xs, interval_lo, interval_hi, u_noise):
    """Clamp to the interval, then add Laplace((hi - lo)/eps) noise."""
    if not interval_lo < interval_hi:
        raise ValueError(f"empty interval [{interval_lo}, {interval_hi}]")
    _require_positive_eps(eps)
    clamped = np.clip(np.asarray(xs, dtype=np.float64), interval_lo, interval_hi)
    return clamped + laplace_from_uniform(np.asarray(u_noise), (interval_hi - interval_lo) / eps)


def one_round_uv_rr2_values(eps, xs, lattice: LatticeSpec, noise_scale_numerator, u_noise):
    """Residual to the nearest lattice point plus Laplace(numerator/eps) noise."""
    _require_positive_eps(eps)
    residual = np.asarray(xs, dtype=np.float64) - lattice.nearest_points(xs)
    return residual + laplace_from_uniform(np.asarray(u_noise), noise_scale_numerator / eps)
