"""Analyst-side estimation from debiased histograms and privatized reports.

Nothing in this module sees raw samples: inputs are debiased histograms,
sign tallies, and public plan parameters. The replay machinery in the
protocols module re-runs these functions from a transcript alone, which is
the executable proof of that boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Sequence, Tuple

import numpy as np

from ldpgauss.aggregation import MalformedInputError
from ldpgauss.numerics import erf_inv
from ldpgauss.randomizers import LatticeSpec, sign_keep_prob

# Lattice cells farther than this many sigma from the mean carry under 1e-23
# of the Gaussian mass and are left out of the half-cell sums.
_CELL_REACH = 10.0
# Modelled report probabilities stay in [margin, 1 - margin], so the pooled
# log-likelihood is finite even without randomization (eps = inf).
_Q_MARGIN = 2.0 ** -40
_POOLED_MAX_STEPS = 100


@dataclass(frozen=True)
class LevelPlan:
    """Contiguous level range with the subgroup size and budgets behind it."""

    l_min: int
    l_max: int
    k: int
    beta: float
    eps: float

    def __post_init__(self):
        if self.l_max < self.l_min:
            raise ValueError(f"empty level range [{self.l_min}, {self.l_max}]")
        if self.k < 1:
            raise ValueError(f"subgroup size must be at least 1, got {self.k}")

    @property
    def levels(self) -> range:
        return range(self.l_min, self.l_max + 1)

    @property
    def count(self) -> int:
        return self.l_max - self.l_min + 1


def mean_search_threshold(eps: float, k: int, level_count: int, beta: float) -> float:
    """Concentration slack psi = ((eps+4)/(eps sqrt 2)) sqrt(k ln(8L/beta)).

    Written as (1 + 4/eps)/sqrt(2) so the no-randomization limit stays finite.
    """
    return ((1.0 + 4.0 / eps) / math.sqrt(2.0)) * math.sqrt(
        k * math.log(8.0 * level_count / beta)
    )


def variance_threshold(eps: float, k: int, level_count: int, beta: float) -> float:
    """Slack tau = sqrt(2k ln(2L/beta)) + (1 + 4/eps) sqrt(2k ln(8L/beta))."""
    return math.sqrt(2.0 * k * math.log(2.0 * level_count / beta)) + (
        1.0 + 4.0 / eps
    ) * math.sqrt(2.0 * k * math.log(8.0 * level_count / beta))


def _require_levels(hists: Mapping[int, object], plan: LevelPlan) -> None:
    missing = [j for j in plan.levels if j not in hists]
    if missing:
        raise MalformedInputError(f"histograms missing for levels {missing}")


def _argmax_pair(bins) -> Tuple[int, int]:
    """Largest and second-largest bin indices; ties go to the smaller index."""
    order = sorted(range(4), key=lambda a: (-bins[a], a))
    return order[0], order[1]


def _residue_match(lo: int, hi: int, residue: int):
    """The unique integer in [lo, hi] congruent to residue mod 4, if any."""
    for c in range(lo, hi + 1):
        if c % 4 == residue:
            return c
    return None


def est_mean(
    beta: float,
    eps: float,
    hists: Dict[int, np.ndarray],
    k: int,
    plan: LevelPlan,
) -> float:
    """Rough mean estimate by modular binary search over the level histograms.

    Starting from the top level with interval [0, 2^l_max], descend while the
    current level's histogram concentrates (max bin at least 0.52k + psi):
    each step keeps the subinterval whose position matches the heaviest
    residue and halves the scale. At the stopping level, the estimate is the
    largest interval point whose residue matches one of the two heaviest
    bins. The heaviest residue is recomputed at every level of the descent.

    If no interval point matches the heaviest residue (three consecutive
    integers cover only three of the four residues), the descent stops there,
    which is the same as declaring the level unconcentrated.
    """
    _require_levels(hists, plan)
    psi = mean_search_threshold(eps, k, plan.count, beta)
    threshold = 0.52 * k + psi

    # Each level's max bin and its first index, read off one matrix whose
    # row j - l_min is level j.
    rows = np.array([hists[j] for j in plan.levels])
    tops, heaviest = rows.max(axis=1).tolist(), rows.argmax(axis=1).tolist()

    # Interval at the current level j, in units of 2^j: [lo, hi] covers
    # [lo * 2^j, hi * 2^j]. The descent stops at l_min at the latest.
    lo, hi = 0, 1
    j = plan.l_max
    while j > plan.l_min and tops[j - plan.l_min] >= threshold:
        c = _residue_match(lo, hi, heaviest[j - plan.l_min])
        if c is None:
            break
        lo, hi = 2 * c, 2 * c + 2
        j -= 1

    m1, m2 = _argmax_pair(hists[j])
    candidates = [c for c in range(lo, hi + 1) if c % 4 in (m1, m2)]
    # Only the top level (two candidate residues) can fail to match; fall
    # back to the interval's upper point to keep the search total.
    c_star = max(candidates) if candidates else hi
    return c_star * 2.0 ** j


def est_var(
    beta: float,
    eps: float,
    hists: Dict[int, np.ndarray],
    k: int,
    plan: LevelPlan,
) -> float:
    """Bracket sigma by the lowest level above which every paired histogram
    is concentrated (minimum bin at most 0.03k + tau).

    Concentration at level j signals that the bin width 2^j dominates the
    data spread. If even the top level fails the test, the top scale is
    returned as the estimate.
    """
    _require_levels(hists, plan)
    threshold = 0.03 * k + variance_threshold(eps, k, plan.count, beta)
    lows = np.array([hists[j] for j in plan.levels]).min(axis=1).tolist()  # level j at j - l_min
    lowest_all_concentrated = plan.l_max
    for j in range(plan.l_max, plan.l_min - 1, -1):
        if lows[j - plan.l_min] <= threshold:
            lowest_all_concentrated = j
        else:
            break
    return 2.0 ** lowest_all_concentrated


def refine_known_sigma(hist: np.ndarray, count: int, center: float, sigma: float) -> float:
    """Refined mean from the skew of the debiased sign histogram
    [H(-1), H(+1)] around a known center.

    Converts the debiased skew into a standardized shift via the inverse
    error function and rescales: center + sigma * sqrt(2) * erf_inv(skew),
    with the argument saturated by the inversion's clamping policy.
    """
    if count <= 0:
        raise MalformedInputError(f"report count must be positive, got {count}")
    skew = float(hist[1] - hist[0]) / count
    return center + sigma * math.sqrt(2.0) * erf_inv(skew)


def _half_cell_mass(mu: float, lattice: LatticeSpec, sigma: float) -> Tuple[float, float, float]:
    """P(x - c in [0, spacing/2]) for x ~ N(mu, sigma^2) and c the lattice point
    nearest x, with its first and second derivatives in mu.

    This is the probability that a one-round user reports a true sign of +1:
    the sum over lattice points c of Phi((c + spacing/2 - mu)/sigma) -
    Phi((c - mu)/sigma). It is periodic in mu with the lattice spacing.
    """
    half = 0.5 * lattice.spacing
    b_lo = math.ceil((mu - _CELL_REACH * sigma - half - lattice.offset) / lattice.spacing)
    b_hi = math.floor((mu + _CELL_REACH * sigma - lattice.offset) / lattice.spacing)
    mass = slope = curve = 0.0
    for b in range(b_lo, b_hi + 1):
        c = lattice.offset + b * lattice.spacing
        z0 = (c - mu) / sigma
        z1 = (c + half - mu) / sigma
        mass += 0.5 * (math.erf(z1 / math.sqrt(2.0)) - math.erf(z0 / math.sqrt(2.0)))
        d0 = math.exp(-0.5 * z0 * z0)
        d1 = math.exp(-0.5 * z1 * z1)
        slope += d0 - d1
        curve += z0 * d0 - z1 * d1
    density = 1.0 / math.sqrt(2.0 * math.pi)
    return mass, density * slope / sigma, density * curve / sigma ** 2


def refine_pooled_kv(
    tallies: Mapping[int, Sequence[float]],
    lattices: Mapping[int, LatticeSpec],
    mu_hat1: float,
    sigma: float,
    eps: float,
) -> float:
    """Joint maximum-likelihood mean from the sign reports of every one-round
    subgroup.

    tallies[m] is [count(-1), count(+1)] of subgroup m's raw reports; its
    users signed x against the nearest point of lattices[m], so the true
    sign is +1 with probability P_m(mu) that x lies in [c, c + S/2] for a
    lattice point c. With keep probability p = e^eps/(e^eps + 1), a report
    is +1 with probability q_m(mu) = (1 - p) + (2p - 1) P_m(mu), and the
    estimate maximizes sum_m count_m(+1) log q_m + count_m(-1) log(1 - q_m).

    Every lattice must share one spacing S, so the likelihood is S-periodic
    and the search stays in the period [mu_hat1 - S/2, mu_hat1 + S/2): take
    the best of the lattice points nearest mu_hat1 (one per subgroup, ties
    to the lower point), then Newton steps on the score, safeguarded by
    bisection, between that point's neighbours. When the score does not
    change sign there, the best lattice point is the estimate. The search
    is a pure function of its inputs, so replay reproduces it bit for bit.
    """
    if set(tallies) != set(lattices):
        raise MalformedInputError("sign tallies and lattices name different subgroups")
    if not lattices:
        raise ValueError("no subgroups to pool")
    spacing = next(iter(lattices.values())).spacing
    if any(lattice.spacing != spacing for lattice in lattices.values()):
        raise ValueError("pooled lattices must share one spacing")
    p = sign_keep_prob(eps)
    gain = (1.0 - 2.0 * _Q_MARGIN) * (2.0 * p - 1.0)
    base = _Q_MARGIN + (1.0 - 2.0 * _Q_MARGIN) * (1.0 - p)
    groups = [(lattices[m], float(tallies[m][0]), float(tallies[m][1])) for m in sorted(lattices)]

    def loglik(mu: float) -> Tuple[float, float, float]:
        value = score = curve = 0.0
        for lattice, minus, plus in groups:
            mass, slope, bend = _half_cell_mass(mu, lattice, sigma)
            q = base + gain * mass
            dq, d2q = gain * slope, gain * bend
            ratio = plus / q - minus / (1.0 - q)
            value += plus * math.log(q) + minus * math.log1p(-q)
            score += ratio * dq
            curve += ratio * d2q - (plus / (q * q) + minus / ((1.0 - q) * (1.0 - q))) * dq * dq
        return value, score, curve

    lo, hi = mu_hat1 - 0.5 * spacing, mu_hat1 + 0.5 * spacing
    grid = sorted(float(lattice.nearest_points(mu_hat1)) for lattice in lattices.values())
    values = [loglik(point)[0] for point in grid]
    best = max(range(len(grid)), key=values.__getitem__)
    left = grid[best - 1] if best > 0 else lo
    right = grid[best + 1] if best + 1 < len(grid) else hi
    # Steps this small sit at the rounding noise of lattice points near mu.
    tol = 2.0 ** -45 * max(abs(mu_hat1), spacing)
    return _safeguarded_newton_max(loglik, grid[best], left, right, tol)


def _safeguarded_newton_max(
    loglik: Callable[[float], Tuple[float, float, float]],
    x: float, left: float, right: float, tol: float,
) -> float:
    """Local maximizer of loglik in [left, right] started from x.

    Keeps a bracket [a, b] with score(a) > 0 > score(b); a Newton step that
    leaves it, or meets nonnegative curvature, is replaced by its midpoint.
    Returns x unchanged when the score does not change sign between x and
    the side it rises towards.
    """
    _, score, curve = loglik(x)
    if score == 0.0:
        return x
    far = right if score > 0.0 else left
    if loglik(far)[1] * score >= 0.0:
        return x
    a, b = (x, far) if score > 0.0 else (far, x)
    for _ in range(_POOLED_MAX_STEPS):
        step = -score / curve if curve < 0.0 else math.inf
        if abs(step) <= tol:
            return x + step
        x = x + step
        if not a < x < b:
            x = 0.5 * (a + b)
        _, score, curve = loglik(x)
        if score > 0.0:
            a = x
        elif score < 0.0:
            b = x
        else:
            return x
        if b - a <= tol:
            return x
    return x


def select_subgroup_kv(
    mu_hat1: float, lattices: Mapping[int, LatticeSpec]
) -> Tuple[int, float]:
    """Pick the subgroup whose lattice comes closest to the rough estimate.

    Returns (subgroup key, nearest lattice point). Distance ties between
    subgroups go to the smaller key; within a lattice, ties go to the lower
    point.
    """
    if not lattices:
        raise ValueError("no candidate subgroups")
    best_key = best_point = None
    best_dist = math.inf
    for key in sorted(lattices):
        point = float(lattices[key].nearest_points(mu_hat1))
        dist = abs(point - mu_hat1)
        if dist < best_dist:
            best_key, best_point, best_dist = key, point, dist
    return best_key, best_point


def select_subgroup_uv(
    sigma_hat: float, mu_hat1: float, plan: LevelPlan, rho: int
) -> Tuple[int, int, float]:
    """Pick the scale level and offset subgroup for the one-round refinement.

    The scale level j1 is log2(sigma_hat), which must land inside the plan's
    level range. Offset subgroups m = 1..rho carry lattices
    {m * 2^j1 + b * rho * 2^j1}; the winner is the one with the point nearest
    mu_hat1 (ties to the smaller m). Returns (j1, m, nearest point); the
    union of the lattices is every multiple of 2^j1, so the nearest point is
    within sigma_hat / 2 of mu_hat1.
    """
    mantissa, exponent = math.frexp(sigma_hat)
    if mantissa != 0.5:
        raise ValueError(f"sigma_hat must be a power of two, got {sigma_hat}")
    j1 = exponent - 1
    if j1 not in plan.levels:
        raise ValueError(f"log2(sigma_hat) = {j1} outside levels [{plan.l_min}, {plan.l_max}]")
    spacing = rho * 2.0 ** j1
    lattices = {m: LatticeSpec(offset=m * 2.0 ** j1, spacing=spacing) for m in range(1, rho + 1)}
    m_star, point = select_subgroup_kv(mu_hat1, lattices)
    return j1, m_star, point
