"""Independent oracles and scalar reference operations shared by the tests.

The oracles compute by a different route than the code under test: Gaussian
cell masses come straight from the CDF, nearest points and subgroup winners
from bounded brute-force scans.

The scalar stream below draws one uniform at a time; it is the reference
for the library's one way to draw, `uniform_block`, which must give the
same bits for many users at once. The whole-array draw and population
sample beside it are the reference for the library's pieces of BLOCK
users. The closed-form output laws of one input at a time (the discrete
laws, the scalar nearest lattice point and the noise-adding randomizers'
log-densities) are the reference for the privacy audit, which calls the
kernels on whole grids.

The scalar operations handle one user at a time, drawing from that user's
RandomStream in a fixed order, and aggregate lists of per-user reports. The
library privatizes users only through its vectorized kernels; these compose
the same kernels user by user, so the tests can check the engine's block
draws and counts report by report.

The transcript writers at the bottom serialize one JSON object per line
with json.dumps, or join each message block's lines from a template of
strings; the library fills byte matrices a run of blocks at a time and must
write the same bytes as both. The reference run beside it emits block by
block, one draw and one kernel call per block; the library privatizes runs
of blocks in chunks and must record the same transcript.
"""

import json
import math
from dataclasses import dataclass
from typing import Dict, Iterable, Optional

import numpy as np

from ldpgauss.aggregation import (
    MalformedInputError,
    debias_quad_counts,
    debias_sign_counts,
    pair_adjacent_bins,
    quad_counts_from_values,
    sign_counts_from_values,
)
from ldpgauss.analyst import LevelPlan
from ldpgauss.numerics import (
    TrialStreams,
    gaussian_from_uniforms,
    hash_u64,
    laplace_from_uniform,
    mix64,
)
from ldpgauss.protocols import Transcript, _analyze, plan_partition
from ldpgauss.randomizers import (
    LatticeSpec,
    one_round_uv_rr2_values,
    quad_keep_prob,
    rr1_values,
    sign_keep_prob,
    sign_rr_values,
    uv_rr2_values,
)


def normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def gaussian_quad_probs(mu: float, sigma: float, j: int) -> np.ndarray:
    """P(floor(x / 2^j) = a mod 4) for a in 0..3, x ~ N(mu, sigma^2).

    Sums CDF increments over every width-2^j cell within mu +- 12 sigma.
    """
    width = 2.0 ** j
    lo_cell = math.floor((mu - 12.0 * sigma) / width) - 1
    hi_cell = math.floor((mu + 12.0 * sigma) / width) + 1
    probs = np.zeros(4)
    for cell in range(lo_cell, hi_cell + 1):
        mass = normal_cdf(((cell + 1) * width - mu) / sigma) - normal_cdf((cell * width - mu) / sigma)
        probs[cell % 4] += mass
    return probs


def noiseless_quad_hists(mu: float, sigma: float, plan: LevelPlan) -> dict:
    """Expected (randomization-free) debiased histograms scaled to k."""
    return {j: plan.k * gaussian_quad_probs(mu, sigma, j) for j in plan.levels}


def noiseless_paired_hists(mu: float, sigma: float, plan: LevelPlan) -> dict:
    return {j: pair_adjacent_bins(plan.k * gaussian_quad_probs(mu, sigma, j)) for j in plan.levels}


def lattice_sign_plus_prob(mu: float, offset: float, spacing: float, sigma: float,
                           eps: float, b_window: int = 80) -> float:
    """Probability that a one-round user reports +1: the true sign is +1 when x
    lies in the upper half [c, c + spacing/2] of its lattice cell, and the
    report keeps it with probability e^eps / (e^eps + 1)."""
    b0 = round((mu - offset) / spacing)
    upper_half = 0.0
    for b in range(b0 - b_window, b0 + b_window + 1):
        c = offset + b * spacing
        upper_half += normal_cdf((c + 0.5 * spacing - mu) / sigma) - normal_cdf((c - mu) / sigma)
    keep = 1.0 if math.isinf(eps) else math.exp(eps) / (math.exp(eps) + 1.0)
    return (1.0 - keep) + (2.0 * keep - 1.0) * upper_half


def brute_force_subgroup_kv(mu_hat1: float, offsets: dict, spacing: float, b_window: int = 80):
    """Scan all (subgroup, lattice index) pairs; ties to the smaller key then
    the lower point."""
    best = None
    for key in sorted(offsets):
        offset = offsets[key]
        b0 = int(round((mu_hat1 - offset) / spacing))
        for b in range(b0 - b_window, b0 + b_window + 1):
            point = offset + b * spacing
            dist = abs(point - mu_hat1)
            if best is None or dist < best[0] - 1e-12:
                best = (dist, key, point)
            elif abs(dist - best[0]) <= 1e-12 and key == best[1] and point < best[2]:
                best = (dist, key, point)
    return best[1], best[2]


def brute_force_subgroup_uv(sigma_hat: float, mu_hat1: float, rho: int, b_window: int = 80):
    j1 = int(math.log2(sigma_hat))
    offsets = {m: m * 2.0 ** j1 for m in range(1, rho + 1)}
    m_star, point = brute_force_subgroup_kv(mu_hat1, offsets, rho * 2.0 ** j1, b_window)
    return j1, m_star, point


# ---------------------------------------------------------------------------
# Scalar streams and samplers.

def derive_stream_id(trial_index: int, user_index: int) -> int:
    """Stream id for one user in one trial (documented 64-bit mixing)."""
    return hash_u64(trial_index, user_index)


class RandomStream:
    """One deterministic uniform stream keyed by (master_seed, stream_id).

    Draw t is hash_u64(master_seed, stream_id, t) mapped into (0, 1); the
    instance just tracks the next counter value.
    """

    __slots__ = ("master_seed", "stream_id", "position")

    def __init__(self, master_seed: int, stream_id: int, position: int = 0):
        self.master_seed = master_seed
        self.stream_id = stream_id
        self.position = position

    def next_uniform(self) -> float:
        h = hash_u64(self.master_seed, self.stream_id, self.position)
        self.position += 1
        return float(((h >> 11) + 0.5) * 2.0 ** -53)


def stream(streams: TrialStreams, user_index: int) -> RandomStream:
    """One user's stream in the trial `streams` draws for."""
    return RandomStream(streams.master_seed, derive_stream_id(streams.trial_index, user_index))


def uniforms(stream: RandomStream, count: int) -> np.ndarray:
    return np.array([stream.next_uniform() for _ in range(count)])


def _mix64_array(z: np.ndarray) -> np.ndarray:
    z = z.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def uniform_block_unchunked(master_seed, trial_index, user_indices, first, count):
    """`uniform_block` as whole-array expressions: every user at once, one
    fresh array per mix step. The library hashes users in pieces and must
    give these bits."""
    idx = np.asarray(user_indices, dtype=np.uint64)
    sid = _mix64_array(np.uint64(hash_u64(trial_index)) ^ idx)
    h0 = np.uint64(mix64(0x9E3779B97F4A7C15 ^ (master_seed & ((1 << 64) - 1))))
    base = _mix64_array(h0 ^ sid)
    out = np.empty((idx.shape[0], count), dtype=np.float64)
    for t in range(count):
        h = _mix64_array(base ^ np.uint64(first + t))
        out[:, t] = ((h >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
    return out


def sample_population_unchunked(truth, n: int, streams: TrialStreams) -> np.ndarray:
    """`sample_population` with one Box-Muller over the whole population."""
    draws = uniform_block_unchunked(streams.master_seed, streams.trial_index, np.arange(n), 0, 2)
    return gaussian_from_uniforms(draws[:, 0], draws[:, 1], truth.mu, truth.sigma)


def sample_gaussian(stream: RandomStream, mu: float, sigma: float) -> float:
    """One N(mu, sigma^2) draw; consumes exactly two uniforms."""
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    u1 = stream.next_uniform()
    u2 = stream.next_uniform()
    return float(gaussian_from_uniforms(np.float64(u1), np.float64(u2), mu, sigma))


def sample_laplace(stream: RandomStream, scale: float) -> float:
    """One Laplace(scale) draw; consumes exactly one uniform."""
    if not scale > 0.0:
        raise ValueError(f"scale must be positive, got {scale}")
    return float(laplace_from_uniform(np.float64(stream.next_uniform()), scale))


# ---------------------------------------------------------------------------
# Closed-form output laws of the randomizers, one input at a time.

def nearest_point(lattice: LatticeSpec, x: float) -> float:
    """Closest lattice point to x; exact midpoints go to the lower point."""
    b = math.ceil((x - lattice.offset) / lattice.spacing - 0.5)
    return lattice.offset + b * lattice.spacing


def floor_div_mod4(x: float, j: int) -> int:
    """Euclidean (always in {0,1,2,3}) value of floor(x / 2^j) mod 4."""
    return int(math.floor(x / (2.0 ** j)) % 4.0)


def rr1_distribution(eps: float, x: float, level_j: int) -> np.ndarray:
    """Exact output probabilities of rr1 over {0,1,2,3} for input x."""
    p = quad_keep_prob(eps)
    truth = floor_div_mod4(x, level_j)
    dist = np.full(4, (1.0 - p) / 3.0)
    dist[truth] = p
    return dist


def sign_rr_distribution(eps: float, true_sign: int) -> np.ndarray:
    """Exact output probabilities over (-1, +1), indexed as [P(-1), P(+1)]."""
    p = sign_keep_prob(eps)
    if true_sign >= 0:
        return np.array([1.0 - p, p])
    return np.array([p, 1.0 - p])


def discrete_audit_ratio(eps: float, kind: str, params: tuple, broadcast, sigma, input_grid) -> float:
    """max over inputs x, x' and outputs a of P[a|x] / P[a|x'] for the users
    of a quad or sign block, from the closed-form laws of one input at a time
    (0/0 counts as 1)."""
    dists = []
    for x in input_grid:
        if kind == "quad":
            dists.append(rr1_distribution(eps, x, params[0]))
            continue
        if params:
            center = nearest_point(LatticeSpec(*params), x)
        else:
            center = broadcast["mu_hat1"]
        dists.append(sign_rr_distribution(eps, 1 if (x - center) / sigma >= 0.0 else -1))
    stacked = np.stack(dists)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = stacked[:, None, :] / stacked[None, :, :]
    ratios[(stacked[:, None, :] == 0.0) & (stacked[None, :, :] == 0.0)] = 1.0
    return float(np.max(ratios))


def uv_rr2_log_density(eps: float, interval_lo: float, interval_hi: float, x: float, y: float) -> float:
    """Log-density of uv_rr2's output at y given input x."""
    scale = (interval_hi - interval_lo) / eps
    center = min(max(x, interval_lo), interval_hi)
    return -abs(y - center) / scale - math.log(2.0 * scale)


def one_round_uv_rr2_log_density(
    eps: float, lattice: LatticeSpec, noise_scale_numerator: float, x: float, y: float
) -> float:
    """Log-density of one_round_uv_rr2's output at y given input x."""
    scale = noise_scale_numerator / eps
    residual = x - nearest_point(lattice, x)
    return -abs(y - residual) / scale - math.log(2.0 * scale)


# ---------------------------------------------------------------------------
# Per-user randomizers (one report each; draws come from the user's stream).

@dataclass(frozen=True)
class QuadReport:
    """Randomized response over {0,1,2,3} for one user at one level."""

    user_id: int
    level_j: int
    value: int


@dataclass(frozen=True)
class SignReport:
    """Randomized response over {-1,+1} for one user."""

    user_id: int
    value: int
    subgroup: Optional[int] = None


@dataclass(frozen=True)
class RealReport:
    """Noised real-valued report for one user."""

    user_id: int
    value: float
    subgroup: Optional[tuple] = None


def rr1(stream: RandomStream, eps: float, x: float, level_j: int, user_id: int = 0) -> QuadReport:
    """Privatize one sample's quad digit at the given level.

    Reports floor(x / 2^level_j) mod 4 with probability e^eps/(e^eps+3),
    otherwise one of the other three values uniformly. Consumes two uniforms.
    """
    u_keep = stream.next_uniform()
    u_alt = stream.next_uniform()
    value = int(rr1_values(eps, np.array([x]), level_j, np.array([u_keep]), np.array([u_alt]))[0])
    return QuadReport(user_id=user_id, level_j=level_j, value=value)


def kv_rr2(
    stream: RandomStream, eps: float, x: float, mu_hat1: float, sigma: float, user_id: int = 0
) -> SignReport:
    """Privatize the sign of the standardized residual (x - mu_hat1)/sigma.

    The true sign (with sign(0) = +1) is kept with probability
    e^eps/(e^eps+1) and negated otherwise. Consumes one uniform.
    """
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    u_keep = stream.next_uniform()
    value = int(sign_rr_values(eps, np.array([x]), mu_hat1, sigma, np.array([u_keep]))[0])
    return SignReport(user_id=user_id, value=value)


def one_round_kv_rr2(
    stream: RandomStream,
    eps: float,
    x: float,
    lattice: LatticeSpec,
    sigma: float,
    user_id: int = 0,
    subgroup: Optional[int] = None,
) -> SignReport:
    """Like kv_rr2 but centered at the nearest point of the subgroup lattice."""
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    u_keep = stream.next_uniform()
    center = nearest_point(lattice, x)
    value = int(sign_rr_values(eps, np.array([x]), center, sigma, np.array([u_keep]))[0])
    return SignReport(user_id=user_id, value=value, subgroup=subgroup)


def uv_rr2(
    stream: RandomStream,
    eps: float,
    x: float,
    interval_lo: float,
    interval_hi: float,
    user_id: int = 0,
) -> RealReport:
    """Clamp the sample to the public interval and add calibrated Laplace noise.

    Noise scale is (hi - lo)/eps, the sensitivity of the clamped value over
    the budget. Consumes one uniform.
    """
    u_noise = stream.next_uniform()
    value = float(uv_rr2_values(eps, np.array([x]), interval_lo, interval_hi, np.array([u_noise]))[0])
    return RealReport(user_id=user_id, value=value)


def one_round_uv_rr2(
    stream: RandomStream,
    eps: float,
    x: float,
    lattice: LatticeSpec,
    noise_scale_numerator: float,
    user_id: int = 0,
    subgroup: Optional[tuple] = None,
) -> RealReport:
    """Report the residual to the nearest lattice point plus Laplace noise.

    The pre-noise residual always lies in [-spacing/2, spacing/2]; the noise
    scale numerator (twice the lattice spacing) is supplied by the protocol
    layer. Consumes one uniform.
    """
    u_noise = stream.next_uniform()
    value = float(
        one_round_uv_rr2_values(eps, np.array([x]), lattice, noise_scale_numerator, np.array([u_noise]))[0]
    )
    return RealReport(user_id=user_id, value=value, subgroup=subgroup)


# ---------------------------------------------------------------------------
# Aggregation of per-user report lists.

def _group_quad_reports(
    k: int, levels: Iterable[int], reports: Iterable[QuadReport]
) -> Dict[int, np.ndarray]:
    levels = list(levels)
    per_level = {j: [] for j in levels}
    for rep in reports:
        if rep.level_j not in per_level:
            raise MalformedInputError(f"report for unknown level {rep.level_j}")
        per_level[rep.level_j].append(rep.value)
    counts = {}
    for j in levels:
        vals = per_level[j]
        if len(vals) != k:
            raise MalformedInputError(
                f"level {j} has {len(vals)} reports, expected exactly {k}"
            )
        counts[j] = quad_counts_from_values(np.array(vals, dtype=np.int64))
    return counts


def kv_agg1(
    eps: float, k: int, levels: Iterable[int], reports: Iterable[QuadReport]
) -> Dict[int, np.ndarray]:
    """Debias per-level quad counts into unbiased histogram estimates."""
    counts = _group_quad_reports(k, levels, reports)
    return {j: debias_quad_counts(eps, k, c) for j, c in counts.items()}


def agg1(
    eps: float, k: int, levels: Iterable[int], reports: Iterable[QuadReport]
) -> Dict[int, np.ndarray]:
    """Debias quad counts, then sum adjacent bins (wrapping mod 4)."""
    counts = _group_quad_reports(k, levels, reports)
    return {j: pair_adjacent_bins(debias_quad_counts(eps, k, c)) for j, c in counts.items()}


def kv_agg2(eps: float, k: int, reports: Iterable[SignReport]) -> np.ndarray:
    """Debias sign counts into an unbiased histogram [H(-1), H(+1)]."""
    values = [rep.value for rep in reports]
    if len(values) != k:
        raise MalformedInputError(f"got {len(values)} sign reports, expected exactly {k}")
    counts = sign_counts_from_values(np.array(values, dtype=np.int64))
    return debias_sign_counts(eps, k, counts)


# ---------------------------------------------------------------------------
# Reference transcript writers: one json.dumps call per line, or a template
# per message block.

def iter_lines(transcript):
    for item in transcript._items:
        if item[0] == "broadcast":
            yield {"round": item[1], "broadcast": item[2]}
        else:
            _, round_no, subgroup, kind, users, values = item
            cast = int if kind in ("quad", "sign") else float
            for u, v in zip(users.tolist(), values.tolist()):
                yield {
                    "round": round_no,
                    "user": int(u),
                    "subgroup": subgroup,
                    "kind": kind,
                    "value": cast(v),
                }
    if transcript.outcome is not None:
        yield {"outcome": transcript.outcome.as_dict()}


def reference_dumps(transcript) -> str:
    return "".join(
        json.dumps(line, separators=(",", ":")) + "\n" for line in iter_lines(transcript)
    )


def _spell_ints(array):
    values = array.tolist()
    return list(map(str, values if array.dtype.kind in "iu" else map(int, values)))


def _spell_floats(array):
    array = array.astype(np.float64, copy=False)
    spelled = list(map(repr, array.tolist()))
    for i in np.flatnonzero(~np.isfinite(array)).tolist():
        spelled[i] = json.dumps(float(array[i]))  # NaN, Infinity, -Infinity
    return spelled


def template_dumps(transcript) -> str:
    """Each message block's lines joined from the template
    [head, user, middle, value, "}\n"], integers spelled by str (of int()
    for other dtypes) and floats by repr."""
    pieces = []
    for item in transcript._items:
        if item[0] == "broadcast":
            pieces.append(json.dumps({"round": item[1], "broadcast": item[2]}, separators=(",", ":")) + "\n")
            continue
        _, round_no, subgroup, kind, users, values = item
        head = '{"round":' + json.dumps(round_no) + ',"user":'
        middle = f',"subgroup":{json.dumps(subgroup)},"kind":{json.dumps(kind)},"value":'
        lines = [head, None, middle, None, "}\n"] * users.shape[0]
        lines[1::5] = _spell_ints(users)
        lines[3::5] = (_spell_ints if kind in ("quad", "sign") else _spell_floats)(values)
        pieces.append("".join(lines))
    if transcript.outcome is not None:
        pieces.append(json.dumps({"outcome": transcript.outcome.as_dict()}, separators=(",", ":")) + "\n")
    return "".join(pieces)


# ---------------------------------------------------------------------------
# Reference run: one streams.matrix call and one kernel call per block.

def reference_run(protocol, config, samples, streams):
    plan = plan_partition(config, protocol)
    samples = np.asarray(samples, dtype=np.float64)
    transcript = Transcript(protocol, config.n)

    def emit(round_no, broadcast=None):
        for block in plan.blocks:
            if block.round != round_no:
                continue
            if block.kind == "broadcast":
                transcript.add_broadcast(round_no, broadcast)
                continue
            idx = np.arange(block.start, block.start + block.count)
            x = samples[idx]
            draws = streams.matrix(idx, first=2, count=2 if block.kind == "quad" else 1)
            if block.kind == "quad":
                values = rr1_values(plan.eps, x, block.key, draws[:, 0], draws[:, 1])
            elif block.kind == "sign":
                if block.key is None:  # kv2's round two, centered on the broadcast
                    centers = broadcast["mu_hat1"]
                else:
                    lattice = LatticeSpec(0.2 * plan.sigma * block.key, plan.rho * plan.sigma)
                    centers = lattice.nearest_points(x)
                values = sign_rr_values(plan.eps, x, centers, plan.sigma, draws[:, 0])
            elif block.key is None:  # uv2's round two, clamped to the broadcast
                lo, hi = broadcast["interval_lo"], broadcast["interval_hi"]
                values = uv_rr2_values(plan.eps, x, lo, hi, draws[:, 0])
            else:
                level, m = block.key
                lattice = LatticeSpec(m * 2.0 ** level, plan.rho * 2.0 ** level)
                numerator = 2.0 * plan.rho * 2.0 ** level
                values = one_round_uv_rr2_values(plan.eps, x, lattice, numerator, draws[:, 0])
            transcript.add_messages(round_no, block.tag, block.kind, idx, values)

    emit(1)
    outcome = _analyze(plan, transcript, lambda broadcast: emit(2, broadcast))
    transcript.outcome = outcome
    return outcome, transcript
