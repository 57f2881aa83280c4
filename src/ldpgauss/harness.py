"""Monte Carlo experiment runner, privacy auditor, and result persistence.

Privacy audits are analytic, because empirical frequencies cannot certify a
multiplicative e^eps bound. They call the runners' own dispatch,
`protocols.privatize`, with a block's kind, params and broadcast, on a whole
input grid at once and with the draw that keeps the true report or adds zero
noise: a discrete randomizer's output law is that report kept with the keep
probability, and a noise-adding one's is Laplace noise about it.
Statistical checks with standard-error tolerances live in the test suite
instead.

Trials are keyed by (master_seed, cell index, trial index), so results are
independent of execution order and extending the trial count leaves earlier
trials untouched. A cell keeps only its trial rows, as `results.csv` holds
them; its statistics, `summary.csv` and the printout are read off them.
"""

from __future__ import annotations

import csv
import math
import time
import warnings
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ldpgauss.aggregation import MalformedInputError
from ldpgauss.numerics import BLOCK, TrialStreams, gaussian_from_uniforms, hash_u64
from ldpgauss.protocols import (
    RUNNERS,
    BoundedSigma,
    ConfigError,
    KnownSigma,
    ProtocolConfig,
    SimulationTruth,
    plan_partition,
    privatize,
)
from ldpgauss.randomizers import quad_keep_prob, sign_keep_prob

def sample_population(truth: SimulationTruth, n: int, streams: TrialStreams) -> np.ndarray:
    """Draw each user's sample from their own stream (columns 0 and 1).
    Box-Muller runs BLOCK users at a time, so its temporaries stay in cache."""
    draws = streams.matrix(np.arange(n), first=0, count=2)
    samples = np.empty(n)
    for lo in range(0, n, BLOCK):
        part = slice(lo, lo + BLOCK)
        samples[part] = gaussian_from_uniforms(draws[part, 0], draws[part, 1], truth.mu, truth.sigma)
    return samples


def nearest_rank_quantile(sorted_values: np.ndarray, p: float) -> float:
    """Nearest-rank order statistic; no interpolation, byte-stable."""
    n = sorted_values.shape[0]
    rank = max(1, math.ceil(p * n))
    return float(sorted_values[rank - 1])


def error_summary(errors: Sequence[float]) -> Dict[str, float]:
    """Mean plus nearest-rank 50/90/95 percent quantiles."""
    arr = np.asarray(list(errors), dtype=np.float64)
    if arr.size == 0:
        raise MalformedInputError("cannot summarize an empty error list")
    ordered = np.sort(arr)
    return {
        "count": int(arr.size),
        "mean": float(arr.mean()),
        "p50": nearest_rank_quantile(ordered, 0.50),
        "p90": nearest_rank_quantile(ordered, 0.90),
        "p95": nearest_rank_quantile(ordered, 0.95),
    }


def k1_for_levels(n: int, levels, k, k1) -> Optional[int]:
    """The k1 a configuration asks for: the explicit k1 when `levels` is None,
    else floor(n/2 / levels), which fits `levels` levels into the first n/2
    users. `levels` must then be an integer from 1 to n/2, and come without
    an explicit k or k1."""
    if levels is None:
        return k1
    if k is not None or k1 is not None:
        raise ConfigError("levels conflicts with an explicit k/k1")
    if isinstance(levels, bool) or not isinstance(levels, int) or not 1 <= levels <= n // 2:
        raise ConfigError(f"levels must be an integer from 1 to n/2 = {n // 2}, got {levels!r}")
    return (n // 2) // levels


@dataclass(frozen=True)
class ExperimentSpec:
    """A grid of protocol configurations and a trial count per cell.

    Exactly one of the known-variance protocols (kv2, kv1) or the
    bounded-variance ones (uv2, uv1) is selected by `protocol`; the latter
    require sigma_bounds. `levels_target`, when set, sizes the level
    subgroups per cell with `k1_for_levels`, so sweeps keep a fixed level
    count and the error scaling in n stays clean.
    """

    protocol: str
    n_values: Tuple[int, ...]
    eps_values: Tuple[float, ...]
    mu_values: Tuple[float, ...]
    sigma_values: Tuple[float, ...]
    trials: int
    beta: float = 0.05
    master_seed: int = 0
    sigma_bounds: Optional[Tuple[float, float]] = None
    k: Optional[int] = None
    k1: Optional[int] = None
    levels_target: Optional[int] = None

    def __post_init__(self):
        if self.protocol not in RUNNERS:
            raise ConfigError(f"unknown protocol {self.protocol!r}")
        if self.trials < 1:
            raise ConfigError(f"trials must be at least 1, got {self.trials}")
        for name in ("n_values", "eps_values", "mu_values", "sigma_values"):
            if len(getattr(self, name)) == 0:
                raise ConfigError(f"{name} must be nonempty")
        if self.protocol in ("uv2", "uv1") and self.sigma_bounds is None:
            raise ConfigError(f"protocol {self.protocol} needs sigma bounds")
        if self.protocol in ("kv2", "kv1") and self.sigma_bounds is not None:
            raise ConfigError(f"protocol {self.protocol} does not take sigma bounds")
        # the smallest n bounds the level count
        k1_for_levels(min(self.n_values), self.levels_target, self.k, self.k1)

    def cells(self) -> List[Tuple[int, float, float, float]]:
        return [
            (n, eps, mu, sigma)
            for n in self.n_values
            for eps in self.eps_values
            for mu in self.mu_values
            for sigma in self.sigma_values
        ]

    def config_for_cell(self, n: int, eps: float, mu: float, sigma: float) -> ProtocolConfig:
        if self.protocol in ("kv2", "kv1"):
            mode = KnownSigma(sigma)
        else:
            mode = BoundedSigma(*self.sigma_bounds)
        return ProtocolConfig(
            eps=eps, beta=self.beta, n=n, variance_mode=mode,
            truth=SimulationTruth(mu=mu, sigma=sigma), master_seed=self.master_seed,
            k=self.k, k1=k1_for_levels(n, self.levels_target, self.k, self.k1),
        )


@dataclass
class TrialStats:
    """A grid cell's coordinates and trial rows; every statistic is read off the rows."""

    protocol: str
    n: int
    eps: float
    mu: float
    sigma: float
    rows: List[dict]

    @property
    def errors(self) -> np.ndarray:
        return np.array([row["abs_error"] for row in self.rows])

    @property
    def quantiles(self) -> Dict[str, float]:
        return error_summary(self.errors)

    @property
    def coverage_mu1(self) -> float:
        return sum(abs(row["mu_hat1"] - self.mu) <= 2.0 * self.sigma for row in self.rows) / len(self.rows)

    @property
    def coverage_sigma(self) -> Optional[float]:
        if self.protocol in ("kv2", "kv1"):
            return None
        return sum(self.sigma <= row["sigma_hat"] <= 8.0 * self.sigma for row in self.rows) / len(self.rows)

    @property
    def mean_wall_ms(self) -> float:
        return sum(row["wall_ms"] for row in self.rows) / len(self.rows)


def run_cell(
    spec: ExperimentSpec, cell_index: int, n: int, eps: float, mu: float, sigma: float,
    *, transcript_path=None,
) -> TrialStats:
    """Run one grid cell's trials; with `transcript_path`, trial 0's
    transcript is written there, outside the timed span."""
    config = spec.config_for_cell(n, eps, mu, sigma)
    try:
        plan = plan_partition(config, spec.protocol)
    except ConfigError as exc:
        raise ConfigError(f"cell (n={n}, eps={eps}, mu={mu}, sigma={sigma}): {exc}") from exc
    top = 2.0 ** plan.level_plan.l_max
    if mu < 0.0 or mu > top:
        warnings.warn(
            f"true mu {mu} lies outside the searchable range [0, {top}]; "
            f"the mean search cannot certify its guarantee there",
            stacklevel=2,
        )
    runner = RUNNERS[spec.protocol]
    rows = []
    for trial in range(spec.trials):
        streams = TrialStreams(spec.master_seed, hash_u64(cell_index, trial))
        samples = sample_population(config.truth, n, streams)
        started = time.perf_counter()
        outcome, transcript = runner(config, samples, streams)
        wall_ms = (time.perf_counter() - started) * 1000.0
        if transcript_path is not None and trial == 0:
            transcript.dump(transcript_path)
        del transcript  # not kept alive through the next trial's run
        rows.append({
            "protocol": spec.protocol, "n": n, "eps": eps, "mu": mu, "sigma": sigma,
            "trial": trial, "mu_hat1": outcome.mu_hat1, "sigma_hat": outcome.sigma_hat,
            "mu_hat2": outcome.mu_hat2, "abs_error": abs(outcome.mu_hat2 - mu), "wall_ms": wall_ms,
        })
    return TrialStats(spec.protocol, n, eps, mu, sigma, rows)


def run_trials(spec: ExperimentSpec, *, transcript_path=None) -> List[TrialStats]:
    """Run every grid cell; deterministic given the experiment definition
    and master seed. With `transcript_path`, the first cell's trial 0
    transcript is written there."""
    return [
        run_cell(spec, cell_index, *cell, transcript_path=None if cell_index else transcript_path)
        for cell_index, cell in enumerate(spec.cells())
    ]


def fit_loglog_slope(n_values: Sequence[int], medians: Sequence[float]) -> Optional[float]:
    """Least-squares slope of log median error against log n; None if a
    single distinct n or a degenerate median makes the fit meaningless."""
    if len(set(n_values)) < 2 or any(m <= 0.0 for m in medians):
        return None
    slope, _ = np.polyfit(np.log(np.asarray(n_values, float)), np.log(np.asarray(medians)), 1)
    return float(slope)


# ---------------------------------------------------------------------------
# Privacy audits (exact, no sampling).

def _require_finite_eps(eps: float) -> None:
    if not (eps > 0.0 and math.isfinite(eps)):
        raise ConfigError(f"audit needs a finite positive eps, got {eps}")


def audit_privacy_discrete(
    eps: float, kind: str, params: tuple, broadcast: Optional[dict], sigma: Optional[float],
    input_grid: Sequence[float],
) -> float:
    """Worst-case output-probability ratio across all input pairs, for the
    users of a `quad` or `sign` block with `params` under `broadcast`.

    The true report of every input on the grid is the one `privatize` gives
    under an all-zero draw matrix, which keeps it. It is kept with the keep
    probability, else replaced by each other output alike. The result is max
    over inputs x, x' and outputs a of P[a|x] / P[a|x'].
    """
    _require_finite_eps(eps)
    if kind == "quad":
        keep, outputs = quad_keep_prob(eps), np.arange(4)
    elif kind == "sign":
        keep, outputs = sign_keep_prob(eps), np.array([-1, 1])
    else:
        raise ValueError(f"kind {kind!r} is not a discrete randomizer")
    xs = np.asarray(input_grid, dtype=np.float64)
    truth = privatize(eps, sigma, kind, xs, np.zeros((xs.size, 2)), params, broadcast)
    law = np.where(truth[:, None] == outputs, keep, (1.0 - keep) / (outputs.size - 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = law[:, None, :] / law[None, :, :]
    # 0/0 outcomes are indistinguishable (ratio 1); p/0 is a hard violation.
    both_zero = (law[:, None, :] == 0.0) & (law[None, :, :] == 0.0)
    ratios[both_zero] = 1.0
    return float(np.max(ratios))


def audit_privacy_laplace(
    eps: float, params: tuple, broadcast: Optional[dict],
    x_pairs: Iterable[Tuple[float, float]], y_grid: Sequence[float],
) -> float:
    """Worst log-density ratio of a `real` block with `params` under
    `broadcast`, whose output given input x is Laplace noise about the report
    `privatize` gives under a noise draw of 1/2 (which adds zero noise). The
    noise scale is the lattice block's numerator / eps, or the broadcast
    interval's width / eps. The result is the largest
    |log f(y | x1) - log f(y | x2)| over the pairs and the grid."""
    _require_finite_eps(eps)
    width = params[2] if params else broadcast["interval_hi"] - broadcast["interval_lo"]
    scale = width / eps
    pairs = np.asarray(list(x_pairs), dtype=np.float64).reshape(-1, 2)
    ys = np.asarray(y_grid, dtype=np.float64)

    def log_density(xs):  # one row per input, one column per output
        center = privatize(eps, None, "real", xs, np.full((xs.size, 1), 0.5), params, broadcast)
        return -np.abs(ys - center[:, None]) / scale - math.log(2.0 * scale)

    return float(np.max(np.abs(log_density(pairs[:, 0]) - log_density(pairs[:, 1])), initial=0.0))


# The five randomizers as blocks of a run: (name, kind, params, broadcast).
_AUDITED = (
    ("rr1", "quad", (0,), None),
    ("kv_rr2", "sign", (), {"mu_hat1": 0.3}),
    ("one_round_kv_rr2", "sign", (0.7, 3.0), None),
    ("uv_rr2", "real", (), {"interval_lo": -2.0, "interval_hi": 3.0}),
    ("one_round_uv_rr2", "real", (0.7, 3.0, 6.0), None),
)


def default_audit_report(eps_values: Sequence[float]) -> List[dict]:
    """Audit all five randomizers, each as a block's kind, params and
    broadcast with sigma 1, on standard grids for each budget.

    Discrete randomizers must achieve their e^eps bound (tightness) to a
    relative 1e-9, which rounding stays within up to about eps = 16; continuous
    ones must stay at or below eps in log space.
    """
    rows = []
    inputs = list(np.linspace(-10.0, 10.0, 41))
    lo, hi = -2.0, 3.0
    pairs = [(a, b) for a in inputs for b in (-10.0, lo, 0.0, hi, 10.0)]
    ys = list(np.linspace(-12.0, 12.0, 33)) + [lo, hi]
    for eps in eps_values:
        for name, kind, params, broadcast in _AUDITED:
            if kind == "real":
                value = audit_privacy_laplace(eps, params, broadcast, pairs, ys)
                measure, bound, ok = "max_log_ratio", eps, value <= eps + 1e-12
            else:
                value = audit_privacy_discrete(eps, kind, params, broadcast, 1.0, inputs)
                measure, bound = "max_ratio", math.exp(eps)
                ok = math.isclose(value, bound, rel_tol=1e-9)
            rows.append({"randomizer": name, "eps": eps, "measure": measure,
                         "value": value, "bound": bound, "ok": ok})
    return rows


# ---------------------------------------------------------------------------
# Persistence: delimiter-separated tables with shortest-roundtrip floats.

_RESULT_COLUMNS = (
    "protocol", "n", "eps", "mu", "sigma", "trial",
    "mu_hat1", "sigma_hat", "mu_hat2", "abs_error", "wall_ms",
)
_SUMMARY_COLUMNS = (
    "protocol", "n", "eps", "mu", "sigma", "trials",
    "err_mean", "err_p50", "err_p90", "err_p95",
    "coverage_mu1", "coverage_sigma", "mean_wall_ms", "slope_vs_n",
)


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # plain-float repr even for numpy scalars
    return str(value)


def write_results_csv(path, cells: List[TrialStats]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_RESULT_COLUMNS)
        for cell in cells:
            for row in cell.rows:
                writer.writerow(_format_value(row[c]) for c in _RESULT_COLUMNS)


def write_summary_csv(path, cells: List[TrialStats], slopes: Optional[Dict[tuple, float]] = None) -> None:
    slopes = slopes or {}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_SUMMARY_COLUMNS)
        for cell in cells:
            q = cell.quantiles
            slope = slopes.get((cell.eps, cell.mu, cell.sigma))
            writer.writerow(_format_value(v) for v in (
                cell.protocol, cell.n, cell.eps, cell.mu, cell.sigma, q["count"],
                q["mean"], q["p50"], q["p90"], q["p95"],
                cell.coverage_mu1, cell.coverage_sigma, cell.mean_wall_ms, slope,
            ))


def slopes_by_cell_group(cells: List[TrialStats]) -> Dict[tuple, Optional[float]]:
    """Fitted log-log slope of median error against n for each (eps, mu,
    sigma) combination present in the results."""
    grouped: Dict[tuple, List[TrialStats]] = {}
    for cell in cells:
        grouped.setdefault((cell.eps, cell.mu, cell.sigma), []).append(cell)
    out = {}
    for key, group in grouped.items():
        group = sorted(group, key=lambda c: c.n)
        out[key] = fit_loglog_slope(
            [c.n for c in group], [c.quantiles["p50"] for c in group]
        )
    return out
