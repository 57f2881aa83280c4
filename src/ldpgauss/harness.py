"""Monte Carlo experiment runner, privacy auditor, and result persistence.

Privacy audits are analytic, because empirical frequencies cannot certify a
multiplicative e^eps bound: the output law of a discrete randomizer comes
from the maps its kernel runs, evaluated on a whole input grid at once, and
the noise-adding randomizers' log-densities are evaluated in closed form.
Statistical checks with standard-error tolerances live in the test suite
instead.

Trials are keyed by (master_seed, cell index, trial index), so results are
independent of execution order and extending the trial count leaves earlier
trials untouched.
"""

from __future__ import annotations

import csv
import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ldpgauss.aggregation import MalformedInputError
from ldpgauss.numerics import TrialStreams, floor_div_mod4_array, gaussian_from_uniforms, hash_u64
from ldpgauss.protocols import (
    RUNNERS,
    BoundedSigma,
    ConfigError,
    KnownSigma,
    ProtocolConfig,
    SimulationTruth,
    plan_partition,
)
from ldpgauss.randomizers import (
    LatticeSpec,
    one_round_uv_rr2_log_density,
    quad_keep_prob,
    sign_keep_prob,
    sign_with_positive_zero,
    uv_rr2_log_density,
)

def sample_population(truth: SimulationTruth, n: int, streams: TrialStreams) -> np.ndarray:
    """Draw each user's sample from their own stream (columns 0 and 1)."""
    draws = streams.matrix(np.arange(n), first=0, count=2)
    return gaussian_from_uniforms(draws[:, 0], draws[:, 1], truth.mu, truth.sigma)


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
    k2: Optional[int] = None
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
            k=self.k, k1=k1_for_levels(n, self.levels_target, self.k, self.k1), k2=self.k2,
        )


@dataclass
class TrialStats:
    """Per-cell results: raw errors, quantiles, coverage, wall time."""

    protocol: str
    n: int
    eps: float
    mu: float
    sigma: float
    errors: np.ndarray
    quantiles: Dict[str, float]
    coverage_mu1: float
    coverage_sigma: Optional[float]
    mean_wall_ms: float
    rows: List[dict] = field(default_factory=list)

    def __post_init__(self):
        q = self.quantiles
        if not (q["p50"] <= q["p90"] <= q["p95"]):
            raise ValueError("quantiles must be monotone")
        if not 0.0 <= self.coverage_mu1 <= 1.0:
            raise ValueError("coverage must lie in [0, 1]")
        if self.coverage_sigma is not None and not 0.0 <= self.coverage_sigma <= 1.0:
            raise ValueError("coverage must lie in [0, 1]")


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
    errors = np.empty(spec.trials)
    cover_mu1 = 0
    cover_sigma = 0
    wall_total = 0.0
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
        wall_total += wall_ms
        errors[trial] = abs(outcome.mu_hat2 - mu)
        abs_error = float(errors[trial])
        cover_mu1 += abs(outcome.mu_hat1 - mu) <= 2.0 * sigma
        if outcome.sigma_hat is not None:
            cover_sigma += sigma <= outcome.sigma_hat <= 8.0 * sigma
        rows.append({
            "protocol": spec.protocol, "n": n, "eps": eps, "mu": mu, "sigma": sigma,
            "trial": trial, "mu_hat1": outcome.mu_hat1, "sigma_hat": outcome.sigma_hat,
            "mu_hat2": outcome.mu_hat2, "abs_error": abs_error, "wall_ms": wall_ms,
        })
    summary = error_summary(errors)
    return TrialStats(
        protocol=spec.protocol, n=n, eps=eps, mu=mu, sigma=sigma, errors=errors,
        quantiles={"p50": summary["p50"], "p90": summary["p90"], "p95": summary["p95"]},
        coverage_mu1=cover_mu1 / spec.trials,
        coverage_sigma=(cover_sigma / spec.trials) if spec.protocol in ("uv2", "uv1") else None,
        mean_wall_ms=wall_total / spec.trials,
        rows=rows,
    )


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
        raise ValueError(f"audit needs a finite positive eps, got {eps}")


def audit_privacy_discrete(
    randomizer: str, eps: float, input_grid: Sequence[float], params: dict
) -> float:
    """Worst-case output-probability ratio across all input pairs.

    The output law of every input on the grid comes from the maps the
    kernels run: the true report (the quad digit, or the sign of the
    residual to the center) is kept with the keep probability, else replaced
    by each other output alike. The result is max over inputs x, x' and
    outputs a of P[a|x] / P[a|x'].
    """
    _require_finite_eps(eps)
    xs = np.asarray(input_grid, dtype=np.float64)
    if randomizer == "rr1":
        keep, outputs = quad_keep_prob(eps), np.arange(4)
        truth = floor_div_mod4_array(xs, params.get("level_j", 0))
    elif randomizer in ("kv_rr2", "one_round_kv_rr2"):
        keep, outputs = sign_keep_prob(eps), np.array([-1, 1])
        if randomizer == "kv_rr2":
            centers = params["mu_hat1"]
        else:
            centers = params["lattice"].nearest_points(xs)
        truth = sign_with_positive_zero((xs - centers) / params["sigma"])
    else:
        raise ValueError(f"unknown discrete randomizer {randomizer!r}")
    law = np.where(truth[:, None] == outputs, keep, (1.0 - keep) / (outputs.size - 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = law[:, None, :] / law[None, :, :]
    # 0/0 outcomes are indistinguishable (ratio 1); p/0 is a hard violation.
    both_zero = (law[:, None, :] == 0.0) & (law[None, :, :] == 0.0)
    ratios[both_zero] = 1.0
    return float(np.max(ratios))


def audit_privacy_laplace(
    eps: float,
    log_density: Callable[[float, float], float],
    x_pairs: Iterable[Tuple[float, float]],
    y_grid: Sequence[float],
) -> float:
    """Worst log-density ratio of a noise-adding randomizer, whose output
    has log-density log_density(x, y) at y given input x."""
    _require_finite_eps(eps)
    worst = 0.0
    for x1, x2 in x_pairs:
        for y in y_grid:
            worst = max(worst, float(abs(log_density(x1, y) - log_density(x2, y))))
    return worst


def default_audit_report(eps_values: Sequence[float]) -> List[dict]:
    """Audit all five randomizers on standard grids for each budget.

    Discrete randomizers must achieve their e^eps bound (tightness) to a
    relative 1e-9, which rounding stays within up to about eps = 16; continuous
    ones must stay at or below eps in log space.
    """
    rows = []
    inputs = list(np.linspace(-10.0, 10.0, 41))
    lattice = LatticeSpec(0.7, 3.0)
    lo, hi = -2.0, 3.0
    pairs = [(a, b) for a in inputs for b in (-10.0, lo, 0.0, hi, 10.0)]
    ys = list(np.linspace(-12.0, 12.0, 33)) + [lo, hi]
    for eps in eps_values:
        bound = math.exp(eps)
        for name, params in (
            ("rr1", {"level_j": 0}),
            ("kv_rr2", {"mu_hat1": 0.3, "sigma": 1.0}),
            ("one_round_kv_rr2", {"lattice": lattice, "sigma": 1.0}),
        ):
            ratio = audit_privacy_discrete(name, eps, inputs, params)
            rows.append({
                "randomizer": name, "eps": eps, "measure": "max_ratio", "value": ratio,
                "bound": bound, "ok": math.isclose(ratio, bound, rel_tol=1e-9),
            })
        for name, log_density in (
            ("uv_rr2", lambda x, y: uv_rr2_log_density(eps, lo, hi, x, y)),
            ("one_round_uv_rr2", lambda x, y: one_round_uv_rr2_log_density(
                eps, lattice, 2.0 * lattice.spacing, x, y)),
        ):
            log_gap = audit_privacy_laplace(eps, log_density, pairs, ys)
            rows.append({
                "randomizer": name, "eps": eps, "measure": "max_log_ratio",
                "value": log_gap, "bound": eps, "ok": log_gap <= eps + 1e-12,
            })
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
            summary = error_summary(cell.errors)
            slope = slopes.get((cell.eps, cell.mu, cell.sigma))
            writer.writerow(_format_value(v) for v in (
                cell.protocol, cell.n, cell.eps, cell.mu, cell.sigma, int(cell.errors.size),
                summary["mean"], summary["p50"], summary["p90"], summary["p95"],
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
