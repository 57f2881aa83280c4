"""Command-line front end: simulate, sweep, audit, replay.

Options come from flags and from files of flags: an argument that begins
with `@` names a file whose lines are arguments, one per line (`--n=4096`),
read by the same parser as typed flags. A later flag overrides an earlier
one, so one file of public configuration serves `simulate` and `replay`.
Exit codes are a stable contract: 0 success, 1 runtime or verification
failure, 2 usage or configuration error.

Timing columns are zeroed by default so repeated invocations produce
byte-identical output files; pass --timing to record real wall times.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ldpgauss.aggregation import MalformedInputError
from ldpgauss.harness import (
    ExperimentSpec,
    default_audit_report,
    k1_for_levels,
    run_trials,
    sample_population,  # not called here; perfbench/tracing.py wraps this name
    slopes_by_cell_group,
    write_results_csv,
    write_summary_csv,
)
from ldpgauss.protocols import (
    RUNNERS,
    BoundedSigma,
    ConfigError,
    KnownSigma,
    ProtocolConfig,
    ReplayMismatch,
    Transcript,
    replay_analyst,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _float_list(text: str):
    return tuple(float(v) for v in text.split(",") if v.strip() != "")


def _int_list(text: str):
    return tuple(int(v) for v in text.split(",") if v.strip() != "")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ldpgauss",
        description="Locally private Gaussian mean estimation simulator",
        fromfile_prefix_chars="@",
        allow_abbrev=False,  # an option is spelled in full, or it is refused
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        """Options that describe a run's configuration."""
        p.add_argument("--protocol", choices=sorted(RUNNERS))
        p.add_argument("--n", type=int)
        p.add_argument("--eps", type=float)
        p.add_argument("--beta", type=float, default=0.05)
        p.add_argument("--mu", type=float)
        p.add_argument("--sigma", type=float)
        p.add_argument("--sigma-min", dest="sigma_min", type=float)
        p.add_argument("--sigma-max", dest="sigma_max", type=float)
        p.add_argument("--k", type=int)
        p.add_argument("--k1", type=int)
        p.add_argument("--levels", dest="levels", type=int,
                       help="size level subgroups for this many levels instead of --k/--k1")
        p.add_argument("--seed", type=int, default=0)

    def add_run(p):
        """add_config plus the options of commands that run trials."""
        add_config(p)
        p.add_argument("--trials", type=int)
        p.add_argument("--out", type=Path, default=Path("."), help="output directory (default .)")
        p.add_argument("--timing", action="store_true",
                       help="record real wall times (breaks byte-identical reruns)")

    p_sim = sub.add_parser("simulate", help="run one configuration cell", allow_abbrev=False)
    add_run(p_sim)
    p_sim.add_argument("--transcript", type=Path, help="also write trial 0's transcript here")

    p_sweep = sub.add_parser("sweep", help="run a configuration grid", allow_abbrev=False)
    add_run(p_sweep)
    p_sweep.add_argument("--n-grid", dest="n_grid", type=_int_list)
    p_sweep.add_argument("--eps-grid", dest="eps_grid", type=_float_list)
    p_sweep.add_argument("--mu-grid", dest="mu_grid", type=_float_list)
    p_sweep.add_argument("--sigma-grid", dest="sigma_grid", type=_float_list)

    p_audit = sub.add_parser("audit", help="exact privacy audits", allow_abbrev=False)
    p_audit.add_argument("--eps", type=_float_list, default=(0.1, 0.5, 1.0, 2.0))

    # replay reads no --mu or --seed; it accepts them so that one set of
    # configuration flags (or one @file) serves simulate and replay alike
    p_replay = sub.add_parser("replay", help="verify a transcript's analyst outputs", allow_abbrev=False)
    add_config(p_replay)
    p_replay.add_argument("--transcript", type=Path, required=True)
    return parser


def _require(opts: dict, *names) -> None:
    missing = [name for name in names if opts[name] is None]
    if missing:
        raise ConfigError(f"missing required options: {', '.join('--' + m.replace('_', '-') for m in missing)}")


def _variance_args(opts: dict):
    """The sigma bounds: None for kv2/kv1, which refuse them."""
    protocol = opts["protocol"]
    if protocol in ("kv2", "kv1"):
        if opts["sigma_min"] is not None or opts["sigma_max"] is not None:
            raise ConfigError(f"{protocol} uses --sigma, not --sigma-min/--sigma-max")
        return None
    _require(opts, "sigma_min", "sigma_max")
    return (opts["sigma_min"], opts["sigma_max"])


def _spec_from(opts: dict, n_values, eps_values, mu_values, sigma_values) -> ExperimentSpec:
    return ExperimentSpec(
        protocol=opts["protocol"],
        n_values=tuple(n_values),
        eps_values=tuple(eps_values),
        mu_values=tuple(mu_values),
        sigma_values=tuple(sigma_values),
        trials=opts["trials"],
        beta=opts["beta"],
        master_seed=opts["seed"],
        sigma_bounds=_variance_args(opts),
        k=opts["k"],
        k1=opts["k1"],
        levels_target=opts["levels"],
    )


def _out_dir(opts: dict) -> Path:
    out = opts["out"]
    out.mkdir(parents=True, exist_ok=True)
    return out


def _strip_timing(cells) -> None:
    for cell in cells:
        for row in cell.rows:
            row["wall_ms"] = 0.0


def _print_cell(cell, slope=None) -> None:
    q = cell.quantiles
    parts = [
        f"{cell.protocol} n={cell.n} eps={cell.eps!r} mu={cell.mu!r} sigma={cell.sigma!r}",
        f"trials={q['count']} err_p50={q['p50']!r} err_p90={q['p90']!r}",
        f"coverage_mu1={cell.coverage_mu1!r}",
    ]
    if cell.coverage_sigma is not None:
        parts.append(f"coverage_sigma={cell.coverage_sigma!r}")
    if slope is not None:
        parts.append(f"slope_vs_n={slope!r}")
    print(" ".join(parts))


def _cmd_simulate(opts: dict) -> int:
    _require(opts, "protocol", "n", "eps", "mu", "sigma", "trials")
    spec = _spec_from(opts, [opts["n"]], [opts["eps"]], [opts["mu"]], [opts["sigma"]])
    out = _out_dir(opts)  # the transcript may be written into it
    cells = run_trials(spec, transcript_path=opts["transcript"])
    if not opts["timing"]:
        _strip_timing(cells)
    write_results_csv(out / "results.csv", cells)
    write_summary_csv(out / "summary.csv", cells)
    _print_cell(cells[0])
    return EXIT_OK


def _cmd_sweep(opts: dict) -> int:
    _require(opts, "protocol", "trials")
    for name in ("n", "eps", "mu", "sigma"):
        if opts[name] is not None and opts[f"{name}_grid"] is not None:
            raise ConfigError(f"sweep takes --{name} or --{name}-grid, not both")
    # a scalar is a value when given, 0 included; the run rejects bad ones
    n_values, eps_values, mu_values, sigma_values = (
        opts[f"{name}_grid"] or ([opts[name]] if opts[name] is not None else None)
        for name in ("n", "eps", "mu", "sigma")
    )
    if not n_values:
        raise ConfigError("sweep needs --n-grid (or --n)")
    if not (eps_values and mu_values and sigma_values):
        raise ConfigError("sweep needs eps, mu, and sigma values (grid or scalar)")
    spec = _spec_from(opts, n_values, eps_values, mu_values, sigma_values)
    cells = run_trials(spec)
    if not opts["timing"]:
        _strip_timing(cells)
    slopes = slopes_by_cell_group(cells)
    out = _out_dir(opts)
    write_results_csv(out / "results.csv", cells)
    write_summary_csv(out / "summary.csv", cells, slopes)
    for cell in cells:
        _print_cell(cell, slopes.get((cell.eps, cell.mu, cell.sigma)))
    for key, slope in sorted(slopes.items()):
        label = "absent" if slope is None else repr(slope)
        print(f"slope eps={key[0]!r} mu={key[1]!r} sigma={key[2]!r}: {label}")
    return EXIT_OK


def _cmd_audit(opts: dict) -> int:
    eps_values = opts["eps"]
    if not eps_values:
        raise ConfigError("audit needs at least one eps")
    rows = default_audit_report(eps_values)
    failures = [row for row in rows if not row["ok"]]
    for row in rows:
        status = "ok" if row["ok"] else "VIOLATION"
        print(
            f"{status} {row['randomizer']} eps={row['eps']!r} "
            f"{row['measure']}={row['value']!r} bound={row['bound']!r}"
        )
    if failures:
        first = failures[0]
        print(
            f"audit failed: {first['randomizer']} at eps={first['eps']!r} "
            f"reached {first['value']!r} against bound {first['bound']!r}",
            file=sys.stderr,
        )
        return EXIT_FAILURE
    return EXIT_OK


def _cmd_replay(opts: dict) -> int:
    _require(opts, "protocol", "n", "eps")
    protocol = opts["protocol"]
    bounds = _variance_args(opts)
    if bounds is None:
        _require(opts, "sigma")
        mode = KnownSigma(opts["sigma"])
    else:
        mode = BoundedSigma(*bounds)
    config = ProtocolConfig(
        eps=opts["eps"], beta=opts["beta"], n=opts["n"],
        variance_mode=mode, truth=None, k=opts["k"],
        k1=k1_for_levels(opts["n"], opts["levels"], opts["k"], opts["k1"]),
    )
    transcript = Transcript.load(opts["transcript"], protocol, config.n)
    outcome = replay_analyst(protocol, config, transcript)
    print(
        f"replay ok: mu_hat1={outcome.mu_hat1!r} sigma_hat={outcome.sigma_hat!r} "
        f"mu_hat2={outcome.mu_hat2!r}"
    )
    return EXIT_OK


def main(argv=None) -> int:
    opts = vars(_build_parser().parse_args(argv))
    try:
        if opts["command"] == "simulate":
            return _cmd_simulate(opts)
        if opts["command"] == "sweep":
            return _cmd_sweep(opts)
        if opts["command"] == "audit":
            return _cmd_audit(opts)
        return _cmd_replay(opts)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MalformedInputError as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ReplayMismatch as exc:
        print(f"replay mismatch: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except (OSError, RuntimeError, ValueError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
