"""The benchmark's workloads: inputs made from a seed, one operation each,
and the checks on what the library returned.

Load comes from one process and one thread, as a closed loop: the next
operation starts when the previous one has returned. The library is driven
through its public names only (``harness.run_trials``, the CSV writers,
``cli.main``, ``RUNNERS`` and ``replay_analyst``), each looked up on its
module at call time so that a traced run can wrap it.

kv2-sweep  The researchers' main traffic: the A3 scaling sweep, kv2 at
           n = 2^14 .. 2^18 with 8 levels. Nine emission blocks per trial and
           no transcript, so validation and uniform draws dominate and a
           serialization change should show no change here.
uv1-blocks uv1 at n = 2^17 with k1 = 1024: 64 levels and 640 refinement
           subgroups of 102 users, so 704 uniform_block and kernel calls per
           trial. Per-block loop overhead shows here and hardly at all on
           kv2-sweep. Its error is the protocol's Laplace noise; this
           workload measures speed, not accuracy.
transcript-audit  The auditor's path: ``ldpgauss simulate`` writes a
           transcript at n = 2^20, then ``ldpgauss replay`` verifies it. kv2
           (integer sign values) and uv2 (float values) alternate, so both
           value encodings are written and parsed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import random
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional

WORKLOADS = ("kv2-sweep", "uv1-blocks", "transcript-audit")

# Operations made ready at set-up; a run that needs more wraps round.
_OPS_PREPARED = 1000

# Columns holding measured wall times, left out of output digests.
_TIMING_COLUMNS = ("wall_ms", "mean_wall_ms")


@dataclass(frozen=True)
class Shape:
    """Problem sizes of one workload; the smoke shape is the same traffic at
    small n."""

    sweep_n: tuple = ()
    sweep_trials: int = 0
    uv1_n: int = 0
    uv1_k1: int = 0
    uv1_trials: int = 0
    audit_n: int = 0


FULL = Shape(
    sweep_n=tuple(2 ** e for e in range(14, 19)), sweep_trials=2,
    uv1_n=2 ** 17, uv1_k1=1024, uv1_trials=4, audit_n=2 ** 20,
)
SMOKE = Shape(
    sweep_n=tuple(2 ** e for e in range(10, 13)), sweep_trials=2,
    uv1_n=2 ** 13, uv1_k1=256, uv1_trials=2, audit_n=2 ** 12,
)


@dataclass
class OpResult:
    """What one operation did and how long its library calls took."""

    attempted: int = 0
    failed: int = 0
    trials: int = 0
    trial_ms: List[float] = field(default_factory=list)
    publish_s: List[float] = field(default_factory=list)
    verify_s: List[float] = field(default_factory=list)
    output_bytes: List[int] = field(default_factory=list)
    transcript_bytes: List[int] = field(default_factory=list)
    digest: Optional[str] = None
    errors: List[str] = field(default_factory=list)

    @property
    def busy_s(self) -> float:
        return sum(self.publish_s) + sum(self.verify_s)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        self.errors.append(message)


def master_seeds(seed: int) -> List[int]:
    """The library's master seeds for successive operations of one run."""
    rng = random.Random(seed)
    return [rng.getrandbits(32) for _ in range(_OPS_PREPARED)]


def build_inputs(workload: str, seed: int, smoke: bool) -> list:
    """Every operation's input, made from the seed alone."""
    from ldpgauss.harness import ExperimentSpec

    shape = SMOKE if smoke else FULL
    seeds = master_seeds(seed)
    if workload == "kv2-sweep":
        return [
            ExperimentSpec(
                protocol="kv2", n_values=shape.sweep_n, eps_values=(1.0,),
                mu_values=(10.0,), sigma_values=(1.0,), trials=shape.sweep_trials,
                beta=0.05, master_seed=s, levels_target=8,
            )
            for s in seeds
        ]
    if workload == "uv1-blocks":
        return [
            ExperimentSpec(
                protocol="uv1", n_values=(shape.uv1_n,), eps_values=(1.0,),
                mu_values=(10.0,), sigma_values=(3.0,), trials=shape.uv1_trials,
                beta=0.05, master_seed=s, sigma_bounds=(2.0, 16.0), k1=shape.uv1_k1,
            )
            for s in seeds
        ]
    if workload == "transcript-audit":
        return [_audit_flags(shape.audit_n, s) for s in seeds]
    raise ValueError(f"unknown workload {workload!r}")


def _audit_flags(n: int, master_seed: int) -> Dict[str, List[str]]:
    common = ["--n", str(n), "--eps", "1", "--beta", "0.05", "--mu", "10", "--levels", "8"]
    return {
        "kv2": ["--protocol", "kv2", *common, "--sigma", "1", "--seed", str(master_seed)],
        "uv2": [
            "--protocol", "uv2", *common, "--sigma", "3", "--sigma-min", "2",
            "--sigma-max", "16", "--seed", str(master_seed),
        ],
    }


def run_op(workload: str, op_input, out_dir: Path) -> OpResult:
    if workload == "transcript-audit":
        return _audit_op(op_input, out_dir)
    return _sweep_op(op_input, out_dir)


# ---------------------------------------------------------------------------
# Harness workloads (kv2-sweep, uv1-blocks)

def _sweep_op(spec, out_dir: Path) -> OpResult:
    from ldpgauss import harness

    result = OpResult(attempted=spec.trials * len(spec.cells()))
    results_csv, summary_csv = out_dir / "results.csv", out_dir / "summary.csv"
    try:
        started = time.perf_counter()
        cells = harness.run_trials(spec)
        harness.write_results_csv(results_csv, cells)
        harness.write_summary_csv(summary_csv, cells, harness.slopes_by_cell_group(cells))
        result.publish_s.append(time.perf_counter() - started)
    except Exception:  # counted and reported; the run goes on
        result.fail(result.attempted, traceback.format_exc())
        return result
    rows = [row for cell in cells for row in cell.rows]
    result.trials = len(rows)
    result.trial_ms = [row["wall_ms"] for row in rows]
    bad = sum(1 for row in rows if not _finite_estimates(row))
    if bad:
        result.fail(bad, f"{bad} trials returned a non-finite estimate")
    result.output_bytes.append(results_csv.stat().st_size + summary_csv.stat().st_size)
    result.digest = _digest([results_csv, summary_csv])
    return result


def _finite_estimates(row: dict) -> bool:
    values = [row["mu_hat1"], row["mu_hat2"]]
    if row["sigma_hat"] is not None:
        values.append(row["sigma_hat"])
    return all(math.isfinite(float(v)) for v in values)


def replay_first_trial(spec) -> Optional[str]:
    """Re-run the sweep's first trial through the public runner and verify
    it with ``replay_analyst`` from public configuration alone.

    Returns None when the harness row, the runner and the replay agree,
    and a description of the disagreement otherwise.
    """
    from ldpgauss import harness, protocols
    from ldpgauss.numerics import TrialStreams, hash_u64

    # Trials are keyed by (master seed, cell index, trial index), so this is
    # trial 0 of cell 0 of the full sweep.
    first = replace(spec, n_values=spec.n_values[:1], trials=1)
    row = harness.run_trials(first)[0].rows[0]
    config = spec.config_for_cell(*spec.cells()[0])
    streams = TrialStreams(spec.master_seed, hash_u64(0, 0))
    samples = harness.sample_population(config.truth, config.n, streams)
    outcome, transcript = protocols.RUNNERS[spec.protocol](config, samples, streams)
    public = replace(config, truth=None, master_seed=0)
    replayed = protocols.replay_analyst(spec.protocol, public, transcript)
    recorded = (row["mu_hat1"], row["sigma_hat"], row["mu_hat2"])
    for name, other in (("runner", outcome), ("replay", replayed)):
        got = (other.mu_hat1, other.sigma_hat, other.mu_hat2)
        if got != recorded:
            return f"{name} gave {got!r}, harness row {recorded!r}"
    return None


# ---------------------------------------------------------------------------
# Auditor workload (transcript-audit)

def _audit_op(flags: Dict[str, List[str]], out_dir: Path) -> OpResult:
    """One kv2 and one uv2 publish-then-verify round trip, always as a pair
    so that every run's medians mix the two protocols equally."""
    result = OpResult()
    files = []
    for protocol, protocol_flags in flags.items():
        out = out_dir / protocol
        transcript = out / "transcript.jsonl"
        result.attempted += 2
        started = time.perf_counter()
        code, _, err = call_cli([
            "simulate", *protocol_flags, "--trials", "1", "--timing",
            "--out", str(out), "--transcript", str(transcript),
        ])
        result.publish_s.append(time.perf_counter() - started)
        if code != 0:
            result.fail(2, f"{protocol} simulate exited {code}: {err.strip()}")
            continue
        with open(out / "results.csv", newline="", encoding="utf-8") as fh:
            row = next(csv.DictReader(fh))
        result.trials += 1
        result.trial_ms.append(float(row["wall_ms"]))
        if not all(math.isfinite(float(row[k])) for k in ("mu_hat1", "mu_hat2")):
            result.fail(1, f"{protocol} simulate returned a non-finite estimate")
        started = time.perf_counter()
        code, out_text, err = call_cli(["replay", *protocol_flags, "--transcript", str(transcript)])
        result.verify_s.append(time.perf_counter() - started)
        if code != 0:
            result.fail(1, f"{protocol} replay exited {code}: {err.strip()}")
        elif not (f"mu_hat1={row['mu_hat1']} " in out_text
                  and f"mu_hat2={row['mu_hat2']}\n" in out_text):
            result.fail(1, f"{protocol} replay printed {out_text.strip()!r}, results.csv "
                           f"holds mu_hat1={row['mu_hat1']} mu_hat2={row['mu_hat2']}")
        size = transcript.stat().st_size
        result.transcript_bytes.append(size)
        csvs = [out / "results.csv", out / "summary.csv"]
        result.output_bytes.append(size + sum(p.stat().st_size for p in csvs))
        files += csvs + [transcript]
    if len(files) == 3 * len(flags):
        result.digest = _digest(files)
    return result


def call_cli(argv: List[str]):
    """``ldpgauss <argv>`` in this process: (exit code, stdout, stderr).

    An exception that escapes ``cli.main`` counts as exit code 1, as it
    would for the console script, with its traceback on stderr.
    """
    from ldpgauss import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a malformed command line
            code = exc.code
        except Exception:  # a failed call; the run goes on
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# Output digests

def _digest(paths: List[Path]) -> str:
    """sha256 over the files in order, CSV timing columns left out."""
    h = hashlib.sha256()
    for path in paths:
        if path.suffix == ".csv":
            h.update(_without_timing(path).encode("utf-8"))
        else:
            with open(path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    h.update(chunk)
    return h.hexdigest()


def _without_timing(path: Path) -> str:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    keep = [i for i, name in enumerate(rows[0]) if name not in _TIMING_COLUMNS]
    return "".join(",".join(row[i] for i in keep) + "\n" for row in rows)

