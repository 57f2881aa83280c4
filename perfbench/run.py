"""Benchmark of the ldpgauss library, end to end and layer by layer.

    python3 perfbench/run.py --workload kv2-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` alternates untraced and traced operations on the same inputs,
reports the per-layer metrics from the traced ones and writes the spans to
``.perfbench_out/trace-<workload>.jsonl``. ``--smoke`` runs the same
workloads at small n. The workloads are described in ``workloads.py``.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"

# End-to-end metrics: name, unit, better. publish_s is one harness batch
# written to CSV on the sweep workloads and one `ldpgauss simulate` call on
# transcript-audit; output_mib is what that call writes.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("trials_per_s", "1/s", "higher"),
    ("trial_ms_p50", "ms", "lower"),
    ("trial_ms_tail", "ms", "lower"),
    ("publish_s", "s", "lower"),
    ("output_mib", "MiB", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
]

SETUP_REPEATS = 7
# An untraced run makes at least this many operations, so that each median
# of transcript-audit, whose one operation can fill the window, rests on
# two calls of each protocol.
MIN_OPS = 2
_TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# One process, one thread: keep numpy's BLAS from starting a thread pool.
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

_SETUP_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads, ldpgauss.cli; "
    "workloads.build_inputs(sys.argv[3], int(sys.argv[4]), sys.argv[5] == '1')"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="the same workloads at small n")
    return parser.parse_args(argv)


def measure_setup(args) -> float:
    """Median wall time of a fresh interpreter importing the library and
    building this run's inputs."""
    command = [
        sys.executable, "-c", _SETUP_CODE, str(SRC), str(BENCH_DIR),
        args.workload, str(args.seed), "1" if args.smoke else "0",
    ]
    times = []
    for _ in range(SETUP_REPEATS):
        # No timeout: with one, the wait polls in steps of up to 50 ms.
        started = time.perf_counter()
        subprocess.run(command, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def tail(values):
    """(percentile, value): the highest percentile with at least ten samples
    beyond it, by nearest rank; the maximum when there are too few."""
    ordered = sorted(values)
    for p in _TAIL_PERCENTILES:
        rank = math.ceil(p / 100.0 * len(ordered))
        if len(ordered) - rank >= 10:
            return p, ordered[rank - 1]
    return 100.0, ordered[-1]


def _out_of_time(started: float, op_started: float, seconds: float) -> bool:
    """True when another operation as long as the last one would end after
    the measured window; the first operation always runs."""
    now = time.perf_counter()
    return now - started + (now - op_started) > seconds


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def add(self, attempted: int, failed: int, errors=()) -> None:
        self.attempted += attempted
        self.failed += failed
        self.errors.extend(errors)


def run_untraced(args, workloads, inputs, scratch: Path, tally: Tally):
    sweep = args.workload != "transcript-audit"
    first_digest = None
    if sweep:
        # Warm-up batch: untimed, but checked, and the one whose bytes are
        # compared with the stored digest.
        warm = workloads.run_op(args.workload, inputs[0], scratch)
        tally.add(warm.attempted, warm.failed, warm.errors)
        first_digest = warm.digest
        try:
            mismatch = workloads.replay_first_trial(inputs[0])
        except Exception:  # a failed check; the run goes on
            mismatch = traceback.format_exc()
        tally.add(1, mismatch is not None, [mismatch] if mismatch else [])
    ops = []
    index = 1 if sweep else 0
    started = time.perf_counter()
    while True:
        op_started = time.perf_counter()
        op = workloads.run_op(args.workload, inputs[index % len(inputs)], scratch)
        tally.add(op.attempted, op.failed, op.errors)
        ops.append(op)
        index += 1
        if len(ops) >= MIN_OPS and _out_of_time(started, op_started, args.seconds):
            break
    if first_digest is None:
        first_digest = ops[0].digest

    trial_ms = [t for op in ops for t in op.trial_ms]
    trials = sum(op.trials for op in ops)
    busy = sum(op.busy_s for op in ops)
    publish = [t for op in ops for t in op.publish_s]
    verify = [t for op in ops for t in op.verify_s]
    output = [b for op in ops for b in op.output_bytes]
    transcript = [b for op in ops for b in op.transcript_bytes]
    if not trial_ms:
        return None, first_digest, []
    tail_p, tail_ms = tail(trial_ms)
    metrics = {
        "trials_per_s": trials / busy,
        "trial_ms_p50": statistics.median(trial_ms),
        "trial_ms_tail": tail_ms,
        "publish_s": statistics.median(publish),
        "output_mib": statistics.median(output) / 2 ** 20,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [f"trial_ms_tail is p{tail_p:g} of {len(trial_ms)} trials"]
    if verify:
        notes.append(f"verify_s {statistics.median(verify)!r} s (median per replay call)")
    if transcript:
        notes.append(f"transcript_mib {statistics.median(transcript) / 2 ** 20!r} MiB")
    return metrics, first_digest, notes


def run_traced(args, workloads, tracing, inputs, scratch: Path, tally: Tally):
    """Each operation runs untraced, then traced on the same input; the two
    must write the same bytes. Per-layer figures come from the traced ones."""
    tracer = tracing.Tracer()
    plain_s, traced_s = [], []
    trials = 0
    first_digest = None
    index = 0
    started = time.perf_counter()
    while True:
        op_started = time.perf_counter()
        op_input = inputs[index % len(inputs)]
        plain = workloads.run_op(args.workload, op_input, scratch)
        tracer.install()
        try:
            traced = workloads.run_op(args.workload, op_input, scratch)
        finally:
            left = tracer.uninstall()
        for op in (plain, traced):
            tally.add(op.attempted, op.failed, op.errors)
        if left:
            tally.add(0, 1, [f"tracing left these names wrapped: {', '.join(left)}"])
        if plain.digest != traced.digest:
            tally.add(0, 1, [f"operation {index}: traced outputs differ from untraced ones"])
        first_digest = first_digest or plain.digest
        plain_s.append(plain.busy_s)
        traced_s.append(traced.busy_s)
        trials += traced.trials
        index += 1
        if _out_of_time(started, op_started, args.seconds):
            break
    if trials == 0:
        return None, first_digest, []
    overhead = statistics.median(traced_s) / statistics.median(plain_s) - 1.0
    OUT_ROOT.mkdir(exist_ok=True)
    trace_path = OUT_ROOT / f"trace-{args.workload}.jsonl"
    tracer.write(trace_path)
    notes = [f"{len(tracer.spans)} spans over {trials} traced trials written to "
             f"{trace_path.relative_to(ROOT)}"]
    return tracer.per_layer(trials, overhead), first_digest, notes


def stored_digest(args):
    table = json.loads((BENCH_DIR / "digests.json").read_text(encoding="utf-8"))
    return table["smoke" if args.smoke else "full"].get(args.workload, {}).get(str(args.seed))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ldpgauss" / "__init__.py").is_file():
        print(f"error: no library source under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import ldpgauss
    import numpy

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if Path(ldpgauss.__file__).resolve().parent != SRC / "ldpgauss":
        print(f"error: ldpgauss was imported from {ldpgauss.__file__}, not {SRC}", file=sys.stderr)
        return 2

    setup_s = measure_setup(args)
    inputs = workloads.build_inputs(args.workload, args.seed, args.smoke)
    OUT_ROOT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_ROOT))
    tally = Tally()
    try:
        if args.trace:
            metrics, digest, notes = run_traced(args, workloads, tracing, inputs, scratch, tally)
            table = [(name, unit) for name, unit, *_ in tracing.PER_LAYER]
        else:
            metrics, digest, notes = run_untraced(args, workloads, inputs, scratch, tally)
            if metrics is not None:
                metrics["setup_s"] = setup_s
            table = [(name, unit) for name, unit, _ in END_TO_END]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if metrics is None:
        for error in tally.errors[:5]:
            print(error, file=sys.stderr)
        print("error: no operation completed", file=sys.stderr)
        return 1

    expected = stored_digest(args)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}{' smoke' if args.smoke else ''}: python "
          f"{platform.python_version()}, numpy {numpy.__version__}, nproc {os.cpu_count()}")
    for name, unit in table:
        print(f"{name} {metrics[name]!r} {unit}")
    for note in notes:
        print(note)
    print(f"failed_frac {tally.failed / tally.attempted!r} ({tally.failed} of {tally.attempted})")
    print(f"outputs_match {'unknown' if expected is None else str(digest == expected).lower()} "
          f"(digest {digest})")
    for error in tally.errors[:5]:
        print(f"failure: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in table},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
