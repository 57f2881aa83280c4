"""Spans around the library's layer boundaries, recorded from outside it.

A traced run replaces the names each caller looks up (a module attribute,
a ``Transcript`` method or a ``RUNNERS`` entry) with a wrapper that
records a span, and puts every original back afterwards. The library's own
code is untouched, so a traced run computes the same bytes as an untraced
one; the benchmark checks that on every traced run.

A span is ``[name, start_ns, end_ns, parent, trial, work]``: ``parent`` is
the index of the enclosing span, ``trial`` the trial's stream index
(inherited from the enclosing span) and ``work`` a count made at the same
boundary (draws, users, bytes). Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from typing import Dict, List, Tuple

import numpy as np

# Per-layer metrics: name, unit, better, and the end-to-end metric and
# workload each should move. "ms", "calls", "draws", "users" and "bytes"
# are per trial; a transcript-audit trial is one simulate call with its
# replay.
PER_LAYER: List[Tuple[str, str, str, str]] = [
    ("harness.sample_population.ms", "ms/trial", "lower", "trials_per_s on kv2-sweep"),
    ("harness.run_trials.self_ms", "ms/trial", "lower", "trials_per_s on kv2-sweep and uv1-blocks"),
    ("harness.write_csv.ms", "ms/trial", "lower", "trials_per_s on kv2-sweep; predicted about 0"),
    ("numerics.uniform_block.calls", "calls/trial", "lower", "trial_ms_p50 on uv1-blocks; no change on kv2-sweep"),
    ("numerics.uniform_block.ms", "ms/trial", "lower", "trial_ms_p50 on uv1-blocks; no change on kv2-sweep"),
    ("numerics.uniform_block.draws", "draws/trial", "lower", "trial_ms_p50 on uv1-blocks; no change on kv2-sweep"),
    ("randomizers.kernels.calls", "calls/trial", "lower", "trial_ms_p50 on uv1-blocks; no change on kv2-sweep"),
    ("randomizers.kernels.ms", "ms/trial", "lower", "trial_ms_p50 on uv1-blocks; no change on kv2-sweep"),
    ("randomizers.kernels.users", "users/trial", "lower", "trial_ms_p50 on uv1-blocks; no change on kv2-sweep"),
    ("aggregation.counts.ms", "ms/trial", "lower", "trial_ms_p50; small everywhere"),
    ("aggregation.debias.ms", "ms/trial", "lower", "trial_ms_p50; small everywhere"),
    ("analyst.est_mean.ms", "ms/trial", "lower", "trial_ms_p50 on uv1-blocks"),
    ("analyst.est_var.ms", "ms/trial", "lower", "trial_ms_p50 on uv1-blocks"),
    ("analyst.refine.ms", "ms/trial", "lower",
     "trial_ms_p50 on kv2-sweep; 0 on uv1-blocks, whose refinement is inline in its runner"),
    ("analyst.select.ms", "ms/trial", "lower", "trial_ms_p50 on uv1-blocks"),
    ("analyst.reports_used_frac", "frac", "higher", "users whose reports enter mu_hat2 / users privatized"),
    ("protocols.plan_partition.calls", "calls/trial", "lower", "trial_ms_p50"),
    ("protocols.plan_partition.ms", "ms/trial", "lower", "trial_ms_p50"),
    ("protocols.runner.calls", "calls/trial", "lower", "trial_ms_p50 on uv1-blocks; publish_s on transcript-audit"),
    ("protocols.runner.self_ms", "ms/trial", "lower", "trial_ms_p50 on uv1-blocks; publish_s on transcript-audit"),
    ("protocols.validate.calls", "calls/trial", "lower", "trial_ms_p50 on kv2-sweep; verify_s on transcript-audit"),
    ("protocols.validate.ms", "ms/trial", "lower", "trial_ms_p50 on kv2-sweep; verify_s on transcript-audit"),
    ("protocols.dump.ms", "ms/trial", "lower", "publish_s on transcript-audit"),
    ("protocols.dump.bytes", "B/trial", "lower", "publish_s and output_mib on transcript-audit"),
    ("protocols.load.ms", "ms/trial", "lower", "verify_s on transcript-audit"),
    ("protocols.messages_by_subgroup.ms", "ms/trial", "lower", "verify_s on transcript-audit"),
    ("protocols.replay_analyst.self_ms", "ms/trial", "lower", "verify_s on transcript-audit"),
    ("cli.simulate.self_ms", "ms/trial", "lower", "publish_s on transcript-audit"),
    ("cli.replay.self_ms", "ms/trial", "lower", "verify_s on transcript-audit"),
    ("trace.overhead_frac", "frac", "lower", "traced op time / untraced op time - 1"),
]

_KERNELS = ("rr1_values", "sign_rr_values", "uv_rr2_values", "one_round_uv_rr2_values")


def _rows(args, result) -> int:
    return int(np.shape(result)[0])


def _size(args, result) -> int:
    return int(np.size(result))


def _file_bytes(args, result) -> int:
    return os.path.getsize(args[1])


def _reports_used(args, result) -> int:
    """Users whose reports enter mu_hat2: the second half in the two-round
    protocols, one refinement subgroup of k2 users in the one-round ones."""
    summary = result[0].plan_summary
    return summary.get("k2", summary["n"] - summary["n"] // 2)


def _trial(args) -> int:
    """The trial's stream index, from the TrialStreams third argument."""
    return args[2].trial_index


def _cli_name(args) -> str:
    return f"cli.{args[0][0]}"


class Tracer:
    """Records spans while installed; ``uninstall`` restores every name."""

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name, work=None, trial_of=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if trial_of is not None:
                trial = trial_of(args)
            else:
                trial = spans[parent][4] if parent is not None else None
            span = [name(args) if callable(name) else name, 0, 0, parent, trial, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if work is not None:
                span[5] = work(args, result)
            return result

        return traced

    def _patch(self, owner, key: str, name, work=None, trial_of=None) -> None:
        if isinstance(owner, dict):
            original = owner[key]
            owner[key] = self._wrap(original, name, work, trial_of)
        elif isinstance(owner, type):
            original = owner.__dict__[key]
            if isinstance(original, classmethod):
                setattr(owner, key, classmethod(self._wrap(original.__func__, name, work, trial_of)))
            else:
                setattr(owner, key, self._wrap(original, name, work, trial_of))
        else:
            original = getattr(owner, key)
            setattr(owner, key, self._wrap(original, name, work, trial_of))
        self._saved.append((owner, key, original))

    def install(self) -> None:
        from ldpgauss import cli, harness, numerics, protocols

        self._patch(numerics, "uniform_block", "numerics.uniform_block", _size)
        for kernel in _KERNELS:
            self._patch(protocols, kernel, "randomizers.kernels", _rows)
        for fn in ("quad_counts_from_values", "sign_counts_from_values"):
            self._patch(protocols, fn, "aggregation.counts")
        for fn in ("debias_quad_counts", "debias_sign_counts", "pair_adjacent_bins"):
            self._patch(protocols, fn, "aggregation.debias")
        for fn, name in (
            ("est_mean", "analyst.est_mean"), ("est_var", "analyst.est_var"),
            ("refine_known_sigma", "analyst.refine"),
            ("select_subgroup_kv", "analyst.select"), ("select_subgroup_uv", "analyst.select"),
        ):
            self._patch(protocols, fn, name)
        for owner in (protocols, harness):
            self._patch(owner, "plan_partition", "protocols.plan_partition")
        for key in list(protocols.RUNNERS):
            self._patch(protocols.RUNNERS, key, "protocols.runner", _reports_used, _trial)
        transcript = protocols.Transcript
        self._patch(transcript, "validate", "protocols.validate")
        self._patch(transcript, "dump", "protocols.dump", _file_bytes)
        self._patch(transcript, "load", "protocols.load")
        self._patch(transcript, "messages_by_subgroup", "protocols.messages_by_subgroup")
        self._patch(cli, "replay_analyst", "protocols.replay_analyst")
        for owner in (harness, cli):
            self._patch(owner, "sample_population", "harness.sample_population",
                        trial_of=_trial)
            self._patch(owner, "run_trials", "harness.run_trials")
            for fn in ("write_results_csv", "write_summary_csv"):
                self._patch(owner, fn, "harness.write_csv")
        self._patch(cli, "main", _cli_name)

    def uninstall(self) -> List[str]:
        """Put every original back; returns the names that did not come back."""
        for owner, key, original in reversed(self._saved):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        left = [
            f"{getattr(owner, '__name__', 'RUNNERS')}.{key}"
            for owner, key, original in self._saved
            if _current(owner, key) is not original
        ]
        self._saved = []
        return left

    # -- results ----------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                name, start, end, parent, trial, work = span
                fh.write(json.dumps({
                    "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "trial": trial, "work": work,
                }) + "\n")

    def per_layer(self, trials: int, overhead_frac: float) -> Dict[str, float]:
        """Every PER_LAYER metric from the recorded spans, per trial."""
        total_ns: Dict[str, int] = defaultdict(int)
        child_ns: Dict[int, int] = defaultdict(int)
        calls: Dict[str, int] = defaultdict(int)
        work: Dict[str, int] = defaultdict(int)
        for name, start, end, parent, _, count in self.spans:
            total_ns[name] += end - start
            calls[name] += 1
            work[name] += count
            if parent is not None:
                child_ns[parent] += end - start
        self_ns: Dict[str, int] = defaultdict(int)
        for index, (name, start, end, *_rest) in enumerate(self.spans):
            self_ns[name] += end - start - child_ns[index]

        def ms(table, name):
            return table[name] / 1e6 / trials

        out = {}
        for metric, *_ in PER_LAYER:
            layer, _, kind = metric.rpartition(".")
            if kind == "ms":
                out[metric] = ms(total_ns, layer)
            elif kind == "self_ms":
                out[metric] = ms(self_ns, layer)
            elif kind == "calls":
                out[metric] = calls[layer] / trials
            elif kind in ("draws", "users", "bytes"):
                out[metric] = work[layer] / trials
        privatized = work["randomizers.kernels"]
        out["analyst.reports_used_frac"] = (
            work["protocols.runner"] / privatized if privatized else 0.0
        )
        out["trace.overhead_frac"] = overhead_frac
        return out


def _current(owner, key):
    if isinstance(owner, dict):
        return owner[key]
    if isinstance(owner, type):
        return owner.__dict__[key]
    return getattr(owner, key)
