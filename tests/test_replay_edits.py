"""Replay of randomly edited transcripts.

Each example takes a recorded transcript of one protocol at n = 2^10 and
edits it one to three times, replaying the text after each edit. An edit
deletes, duplicates, swaps or moves lines, changes a line's user, subgroup,
value, round or kind, inserts a message line of a new or another block's
tag at a block boundary, or inserts a stray broadcast. Replay must then end
in the recorded outcome, `ReplayMismatch` or `MalformedInputError`, and
never in another exception; whenever `Transcript.loads` accepts the text,
the gate must name the fault that the reference gate, block by block,
names first, in the same words. The examples are fixed (`derandomize`), so
the suite stays deterministic.
"""

import contextlib
import dataclasses
import functools
import io
import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpgauss import cli, protocols
from ldpgauss.aggregation import MalformedInputError
from ldpgauss.harness import sample_population
from ldpgauss.numerics import TrialStreams
from ldpgauss.protocols import (
    BoundedSigma,
    KnownSigma,
    ProtocolConfig,
    ReplayMismatch,
    SimulationTruth,
    Transcript,
    plan_partition,
    replay_analyst,
)
from ldpgauss.protocols import RUNNERS
from oracles import reference_gate, transcript_blocks

N = 2 ** 10

# each protocol's public configuration, as replay's flags spell it
FLAGS = {
    "kv2": ["--sigma", "1", "--k", "128"],
    "kv1": ["--sigma", "1", "--k1", "128"],
    "uv2": ["--sigma-min", "2", "--sigma-max", "16", "--k1", "128"],
    "uv1": ["--sigma-min", "2", "--sigma-max", "16", "--k1", "128"],
}


def public_config(protocol) -> ProtocolConfig:
    mode = KnownSigma(1.0) if protocol in ("kv2", "kv1") else BoundedSigma(2.0, 16.0)
    size = {"k": 128} if protocol == "kv2" else {"k1": 128}
    return ProtocolConfig(eps=1.0, beta=0.05, n=N, variance_mode=mode, truth=None, **size)


@functools.lru_cache(maxsize=None)
def recorded(protocol):
    """A trial's transcript as (line, parsed line) pairs."""
    sigma = 1.0 if protocol in ("kv2", "kv1") else 3.0
    truth = SimulationTruth(mu=10.0, sigma=sigma)
    config = dataclasses.replace(public_config(protocol), truth=truth, master_seed=3)
    streams = TrialStreams(3, 0)
    _, transcript = RUNNERS[protocol](config, sample_population(config.truth, N, streams), streams)
    return tuple((line, json.loads(line)) for line in transcript.dumps().splitlines(keepends=True))


def written(obj) -> tuple:
    return json.dumps(obj, separators=(",", ":")) + "\n", obj


def block_of(obj) -> tuple:
    """What tells one block's lines apart from the next block's."""
    if "user" in obj:
        return obj["round"], obj["subgroup"], obj["kind"]
    return (next(iter(obj)), obj.get("round"))


def run_of(key: tuple) -> tuple:
    """What tells one run of blocks apart from the next: a message block's
    round and kind."""
    return key[::2] if len(key) == 3 else key


def boundary(data, rng, lines) -> int:
    """A position where two blocks meet, or either end; half the time one
    where two runs of blocks meet."""
    keys = [block_of(obj) for _, obj in lines]
    cuts = [i for i in range(1, len(keys)) if keys[i] != keys[i - 1]]
    if data.draw(st.booleans(), label="between runs"):
        return rng.choice([i for i in cuts if run_of(keys[i]) != run_of(keys[i - 1])])
    return rng.choice([0, *cuts, len(keys)])


# edits of one line, and insertions, mostly where blocks meet: the gate
# checks one head per run of blocks, and a line inserted there may join a run
LINE_EDITS = ("delete", "duplicate", "swap", "move", "change")
INSERTS = ("insert", "broadcast")


def edit(data, lines: list, protocol: str) -> None:
    """Apply one edit, drawn from `data`, to `lines` in place."""
    plan = plan_partition(public_config(protocol), protocol)
    tags = sorted({block.tag for block in plan.blocks if block.kind != "broadcast"})
    # positions uniform over the lines, where drawing them would favour the top
    rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    op = data.draw(st.sampled_from(INSERTS if data.draw(st.booleans()) else LINE_EDITS), label="edit")
    if op == "delete":
        del lines[rng.randrange(len(lines))]
    elif op == "duplicate":
        at = rng.randrange(len(lines))
        lines.insert(at, lines[at])
    elif op == "swap":
        a, b = rng.randrange(len(lines)), rng.randrange(len(lines))
        lines[a], lines[b] = lines[b], lines[a]
    elif op == "move":
        line = lines.pop(rng.randrange(len(lines)))
        lines.insert(rng.randrange(len(lines) + 1), line)
    elif op == "change":
        at = rng.randrange(len(lines))
        obj = lines[at][1]
        field = data.draw(st.sampled_from(("user", "subgroup", "value", "round", "kind")))
        if field == "user":
            new = rng.randrange(-1, N + 1)
        elif field == "subgroup":
            new = data.draw(st.sampled_from(tags + ["level:99", "extra"]))
        elif field == "round":
            new = data.draw(st.integers(0, 3))
        elif field == "kind":
            new = data.draw(st.sampled_from(("quad", "sign", "real")))
        elif obj.get("kind") == "real":
            value = obj["value"]
            new = data.draw(st.sampled_from((0.0, -value, 2.0 * value, value + 1.0, 1e300)))
        else:
            new = data.draw(st.integers(-2, 4))
        if "user" in obj or field == "round":  # a broadcast or the outcome gains a round
            lines[at] = written({**obj, field: new})
    elif op == "insert":
        at = boundary(data, rng, lines)
        side = data.draw(st.sampled_from((-1, 0)))
        neighbour = lines[min(max(at + side, 0), len(lines) - 1)][1]
        round_no, kind = (neighbour["round"], neighbour["kind"]) if "user" in neighbour else (1, "quad")
        value = {"quad": 1, "sign": -1, "real": 0.5}[kind]
        tag = data.draw(st.sampled_from(["level:99", "extra"] + tags))
        user = rng.randrange(N)
        line = {"round": round_no, "user": user, "subgroup": tag, "kind": kind, "value": value}
        lines.insert(at, written(line))
    else:
        payloads = [obj["broadcast"] for _, obj in lines if "broadcast" in obj] + [{"mu_hat1": 0.5}]
        payload = data.draw(st.sampled_from(payloads))
        at = boundary(data, rng, lines) if data.draw(st.booleans()) else rng.randrange(len(lines) + 1)
        lines.insert(at, written({"round": data.draw(st.integers(1, 2)), "broadcast": payload}))


def edited_transcripts(data):
    """A protocol's recorded transcript, edited one to three times; yields
    the protocol and the text after each edit."""
    protocol = data.draw(st.sampled_from(list(FLAGS)), label="protocol")
    lines = list(recorded(protocol))
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        edit(data, lines, protocol)
        yield protocol, "".join(line for line, _ in lines)


def gate_message(plan, transcript):
    """The gate's error through every round, in the analyst's order, or None."""
    try:
        for round_no in range(1, plan.rounds + 1):
            protocols._gate(plan, transcript, round_no)
    except MalformedInputError as exc:
        return str(exc)
    return None


def replayed(protocol: str, text: str) -> int:
    """Replay `text`, checking the gate against the reference gate; returns
    the exit code the command line must give: 0 when replay ends in the
    recorded outcome, 1 on ReplayMismatch, 2 on MalformedInputError."""
    config = public_config(protocol)
    try:
        transcript = Transcript.loads(text, protocol, N)
    except MalformedInputError:
        return 2
    plan = plan_partition(config, protocol)
    expected = reference_gate(plan, transcript_blocks(transcript))
    assert gate_message(plan, transcript) == expected
    try:
        outcome = replay_analyst(protocol, config, transcript)
    except ReplayMismatch:
        assert expected is None
        return 1
    except MalformedInputError as exc:
        assert transcript.outcome is None or str(exc) == expected
        return 2
    assert expected is None and outcome == transcript.outcome
    return 0


def command_line(protocol: str, text: str) -> tuple:
    """`ldpgauss replay` on `text`: its exit code and what it wrote to stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.jsonl"
        path.write_bytes(text.encode("ascii"))
        argv = ["replay", "--protocol", protocol, "--n", str(N), "--eps", "1", *FLAGS[protocol],
                "--transcript", str(path)]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    return code, stderr.getvalue()


class TestReplayUnderEdits:
    @pytest.mark.parametrize("protocol", list(FLAGS))
    def test_recorded_transcript_replays(self, protocol):
        text = "".join(line for line, _ in recorded(protocol))
        assert replayed(protocol, text) == 0
        assert command_line(protocol, text) == (0, "")

    def test_a_mismatch_exits_1_and_a_malformed_transcript_2(self):
        # kv2 with its first round-two sign flipped, and without its first line
        lines = [line for line, _ in recorded("kv2")]
        at = next(i for i, line in enumerate(lines) if '"subgroup":"refine"' in line)
        flipped = json.loads(lines[at])
        flipped["value"] = -flipped["value"]
        copies = (lines[:at] + [written(flipped)[0]] + lines[at + 1:], lines[1:])
        for edited, want in zip(copies, (1, 2)):
            text = "".join(edited)
            code, stderr = command_line("kv2", text)
            assert code == replayed("kv2", text) == want
            assert "Traceback" not in stderr

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_edited_transcript_ends_as_replay_allows(self, data):
        for protocol, text in edited_transcripts(data):
            replayed(protocol, text)

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_command_line_exits_as_replay_ends_without_traceback(self, data):
        *_, (protocol, text) = edited_transcripts(data)
        code, stderr = command_line(protocol, text)
        assert code == replayed(protocol, text)
        assert "Traceback" not in stderr
