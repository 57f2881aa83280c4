import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpgauss import protocols
from ldpgauss.aggregation import MalformedInputError
from ldpgauss.harness import sample_population
from ldpgauss.numerics import TrialStreams, erf_inv
from ldpgauss.protocols import (
    BoundedSigma,
    ConfigError,
    EstimateOutcome,
    KnownSigma,
    ProtocolConfig,
    ReplayMismatch,
    SimulationTruth,
    Transcript,
    plan_partition,
    replay_analyst,
)
from ldpgauss.protocols import RUNNERS
from ldpgauss.randomizers import LatticeSpec
from oracles import (
    kv_rr2,
    reference_dumps,
    reference_run,
    rr1,
    sample_gaussian,
    stream,
    template_dumps,
)


def make_config(protocol, n=2 ** 14, eps=1.0, mu=10.0, sigma=1.0, seed=3, **kwargs):
    if protocol in ("kv2", "kv1"):
        mode = KnownSigma(sigma)
    else:
        mode = BoundedSigma(kwargs.pop("sigma_min", 2.0), kwargs.pop("sigma_max", 16.0))
    return ProtocolConfig(
        eps=eps, beta=0.05, n=n, variance_mode=mode,
        truth=SimulationTruth(mu=mu, sigma=sigma), master_seed=seed, **kwargs,
    )


def assert_same_items(loaded, original):
    """The same items in the same order: broadcasts, and message blocks with
    the same round, tag, kind, and users and values of the same dtype and
    bits."""
    assert len(loaded._items) == len(original._items)
    for got, want in zip(loaded._items, original._items):
        if want[0] == "broadcast":
            assert got == want
            continue
        assert got[:4] == want[:4]
        for a, b in zip(got[4:], want[4:]):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert loaded.outcome == original.outcome


def run_once(protocol, config, trial=0):
    streams = TrialStreams(config.master_seed, trial)
    samples = sample_population(config.truth, config.n, streams)
    return RUNNERS[protocol](config, samples, streams)


class TestPlanPartition:
    def test_levels_from_k_override(self):
        config = make_config("kv2", n=2000, k=100, sigma=1.0)
        plan = plan_partition(config, "kv2")
        assert plan.level_plan.count == 10
        assert plan.level_plan.l_min == 0
        assert plan.level_plan.l_max == 9

    @pytest.mark.parametrize("protocol,size", [("kv2", "k"), ("kv2", "k1"), ("kv1", "k"), ("uv1", "k1")])
    def test_zero_level_size_rejected(self, protocol, size):
        # an explicit 0 is a size, not "unset": it must not fall back to the default
        config = make_config(protocol, n=4096, **{size: 0})
        with pytest.raises(ConfigError, match="must be positive"):
            plan_partition(config, protocol)

    def test_one_round_kv_constants_at_million_users(self):
        config = make_config("kv1", n=1_000_000, k1=2000)
        plan = plan_partition(config, "kv1")
        assert plan.rho == 8  # ceil(2 sqrt(ln 4e6))
        assert len(plan.group_keys) == 5 * 8
        assert plan.k2 == (1_000_000 // 2) // 40

    @pytest.mark.parametrize("protocol", ["kv2", "kv1", "uv2", "uv1"])
    def test_every_user_in_exactly_one_subgroup(self, protocol):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(2_000, 40_000)) * 2
            config = make_config(protocol, n=n, k1=int(rng.integers(200, 900)))
            try:
                plan = plan_partition(config, protocol)
            except ConfigError:
                continue
            seen = np.zeros(n, dtype=int)
            for block in plan.blocks:
                assert block.start >= 0
                seen[np.arange(block.start, block.start + block.count)] += 1
            assert seen.max() <= 1
            assert (seen == 0).sum() == plan.discarded

    @pytest.mark.parametrize("protocol", ["kv2", "kv1", "uv2", "uv1"])
    def test_block_params_follow_the_papers_formulas(self, protocol):
        # level blocks: the level j; kv1 subgroup m: the lattice 0.2 sigma m +
        # rho sigma Z with rho = ceil(2 sqrt(ln 4n)); uv1 subgroup (j, m): the
        # lattice m 2^j + rho 2^j Z with rho = ceil(sqrt(ln 4n) + 6), Laplace
        # numerator 2 rho 2^j, and reach spacing + 40 numerator / eps
        n, eps, sigma = 2 ** 16, 0.75, 1.5
        config = make_config(protocol, n=n, eps=eps, sigma=sigma, k1=2048)
        plan = plan_partition(config, protocol)
        refinements = []
        for block in plan.blocks:
            if block.kind == "quad":
                assert block.params == (block.key,) and block.tag == f"level:{block.key}"
            elif block.key is None:  # the broadcast and the round-two block
                assert block.params == ()
            else:
                refinements.append(block)
        assert [block.key for block in refinements] == list(plan.group_keys)
        for block in refinements:
            if protocol == "kv1":
                rho = math.ceil(2.0 * math.sqrt(math.log(4.0 * n)))
                assert block.params == (0.2 * sigma * block.key, rho * sigma)
            else:
                j, m = block.key
                rho = math.ceil(math.sqrt(math.log(4.0 * n)) + 6.0)
                offset, spacing, numerator = block.params
                assert (offset, spacing, numerator) == (m * 2.0 ** j, rho * 2.0 ** j, 2 * rho * 2.0 ** j)
                assert block.reach == spacing + 40.0 * (numerator / eps)
        assert bool(refinements) == (protocol in ("kv1", "uv1"))

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            make_config("kv2", n=2001)  # odd population
        with pytest.raises(ConfigError):
            plan_partition(make_config("kv2", n=10, k=100), "kv2")  # no room for a level
        with pytest.raises(ConfigError):
            # level budget cannot reach sigma_max's scale
            plan_partition(make_config("uv2", n=64, k1=16, sigma=3.0), "uv2")
        with pytest.raises(ConfigError):
            plan_partition(make_config("kv2"), "nope")

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_values_rejected(self, value):
        for build in (
            KnownSigma, lambda v: BoundedSigma(2.0, v),
            lambda v: SimulationTruth(v, 1.0), lambda v: SimulationTruth(0.0, v),
        ):
            with pytest.raises(ConfigError, match=str(value)):
                build(value)

    def test_mode_mismatch_is_config_error(self):
        with pytest.raises(ConfigError):
            plan_partition(make_config("kv2"), "uv2")
        with pytest.raises(ConfigError):
            plan_partition(make_config("uv2", sigma=3.0), "kv2")

    def test_bad_config_raises_on_every_call(self):
        # the plan cache keeps plans, never errors
        config = make_config("kv2", n=10, k=100)
        for _ in range(3):
            with pytest.raises(ConfigError, match="cannot fill one level"):
                plan_partition(config, "kv2")

    @pytest.mark.parametrize("protocol", sorted(RUNNERS))
    def test_equal_configs_spelled_differently_give_the_same_bits(self, protocol):
        # eps=1 and eps=1.0 are one cache key, so a run of either may get
        # the plan the other built; nothing it returns may tell them apart
        as_int = make_config(protocol, n=2 ** 12, eps=1, k1=256, sigma=3.0)
        as_float = make_config(protocol, n=2 ** 12, eps=1.0, k1=256, sigma=3.0)
        assert as_int == as_float
        plan_partition.cache_clear()
        fresh_outcome, fresh = run_once(protocol, as_float)
        plan_partition.cache_clear()
        assert type(plan_partition(as_int, protocol).eps) is int
        outcome, shared = run_once(protocol, as_float)
        assert type(plan_partition(as_float, protocol).eps) is int  # the int plan was reused
        assert repr(outcome.as_dict()) == repr(fresh_outcome.as_dict())
        assert shared.dumps() == fresh.dumps()

    def test_plan_is_deterministic(self):
        a = plan_partition(make_config("uv1", sigma=3.0), "uv1")
        b = plan_partition(make_config("uv1", sigma=3.0), "uv1")
        assert a == b

    @pytest.mark.parametrize("protocol,ignored", [
        ("kv2", "k1"), ("kv1", "k"), ("uv2", "k"), ("uv1", "k"),
    ])
    def test_k_beside_k1_rejected(self, protocol, ignored):
        # e.g. kv1 with k = 100 and k1 = 300 used to plan k1 = 300 silently
        config = make_config(protocol, n=2 ** 14, k=100, k1=300, sigma=3.0)
        with pytest.raises(ConfigError, match=f"would ignore {ignored}$"):
            plan_partition(config, protocol)

    @pytest.mark.parametrize("protocol,k2,discarded", [
        ("kv2", None, 0), ("kv1", 234, 2), ("uv2", None, 0), ("uv1", 102, 32),
    ])
    def test_refinement_subgroups_split_the_second_half(self, protocol, k2, discarded):
        # no size can be set for them: each takes floor(n/2 / subgroups) users
        with pytest.raises(TypeError):
            make_config(protocol, n=2 ** 14, k1=1024, k2=7, sigma=3.0)
        plan = plan_partition(make_config(protocol, n=2 ** 14, k1=1024, sigma=3.0), protocol)
        assert plan.k2 == k2
        if k2 is not None:
            assert k2 == (2 ** 14 // 2) // len(plan.group_keys)
        assert plan.discarded == discarded


class TestSamples:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("protocol", ["kv2", "kv1", "uv2", "uv1"])
    def test_non_finite_sample_rejected(self, protocol, value):
        # sign(nan) is -1, so a NaN sample would quietly report a sign
        config = make_config(protocol, k1=1024)
        streams = TrialStreams(3, 0)
        samples = sample_population(config.truth, config.n, streams)
        samples[config.n // 2:] = value
        with pytest.raises(ConfigError, match="samples must be finite"):
            RUNNERS[protocol](config, samples, streams)


class TestKVTwoRound:
    def test_degenerate_all_equal_samples_no_randomization(self):
        # With randomization off and every sample exactly mu, the rough
        # estimate lands within 2 sigma and every refinement sign is +1
        # (sign(0) convention), so the refinement saturates the inverse-erf
        # clamp rather than returning mu_hat1 unchanged.
        config = make_config("kv2", n=2 ** 12, eps=math.inf, k=256)
        samples = np.full(config.n, 10.0)
        outcome, transcript = RUNNERS["kv2"](config, samples, TrialStreams(0, 0))
        assert abs(outcome.mu_hat1 - 10.0) <= 2.0
        shift = math.sqrt(2.0) * erf_inv(1.0)
        expected_sign = 1.0 if 10.0 - outcome.mu_hat1 >= 0.0 else -1.0
        assert outcome.mu_hat2 == pytest.approx(outcome.mu_hat1 + expected_sign * shift)

    def test_same_seed_byte_identical_transcripts(self):
        config = make_config("kv2", k=512, seed=11)
        _, t1 = run_once("kv2", config)
        _, t2 = run_once("kv2", config)
        assert t1.dumps() == t2.dumps()

    def test_two_rounds_and_broadcast_minimality(self):
        config = make_config("kv2", k=512)
        outcome, transcript = run_once("kv2", config)
        assert transcript.rounds == {1, 2}
        broadcasts = transcript.broadcasts()
        assert len(broadcasts) == 1
        round_no, payload = broadcasts[0]
        assert round_no == 2 and set(payload) == {"mu_hat1"}
        assert payload["mu_hat1"] == outcome.mu_hat1

    def test_estimate_is_close_at_moderate_n(self):
        config = make_config("kv2", n=2 ** 16, k=2048, mu=10.0, sigma=1.0)
        outcome, _ = run_once("kv2", config)
        assert abs(outcome.mu_hat2 - 10.0) <= 0.1
        assert outcome.sigma_hat is None


class TestKVOneRound:
    def test_single_round_and_message_accounting(self):
        config = make_config("kv1", k1=512)
        outcome, transcript = run_once("kv1", config)
        plan = plan_partition(config, "kv1")
        assert transcript.rounds == {1}
        assert transcript.broadcasts() == []
        assert transcript.message_count == config.n - plan.discarded
        assert len(plan.group_keys) == 5 * plan.rho

    def test_discarded_subgroups_never_reach_aggregation(self):
        # Every refinement subgroup enters the pooled estimate, so one flipped
        # sign must be caught on replay whether its subgroup's lattice lies
        # nearest mu_hat1 or farthest from it; the discarded users never
        # report at all.
        config = make_config("kv1", k1=512)
        outcome, transcript = run_once("kv1", config)
        plan = plan_partition(config, "kv1")
        sigma = config.variance_mode.sigma
        distance = {
            m: abs(LatticeSpec(0.2 * sigma * m, plan.rho * sigma).nearest_points(outcome.mu_hat1)
                   - outcome.mu_hat1)
            for m in plan.group_keys
        }
        nearest = min(plan.group_keys, key=distance.__getitem__)
        farthest = max(plan.group_keys, key=distance.__getitem__)
        assert distance[nearest] < distance[farthest]
        lines = transcript.dumps().splitlines()

        def flip_first_sign_in(tag):
            out = []
            flipped = False
            for line in lines:
                obj = json.loads(line)
                if not flipped and obj.get("subgroup") == tag:
                    obj["value"] = -obj["value"]
                    flipped = True
                out.append(json.dumps(obj, separators=(",", ":")))
            assert flipped
            return Transcript.loads("\n".join(out) + "\n", "kv1", config.n)

        for m in (nearest, farthest):
            with pytest.raises(ReplayMismatch) as caught:
                replay_analyst("kv1", config, flip_first_sign_in(f"offset:{m}"))
            assert caught.value.name == "mu_hat2"

        level_end = plan.level_plan.count * plan.k1
        groups_end = plan.u2_start + len(plan.group_keys) * plan.k2
        discarded = np.concatenate([
            np.arange(level_end, plan.u2_start), np.arange(groups_end, config.n),
        ])
        assert discarded.size == plan.discarded > 0
        assert not np.isin(transcript.user_ids(), discarded).any()

    def test_incomplete_refinement_subgroup_rejected(self):
        config = make_config("kv1", k1=512)
        _, transcript = run_once("kv1", config)
        tag = f"offset:{plan_partition(config, 'kv1').group_keys[-1]}"
        lines = transcript.dumps().splitlines()
        drop = next(i for i, line in enumerate(lines) if json.loads(line).get("subgroup") == tag)
        truncated = Transcript.loads(
            "\n".join(lines[:drop] + lines[drop + 1:]) + "\n", "kv1", config.n)
        with pytest.raises(MalformedInputError):
            replay_analyst("kv1", config, truncated)

    def test_estimate_close_at_moderate_n(self):
        config = make_config("kv1", n=2 ** 16, k1=2048, mu=10.0, sigma=1.0)
        outcome, _ = run_once("kv1", config)
        assert abs(outcome.mu_hat2 - 10.0) <= 0.5


class TestUVTwoRound:
    def test_zero_noise_constant_samples_recovered_exactly(self):
        config = make_config("uv2", n=2 ** 12, eps=math.inf, k1=512, sigma=3.0)
        samples = np.full(config.n, 10.0)
        outcome, _ = RUNNERS["uv2"](config, samples, TrialStreams(0, 0))
        assert outcome.mu_hat2 == 10.0

    def test_sigma_hat_within_level_range(self):
        config = make_config("uv2", n=2 ** 14, k1=2048, sigma=3.0)
        plan = plan_partition(config, "uv2")
        for trial in range(5):
            outcome, _ = run_once("uv2", config, trial=trial)
            assert 2.0 ** plan.level_plan.l_min <= outcome.sigma_hat <= 2.0 ** plan.level_plan.l_max

    def test_broadcast_carries_only_the_interval(self):
        config = make_config("uv2", k1=2048, sigma=3.0)
        outcome, transcript = run_once("uv2", config)
        [(round_no, payload)] = transcript.broadcasts()
        assert round_no == 2
        assert set(payload) == {"interval_lo", "interval_hi"}
        assert payload["interval_lo"] < payload["interval_hi"]

    def test_estimate_close_at_moderate_n(self):
        config = make_config("uv2", n=2 ** 16, k1=8192, mu=10.0, sigma=3.0)
        outcome, _ = run_once("uv2", config)
        assert abs(outcome.mu_hat2 - 10.0) <= 2.0


class TestUVOneRound:
    def test_subgroup_structure(self):
        config = make_config("uv1", n=2 ** 15, k1=4096, sigma=3.0)
        plan = plan_partition(config, "uv1")
        outcome, transcript = run_once("uv1", config)
        assert len(plan.group_keys) == plan.level_plan.count * plan.rho
        assert transcript.rounds == {1}
        assert transcript.message_count == config.n - plan.discarded
        tags = {f"lattice:{j}:{m}" for j, m in plan.group_keys}
        seen = set(transcript.messages_by_subgroup())
        assert tags <= seen

    def test_zero_noise_constant_samples_recovered_exactly(self):
        config = make_config("uv1", n=2 ** 12, eps=math.inf, k1=512, sigma=3.0)
        samples = np.full(config.n, 8.0)
        outcome, _ = RUNNERS["uv1"](config, samples, TrialStreams(0, 0))
        assert outcome.mu_hat2 == 8.0

    def test_estimate_finite_and_reasonable(self):
        config = make_config("uv1", n=2 ** 16, k1=8192, mu=10.0, sigma=3.0)
        outcome, _ = run_once("uv1", config)
        assert math.isfinite(outcome.mu_hat2)
        assert abs(outcome.mu_hat2 - 10.0) <= 10.0


class TestScalarOpsMatchEngine:
    def test_kv2_engine_equals_per_user_scalar_composition(self):
        # The engine's vectorized path must produce, user for user, exactly
        # the reports that composing the scalar contract operations yields.
        config = make_config("kv2", n=64, k=8, seed=21)
        streams = TrialStreams(config.master_seed, 5)
        samples = sample_population(config.truth, config.n, streams)
        outcome, transcript = RUNNERS["kv2"](config, samples, streams)
        plan = plan_partition(config, "kv2")
        groups = transcript.messages_by_subgroup()

        for level_index, j in enumerate(plan.levels):
            users, values = groups[f"level:{j}"]
            for user, value in zip(users, values):
                user_stream = stream(streams, int(user))
                x = sample_gaussian(user_stream, config.truth.mu, config.truth.sigma)
                assert x == samples[int(user)]
                assert rr1(user_stream, config.eps, x, j).value == value
        users, values = groups["refine"]
        for user, value in zip(users, values):
            user_stream = stream(streams, int(user))
            x = sample_gaussian(user_stream, config.truth.mu, config.truth.sigma)
            rep = kv_rr2(user_stream, config.eps, x, outcome.mu_hat1, 1.0)
            assert rep.value == value


class TestEmissionByRuns:
    # chunks of 2^14 users cut through blocks of 1000 or 3000 users
    @pytest.mark.parametrize("protocol,kwargs", [
        ("kv2", dict(k=1000)),
        ("kv1", dict(k1=1000)),
        ("uv2", dict(k1=3000, sigma=3.0)),
        ("uv1", dict(k1=3000, sigma=3.0)),
    ])
    def test_runs_record_the_per_block_transcript(self, protocol, kwargs, monkeypatch):
        config = make_config(protocol, n=2 ** 16, **kwargs)
        streams = TrialStreams(config.master_seed, 0)
        samples = sample_population(config.truth, config.n, streams)
        _, want = reference_run(protocol, config, samples, streams)
        for chunk in (protocols._CHUNK, 7):  # 7: chunks end partial inside blocks
            monkeypatch.setattr(protocols, "_CHUNK", chunk)
            _, got = RUNNERS[protocol](config, samples, streams)
            assert got.dumps() == want.dumps()
            assert_same_items(got, want)

    # sha256 of dumps() at n = 2^12, as written by per-block emission
    @pytest.mark.parametrize("protocol,seed,digest", [
        ("kv2", 1, "afd11f3a181c6fb272d8d223f4b2c9792ed7f38a742a23b15d3515f1b5ada3a0"),
        ("kv2", 2, "4839a6b0efa48f3dc49e8477c7e4d2919eec2b65df644de152085dd81f49047c"),
        ("kv1", 1, "42b57fad888cdaeb4cec175d4e6f70944539d124a595058560fc6147db4484ce"),
        ("kv1", 2, "2c9b948211b9755c7d2ccade0d4026eefee1f082ecd18fbb42eb00b49941e7bb"),
        ("uv2", 1, "a0f9c30dbb73f2a498f3a431515363fc65c55dc571de8dafef9ae04ef9fd4943"),
        ("uv2", 2, "badcdd941d08d4d6443265fd6154faf59b42437001d37b062fde7969a5f7fc12"),
        ("uv1", 1, "f07ee6a985df72753a865c1ed80a4d121030f67fd622c8ab7916749de015d410"),
        ("uv1", 2, "184572c845b0f9bfde6f70a12b6aa6af6e398bce0bb999fd6be03060e02aa5f4"),
    ])
    def test_golden_transcript_digest(self, protocol, seed, digest):
        _, transcript = run_once(protocol, make_config(protocol, n=2 ** 12, seed=seed))
        assert hashlib.sha256(transcript.dumps().encode()).hexdigest() == digest


class TestTranscriptAndReplay:
    @pytest.mark.parametrize("protocol,kwargs", [
        ("kv2", dict(k=512)),
        ("kv1", dict(k1=512)),
        ("uv2", dict(k1=2048, sigma=3.0)),
        ("uv1", dict(k1=2048, sigma=3.0)),
    ])
    def test_replay_reproduces_outcome_bitwise(self, protocol, kwargs):
        config = make_config(protocol, **kwargs)
        outcome, transcript = run_once(protocol, config)
        # Replay must succeed without the simulation truth.
        public = ProtocolConfig(
            eps=config.eps, beta=config.beta, n=config.n,
            variance_mode=config.variance_mode, truth=None,
            k=config.k, k1=config.k1,
        )
        replayed = replay_analyst(protocol, public, Transcript.loads(transcript.dumps(), protocol, config.n))
        for field in dataclasses.fields(outcome):
            assert getattr(replayed, field.name) == getattr(outcome, field.name), field.name

    @pytest.mark.parametrize("protocol,kwargs,edit", [
        ("uv1", dict(k1=2048, sigma=3.0), "drop unselected lattice subgroup"),
        ("uv1", dict(k1=2048, sigma=3.0), "unselected lattice values 1e300"),
        ("kv2", dict(k=512), "drop broadcast"),
        ("uv2", dict(k1=2048, sigma=3.0), "drop broadcast"),
        ("kv2", dict(k=512), "broadcast after round two"),
        ("kv2", dict(k=512), "sign value -7"),
        ("kv2", dict(k=512), "sign value 1.5"),
        ("kv2", dict(k=512), "quad value 3.9"),
        ("kv2", dict(k=512), "quad value -1"),
        ("kv2", dict(k=512), "refine relabelled to round 1"),
        ("kv2", dict(k=512), "round given as a string"),
        ("kv2", dict(k=512), "user index 1.5"),
        ("kv2", dict(k=512), "line not an object"),
        ("kv2", dict(k=512), "outcome without mu_hat2"),
        ("kv2", dict(k=512), "broadcast not an object"),
        ("kv2", dict(k=512), "broadcast payload a string"),
        ("kv2", dict(k=512), "broadcast payload as a list of pairs"),
        ("kv2", dict(k=512), "broadcast with an extra note"),
        ("kv2", dict(k=512), "a broadcast line with default separators"),
        ("kv1", dict(k1=512), "unplanned subgroup"),
        ("kv2", dict(k=512), "users swapped between two level blocks"),
        ("kv2", dict(k=512), "level user swapped with a refine user"),
        ("kv1", dict(k1=512), "level user replaced by a discarded user"),
        ("uv1", dict(k1=2048, sigma=3.0), "users swapped between two level blocks"),
        ("kv2", dict(k=512), "two lines swapped inside one block"),
        ("kv2", dict(k=512), "round true on the first line"),
        ("kv2", dict(k=512), "round 1.0 on every level:0 line"),
        ("kv2", dict(k=512), "value true for each +1 sign"),
        ("kv2", dict(k=512), "a message line with default separators"),
        ("kv2", dict(k=512), "broadcast round 2.0"),
        ("kv2", dict(k=512), "outcome line deleted"),
        ("kv2", dict(k=512), "outcome line moved to the top"),
        ("kv2", dict(k=512), "wrong outcome line before the real one"),
        ("kv2", dict(k=512), "outcome with an extra note"),
        ("kv2", dict(k=512), "an outcome line with default separators"),
        ("kv2", dict(k=512), "outcome keys in reverse order"),
        ("kv2", dict(k=512), "outcome mu_hat1 spelled as an integer"),
        ("kv2", dict(k=512), "broadcast mu_hat1 spelled as an integer"),
        ("kv2", dict(k=512), "a line of deeply nested lists"),
        ("kv2", dict(k=512), "a blank line at the top"),
        ("kv2", dict(k=512), "a blank line inside a level block"),
        ("kv2", dict(k=512), "a spaces-only line before the outcome"),
        ("kv2", dict(k=512), "blank lines after the outcome"),
        ("kv2", dict(k=512), "trailing spaces after the outcome"),
    ])
    def test_transcript_no_run_could_produce_rejected(self, protocol, kwargs, edit):
        config = make_config(protocol, **kwargs)
        outcome, transcript = run_once(protocol, config)
        lines = [json.loads(line) for line in transcript.dumps().splitlines()]
        plan = plan_partition(config, protocol)

        def set_first(kind, value):
            next(obj for obj in lines if obj.get("kind") == kind)["value"] = value
            return lines

        def first_of(tag):
            return next(obj for obj in lines if obj.get("subgroup") == tag)

        def swap_users(a, b):
            a["user"], b["user"] = b["user"], a["user"]
            return lines

        def swap_lines(i, j):
            lines[i], lines[j] = lines[j], lines[i]
            return lines

        levels = [f"level:{j}" for j in plan.levels]

        if protocol == "uv1":
            selected = outcome.plan_summary["selected"]
            selected = plan.subgroup_tag((selected["level"], selected["subgroup"]))
            tag = next(plan.subgroup_tag(key) for key in plan.group_keys
                       if plan.subgroup_tag(key) != selected)
        edits = {
            "drop unselected lattice subgroup": lambda: [
                obj for obj in lines if obj.get("subgroup") != tag],
            "unselected lattice values 1e300": lambda: [
                dict(obj, value=1e300) if obj.get("subgroup") == tag else obj for obj in lines],
            "drop broadcast": lambda: [obj for obj in lines if "broadcast" not in obj],
            "broadcast after round two": lambda: (
                [obj for obj in lines[:-1] if "broadcast" not in obj]
                + [obj for obj in lines if "broadcast" in obj] + lines[-1:]),
            "sign value -7": lambda: set_first("sign", -7),
            "sign value 1.5": lambda: set_first("sign", 1.5),
            "quad value 3.9": lambda: set_first("quad", 3.9),
            "quad value -1": lambda: set_first("quad", -1),
            "refine relabelled to round 1": lambda: [
                dict(obj, round=1) if obj.get("subgroup") == "refine" else obj for obj in lines],
            "round given as a string": lambda: [dict(lines[0], round="1")] + lines[1:],
            "user index 1.5": lambda: [dict(lines[0], user=1.5)] + lines[1:],
            "line not an object": lambda: [[1, 2]] + lines[1:],
            "outcome without mu_hat2": lambda: lines[:-1] + [{"outcome": {
                k: v for k, v in lines[-1]["outcome"].items() if k != "mu_hat2"}}],
            "broadcast not an object": lambda: [
                dict(obj, broadcast=[1, 2]) if "broadcast" in obj else obj for obj in lines],
            "broadcast payload a string": lambda: [
                dict(obj, broadcast="x") if "broadcast" in obj else obj for obj in lines],
            "broadcast payload as a list of pairs": lambda: [
                dict(obj, broadcast=[list(pair) for pair in obj["broadcast"].items()])
                if "broadcast" in obj else obj for obj in lines],
            "broadcast with an extra note": lambda: [
                dict(obj, note=1) if "broadcast" in obj else obj for obj in lines],
            "unplanned subgroup": lambda: lines[:-1] + [{
                "round": 1, "subgroup": "offset:0", "kind": "sign", "value": 1,
                "user": int(np.setdiff1d(np.arange(config.n), transcript.user_ids())[0]),
            }] + lines[-1:],
            "users swapped between two level blocks": lambda: swap_users(
                first_of(levels[0]), first_of(levels[-1])),
            "level user swapped with a refine user": lambda: swap_users(
                first_of(levels[1]), first_of("refine")),
            "level user replaced by a discarded user": lambda: [dict(
                lines[0], user=int(np.setdiff1d(np.arange(config.n), transcript.user_ids())[-1]),
            )] + lines[1:],
            "two lines swapped inside one block": lambda: swap_lines(1, 2),
            "round true on the first line": lambda: [dict(lines[0], round=True)] + lines[1:],
            "round 1.0 on every level:0 line": lambda: [
                dict(obj, round=1.0) if obj.get("subgroup") == "level:0" else obj for obj in lines],
            "value true for each +1 sign": lambda: [
                dict(obj, value=True) if obj.get("kind") == "sign" and obj["value"] == 1 else obj
                for obj in lines],
            "broadcast round 2.0": lambda: [
                dict(obj, round=2.0) if "broadcast" in obj else obj for obj in lines],
            "outcome line deleted": lambda: lines[:-1],
            "outcome line moved to the top": lambda: lines[-1:] + lines[:-1],
            "wrong outcome line before the real one": lambda: lines[:-1] + [{"outcome": dict(
                lines[-1]["outcome"], mu_hat2=lines[-1]["outcome"]["mu_hat2"] + 1.0)}] + lines[-1:],
            "outcome with an extra note": lambda: lines[:-1] + [{"outcome": dict(
                lines[-1]["outcome"], note="edited")}],
            # kv2's mu_hat1 is a whole number: c * 2^j with l_min = 0
            "outcome keys in reverse order": lambda: lines[:-1] + [{"outcome": dict(
                reversed(lines[-1]["outcome"].items()))}],
            "outcome mu_hat1 spelled as an integer": lambda: lines[:-1] + [{"outcome": dict(
                lines[-1]["outcome"], mu_hat1=int(lines[-1]["outcome"]["mu_hat1"]))}],
            "broadcast mu_hat1 spelled as an integer": lambda: [
                dict(obj, broadcast={"mu_hat1": int(obj["broadcast"]["mu_hat1"])})
                if "broadcast" in obj else obj for obj in lines],
            # a str stands for a line already spelled
            "a message line with default separators": lambda: [json.dumps(lines[0])] + lines[1:],
            "a broadcast line with default separators": lambda: [
                json.dumps(obj) if "broadcast" in obj else obj for obj in lines],
            "an outcome line with default separators": lambda: lines[:-1] + [json.dumps(lines[-1])],
            "a line of deeply nested lists": lambda: (
                lines[:-1] + ["[" * 10 ** 5 + "]" * 10 ** 5] + lines[-1:]),
            # the writer writes no blank line, and nothing after the outcome's newline
            "a blank line at the top": lambda: [""] + lines,
            "a blank line inside a level block": lambda: lines[:1] + [""] + lines[1:],
            "a spaces-only line before the outcome": lambda: lines[:-1] + ["   "] + lines[-1:],
            "blank lines after the outcome": lambda: lines + ["", "", ""],
            "trailing spaces after the outcome": lambda: lines + ["  "],
        }
        text = "\n".join(
            obj if isinstance(obj, str) else json.dumps(obj, separators=(",", ":"))
            for obj in edits[edit]()
        ) + "\n"
        assert text != transcript.dumps()
        with pytest.raises(MalformedInputError):
            replay_analyst(protocol, config, Transcript.loads(text, protocol, config.n))

    @pytest.mark.parametrize("protocol,kwargs", [
        ("kv2", dict(k=512)),
        ("kv1", dict(k1=512)),
        ("uv2", dict(k1=2048, sigma=3.0)),
        ("uv1", dict(k1=2048, sigma=3.0)),
    ])
    def test_block_writer_matches_reference_and_reads_back(
        self, protocol, kwargs, tmp_path, monkeypatch
    ):
        config = make_config(protocol, **kwargs)
        _, transcript = run_once(protocol, config)
        text = transcript.dumps()
        assert text == reference_dumps(transcript)
        transcript.dump(tmp_path / "t.jsonl")
        assert (tmp_path / "t.jsonl").read_bytes() == text.encode("ascii")
        assert_same_items(Transcript.loads(text, protocol, config.n), transcript)
        # blocks written in many slices and read in many windows
        monkeypatch.setattr(protocols, "_SLICE", 7)
        monkeypatch.setattr(protocols, "_WINDOW", 1000)
        assert transcript.dumps() == text
        assert_same_items(Transcript.loads(text, protocol, config.n), transcript)

    @pytest.mark.parametrize("protocol,kwargs", [
        ("kv2", dict(k=512)),
        ("kv1", dict(k1=512)),
        ("uv2", dict(k1=2048, sigma=3.0)),
        ("uv1", dict(k1=2048, sigma=3.0)),
    ])
    def test_transcript_without_final_newline_rejected(self, protocol, kwargs):
        config = make_config(protocol, **kwargs)
        _, transcript = run_once(protocol, config)
        with pytest.raises(MalformedInputError, match="newline"):
            Transcript.loads(transcript.dumps()[:-1], protocol, config.n)

    def test_extreme_reals_write_and_read_back(self):
        transcript = Transcript("uv2", 16)
        transcript.add_messages(1, "level:1", "quad", np.arange(3), np.array([0, 3, 2]))
        transcript.add_broadcast(2, {"interval_lo": -1.5, "interval_hi": 2.5})
        reals = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, -1e300, 5e-324, 0.1, 1e16, 1e-5]
        transcript.add_messages(2, "refine", "real", np.arange(8, 8 + len(reals)), np.array(reals))
        transcript.outcome = EstimateOutcome("uv2", 0.5, 2.0, math.inf)
        text = transcript.dumps()
        assert text == reference_dumps(transcript)
        assert ('"value":NaN}' in text and '"value":-Infinity}' in text
                and '"value":-0.0}' in text and '"value":5e-324}' in text)
        loaded = Transcript.loads(text, "uv2", 16)
        assert_same_items(loaded, transcript)
        assert loaded.dumps() == text

    @pytest.mark.parametrize("line", [
        '{"round":1,"user":01,"subgroup":"refine","kind":"real","value":0.5}',
        '{"round":1,"user":-0,"subgroup":"refine","kind":"real","value":0.5}',
        '{"round":1,"user":1,"subgroup":"refine","kind":"real","value":0.50}',
        '{"round":1,"user":1,"subgroup":"refine","kind":"real","value":5e-1}',
        '{"round":1,"user":1,"subgroup":"refine","kind":"real","value":1}',
        '{"round":1,"user":1,"subgroup":"refine","kind":"real","value":nan}',
        '{"round":1,"user":1,"subgroup":"refine","kind":"real","value":0.1000000000000000055}',
        '{"round":1,"user":1,"subgroup":"refine","kind":"sign","value":1.0}',
        '{"round":1,"user":007,"subgroup":"refine","kind":"sign","value":1}',
        '{"round":1,"user":1,"subgroup":"refine","kind":"sign","value":+1}',
        '{"round":1,"user":1,"subgroup":"re\\u0066ine","kind":"sign","value":1}',
        '{"round":1,"user":1,"kind":"sign","subgroup":"refine","value":1}',
        '{"round":1,"user":1,"subgroup":"refine","kind":"sign","value":1} ',
    ])
    def test_message_spelled_otherwise_rejected(self, line):
        good = '{"round":1,"user":0,"subgroup":"refine","kind":"sign","value":-1}\n'
        for text in (line + "\n", good + line + "\n", line + "\n" + good):
            with pytest.raises(MalformedInputError):
                Transcript.loads(text, "kv2", 16)
        assert Transcript.loads(good * 2, "kv2", 16).message_count == 2

    @pytest.mark.parametrize("where", [0, 0.5, -1])
    def test_respelled_real_in_a_run_of_blocks_rejected(self, where, monkeypatch):
        # the reader checks real values' spelling a run of blocks at a time;
        # "0" after a value keeps its characters, and its value unless it
        # has an exponent, but is not how the writer spells it
        config = make_config("uv1", k1=2048, sigma=3.0)
        _, transcript = run_once("uv1", config)
        lines = transcript.dumps().splitlines(True)
        reals = [i for i, line in enumerate(lines) if '"kind":"real"' in line]
        i = reals[int(where * (len(reals) - 1))]
        lines[i] = lines[i].replace("}\n", "0}\n")
        for slice_lines, window in ((protocols._SLICE, protocols._WINDOW), (7, 1000)):
            monkeypatch.setattr(protocols, "_SLICE", slice_lines)
            monkeypatch.setattr(protocols, "_WINDOW", window)
            for text in ("".join(lines), "".join(lines[:-1])):  # with and without the outcome
                with pytest.raises(MalformedInputError, match="not spelled as written"):
                    Transcript.loads(text, "uv1", config.n)

    def test_mutated_value_detected(self):
        config = make_config("kv2", k=512)
        _, transcript = run_once("kv2", config)
        lines = transcript.dumps().splitlines()
        for i, line in enumerate(lines):
            obj = json.loads(line)
            if obj.get("kind") == "sign":
                obj["value"] = -obj["value"]
                lines[i] = json.dumps(obj, separators=(",", ":"))
                break
        mutated = Transcript.loads("\n".join(lines) + "\n", "kv2", config.n)
        with pytest.raises(ReplayMismatch):
            replay_analyst("kv2", config, mutated)

    def test_truncated_transcript_rejected(self):
        config = make_config("kv2", k=512)
        _, transcript = run_once("kv2", config)
        lines = transcript.dumps().splitlines()
        truncated = Transcript.loads("\n".join(lines[: len(lines) // 2]) + "\n", "kv2", config.n)
        with pytest.raises(MalformedInputError):
            replay_analyst("kv2", config, truncated)

    def test_duplicate_user_rejected(self):
        t = Transcript("kv2", 10)
        t.add_messages(1, "level:0", "quad", np.array([1, 1]), np.array([0, 1]))
        with pytest.raises(MalformedInputError):
            t.validate(max_rounds=2)

    @pytest.mark.parametrize("users", [[-1, 0], [0, 10], [0.0, 1.0]])
    def test_bad_user_index_rejected(self, users):
        t = Transcript("kv2", 10)
        t.add_messages(1, "level:0", "quad", np.array(users), np.array([0, 1]))
        with pytest.raises(MalformedInputError):
            t.validate(max_rounds=2)

    def test_round_bound_enforced(self):
        t = Transcript("kv1", 10)
        t.add_messages(2, "offset:1", "sign", np.array([0]), np.array([1]))
        with pytest.raises(MalformedInputError):
            t.validate(max_rounds=1)

    def test_file_roundtrip(self, tmp_path):
        config = make_config("uv2", k1=2048, sigma=3.0)
        _, transcript = run_once("uv2", config)
        path = tmp_path / "transcript.jsonl"
        transcript.dump(path)
        loaded = Transcript.load(path, "uv2", config.n)
        assert loaded.dumps() == transcript.dumps()
        assert loaded.outcome == transcript.outcome


# Integers either side of each 4-digit group boundary the writer spells, up
# to the 15 digits a transcript reader accepts.
DIGIT_BOUNDARIES = [0, 1, 9, 10, 999, 1000, 9999, 10 ** 4, 99999999, 10 ** 8, 10 ** 12, 10 ** 15 - 1]
SPECIAL_REALS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e-5, 0.1, -1e300]


@st.composite
def hand_built_transcripts(draw):
    """Message blocks of any round, kind and tag, integer arrays of several
    dtypes, empty blocks, and broadcasts between them."""
    ints = st.one_of(
        st.sampled_from(DIGIT_BOUNDARIES + [-b for b in DIGIT_BOUNDARIES]),
        st.integers(-(10 ** 15) + 1, 10 ** 15 - 1),
    )
    reals = st.one_of(st.sampled_from(SPECIAL_REALS), st.floats())
    int_dtypes = st.sampled_from([np.int64, np.int32, np.uint64, np.float64])

    def with_int_dtype(array):
        dtype = draw(int_dtypes)  # unsigned only for magnitudes, as a reader reads them back
        return (np.abs(array) if dtype == np.uint64 else array).astype(dtype)

    transcript = Transcript("kv2", 16)
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 4)) == 0:
            transcript.add_broadcast(draw(st.integers(1, 2)), {"mu_hat1": draw(st.floats(-1e9, 1e9))})
            continue
        kind = draw(st.sampled_from(["quad", "sign", "real"]))
        size = draw(st.integers(0, 9))
        users = np.array(draw(st.lists(ints, min_size=size, max_size=size)), dtype=np.int64)
        if kind == "real":
            values = np.array(draw(st.lists(reals, min_size=size, max_size=size)), dtype=np.float64)
        else:
            values = with_int_dtype(
                np.array(draw(st.lists(ints, min_size=size, max_size=size)), dtype=np.int64))
        tag = draw(st.sampled_from(["level:1", "refine", 'a "quoted"\\tag\t\u00e9\x00', ""]))
        transcript.add_messages(draw(st.integers(0, 12)), tag, kind, with_int_dtype(users), values)
    return transcript


def assert_same_text(got: str, want: str) -> None:
    """Equal texts; a failure names the first differing line instead of
    diffing megabytes."""
    if got != want:
        for number, (a, b) in enumerate(zip(got.splitlines(True), want.splitlines(True)), 1):
            if a != b:
                pytest.fail(f"line {number}: {a!r} != {b!r}")
        pytest.fail(f"{len(got)} characters != {len(want)}")


class TestMessageLines:
    """The array writer against the template writer it replaced."""

    # the golden digests run at n = 2^12, so spell user ids of up to 4 digits
    @pytest.mark.parametrize("protocol,n,kwargs", [
        ("kv2", 2 ** 17, dict(k1=2 ** 13)),
        ("kv1", 2 ** 17, dict(k1=2 ** 13)),
        ("uv2", 2 ** 17, dict(k1=2 ** 13, sigma=3.0)),
        ("uv1", 2 ** 17, dict(k1=1024, sigma=3.0)),
        ("kv2", 2 ** 20, dict(k1=2 ** 16)),
        ("uv2", 2 ** 20, dict(k1=2 ** 16, sigma=3.0)),
    ])
    def test_runs_match_the_template_writer(self, protocol, n, kwargs):
        _, transcript = run_once(protocol, make_config(protocol, n=n, **kwargs))
        if protocol == "uv1":
            assert len(transcript._items) == 704
        assert_same_text(transcript.dumps(), template_dumps(transcript))

    def test_boundaries_dtypes_and_escapes_match_the_template_writer(self, monkeypatch):
        transcript = Transcript("kv2", 16)
        ints = np.array(DIGIT_BOUNDARIES + [-b for b in DIGIT_BOUNDARIES])
        transcript.add_messages(1, "level:0", "sign", ints, -ints)
        int32 = np.array([0, 9, 10, 9999, 10 ** 4, 99999999, 10 ** 8, 2 ** 31 - 1], np.int32)
        transcript.add_messages(1, "level:0", "sign", int32, -int32 - 1)
        transcript.add_messages(1, "level:0", "sign", np.array([], np.int64), np.array([], np.int64))
        uints = np.array([0, 10 ** 4, 2 ** 63, 2 ** 64 - 1], np.uint64)
        transcript.add_messages(1, "level:0", "sign", uints, np.array([3, 0, 1, 2], np.uint8))
        # float-dtype integer blocks are spelled as int() spells them
        floats = np.array([10.0, 9999.0, 1e15 - 1, 5.0, 7.0, 8.0])
        transcript.add_messages(1, "level:1", "quad", floats, np.array([2.0, -3.0, 2.5, -0.5, -2.5, 1e300]))
        transcript.add_messages(1, 'tab\t "quote" back\\slash \u00e9 \x00 \u2028', "quad", ints[:3], ints[:3])
        transcript.add_broadcast(2, {"interval_lo": -1.5, "interval_hi": 2.5})
        reals = np.array(SPECIAL_REALS)
        transcript.add_messages(2, "refine", "real", np.arange(reals.size) * 99999999, reals)
        transcript.add_messages(2, "refine", "real", np.array([], np.int64), np.array([]))
        transcript.outcome = EstimateOutcome("uv2", 0.5, None, -math.inf)
        text = transcript.dumps()
        assert text == template_dumps(transcript) == reference_dumps(transcript)
        for lines in (1, 3, 7):  # slices that cut through blocks and runs
            monkeypatch.setattr(protocols, "_SLICE", lines)
            assert transcript.dumps() == text

    @settings(max_examples=200, deadline=None)
    @given(transcript=hand_built_transcripts(), lines=st.integers(1, 8), window=st.integers(1, 400))
    def test_hand_built_transcripts_match_the_template_writer_and_read_back(
        self, transcript, lines, window
    ):
        text = template_dumps(transcript)
        assert transcript.dumps() == text
        assert Transcript.loads(text, "kv2", 16).dumps() == text
        with pytest.MonkeyPatch.context() as patch:  # slices and windows that cut through runs
            patch.setattr(protocols, "_SLICE", lines)
            patch.setattr(protocols, "_WINDOW", window)
            assert transcript.dumps() == text
            assert Transcript.loads(text, "kv2", 16).dumps() == text
