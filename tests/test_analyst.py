import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpgauss.aggregation import MalformedInputError
from ldpgauss.analyst import (
    LevelPlan,
    est_mean,
    est_var,
    mean_search_threshold,
    refine_known_sigma,
    refine_pooled_kv,
    select_subgroup_kv,
    select_subgroup_uv,
    variance_threshold,
)
from ldpgauss.numerics import TrialStreams
from ldpgauss.protocols import RUNNERS, KnownSigma, ProtocolConfig, plan_partition
from ldpgauss.randomizers import LatticeSpec

from oracles import (
    brute_force_subgroup_kv,
    brute_force_subgroup_uv,
    est_mean_by_rows,
    est_var_by_rows,
    lattice_sign_plus_prob,
    noiseless_paired_hists,
    noiseless_quad_hists,
)


def as_bins(bins):
    return np.asarray(bins, dtype=float)


class TestEstMean:
    def test_single_level_hand_trace(self):
        # One level {0}, histogram (k,0,0,0): the level is concentrated, the
        # descent narrows once and falls below the bottom, and the final step
        # reads level 0's interval [0, 1]. Heaviest residues are 0 then 1,
        # so the largest matching interval point is 1.
        k = 1000
        plan = LevelPlan(l_min=0, l_max=0, k=k, beta=0.05, eps=1.0)
        hists = {0: as_bins([k, 0, 0, 0])}
        assert est_mean(0.05, 1.0, hists, k, plan) == 1.0

    def test_noiseless_zero_mean_within_two_sigma(self):
        k = 4000
        plan = LevelPlan(l_min=0, l_max=15, k=k, beta=0.05, eps=1.0)
        hists = noiseless_quad_hists(0.0, 1.0, plan)
        assert abs(est_mean(0.05, 1.0, hists, k, plan)) <= 2.0

    @pytest.mark.parametrize("mu", [0.0, 1.0, 5.5, 10.0, 37.25, 100.6, 1000.0, 31071.2])
    @pytest.mark.parametrize("sigma", [0.25, 1.0, 3.0])
    def test_noiseless_grid_within_two_sigma(self, mu, sigma):
        # The search range is [0, 2^l_max], so the level budget must cover mu.
        k = 4000
        l_min = math.floor(math.log2(sigma))
        l_max = max(l_min + 15, math.ceil(math.log2(max(mu, 1.0))))
        plan = LevelPlan(l_min=l_min, l_max=l_max, k=k, beta=0.05, eps=1.0)
        hists = noiseless_quad_hists(mu, sigma, plan)
        mu_hat = est_mean(0.05, 1.0, hists, k, plan)
        assert abs(mu_hat - mu) <= 2.0 * sigma

    def test_output_is_multiple_of_stop_scale_inside_interval(self):
        k = 4000
        plan = LevelPlan(l_min=0, l_max=15, k=k, beta=0.05, eps=1.0)
        for mu in [0.3, 7.9, 300.0, 12345.6]:
            hists = noiseless_quad_hists(mu, 1.0, plan)
            got = est_mean(0.05, 1.0, hists, k, plan)
            # Output is c * 2^j for some level j and integer c, inside [0, 2^l_max].
            assert 0.0 <= got <= 2.0 ** plan.l_max
            scaled = got / 2.0 ** plan.l_min
            assert scaled == int(scaled)

    def test_missing_level_rejected(self):
        plan = LevelPlan(l_min=0, l_max=1, k=10, beta=0.05, eps=1.0)
        with pytest.raises(MalformedInputError):
            est_mean(0.05, 1.0, {0: as_bins([10, 0, 0, 0])}, 10, plan)

    def test_unconcentrated_top_stops_immediately(self):
        # Max bin below 0.52k + psi: the search never descends, candidates
        # are {0, 1} at the top scale.
        k = 1000
        plan = LevelPlan(l_min=0, l_max=3, k=k, beta=0.05, eps=1.0)
        flat = [k / 4.0] * 4
        hists = {j: as_bins(flat) for j in plan.levels}
        got = est_mean(0.05, 1.0, hists, k, plan)
        assert got in (0.0, 2.0 ** 3)

    def test_descent_monotone_on_noiseless_histograms(self):
        # The estimate lands inside the top-level interval, which contains
        # every narrowed interval on the way down.
        k = 4000
        plan = LevelPlan(l_min=-2, l_max=13, k=k, beta=0.05, eps=1.0)
        for mu in [0.0, 2.25, 63.75, 1999.0]:
            hists = noiseless_quad_hists(mu, 0.5, plan)
            got = est_mean(0.05, 1.0, hists, k, plan)
            assert 0.0 <= got <= 2.0 ** plan.l_max


class TestEstVar:
    def test_every_level_concentrated_returns_bottom_scale(self):
        k = 1000
        plan = LevelPlan(l_min=-2, l_max=4, k=k, beta=0.05, eps=1.0)
        hists = {j: as_bins([2 * k, 2 * k, 0.0, 0.0]) for j in plan.levels}
        assert est_var(0.05, 1.0, hists, k, plan) == 2.0 ** -2

    def test_unconcentrated_top_returns_top_scale(self):
        k = 100_000
        plan = LevelPlan(l_min=0, l_max=4, k=k, beta=0.05, eps=1.0)
        threshold = 0.03 * k + variance_threshold(1.0, k, plan.count, 0.05)
        assert k / 2.0 > threshold  # flat histograms are genuinely unconcentrated
        hists = {j: as_bins([k / 2.0] * 4) for j in plan.levels}
        assert est_var(0.05, 1.0, hists, k, plan) == 2.0 ** 4

    def test_transition_level_wins(self):
        k = 100_000
        plan = LevelPlan(l_min=0, l_max=5, k=k, beta=0.05, eps=1.0)
        hists = {}
        for j in plan.levels:
            bins = [2 * k, 2 * k, 0.0, 0.0] if j >= 2 else [k / 2.0] * 4
            hists[j] = as_bins(bins)
        assert est_var(0.05, 1.0, hists, k, plan) == 4.0

    def test_noiseless_sigma_bracketing(self):
        # sigma_hat in [sigma, 8 sigma] on randomization-free histograms.
        k = 4000
        for sigma in [1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0]:
            l_min = math.floor(math.log2(min(sigma, 1.0))) - 2
            plan = LevelPlan(l_min=l_min, l_max=l_min + 15, k=k, beta=0.05, eps=1.0)
            hists = noiseless_paired_hists(100.0, sigma, plan)
            got = est_var(0.05, 1.0, hists, k, plan)
            assert sigma <= got <= 8.0 * sigma

    def test_missing_level_rejected(self):
        plan = LevelPlan(l_min=0, l_max=2, k=10, beta=0.05, eps=1.0)
        with pytest.raises(MalformedInputError):
            est_var(0.05, 1.0, {}, 10, plan)


class TestLevelWalks:
    """est_mean and est_var read every level's max, first argmax and min off
    one matrix; they must return what the walks with numpy's reductions on
    one histogram at a time return, bit for bit, ties going to the smaller
    index."""

    @staticmethod
    def matrices(kind, k, plan, rng):
        shape = (plan.count, 4)
        if kind == "random":
            return rng.uniform(0.0, 1.2 * k, shape)
        if kind == "tied":  # few distinct values, both thresholds among them
            mean_at = 0.52 * k + mean_search_threshold(1.0, k, plan.count, 0.05)
            var_at = 0.03 * k + variance_threshold(1.0, k, plan.count, 0.05)
            return rng.choice([0.0, var_at, mean_at, float(k), float(k)], shape)
        rows = rng.uniform(-0.2 * k, 1.2 * k, shape)  # non-finite bins too
        rows[rng.random(shape) < 0.05] = np.nan
        rows[rng.random(shape) < 0.05] = np.inf
        rows[rng.random(shape) < 0.05] = -np.inf
        return rows

    @pytest.mark.parametrize("kind", ["random", "tied", "non-finite"])
    def test_walks_match_the_walks_by_rows_bitwise(self, kind):
        rng = np.random.default_rng(["random", "tied", "non-finite"].index(kind))
        k = 1000
        for _ in range(400):
            l_min = int(rng.integers(-6, 4))
            plan = LevelPlan(l_min=l_min, l_max=l_min + int(rng.integers(0, 64)), k=k, beta=0.05, eps=1.0)
            rows = self.matrices(kind, k, plan, rng)
            hists = dict(zip(plan.levels, rows))
            for walk, by_rows in ((est_mean, est_mean_by_rows), (est_var, est_var_by_rows)):
                assert walk(0.05, 1.0, hists, k, plan).hex() == by_rows(0.05, 1.0, hists, k, plan).hex()

    def test_ties_go_to_the_smaller_index(self):
        # level 1 ties bins 1 and 3 at its max: the descent follows residue 1
        k = 1000
        plan = LevelPlan(l_min=0, l_max=1, k=k, beta=0.05, eps=1.0)
        hists = {1: as_bins([0, k, 0, k]), 0: as_bins([0, 0, k, k])}
        assert est_mean(0.05, 1.0, hists, k, plan) == est_mean_by_rows(0.05, 1.0, hists, k, plan) == 3.0


class TestRefineKnownSigma:
    def test_balanced_histogram_returns_center(self):
        hist = np.array([50.0, 50.0])
        assert refine_known_sigma(hist, 100, center=7.5, sigma=2.0) == 7.5

    def test_erf_roundtrip_argument(self):
        target = math.erf(1.0)
        hist = np.array([(1 - target) * 50, (1 + target) * 50])
        got = refine_known_sigma(hist, 100, center=3.0, sigma=2.0)
        assert got == pytest.approx(3.0 + 2.0 * math.sqrt(2.0), abs=1e-9)

    def test_zero_count_rejected(self):
        hist = np.array([0.0, 0.0])
        with pytest.raises(MalformedInputError):
            refine_known_sigma(hist, 0, 0.0, 1.0)

    @given(
        st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
        st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
    )
    @settings(max_examples=200)
    def test_translation_equivariance(self, center, delta):
        hist = np.array([30.0, 70.0])
        base = refine_known_sigma(hist, 100, center, 1.5)
        shifted = refine_known_sigma(hist, 100, center + delta, 1.5)
        assert shifted == pytest.approx(base + delta, rel=1e-12, abs=1e-9)

    def test_out_of_range_skew_saturates(self):
        hist = np.array([-20.0, 120.0])
        got = refine_known_sigma(hist, 100, 0.0, 1.0)
        assert math.isfinite(got)


class TestRefinePooledKV:
    SIGMA, RHO, K2 = 1.5, 4, 1000

    def lattices(self):
        spacing = self.RHO * self.SIGMA
        return {
            m: LatticeSpec(offset=0.2 * self.SIGMA * m, spacing=spacing)
            for m in range(1, 5 * self.RHO + 1)
        }

    def expected_tallies(self, mu, eps):
        tallies = {}
        for m, lattice in self.lattices().items():
            q = lattice_sign_plus_prob(mu, lattice.offset, lattice.spacing, self.SIGMA, eps)
            tallies[m] = [self.K2 * (1.0 - q), self.K2 * q]
        return tallies

    @pytest.mark.parametrize("eps", [0.5, 1.0, math.inf])
    @pytest.mark.parametrize("mu", [
        0.9 + 2 * 6.0,         # a point of subgroup 3's lattice
        0.9 + 2 * 6.0 + 3.0,   # midpoint between two of its lattice points
        0.9 + 2 * 6.0 + 1.5,   # midpoint of its upper half cell
        10.0, 37.25, -5.3, 1000.7,
    ])
    def test_exact_expected_counts_recover_mu(self, mu, eps):
        tallies = self.expected_tallies(mu, eps)
        spacing = self.RHO * self.SIGMA
        for start in (mu - 0.45 * spacing, mu, mu + 0.3 * spacing):
            got = refine_pooled_kv(tallies, self.lattices(), start, self.SIGMA, eps)
            assert abs(got - mu) <= 1e-9

    @given(
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        st.lists(st.integers(min_value=0, max_value=40), min_size=40, max_size=40),
    )
    @settings(max_examples=100, deadline=None)
    def test_total_and_inside_the_period(self, mu_hat1, counts):
        # Arbitrary tallies, including empty and all-one-sign subgroups.
        tallies = {m: counts[2 * (m - 1): 2 * m] for m in self.lattices()}
        got = refine_pooled_kv(tallies, self.lattices(), mu_hat1, self.SIGMA, 1.0)
        assert math.isfinite(got)
        assert abs(got - mu_hat1) <= 0.5 * self.RHO * self.SIGMA

    def test_mismatched_subgroups_rejected(self):
        tallies = self.expected_tallies(10.0, 1.0)
        del tallies[1]
        with pytest.raises(MalformedInputError):
            refine_pooled_kv(tallies, self.lattices(), 10.0, self.SIGMA, 1.0)

    def test_degenerate_kv1_run_without_randomization_is_finite(self):
        # The one-round counterpart of the kv2 degenerate run: with every
        # sample exactly mu and no randomization, each subgroup reports a
        # single sign, and the pooled estimate must stay finite and inside
        # the lattice period around the rough estimate.
        config = ProtocolConfig(
            eps=math.inf, beta=0.05, n=2 ** 12, variance_mode=KnownSigma(1.0), k1=256,
        )
        outcome, transcript = RUNNERS["kv1"](config, np.full(config.n, 10.0), TrialStreams(0, 0))
        plan = plan_partition(config, "kv1")
        groups = transcript.messages_by_subgroup()
        assert all(np.unique(groups[f"offset:{m}"][1]).size == 1 for m in plan.group_keys)
        assert abs(outcome.mu_hat1 - 10.0) <= 2.0
        assert math.isfinite(outcome.mu_hat2)
        assert abs(outcome.mu_hat2 - outcome.mu_hat1) <= 0.5 * plan.rho * plan.sigma


class TestSelectSubgroupKV:
    def test_exact_hit_at_group_covering_zero(self):
        # Offsets 0.2 sigma * m for m = 1..5 rho with lattice spacing rho sigma:
        # the top group's lattice contains 0, so it wins with distance 0.
        sigma, rho = 1.0, 3
        lattices = {
            m: LatticeSpec(offset=0.2 * sigma * m, spacing=rho * sigma)
            for m in range(1, 5 * rho + 1)
        }
        key, point = select_subgroup_kv(0.0, lattices)
        assert key == 15 and point == 0.0

    def test_exact_membership_wins(self):
        lattices = {1: LatticeSpec(0.3, 5.0), 2: LatticeSpec(1.7, 5.0)}
        key, point = select_subgroup_kv(1.7, lattices)
        assert key == 2 and point == 1.7

    def test_tie_goes_to_lower_key(self):
        lattices = {1: LatticeSpec(1.0, 10.0), 2: LatticeSpec(3.0, 10.0)}
        key, point = select_subgroup_kv(2.0, lattices)
        assert key == 1 and point == 1.0

    @given(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
    @settings(max_examples=300)
    def test_matches_brute_force(self, mu_hat1):
        sigma, rho = 1.0, 4
        offsets = {m: 0.2 * sigma * m for m in range(1, 5 * rho + 1)}
        lattices = {m: LatticeSpec(offset=o, spacing=rho * sigma) for m, o in offsets.items()}
        got = select_subgroup_kv(mu_hat1, lattices)
        expected = brute_force_subgroup_kv(mu_hat1, offsets, rho * sigma)
        assert got[0] == expected[0]
        assert got[1] == pytest.approx(expected[1], abs=1e-9)


class TestSelectSubgroupUV:
    def test_half_spacing_bound(self):
        plan = LevelPlan(l_min=0, l_max=6, k=10, beta=0.05, eps=1.0)
        j1, m, point = select_subgroup_uv(4.0, 0.0, plan, rho=5)
        assert j1 == 2
        assert abs(point - 0.0) <= 0.5 * 4.0

    def test_exact_offset_point(self):
        plan = LevelPlan(l_min=0, l_max=6, k=10, beta=0.05, eps=1.0)
        j1, m, point = select_subgroup_uv(4.0, 12.0, plan, rho=5)
        assert point == 12.0 and m == 3

    def test_non_power_of_two_rejected(self):
        plan = LevelPlan(l_min=0, l_max=6, k=10, beta=0.05, eps=1.0)
        with pytest.raises(ValueError):
            select_subgroup_uv(3.0, 0.0, plan, rho=5)

    def test_out_of_range_scale_rejected(self):
        plan = LevelPlan(l_min=0, l_max=2, k=10, beta=0.05, eps=1.0)
        with pytest.raises(ValueError):
            select_subgroup_uv(64.0, 0.0, plan, rho=5)

    @given(st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
    @settings(max_examples=300)
    def test_matches_brute_force(self, mu_hat1):
        plan = LevelPlan(l_min=0, l_max=8, k=10, beta=0.05, eps=1.0)
        got = select_subgroup_uv(4.0, mu_hat1, plan, rho=10)
        expected = brute_force_subgroup_uv(4.0, mu_hat1, rho=10)
        assert got[0] == expected[0] and got[1] == expected[1]
        assert got[2] == pytest.approx(expected[2], abs=1e-9)
        assert abs(got[2] - mu_hat1) <= 0.5 * 4.0 + 1e-12


class TestThresholds:
    def test_psi_formula(self):
        got = mean_search_threshold(1.0, 4000, 16, 0.05)
        expected = (5.0 / math.sqrt(2.0)) * math.sqrt(4000 * math.log(8 * 16 / 0.05))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_tau_formula(self):
        got = variance_threshold(1.0, 4000, 16, 0.05)
        expected = math.sqrt(2 * 4000 * math.log(2 * 16 / 0.05)) + 5.0 * math.sqrt(
            2 * 4000 * math.log(8 * 16 / 0.05)
        )
        assert got == pytest.approx(expected, rel=1e-12)
