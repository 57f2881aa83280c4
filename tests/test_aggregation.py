import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpgauss.aggregation import (
    MalformedInputError,
    debias_quad_counts,
    pair_adjacent_bins,
    quad_counts_from_values,
)
from ldpgauss.numerics import uniform_block
from ldpgauss.randomizers import rr1_values
from oracles import QuadReport, SignReport, agg1, kv_agg1, kv_agg2


def quad_reports(level_j, values):
    return [QuadReport(user_id=i, level_j=level_j, value=int(v)) for i, v in enumerate(values)]


class TestKVAgg1:
    def test_concentrated_counts_example(self):
        # eps = ln 3: scale (e+3)/(e-1) = 3, offset k/(e+3) = 1.
        reports = quad_reports(0, [0] * 6)
        hist = kv_agg1(math.log(3.0), 6, [0], reports)[0]
        np.testing.assert_allclose(hist, [15.0, -3.0, -3.0, -3.0], atol=1e-12)
        assert hist.sum() == pytest.approx(6.0, abs=1e-9)

    def test_uniform_profile_is_fixed_point(self):
        # eps = ln 5 makes e^eps + 3 = 8; k = 32 gives integer uniform counts.
        eps, k = math.log(5.0), 32
        values = [0, 1, 2, 3] * 8
        hist = kv_agg1(eps, k, [2], quad_reports(2, values))[2]
        np.testing.assert_allclose(hist, [8.0, 8.0, 8.0, 8.0], atol=1e-12)

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=200),
           st.floats(min_value=0.05, max_value=6.0))
    @settings(max_examples=100)
    def test_sum_identity(self, values, eps):
        k = len(values)
        hist = kv_agg1(eps, k, [1], quad_reports(1, values))[1]
        assert abs(hist.sum() - k) <= 1e-9 * max(1.0, k)

    def test_wrong_multiplicity_rejected(self):
        with pytest.raises(MalformedInputError):
            kv_agg1(1.0, 5, [0], quad_reports(0, [0, 1, 2]))
        with pytest.raises(MalformedInputError):
            kv_agg1(1.0, 2, [0, 1], quad_reports(0, [0, 1]))  # level 1 missing


class TestAgg1:
    def test_pairing_definition(self):
        bins = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(pair_adjacent_bins(bins), [3.0, 5.0, 7.0, 5.0])

    def test_uniform_quad_gives_half_k_pairs(self):
        eps, k = math.log(5.0), 32
        hist = agg1(eps, k, [0], quad_reports(0, [0, 1, 2, 3] * 8))[0]
        np.testing.assert_allclose(hist, [16.0] * 4, atol=1e-12)

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=100))
    @settings(max_examples=60)
    def test_paired_sum_is_twice_k(self, values):
        k = len(values)
        hist = agg1(1.0, k, [0], quad_reports(0, values))[0]
        assert abs(hist.sum() - 2.0 * k) <= 1e-9 * max(1.0, k)

    def test_pairs_match_quad_histogram(self):
        values = [0, 0, 1, 3, 2, 2, 2, 1]
        quad = kv_agg1(0.8, len(values), [5], quad_reports(5, values))[5]
        paired = agg1(0.8, len(values), [5], quad_reports(5, values))[5]
        np.testing.assert_allclose(paired, pair_adjacent_bins(quad), atol=1e-12)


class TestLevelMatrix:
    """Every level's histogram at once, as rows of one matrix, against one
    level at a time."""

    def test_rows_equal_per_level_dicts_bitwise(self):
        rng = np.random.default_rng(20)
        for eps, levels, k in ((1.0, 64, 1024), (0.3, 5, 17), (7.5, 1, 3)):
            values = rng.integers(0, 4, (levels, k))
            per_level = {j: debias_quad_counts(eps, k, quad_counts_from_values(row))
                         for j, row in enumerate(values)}
            paired = {j: pair_adjacent_bins(bins) for j, bins in per_level.items()}
            counts = quad_counts_from_values(values)
            assert counts.shape == (levels, 4)
            bins = debias_quad_counts(eps, k, counts)
            assert bins.tobytes() == np.array(list(per_level.values())).tobytes()
            assert pair_adjacent_bins(bins).tobytes() == np.array(list(paired.values())).tobytes()

    def test_random_tallies_match_bitwise(self):
        rng = np.random.default_rng(21)
        tallies = rng.integers(0, 10 ** 6, (200, 4)).astype(np.float64)
        for eps in (0.01, 1.0, 50.0):
            bins = debias_quad_counts(eps, 1000, tallies)
            rows = [debias_quad_counts(eps, 1000, row) for row in tallies]
            assert bins.tobytes() == np.array(rows).tobytes()
            assert pair_adjacent_bins(bins).tobytes() == np.array(
                [pair_adjacent_bins(row) for row in rows]).tobytes()

    @pytest.mark.parametrize("shape", [(5,), (64, 5), (64, 3), (4, 1), ()])
    def test_wrong_trailing_shape_rejected(self, shape):
        with pytest.raises(MalformedInputError):
            debias_quad_counts(1.0, 10, np.zeros(shape))

    @pytest.mark.parametrize("value", [-1, 4])
    def test_values_outside_the_alphabet_rejected(self, value):
        # in a matrix a 4 would otherwise count as the next row's 0
        values = np.zeros((3, 8), np.int64)
        values[1, 2] = value
        with pytest.raises(MalformedInputError):
            quad_counts_from_values(values)
        with pytest.raises(MalformedInputError):
            quad_counts_from_values(values[1])


class TestKVAgg2:
    def test_skewed_counts_example(self):
        # eps = ln 3: scale 2, offset k/(e+1) = 1; C = (4 pluses, 0 minuses).
        reports = [SignReport(user_id=i, value=1) for i in range(4)]
        hist = kv_agg2(math.log(3.0), 4, reports)
        assert hist[1] == pytest.approx(6.0, abs=1e-12)
        assert hist[0] == pytest.approx(-2.0, abs=1e-12)
        assert hist.sum() == pytest.approx(4.0, abs=1e-9)

    def test_balanced_counts_fixed_point(self):
        reports = [SignReport(user_id=i, value=1 if i % 2 else -1) for i in range(10)]
        hist = kv_agg2(1.3, 10, reports)
        np.testing.assert_allclose(hist, [5.0, 5.0], atol=1e-12)

    @given(st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=100),
           st.floats(min_value=0.05, max_value=6.0))
    @settings(max_examples=100)
    def test_sum_identity(self, values, eps):
        reports = [SignReport(user_id=i, value=v) for i, v in enumerate(values)]
        hist = kv_agg2(eps, len(values), reports)
        assert abs(hist.sum() - len(values)) <= 1e-9 * max(1.0, len(values))

    def test_wrong_count_rejected(self):
        with pytest.raises(MalformedInputError):
            kv_agg2(1.0, 3, [SignReport(user_id=0, value=1)])


class TestStatisticalProperties:
    def test_unbiasedness_of_quad_debias(self):
        # Fixed true values, many independent randomizations; the trial mean
        # of each debiased bin must sit within 4 standard errors of truth.
        eps, k, trials = 1.0, 500, 800
        truth = np.array([0] * 300 + [1] * 120 + [2] * 50 + [3] * 30)
        true_counts = quad_counts_from_values(truth)
        u = uniform_block(99, 0, np.arange(trials * k), first=2, count=2)
        vals = rr1_values(eps, np.tile(truth.astype(float), trials), 0,
                          u[:, 0], u[:, 1]).reshape(trials, k)
        per_trial = np.stack([
            debias_quad_counts(eps, k, np.bincount(vals[t], minlength=4)) for t in range(trials)
        ])
        for a in range(4):
            se = per_trial[:, a].std(ddof=1) / math.sqrt(trials)
            assert abs(per_trial[:, a].mean() - true_counts[a]) <= 4.0 * se

    def test_sup_norm_concentration(self):
        # ||H_hat - H||_inf within ((eps+4)/(eps sqrt 2)) sqrt(k ln(8L/beta))
        # in at least a 1-beta fraction of trials.
        eps, k, trials, levels, beta = 1.0, 1000, 1000, 4, 0.05
        bound = ((eps + 4.0) / (eps * math.sqrt(2.0))) * math.sqrt(k * math.log(8 * levels / beta))
        truth = np.array([0] * 550 + [1] * 300 + [2] * 100 + [3] * 50)
        true_counts = quad_counts_from_values(truth)
        u = uniform_block(100, 0, np.arange(trials * k), first=2, count=2)
        vals = rr1_values(eps, np.tile(truth.astype(float), trials), 0,
                          u[:, 0], u[:, 1]).reshape(trials, k)
        ok = 0
        for t in range(trials):
            bins = debias_quad_counts(eps, k, np.bincount(vals[t], minlength=4))
            if np.max(np.abs(bins - true_counts)) <= bound:
                ok += 1
        assert ok / trials >= 1.0 - beta
