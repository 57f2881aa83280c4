import math

import numpy as np
import pytest

from ldpgauss.aggregation import MalformedInputError
from ldpgauss.harness import (
    ExperimentSpec,
    audit_privacy_discrete,
    audit_privacy_laplace,
    default_audit_report,
    error_summary,
    fit_loglog_slope,
    run_trials,
    sample_population,
)
from ldpgauss.numerics import TrialStreams, hash_u64, uniform_block
from ldpgauss.protocols import ConfigError
from ldpgauss.randomizers import LatticeSpec, one_round_uv_rr2_log_density, uv_rr2_log_density
from oracles import discrete_audit_ratio


def kv2_spec(**overrides):
    base = dict(
        protocol="kv2", n_values=(4096,), eps_values=(1.0,), mu_values=(10.0,),
        sigma_values=(1.0,), trials=3, master_seed=5, k=256,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestErrorSummary:
    def test_median_of_three(self):
        assert error_summary([1.0, 2.0, 3.0])["p50"] == 2.0

    def test_constant_list(self):
        s = error_summary([4.0] * 17)
        assert s["p50"] == s["p90"] == s["p95"] == 4.0

    def test_uniform_median_concentrates(self):
        u = uniform_block(12, 0, np.arange(10_000), first=0, count=1)[:, 0]
        assert abs(error_summary(u)["p50"] - 0.5) <= 0.02

    def test_empty_rejected(self):
        with pytest.raises(MalformedInputError):
            error_summary([])

    def test_quantiles_are_order_statistics(self):
        values = list(range(1, 101))
        s = error_summary(values)
        assert s["p50"] == 50.0 and s["p90"] == 90.0 and s["p95"] == 95.0


class TestRunTrials:
    def test_single_trial_matches_direct_run(self):
        spec = kv2_spec(trials=1)
        [cell] = run_trials(spec)
        from ldpgauss.protocols import RUNNERS

        config = spec.config_for_cell(4096, 1.0, 10.0, 1.0)
        streams = TrialStreams(5, hash_u64(0, 0))
        samples = sample_population(config.truth, 4096, streams)
        outcome, _ = RUNNERS["kv2"](config, samples, streams)
        assert cell.errors[0] == abs(outcome.mu_hat2 - 10.0)
        assert cell.rows[0]["mu_hat2"] == outcome.mu_hat2

    def test_prefix_property_when_extending_trials(self):
        short = run_trials(kv2_spec(trials=3))[0]
        long = run_trials(kv2_spec(trials=6))[0]
        np.testing.assert_array_equal(short.errors, long.errors[:3])

    def test_cell_order_does_not_change_results(self):
        spec_a = kv2_spec(n_values=(4096, 8192), trials=2)
        spec_b = kv2_spec(n_values=(8192,), trials=2)
        cells_a = {c.n: c for c in run_trials(spec_a)}
        # Same cell coordinates but different cell index: trials differ, by design.
        # What must hold: rerunning the same spec reproduces identical errors.
        cells_a2 = {c.n: c for c in run_trials(spec_a)}
        for n in (4096, 8192):
            np.testing.assert_array_equal(cells_a[n].errors, cells_a2[n].errors)
        assert run_trials(spec_b)[0].errors.shape == (2,)

    def test_stats_fields(self):
        [cell] = run_trials(kv2_spec(trials=4))
        assert cell.quantiles["p50"] <= cell.quantiles["p90"] <= cell.quantiles["p95"]
        assert 0.0 <= cell.coverage_mu1 <= 1.0
        assert cell.coverage_sigma is None
        assert len(cell.rows) == 4

    def test_uv_spec_requires_bounds(self):
        with pytest.raises(ConfigError):
            kv2_spec(protocol="uv2")
        with pytest.raises(ConfigError):
            kv2_spec(sigma_bounds=(2.0, 16.0))

    def test_config_error_annotated_with_cell(self):
        spec = kv2_spec(n_values=(64,), k=4096)
        with pytest.raises(ConfigError, match="n=64"):
            run_trials(spec)

    def test_out_of_range_mu_warns(self):
        spec = kv2_spec(mu_values=(-3.0,), trials=1)
        with pytest.warns(UserWarning, match="searchable range"):
            run_trials(spec)


class TestDiscreteAudit:
    def test_rr1_ratio_is_exactly_exp_eps(self):
        for eps in (0.1, 0.5, 1.0, 2.0):
            ratio = audit_privacy_discrete("rr1", eps, [0.0, 1.0, 2.5, -4.0], {"level_j": 0})
            assert ratio == pytest.approx(math.exp(eps), abs=1e-9)

    def test_kv_rr2_ratio_is_exactly_exp_eps(self):
        ratio = audit_privacy_discrete(
            "kv_rr2", 1.0, [-3.0, 0.4, 2.0], {"mu_hat1": 0.3, "sigma": 1.0}
        )
        assert ratio == pytest.approx(math.e, abs=1e-9)

    def test_identical_distributions_give_ratio_one(self):
        # Inputs mapping to the same quad value cannot be told apart.
        ratio = audit_privacy_discrete("rr1", 1.0, [4.0, 4.2, 4.9], {"level_j": 0})
        assert ratio == pytest.approx(1.0, abs=1e-12)

    def test_one_round_kv_rr2(self):
        ratio = audit_privacy_discrete(
            "one_round_kv_rr2", 0.5, [-5.0, 0.0, 5.0, 10.0],
            {"lattice": LatticeSpec(0.7, 3.0), "sigma": 1.0},
        )
        assert ratio == pytest.approx(math.exp(0.5), abs=1e-9)

    def test_infinite_eps_rejected(self):
        with pytest.raises(ValueError):
            audit_privacy_discrete("rr1", math.inf, [0.0], {"level_j": 0})

    def test_unknown_randomizer_rejected(self):
        with pytest.raises(ValueError, match="unknown discrete randomizer"):
            audit_privacy_discrete("rr3", 1.0, [0.0], {})

    @pytest.mark.parametrize("eps", [0.1, 0.5, 1.0, 2.0, math.log(3.0), 7.5])
    @pytest.mark.parametrize("name,params", [
        ("rr1", {"level_j": 0}),
        ("rr1", {"level_j": -3}),
        ("kv_rr2", {"mu_hat1": 0.3, "sigma": 1.0}),
        ("one_round_kv_rr2", {"lattice": LatticeSpec(0.7, 3.0), "sigma": 1.0}),
    ])
    def test_grid_law_matches_closed_form_per_input(self, eps, name, params):
        # the law of the whole grid from the kernels' array maps gives the
        # ratio of the closed-form laws of one input at a time, bit for bit
        grid = list(np.linspace(-10.0, 10.0, 41)) + [0.35, 1.5 - 2.0 ** -40, -0.125]
        assert audit_privacy_discrete(name, eps, grid, params) == discrete_audit_ratio(
            name, eps, grid, params)


def clamped(eps, lo, hi):
    """uv_rr2's log-density as a function of (x, y)."""
    return lambda x, y: uv_rr2_log_density(eps, lo, hi, x, y)


class TestLaplaceAudit:
    def test_same_input_zero_ratio(self):
        got = audit_privacy_laplace(1.0, clamped(1.0, 0.0, 1.0), [(0.3, 0.3)], [0.0, 0.5, 2.0])
        assert got == 0.0

    def test_opposite_endpoints_saturate_eps(self):
        # y beyond an endpoint sees the full sensitivity |I|.
        got = audit_privacy_laplace(
            1.7, clamped(1.7, 0.0, 1.0), [(0.0, 1.0)], [-3.0, 0.0, 1.0, 5.0])
        assert got == pytest.approx(1.7, abs=1e-12)

    def test_clamping_collision_zero_ratio(self):
        got = audit_privacy_laplace(1.0, clamped(1.0, 0.0, 1.0), [(5.0, 99.0)], [0.2, 1.4])
        assert got == 0.0

    def test_infinite_eps_rejected(self):
        with pytest.raises(ValueError, match="finite positive eps"):
            audit_privacy_laplace(math.inf, clamped(1.0, 0.0, 1.0), [(0.0, 1.0)], [0.0])

    def test_lattice_variant_stays_below_eps(self):
        lattice = LatticeSpec(0.0, 4.0)
        pairs = [(a, b) for a in np.linspace(-6, 6, 9) for b in np.linspace(-6, 6, 9)]
        # Residuals at exact midpoints break ties upward, so the worst pair
        # only approaches opposite half-spacings: the doubled noise scale
        # keeps the log ratio strictly below eps/2.
        pairs.append((2.0, -2.0 + 1e-9))
        got = audit_privacy_laplace(
            2.0,
            lambda x, y: one_round_uv_rr2_log_density(2.0, lattice, 2.0 * lattice.spacing, x, y),
            pairs, np.linspace(-8, 8, 17),
        )
        assert got <= 1.0 + 1e-12
        assert got == pytest.approx(1.0, abs=1e-6)

    def test_default_report_all_ok(self):
        rows = default_audit_report([0.1, 0.5, 1.0, 2.0, math.log(3.0)])
        assert all(row["ok"] for row in rows)
        names = {row["randomizer"] for row in rows}
        assert names == {"rr1", "kv_rr2", "one_round_kv_rr2", "uv_rr2", "one_round_uv_rr2"}


class TestSlopeFit:
    def test_two_point_slope_matches_hand_formula(self):
        slope = fit_loglog_slope([1000, 4000], [0.1, 0.05])
        expected = (math.log(0.05) - math.log(0.1)) / (math.log(4000) - math.log(1000))
        assert slope == pytest.approx(expected, rel=1e-12)

    def test_single_point_absent(self):
        assert fit_loglog_slope([1000], [0.1]) is None
        assert fit_loglog_slope([1000, 1000], [0.1, 0.05]) is None
