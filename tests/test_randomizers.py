import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpgauss.numerics import floor_div_mod4_array, uniform_block
from ldpgauss.randomizers import (
    LatticeSpec,
    one_round_uv_rr2_values,
    quad_keep_prob,
    rr1_values,
    sign_keep_prob,
    sign_rr_values,
    sign_with_positive_zero,
    uv_rr2_values,
)
from oracles import (
    QuadReport,
    RandomStream,
    SignReport,
    kv_rr2,
    one_round_kv_rr2,
    one_round_uv_rr2,
    rr1,
    rr1_distribution,
    sign_rr_distribution,
    uv_rr2,
    uv_rr2_log_density,
)


def nearest_point_oracle(lattice: LatticeSpec, x: float, b_window: int = 60) -> float:
    """Brute-force scan over lattice indices; ties go to the lower point."""
    b0 = int(round((x - lattice.offset) / lattice.spacing))
    best = None
    for b in range(b0 - b_window, b0 + b_window + 1):
        point = lattice.offset + b * lattice.spacing
        dist = abs(x - point)
        if best is None or dist < best[0] - 1e-15 or (abs(dist - best[0]) <= 1e-15 and point < best[1]):
            best = (dist, point)
    return best[1]


class TestRR1:
    def test_keep_prob_at_ln3(self):
        dist = rr1_distribution(math.log(3.0), x=5.0, level_j=0)
        assert dist[1] == pytest.approx(0.5, abs=1e-15)
        for a in (0, 2, 3):
            assert dist[a] == pytest.approx(1.0 / 6.0, abs=1e-15)
        assert quad_keep_prob(math.log(3.0)) == pytest.approx(0.5, abs=1e-15)

    def test_huge_eps_never_flips(self):
        u = uniform_block(3, 0, np.arange(100_000), first=2, count=2)
        vals = rr1_values(50.0, np.full(100_000, 5.0), 0, u[:, 0], u[:, 1])
        assert np.all(vals == 1)

    def test_empirical_frequency_matches_closed_form(self):
        n = 1_000_000
        u = uniform_block(4, 0, np.arange(n), first=2, count=2)
        vals = rr1_values(1.0, np.full(n, 5.0), 0, u[:, 0], u[:, 1])
        p = math.e / (math.e + 3.0)  # closed-form truthful probability
        freq = np.mean(vals == 1)
        se = math.sqrt(p * (1.0 - p) / n)
        assert abs(freq - p) <= 3.0 * se

    def test_scalar_op_matches_kernel_and_validates(self):
        s1 = RandomStream(7, 8)
        s2 = RandomStream(7, 8)
        rep = rr1(s1, 1.0, -3.2, 1, user_id=5)
        u_keep, u_alt = s2.next_uniform(), s2.next_uniform()
        expected = int(rr1_values(1.0, np.array([-3.2]), 1, np.array([u_keep]), np.array([u_alt]))[0])
        assert rep == QuadReport(user_id=5, level_j=1, value=expected)
        with pytest.raises(ValueError):
            rr1(RandomStream(0, 0), 0.0, 1.0, 0)

    def test_low_bits_equal_mod4_bitwise(self):
        # the alternative report takes the low two bits of a value in [1, 6]
        # where it took the value mod 4
        n = 1 << 14
        u = uniform_block(5, 0, np.arange(n), first=2, count=2)
        rng = np.random.default_rng(13)
        xs = rng.normal(0.0, 1.0, n) * 2.0 ** rng.integers(-30, 300, n)
        for levels in (rng.integers(-20, 21, n), rng.integers(200, 260, n), -5, 3):
            truth = floor_div_mod4_array(xs, levels)
            alt = (truth + 1 + (u[:, 1] * 3.0).astype(np.int64)) % 4
            want = np.where(u[:, 0] <= quad_keep_prob(0.5), truth, alt)
            got = rr1_values(0.5, xs, levels, u[:, 0], u[:, 1])
            assert got.tobytes() == want.tobytes()
        assert set(np.unique(got).tolist()) == {0, 1, 2, 3}

    def test_exact_ldp_ratio(self):
        for eps in (0.1, 0.5, 1.0, 2.0, math.log(3.0)):
            grid = [-7.3, -1.0, 0.0, 0.6, 2.2, 5.0, 9.9]
            dists = [rr1_distribution(eps, x, 0) for x in grid]
            worst = max(
                d1[a] / d2[a] for d1 in dists for d2 in dists for a in range(4)
            )
            assert worst <= math.exp(eps) + 1e-9
            assert worst == pytest.approx(math.exp(eps), abs=1e-9)


class TestKVRR2:
    def test_boundary_sign_convention(self):
        dist = sign_rr_distribution(1.0, true_sign=1)
        assert dist[1] == pytest.approx(sign_keep_prob(1.0))
        assert int(sign_with_positive_zero(np.array([0.0]))[0]) == 1

    def test_truthful_prob_at_ln3(self):
        assert sign_keep_prob(math.log(3.0)) == pytest.approx(0.75, abs=1e-15)

    def test_empirical_mean_of_reports(self):
        n = 1_000_000
        u = uniform_block(5, 0, np.arange(n), first=2, count=1)[:, 0]
        vals = sign_rr_values(1.0, np.ones(n), 0.0, 1.0, u)  # true sign +1
        target = (math.e - 1.0) / (math.e + 1.0)
        se = math.sqrt((1.0 - target ** 2) / n)
        assert abs(vals.mean() - target) <= 3.0 * se

    def test_scalar_matches_kernel(self):
        s1, s2 = RandomStream(1, 2), RandomStream(1, 2)
        rep = kv_rr2(s1, 0.7, x=3.0, mu_hat1=5.0, sigma=2.0, user_id=9)
        expected = -1 if s2.next_uniform() <= sign_keep_prob(0.7) else 1  # true sign -1
        assert rep == SignReport(user_id=9, value=expected)

    def test_validation(self):
        with pytest.raises(ValueError):
            kv_rr2(RandomStream(0, 0), 1.0, 0.0, 0.0, sigma=0.0)
        with pytest.raises(ValueError):
            kv_rr2(RandomStream(0, 0), -1.0, 0.0, 0.0, sigma=1.0)


class TestOneRoundKVRR2:
    def test_midpoint_tie_goes_to_lower_point(self):
        lattice = LatticeSpec(offset=0.0, spacing=10.0)
        assert lattice.nearest_points(5.0) == nearest_point_oracle(lattice, 5.0) == 0.0
        rep = one_round_kv_rr2(RandomStream(0, 1), 50.0, x=5.0, lattice=lattice, sigma=1.0)
        assert rep.value == 1  # residual +spacing/2, sign positive

    def test_nearest_point_arithmetic(self):
        lattice = LatticeSpec(offset=0.0, spacing=10.0)
        assert lattice.nearest_points(3.0) == nearest_point_oracle(lattice, 3.0) == 0.0
        rep = one_round_kv_rr2(RandomStream(0, 2), 50.0, x=3.0, lattice=lattice, sigma=1.0)
        assert rep.value == 1

    def test_offset_lattice_against_scan_oracle(self):
        lattice = LatticeSpec(offset=2.0, spacing=10.0)
        assert lattice.nearest_points(8.5) == nearest_point_oracle(lattice, 8.5) == 12.0
        rep = one_round_kv_rr2(RandomStream(0, 3), 50.0, x=8.5, lattice=lattice, sigma=1.0)
        assert rep.value == -1

    @given(
        st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
        st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
        st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
    )
    @settings(max_examples=300)
    def test_nearest_point_matches_oracle(self, x, offset, spacing):
        lattice = LatticeSpec(offset=offset, spacing=spacing)
        got = float(lattice.nearest_points(x))
        expected = nearest_point_oracle(lattice, x, b_window=3)
        assert got == pytest.approx(expected, abs=1e-9 * max(1.0, abs(expected)))


class TestUVRR2:
    def test_zero_noise_identity_inside_interval(self):
        vals = uv_rr2_values(1.0, np.array([0.5]), 0.0, 1.0, np.array([0.5]))
        assert vals[0] == 0.5

    def test_clamping(self):
        vals = uv_rr2_values(1.0, np.array([101.0]), 0.0, 1.0, np.array([0.5]))
        assert vals[0] == 1.0

    def test_noise_variance(self):
        n = 1_000_000
        u = uniform_block(6, 0, np.arange(n), first=2, count=1)[:, 0]
        vals = uv_rr2_values(1.0, np.full(n, 0.5), 0.0, 1.0, u)
        # Var(Lap(b)) = 2 b^2 with b = |I|/eps = 1
        assert abs(np.var(vals - 0.5) - 2.0) <= 0.03 * 2.0

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            uv_rr2(RandomStream(0, 0), 1.0, 0.0, interval_lo=1.0, interval_hi=0.0)

    def test_log_density_ratio_bounded_by_eps(self):
        eps, lo, hi = 1.3, -2.0, 3.0
        xs = np.linspace(-4.0, 5.0, 13)
        ys = np.linspace(-9.0, 9.0, 17)
        for x1 in xs:
            for x2 in xs:
                c1, c2 = np.clip(x1, lo, hi), np.clip(x2, lo, hi)
                analytic = eps * abs(c1 - c2) / (hi - lo)
                for y in ys:
                    gap = uv_rr2_log_density(eps, lo, hi, x1, y) - uv_rr2_log_density(eps, lo, hi, x2, y)
                    assert gap <= analytic + 1e-12
                    assert gap <= eps + 1e-12


class TestOneRoundUVRR2:
    def test_zero_residual_on_lattice_point(self):
        lattice = LatticeSpec(offset=0.0, spacing=10.0)
        vals = one_round_uv_rr2_values(1.0, np.array([20.0]), lattice, 20.0, np.array([0.5]))
        assert vals[0] == 0.0

    def test_residual_against_scan_oracle(self):
        lattice = LatticeSpec(offset=0.0, spacing=10.0)
        assert nearest_point_oracle(lattice, 7.0) == 10.0
        vals = one_round_uv_rr2_values(1.0, np.array([7.0]), lattice, 20.0, np.array([0.5]))
        assert vals[0] == -3.0

    def test_residual_bound_holds_everywhere(self):
        lattice = LatticeSpec(offset=1.7, spacing=6.0)
        rng = np.random.default_rng(0)
        xs = rng.uniform(-1e4, 1e4, 100_000)
        residual = xs - lattice.nearest_points(xs)
        assert np.all(np.abs(residual) <= lattice.spacing / 2.0 + 1e-9)

    def test_scalar_report_carries_subgroup(self):
        lattice = LatticeSpec(offset=0.0, spacing=4.0)
        rep = one_round_uv_rr2(RandomStream(2, 2), 1.0, 5.0, lattice, 8.0, user_id=3, subgroup=(1, 2))
        assert rep.user_id == 3 and rep.subgroup == (1, 2)
        assert math.isfinite(rep.value)


class TestPerUserParameters:
    """Parameter arrays with one entry per user give each user the bits a
    scalar call for their block alone gives."""

    counts = [5, 1, 9, 3]

    def blocks(self, *columns):
        """Per-user arrays from per-block scalars, and the block slices."""
        ends = np.cumsum(self.counts)
        parts = [slice(end - count, end) for end, count in zip(ends, self.counts)]
        return [np.repeat(column, self.counts) for column in columns], parts

    def draws(self, count):
        return uniform_block(5, 2, np.arange(sum(self.counts)), 2, count)

    def samples(self):
        return np.random.default_rng(6).normal(10.0, 3.0, sum(self.counts))

    def test_rr1(self):
        x, d = self.samples(), self.draws(2)
        levels = [-2, 0, 3, 1]
        (per_user,), parts = self.blocks(levels)
        got = rr1_values(1.0, x, per_user, d[:, 0], d[:, 1])
        for level, part in zip(levels, parts):
            want = rr1_values(1.0, x[part], level, d[part, 0], d[part, 1])
            assert got[part].dtype == want.dtype and got[part].tobytes() == want.tobytes()

    def test_lattice_signs(self):
        x, d = self.samples(), self.draws(1)
        offsets, spacings = [0.2, 0.4, 0.6, 0.8], [7.0, 7.0, 3.0, 0.5]
        (off, spa), parts = self.blocks(offsets, spacings)
        centers = LatticeSpec(off, spa).nearest_points(x)
        got = sign_rr_values(1.0, x, centers, 1.0, d[:, 0])
        for offset, spacing, part in zip(offsets, spacings, parts):
            center = LatticeSpec(offset, spacing).nearest_points(x[part])
            want = sign_rr_values(1.0, x[part], center, 1.0, d[part, 0])
            assert centers[part].tobytes() == center.tobytes()
            assert got[part].tobytes() == want.tobytes()

    def test_one_round_uv(self):
        x, d = self.samples(), self.draws(1)
        levels, ms = [-1, 0, 2, 4], [1, 3, 2, 10]
        offsets = [m * 2.0 ** j for j, m in zip(levels, ms)]
        spacings = [10 * 2.0 ** j for j in levels]
        numerators = [20.0 * 2.0 ** j for j in levels]
        (off, spa, num), parts = self.blocks(offsets, spacings, numerators)
        got = one_round_uv_rr2_values(0.7, x, LatticeSpec(off, spa), num, d[:, 0])
        for offset, spacing, numerator, part in zip(offsets, spacings, numerators, parts):
            want = one_round_uv_rr2_values(
                0.7, x[part], LatticeSpec(offset, spacing), numerator, d[part, 0])
            assert got[part].tobytes() == want.tobytes()

    @pytest.mark.parametrize("spacing", [0.0, -1.0, math.nan])
    def test_lattice_spacing_checked_per_user(self, spacing):
        with pytest.raises(ValueError, match="spacing must be positive"):
            LatticeSpec(np.zeros(3), np.array([1.0, spacing, 2.0]))
