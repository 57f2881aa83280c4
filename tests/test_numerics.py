import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ldpgauss import numerics
from ldpgauss.harness import sample_population
from ldpgauss.numerics import (
    BLOCK,
    TrialStreams,
    erf_inv,
    floor_div_mod4_array,
    gaussian_from_uniforms,
    hash_u64,
    laplace_from_uniform,
    uniform_block,
)
from ldpgauss.protocols import SimulationTruth
from oracles import (
    RandomStream,
    derive_stream_id,
    floor_div_mod4,
    sample_gaussian,
    sample_laplace,
    sample_population_unchunked,
    stream,
    uniform_block_unchunked,
    uniforms,
)

# sizes on both sides of the BLOCK-user pieces the draw path hashes in
CHUNK_EDGES = (0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5)

erf = math.erf


def erf_series(x: float, terms: int = 30) -> float:
    """Independent oracle: Maclaurin series, 2/sqrt(pi) * sum (-1)^k x^(2k+1) / (k! (2k+1))."""
    total = 0.0
    for k in range(terms):
        total += (-1) ** k * x ** (2 * k + 1) / (math.factorial(k) * (2 * k + 1))
    return 2.0 / math.sqrt(math.pi) * total


class TestErf:
    def test_zero(self):
        assert erf(0.0) == 0.0

    def test_erf_sqrt2_below_096(self):
        assert erf(math.sqrt(2.0)) < 0.96

    def test_matches_series_oracle(self):
        for x in [0.1, 0.25, 0.5, 1.0, 1.5]:
            assert abs(erf(x) - erf_series(x)) <= 1e-12

    def test_odd_and_strictly_increasing(self):
        # Strictness is checked where increments are representable in doubles;
        # beyond |x| ~ 5.9 erf rounds to +-1 exactly.
        grid = np.linspace(-4.0, 4.0, 10_001)
        vals = np.array([erf(float(x)) for x in grid])
        assert np.all(np.diff(vals) > 0.0)
        neg = np.array([erf(float(-x)) for x in grid])
        np.testing.assert_array_equal(neg, -vals)
        assert np.all(np.abs(vals) <= 1.0)


class TestErfInv:
    def test_zero(self):
        assert erf_inv(0.0) == 0.0

    def test_lipschitz_bound_at_097(self):
        x = erf_inv(0.97)
        assert (math.sqrt(math.pi) / 2.0) * math.exp(x * x) < 10.0

    def test_roundtrip_at_half(self):
        assert abs(erf_inv(erf(0.5)) - 0.5) <= 1e-10

    def test_mutual_inverse_on_grid(self):
        ys = np.linspace(-0.999, 0.999, 10_001)
        for y in ys:
            x = erf_inv(float(y))
            assert abs(erf(x) - y) <= 1e-10

    def test_monotone_odd(self):
        ys = np.linspace(-0.999, 0.999, 10_001)
        xs = np.array([erf_inv(float(y)) for y in ys])
        assert np.all(np.diff(xs) > 0.0)
        rev = np.array([erf_inv(float(-y)) for y in ys])
        np.testing.assert_allclose(rev, -xs, atol=1e-13)

    def test_clamps_out_of_range_instead_of_failing(self):
        hi = erf_inv(1.0)
        assert math.isfinite(hi)
        assert erf_inv(2.0) == hi
        assert erf_inv(-5.0) == -hi
        assert erf_inv(1.0 - 2.0 ** -40) == hi


class TestStreams:
    def test_identical_keys_identical_draws(self):
        a = RandomStream(123, 456)
        b = RandomStream(123, 456)
        assert list(uniforms(a, 64)) == list(uniforms(b, 64))

    def test_distinct_streams_differ(self):
        a = uniforms(RandomStream(123, 456), 16)
        b = uniforms(RandomStream(123, 457), 16)
        assert not np.array_equal(a, b)

    def test_draws_in_open_unit_interval(self):
        u = uniforms(RandomStream(9, 9), 1000)
        assert np.all(u > 0.0) and np.all(u < 1.0)

    def test_uniform_block_matches_scalar_streams_bitwise(self):
        master, trial = 7, 3
        users = np.arange(50, 90)
        block = uniform_block(master, trial, users, first=2, count=3)
        for row, user in enumerate(users):
            s = RandomStream(master, derive_stream_id(trial, int(user)), position=2)
            expected = [s.next_uniform() for _ in range(3)]
            assert list(block[row]) == expected

    def test_trial_streams_wrapper(self):
        ts = TrialStreams(master_seed=11, trial_index=4)
        s = stream(ts, 17)
        m = ts.matrix([17], first=0, count=5)
        assert list(m[0]) == [s.next_uniform() for _ in range(5)]

    def test_hash_u64_is_stable(self):
        # Pin two values so accidental changes to the mixing break loudly.
        assert hash_u64(0) == numerics.mix64(0x9E3779B97F4A7C15)
        assert hash_u64(1, 2, 3) == hash_u64(1, 2, 3)
        assert hash_u64(1, 2, 3) != hash_u64(3, 2, 1)


class TestDrawsInPieces:
    """uniform_block and sample_population work BLOCK users at a time and
    must give the bits of the whole-array references in tests/oracles.py."""

    @pytest.mark.parametrize("n", CHUNK_EDGES)
    @pytest.mark.parametrize("count", [1, 2, 3])
    @pytest.mark.parametrize("first", [0, 2])
    def test_uniform_block_matches_unchunked_bitwise(self, n, count, first):
        users = np.arange(n)
        got = uniform_block(31, 6, users, first, count)
        want = uniform_block_unchunked(31, 6, users, first, count)
        assert got.shape == want.shape == (n, count)
        assert got.tobytes() == want.tobytes()

    def test_columns_are_contiguous(self):
        block = uniform_block(1, 2, np.arange(BLOCK + 3), first=0, count=3)
        assert all(block[:, t].flags.c_contiguous for t in range(3))

    def test_strided_and_huge_user_indices(self):
        # a non-contiguous view of indices at and above 2^62, up to 2^64 - 1
        top = np.uint64(2 ** 64 - 1)
        users = np.concatenate([
            np.arange(2 * BLOCK + 9, dtype=np.uint64) * np.uint64(3) + np.uint64(2 ** 62),
            top - np.arange(BLOCK + 2, dtype=np.uint64),
        ])[::2]
        assert not users.flags.c_contiguous
        got = uniform_block(2 ** 40, 9, users, first=2, count=2)
        assert got.tobytes() == uniform_block_unchunked(2 ** 40, 9, users, 2, 2).tobytes()

    def test_python_list_of_indices(self):
        users = [0, 5, 2 ** 62, 2 ** 64 - 1, 17] * (BLOCK // 4)
        got = uniform_block(3, 4, users, first=1, count=2)
        assert got.tobytes() == uniform_block_unchunked(3, 4, users, 1, 2).tobytes()

    @pytest.mark.parametrize("n", CHUNK_EDGES)
    def test_sample_population_matches_unchunked_bitwise(self, n):
        truth, streams = SimulationTruth(mu=10.0, sigma=3.0), TrialStreams(8, hash_u64(1, 2))
        got = sample_population(truth, n, streams)
        assert got.tobytes() == sample_population_unchunked(truth, n, streams).tobytes()


class TestGaussian:
    def test_degenerate_sigma_limit(self):
        s = RandomStream(1, 1)
        assert abs(sample_gaussian(s, 5.0, 1e-300) - 5.0) < 1e-290

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            sample_gaussian(RandomStream(1, 1), 0.0, 0.0)
        with pytest.raises(ValueError):
            sample_gaussian(RandomStream(1, 1), 0.0, -1.0)

    def test_moments_on_million_draws(self):
        u = uniform_block(2024, 0, np.arange(1_000_000), first=0, count=2)
        z = gaussian_from_uniforms(u[:, 0], u[:, 1], 0.0, 1.0)
        assert abs(z.mean()) <= 5.0 / math.sqrt(1e6)
        assert abs(z.var() - 1.0) <= 0.01

    def test_scalar_matches_vector(self):
        users = np.arange(10)
        u = uniform_block(0, 0, users, first=0, count=2)
        vec = gaussian_from_uniforms(u[:, 0], u[:, 1], 3.0, 2.0)
        ts = TrialStreams(0, 0)
        sca = [sample_gaussian(stream(ts, int(i)), 3.0, 2.0) for i in users]
        assert list(vec) == sca


class TestLaplace:
    def test_median_uniform_maps_to_zero(self):
        assert laplace_from_uniform(np.float64(0.5), 3.0) == 0.0

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            sample_laplace(RandomStream(1, 1), 0.0)

    def test_mean_absolute_value(self):
        u = uniform_block(55, 0, np.arange(1_000_000), first=0, count=1)[:, 0]
        x = laplace_from_uniform(u, 1.0)
        assert abs(np.abs(x).mean() - 1.0) <= 0.02

    def test_variance_at_scale_two(self):
        u = uniform_block(56, 0, np.arange(1_000_000), first=0, count=1)[:, 0]
        x = laplace_from_uniform(u, 2.0)
        assert abs(x.var() - 8.0) <= 0.03 * 8.0


def floor_mod4_oracle(x: float, j: int) -> int:
    """Exact-rational oracle for floor(x / 2^j) mod 4."""
    q = Fraction(x) / (Fraction(2) ** j)
    return (q.numerator // q.denominator) % 4


class TestFloorDivMod4:
    def test_examples(self):
        assert floor_div_mod4(5.0, 0) == 1
        assert floor_div_mod4(-1.5, 0) == floor_mod4_oracle(-1.5, 0) == 2
        assert floor_div_mod4(16.0, 2) == 0

    @given(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.integers(min_value=-8, max_value=20),
    )
    def test_matches_exact_oracle(self, x, j):
        # Dividing a double by a power of two is exact unless the quotient
        # leaves the normal range, so keep x away from the subnormals.
        assume(x == 0.0 or abs(x) >= 1e-280)
        assert floor_div_mod4(x, j) == floor_mod4_oracle(x, j)

    @given(
        st.integers(min_value=-4_000_000, max_value=4_000_000),
        st.integers(min_value=-4, max_value=12),
    )
    @settings(max_examples=200)
    def test_period_four_lattice(self, m, j):
        # x chosen as m * 2^j / 1024 so that x + 4 * 2^j is exact in doubles.
        x = m * 2.0 ** j / 1024.0
        shifted = x + 4.0 * 2.0 ** j
        assert floor_div_mod4(shifted, j) == floor_div_mod4(x, j)

    def test_array_matches_scalar(self):
        xs = np.array([-7.5, -1.5, 0.0, 0.999, 5.0, 16.0, 1e9])
        got = floor_div_mod4_array(xs, 2)
        assert list(got) == [floor_div_mod4(float(v), 2) for v in xs]

    def test_hard_inputs_match_remainder_and_exact_oracle(self):
        # q - 4 floor(q / 4) against np.remainder's q % 4 and exact rationals
        # on signed zeros, the ends of exact integers, the largest and the
        # subnormal doubles, over one level per x from -1074 to 960
        tiny = np.nextafter(0.0, 1.0)
        specials = np.array([
            0.0, 1.0, 3.5, 2.0 ** 53, 2.0 ** 53 + 2, 2.0 ** 53 - 1, 2.0 ** 54 + 4,
            1e308, np.finfo(float).max, tiny, 3 * tiny, 2.0 ** -1022, 0.75 * 2.0 ** -1022,
            1e-300, 12345.678,
        ])
        specials = np.concatenate([specials, -specials])
        js = np.arange(-1074, 961)
        xs = np.repeat(specials, js.size)
        levels = np.tile(js, specials.size)
        rng = np.random.default_rng(11)
        xs = np.concatenate([xs, rng.normal(0.0, 1.0, 1 << 16) * 2.0 ** rng.integers(-1074, 1000, 1 << 16)])
        levels = np.concatenate([levels, rng.integers(-1074, 961, 1 << 16)])
        with np.errstate(over="ignore"):
            quotients = xs / 2.0 ** levels
        finite = np.isfinite(quotients)
        xs, levels, quotients = xs[finite], levels[finite], quotients[finite]
        got = floor_div_mod4_array(xs, levels)
        assert got.tobytes() == (np.floor(quotients) % 4.0).astype(np.int64).tobytes()
        assert set(np.unique(got).tolist()) == {0, 1, 2, 3}
        # where x / 2^j rounds, the float path and the exact rational differ
        # by design; everywhere else they agree
        exact = [i for i in range(0, xs.size, 7)
                 if Fraction(float(quotients[i])) == Fraction(float(xs[i])) / Fraction(2) ** int(levels[i])]
        assert len(exact) > 1000
        assert [int(got[i]) for i in exact] == [
            floor_mod4_oracle(float(xs[i]), int(levels[i])) for i in exact]

    def test_level_table_matches_powers_bitwise(self):
        # 2^j from a table of the levels spanned, as against 2.0 ** j per x,
        # for negative and positive levels, huge |x|, and scalar and array j
        def by_powers(xs, j):
            q = np.floor(np.asarray(xs, dtype=np.float64) / (2.0 ** j))
            q -= 4.0 * np.floor(q * 0.25)
            return q.astype(np.int64)

        rng = np.random.default_rng(12)
        xs = rng.normal(0.0, 1.0, 1 << 14) * 2.0 ** rng.integers(-60, 1000, 1 << 14)
        xs[:4] = [np.finfo(float).max, -np.finfo(float).max, 1e300, -1e300]
        for js in (rng.integers(-40, 41, xs.size), rng.integers(-1074, -1000, xs.size),
                   rng.integers(900, 961, xs.size), np.full(xs.size, -3), np.full(xs.size, 7)):
            with np.errstate(over="ignore"):
                finite = np.isfinite(xs / 2.0 ** js)
            x, j = xs[finite], js[finite]
            assert x.size > 500
            assert floor_div_mod4_array(x, j).tobytes() == by_powers(x, j).tobytes()
            for level in (int(j[0]), j[0]):  # a Python int and a numpy scalar
                with np.errstate(over="ignore"):
                    finite = np.isfinite(x / 2.0 ** level)
                got = floor_div_mod4_array(x[finite], level)
                assert got.tobytes() == by_powers(x[finite], level).tobytes()
        assert floor_div_mod4_array(np.array([]), np.array([], np.int64)).size == 0

    def test_per_user_levels_match_scalar_levels_bitwise(self):
        # one level per x, over every j whose 2^j is a finite double
        js = np.arange(-1074, 1024)
        assert (2.0 ** js).tobytes() == np.array([2.0 ** int(j) for j in js]).tobytes()
        xs = np.random.default_rng(4).normal(0.0, 1e3, js.size) * 2.0 ** (js // 2)
        got = floor_div_mod4_array(xs, js)
        assert got.dtype == np.int64
        assert got.tolist() == [int(floor_div_mod4_array(xs[i:i + 1], int(j))[0])
                                for i, j in enumerate(js.tolist())]
