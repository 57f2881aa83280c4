"""Deterministic math, seeded uniform draws, and transforms of uniforms.

Everything here is a pure function of its inputs. Randomness comes from
counter-based streams, one per user per trial: draw t of user u in trial i
is a 64-bit avalanche hash of (master_seed, hash_u64(i, u), t) mapped into
(0, 1). Identical keys replay bit-identically and distinct keys never share
state. `uniform_block` is the one way to draw: many users and draws at
once. It hashes BLOCK = 2^14 users at a time in scratch buffers it
allocates once per call and reuses, so the mixing stays in cache; the bits
are those of hashing every user at once. Box-Muller and inverse-CDF
Laplace turn blocks of uniforms into Gaussian samples and noise.

Draw-column discipline used by the protocol engine (one stream per user per
trial): columns 0 and 1 feed the Box-Muller population sample, column 2 the
randomizer's keep/flip or noise draw, column 3 the four-way randomized
response's alternative choice.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_HASH_IV = 0x9E3779B97F4A7C15

# Inverse erf saturates its argument here; keeps the inversion total when
# aggregation noise pushes the argument past +-1.
ERF_INV_CLAMP = 1.0 - 2.0 ** -40


def mix64(z: int) -> int:
    """SplitMix64 finalizer: a 64-bit avalanche permutation."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


def hash_u64(*parts: int) -> int:
    """Hash a fixed-arity tuple of integers into 64 bits by absorb-and-mix."""
    h = _HASH_IV
    for p in parts:
        h = mix64(h ^ (p & _MASK64))
    return h


# Users hashed per piece: three uint64 scratch buffers of this many users
# stay in cache, where whole-population temporaries would not.
BLOCK = 1 << 14


def _mix64_inplace(z: np.ndarray, tmp: np.ndarray) -> None:
    """z <- mix64(z) elementwise, using tmp (same shape) as scratch."""
    np.right_shift(z, np.uint64(30), out=tmp)
    z ^= tmp
    z *= np.uint64(_MIX_A)
    np.right_shift(z, np.uint64(27), out=tmp)
    z ^= tmp
    z *= np.uint64(_MIX_B)
    np.right_shift(z, np.uint64(31), out=tmp)
    z ^= tmp


def uniform_block(
    master_seed: int,
    trial_index: int,
    user_indices: np.ndarray,
    first: int,
    count: int,
) -> np.ndarray:
    """Uniform draws for many users at once.

    Returns a (len(user_indices), count) matrix whose row i, column t is
    hash_u64(master_seed, hash_u64(trial_index, user_indices[i]), first + t)
    mapped into (0, 1) by its top 53 bits. Users are hashed BLOCK at a time
    in reused buffers; the matrix is the transpose of a (count, n) array, so
    each column is contiguous.
    """
    idx = np.asarray(user_indices, dtype=np.uint64)
    n = idx.shape[0]
    # hash_u64(trial, user) = mix64(mix64(IV ^ trial) ^ user)
    trial_key = np.uint64(hash_u64(trial_index))
    seed_key = np.uint64(mix64(_HASH_IV ^ (master_seed & _MASK64)))
    buffers = [np.empty(min(n, BLOCK), dtype=np.uint64) for _ in range(3)]
    out = np.empty((count, n), dtype=np.float64)
    for lo in range(0, n, BLOCK):
        hi = min(lo + BLOCK, n)
        key, h, scratch = (buffer[:hi - lo] for buffer in buffers)
        np.bitwise_xor(idx[lo:hi], trial_key, out=key)
        _mix64_inplace(key, scratch)
        key ^= seed_key
        _mix64_inplace(key, scratch)
        for t in range(count):
            np.bitwise_xor(key, np.uint64(first + t), out=h)
            _mix64_inplace(h, scratch)
            # top 53 bits, offset by half a ulp: strictly inside (0, 1)
            np.right_shift(h, np.uint64(11), out=h)
            row = out[t, lo:hi]
            np.add(h, 0.5, out=row)
            row *= 2.0 ** -53
    return out.T


class TrialStreams:
    """The draws of one trial: `matrix` is `uniform_block` for its keys."""

    __slots__ = ("master_seed", "trial_index")

    def __init__(self, master_seed: int, trial_index: int):
        self.master_seed = master_seed
        self.trial_index = trial_index

    def matrix(self, user_indices, first: int, count: int) -> np.ndarray:
        return uniform_block(self.master_seed, self.trial_index, user_indices, first, count)


# Rational approximation of the standard normal quantile (Acklam). Used only
# as the starting point for Newton refinement in erf_inv.
_ACK_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
          1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_ACK_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
          6.680131188771972e+01, -1.328068155288572e+01)
_ACK_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
          -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_ACK_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
          3.754408661907416e+00)


def _normal_quantile_approx(p: float) -> float:
    a, b, c, d = _ACK_A, _ACK_B, _ACK_C, _ACK_D
    if p < 0.02425:
        q = math.sqrt(-2.0 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    if p > 1.0 - 0.02425:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)


def erf_inv(y: float) -> float:
    """Inverse of erf, total on the reals.

    The argument saturates at +-(1 - 2^-40) before inversion, so values the
    aggregation noise pushes past +-1 map to the finite extremes instead of
    failing. Rational first guess, then two Newton steps on erf; roundtrip
    error is below 1e-13 for |y| <= 0.999.
    """
    if y != y:  # NaN propagates
        return y
    y = max(-ERF_INV_CLAMP, min(ERF_INV_CLAMP, y))
    # erf_inv(y) = Phi^-1((y+1)/2) / sqrt(2)
    x = _normal_quantile_approx(0.5 * (y + 1.0)) / math.sqrt(2.0)
    half_sqrt_pi = 0.8862269254527580
    for _ in range(2):
        x -= (math.erf(x) - y) * half_sqrt_pi * math.exp(x * x)
    return x


def gaussian_from_uniforms(u1, u2, mu: float, sigma: float):
    """Box-Muller (cosine branch); the fixed Gaussian sampler of this build."""
    radius = np.sqrt(-2.0 * np.log(u1))
    return mu + sigma * (radius * np.cos(2.0 * math.pi * u2))


def laplace_from_uniform(u, scale: float):
    """Inverse-CDF Laplace: u = 0.5 maps to exactly 0."""
    centered = u - 0.5
    return -scale * np.sign(centered) * np.log1p(-2.0 * np.abs(centered))


def floor_div_mod4_array(xs: np.ndarray, j) -> np.ndarray:
    """floor(x / 2^j) mod 4 elementwise, always in {0,1,2,3}; j is an int or
    an int array, one per x. Per-x levels take 2^j from a table of the levels
    they span, which equals 2.0 ** j bit for bit and costs a gather instead
    of a power per x."""
    if np.ndim(j) and np.size(j):
        j = np.asarray(j)
        low = int(j.min())
        scale = (2.0 ** np.arange(low, int(j.max()) + 1))[j - low]
    else:
        scale = 2.0 ** j
    q = np.floor(np.asarray(xs, dtype=np.float64) / scale)
    # q - 4 floor(q / 4): every step is exact, and cheaper than np.remainder
    q -= 4.0 * np.floor(q * 0.25)
    return q.astype(np.int64)
