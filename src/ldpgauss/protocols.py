"""End-to-end protocol orchestration.

Runners enforce the trust boundary and the round structure: user-side code
(the randomizer kernels) is the only consumer of raw samples, and every
message crossing the boundary lands in a transcript. Each protocol has one
analyst function, which reads only the public plan and the transcript. A
live run lets its users emit, then runs the analyst on its own transcript;
replay runs the same analyst on a recorded one and compares. That the
outputs match bit for bit without samples is the executable proof that the
analyst never needed them.

Partitioning is public and deterministic: `plan_partition` lays a run out
once, as the plan's block table of every message block and broadcast in
emission order. The first half of the user indices is split into per-level
blocks (ascending level order); the second half either answers the
round-two broadcast wholesale or is split into one-round subgroup blocks.
Leftover users are never queried. The plan also holds the table's runs:
consecutive blocks of one round and kind (the level blocks, the refinement
subgroups, the round-two block), each with one array per block parameter
and the head of the transcript item it becomes. All of it is per block, none
of it per user. A run is privatized in chunks of up to 2^14 users, each
with one draw of uniforms and one kernel call whose per-user parameters are
gathered from the run's columns, and enters the transcript as one item. The
analyst's gate requires a transcript to equal the runs item for item, with
one head comparison and whole-run array operations per run, and the level
histograms are counted, debiased and paired as one (levels, 4) matrix.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import numbers
import operator
import re
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from ldpgauss.aggregation import (
    MalformedInputError,
    debias_quad_counts,
    debias_sign_counts,
    pair_adjacent_bins,
    quad_counts_from_values,
    sign_counts_from_values,
)
from ldpgauss.analyst import (
    LevelPlan,
    est_mean,
    est_var,
    refine_known_sigma,
    refine_pooled_kv,
    select_subgroup_kv,  # not called here; perfbench/tracing.py wraps this name
    select_subgroup_uv,
)
from ldpgauss.numerics import BLOCK, TrialStreams
from ldpgauss.randomizers import (
    LatticeSpec,
    one_round_uv_rr2_values,
    rr1_values,
    sign_rr_values,
    uv_rr2_values,
)

# The paper's four protocols; RUNNERS maps each id to its runner.
#   kv2: known sigma, 2 rounds, centered sign responses + inverse erf
#   kv1: known sigma, 1 round, staggered-lattice signs, pooled MLE
#   uv2: sigma in [s_min, s_max], 2 rounds, clamp to interval + Laplace noise
#   uv1: sigma in [s_min, s_max], 1 round, lattice residuals + Laplace noise
PROTOCOLS = ("kv2", "kv1", "uv2", "uv1")

# 2^level must stay a normal double; beyond this the config is nonsense.
_MAX_TOP_LEVEL = 960

# Unset level sizes are ceil(_LEVEL_SIZE_C * ln(8 max(n,2)/beta) / eps^2).
_LEVEL_SIZE_C = 8.0

# laplace_from_uniform never sees a uniform within 2^-54 of 0 or 1, so a
# Laplace(b) draw stays within 53 ln(2) b < 37 b of zero; 40 leaves room
# for rounding.
_LAPLACE_REACH = 40.0

# Box-Muller never sees u1 < 2^-54 either, so a standard Gaussian draw stays
# within sqrt(108 ln 2) < 8.66 of zero.
_BOX_MULLER_REACH = 8.66


class ConfigError(ValueError):
    """The configuration cannot produce a valid partition or run."""


class ReplayMismatch(RuntimeError):
    """A replayed analyst output diverged from the recorded one."""

    def __init__(self, name: str, recorded, recomputed):
        super().__init__(f"{name}: recorded {recorded!r} != recomputed {recomputed!r}")
        self.name = name
        self.recorded = recorded
        self.recomputed = recomputed


@dataclass(frozen=True)
class KnownSigma:
    sigma: float

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise ConfigError(f"sigma must be positive, got {self.sigma}")
        if self.sigma == math.inf:
            raise ConfigError(f"sigma must be finite, got {self.sigma}")


@dataclass(frozen=True)
class BoundedSigma:
    sigma_min: float
    sigma_max: float

    def __post_init__(self):
        if not 0.0 < self.sigma_min <= self.sigma_max < math.inf:
            raise ConfigError(
                f"need 0 < sigma_min <= sigma_max < inf, got [{self.sigma_min}, {self.sigma_max}]"
            )


@dataclass(frozen=True)
class SimulationTruth:
    """Ground truth for sampling only; analyst code never receives it."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma)):
            raise ConfigError(f"true mu and sigma must be finite, got {self.mu} and {self.sigma}")
        if not self.sigma > 0.0:
            raise ConfigError(f"true sigma must be positive, got {self.sigma}")
        if not math.isfinite(abs(self.mu) + _BOX_MULLER_REACH * self.sigma):
            raise ConfigError(
                f"true sigma {self.sigma} is too large: with mu {self.mu}, samples "
                f"mu + sigma z for |z| up to {_BOX_MULLER_REACH} overflow"
            )


@dataclass(frozen=True)
class ProtocolConfig:
    """Public protocol parameters plus the sealed simulation truth.

    Subgroup sizes: k1 sets the level size, and so does k, its name in the
    two-round known-variance protocol; setting both is a ConfigError. An
    unset level size falls back to ceil(8 ln(8 max(n,2)/beta) / eps^2). The
    one-round refinement subgroups split the second half evenly,
    floor(n/2 / subgroups) users each, and leftover users are discarded.
    """

    eps: float
    beta: float
    n: int
    variance_mode: Union[KnownSigma, BoundedSigma]
    truth: Optional[SimulationTruth] = None
    master_seed: int = 0
    k: Optional[int] = None
    k1: Optional[int] = None

    def __post_init__(self):
        if not self.eps > 0.0:
            raise ConfigError(f"eps must be positive, got {self.eps}")
        if not 0.0 < self.beta < 1.0:
            raise ConfigError(f"beta must be in (0, 1), got {self.beta}")
        if self.n < 2 or self.n % 2 != 0:
            raise ConfigError(f"n must be even and at least 2, got {self.n}")

    def default_level_size(self) -> int:
        n_eff = max(self.n, 2)
        return int(math.ceil(_LEVEL_SIZE_C * math.log(8.0 * n_eff / self.beta) / self.eps ** 2))


class Block(NamedTuple):
    """One item of a plan's block table: users start .. start + count - 1
    each send one `kind` report of subgroup `tag` in `round`. `reach` bounds
    a real report's magnitude; `key` is a level block's level or a refinement
    subgroup's group key, and `params` its users' randomizer parameters (the
    level; or the lattice offset, spacing and in uv1 the noise numerator).
    Kind "broadcast" is the broadcast opening `round`, whose payload gives
    the round-two blocks their parameters."""

    round: int
    tag: str
    kind: str
    start: int = 0
    count: int = 0
    reach: float = math.inf
    key: object = None
    params: tuple = ()


class Run(NamedTuple):
    """Consecutive blocks of one round and kind, `count` users each, whose
    user ranges touch: block i holds users start + i count onwards and has
    tag tags[i]. `params` holds one array per randomizer parameter and
    `reach` the bound on real reports, each with one entry per block. A
    transcript holds the run as one item, which starts with `head`. A
    broadcast is a run of its own."""

    round: int
    kind: str
    start: int
    count: int
    tags: tuple
    params: tuple
    reach: np.ndarray

    @property
    def stop(self) -> int:
        return self.start + self.count * len(self.tags)

    @property
    def head(self) -> tuple:
        """("messages", round, kind, ((tag, count), ...)), or ("broadcast", round)."""
        if self.kind == "broadcast":
            return ("broadcast", self.round)
        return ("messages", self.round, self.kind, tuple(zip(self.tags, itertools.repeat(self.count))))


@dataclass(frozen=True)
class PartitionPlan:
    """Deterministic assignment of user indices to protocol roles."""

    protocol: str
    n: int
    eps: float
    beta: float
    k1: int
    level_plan: LevelPlan
    u2_start: int
    k2: Optional[int] = None
    rho: Optional[int] = None
    sigma: Optional[float] = None  # known-variance modes only
    # one-round subgroup keys in block order: ints (kv1) or (level, m) pairs
    group_keys: tuple = ()
    # every message block and broadcast a run emits, in order; built by
    # plan_partition
    blocks: Tuple[Block, ...] = ()
    # the blocks as runs, in order; built by plan_partition
    runs: Tuple[Run, ...] = field(default=(), compare=False, repr=False)

    @property
    def levels(self) -> range:
        return self.level_plan.levels

    @property
    def rounds(self) -> int:
        return 2 if self.protocol in ("kv2", "uv2") else 1

    @property
    def discarded(self) -> int:
        """Users in no block, who are never queried."""
        return self.n - sum(block.count for block in self.blocks)

    def subgroup_tag(self, key) -> str:
        """Transcript tag of a one-round refinement subgroup."""
        return f"offset:{key}" if self.protocol == "kv1" else f"lattice:{key[0]}:{key[1]}"

    def summary(self) -> dict:
        out = {
            "protocol": self.protocol,
            "n": self.n,
            "k1": self.k1,
            "levels": [self.level_plan.l_min, self.level_plan.l_max],
            "discarded": self.discarded,
        }
        if self.k2 is not None:
            out["k2"] = self.k2
        if self.rho is not None:
            out["rho"] = self.rho
        if self.group_keys:
            out["subgroups"] = len(self.group_keys)
        return out


# The outcome record's fields, in the order its transcript line spells them.
_OUTCOME_FIELDS = ("protocol", "mu_hat1", "sigma_hat", "mu_hat2")


@dataclass(frozen=True)
class EstimateOutcome:
    protocol: str
    mu_hat1: float
    sigma_hat: Optional[float]
    mu_hat2: float
    plan_summary: dict = field(default_factory=dict, compare=False)

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in _OUTCOME_FIELDS}


def _known_sigma(config: ProtocolConfig) -> float:
    if not isinstance(config.variance_mode, KnownSigma):
        raise ConfigError("protocol requires the known-variance mode")
    return config.variance_mode.sigma


def _sigma_bounds(config: ProtocolConfig) -> Tuple[float, float]:
    if not isinstance(config.variance_mode, BoundedSigma):
        raise ConfigError("protocol requires the bounded-variance mode")
    return config.variance_mode.sigma_min, config.variance_mode.sigma_max


def plan_partition(config: ProtocolConfig, protocol: str) -> PartitionPlan:
    """Lay out users, levels, and one-round subgroups for a protocol run.

    Depends only on public configuration, so the replay path can rebuild the
    exact plan without the simulation truth. The last plan is kept, keyed on
    the public configuration alone: a cell's trials and runners, and cells
    that differ only in their truth or master seed, share one frozen plan
    instead of rebuilding it.
    """
    return _public_plan(replace(config, truth=None, master_seed=0), protocol)


@functools.lru_cache(maxsize=1)
def _public_plan(config: ProtocolConfig, protocol: str) -> PartitionPlan:
    if protocol not in PROTOCOLS:
        raise ConfigError(f"unknown protocol {protocol!r}")
    n, eps, beta = config.n, config.eps, config.beta
    half = n // 2

    # k and k1 name the same level size for a protocol; the plan reads one
    if config.k is not None and config.k1 is not None:
        ignored = "k1" if protocol == "kv2" else "k"
        raise ConfigError(f"{protocol} takes k or k1, not both; it would ignore {ignored}")
    k1 = next((size for size in (config.k, config.k1) if size is not None),
              config.default_level_size())
    if k1 < 1:
        raise ConfigError(f"level subgroup size must be positive, got {k1}")
    level_count = half // k1
    if level_count < 1:
        raise ConfigError(
            f"n = {n} cannot fill one level subgroup of size {k1}; the protocol "
            f"needs n / log(n) to grow like log(mu) log(1/beta) / eps^2"
        )

    if protocol in ("kv2", "kv1"):
        sigma = _known_sigma(config)
        l_min = math.floor(math.log2(sigma))
    else:
        sigma = None
        sigma_min, sigma_max = _sigma_bounds(config)
        l_min = math.floor(math.log2(sigma_min))
    l_max = l_min + level_count - 1
    if protocol in ("uv2", "uv1"):
        needed = math.ceil(math.log2(sigma_max))
        if l_max < needed:
            raise ConfigError(
                f"level budget tops out at scale 2^{l_max} but sigma_max needs "
                f"2^{needed}; lower k1 or raise n"
            )
    if l_max > _MAX_TOP_LEVEL:
        raise ConfigError(
            f"top level {l_max} exceeds the floating-point scale budget; "
            f"supply a larger level subgroup size"
        )
    level_plan = LevelPlan(l_min=l_min, l_max=l_max, k=k1, beta=beta, eps=eps)

    k2 = rho = None
    group_keys = ()
    if protocol == "kv1":
        rho = math.ceil(2.0 * math.sqrt(math.log(4.0 * n)))
        group_keys = tuple(range(1, 5 * rho + 1))
    elif protocol == "uv1":
        rho = math.ceil(math.sqrt(math.log(4.0 * n)) + 6.0)
        group_keys = tuple((j, m) for j in level_plan.levels for m in range(1, rho + 1))
    if group_keys:
        k2 = half // len(group_keys)
        if k2 < 1:
            raise ConfigError(
                f"n = {n} cannot fill {len(group_keys)} refinement subgroups; raise n"
            )
    plan = PartitionPlan(
        protocol=protocol, n=n, eps=eps, beta=beta, k1=k1, level_plan=level_plan,
        u2_start=half, k2=k2, rho=rho, sigma=sigma, group_keys=group_keys,
    )
    blocks = _block_table(plan)
    return replace(plan, blocks=blocks, runs=_runs(blocks))


# the cache is cleared through the name callers plan with
plan_partition.cache_clear = _public_plan.cache_clear


def _block_table(plan: PartitionPlan) -> Tuple[Block, ...]:
    """Every message block and broadcast a run of `plan` emits, in order:
    the level blocks, then either the broadcast and the second half's
    round-two reports, or the one-round refinement subgroups."""
    kind = "sign" if plan.protocol in ("kv2", "kv1") else "real"
    blocks = [
        Block(1, f"level:{j}", "quad", i * plan.k1, plan.k1, key=j, params=(j,))
        for i, j in enumerate(plan.levels)
    ]
    if plan.rounds == 2:
        blocks.append(Block(2, "broadcast", "broadcast"))
        blocks.append(Block(2, "refine", kind, plan.u2_start, plan.n - plan.u2_start))
    for i, key in enumerate(plan.group_keys):
        if plan.protocol == "kv1":  # lattice 0.2 sigma m + rho sigma Z
            params, reach = (0.2 * plan.sigma * key, plan.rho * plan.sigma), math.inf
        else:  # lattice m 2^j + rho 2^j Z, Laplace noise numerator 2 rho 2^j
            scale = 2.0 ** key[0]
            params = (key[1] * scale, plan.rho * scale, 2.0 * plan.rho * scale)
            # a residual within spacing / 2 (spacing allows for rounding), plus noise
            reach = params[1] + _LAPLACE_REACH * (params[2] / plan.eps)
        start = plan.u2_start + i * plan.k2
        blocks.append(Block(1, plan.subgroup_tag(key), kind, start, plan.k2, reach, key, params))
    return tuple(blocks)


def _runs(blocks: Tuple[Block, ...]) -> Tuple[Run, ...]:
    """A block table as runs: consecutive blocks of one round and kind, as
    a transcript holds them. The table gives a run's blocks one size and
    touching user ranges."""
    runs = [list(run) for _, run in itertools.groupby(blocks, operator.attrgetter("round", "kind"))]
    return tuple(
        Run(run[0].round, run[0].kind, run[0].start, run[0].count, tuple(b.tag for b in run),
            tuple(map(np.array, zip(*(b.params for b in run)))), np.array([b.reach for b in run]))
        for run in runs
    )


# ---------------------------------------------------------------------------
# Transcript

# Message lines are written and read as runs: consecutive message blocks of
# one round and kind. A line is the head '{"round":R,"user":', the user, the
# block's middle ',"subgroup":"...","kind":"...","value":', the value and
# '}\n'. Integers are spelled as int() spells them and floats by repr, as
# json.dumps spells them; _message_lines is the one spelling of such lines.
_INT_KINDS = ("quad", "sign")
_SLICE = 1 << 16  # message lines formatted at once
_WINDOW = 1 << 20  # bytes of a transcript read at once
# Integers of at most 15 digits, so that they parse exactly as floats too.
_INT = r"(?:0|-?[1-9][0-9]{0,14})"
_STRING = r'"(?:[^"\\\n]|\\.)*"'
_MESSAGE_HEAD = re.compile(
    rf'(\{{"round":({_INT}),"user":){_INT}(,"subgroup":({_STRING}),"kind":({_STRING}),"value":)'
)
# Consecutive message lines that repeat the first one's head (group 1) and
# middle (group 2), for integer and for real values; a real value only has
# its characters checked here, and the reader checks its spelling. The
# possessive repeat never backtracks, which keeps the backreferences as fast
# as a literal head and middle. Python's re has it from 3.11 on, hence the
# package's requires-python; the atomic-lookahead spelling 3.10 accepts,
# (?=((?:...)*))\3, is about three times slower than either.
_RUN = {
    integral: re.compile(
        rf'(\{{"round":{_INT},"user":){_INT}(,"subgroup":{_STRING},"kind":{_STRING},"value":)'
        rf'{value}\}}(?:\n|\Z)(?:\1{_INT}\2{value}\}}(?:\n|\Z))*+'
    )
    for integral, value in ((True, _INT), (False, "[-+.0-9eINafinty]+"))
}


def _json_line(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":")) + "\n"


def _as_written(obj) -> dict:
    """A broadcast or outcome line's object rebuilt with the types the writer
    gives it: an int round and float payload values; a str protocol, float
    estimates and a float-or-null sigma_hat. KeyError, TypeError, ValueError
    or OverflowError when no rebuilding fits."""
    if "outcome" not in obj:
        payload = dict(obj["broadcast"])
        return {"round": int(obj["round"]), "broadcast": {k: float(v) for k, v in payload.items()}}
    fields = obj["outcome"]
    sigma_hat = fields["sigma_hat"]
    return {"outcome": {
        "protocol": str(fields["protocol"]), "mu_hat1": float(fields["mu_hat1"]),
        "sigma_hat": None if sigma_hat is None else float(sigma_hat),
        "mu_hat2": float(fields["mu_hat2"]),
    }}


def _spell_floats(array: np.ndarray) -> List[str]:
    spelled = list(map(repr, array.tolist()))
    for i in np.flatnonzero(~np.isfinite(array)).tolist():
        spelled[i] = json.dumps(float(array[i]))  # NaN, Infinity, -Infinity
    return spelled


def _digit_groups() -> np.ndarray:
    """4-digit groups as uint32 rows of four ASCII bytes: row v < 10^4 spells
    v with leading NULs (a number's leading group), row 10^4 + v spells it
    with leading zeros (a lower group), and row 2 * 10^4 is all NUL (a group
    above the number's leading one)."""
    v = np.arange(10_000)[:, None]
    digits = v // [1000, 100, 10, 1] % 10 + ord("0")
    leading = np.where(v < [1000, 100, 10, 0], 0, digits)
    rows = np.concatenate([leading, digits, np.zeros((1, 4), int)]).astype(np.uint8)
    return rows.view(np.uint32).ravel()


_DIGIT_GROUPS = _digit_groups()
_MINUS = np.frombuffer(b"\0\0\0-", np.uint32)[0]  # a minus sign, NULs before it
_FLOAT_WIDTH = "S24"  # the longest repr of a float64: -2.2250738585072014e-308


def _text_field(spelled: List[str], dtype: str = "S") -> np.ndarray:
    """ASCII strings as the rows of a uint8 matrix, NUL-padded on the right
    to the longest or to the width of `dtype`."""
    column = np.array(spelled, dtype=dtype)
    return column.view(np.uint8).reshape(column.size, column.itemsize)


def _int_field(x: np.ndarray) -> np.ndarray:
    """int64 integers spelled as int() spells them, as the rows of a uint8
    matrix, NUL-padded on the left."""
    magnitude = np.abs(x)
    negative = x < 0
    sign = int(negative.any())
    groups = -(-len(str(magnitude.max())) // 4)
    field = np.empty((x.size, sign + groups), np.uint32)
    if sign:
        field[:, 0] = np.where(negative, _MINUS, 0)
    for i in range(groups):
        q = magnitude // 10 ** (4 * (groups - 1 - i))
        rows = q % 10_000
        rows += 10_000 * (q >= 10_000)
        if i < groups - 1:
            rows[q == 0] = 20_000
        field[:, sign + i] = _DIGIT_GROUPS[rows]
    return field.view(np.uint8)


def _message_lines(round_no: int, kind: str, blocks, users: np.ndarray, values: np.ndarray) -> bytes:
    """The message lines of `blocks`, (subgroup, size) pairs of one round
    and kind that split int64 `users` and int64 or float64 `values` in
    order, as the transcript spells them. Each line is a row of a uint8
    matrix: its block's template row (head, NULs for the user, middle
    NUL-padded to the widest, NULs for the value, and "}\n") with the user's
    and the value's NUL-padded spellings written in. Dropping the NULs
    leaves the lines; no line holds a NUL of its own, because json.dumps
    escapes control characters."""
    user_field = _int_field(users)
    if kind in _INT_KINDS:
        value_field = _int_field(values)
    else:  # a fixed width converts faster than one numpy must find
        value_field = _text_field(_spell_floats(values), _FLOAT_WIDTH)
    head = '{"round":' + json.dumps(round_no) + ',"user":'
    middles = [f',"subgroup":{json.dumps(tag)},"kind":{json.dumps(kind)},"value":' for tag, _ in blocks]
    width = max(map(len, middles))
    templates = _text_field([
        head + "\0" * user_field.shape[1] + middle.ljust(width, "\0")
        + "\0" * value_field.shape[1] + "}\n"
        for middle in middles
    ])
    lines = np.repeat(templates, [size for _, size in blocks], axis=0)
    lines[:, len(head):len(head) + user_field.shape[1]] = user_field
    lines[:, -2 - value_field.shape[1]:-2] = value_field
    return lines[lines != 0].tobytes()


def _split(item: tuple):
    """A message item's blocks: (subgroup, users, values) each."""
    lo = 0
    for tag, size in item[3]:
        yield tag, item[4][lo:lo + size], item[5][lo:lo + size]
        lo += size


def _held(array, kinds: str) -> np.ndarray:
    """`array` as a line spells it: integers (dtype kinds "iu") of at most
    15 digits, as _INT reads them, as int64, or floats ("f") as float64 with
    every NaN the one NaN a line spells; MalformedInputError for the rest."""
    array = np.asarray(array)
    integral = kinds == "iu"
    if array.dtype.kind not in kinds or array.dtype.itemsize > 8 or (
        integral and array.size and not -10 ** 15 < array.min() <= array.max() < 10 ** 15
    ):
        what = "integers of at most 15 digits" if integral else "floats of at most 64 bits"
        raise MalformedInputError(f"expected {what}, got {array!r}")
    if not integral and np.isnan(array).any():
        array = np.where(np.isnan(array), np.nan, array)
    return array.astype(np.int64 if integral else np.float64, copy=False)


_MISSPELLED = "a value at or below this line is not spelled as written"


def _malformed(line: int, why: str) -> MalformedInputError:
    return MalformedInputError(f"line {line}: {why}")


def _read_run(text: str, pos: int, cut: int, line: int):
    """The message lines from `pos` (line `line` of the transcript) that
    share the first one's round, subgroup and kind, up to `cut`: ((round,
    kind), subgroup, users, values, end), or None when the line at `pos` is
    not a message line as written. Real values only have their characters
    checked here."""
    first = _MESSAGE_HEAD.match(text, pos, cut)
    if first is None:
        return None
    head, middle = first[1], first[3]
    try:  # a string with an escape JSON lacks, such as \q
        subgroup, kind = json.loads(first[4]), json.loads(first[5])
    except ValueError:
        return None
    if json.dumps(subgroup) != first[4] or json.dumps(kind) != first[5]:
        return None
    integral = kind in _INT_KINDS
    run = _RUN[integral].match(text, pos, cut)
    if run is None:
        return None
    end = run.end()
    # "u M v}\nH u M v}\nH ... u M v" -> "u M v M u M v ... u M v"
    body = text[pos + len(head):end - (text[end - 1] == "\n") - 1].replace("}\n" + head, middle)
    try:
        numbers = np.fromstring(body, dtype=np.int64 if integral else np.float64, sep=middle)
    except ValueError:
        raise _malformed(line, _MISSPELLED) from None
    return (int(first[2]), kind), subgroup, numbers[0::2].astype(np.int64), numbers[1::2], end


class Transcript:
    """Ordered record of every privatized message and analyst broadcast.

    Messages are stored columnar, one item per maximal run of message blocks
    of one round and kind, in the form their lines read back as; they
    serialize as one JSON line per message, in causal order, formatted up to
    _SLICE lines at a time. Floats serialize with shortest-roundtrip
    formatting, so files are byte-stable: ASCII with LF line ends, written in
    binary mode. A transcript's lines read back as the same items.
    """

    def __init__(self, protocol: str, n: int):
        self.protocol = protocol
        self.n = n
        # ("messages", round, kind, ((subgroup, size), ...), users, values)
        # or ("broadcast", round, payload)
        self._items: List[tuple] = []
        self.outcome: Optional[EstimateOutcome] = None

    def add_messages(self, round_no: int, subgroup: str, kind: str, users, values) -> None:
        self.add_blocks(round_no, (subgroup,), kind, users, values)

    def add_blocks(self, round_no: int, subgroups: tuple, kind: str, users, values) -> None:
        """Consecutive message blocks of equal size, one per subgroup: the
        users and values split evenly among them, in order, each held as its
        lines spell it (`_held`): the round, users, and quad and sign values
        integers, any other kind's values floats, and the subgroups and kind
        strings. MalformedInputError, adding nothing, for anything else."""
        if not subgroups or not all(isinstance(tag, str) for tag in (kind, *subgroups)):
            raise MalformedInputError(f"expected string subgroups and kind, got {subgroups!r} and {kind!r}")
        round_no = int(_held(round_no, "iu"))
        users = _held(users, "iu")
        values = _held(values, "iu" if kind in _INT_KINDS else "f")
        if users.ndim != 1 or users.shape != values.shape or users.size % len(subgroups):
            raise MalformedInputError("users and values must align and split evenly")
        size = users.size // len(subgroups)
        self._add_run(round_no, kind, [(tag, size) for tag in subgroups], users, values)

    def _add_run(self, round_no: int, kind: str, blocks, users: np.ndarray, values: np.ndarray) -> None:
        """Message blocks, (subgroup, size) pairs that split `users` and
        `values` in order, held as their lines read back: joined to a
        preceding item of the same round and kind, blocks without users
        dropped, and adjacent blocks of one subgroup merged."""
        if self._items and self._items[-1][:3] == ("messages", round_no, kind):
            _, _, _, before, *held = self._items.pop()
            blocks = [*before, *blocks]
            users, values = (np.concatenate(pair) for pair in zip(held, (users, values)))
        merged: List[tuple] = []
        for tag, size in blocks:
            if merged and merged[-1][0] == tag:
                merged[-1] = (tag, merged[-1][1] + size)
            elif size:
                merged.append((tag, size))
        if merged:
            self._items.append(("messages", round_no, kind, tuple(merged), users, values))

    def add_broadcast(self, round_no: int, payload: dict) -> None:
        """The broadcast opening round `round_no`, held as its line spells it:
        an int round and float values under string keys; else MalformedInputError."""
        payload = dict(payload)
        if not all(isinstance(key, str) and isinstance(value, numbers.Real) for key, value in payload.items()):
            raise MalformedInputError(f"a broadcast maps strings to real numbers, got {payload!r}")
        self._items.append(("broadcast", int(_held(round_no, "iu")), {k: float(v) for k, v in payload.items()}))

    @property
    def message_count(self) -> int:
        return sum(item[4].shape[0] for item in self._items if item[0] == "messages")

    @property
    def rounds(self) -> set:
        return {item[1] for item in self._items if item[0] == "messages"}

    def user_ids(self) -> np.ndarray:
        runs = [item[4] for item in self._items if item[0] == "messages"]
        return np.concatenate(runs) if runs else np.array([], dtype=np.int64)

    def broadcasts(self) -> List[Tuple[int, dict]]:
        return [(item[1], item[2]) for item in self._items if item[0] == "broadcast"]

    def messages_by_subgroup(self) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
        """Per-subgroup (users, values) in emission order."""
        grouped: Dict[str, List[tuple]] = {}
        for item in self._items:
            if item[0] == "messages":
                for tag, *arrays in _split(item):
                    grouped.setdefault(tag, []).append(arrays)
        return {tag: tuple(map(np.concatenate, zip(*blocks))) for tag, blocks in grouped.items()}

    def validate(self, max_rounds: int) -> None:
        """Sequential interactivity and round-count invariants, in O(n)."""
        ids = self.user_ids()
        if ids.size:
            if ids.min() < 0 or ids.max() >= self.n:
                raise MalformedInputError("user index outside the population")
            if np.bincount(ids, minlength=self.n).max() > 1:
                raise MalformedInputError("a user sent more than one message")
        if not self.rounds <= set(range(1, max_rounds + 1)):
            raise MalformedInputError(f"round index outside 1..{max_rounds}")

    def _pieces(self):
        """The serialized bytes in pieces: one line per broadcast and for the
        outcome, and the message lines of each item, _SLICE lines at a time."""
        for item in self._items:
            if item[0] == "broadcast":
                yield _json_line({"round": item[1], "broadcast": item[2]}).encode()
                continue
            _, round_no, kind, blocks, users, values = item
            batch, lo, hi = [], 0, 0  # the (subgroup, size) pairs of lines lo..hi
            for tag, size in blocks:
                while size:
                    part = min(size, lo + _SLICE - hi)
                    batch.append((tag, part))
                    hi, size = hi + part, size - part
                    if hi - lo == _SLICE or hi == users.shape[0]:
                        yield _message_lines(round_no, kind, batch, users[lo:hi], values[lo:hi])
                        batch, lo = [], hi
        if self.outcome is not None:
            yield _json_line({"outcome": self.outcome.as_dict()}).encode()

    def dumps(self) -> str:
        return b"".join(self._pieces()).decode("ascii")

    def dump(self, path) -> None:
        with open(path, "wb") as fh:
            fh.writelines(self._pieces())

    @classmethod
    def loads(cls, text: str, protocol: str, n: int) -> "Transcript":
        """Parse what `dumps` writes, as `load` reads a file: _WINDOW
        characters at a time."""
        pieces = (text[i:i + _WINDOW] for i in range(0, len(text), _WINDOW))
        return cls._read(pieces, protocol, n)

    @classmethod
    def load(cls, path, protocol: str, n: int) -> "Transcript":
        """Read what `dump` writes, _WINDOW bytes at a time, each decoded as
        ASCII with its line ends kept as they are: a non-ASCII byte, or a CR
        or CRLF line end, makes the file malformed."""
        with open(path, "rb") as fh:
            pieces = (piece.decode("ascii") for piece in iter(functools.partial(fh.read, _WINDOW), b""))
            return cls._read(pieces, protocol, n)

    @classmethod
    def _read(cls, pieces, protocol: str, n: int) -> "Transcript":
        """Parse the text that `pieces` spell, one window at a time: the
        pieces read so far up to their last newline, the partial line after
        it carried into the next window. Message lines must be spelled
        exactly as `dumps` spells them, and are read a run of consecutive
        lines sharing round, subgroup and kind at a time (a run cut by a
        window's end goes on in the next); real values' spelling is checked
        against the writer's own formatter before their window is dropped.
        Any other line is a broadcast or an outcome: read as JSON, rebuilt
        with the writer's types (`_as_written`), and spelled as the writer
        spells that. An outcome, if any, is the last line, and every line
        ends in a newline. Consecutive message lines of one round and kind
        are added as one run. Raises MalformedInputError, naming the line,
        for anything else."""
        transcript = cls(protocol, n)
        lines = outcome_line = 0  # lines parsed so far; the outcome's line
        # [round, kind, (subgroup, size) pairs, user arrays, value arrays]
        pending: Optional[list] = None
        # runs of real values read from window position `unchecked_from`
        # (line `unchecked_line`) on, all of round and kind `unchecked_key`:
        # ((subgroup, size), users, values)
        unchecked, unchecked_from, unchecked_line, unchecked_key = [], 0, 0, None

        def flush() -> None:
            if pending is not None:  # a column at a time, each piece dropped once copied
                for column, pieces in ((3, pending[3]), (4, pending[4])):
                    pending[column] = np.empty(end := sum(map(len, pieces)), pieces[0].dtype)
                    while pieces:
                        piece = pieces.pop()
                        pending[column][end - len(piece):end], end = piece, end - len(piece)
                transcript._add_run(*pending)

        def check_spelling(upto: int) -> None:
            """Real values must be spelled as written: the unchecked runs'
            text must be what _message_lines writes for their users and
            values."""
            if unchecked:
                blocks, users, values = zip(*unchecked)
                spelled = _message_lines(*unchecked_key, blocks, np.concatenate(users), np.concatenate(values))
                if spelled != text[unchecked_from:upto].encode():
                    raise _malformed(unchecked_line, _MISSPELLED)
                unchecked.clear()

        # the partial line after the last newline, in the pieces it was read
        # in, so that a long line is joined once
        carry, pieces = [], iter(pieces)
        while True:
            try:  # the carried partial line holds no newline
                piece = next(pieces, None)
            except UnicodeDecodeError as exc:
                line = lines + exc.object.count(b"\n", 0, exc.start) + 1
                raise _malformed(line, "a byte outside ASCII") from None
            if piece is None:
                break
            carry.append(piece)
            cut = piece.rfind("\n") + 1
            if not cut:
                continue
            text = "".join(carry)
            cut += len(text) - len(piece)
            carry, pos = [text[cut:]], 0
            while pos < cut:
                if transcript.outcome is not None:
                    raise _malformed(outcome_line, "a line follows the outcome")
                run = _read_run(text, pos, cut, lines + 1)
                if run is not None:
                    key, subgroup, users, values, end = run
                    if unchecked and unchecked_key != key:
                        check_spelling(pos)
                    if key[1] not in _INT_KINDS:
                        if not unchecked:
                            unchecked_from, unchecked_line, unchecked_key = pos, lines + 1, key
                        unchecked.append(((subgroup, users.size), users, values))
                    if pending is None or tuple(pending[:2]) != key:
                        flush()
                        pending = [*key, [], [], []]
                    for column, part in zip(pending[2:], ((subgroup, users.size), users, values)):
                        column.append(part)
                    lines += users.size
                    pos = end
                    continue
                check_spelling(pos)
                end = text.find("\n", pos)
                raw, pos = text[pos:end], end + 1
                lines += 1
                flush()
                pending = None
                try:  # json.JSONDecodeError is a ValueError; deep nesting recurses
                    item = _as_written(json.loads(raw))
                except (KeyError, TypeError, ValueError, OverflowError, RecursionError):
                    item = None
                if item is None or _json_line(item) != raw + "\n":
                    raise _malformed(lines, "not a broadcast, an outcome or a message as written")
                if "outcome" in item:
                    transcript.outcome = EstimateOutcome(**item["outcome"])
                    outcome_line = lines
                else:
                    transcript.add_broadcast(item["round"], item["broadcast"])
            check_spelling(cut)  # before the window is dropped
        if any(carry):
            raise _malformed(lines + 1, "the last line lacks its newline")
        flush()
        return transcript


# ---------------------------------------------------------------------------
# Analyst side: one function computes every output from the plan and the
# transcript. Live runs call it on the transcript their users write, and
# replay calls it on a recorded one.

def _reported(run: Run, values: np.ndarray) -> bool:
    """Whether a randomizer of the run's kind can report every one of its
    values; the run's `reach` bounds each block's real values in magnitude."""
    if run.kind == "real":
        return np.all(np.abs(values).reshape(len(run.tags), run.count).max(axis=1) < run.reach)
    if run.kind == "quad":
        return values.min() >= 0 and values.max() <= 3
    return values.min() >= -1 and values.max() <= 1 and np.count_nonzero(values) == values.size


def _not_planned(plan: PartitionPlan, index: int) -> MalformedInputError:
    return MalformedInputError(f"transcript block {index} is not the planned {plan.blocks[index]}")


def _first_unplanned(plan: PartitionPlan, items: List[tuple], round_no: int) -> MalformedInputError:
    """The error naming what a scan of `items`, block by block, finds first
    against the block table through round `round_no`: a count of blocks
    off the table's; else the first block whose head, or whose users'
    shape, is not its planned block's; else the first block of the round
    that does not hold its planned users; else what the scan through the
    last round finds (a block past the round's planned ones joined its last
    run, and a scan block by block meets it only there)."""
    got = []  # (round, tag, kind, users) of each block, as the table spells them
    for item in items:
        if item[0] == "broadcast":
            got.append((item[1], "broadcast", "broadcast", np.empty(0, np.int64)))
        else:
            got.extend((item[1], tag, item[2], users) for tag, users, _ in _split(item))
    planned = [block for block in plan.blocks if block.round <= round_no]
    if len(got) < len(planned) or (round_no == plan.rounds and len(got) > len(planned)):
        return MalformedInputError(
            f"transcript holds {len(got)} blocks, expected {len(planned)} through round {round_no}"
        )
    for index, (block, (*head, users)) in enumerate(zip(planned, got)):
        if tuple(head) != block[:3] or users.shape != (block.count,):
            return _not_planned(plan, index)
    for index, (block, (*_, users)) in enumerate(zip(planned, got)):
        if block.round == round_no and (users != np.arange(block.start, block.start + block.count)).any():
            return _not_planned(plan, index)
    return _first_unplanned(plan, items, plan.rounds)


def _gate(plan: PartitionPlan, transcript: Transcript, round_no: int) -> Dict[str, np.ndarray]:
    """One round's reports, checked against the plan: kind -> the values of
    the round's run of that kind (a round holds one run of each kind it
    reports), the transcript's own array.

    Raises MalformedInputError unless the transcript's items through this
    round equal the plan's runs, item for item, and at the last round no
    item follows: each broadcast sits where the plan puts it, and each
    message item has its run's round, kind, tags and block sizes. This
    round's items must hold exactly their planned ranges of users (the
    analyst gates the rounds in order, so earlier rounds' were checked
    before). Planned ranges are disjoint and lie in [0, n), so no user
    reports twice, outside their own subgroup, or at all if discarded. Every
    value of this round must also be one its randomizer can report: quad
    values in {0,1,2,3}, sign values in {-1,+1}, real values finite (and
    within the randomizer's reach in uv1). Errors name the first block at
    fault, as a scan block by block would (`_first_unplanned`).
    """
    runs = [run for run in plan.runs if run.round <= round_no]
    items = transcript._items
    if len(items) < len(runs) or (round_no == plan.rounds and len(items) > len(runs)) or any(
        item[:len(run.head)] != run.head or run.round == round_no and run.kind != "broadcast"
        and (item[4] != np.arange(run.start, run.stop)).any() for run, item in zip(runs, items)
    ):
        raise _first_unplanned(plan, items, round_no)
    reports = {}
    for run, item in zip(runs, items):
        if run.round == round_no and run.kind != "broadcast":
            if not _reported(run, item[5]):
                raise MalformedInputError(f"round {round_no} holds a {run.kind} value no randomizer reports")
            reports[run.kind] = item[5]
    return reports


def _analyze(
    plan: PartitionPlan, transcript: Transcript, respond: Optional[Callable[[dict], None]] = None
) -> EstimateOutcome:
    """Every analyst output, from the plan and the transcript alone: mu_hat1,
    sigma_hat, the round-two broadcast and mu_hat2.

    In a live two-round run, `respond` records the broadcast and lets the
    round-two users answer it before round two is read; in replay, the
    recorded broadcast must equal the one computed here. The level
    histograms are one (levels, 4) matrix; the analyst reads its rows.
    """
    reports = _gate(plan, transcript, 1)
    levels = reports["quad"].reshape(len(plan.levels), plan.k1)
    bins = debias_quad_counts(plan.eps, plan.k1, quad_counts_from_values(levels))
    sigma_hat = None
    if plan.protocol in ("uv2", "uv1"):
        paired = dict(zip(plan.levels, pair_adjacent_bins(bins)))
        sigma_hat = est_var(plan.beta, plan.eps, paired, plan.k1, plan.level_plan)
    mu1 = est_mean(plan.beta, plan.eps, dict(zip(plan.levels, bins)), plan.k1, plan.level_plan)

    if plan.rounds == 2:
        if plan.protocol == "kv2":
            broadcast = {"mu_hat1": mu1}
        else:
            half_width = sigma_hat * (2.0 + math.sqrt(math.log(4.0 * plan.n)))
            # A wildly wrong rough estimate can dwarf the width until mu1 - h
            # == mu1 + h in floats; keep the interval nonempty so the run
            # completes and the error surfaces in the estimate, not a crash.
            half_width = max(half_width, 4.0 * math.ulp(abs(mu1)))
            broadcast = {"interval_lo": mu1 - half_width, "interval_hi": mu1 + half_width}
        if respond is not None:
            respond(broadcast)
        reports = _gate(plan, transcript, 2)
        recorded = transcript.broadcasts()[0][1]
        for key in sorted(set(recorded) | set(broadcast)):
            if recorded.get(key) != broadcast.get(key):
                raise ReplayMismatch(f"broadcast {key}", recorded.get(key), broadcast.get(key))

    summary = plan.summary()
    if plan.protocol == "kv2":
        signs = reports["sign"]
        hist = debias_sign_counts(plan.eps, signs.size, sign_counts_from_values(signs))
        mu2 = refine_known_sigma(hist, signs.size, mu1, plan.sigma)
    elif plan.protocol == "kv1":
        signs = reports["sign"].reshape(len(plan.group_keys), plan.k2)
        tallies = {key: sign_counts_from_values(row) for key, row in zip(plan.group_keys, signs)}
        lattices = {b.key: LatticeSpec(*b.params) for b in plan.blocks if b.kind == "sign"}
        mu2 = refine_pooled_kv(tallies, lattices, mu1, plan.sigma, plan.eps)
    elif plan.protocol == "uv2":
        mu2 = (2.0 / plan.n) * float(np.sum(reports["real"]))
    else:
        j1, m2, s_star = select_subgroup_uv(sigma_hat, mu1, plan.level_plan, plan.rho)
        residuals = reports["real"].reshape(len(plan.group_keys), plan.k2)
        selected = residuals[plan.group_keys.index((j1, m2))]
        mu2 = s_star + float(np.sum(selected)) / plan.k2
        summary["selected"] = {"level": j1, "subgroup": m2, "center": s_star}
    return EstimateOutcome(plan.protocol, mu1, sigma_hat, mu2, summary)


# ---------------------------------------------------------------------------
# Runners: users emit, then the analyst decides on the transcript they wrote.
# Only the user side reads samples, through the randomizer kernels.

_CHUNK = BLOCK  # users privatized with one streams.matrix and one kernel call


def privatize(eps: float, sigma, kind: str, x, draws, params, broadcast):
    """One kernel call, the one map from a block to its kernel: reports of
    users with samples `x` and draws `draws` in a block of `kind` with
    `params` (a block's, or arrays of one entry per user) under its round's
    `broadcast`; sigma is the sign kind's. The audits in `harness` call it
    with a block's kind, params and broadcast."""
    if kind == "quad":
        return rr1_values(eps, x, params[0], draws[:, 0], draws[:, 1])
    if kind == "sign":
        # kv2's round two is centered on the broadcast
        centers = LatticeSpec(*params).nearest_points(x) if params else broadcast["mu_hat1"]
        return sign_rr_values(eps, x, centers, sigma, draws[:, 0])
    if not params:  # uv2's round two, clamped to the broadcast
        lo, hi = broadcast["interval_lo"], broadcast["interval_hi"]
        return uv_rr2_values(eps, x, lo, hi, draws[:, 0])
    offset, spacing, numerator = params
    return one_round_uv_rr2_values(eps, x, LatticeSpec(offset, spacing), numerator, draws[:, 0])


def _run(protocol: str, config: ProtocolConfig, samples, streams: TrialStreams):
    plan = plan_partition(config, protocol)
    samples = np.asarray(samples, dtype=np.float64)
    if samples.shape != (config.n,):
        raise ConfigError(f"expected {config.n} samples, got shape {samples.shape}")
    if not np.isfinite(samples).all():
        raise ConfigError("samples must be finite")
    transcript = Transcript(protocol, config.n)

    def emit(round_no: int, broadcast: Optional[dict] = None) -> None:
        """One round, a run at a time: the broadcast that opens it, then each
        run's users privatize their samples, _CHUNK users per draw and
        kernel call, each user with the parameters of their block, and the
        run enters the transcript in one call."""
        for run in plan.runs:
            if run.round != round_no:
                continue
            if run.kind == "broadcast":
                transcript.add_broadcast(round_no, broadcast)
                continue
            users, x = np.arange(run.start, run.stop), samples[run.start:run.stop]
            values = np.empty(users.size, np.float64 if run.kind == "real" else np.int64)
            for lo in range(0, users.size, _CHUNK):
                part = slice(lo, lo + _CHUNK)
                draws = streams.matrix(users[part], first=2, count=2 if run.kind == "quad" else 1)
                params = []
                if run.params:  # gathered from the columns by block
                    block = np.arange(lo, lo + draws.shape[0]) // run.count
                    params = [column[block] for column in run.params]
                values[part] = privatize(plan.eps, plan.sigma, run.kind, x[part], draws, params, broadcast)
            transcript.add_blocks(round_no, run.tags, run.kind, users, values)

    emit(1)
    outcome = _analyze(plan, transcript, lambda broadcast: emit(2, broadcast))
    transcript.outcome = outcome
    return outcome, transcript


RUNNERS = {protocol: functools.partial(_run, protocol) for protocol in PROTOCOLS}


def replay_analyst(protocol: str, config: ProtocolConfig, transcript: Transcript) -> EstimateOutcome:
    """Recompute every analyst output from the transcript and public config.

    Runs the analyst that live runs use on the recorded transcript. Raises
    MalformedInputError for transcripts no run could produce, an outcome-less
    one included, and ReplayMismatch when the recorded broadcast or outcome
    diverges from the recomputation.
    """
    if transcript.outcome is None:
        raise MalformedInputError("transcript has no outcome line")
    outcome = _analyze(plan_partition(config, protocol), transcript)
    for name in _OUTCOME_FIELDS:
        recorded, recomputed = getattr(transcript.outcome, name), getattr(outcome, name)
        if recorded != recomputed:
            raise ReplayMismatch(name, recorded, recomputed)
    return outcome
