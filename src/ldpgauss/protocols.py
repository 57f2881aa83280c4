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
once, as the plan's block table of every transcript item in emission order.
The first half of the user indices is split into per-level blocks (ascending
level order); the second half either answers the round-two broadcast
wholesale or is split into one-round subgroup blocks. Leftover users are
never queried. Runners emit by walking the table as runs: consecutive
blocks of one kind whose user ranges touch (the level blocks, the
refinement subgroups, the round-two block). A run is privatized in chunks
of up to 2^14 users, each with one draw of uniforms and one kernel call fed
per-user parameters, and each block enters the transcript as a slice of the
run's arrays. The analyst's gate requires a transcript to equal the table
block for block.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
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
    # every transcript item a run emits, in order; built by plan_partition
    blocks: Tuple[Block, ...] = ()

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


@functools.lru_cache(maxsize=1)
def plan_partition(config: ProtocolConfig, protocol: str) -> PartitionPlan:
    """Lay out users, levels, and one-round subgroups for a protocol run.

    Depends only on public configuration, so the replay path can rebuild the
    exact plan without the simulation truth. The last plan is kept: a cell's
    trials and runners share one frozen plan instead of rebuilding it.
    """
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
    return replace(plan, blocks=_block_table(plan))


def _block_table(plan: PartitionPlan) -> Tuple[Block, ...]:
    """Every transcript item a run of `plan` emits, in order: the level
    blocks, then either the broadcast and the second half's round-two
    reports, or the one-round refinement subgroups."""
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


# ---------------------------------------------------------------------------
# Transcript

# Message lines are written and read as runs: consecutive message blocks of
# one round and kind. A line is the head '{"round":R,"user":', the user, the
# block's middle ',"subgroup":"...","kind":"...","value":', the value and
# '}\n'. Integers are spelled as int() spells them and floats by repr, as
# json.dumps spells them; _message_lines is the one spelling of such lines.
_INT_KINDS = ("quad", "sign")
_SLICE = 1 << 16  # message lines formatted at once
_WINDOW = 1 << 22  # characters of message lines parsed at once
# Integers of at most 15 digits, so that they parse exactly as floats too.
_INT = r"(?:0|-?[1-9][0-9]{0,14})"
_STRING = r'"(?:[^"\\\n]|\\.)*"'
_MESSAGE_HEAD = re.compile(
    rf'(\{{"round":({_INT}),"user":){_INT}(,"subgroup":({_STRING}),"kind":({_STRING}),"value":)'
)
# Consecutive message lines that repeat the first one's head (group 1) and
# middle (group 2), for integer and for real values; a real value only has
# its characters checked here, and _read_run checks its spelling. The
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


def _spell_ints(array: np.ndarray) -> List[str]:
    values = array.tolist()
    return list(map(str, values if array.dtype.kind in "iu" else map(int, values)))


def _spell_floats(array: np.ndarray) -> List[str]:
    array = array.astype(np.float64, copy=False)
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


def _int_field(array: np.ndarray) -> np.ndarray:
    """Numbers spelled as int() spells them, as the rows of a uint8 matrix,
    NUL-padded on the left. Those int64 cannot hold exactly, or that are not
    numbers, are spelled one by one."""
    if array.dtype.kind not in "biuf" or not np.abs(array.astype(np.float64)).max() < 2.0 ** 63:
        return _text_field(_spell_ints(array))
    x = array.astype(np.int64, copy=False)  # truncates floats toward zero, as int() does
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


def _message_lines(round_no: int, kind: str, blocks: List[tuple]) -> bytes:
    """The message lines of `blocks`, (subgroup, users, values) triples of
    one round and kind whose arrays share their dtypes, as the transcript
    spells them. Each line is a row of a uint8 matrix: its block's template
    row (head, NULs for the user, middle NUL-padded to the widest, NULs for
    the value, and "}\n") with the user's and the value's NUL-padded
    spellings written in. Dropping the NULs leaves the lines; no line holds a
    NUL of its own, because json.dumps escapes control characters."""
    users = np.concatenate([block[1] for block in blocks])
    values = np.concatenate([block[2] for block in blocks])
    user_field = _int_field(users)
    if kind in _INT_KINDS:
        value_field = _int_field(values)
    else:  # a fixed width converts faster than one numpy must find
        value_field = _text_field(_spell_floats(values), _FLOAT_WIDTH)
    head = '{"round":' + json.dumps(round_no) + ',"user":'
    middles = [f',"subgroup":{json.dumps(tag)},"kind":{json.dumps(kind)},"value":' for tag, _, _ in blocks]
    width = max(map(len, middles))
    templates = _text_field([
        head + "\0" * user_field.shape[1] + middle.ljust(width, "\0")
        + "\0" * value_field.shape[1] + "}\n"
        for middle in middles
    ])
    lines = np.repeat(templates, [block[1].shape[0] for block in blocks], axis=0)
    lines[:, len(head):len(head) + user_field.shape[1]] = user_field
    lines[:, -2 - value_field.shape[1]:-2] = value_field
    return lines[lines != 0].tobytes()


def _run_key(item: tuple):
    """What message items of one run share: round, kind, and the dtypes of
    users and values (so that joining them converts nothing); None for a
    broadcast."""
    if item[0] == "broadcast":
        return None
    return item[1], item[3], item[4].dtype, item[5].dtype


_MISSPELLED = "a value at or below this line is not spelled as written"


def _malformed(text: str, pos: int, why: str) -> MalformedInputError:
    return MalformedInputError(f"line {text.count(chr(10), 0, pos) + 1}: {why}")


def _read_run(text: str, pos: int, cut: int):
    """The message lines from `pos` that share the first one's round,
    subgroup and kind, up to `cut`: ((round, subgroup, kind), users, values,
    end), or None when the line at `pos` is not a message line as written.
    Real values only have their characters checked here."""
    first = _MESSAGE_HEAD.match(text, pos, cut)
    if first is None:
        return None
    head, middle = first[1], first[3]
    subgroup, kind = json.loads(first[4]), json.loads(first[5])
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
        raise _malformed(text, pos, _MISSPELLED) from None
    return (int(first[2]), subgroup, kind), numbers[0::2].astype(np.int64), numbers[1::2], end


class Transcript:
    """Ordered record of every privatized message and analyst broadcast.

    Messages are stored columnar per emission block and serialize as one
    JSON line per message, in causal order, formatted a run of blocks at a
    time. Floats serialize with shortest-roundtrip formatting, so files are
    byte-stable: ASCII with LF line ends, written in binary mode.
    """

    def __init__(self, protocol: str, n: int):
        self.protocol = protocol
        self.n = n
        self._items: List[tuple] = []
        self.outcome: Optional[EstimateOutcome] = None

    def add_messages(self, round_no: int, subgroup: str, kind: str, users, values) -> None:
        users = np.asarray(users)
        values = np.asarray(values)
        if users.shape != values.shape:
            raise ValueError("users and values must align")
        self._items.append(("messages", round_no, subgroup, kind, users, values))

    def add_broadcast(self, round_no: int, payload: dict) -> None:
        self._items.append(("broadcast", round_no, dict(payload)))

    @property
    def message_count(self) -> int:
        return sum(item[4].shape[0] for item in self._items if item[0] == "messages")

    @property
    def rounds(self) -> set:
        return {item[1] for item in self._items if item[0] == "messages"}

    def user_ids(self) -> np.ndarray:
        blocks = [item[4] for item in self._items if item[0] == "messages"]
        return np.concatenate(blocks) if blocks else np.array([], dtype=np.int64)

    def broadcasts(self) -> List[Tuple[int, dict]]:
        return [(item[1], item[2]) for item in self._items if item[0] == "broadcast"]

    def messages_by_subgroup(self) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
        """Per-subgroup (users, values) in emission order."""
        grouped: Dict[str, List[tuple]] = {}
        for item in self._items:
            if item[0] == "messages":
                grouped.setdefault(item[2], []).append(item[4:])
        return {tag: tuple(map(np.concatenate, zip(*blocks))) for tag, blocks in grouped.items()}

    def validate(self, max_rounds: int) -> None:
        """Sequential interactivity and round-count invariants, in O(n)."""
        ids = self.user_ids()
        if ids.size:
            if ids.dtype.kind not in "iu":
                raise MalformedInputError(f"user indices must be integers, got {ids.dtype}")
            if ids.min() < 0 or ids.max() >= self.n:
                raise MalformedInputError("user index outside the population")
            if np.bincount(ids.astype(np.int64, copy=False), minlength=self.n).max() > 1:
                raise MalformedInputError("a user sent more than one message")
        if not self.rounds <= set(range(1, max_rounds + 1)):
            raise MalformedInputError(f"round index outside 1..{max_rounds}")

    def _pieces(self):
        """The serialized bytes in pieces: one line per broadcast and for the
        outcome, and the message lines of each run of consecutive message
        blocks that share round, kind and dtypes, _SLICE lines at a time."""
        for key, run in itertools.groupby(self._items, _run_key):
            if key is None:
                for item in run:
                    yield _json_line({"round": item[1], "broadcast": item[2]}).encode()
                continue
            batch, lines = [], 0  # (subgroup, users, values) parts of one slice
            for _, _, subgroup, _, users, values in run:
                lo = 0
                while lo < users.shape[0]:
                    hi = min(lo + _SLICE - lines, users.shape[0])
                    batch.append((subgroup, users[lo:hi], values[lo:hi]))
                    lines, lo = lines + hi - lo, hi
                    if lines == _SLICE:
                        yield _message_lines(key[0], key[1], batch)
                        batch, lines = [], 0
            if batch:
                yield _message_lines(key[0], key[1], batch)
        if self.outcome is not None:
            yield _json_line({"outcome": self.outcome.as_dict()}).encode()

    def dumps(self) -> str:
        return b"".join(self._pieces()).decode("ascii")

    def dump(self, path) -> None:
        with open(path, "wb") as fh:
            fh.writelines(self._pieces())

    @classmethod
    def loads(cls, text: str, protocol: str, n: int) -> "Transcript":
        """Parse what `dumps` writes. Message lines must be spelled exactly as
        it spells them, and are read a run of consecutive lines sharing
        round, subgroup and kind at a time; real values' spelling is checked
        against the writer's own formatter. Any other line is a broadcast or
        an outcome: read as JSON, rebuilt with the writer's types
        (`_as_written`), and spelled as the writer spells that. An outcome,
        if any, is the last line, and every line ends in a newline. Raises
        MalformedInputError for anything else."""
        if text and text[-1] != "\n":
            raise _malformed(text, len(text), "the last line lacks its newline")
        transcript = cls(protocol, n)
        pending: Optional[list] = None  # [round, subgroup, kind, user arrays, value arrays]
        # runs of real values read from text position `unchecked_from` on,
        # all of round and kind `unchecked_key`: (subgroup, users, values)
        unchecked, unchecked_from, unchecked_key, unchecked_lines = [], 0, None, 0

        def flush() -> None:
            if pending is not None:
                transcript.add_messages(*pending[:3], *map(np.concatenate, pending[3:]))

        def check_spelling(upto: int) -> None:
            """Real values must be spelled as written: the unchecked runs'
            text must be what _message_lines writes for their users and
            values, which it formats a run of blocks at a time."""
            nonlocal unchecked_lines
            if unchecked:
                if _message_lines(*unchecked_key, unchecked) != text[unchecked_from:upto].encode():
                    raise _malformed(text, unchecked_from, _MISSPELLED)
                unchecked.clear()
            unchecked_lines = 0

        pos = 0
        while pos < len(text):
            cut = text.find("\n", pos + _WINDOW) + 1 or len(text)
            run = _read_run(text, pos, cut)
            if run is not None:
                key, users, values, end = run
                round_no, subgroup, kind = key
                if unchecked and (unchecked_key != (round_no, kind) or unchecked_lines >= _SLICE):
                    check_spelling(pos)
                if kind not in _INT_KINDS:
                    if not unchecked:
                        unchecked_from, unchecked_key = pos, (round_no, kind)
                    unchecked.append((subgroup, users, values))
                    unchecked_lines += users.size
                if pending is not None and tuple(pending[:3]) == key:
                    pending[3].append(users)
                    pending[4].append(values)
                else:
                    flush()
                    pending = [*key, [users], [values]]
                pos = end
                continue
            check_spelling(pos)
            end = text.find("\n", pos)
            line_pos, pos = pos, end + 1
            raw = text[line_pos:end]
            flush()
            pending = None
            try:  # json.JSONDecodeError is a ValueError; deep nesting recurses
                item = _as_written(json.loads(raw))
            except (KeyError, TypeError, ValueError, OverflowError, RecursionError):
                item = None
            if item is None or _json_line(item) != raw + "\n":
                raise _malformed(text, line_pos, "not a broadcast, an outcome or a message as written")
            if "outcome" not in item:
                transcript.add_broadcast(item["round"], item["broadcast"])
            elif pos < len(text):
                raise _malformed(text, line_pos, "a line follows the outcome")
            else:
                transcript.outcome = EstimateOutcome(**item["outcome"])
        check_spelling(pos)
        flush()
        return transcript

    @classmethod
    def load(cls, path, protocol: str, n: int) -> "Transcript":
        """Read what `dump` writes: its bytes are decoded as ASCII and line
        ends are kept as they are, so a non-ASCII byte, or a CR or CRLF line
        end, makes the file malformed."""
        with open(path, "rb") as fh:
            try:  # the bytes are not kept past the decoding
                text = fh.read().decode("ascii")
            except UnicodeDecodeError as exc:
                line = exc.object.count(b"\n", 0, exc.start) + 1
                raise MalformedInputError(f"line {line}: a byte outside ASCII") from None
        return cls.loads(text, protocol, n)


# ---------------------------------------------------------------------------
# Analyst side: one function computes every output from the plan and the
# transcript. Live runs call it on the transcript their users write, and
# replay calls it on a recorded one.

_DTYPE_KINDS = {"quad": "i", "sign": "i", "real": "f"}


def _reportable(kind: str, blocks: List[np.ndarray], reach: List[float]) -> bool:
    """Whether a randomizer of this kind can report every value of the
    (nonempty) blocks; `reach` bounds each block's real values in magnitude."""
    if any(block.dtype.kind != _DTYPE_KINDS[kind] for block in blocks):
        return False
    values = np.concatenate(blocks)
    if kind == "real":
        starts = np.cumsum([0] + [block.size for block in blocks[:-1]])
        return bool(np.all(np.maximum.reduceat(np.abs(values), starts) < reach))
    if kind == "quad":
        return values.min() >= 0 and values.max() <= 3
    return values.min() >= -1 and values.max() <= 1 and np.count_nonzero(values) == values.size


def _gate(plan: PartitionPlan, transcript: Transcript, round_no: int) -> Dict[str, np.ndarray]:
    """One round's reports, checked against the plan: tag -> values.

    Raises MalformedInputError unless the transcript's items through this
    round equal the plan's block table, block for block, and at the last
    round no item follows: each broadcast sits where the table puts it, and
    each message block has its planned round, tag, kind and length, with
    user indices an integer array. This round's blocks must hold exactly
    their planned ranges of users (the analyst gates the rounds in order, so
    earlier rounds' were checked before). Planned ranges are disjoint and
    lie in [0, n), so no user reports twice, outside their own subgroup, or
    at all if discarded. Every value of this round must also be one its
    randomizer can report: quad values in {0,1,2,3}, sign values in {-1,+1},
    real values finite (and within the randomizer's reach in uv1).
    """
    planned = [block for block in plan.blocks if block.round <= round_no]
    items = transcript._items
    if len(items) < len(planned) or (round_no == plan.rounds and len(items) > len(planned)):
        raise MalformedInputError(
            f"transcript holds {len(items)} blocks, expected {len(planned)} through round {round_no}"
        )
    reports, by_kind, this_round = {}, {}, []
    for index, (block, item) in enumerate(zip(planned, items)):
        if block.kind == "broadcast":
            match = item[:2] == ("broadcast", block.round)
        else:
            match = (
                item[:4] == ("messages", block.round, block.tag, block.kind)
                and item[4].dtype.kind == "i"
                and item[4].shape == (block.count,)
            )
        if not match:
            raise MalformedInputError(f"transcript block {index} is not the planned {block}")
        if block.round == round_no and block.kind != "broadcast":
            reports[block.tag] = item[5]
            by_kind.setdefault(block.kind, []).append(block)
            this_round.append(index)
    # All of this round's users at once: within each block, user minus
    # position must equal the block's start minus its offset.
    offsets = np.cumsum([0] + [planned[i].count for i in this_round[:-1]])
    shifts = np.array([planned[i].start for i in this_round]) - offsets
    users = np.concatenate([items[i][4] for i in this_round]).astype(np.int64, copy=False)
    users -= np.arange(users.size)
    wrong = (np.minimum.reduceat(users, offsets) != shifts) | (
        np.maximum.reduceat(users, offsets) != shifts
    )
    if wrong.any():
        index = this_round[int(np.argmax(wrong))]
        raise MalformedInputError(f"transcript block {index} is not the planned {planned[index]}")
    for kind, blocks in by_kind.items():
        if not _reportable(kind, [reports[b.tag] for b in blocks], [b.reach for b in blocks]):
            raise MalformedInputError(f"round {round_no} holds a {kind} value no randomizer reports")
    return reports


def _analyze(
    plan: PartitionPlan, transcript: Transcript, respond: Optional[Callable[[dict], None]] = None
) -> EstimateOutcome:
    """Every analyst output, from the plan and the transcript alone: mu_hat1,
    sigma_hat, the round-two broadcast and mu_hat2.

    In a live two-round run, `respond` records the broadcast and lets the
    round-two users answer it before round two is read; in replay, the
    recorded broadcast must equal the one computed here.
    """
    reports = _gate(plan, transcript, 1)
    bins = {
        j: debias_quad_counts(plan.eps, plan.k1, quad_counts_from_values(reports[f"level:{j}"]))
        for j in plan.levels
    }
    sigma_hat = None
    if plan.protocol in ("uv2", "uv1"):
        paired = {j: pair_adjacent_bins(b) for j, b in bins.items()}
        sigma_hat = est_var(plan.beta, plan.eps, paired, plan.k1, plan.level_plan)
    mu1 = est_mean(plan.beta, plan.eps, bins, plan.k1, plan.level_plan)

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
        signs = reports["refine"]
        hist = debias_sign_counts(plan.eps, signs.size, sign_counts_from_values(signs))
        mu2 = refine_known_sigma(hist, signs.size, mu1, plan.sigma)
    elif plan.protocol == "kv1":
        refinements = [block for block in plan.blocks if block.kind == "sign"]
        tallies = {b.key: sign_counts_from_values(reports[b.tag]) for b in refinements}
        lattices = {b.key: LatticeSpec(*b.params) for b in refinements}
        mu2 = refine_pooled_kv(tallies, lattices, mu1, plan.sigma, plan.eps)
    elif plan.protocol == "uv2":
        mu2 = (2.0 / plan.n) * float(np.sum(reports["refine"]))
    else:
        j1, m2, s_star = select_subgroup_uv(sigma_hat, mu1, plan.level_plan, plan.rho)
        mu2 = s_star + float(np.sum(reports[plan.subgroup_tag((j1, m2))])) / plan.k2
        summary["selected"] = {"level": j1, "subgroup": m2, "center": s_star}
    return EstimateOutcome(plan.protocol, mu1, sigma_hat, mu2, summary)


# ---------------------------------------------------------------------------
# Runners: users emit, then the analyst decides on the transcript they wrote.
# Only the user side reads samples, through the randomizer kernels.

_CHUNK = BLOCK  # users privatized with one streams.matrix and one kernel call


def _runs(blocks):
    """Consecutive message blocks that share a kind and whose user ranges
    touch, as lists; a broadcast is a run of its own."""
    run: List[Block] = []
    for block in blocks:
        if run and not (
            block.kind == run[-1].kind != "broadcast"
            and block.start == run[-1].start + run[-1].count
        ):
            yield run
            run = []
        run.append(block)
    if run:
        yield run


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
        """One round, in table order: the broadcast that opens it, then each
        run of message blocks' users privatize their samples, _CHUNK users
        per draw and kernel call, and each block is added as a slice."""
        for run in _runs([block for block in plan.blocks if block.round == round_no]):
            kind, start = run[0].kind, run[0].start
            if kind == "broadcast":
                transcript.add_broadcast(round_no, broadcast)
                continue
            stop = run[-1].start + run[-1].count
            counts = [block.count for block in run]
            params = [
                np.repeat(column, counts)
                for column in zip(*(block.params for block in run))
            ]
            users, x = np.arange(start, stop), samples[start:stop]
            values = np.empty(stop - start, np.float64 if kind == "real" else np.int64)
            for lo in range(0, stop - start, _CHUNK):
                part = slice(lo, lo + _CHUNK)
                draws = streams.matrix(users[part], first=2, count=2 if kind == "quad" else 1)
                chunk = [p[part] for p in params]
                values[part] = privatize(plan.eps, plan.sigma, kind, x[part], draws, chunk, broadcast)
            for block in run:
                part = slice(block.start - start, block.start - start + block.count)
                transcript.add_messages(round_no, block.tag, kind, users[part], values[part])

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
