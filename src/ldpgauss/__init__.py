"""Locally differentially private Gaussian mean estimation.

Library and CLI simulator for four one- and two-round protocols in which
each user privatizes a single Gaussian sample before it leaves their hands,
plus exact privacy audits and a reproducible Monte Carlo harness.
"""

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
    run_kv_one_round,
    run_kv_two_round,
    run_uv_one_round,
    run_uv_two_round,
)

__all__ = [
    "BoundedSigma",
    "ConfigError",
    "EstimateOutcome",
    "KnownSigma",
    "ProtocolConfig",
    "ReplayMismatch",
    "SimulationTruth",
    "Transcript",
    "TrialStreams",
    "erf_inv",
    "plan_partition",
    "replay_analyst",
    "run_kv_one_round",
    "run_kv_two_round",
    "run_uv_one_round",
    "run_uv_two_round",
]

__version__ = "0.1.0"
