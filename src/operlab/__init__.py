"""Deterministic simulator and building blocks for view-based partially
synchronous Byzantine agreement with constant-size values."""

from .core import (BOT, DEFAULT_VALUE_WIDTH, Payload, PayloadError,
                   ValidityPredicate, payload_bits)
from .crux import CruxParams, est_rule, make_crux
from .finisher import Finisher
from .graded_consensus import GradedConsensus
from .oper import Oper, make_oper
from .reducing_broadcast import ReducingBroadcast
from .simnet import (AdversarySpec, SimConfig, Trace, check_adversary,
                     delivery_window, latency, run, schedule_timer)
from .sync_ba import (GC_ROUNDS, RoundSimAdapter, SyncMachine, budget,
                      lockstep_run, mc, rounds)
from .validation_broadcast import make_validation_broadcast

__all__ = [
    "BOT", "DEFAULT_VALUE_WIDTH", "Payload", "PayloadError",
    "ValidityPredicate", "payload_bits", "CruxParams", "est_rule",
    "make_crux", "Finisher", "GradedConsensus", "Oper", "make_oper",
    "ReducingBroadcast", "AdversarySpec", "SimConfig", "Trace",
    "check_adversary", "delivery_window", "latency", "run", "schedule_timer",
    "GC_ROUNDS",
    "RoundSimAdapter", "SyncMachine", "budget", "lockstep_run", "mc",
    "rounds", "make_validation_broadcast",
]
