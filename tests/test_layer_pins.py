"""Byte-identical step pins for each counting layer.

Each layer is fed, as a fresh n=7, t=2 instance, 200 seeded random event
sequences: senders 0-6 with repeats, the message kinds the layer reads plus
one it ignores, values from a small set that includes BOT (views, for the
view loop), and the layer's own request at a random position (first, for
graded consensus). The sha256 of the repr of every step's output is pinned,
so a change to what a layer emits, or to the order it emits it in within
one step, fails here even where no full-protocol run reaches that step.

The recursive sync BA is pinned the same way, one lock-step round at a time:
a `SyncMachine` at n=7 and at n=10 absorbs seeded random round batches
(messages from members in the kinds it sends that round, plus junk senders,
a junk kind and BOT values, shuffled) in its active rounds, and the repr of
each round's outbound copies, as (dest, payload) pairs, and state digest is
hashed; an idle round's batch is drawn and dropped.
"""

import hashlib
import random

import pytest

from operlab.core import BOT, Payload
from operlab.finisher import Finisher
from operlab.graded_consensus import GradedConsensus
from operlab.oper import OperCore, crux_tag
from operlab.reducing_broadcast import ReducingBroadcast
from operlab.runtime import MessageArrival, Request
from operlab.sync_ba import SyncMachine, rounds
from operlab.validation_broadcast import ValidationCore

N, T = 7, 2
SEQUENCES = 200
VALUES = (1, 2, 3, BOT)


def _value(rng, favourite):
    # a per-sequence favourite makes quorums reachable; the rest spread
    return favourite if rng.random() < 0.6 else rng.choice(VALUES)


def _messages(rng, kinds, length):
    favourite = rng.choice(VALUES)
    return [MessageArrival(rng.randrange(N),
                           Payload(rng.choice(kinds), value=_value(rng, favourite)))
            for _ in range(length)]


def _graded_consensus(rng):
    events = _messages(rng, ("ECHO", "ECHO2", "ECHO3", "ECHO4", "ECHO5",
                             "INIT"), 90)
    return GradedConsensus(N, T), \
        [Request("propose", (rng.choice((1, 2, 3)),))] + events


def _reducing_broadcast(rng):
    events = _messages(rng, ("INIT", "ECHO", "ECHO2"), 40)
    events.insert(rng.randrange(len(events) + 1),
                  Request("broadcast", (rng.choice((1, 2, 3)),)))
    return ReducingBroadcast(T), events


def _validation_core(rng):
    events = _messages(rng, ("INIT", "ECHO", "ECHO2"), 40)
    events.insert(rng.randrange(len(events) + 1),
                  Request("broadcast", (rng.choice((1, 2, 3)),)))
    events.insert(rng.randrange(len(events) + 1),
                  Request("deliver", ("rb", rng.choice(VALUES))))
    return ValidationCore(T, default=0), events


def _finisher(rng):
    events = _messages(rng, ("FINISH", "ECHO"), 30)
    events.insert(rng.randrange(len(events) + 1),
                  Request("to_finish", (rng.choice((1, 2, 3)),)))
    return Finisher(T), events


def _oper_core(rng):
    events = []
    for _ in range(40):
        if rng.random() < 0.8:
            kind = "START-VIEW" if rng.random() < 0.9 else "FINISH"
            payload = Payload(kind, view=rng.choice((1, 2, 3, 4))) \
                if kind == "START-VIEW" else Payload(kind, value=1)
            events.append(MessageArrival(rng.randrange(N), payload))
        else:
            events.append(Request("validate", (crux_tag(rng.choice((1, 2, 3))),
                                               rng.choice((1, 2, 3)))))
    events.insert(rng.randrange(len(events) + 1), Request("propose", (1,)))
    return OperCore(T), events


# (layer, sequence builder, sha256 of every step's output repr)
PINS = [
    ("graded_consensus", _graded_consensus,
     "77149626818a19d5b39b1ce37017b5c64f5edf25a3598e2e451439a8bcb3e4a9"),
    ("reducing_broadcast", _reducing_broadcast,
     "a645c6b9292c42179fa9df0675b7e52fb6b7d5a7ca96713c65a30643eac2a5c1"),
    ("validation_core", _validation_core,
     "5cba0d5d06b8275931fbf55ccf525eb1f4c1f2c68ebf5c5113ec68f6b57f9654"),
    ("finisher", _finisher,
     "1e69116792daedbccb235a4e6245271e94b1b6595e4e1ffb3c36fedcc81f1e40"),
    ("oper_core", _oper_core,
     "a6f80f2a92b0383333b032343a338f635ef5af25efe9119498657ac3dc1f29bb"),
]


def _step_digest(build):
    h = hashlib.sha256()
    kinds = set()
    for seed in range(SEQUENCES):
        auto, events = build(random.Random(seed))
        for event in events:
            out = auto.step(event)
            h.update(repr(out).encode() + b"\n")
            kinds.update(type(a).__name__ + ":" + getattr(a, "name", "")
                         for a in out)
    return h.hexdigest(), kinds


@pytest.mark.parametrize("build,sha", [p[1:] for p in PINS],
                         ids=[p[0] for p in PINS])
def test_layer_step_pin(build, sha):
    got, kinds = _step_digest(build)
    # the sequences must reach the layer's indications, not only its echoes
    assert any(k.startswith("Indicate") for k in kinds), kinds
    assert got == sha


SYNC_SEQUENCES = 20
SYNC_KINDS = ("INIT", "ECHO", "ECHO2", "ECHO3", "ECHO4", "ECHO5", "HALF-REPORT")

# (member count, sha256 of every round's outbound and state digest)
SYNC_PINS = [
    (7, "4a61b71dfd25843dac43747db3e8909576ff8ed358956fd526763a2f80922add"),
    (10, "feb33abd28d4e6ad6b79fc14a0aaf1b8f79bba638b843e3859fa8c4e2c044d72"),
]


def _round_batch(rng, members, out, favourite):
    # members answer in the kinds this process sends this round (any kind
    # when it is idle); a few junk messages ride along
    kinds = sorted({p.kind for _, p in out}) or SYNC_KINDS
    batch = [(s, Payload(rng.choice(kinds),
                         value=favourite if rng.random() < 0.8
                         else rng.choice(VALUES)))
             for s in members if rng.random() < 0.8]
    for _ in range(rng.randrange(3)):
        roll = rng.random()
        if roll < 0.4:
            batch.append((len(members) + rng.randrange(5),
                          Payload(rng.choice(SYNC_KINDS), value=favourite)))
        elif roll < 0.7:
            batch.append((rng.choice(members),
                          Payload("FINISH", value=favourite)))
        else:
            batch.append((rng.choice(members),
                          Payload(rng.choice(kinds), value=BOT)))
    rng.shuffle(batch)
    return batch


@pytest.mark.parametrize("n,sha", SYNC_PINS,
                         ids=[f"sync_ba-n{n}" for n, _ in SYNC_PINS])
def test_sync_machine_round_pin(n, sha):
    h = hashlib.sha256()
    grades = set()
    for seed in range(SYNC_SEQUENCES):
        rng = random.Random(seed)
        members = list(range(n))
        favourite = rng.choice(VALUES)
        machine = SyncMachine(rng.randrange(n), members, rng.choice((1, 2, 3)))
        for r in range(rounds(n)):
            # (dest, payload) per copy, the shape these hashes were taken in;
            # an idle round sends nothing and drops its batch unread
            active = machine.active(r)
            out = [(dest, p) for p, dests in machine.outbound(r)
                   for dest in dests] if active else []
            batch = _round_batch(rng, members, out, favourite)
            if active:
                machine.absorb(r, batch)
            h.update(repr((out, machine.state_digest())).encode() + b"\n")
            grades.add(machine.gc_grade)
    # the batches must reach both graded-consensus outcomes
    assert {0, 1} <= grades, grades
    assert h.hexdigest() == sha
