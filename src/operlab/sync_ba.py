"""Recursive synchronous Byzantine agreement and its partially synchronous
round-simulation adapter.

The lock-step machine halves the member set recursively: graded consensus
over S, the first half recursing and reporting, a majority update gated on
grade 0, then the same with the second half. Round and per-process message
budgets follow the recurrences rounds(1)=0, rounds(n)=2*GC_ROUNDS+2+both
halves, and mc(1)=0, mc(n)=13n+mc(larger half). A machine looks up each
round's stage in the round schedule of its member count (`round_schedule`),
built once per count.

The adapter stretches each lock-step round to delta_sync virtual time, tags
wire messages with the round parity bit, and refuses to exceed a cumulative
bit cap.
"""

from __future__ import annotations

import functools

from .core import BOT, Payload, Tally, payload_bits, value_sort_key
from .runtime import (Automaton, Broadcast, Indicate, MessageArrival,
                      Multicast, Request)
from .graded_consensus import GradedConsensus

# Lock-step round budget for one graded-consensus stage: five echo stages of
# message depth plus one amplification round, measured by the lock-step
# latency test before being frozen here.
GC_ROUNDS = 7


def rounds(n: int) -> int:
    """Total lock-step rounds of the recursive agreement among n processes."""
    if n < 1:
        raise ValueError("n >= 1")
    if n == 1:
        return 0
    half1 = (n + 1) // 2
    half2 = n // 2
    return 2 * GC_ROUNDS + 2 + rounds(half1) + rounds(half2)


def mc(n: int) -> int:
    """Per-process message budget: 13n per level along the deeper half."""
    if n < 1:
        raise ValueError("n >= 1")
    if n == 1:
        return 0
    return 13 * n + mc((n + 1) // 2)


def budget(n: int, value_width: int) -> int:
    """Per-process bit budget: every message is an 8-bit tag plus a value."""
    return mc(n) * (8 + value_width)


@functools.cache
def round_schedule(m: int) -> tuple:
    """Per round of the agreement among m members: (stage kind, round within
    the stage, half). Each half in turn has GC_ROUNDS "gc" rounds (among all
    m members), rounds(half) "half" rounds and one "report" round."""
    schedule = []
    if m > 1:
        for idx, size in ((1, (m + 1) // 2), (2, m // 2)):
            for kind, length in (("gc", GC_ROUNDS), ("half", rounds(size)),
                                 ("report", 1)):
                schedule.extend((kind, local, idx) for local in range(length))
    return tuple(schedule)


def _sub_t(m: int) -> int:
    return (m - 1) // 3


def _batch_key(item):
    """Canonical in-round ordering; lock-step state must not depend on
    arrival order within a round."""
    sender, p = item
    has_value = p.value is not None
    return (sender, p.kind, has_value,
            value_sort_key(p.value) if has_value else (0, 0))


class LockstepGC:
    """Drives the event-driven graded consensus in lock-step rounds.

    Messages produced while absorbing round r are sent in round r+1 and
    delivered (to every member, including self) at the end of that round.
    """

    def __init__(self, members, proposal):
        self.members = list(members)
        self.auto = GradedConsensus(len(self.members), _sub_t(len(self.members)))
        self.proposal = proposal
        self.outbox = None   # payloads queued for the next outbound call
        self.decision = None

    def _collect(self, actions):
        for a in actions:
            if isinstance(a, Broadcast):
                self.outbox.append(a.payload)
            elif isinstance(a, Indicate) and a.name == "decide":
                self.decision = a.args

    def outbound(self, r):
        if r == 0:
            self.outbox = []
            self._collect(self.auto.step(Request("propose", (self.proposal,))))
        batch, self.outbox = self.outbox, []
        return [(m, p) for p in batch for m in self.members]

    def absorb(self, r, received):
        for sender, payload in received:   # never abandoned: no step
            self._collect(self.auto.receive(sender, payload))

    def state_digest(self):
        return self.auto.state_digest()


class SyncMachine:
    """One process's view of the recursive agreement over an ordered member set."""

    def __init__(self, pid, members, proposal):
        self.pid = pid
        self.members = list(members)
        self.b = proposal
        n = len(self.members)
        self.schedule = round_schedule(n)
        self.gc = None
        self.gc_grade = None
        self.child = None
        split = (n + 1) // 2
        self.halves = {1: self.members[:split], 2: self.members[split:]}
        # the half this process recurses in; 0 if it is in neither
        self.own_half = 1 if pid in self.halves[1] \
            else 2 if pid in self.halves[2] else 0

    def outbound(self, r):
        kind, local, idx = self.schedule[r]
        out = []
        if kind == "gc":
            if local == 0:
                self.gc = LockstepGC(self.members, self.b)
                self.gc_grade = None
            out = self.gc.outbound(local)
        elif idx == self.own_half:
            if kind == "half":
                if local == 0:
                    self.child = SyncMachine(self.pid, self.halves[idx], self.b)
                out = self.child.outbound(local)
            else:   # report: one payload for every member
                v = self.child.decision() if self.child else self.b
                report = Payload("HALF-REPORT", value=v)
                out = [(m, report) for m in self.members]
        return out

    def absorb(self, r, received):
        kind, local, idx = self.schedule[r]
        if kind == "half":
            # only the level that consumes the batch sorts it
            if idx == self.own_half:
                self.child.absorb(local, received)
            return
        received = sorted(received, key=_batch_key)
        if kind == "gc":
            self.gc.absorb(local, received)
            if local == GC_ROUNDS - 1:
                if self.gc.decision is not None:
                    v, g = self.gc.decision
                else:
                    v, g = self.b, 0   # timed out: keep current value, grade 0
                self.b = v
                self.gc_grade = g
        else:
            half = self.halves[idx]
            reports = Tally(first_only=True)   # first report per sender
            for sender, payload in received:
                if payload.kind != "HALF-REPORT" or sender not in half:
                    continue
                v = payload.value
                # a majority of the half is unique: no tie-break
                if reports.add(sender, v) > len(half) / 2 \
                        and self.gc_grade == 0 and v is not BOT:
                    self.b = v

    def decision(self):
        return self.b

    def state_digest(self):
        return (
            self.b,
            self.gc_grade,
            self.gc.state_digest() if self.gc else None,
            self.child.state_digest() if self.child else None,
        )


class RoundSimAdapter(Automaton):
    """Runs a lock-step round machine over the partially synchronous network.

    Per simulated round: send the machine's outbound messages tagged with the
    round parity, wait delta_sync, then feed back every buffered arrival whose
    parity matches. Copies stop silently once the cumulative inner-message
    bit count would exceed the cap.
    """

    def __init__(self, machine_factory, total_rounds, delta_sync, bit_cap,
                 value_width, parity_flip=False):
        super().__init__()
        self.machine_factory = machine_factory
        self.total_rounds = total_rounds
        self.delta_sync = delta_sync
        self.bit_cap = bit_cap
        self.value_width = value_width
        self.parity_flip = 1 if parity_flip else 0
        self.machine = None
        self.round = 0
        self.sent_bits = 0
        # parity -> [(sender, inner payload)] in arrival order
        self.received = {0: [], 1: []}
        self.done = False

    def on_event(self, event):
        if isinstance(event, Request):
            if event.name == "propose":
                return self._start(event.args[0])
            return []
        if isinstance(event, MessageArrival):
            p = event.payload
            if p.kind == "SYNC-ROUND" and not self.done:
                self.received[p.parity].append((event.sender, p.inner))
            return []
        # timer: close out the current round
        if self.machine is None or self.done:
            return []
        return self._finish_round()

    def _start(self, proposal):
        if self.machine is not None:
            return []
        self.machine = self.machine_factory(proposal)
        return self._next_round()

    def _send_round(self):
        """One SYNC-ROUND Multicast and one bit count per inner payload: the
        machine lists each payload's destinations one after another. The
        Multicast holds the first destinations that fit under the cumulative
        bit cap; a payload that fits none is not sent."""
        runs = []   # (inner payload, its destinations)
        inner = None
        for dest, payload in self.machine.outbound(self.round):
            if payload is not inner:
                inner, dests = payload, []
                runs.append((inner, dests))
            dests.append(dest)
        out = []
        parity = (self.round ^ self.parity_flip) & 1
        for inner, dests in runs:
            bits = payload_bits(inner, "payload-only", self.value_width)
            fit = (self.bit_cap - self.sent_bits) // bits
            if fit <= 0:
                continue  # budget exhausted: suppress silently
            dests = tuple(dests[:fit])
            self.sent_bits += bits * len(dests)
            out.append(Multicast(dests, Payload("SYNC-ROUND", parity=parity,
                                                inner=inner), self.path))
        return out

    def _finish_round(self):
        want = (self.round ^ self.parity_flip) & 1
        current, self.received[want] = self.received[want], []
        self.machine.absorb(self.round, current)
        self.round += 1
        return self._next_round()

    def _next_round(self):
        """Open round `self.round`, or indicate sync-done after the last."""
        if self.round >= self.total_rounds:
            self.done = True
            return [Indicate("sync-done", (self.machine.decision(),))]
        return self._send_round() + [self.new_timer(self.delta_sync)[0]]


class RecordingMachine(SyncMachine):
    """SyncMachine that keeps, per absorbed round, its input and its state
    digest afterwards: what the lock-step equivalence oracle compares."""

    def __init__(self, pid, members, proposal):
        super().__init__(pid, members, proposal)
        self.absorbed: list = []   # per round: [(sender, payload)]
        self.digests: list = []

    def absorb(self, r, received):
        super().absorb(r, received)
        self.absorbed.append(received)
        self.digests.append(self.state_digest())


def lockstep_run(machines: dict, total_rounds: int, inject=None):
    """Reference lock-step execution of round machines.

    machines: pid -> RoundMachine for the correct processes. inject maps
    (round, receiver_pid) -> [(sender, payload)] for Byzantine round inputs.
    Returns pid -> [digest per round].
    """
    inject = inject or {}
    digests = {pid: [] for pid in machines}
    for r in range(total_rounds):
        outs = {pid: m.outbound(r) for pid, m in machines.items()}
        inboxes = {pid: [] for pid in machines}
        for sender, batch in outs.items():
            for dest, payload in batch:
                if dest in inboxes:
                    inboxes[dest].append((sender, payload))
        for pid, m in machines.items():
            m.absorb(r, inboxes[pid] + list(inject.get((r, pid), ())))
            digests[pid].append(m.state_digest())
    return digests
