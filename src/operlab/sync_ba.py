"""Recursive synchronous Byzantine agreement and its partially synchronous
round-simulation adapter.

A round machine is all that the adapter and `oracle.lockstep_run` call:
`outbound(r)` returns round r's messages as `(payload, dests)` runs, one per
payload, `dests` a tuple of process ids; `absorb(r, received)` takes round
r's `(sender, payload)` inputs; `decision()` is the value it holds.

The lock-step machine halves the member set recursively: graded consensus
over S, the first half recursing and reporting, a majority update gated on
grade 0, then the same with the second half. Round and per-process message
budgets follow the recurrences rounds(1)=0, rounds(n)=2*GC_ROUNDS+2+both
halves, and mc(1)=0, mc(n)=13n+mc(larger half). A machine looks up each
round's stage in the round schedule of its member count (`round_schedule`),
built once per count.

A round is idle for a process when, at some depth of the recursion, it is a
"half" round of the half the process is not in: the process sends nothing
and reads nothing in it. The idle rounds of each (member count, position)
are built once (`active_rounds`); on an idle round `outbound` returns `[]`
and `absorb` returns at once, without walking down the recursion.

The adapter stretches each lock-step round to delta_sync virtual time, tags
wire messages with the round parity bit, and refuses to exceed a cumulative
bit cap. A round's timer closes it in one step: the adapter hands `absorb`
the round's arrivals as a new list, every round, idle ones included, since
the machine may keep it (the oracle's recording machine does), then opens
the next round in `_next_round`.
"""

from __future__ import annotations

import functools

from .core import BOT, KIND_TAG_BITS, Payload, Tally, payload_bits
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
    """Per-process bit budget: every message is a kind tag plus a value."""
    return mc(n) * (KIND_TAG_BITS + value_width)


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


@functools.cache
def active_rounds(m: int, pos: int) -> bytes:
    """Per round of the agreement among m members: 1 if the member at
    position pos (-1 for a non-member) sends or absorbs in it, 0 if it is
    idle, a "half" round of a half that member is not in, at any depth."""
    table = bytearray()
    if m > 1:
        split = (m + 1) // 2
        for size, sub in ((split, pos), (m // 2, pos - split)):
            table += b"\1" * GC_ROUNDS
            table += active_rounds(size, sub) if 0 <= sub < size \
                else bytes(rounds(size))
            table += b"\1"   # report: every member reads it
    return bytes(table)


def _batch_key(item):
    """Canonical in-round ordering; lock-step state must not depend on
    arrival order within a round. `value_sort_key`, inlined."""
    sender, p = item
    v = p.value
    return (sender, p.kind, v is not None,
            (0, 0) if v is None else (1, 0) if v is BOT else (0, v))


class LockstepGC:
    """Drives the event-driven graded consensus in lock-step rounds.

    Its proposal (made when it is built) goes out in round 0 and what absorbing
    round r yields in round r+1, reaching every member and self at round end.
    """

    def __init__(self, members, proposal):
        self.members = tuple(members)
        m = len(self.members)
        self.auto = GradedConsensus(m, (m - 1) // 3)
        self.outbox = []   # payloads queued for the next outbound call
        self.decision = None
        self._collect(self.auto.step(Request("propose", (proposal,))))

    def _collect(self, actions):
        for a in actions:
            if isinstance(a, Broadcast):
                self.outbox.append(a.payload)
            elif isinstance(a, Indicate) and a.name == "decide":
                self.decision = a.args

    def outbound(self, r):
        batch, self.outbox = self.outbox, []
        return [(p, self.members) for p in batch]

    def absorb(self, r, received):
        receive = self.auto.receive   # never abandoned: no step
        for sender, payload in received:
            if out := receive(sender, payload):
                self._collect(out)

    def state_digest(self):
        return self.auto.state_digest()


class SyncMachine:
    """One process's view of the recursive agreement over an ordered member set."""

    def __init__(self, pid, members, proposal):
        self.pid = pid
        self.members = tuple(members)
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
        self.active = active_rounds(
            n, self.members.index(pid) if self.own_half else -1)

    def outbound(self, r):
        if not self.active[r]:
            return []
        kind, local, idx = self.schedule[r]
        if kind == "gc":
            if local == 0:
                self.gc = LockstepGC(self.members, self.b)
                self.gc_grade = None
            return self.gc.outbound(local)
        if kind == "half":   # an active half round is in the own half
            if local == 0:
                self.child = SyncMachine(self.pid, self.halves[idx], self.b)
            return self.child.outbound(local)
        if idx != self.own_half:
            return []
        # report: one payload for every member
        v = self.child.decision() if self.child else self.b
        return [(Payload("HALF-REPORT", value=v), self.members)]

    def absorb(self, r, received):
        if not self.active[r]:
            return
        kind, local, idx = self.schedule[r]
        if kind == "half":
            # only the level that consumes the batch sorts it
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
                 value_width):
        super().__init__()
        self.machine_factory = machine_factory
        self.total_rounds = total_rounds
        self.delta_sync = delta_sync
        self.bit_cap = bit_cap
        self.value_width = value_width
        self.machine = None
        self.round = 0
        self.sent_bits = 0
        # parity -> [(sender, inner payload)] in arrival order
        self.received = {0: [], 1: []}
        self.done = False

    def on_event(self, event):
        cls = type(event)
        if cls is MessageArrival:
            p = event.payload
            if p.kind == "SYNC-ROUND" and not self.done:
                self.received[p.parity].append((event.sender, p.inner))
            return []
        if cls is Request:   # propose, the one request
            return self._start(event.args[0])
        # timer: hand the machine this round's arrivals and open the next
        if self.done:
            return []
        r = self.round
        current, self.received[r & 1] = self.received[r & 1], []
        self.machine.absorb(r, current)
        self.round = r + 1
        return self._next_round()

    def _start(self, proposal):
        if self.machine is not None:
            return []
        self.machine = self.machine_factory(proposal)
        return self._next_round()

    def _next_round(self):
        """Open round `self.round`, or indicate sync-done after the last.
        A round sends one SYNC-ROUND Multicast and one bit count per run of
        the machine's outbound, holding the first destinations that fit
        under the cumulative bit cap (a payload that fits none is not
        sent), and sets the round's timer."""
        r = self.round
        if r >= self.total_rounds:
            self.done = True
            return [Indicate("sync-done", (self.machine.decision(),))]
        out = []
        for inner, dests in self.machine.outbound(r):
            bits = payload_bits(inner, "payload-only", self.value_width)
            fit = (self.bit_cap - self.sent_bits) // bits
            if fit <= 0:
                continue  # budget exhausted: suppress silently
            dests = dests[:fit]
            self.sent_bits += bits * len(dests)
            out.append(Multicast(dests, Payload("SYNC-ROUND", parity=r & 1,
                                                inner=inner), self.path))
        out.append(self.new_timer(self.delta_sync)[0])
        return out

