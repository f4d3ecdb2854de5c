"""Recursive synchronous Byzantine agreement and its partially synchronous
round-simulation adapter.

A round machine is all that the adapter and `oracle.lockstep_run` call:
`active(r)` is False for a round in which it neither sends nor reads, and
both callers call `outbound` and `absorb` only on the other rounds;
`outbound(r)` returns round r's messages as `(payload, dests)` runs, one per
payload, `dests` a tuple of process ids; `absorb(r, received)` takes round
r's `(sender, payload)` inputs; `decision()` is the value it holds.

The lock-step machine halves the member set recursively: a two-round graded
consensus over S (`LockstepGC`, active in both), the first half recursing
and reporting, a majority update gated on grade 0, then the same with the
second half. So rounds(1)=0 and rounds(n)=2*GC_ROUNDS+2+rounds of both
halves. Whatever it receives, a member sends its two graded-consensus
payloads and one report to every member per level, so mc(1)=0 and
mc(n)=5n+mc(larger half) bound its copies. Each member follows one plan,
built once per member count and position (`round_plan`): its step in each
round, or None when it is idle, in a "half" round of the half it is not in
at some depth of the recursion. A `SyncMachine` is active where its plan has
a step, so a parent calls its child only on the child's active rounds; in
the other half's report round it only reads.

The adapter builds `machine(pid, range(params.n), proposal)` at its
proposal (`SyncMachine` by default) and takes R, delta_sync, the bit cap and
the value width from the same `CruxParams`. It stretches each round to
delta_sync virtual time, tags wire messages with the round parity bit, and
refuses to exceed the cumulative bit cap. An active round's timer closes it
in one step: the adapter hands `absorb` the round's arrivals as a new list,
since the machine may keep it (the oracle's recording machine does). A run
of idle rounds up to the next active round w (or R) is one timer, which
drops the arrivals of parity (w-1)&1, as closing round w-1 would, and keeps
those of parity w&1 for round w. Correct members send a member nothing in
its idle rounds, and a round-by-round walk would have cleared parity w&1
when round w-2 closed, so the wake also keeps two kinds of arrival that
walk dropped: junk of parity w&1 sent during the run, which a faulty sender
could as well have sent in round w; and, for an idle run of two rounds or
more, late copies from correct members of parity w&1, sent before the run
and arriving before round w-2 would have closed. A copy is late only if it
was sent before GST or, with starts spread by exactly delta_shift, reaches
the member at the very tick its round closes. Round w is always one
in which the member only listens, reading the HALF-REPORTs of the half it
waited for, so the graded-consensus copies that precede a run are ignored;
a late HALF-REPORT of an earlier stage is read as a round-by-round walk
reads one that arrives in rounds w-1 or w. After GST every round opens, and
sync-done comes, at the tick a timer per round would give.
"""

from __future__ import annotations

import functools

from .core import BOT, KIND_TAG_BITS, Payload, payload_bits
from .runtime import Automaton, Indicate, MessageArrival, Multicast, Request

# Lock-step rounds of one graded consensus (`LockstepGC`).
GC_ROUNDS = 2


@functools.cache
def rounds(n: int) -> int:
    """Total lock-step rounds of the recursive agreement among n processes."""
    if n < 1:
        raise ValueError("n >= 1")
    if n == 1:
        return 0
    return 2 * GC_ROUNDS + 2 + rounds((n + 1) // 2) + rounds(n // 2)


@functools.cache
def mc(n: int) -> int:
    """Per-process message budget: 5n per level along the deeper half."""
    if n < 1:
        raise ValueError("n >= 1")
    if n == 1:
        return 0
    return 5 * n + mc((n + 1) // 2)


def budget(n: int, value_width: int) -> int:
    """Per-process bit budget: every message is a kind tag plus a value."""
    return mc(n) * (KIND_TAG_BITS + value_width)


@functools.cache
def round_plan(m: int, pos: int) -> tuple:
    """Step of the member at position pos in each round of the agreement among
    m members: None when idle, else (kind, round within the stage, half). Each
    half in turn has GC_ROUNDS "gc" rounds, rounds(half) "half" rounds for its
    members only, and a round its members "report" and the rest "listen" in."""
    plan = []
    if m > 1:
        split = (m + 1) // 2
        for idx, size, sub in ((1, split, pos), (2, m // 2, pos - split)):
            plan += [("gc", local, idx) for local in range(GC_ROUNDS)]
            if 0 <= sub < size:   # the member's own half
                plan += [step and ("half", local, idx) for local, step
                         in enumerate(round_plan(size, sub))]
                plan.append(("report", 0, idx))
            else:
                plan += [None] * rounds(size) + [("listen", 0, idx)]
    return tuple(plan)


def _id_range(members):
    """The member tuple as a range, whose `in` costs O(1) and holds no set:
    members are ascending, evenly spaced ids, as range(n) and its halves
    are."""
    step = members[1] - members[0] if len(members) > 1 else 1
    ids = range(members[0], members[-1] + 1, step) if step > 0 else ()
    if tuple(ids) != members:
        raise ValueError(f"members {members} are not evenly spaced ids")
    return ids


def _lead(received, kind, ids):
    """The value other than BOT that most members of the range `ids` sent
    as their least `kind` value (`value_sort_key` order, BOT last), and its
    count, in one pass over the round's batch. Members count in id order,
    and of values tied at the top count the first to reach it leads, so
    lock-step state does not depend on arrival order within a round."""
    least = {}   # member -> its least value of the kind
    for sender, p in received:
        if p.kind == kind and sender in ids:
            v = p.value
            w = least.get(sender, v)
            least[sender] = v if w is BOT or (v is not BOT and v < w) else w
    count = {}
    lead, top = BOT, 0
    for sender in ids:
        v = least.get(sender, BOT)
        if v is not BOT:
            count[v] = c = count.get(v, 0) + 1
            if c > top:
                lead, top = v, c
    return lead, top


class LockstepGC:
    """Two-round graded consensus among `members`, all of which propose (the
    problem PAPER.md quotes from Attiya and Welch 2023), in lock-step. Of m
    members at most t = (m-1)//3 are faulty; only a member's least value of
    the round's kind counts (`_lead`). Round 0 sends the proposal as ECHO
    and votes x on m-t ECHOs of x, else BOT. Round 1 sends the vote as ECHO2
    and decides (x, 1) on m-t ECHO2s of x, (x, 0) on t+1, else (own, 0).

    As m > 3t, two sets of m-t members share a correct one, which sent both
    the same ECHO: correct members vote at most one x other than BOT, and
    any other value gets at most t ECHO2s. So if a correct member decides
    (x, 1), m-2t >= t+1 correct members sent every member ECHO2 x, and every
    correct member decides x: the consistency the recursion needs, as a
    grade-1 member keeps its value and a grade-0 one may adopt a half's
    majority. If every correct member proposes v, each gets m-t ECHOs, then
    m-t ECHO2s of v, and decides (v, 1): AW-Validity.
    """

    def __init__(self, members, proposal):
        self.members = tuple(members)
        self.ids = _id_range(self.members)
        self.t = (len(self.members) - 1) // 3
        self.own = proposal
        self.vote = None       # what round 1 sends
        self.decision = None

    def active(self, r):
        return True

    def outbound(self, r):
        p = Payload("ECHO2", value=self.vote) if r \
            else Payload("ECHO", value=self.own)
        return [(p, self.members)]

    def absorb(self, r, received):
        x, support = _lead(received, "ECHO2" if r else "ECHO", self.ids)
        quorum = len(self.members) - self.t
        if not r:
            self.vote = x if support >= quorum else BOT
        else:
            self.decision = (x, 1) if support >= quorum else \
                (x, 0) if support > self.t else (self.own, 0)

    def state_digest(self):
        return (self.own, self.vote, self.decision)


class SyncMachine:
    """Member pid's view of the recursive agreement among members, ascending
    evenly spaced ids (see `_id_range`)."""

    def __init__(self, pid, members, proposal):
        self.pid = pid
        self.members = tuple(members)
        self.ids = _id_range(self.members)
        self.b = proposal
        n = len(self.members)
        self.gc = None
        self.gc_grade = None
        self.child = None
        split = (n + 1) // 2
        self.halves = {1: self.ids[:split], 2: self.ids[split:]}
        self.plan = round_plan(n, self.ids.index(pid))  # non-member: error

    def active(self, r):
        return self.plan[r] is not None

    def outbound(self, r):
        kind, local, idx = self.plan[r]
        if kind == "gc":
            if local == 0:
                self.gc = LockstepGC(self.members, self.b)
            return self.gc.outbound(local)
        if kind == "half":
            if local == 0:
                self.child = SyncMachine(self.pid, self.halves[idx], self.b)
            return self.child.outbound(local)
        if kind == "listen":
            return []
        # report: one payload for every member
        v = self.child.decision() if self.child else self.b
        return [(Payload("HALF-REPORT", value=v), self.members)]

    def absorb(self, r, received):
        kind, local, idx = self.plan[r]
        if kind == "half":
            self.child.absorb(local, received)
        elif kind == "gc":
            self.gc.absorb(local, received)
            if local == GC_ROUNDS - 1:
                self.b, self.gc_grade = self.gc.decision
        elif self.gc_grade == 0:   # report or listen: the majority is unique
            half = self.halves[idx]
            v, support = _lead(received, "HALF-REPORT", half)
            if support > len(half) / 2:
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
    """Runs machine(pid, range(params.n), proposal) over the network.

    Per active round: send the machine's outbound messages tagged with the
    round parity, wait delta_sync, then feed back every arrival of that
    parity, kept until the last round closes. A run of k idle rounds is one
    timer of k * delta_sync, whose firing closes the run's last round.
    Copies stop silently once the cumulative inner-message bit count would
    exceed the cap.
    """

    def __init__(self, params, pid, machine=SyncMachine):
        super().__init__()
        self.params = params
        self.pid = pid
        self.machine_class = machine
        self.total_rounds = params.R   # read per arrival
        self.delta_sync = params.delta_sync
        self.bit_cap = params.bit_cap
        self.value_width = params.value_width
        self.machine = None
        self.round = 0   # the round the pending timer closes
        self.sent_bits = 0
        # parity -> [(sender, inner payload)] in arrival order
        self.received = {0: [], 1: []}

    def on_event(self, event):
        cls = type(event)
        if cls is MessageArrival:
            p = event.payload
            if p.kind == "SYNC-ROUND" and self.round < self.total_rounds:
                self.received[p.parity].append((event.sender, p.inner))
            return []
        if cls is Request:   # propose, once (see the runtime docstring)
            self.machine = self.machine_class(
                self.pid, range(self.params.n), event.args[0])
            return self._next_round()
        # timer: close round r, handing an active round's arrivals to the
        # machine and dropping an idle one's, then open the next
        r = self.round
        current, self.received[r & 1] = self.received[r & 1], []
        if self.machine.active(r):
            self.machine.absorb(r, current)
        self.round = r + 1
        return self._next_round()

    def _next_round(self):
        """Open round `self.round`, or indicate sync-done after the last.
        An idle run up to the next active round w (or R) sets one timer
        that closes round w-1. An active round sends one SYNC-ROUND
        Multicast and one bit count per run of the machine's outbound,
        holding the first destinations that fit under the cumulative bit
        cap (a payload that fits none is not sent), and sets its timer."""
        r = w = self.round
        total, active = self.total_rounds, self.machine.active
        while w < total and not active(w):
            w += 1
        if w > r:
            self.round = w - 1
            return [self.new_timer((w - r) * self.delta_sync)[0]]
        if r >= total:
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
