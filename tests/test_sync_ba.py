import functools
import random
from collections import Counter
from itertools import groupby

import pytest
from hypothesis import given, settings, strategies as st

from operlab.core import BOT, Payload, Tally
from operlab.crux import CruxParams
from operlab.runtime import (Automaton, Halt, Indicate, MessageArrival,
                             Multicast, Request, SetTimer, TimerFired)
from operlab.oracle import RecordingMachine, lockstep_run
from operlab.simnet import AdversarySpec, SimConfig, run
from operlab.sync_ba import (GC_ROUNDS, LockstepGC, RoundSimAdapter,
                             SyncMachine, _lead, budget, mc, round_plan,
                             rounds)

from lockstep import lockstep_network, lockstep_sent


def test_round_recurrence_values():
    assert rounds(1) == 0
    assert rounds(2) == 6
    assert rounds(4) == 18
    assert rounds(8) == 42
    assert rounds(10) == 54
    assert rounds(16) == 90


def test_message_budget_values():
    assert mc(1) == 0
    assert mc(2) == 10
    assert mc(4) == 30
    assert mc(8) == 70
    assert budget(4, 32) == 30 * 40


def test_recurrence_rejects_nonpositive():
    with pytest.raises(ValueError):
        rounds(0)
    with pytest.raises(ValueError):
        mc(0)


@functools.cache
def reference_schedule(m):
    """Per round of the agreement among m members: (stage kind, round within
    the stage, half). Each half in turn has GC_ROUNDS "gc" rounds (among all
    m members), rounds(half) "half" rounds and one "report" round."""
    if m == 1:
        return ()
    return tuple((kind, local, idx)
                 for idx, size in ((1, (m + 1) // 2), (2, m // 2))
                 for kind, length in (("gc", GC_ROUNDS),
                                      ("half", rounds(size)), ("report", 1))
                 for local in range(length))


def own_half(m, pos):
    """The half (1 or 2) that the member at position pos of m recurses in,
    and its position there."""
    split = (m + 1) // 2
    return (1, pos) if pos < split else (2, pos - split)


def walk_plan(m, pos, r):
    """Round r among m members, for the member at position pos: walks down
    the reference schedule to the level that owns the round; idle if it is a
    "half" round of a half the member is not in; the other half's report is
    read only."""
    kind, local, idx = reference_schedule(m)[r]
    half, sub = own_half(m, pos)
    if kind == "report" and idx != half:
        return ("listen", local, idx)
    if kind != "half":
        return (kind, local, idx)
    size = (m + 1) // 2 if idx == 1 else m // 2
    if idx != half or walk_plan(size, sub, local) is None:
        return None
    return (kind, local, idx)


def test_round_schedule_runs_each_half_through_gc_recursion_and_report():
    for m in range(1, 65):
        schedule = reference_schedule(m)
        assert len(schedule) == rounds(m)
        stages = []
        for (kind, idx), entries in groupby(schedule, lambda e: (e[0], e[2])):
            locals_ = [local for _, local, _ in entries]
            assert locals_ == list(range(len(locals_)))
            stages.append((kind, idx, len(locals_)))
        want = [] if m == 1 else [
            (kind, idx, length)
            for idx, half in ((1, (m + 1) // 2), (2, m // 2))
            for kind, length in (("gc", GC_ROUNDS), ("half", rounds(half)),
                                 ("report", 1))
            if length]   # a one-member half has no rounds of its own
        assert stages == want
        for pos in range(m):
            # every member takes part in every gc and report round; a step
            # it takes is the reference stage, a report read as "listen"
            for step, (kind, local, idx) in zip(round_plan(m, pos), schedule):
                if kind != "half":
                    assert step is not None
                if step is not None:
                    seen = "report" if step[0] == "listen" else step[0]
                    assert (seen, *step[1:]) == (kind, local, idx)


def test_active_rounds_match_a_walk_of_the_schedule():
    for m in range(1, 65):
        for pos in range(m):
            plan = round_plan(m, pos)
            assert type(plan) is tuple
            assert list(plan) == [walk_plan(m, pos, r)
                                  for r in range(rounds(m))]


def idle_runs(plan):
    """The number of maximal runs of idle rounds in a plan."""
    return sum(step is None and (r == 0 or plan[r - 1] is not None)
               for r, step in enumerate(plan))


def timers_per_view(plan):
    """Timers an adapter sets over a plan: one per active round and one per
    run of idle rounds."""
    return sum(step is not None for step in plan) + idle_runs(plan)


def test_no_copy_reaches_a_member_in_its_idle_rounds():
    # the premise of skipping idle rounds: in a lock-step walk, no member
    # sends a copy to one that sits the round out, so the adapter may leave
    # a member's idle rounds out of the event loop; and the round that ends
    # an idle run is one the member only listens in (it reads HALF-REPORTs)
    for m in range(1, 65):
        machines = {p: SyncMachine(p, range(m), p % 3 + 1) for p in range(m)}
        stray = []
        for pid, machine in machines.items():
            def outbound(r, pid=pid, inner=machine.outbound):
                out = inner(r)
                stray.extend((r, pid, dest) for _, dests in out
                             for dest in dests
                             if not machines[dest].active(r))
                if r and not machines[pid].active(r - 1) and out:
                    stray.append((r, pid, "wakes to send"))
                return out
            machine.outbound = outbound
        lockstep_run(machines, rounds(m))
        assert stray == [], m


def lone_adapter_timers(m, pos):
    """TimerFired events a lone adapter at position pos of m takes, with no
    arrivals, from its proposal to sync-done."""
    adapter = RoundSimAdapter(CruxParams(m, (m - 1) // 3, 10), pos)
    out, fired = adapter.step(Request("propose", (1,))), 0
    while not any(isinstance(a, Indicate) for a in out):
        (timer,) = out[-1:]
        out = adapter.step(TimerFired(timer.timer_id))
        fired += 1
    return fired


def test_an_adapter_sets_one_timer_per_active_round_and_idle_run():
    for m in range(1, 65):
        for pos in range(m):
            plan = round_plan(m, pos)
            assert lone_adapter_timers(m, pos) == timers_per_view(plan)
    assert max(timers_per_view(round_plan(31, pos))
               for pos in range(31)) == 34   # against rounds(31) = 180


def test_a_machine_is_built_for_a_member_only():
    with pytest.raises(ValueError):
        SyncMachine(4, [0, 1, 2, 3], 1)


class EveryRoundActive(SyncMachine):
    """The recursion without the plan's idle rounds: every round walks down
    the reference schedule to the level whose half holds this process, at
    every depth."""

    def __init__(self, pid, members, proposal):
        super().__init__(pid, members, proposal)
        self.schedule = reference_schedule(len(self.members))
        self.own_half, _ = own_half(len(self.members),
                                    self.members.index(pid))

    def outbound(self, r):
        kind, local, idx = self.schedule[r]
        if kind == "gc":
            return super().outbound(r)
        if idx != self.own_half:
            return []
        if kind == "report":
            return super().outbound(r)
        if local == 0:
            self.child = EveryRoundActive(self.pid, self.halves[idx], self.b)
        return self.child.outbound(local)

    def absorb(self, r, received):
        kind, local, idx = self.schedule[r]
        if kind != "half":
            super().absorb(r, received)
        elif idx == self.own_half:
            self.child.absorb(local, received)


SYNC_KINDS = ("INIT", "ECHO", "ECHO2", "ECHO3", "ECHO4", "ECHO5", "HALF-REPORT")


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 16), st.data(), st.integers(0, 2 ** 32))
def test_idle_rounds_change_no_outbound_and_no_state(n, data, seed):
    """Random batches every round, junk at idle rounds too: the machine
    called only on its active rounds sends and holds what the full walk,
    called on every round, does."""
    pid = data.draw(st.integers(0, n - 1), label="pid")
    proposal = data.draw(st.sampled_from((1, 2, 3)), label="proposal")
    members = list(range(n))
    fast = SyncMachine(pid, members, proposal)
    full = EveryRoundActive(pid, members, proposal)
    rng = random.Random(seed)
    favourite = rng.choice((1, 2, 3, BOT))
    for r in range(rounds(n)):
        active = fast.active(r)
        out = fast.outbound(r) if active else []
        assert out == full.outbound(r), r
        # members answer in the kinds sent this round (any kind when
        # idle), mostly with one value; junk from non-members rides along
        kinds = sorted({p.kind for p, _ in out}) or SYNC_KINDS
        batch = [(s, Payload(rng.choice(kinds), value=favourite
                             if rng.random() < 0.8 else rng.choice((1, 2))))
                 for s in members if rng.random() < 0.8]
        batch += [(n + rng.randrange(3), Payload(rng.choice(SYNC_KINDS),
                                                 value=favourite))
                  for _ in range(rng.randrange(3))]
        rng.shuffle(batch)
        if active:
            fast.absorb(r, batch)
        full.absorb(r, batch)
        assert fast.state_digest() == full.state_digest(), r


def run_lockstep(n, proposals):
    machines = {p: SyncMachine(p, list(range(n)), proposals[p])
                for p in range(n)}
    lockstep_run(machines, rounds(n))
    return machines


@pytest.mark.parametrize("n", [2, 4, 8])
def test_lockstep_agreement_and_validity(n):
    for pattern in ("same", "split", "distinct"):
        if pattern == "same":
            proposals = {p: 7 for p in range(n)}
        elif pattern == "split":
            proposals = {p: 5 if p < n // 2 else 9 for p in range(n)}
        else:
            proposals = {p: p + 1 for p in range(n)}
        machines = run_lockstep(n, proposals)
        decisions = {m.decision() for m in machines.values()}
        assert len(decisions) == 1, f"n={n} {pattern}: {decisions}"
        assert decisions <= set(proposals.values())


@pytest.mark.parametrize("n", [2, 4, 8])
def test_lockstep_respects_message_budget(n):
    for proposals in ({p: 7 for p in range(n)},
                      {p: p % 2 for p in range(n)},
                      {p: p + 1 for p in range(n)}):
        machines = {p: SyncMachine(p, list(range(n)), proposals[p])
                    for p in range(n)}
        for sent in lockstep_sent(machines, rounds(n)).values():
            assert sent <= mc(n)


def test_lockstep_sent_counts_copies_not_runs():
    n = 10
    machines = {p: SyncMachine(p, list(range(n)), p + 1) for p in range(n)}
    sent = lockstep_sent(machines, rounds(n))
    assert sorted(sent.values()) == [85, 85, 85, 85, 90, 90, 100, 100, 100,
                                     100]


class Scripted(Automaton):
    """Emits `script` when asked to propose; reports each message's sender."""

    def __init__(self, script=()):
        super().__init__()
        self.script = list(script)

    def on_event(self, event):
        if isinstance(event, Request):
            return self.script
        return [Indicate("got", (event.sender,))]


def test_lockstep_network_delivers_each_multicast_copy():
    autos = {0: Scripted([Multicast((2, 7, 1), Payload("INIT", value=1)),
                          SetTimer(5, (1,))]), 1: Scripted(), 2: Scripted()}
    inds = lockstep_network(autos, [(0, Request("propose"))], max_rounds=3)
    assert inds == {0: [], 1: [(1, "got", (0,))], 2: [(1, "got", (0,))]}
    with pytest.raises(TypeError):   # an action it cannot run is no drop
        lockstep_network({0: Scripted([Halt()])},
                         [(0, Request("propose"))], max_rounds=3)


def test_outbound_is_one_run_per_payload_to_the_member_tuple():
    machine = SyncMachine(0, list(range(4)), 5)
    runs = machine.outbound(0)
    assert runs and all(dests == (0, 1, 2, 3) for _, dests in runs)
    assert len({id(p) for p, _ in runs}) == len(runs)


def test_unanimous_value_survives_minority_faults():
    # the n-1 live machines all propose the same value; the missing process
    # simply never sends (crash from round 0)
    n = 4
    machines = {p: SyncMachine(p, list(range(n)), 7) for p in range(n - 1)}
    lockstep_run(machines, rounds(n))
    assert {m.decision() for m in machines.values()} == {7}


def copies(actions):
    """(dest, payload) of every copy the adapter's Multicasts send."""
    return [(dest, a.payload) for a in actions if isinstance(a, Multicast)
            for dest in a.dests]


class AdapterDriver:
    """Delivers adapter Multicasts between peers, one copy per destination,
    and fires timers in order."""

    def __init__(self, adapters):
        self.adapters = adapters
        self.indications = {pid: [] for pid in adapters}
        self.pending = []   # (pid, timer) due at the next lock-step boundary

    def start(self, proposals):
        for pid, a in self.adapters.items():
            self._dispatch(pid, a.step(Request("propose", (proposals[pid],))))
        while self.pending:
            batch, self.pending = self.pending, []
            for pid, timer in batch:
                self._dispatch(pid, self.adapters[pid].step(
                    TimerFired(timer.timer_id)))

    def _dispatch(self, pid, actions):
        for dest, payload in copies(actions):
            if dest in self.adapters:
                self._dispatch(dest, self.adapters[dest].step(
                    MessageArrival(pid, payload)))
        for act in actions:
            if isinstance(act, SetTimer):
                self.pending.append((pid, act))
            elif isinstance(act, Indicate):
                self.indications[pid].append(act)


def make_adapters(n):
    # delta_sync 30, bit cap 2 * budget(n, 32), value width 32
    return {p: RoundSimAdapter(CruxParams(n, (n - 1) // 3, 10), p,
                               RecordingMachine)
            for p in range(n)}


def test_adapter_takes_its_constants_and_machine_from_params():
    a = RoundSimAdapter(CruxParams(7, 2, 10), 3)
    assert (a.total_rounds, a.delta_sync, a.bit_cap, a.value_width) == (
        rounds(7), 30, 2 * budget(7, 32), 32)
    a.step(Request("propose", (5,)))
    assert type(a.machine) is SyncMachine
    assert (a.machine.pid, a.machine.members) == (3, tuple(range(7)))
    assert a.machine.decision() == 5


def test_adapter_end_to_end_agreement():
    adapters = make_adapters(2)
    driver = AdapterDriver(adapters)
    driver.start({0: 4, 1: 4})
    done = {pid: [i.args[0] for i in inds if i.name == "sync-done"]
            for pid, inds in driver.indications.items()}
    assert done == {0: [4], 1: [4]}


def test_adapter_matches_lockstep_reference():
    adapters = make_adapters(2)
    AdapterDriver(adapters).start({0: 3, 1: 8})
    reference = {p: SyncMachine(p, [0, 1], b) for p, b in ((0, 3), (1, 8))}
    ref_digests = lockstep_run(reference, rounds(2))
    for pid, a in adapters.items():
        assert a.machine.digests == ref_digests[pid]


def test_adapter_bit_cap_suppresses_sends():
    a = RoundSimAdapter(CruxParams(2, 0, 10), 0)
    a.bit_cap = 0
    out = a.step(Request("propose", (5,)))
    assert not any(isinstance(act, Multicast) for act in out)
    assert a.sent_bits == 0


def test_adapter_bit_cap_cuts_a_multicast_at_the_first_copy_over_it():
    # round 0 of n=4 sends one 40-bit ECHO to every member; a 130-bit cap
    # lets the first three copies through
    a = RoundSimAdapter(CruxParams(4, 1, 10), 0)
    a.bit_cap = 130
    out = a.step(Request("propose", (5,)))
    assert [dest for dest, _ in copies(out)] == [0, 1, 2]
    assert a.sent_bits == 120


def test_adapter_parity_tagging():
    a = make_adapters(2)[0]
    out = a.step(Request("propose", (5,)))
    sent = copies(out)
    assert sent and all(p.parity == 0 for _, p in sent)

    for sender in (0, 1):   # both members echo 5 in round 0
        a.step(MessageArrival(sender, sent[0][1]))
    (timer,) = [act for act in out if isinstance(act, SetTimer)]
    sent = copies(a.step(TimerFired(timer.timer_id)))
    assert a.round == 1
    assert sent and all(p.parity == 1 for _, p in sent)


def sync_round(parity, value):
    return Payload("SYNC-ROUND", parity=parity,
                   inner=Payload("ECHO", value=value))


def test_adapter_trivial_membership_finishes_immediately():
    a = RoundSimAdapter(CruxParams(1, 0, 10), 0)
    a.bit_cap = 100
    # no round would ever read an arrival: it is dropped, not buffered
    assert a.step(MessageArrival(0, sync_round(0, 9))) == []
    assert a.received == {0: [], 1: []}
    out = a.step(Request("propose", (6,)))
    assert out == [Indicate("sync-done", (6,))]


def test_adapter_is_silent_after_sync_done():
    adapters = make_adapters(2)
    driver = AdapterDriver(adapters)
    driver.start({0: 4, 1: 4})
    a = adapters[0]
    assert a.round == rounds(2)
    assert [i.name for i in driver.indications[0]] == ["sync-done"]
    # no round is left to read them: arrivals of either parity are dropped
    for parity in (0, 1):
        assert a.step(MessageArrival(1, sync_round(parity, 9))) == []
    assert a.received == {0: [], 1: []}


def test_byzantine_injection_cannot_break_unanimity():
    n = 4
    machines = {p: SyncMachine(p, list(range(n)), 7) for p in range(n - 1)}
    inject = {}
    for r in range(rounds(n)):
        for p in machines:
            inject[(r, p)] = [(3, Payload("ECHO", value=9)),
                              (3, Payload("HALF-REPORT", value=9))]
    lockstep_run(machines, rounds(n), inject=inject)
    assert {m.decision() for m in machines.values()} == {7}


JUNK_KINDS = SYNC_KINDS + ("FINISH",)


def junk(rng, faulty, kinds=JUNK_KINDS):
    """0-3 payloads from each faulty sender: any of `kinds`, any value."""
    return [(f, Payload(rng.choice(kinds),
                        value=rng.choice((1, 2, 3, BOT, rng.getrandbits(32)))))
            for f in faulty for _ in range(rng.randrange(4))]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(4, 16), st.data(), st.integers(0, 2 ** 32))
def test_round_machine_contract_under_any_junk(n, data, seed):
    """The contract the adapter relies on after GST: whatever 1..t faulty
    processes send, in any round, to any receiver, inside the sub-instance
    or not, every correct process sends at most mc(n) copies, the correct
    processes agree, and unanimous correct proposals give that value."""
    t = (n - 1) // 3
    faulty = data.draw(st.sets(st.integers(0, n - 1), min_size=1,
                               max_size=t), label="faulty")
    unanimous = data.draw(st.booleans(), label="unanimous")
    rng = random.Random(seed)
    correct = [p for p in range(n) if p not in faulty]
    proposals = {p: 7 if unanimous else rng.choice((1, 2, 3))
                 for p in correct}
    machines = {p: SyncMachine(p, range(n), proposals[p]) for p in correct}
    inject = {(r, p): junk(rng, sorted(faulty))
              for r in range(rounds(n)) for p in correct}
    sent = lockstep_sent(machines, rounds(n), inject=inject)
    assert max(sent.values()) <= mc(n), sent
    decisions = {m.decision() for m in machines.values()}
    assert len(decisions) == 1, decisions
    if unanimous:
        assert decisions == {7}


def run_gc(members, proposals, inject):
    """One LockstepGC per correct member, run through its two rounds."""
    gcs = {p: LockstepGC(members, v) for p, v in proposals.items()}
    lockstep_run(gcs, GC_ROUNDS, inject=inject)
    return {p: gc.decision for p, gc in gcs.items()}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 16), st.data(), st.integers(0, 2 ** 32))
def test_lockstep_gc_validity_and_consistency(m, data, seed):
    """AW-Validity and grade-1 consistency with up to t faulty members
    sending anything, and non-members that change nothing."""
    members = tuple(range(10, 10 + 2 * m, 2))   # ids need not be 0..m-1
    t = (m - 1) // 3
    faulty = data.draw(st.sets(st.sampled_from(members), max_size=t),
                       label="faulty")
    unanimous = data.draw(st.booleans(), label="unanimous")
    rng = random.Random(seed)
    proposals = {p: 5 if unanimous else rng.choice((1, 2, 3))
                 for p in members if p not in faulty}
    # besides junk, a faulty member may back each receiver's own proposal,
    # which splits the correct members if a quorum is one short
    inject = {(r, p): junk(rng, sorted(faulty), ("ECHO", "ECHO2", "INIT"))
              + [(f, Payload(("ECHO", "ECHO2")[r], value=v))
                 for f in sorted(faulty) if rng.random() < 0.5]
              for r in range(GC_ROUNDS) for p, v in proposals.items()}
    decisions = run_gc(members, proposals, inject)
    if unanimous:
        assert set(decisions.values()) == {(5, 1)}
    strong = {v for v, g in decisions.values() if g == 1}
    if strong:
        assert {v for v, _ in decisions.values()} == strong
    assert all(g in (0, 1) and v is not BOT for v, g in decisions.values())
    # 11 lies between two members; 0 and 99 outside them all
    noisy = {key: batch + junk(rng, (0, 11, 99))
             for key, batch in inject.items()}
    assert run_gc(members, proposals, noisy) == decisions


def sorted_lead(received, kind, senders):
    """The round tally as it read before it took one pass: the batch sorted
    by sender, kind and value, each sender's first `kind` message counted in
    a first-only `Tally`, the lead the first value other than BOT to reach
    the top count."""
    def key(item):
        sender, p = item
        v = p.value
        return (sender, p.kind, v is not None,
                (0, 0) if v is None else (1, 0) if v is BOT else (0, v))
    tally = Tally(first_only=True)
    lead, top = BOT, 0
    for sender, p in sorted(received, key=key):
        if p.kind == kind and sender in senders:
            support = tally.add(sender, p.value)
            if support > top and p.value is not BOT:
                lead, top = p.value, support
    return lead, top


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.integers(1, 12), st.integers(0, 3), st.integers(1, 2),
       st.sampled_from(("ECHO", "ECHO2", "HALF-REPORT")), st.data())
def test_lead_matches_the_sorted_tally(m, lo, step, kind, data):
    """Duplicate senders, BOT, tied counts, non-members (between and beyond
    the ids) and other kinds: the one-pass lead equals the sorted one."""
    ids = range(lo, lo + m * step, step)
    batch = data.draw(st.lists(st.tuples(
        st.integers(0, ids[-1] + 2),
        st.sampled_from(("ECHO", "ECHO2", "HALF-REPORT", "INIT")),
        st.sampled_from((1, 2, 3, 2 ** 32 - 1, BOT))), max_size=3 * m))
    received = [(s, Payload(k, value=v)) for s, k, v in batch]
    assert _lead(received, kind, ids) == sorted_lead(received, kind, tuple(ids))


def test_members_must_be_evenly_spaced_ids():
    with pytest.raises(ValueError, match="not evenly spaced"):
        SyncMachine(0, [0, 1, 3], 1)
    with pytest.raises(ValueError, match="not evenly spaced"):
        LockstepGC((2, 1, 0), 1)


def test_report_round_sends_one_payload_object():
    n = 4
    adapter = RoundSimAdapter(CruxParams(n, 1, 10), 0)
    out = adapter.step(Request("propose", (5,)))
    for _ in range(round_plan(n, 0).index(("report", 0, 1))):
        timer = next(a for a in out if isinstance(a, SetTimer))
        out = adapter.step(TimerFired(timer.timer_id))
    sent = copies(out)
    assert [dest for dest, _ in sent] == list(range(n))
    assert sent[0][1].inner == Payload("HALF-REPORT", value=5)
    assert all(p is sent[0][1] for _, p in sent)
    assert sum(isinstance(a, Multicast) for a in out) == 1


class SnapshotMachine(RecordingMachine):
    """A recording machine that also copies each batch as it absorbs it."""

    def __init__(self, pid, members, proposal):
        super().__init__(pid, members, proposal)
        self.snapshots = []

    def absorb(self, r, received):
        super().absorb(r, received)
        self.snapshots.append(list(received))


def test_adapter_hands_the_machine_a_fresh_batch_every_round():
    # the oracle's recording machine keeps each batch it absorbs, so the
    # adapter must never append to one afterwards; it hands one batch per
    # active round and none in an idle one, where a faulty process still
    # sends
    n, delta_sync = 4, 20
    config = SimConfig(n=n, t=1, faulty=frozenset({3}), seed=4)
    adapters = {p: RoundSimAdapter(CruxParams(n, 1, 10), p, SnapshotMachine)
                for p in range(n)}
    for a in adapters.values():
        a.delta_sync = delta_sync

    run(config, AdversarySpec(strategies={3: ("random",)}),
        adapters.__getitem__, max_time=(rounds(n) + 2) * delta_sync)
    machines = {p: a.machine for p, a in adapters.items()}
    for p, m in machines.items():
        assert [r for r, _ in m.absorbed] == [
            r for r, step in enumerate(round_plan(n, p)) if step], p
    batches = [b for m in machines.values() for _, b in m.absorbed]
    assert len({id(b) for b in batches}) == len(batches)
    assert any(batches) and not all(batches)
    for m in machines.values():
        assert [list(b) for _, b in m.absorbed] == m.snapshots


def test_after_gst_an_idle_run_keeps_the_round_ticks():
    # starting after GST, each adapter takes one timer per active round and
    # per idle run, and its sync-done comes at start + R * delta_sync, the
    # tick a timer per round gives
    n, gst = 7, 100
    starts = {p: gst + 3 * p for p in range(n)}
    config = SimConfig(n=n, t=2, seed=1, gst=gst, propose_at=starts)
    params = CruxParams(n, 2, 10)
    adapters = {p: RoundSimAdapter(params, p) for p in range(n)}
    trace = run(config, AdversarySpec(drift=("uniform",)),
                adapters.__getitem__,
                max_time=gst + (params.R + 2) * params.delta_sync,
                collect_rows=True)
    fired = Counter(pid for _, pid, kind, *_ in trace.rows
                    if kind == "timer-fire")
    done = {pid: time for time, pid, kind, *_ in trace.rows
            if kind == "indicate:sync-done"}
    assert fired == {p: timers_per_view(round_plan(n, p)) for p in range(n)}
    assert done == {p: at + params.R * params.delta_sync
                    for p, at in starts.items()}
    assert all(a.round == params.R for a in adapters.values())
