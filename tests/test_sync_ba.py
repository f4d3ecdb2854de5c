import random
from itertools import groupby

import pytest
from hypothesis import given, settings, strategies as st

from operlab.core import BOT, Payload
from operlab.runtime import (Automaton, Halt, Indicate, MessageArrival,
                             Multicast, Request, SetTimer, TimerFired)
from operlab.oracle import RecordingMachine, lockstep_run
from operlab.simnet import AdversarySpec, SimConfig, run
from operlab.sync_ba import (GC_ROUNDS, RoundSimAdapter, SyncMachine,
                             active_rounds, budget, mc, round_schedule, rounds)

from lockstep import lockstep_network, lockstep_sent


def test_round_recurrence_values():
    assert rounds(1) == 0
    assert rounds(2) == 16
    assert rounds(4) == 48
    assert rounds(8) == 112
    assert rounds(10) == 144
    assert rounds(16) == 240


def test_message_budget_values():
    assert mc(1) == 0
    assert mc(2) == 26
    assert mc(4) == 78
    assert mc(8) == 182
    assert budget(4, 32) == 78 * 40


def test_recurrence_rejects_nonpositive():
    with pytest.raises(ValueError):
        rounds(0)
    with pytest.raises(ValueError):
        mc(0)


def test_round_schedule_runs_each_half_through_gc_recursion_and_report():
    for m in range(1, 65):
        schedule = round_schedule(m)
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


def walk_is_active(m, pos, r):
    """Round r among m members, for the member at position pos: walks down
    `round_schedule` to the level that owns the round; idle if it is a
    "half" round of a half the member is not in."""
    while True:
        kind, local, idx = round_schedule(m)[r]
        if kind != "half":
            return True
        split = (m + 1) // 2
        low, high = (0, split) if idx == 1 else (split, m)
        if not low <= pos < high:
            return False
        m, pos, r = high - low, pos - low, local


def test_active_rounds_match_a_walk_of_the_schedule():
    for m in range(1, 65):
        for pos in (-1, *range(m)):   # -1: a non-member
            table = active_rounds(m, pos)
            assert type(table) is bytes and len(table) == rounds(m)
            assert list(table) == [walk_is_active(m, pos, r)
                                   for r in range(rounds(m))]


class EveryRoundActive(SyncMachine):
    """The recursion without the idle table: every round walks down to the
    level whose half holds this process, at every depth."""

    def __init__(self, pid, members, proposal):
        super().__init__(pid, members, proposal)
        self.active = b"\1" * len(self.schedule)

    def outbound(self, r):
        kind, local, idx = self.schedule[r]
        if kind != "half":
            return super().outbound(r)
        if idx != self.own_half:
            return []
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
    """Random batches every round, junk at idle rounds too: the machine that
    skips its idle rounds sends and holds what the full walk does."""
    pid = data.draw(st.integers(0, n), label="pid")   # n: a non-member
    proposal = data.draw(st.sampled_from((1, 2, 3)), label="proposal")
    members = list(range(n))
    fast = SyncMachine(pid, members, proposal)
    full = EveryRoundActive(pid, members, proposal)
    rng = random.Random(seed)
    favourite = rng.choice((1, 2, 3, BOT))
    for r in range(rounds(n)):
        out = fast.outbound(r)
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
    assert sorted(sent.values()) == [197, 197, 202, 202, 208, 222, 230, 230,
                                     248, 248]


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
    members = list(range(n))
    return {p: RoundSimAdapter(
        (lambda pid: lambda b: RecordingMachine(pid, members, b))(p),
        rounds(n), delta_sync=30, bit_cap=2 * budget(n, 32),
        value_width=32)
        for p in range(n)}


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
    a = RoundSimAdapter(lambda b: SyncMachine(0, [0, 1], b),
                        rounds(2), delta_sync=30, bit_cap=0,
                        value_width=32)
    out = a.step(Request("propose", (5,)))
    assert not any(isinstance(act, Multicast) for act in out)
    assert a.sent_bits == 0


def test_adapter_bit_cap_cuts_a_multicast_at_the_first_copy_over_it():
    # round 0 of n=4 sends one 40-bit ECHO to every member; a 130-bit cap
    # lets the first three copies through
    a = RoundSimAdapter(lambda b: SyncMachine(0, list(range(4)), b),
                        rounds(4), delta_sync=30, bit_cap=130,
                        value_width=32)
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


def test_adapter_trivial_membership_finishes_immediately():
    a = RoundSimAdapter(lambda b: SyncMachine(0, [0], b), rounds(1),
                        delta_sync=30, bit_cap=100, value_width=32)
    out = a.step(Request("propose", (6,)))
    assert out == [Indicate("sync-done", (6,))]


def test_adapter_is_silent_after_sync_done():
    adapters = make_adapters(2)
    driver = AdapterDriver(adapters)
    driver.start({0: 4, 1: 4})
    a = adapters[0]
    assert a.done and a.round == rounds(2)
    # one timer per round: the last one carries the round count
    assert a.step(TimerFired((rounds(2),))) == []
    assert a.step(Request("propose", (9,))) == []
    assert a.round == rounds(2)
    assert [i.name for i in driver.indications[0]] == ["sync-done"]


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


def test_report_round_sends_one_payload_object():
    n = 4
    adapter = RoundSimAdapter(lambda b: SyncMachine(0, list(range(n)), b),
                              rounds(n), delta_sync=30,
                              bit_cap=2 * budget(n, 32), value_width=32)
    out = adapter.step(Request("propose", (5,)))
    for _ in range(round_schedule(n).index(("report", 0, 1))):
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
    # adapter must never append to one afterwards, idle rounds included; a
    # faulty process sends in rounds where the others are idle
    n, delta_sync = 4, 20
    config = SimConfig(n=n, t=1, faulty=frozenset({3}), seed=4)
    machines = {}

    def factory(pid):
        def machine_factory(b):
            machines[pid] = SnapshotMachine(pid, list(range(n)), b)
            return machines[pid]
        return RoundSimAdapter(machine_factory, rounds(n), delta_sync,
                               2 * budget(n, 32), 32)

    run(config, AdversarySpec(strategies={3: ("random",)}), factory,
        max_time=(rounds(n) + 2) * delta_sync)
    batches = [b for m in machines.values() for b in m.absorbed]
    assert len(batches) == n * rounds(n)
    assert len({id(b) for b in batches}) == len(batches)
    assert any(batches) and not all(batches)
    for m in machines.values():
        assert [list(b) for b in m.absorbed] == m.snapshots
