from itertools import groupby

import pytest

from operlab.core import BOT, Payload
from operlab.runtime import Indicate, Request, Send, SetTimer, TimerFired
from operlab.sync_ba import (GC_ROUNDS, RecordingMachine, RoundSimAdapter,
                             SyncMachine, budget, lockstep_run, mc,
                             round_schedule, rounds)

from lockstep import lockstep_sent


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


def test_unanimous_value_survives_minority_faults():
    # the n-1 live machines all propose the same value; the missing process
    # simply never sends (crash from round 0)
    n = 4
    machines = {p: SyncMachine(p, list(range(n)), 7) for p in range(n - 1)}
    lockstep_run(machines, rounds(n))
    assert {m.decision() for m in machines.values()} == {7}


class AdapterDriver:
    """Delivers adapter Sends between peers and fires timers in order."""

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
        from operlab.runtime import MessageArrival
        for act in actions:
            if isinstance(act, Send) and act.to in self.adapters:
                peer = self.adapters[act.to]
                self._dispatch(act.to,
                               peer.step(MessageArrival(pid, act.payload)))
            elif isinstance(act, SetTimer):
                self.pending.append((pid, act))
            elif isinstance(act, Indicate):
                self.indications[pid].append(act)


def make_adapters(n, parity_flip_pid=None):
    members = list(range(n))
    return {p: RoundSimAdapter(
        (lambda pid: lambda b: RecordingMachine(pid, members, b))(p),
        rounds(n), delta_sync=30, bit_cap=2 * budget(n, 32),
        value_width=32, parity_flip=(p == parity_flip_pid))
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
    assert not any(isinstance(act, Send) for act in out)
    assert a.sent_bits == 0


def test_adapter_parity_tagging():
    a = make_adapters(2)[0]
    out = a.step(Request("propose", (5,)))
    sends = [act for act in out if isinstance(act, Send)]
    assert sends and all(s.payload.parity == 0 for s in sends)

    flipped = make_adapters(2, parity_flip_pid=0)[0]
    out = flipped.step(Request("propose", (5,)))
    sends = [act for act in out if isinstance(act, Send)]
    assert sends and all(s.payload.parity == 1 for s in sends)


def test_adapter_trivial_membership_finishes_immediately():
    a = RoundSimAdapter(lambda b: SyncMachine(0, [0], b), rounds(1),
                        delta_sync=30, bit_cap=100, value_width=32)
    out = a.step(Request("propose", (6,)))
    assert out == [Indicate("sync-done", (6,))]


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
    sends = [a for a in out if isinstance(a, Send)]
    assert [s.to for s in sends] == list(range(n))
    assert sends[0].payload.inner == Payload("HALF-REPORT", value=5)
    assert all(s.payload is sends[0].payload for s in sends)
