import random

import pytest
from hypothesis import given, settings, strategies as st

from operlab.core import BOT, Payload, value_sort_key
from operlab.graded_consensus import GradedConsensus, map_decision
from operlab.runtime import Broadcast, Indicate, MessageArrival, Request

from lockstep import lockstep_network


def run_network(n, t, proposals, byzantine=None, seed=0):
    """Fully exchange messages among n-|byzantine| correct cascades.

    byzantine: {pid: fn(rng) -> [(dest, Payload)]} invoked once per round.
    Returns ({pid: module decision}, {pid: raw cascade outcome}).
    """
    byzantine = byzantine or {}
    rng = random.Random(seed)
    autos = {p: GradedConsensus(n, t) for p in range(n) if p not in byzantine}
    pending = []
    for p, a in autos.items():
        for act in a.step(Request("propose", (proposals[p],))):
            if isinstance(act, Broadcast):
                pending.append((p, act.payload))
    decisions = {}
    for _ in range(40):
        if not pending and not byzantine:
            break
        batch, pending = pending, []
        for bp, fn in byzantine.items():
            for dest, payload in fn(rng):
                if dest in autos:
                    for act in autos[dest].step(MessageArrival(bp, payload)):
                        if isinstance(act, Broadcast):
                            pending.append((dest, act.payload))
                        elif isinstance(act, Indicate):
                            decisions[dest] = act.args
        rng.shuffle(batch)
        for sender, payload in batch:
            for p, a in autos.items():
                for act in a.step(MessageArrival(sender, payload)):
                    if isinstance(act, Broadcast):
                        pending.append((p, act.payload))
                    elif isinstance(act, Indicate):
                        decisions[p] = act.args
        if not pending:
            break
    raw = {p: a.gbca_outcome for p, a in autos.items()}
    return decisions, raw


def test_unanimous_gives_grade_one():
    decisions, raw = run_network(4, 1, {p: 7 for p in range(4)})
    assert decisions == {p: (7, 1) for p in range(4)}
    assert raw == {p: (7, 2) for p in range(4)}


def test_dispersed_inputs_terminate():
    decisions, _ = run_network(7, 2, {p: p + 1 for p in range(7)})
    assert set(decisions) == set(range(7))
    grades = {g for (_, g) in decisions.values()}
    assert grades <= {0, 1}


def test_majority_value_wins():
    decisions, _ = run_network(4, 1, {0: 5, 1: 5, 2: 5, 3: 9})
    values = {v for (v, _) in decisions.values()}
    assert 9 not in values


def test_duplicate_stage_messages_ignored():
    gc = GradedConsensus(4, 1)
    gc.step(Request("propose", (7,)))
    gc.step(MessageArrival(1, Payload("ECHO3", value=7)))
    gc.step(MessageArrival(1, Payload("ECHO3", value=9)))
    assert gc.tallies[3].senders == 1 << 1
    assert 9 not in gc.tallies[3].backers


def test_stage_one_counts_per_sender_value_pair():
    gc = GradedConsensus(4, 1)
    gc.step(Request("propose", (7,)))
    gc.step(MessageArrival(1, Payload("ECHO", value=5)))
    gc.step(MessageArrival(1, Payload("ECHO", value=5)))
    gc.step(MessageArrival(1, Payload("ECHO", value=6)))
    assert gc.tallies[1].count(5) == 1
    assert gc.tallies[1].count(6) == 1


def test_map_decision_table():
    assert map_decision((7, 2), own=5) == (7, 1)
    assert map_decision((7, 1), own=5) == (7, 0)
    assert map_decision((BOT, 0), own=5) == (5, 0)
    assert map_decision((BOT, 0), own=None) is None


def test_bot_decision_before_the_proposal_is_indicated_on_it():
    gc = GradedConsensus(4, 1)
    for s in (1, 2, 3):
        assert gc.step(MessageArrival(s, Payload("ECHO5", value=BOT))) == []
    assert gc.step(Request("propose", (7,))) == [
        Broadcast(Payload("ECHO", value=7)), Indicate("decide", (7, 0))]


def test_graded_decision_before_the_proposal_is_indicated_once():
    gc = GradedConsensus(4, 1)
    out = []
    for s in (1, 2, 3):
        out += gc.step(MessageArrival(s, Payload("ECHO5", value=9)))
    out += gc.step(Request("propose", (7,)))
    assert [a for a in out if isinstance(a, Indicate)] == \
        [Indicate("decide", (9, 1))]


# n=4, t=1: approvals of 7 and 8 make the run mixed; two ECHO4(7) and the
# ECHO5s (7, BOT, BOT) from n-t senders complete the grade-1 branch for 7
_MIXED = [("ECHO", v, s) for v in (7, 8) for s in (1, 2, 3)]
_ECHO4 = [("ECHO4", 7, s) for s in (1, 2)]
_ECHO5 = [("ECHO5", 7, 1), ("ECHO5", BOT, 2), ("ECHO5", BOT, 3)]


@pytest.mark.parametrize("order", [_MIXED + _ECHO5 + _ECHO4,
                                   _MIXED + _ECHO4 + _ECHO5,
                                   _ECHO4 + _ECHO5 + _MIXED],
                         ids=["echo4-last", "echo5-last", "approval-last"])
def test_grade_one_decision_whichever_input_comes_last(order):
    gc = GradedConsensus(4, 1)
    gc.step(Request("propose", (7,)))
    decides = []
    for k, (kind, v, sender) in enumerate(order):
        out = gc.step(MessageArrival(sender, Payload(kind, value=v)))
        decides += [(k, a) for a in out if isinstance(a, Indicate)]
    assert decides == [(len(order) - 1, Indicate("decide", (7, 0)))]


def test_no_second_decide_after_the_decision():
    gc = GradedConsensus(4, 1)
    gc.step(Request("propose", (7,)))
    later = [("ECHO5", 7, s) for s in (1, 2, 3)] \
        + [("ECHO4", v, s) for v in (7, BOT) for s in range(4)] \
        + [("ECHO5", v, s) for v in (7, BOT) for s in range(4)]
    decides = []
    for kind, v, sender in later:
        out = gc.step(MessageArrival(sender, Payload(kind, value=v)))
        decides += [a for a in out if isinstance(a, Indicate)]
    assert decides == [Indicate("decide", (7, 1))]


def test_abandon_freezes_state():
    gc = GradedConsensus(4, 1)
    gc.step(Request("propose", (7,)))
    gc.step(Request("abandon"))
    out = []
    for s in (1, 2, 3):   # n - t ECHOs of 7 would approve it
        out += gc.step(MessageArrival(s, Payload("ECHO", value=7)))
    assert out == []
    assert gc.approved == set() and gc.tallies[1].total == 0


def _equivocator(values):
    def fn(rng):
        out = []
        for dest in range(4):
            kind = rng.choice(["ECHO", "ECHO2", "ECHO3", "ECHO4", "ECHO5"])
            out.append((dest, Payload(kind, value=rng.choice(values))))
        return out
    return fn


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=3), min_size=3, max_size=3),
       st.integers(min_value=0, max_value=10_000))
def test_consistency_under_byzantine_noise(props, seed):
    proposals = {p: props[p] for p in range(3)}
    decisions, raw = run_network(
        4, 1, proposals, byzantine={3: _equivocator([1, 2, 3, 9])}, seed=seed)
    assert set(decisions) == {0, 1, 2}, "all correct must decide"
    # a grade-1 decision forces every decision to that value and rules
    # out any bottom outcome among correct processes
    strong = {v for (v, g) in decisions.values() if g == 1}
    assert len(strong) <= 1
    if strong:
        assert {v for (v, _) in decisions.values()} == strong
        assert all(o != (BOT, 0) for o in raw.values())
    # decided values were proposed by correct processes
    for v, g in decisions.values():
        assert v in proposals.values()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_unanimous_proposals_decide_grade_one_whatever_faulty_processes_echo(
        data):
    """AW-Validity: n-t correct instances all propose v; the t faulty ids
    echo any stage-1 values to any instances, delivered at any points of a
    seeded random delivery order. Every correct instance decides (v, 1)."""
    n = data.draw(st.integers(4, 10))
    t = (n - 1) // 3
    faulty = sorted(data.draw(st.sets(st.integers(0, n - 1),
                                      min_size=t, max_size=t)))
    v = data.draw(st.integers(0, 3))
    # (sender, dest, value, step); a run takes about 5 (n-t)^2 deliveries,
    # so steps up to 5 n^2 land mostly before the correct instances decide
    spray = data.draw(st.lists(st.tuples(
        st.sampled_from(faulty), st.integers(0, n - 1),
        st.integers(0, 20) | st.just(BOT), st.integers(0, 5 * n * n)),
        max_size=80))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    autos = {p: GradedConsensus(n, t) for p in range(n) if p not in faulty}
    pending = [(p, Request("propose", (v,))) for p in autos]
    spray.sort(key=lambda m: m[3])
    decisions = {p: [] for p in autos}
    step = 0
    while pending or spray:
        if spray and (spray[0][3] <= step or not pending):
            sender, dest, w, _ = spray.pop(0)
            event = MessageArrival(sender, Payload("ECHO", value=w))
        else:
            dest, event = pending.pop(rng.randrange(len(pending)))
        step += 1
        for act in autos[dest].step(event) if dest in autos else ():
            if isinstance(act, Broadcast):
                pending += [(q, MessageArrival(dest, act.payload))
                            for q in autos]
            elif isinstance(act, Indicate):
                decisions[dest].append(act.args)
    assert decisions == {p: [(v, 1)] for p in autos}


def test_lockstep_latency_within_seven_rounds():
    for proposals in ({p: 7 for p in range(4)},
                      {0: 5, 1: 5, 2: 9, 3: 9},
                      {p: p + 1 for p in range(4)}):
        autos = {p: GradedConsensus(4, 1) for p in range(4)}
        starts = [(p, Request("propose", (proposals[p],))) for p in range(4)]
        inds = lockstep_network(autos, starts, max_rounds=10)
        for p, events in inds.items():
            rounds_to_decide = [r for (r, name, _) in events
                                if name == "decide"]
            assert rounds_to_decide and rounds_to_decide[0] <= 7


class RecountingGC(GradedConsensus):
    """The rules as they read before they took the support `Tally.add`
    returned: each recounts its value through `Tally.count`, and the
    decision reads the ECHO5 tally for grades 2 and 0 on every call."""

    def _stage1(self, v, support):
        return super()._stage1(v, self.tallies[1].count(v))

    def _stage3(self, v, support):
        return super()._stage3(v, self.tallies[2].count(v))

    def _stage4(self, v, support):
        return super()._stage4(v, self.tallies[3].count(v))

    def _stage5(self, v, support):
        return super()._stage5(v, self.tallies[4].count(v))

    def _resolve_decision(self, v, support=0, scan=False):
        if self.gbca_outcome is not None:
            return []
        echo4, echo5 = self.tallies[4], self.tallies[5]
        quorum = self.n - self.t
        if v is not BOT and echo5.count(v) >= quorum:
            return self._decide(v, 2)
        if echo5.total >= quorum and self._mixed():
            w = min((c for c in (echo5.backers if scan else (v,))
                     if c is not BOT and echo5.count(c)
                     and echo4.count(c) >= self.t + 1),
                    key=value_sort_key, default=None)
            if w is not None:
                return self._decide(w, 1)
        if echo5.count(BOT) >= quorum:
            return self._decide(BOT, 0)
        return []


# mostly cascade kinds, plus kinds the cascade does not read
GC_KINDS = ("ECHO", "ECHO2", "ECHO3", "ECHO4", "ECHO5") * 3 \
    + ("INIT", "FINISH", "HALF-REPORT")


@st.composite
def gc_streams(draw):
    n = draw(st.sampled_from((4, 5, 7)))
    # a few values per stream, so that quorums form
    values = st.sampled_from(draw(st.lists(st.sampled_from((1, 2, 3, BOT)),
                                           min_size=1, max_size=3)))
    message = st.builds(lambda s, k, v: MessageArrival(s, Payload(k, value=v)),
                        st.integers(0, n + 1),   # senders >= n included
                        st.sampled_from(GC_KINDS), values)
    events = draw(st.lists(message, min_size=10, max_size=150))
    at = draw(st.none() | st.integers(0, len(events)))   # None: no proposal
    if at is not None:
        events.insert(at, Request("propose", (draw(values),)))
    return n, events


@settings(max_examples=200, deadline=None)
@given(gc_streams())
def test_support_driven_rules_match_recounting_rules(stream):
    """Duplicates, BOT, junk kinds and out-of-range senders included: after
    every event both give the same actions and the same state digest."""
    n, events = stream
    ours, ref = GradedConsensus(n, (n - 1) // 3), RecountingGC(n, (n - 1) // 3)
    for event in events:
        assert ours.step(event) == ref.step(event)
        assert ours.state_digest() == ref.state_digest()
