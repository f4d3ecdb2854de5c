import gc

import operlab.oper
from operlab.core import BOT, KINDS, Payload
from operlab.oper import BUFFER_CAP, Oper, crux_tag, _tag_view, make_oper
from operlab.runtime import (Automaton, Broadcast, Indicate, MessageArrival,
                             Request)
from operlab.simnet import AdversarySpec, SimConfig, run
from operlab.harness import oper_params
from test_runtime import automata, composites, pokes, silent


NON_CANONICAL = ("crux@0001", "crux@01", "crux@+1", "crux@1_0", "crux@ 1")


def test_view_tags_roundtrip():
    assert crux_tag(3) == "crux@3"
    assert _tag_view("crux@3") == 3
    assert _tag_view("crux@0") is None
    assert _tag_view("crux@x") is None
    assert _tag_view("fin") is None
    for tag in NON_CANONICAL:
        assert _tag_view(tag) is None, tag


def test_non_canonical_view_tags_spawn_no_instance():
    oper = Oper(4, 1, 10, pid=0)
    tags = NON_CANONICAL + (7,)   # and a path segment that is no string
    for tag in tags:   # before the proposal: not buffered either
        oper.step(MessageArrival(1, Payload("ECHO", value=5), path=(tag, "gc1")))
    assert not oper.pending
    oper.step(Request("propose", (5,)))
    for tag in tags:
        oper.step(MessageArrival(1, Payload("ECHO", value=5), path=(tag, "gc1")))
    assert sorted(oper.children) == [crux_tag(1), "fin"]
    assert oper.misrouted == 2 * len(tags)


def test_junk_paths_leave_one_route_per_automaton():
    oper = Oper(10, 3, 10, pid=0)
    oper.step(Request("propose", (5,)))
    view = oper.children[crux_tag(1)]
    for i in range(200):   # 1,000 messages
        junk = f"junk{i}"
        for path in ((crux_tag(1), "gc1", junk), ("fin", junk),
                     (crux_tag(1), "vb", "rb", junk),   # below an automaton
                     (crux_tag(1), junk, "gc1"), (junk, "gc1")):   # no view
            oper.step(MessageArrival(1, Payload("ECHO", value=i), path=path))
    assert len(oper.routes) == len(automata(oper)) == 8
    assert (oper.misrouted, view.misrouted) == (1000, 0)
    assert sorted(oper.children) == [crux_tag(1), "fin"]
    assert oper.children[crux_tag(1)] is view   # a held view is not rebuilt


def junk_of_every_kind():
    """One payload of each kind; value kinds once with a value, once BOT."""
    for kind in KINDS:
        if kind == "SYNC-ROUND":
            yield Payload(kind, parity=0, inner=Payload("ECHO", value=5))
        elif kind == "START-VIEW":
            yield Payload(kind, view=1)
        else:
            yield Payload(kind, value=5)
            yield Payload(kind, value=BOT)


def test_junk_on_core_paths_is_absorbed_silently():
    # a faulty process may send any kind to a core's own path: the view
    # core, the validation core and the finisher ignore what they do not
    # read, and one sender is below every threshold of what they do read
    oper = Oper(4, 1, 10, pid=0)
    oper.step(Request("propose", (5,)))
    for path in ((crux_tag(1),), (crux_tag(1), "vb"), ("fin",)):
        for payload in junk_of_every_kind():
            assert oper.on_event(MessageArrival(3, payload, path)) == [], \
                (path, payload)
    assert [c.misrouted for c in composites(oper)] == [0, 0, 0]


def test_view_spawned_from_the_buffer_is_routed_by_the_table():
    oper = Oper(4, 1, 10, pid=0)
    path = (crux_tag(2), "gc1")
    oper.step(MessageArrival(1, Payload("ECHO", value=5), path=path))
    oper.step(Request("propose", (5,)))
    view = oper.children[crux_tag(2)]
    gc1 = view.children["gc1"]
    assert view.routes is None
    assert oper.routes[path] == (gc1, ((view, "gc1"),))
    assert gc1.tallies[1].count(5) == 1   # the replayed message
    oper.step(MessageArrival(2, Payload("ECHO", value=5), path=path))
    assert gc1.tallies[1].count(5) == 2
    assert len(oper.routes) == len(automata(oper)) == 14


def test_buffered_message_reaches_a_nested_instance_of_its_view():
    oper = Oper(4, 1, 10, pid=0)
    oper.step(MessageArrival(1, Payload("INIT", value=5),
                             path=(crux_tag(1), "vb", "rb")))
    oper.step(Request("propose", (5,)))
    rb = oper.children[crux_tag(1)].children["vb"].children["rb"]
    assert rb.init.count(5) == 1


def test_an_oper_holds_no_reference_cycle():
    gc.collect()
    gc.disable()
    try:
        oper = Oper(4, 1, 10, pid=0)
        oper.step(MessageArrival(1, Payload("INIT", value=5),
                                 path=(crux_tag(1), "vb", "rb")))
        oper.step(Request("propose", (5,)))   # spawns crux@1 from the buffer
        oper.step(MessageArrival(1, Payload("ECHO", value=5),
                                 path=(crux_tag(3), "gc1")))
        assert sorted(oper.children) == [crux_tag(1), crux_tag(3), "fin"]
        del oper
        assert gc.collect() == 0   # refcounting freed the whole tree
    finally:
        gc.enable()


def run_oper_net(proposals, faulty=frozenset(), gst=0, seed=0,
                 adversary=None, delta=10, collect_rows=False):
    n = 4
    config = SimConfig(n=n, t=1, faulty=frozenset(faulty), delta=delta,
                       gst=gst, seed=seed, proposals=proposals)
    adversary = adversary or AdversarySpec()
    trace = run(config, adversary,
                lambda pid: make_oper(n, 1, delta, pid),
                max_time=gst + 20 * oper_params(config).delta_total,
                collect_rows=collect_rows)
    return config, trace


def test_unanimous_decides_in_first_view():
    config, trace = run_oper_net({p: 7 for p in range(4)})
    p = oper_params(config)
    for pid in config.correct:
        value, time = trace.decisions[pid]
        assert value == 7
        assert time <= p.delta_total + 2 * config.delta
        assert [v for (_, q, v) in trace.enters if q == pid] == [1]
    assert trace.terminated


def test_mixed_proposals_reach_agreement():
    config, trace = run_oper_net({0: 1, 1: 2, 2: 3, 3: 4})
    values = {trace.decisions[pid][0] for pid in config.correct}
    assert len(values) == 1
    assert values <= {1, 2, 3, 4}


def test_silent_fault_tolerated():
    config, trace = run_oper_net({p: 7 for p in range(4)}, faulty={3})
    assert all(pid in trace.decisions for pid in config.correct)
    assert {trace.decisions[pid][0] for pid in config.correct} == {7}


def test_start_view_broadcast_budget():
    config, trace = run_oper_net(
        {p: p + 1 for p in range(4)}, faulty={3}, gst=300, seed=11,
        adversary=AdversarySpec(pre_gst_delay=("max",),
                                strategies={3: ("equivocate",)}))
    assert all(pid in trace.decisions for pid in config.correct)
    for (pid, view), count in trace.sv_counts.items():
        assert count <= 2, f"process {pid} view {view}: {count} broadcasts"


def test_view_messages_buffered_until_proposal():
    oper = Oper(4, 1, 10, pid=0)
    msg = MessageArrival(1, Payload("ECHO", value=5), path=(crux_tag(1), "gc1"))
    oper.step(msg)
    assert crux_tag(1) in oper.pending
    assert crux_tag(1) not in oper.children
    oper.step(Request("propose", (5,)))
    assert crux_tag(1) in oper.children
    assert crux_tag(1) not in oper.pending


class ViewRecorder(Automaton):
    """Stands in for a per-view core: records the events it steps and
    answers each with one broadcast on its own path."""

    def __init__(self):
        super().__init__()
        self.events = []

    def on_event(self, event):
        self.events.append(event)
        return [Broadcast(Payload("ECHO", value=len(self.events)), self.path)]


def recorded_views(monkeypatch, recorder=ViewRecorder):
    """Makes Oper spawn `recorder`s; returns them in spawn order."""
    views = []

    def fake_crux(params, pid, default, pred=None):
        views.append(recorder())
        return views[-1]
    monkeypatch.setattr(operlab.oper, "make_crux", fake_crux)
    return views


def view_msg(sender, view, value=5):
    return MessageArrival(sender, Payload("ECHO", value=value),
                          path=(crux_tag(view),))


def test_view_buffering_and_spawn_replay(monkeypatch):
    views = recorded_views(monkeypatch)
    oper = Oper(4, 1, 10, pid=0)
    msgs = [view_msg(1, 1, value=5), view_msg(2, 1, value=6)]
    for m in msgs:
        assert oper.step(m) == []
    oper.step(Request("propose", (5,)))
    (view,) = views
    # replayed in arrival order, before the event that spawned the view
    assert view.events == msgs + [Request("propose", (5,))]


def test_view_buffer_cap_drops_oldest(monkeypatch):
    views = recorded_views(monkeypatch)
    oper = Oper(4, 1, 10, pid=0)
    msgs = [view_msg(1, 2, value=v) for v in range(BUFFER_CAP + 1)]
    for m in msgs:
        oper.step(m)
    for v in range(BUFFER_CAP):   # the cap is per view tag
        oper.step(view_msg(1, 3, value=v))
    assert oper.buffer_dropped == 1
    oper.step(Request("propose", (5,)))
    assert views[1].path == (crux_tag(2),)
    assert views[1].events == msgs[1:]
    assert len(views[2].events) == BUFFER_CAP


def test_view_spawned_on_first_message_after_proposal(monkeypatch):
    views = recorded_views(monkeypatch)
    oper = Oper(4, 1, 10, pid=0)
    oper.step(Request("propose", (5,)))
    m = view_msg(1, 4)
    oper.step(m)
    assert views[-1].path == (crux_tag(4),) and views[-1].events == [m]
    assert not oper.pending and oper.misrouted == 0


def test_buffered_views_spawn_in_view_order_and_replay_in_arrival_order(
        monkeypatch):
    views = recorded_views(monkeypatch)
    oper = Oper(4, 1, 10, pid=0)
    msgs = [view_msg(sender, v, value=sender)
            for sender, v in ((1, 2), (2, 1), (3, 2), (1, 3))]
    for m in msgs:
        assert oper.step(m) == []
    assert views == []
    out = oper.step(Request("propose", (5,)))
    assert [v.path for v in views] == [(crux_tag(1),), (crux_tag(2),),
                                       (crux_tag(3),)]
    assert [oper.children[crux_tag(v)] for v in (1, 2, 3)] == views
    assert views[0].events == [msgs[1], Request("propose", (5,))]
    assert views[1].events == [msgs[0], msgs[2]]
    assert views[2].events == [msgs[3]]
    assert not oper.pending
    # the proposal's output: entering view 1, then each view's answers in
    # spawn order, each view's in the order it stepped its events
    assert out[0] == Indicate("enter-view", (1,))
    assert [(a.path[0], a.payload.value) for a in out[1:]] == [
        (crux_tag(1), 1), (crux_tag(1), 2), (crux_tag(2), 1),
        (crux_tag(2), 2), (crux_tag(3), 1)]


class ValidatingView(ViewRecorder):
    """A ViewRecorder that, as view 1, validates 9 before answering its
    first event."""

    def on_event(self, event):
        out = super().on_event(event)
        if self.path == (crux_tag(1),) and len(self.events) == 1:
            return [Indicate("validate", (9,))] + out
        return out


def test_a_view_change_while_proposing_leaves_the_buffered_views_last(
        monkeypatch):
    views = recorded_views(monkeypatch, ValidatingView)
    oper = Oper(4, 1, 10, pid=0)
    for sender in (1, 2, 3):   # a 2t+1 START-VIEW quorum for view 2
        oper.step(MessageArrival(sender, Payload("START-VIEW", view=2)))
    for v in (1, 3):
        oper.step(view_msg(1, v))
    out = oper.step(Request("propose", (5,)))
    # view 1's replay validates 9, which moves this process to view 2 in
    # the middle of view 1's output; view 3 still comes after all of it
    assert oper.core.view == 2 and views[1].events == [
        Request("propose", (9,))]
    assert [a if type(a) is Indicate else a.path[0] for a in out] == [
        Indicate("enter-view", (1,)), Indicate("enter-view", (2,)),
        crux_tag(2), crux_tag(1), crux_tag(3)]


def test_decision_halts_the_process():
    config, trace = run_oper_net({p: 7 for p in range(4)}, collect_rows=True)
    halted = set()
    for (_, pid, kind, _, _, _) in trace.rows:
        if kind == "halt":
            halted.add(pid)
        elif kind in ("send", "broadcast"):
            assert pid not in halted, f"process {pid} sent after its halt"
    assert halted == set(config.correct)
    # decision indications recorded exactly once per process
    decides = [row[1] for row in trace.rows if row[2] == "indicate:decide"]
    assert sorted(decides) == config.correct


def test_a_view_change_abandons_every_instance_of_the_old_view():
    delta_total = oper_params(SimConfig(n=4, t=1)).delta_total
    config = SimConfig(n=4, t=1, faulty=frozenset({3}), gst=2 * delta_total,
                       seed=53, proposals={0: 1, 1: 2, 2: 3, 3: 4})
    opers = {}

    def factory(pid):
        opers[pid] = make_oper(4, 1, config.delta, pid)
        return opers[pid]
    adversary = AdversarySpec(drift=("uniform",),
                              strategies={3: ("equivocate",)})
    trace = run(config, adversary, factory,
                max_time=config.gst + 20 * delta_total)
    for pid in config.correct:
        assert [v for (_, q, v) in trace.enters if q == pid] == [1, 2]
        oper = opers[pid]
        old = oper.children[crux_tag(1)]
        assert all(silent(a, pokes(a))
                   for a in automata(old) + composites(old))
        # the view loop's own automata still count what reaches them. The
        # finisher counts a sender's first FINISH only, and process 1 has
        # counted one from each of the run's ids 0-3, so its probe comes
        # from id 4, outside the run on purpose: a Tally counts any id >= 0
        live = ((oper.core, 0, Payload("START-VIEW", view=9)),
                (oper.children["fin"], 4, Payload("FINISH", value=9)))
        assert not any(silent(a, [MessageArrival(s, p, a.path)])
                       for a, s, p in live)


def test_determinism_same_seed_same_trace():
    _, a = run_oper_net({0: 1, 1: 2, 2: 3, 3: 4}, faulty={3}, gst=100, seed=5,
                        adversary=AdversarySpec(
                            strategies={3: ("random",)}, drift=("uniform",)))
    _, b = run_oper_net({0: 1, 1: 2, 2: 3, 3: 4}, faulty={3}, gst=100, seed=5,
                        adversary=AdversarySpec(
                            strategies={3: ("random",)}, drift=("uniform",)))
    assert a.decisions == b.decisions
    assert a.enters == b.enters
    assert a.pbit == b.pbit
