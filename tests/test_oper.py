from operlab.core import Payload
from operlab.oper import Oper, crux_tag, _tag_view, make_oper
from operlab.runtime import Halt, MessageArrival, Request
from operlab.simnet import AdversarySpec, SimConfig, run
from operlab.harness import oper_params


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
        assert trace.views_entered(pid) == [1]
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
    decides = [(pid, args) for (_, pid, name, args) in trace.indications
               if name == "decide"]
    assert sorted(pid for pid, _ in decides) == config.correct


def test_halted_oper_ignores_start_view_quorum():
    oper = Oper(4, 1, 10, pid=0)
    oper.step(Request("propose", (5,)))
    out = []
    for sender in (1, 2, 3):
        out += oper.step(MessageArrival(sender, Payload("FINISH", value=5),
                                        path=("fin",)))
    assert oper.halted and out[-1] == Halt()
    # a live process would amplify and broadcast START-VIEW(2) here
    for sender in (1, 2, 3):
        assert oper.step(MessageArrival(
            sender, Payload("START-VIEW", view=2))) == []


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
