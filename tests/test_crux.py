from operlab.core import BOT, ValidityPredicate
from operlab.crux import CruxCore, CruxParams, est_rule, make_crux
from operlab.runtime import Indicate, Request, TimerFired, ToChild
from operlab.simnet import AdversarySpec, SimConfig, run
from test_runtime import automata, composites, pokes, silent


def params(n=4, t=1, delta=10):
    return CruxParams(n=n, t=t, delta=delta)


def test_timing_parameters():
    p = params()
    assert p.delta1 == 70 and p.delta2 == 70
    assert p.delta_sync == 30
    assert p.R == 18
    assert p.B == 30 * 40
    assert p.bit_cap == 2 * p.B
    assert p.delta_total == (20 + 70) + 18 * 30 + (20 + 70) == 720


def test_estimate_rule():
    always = ValidityPredicate.always_true()
    assert est_rule(1, 5, 1, 9, always) == 5       # strong first grade wins
    assert est_rule(1, 5, 0, 9, always) == 9       # valid agreed value next
    assert est_rule(1, 5, 0, BOT, always) == 1     # else keep own
    member = ValidityPredicate.membership([1, 2])
    assert est_rule(1, 5, 0, 9, member) == 1       # invalid agreed value skipped


def run_crux(proposals, faulty=frozenset(), delta=10):
    n = 4
    config = SimConfig(n=n, t=1, faulty=frozenset(faulty), delta=delta,
                       proposals=proposals)

    def factory(pid):
        return make_crux(params(delta=delta), pid,
                         default=proposals.get(pid, 0))

    trace = run(config, AdversarySpec(), factory,
                max_time=10 * params(delta=delta).delta_total,
                collect_rows=True)
    return config, trace


def completions(trace):
    return {row[1] for row in trace.rows if row[2] == "indicate:completed"}


def test_unanimous_decides_within_deadline():
    config, trace = run_crux({p: 7 for p in range(4)})
    p = params()
    for pid in config.correct:
        value, time = trace.decisions[pid]
        assert value == 7
        assert time <= p.delta_total + 2 * config.delta
    assert completions(trace) == set(config.correct)


def test_mixed_proposals_agree():
    config, trace = run_crux({0: 1, 1: 2, 2: 3, 3: 4})
    values = {trace.decisions[pid][0] for pid in config.correct
              if pid in trace.decisions}
    assert len(values) <= 1
    if values:
        assert values <= {1, 2, 3, 4}
    assert completions(trace) == set(config.correct)


def test_silent_fault_still_completes():
    config, trace = run_crux({p: 7 for p in range(4)}, faulty={3})
    assert completions(trace) >= set(config.correct)
    values = {trace.decisions[pid][0] for pid in config.correct
              if pid in trace.decisions}
    assert values <= {7}


def test_an_abandoned_core_relays_no_validation():
    core = CruxCore(params(), ValidityPredicate.always_true())
    core.step(Request("abandon"))
    assert silent(core, [Request("validate", ("vb", 9))])


def test_completed_suppressed_after_abandon():
    core = CruxCore(params(), ValidityPredicate.always_true())
    core.step(Request("abandon"))
    assert silent(core, [Request("completed", ("vb",))])


def test_decide_requires_strong_second_grade():
    core = CruxCore(params(), ValidityPredicate.always_true())
    core.step(Request("propose", (5,)))
    core.timer2_done = True
    out = core.step(Request("decide", ("gc2", 8, 0)))
    assert not any(isinstance(a, Indicate) and a.name == "decide"
                   for a in out)
    # still broadcasts the weak value
    assert ToChild("vb", Request("broadcast", (8,))) in out


def test_abandon_reaches_every_instance_of_the_view():
    comp = make_crux(params(), pid=0, default=0)
    comp.step(Request("propose", (5,)))
    assert comp.step(Request("abandon")) == []
    assert len(composites(comp)) > 1   # nested composites, too
    assert all(silent(a, pokes(a)) for a in automata(comp) + composites(comp))


def test_abandoned_adapter_ignores_its_pending_round_timer():
    comp = make_crux(CruxParams(4, 1, 10), 0, 0)
    comp.attach(("crux@1",))
    comp.step(Request("propose", (5,)))
    comp.step(Request("decide", ("gc1", 5, 1)))
    comp.step(TimerFired(("crux@1", 1)))      # gc1 timer: the sync phase starts
    assert comp.step(Request("abandon")) == []
    # the round timer still fires; the abandoned composite ignores it
    assert comp.step(TimerFired(("crux@1", "as", 1))) == []
    assert comp.children["as"].round == 0


def test_abandoned_core_ignores_its_gc_timer():
    comp = make_crux(CruxParams(4, 1, 10), 0, 0)
    comp.attach(("crux@1",))
    comp.step(Request("propose", (5,)))
    comp.step(Request("decide", ("gc1", 5, 1)))
    comp.step(Request("abandon"))
    assert comp.step(TimerFired(("crux@1", 1))) == []   # the gc1 timer
    assert not comp.core.timer1_done and comp.children["as"].machine is None
