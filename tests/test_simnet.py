import random

import pytest
from hypothesis import given, strategies as st

from operlab.core import Payload
from operlab.harness import oper_params
from operlab.oper import make_oper
from operlab.runtime import (Automaton, Broadcast, Composite, Halt, Indicate,
                             MessageArrival, Request, Send, SetTimer, ToChild,
                             TimerFired)
from operlab.simnet import (AdversarySpec, CSV_HEADER, SPEC_ARGS, STRATEGIES,
                            SimConfig, csv_row, draw, latency, make_strategy,
                            run, schedule_deliveries, schedule_timer,
                            trace_lines)


# -- envelope schedules ------------------------------------------------------


@given(st.integers(0, 1000), st.integers(0, 1000), st.integers(1, 50),
       st.integers(0, 10_000))
def test_delivery_always_within_envelope(now, gst, delta, seed):
    rng = random.Random(seed)
    for rule in (("uniform",), ("max",), ("exact", 3), ("exact", 10**6)):
        for at in schedule_deliveries(now, gst, delta, rule, rng, 3):
            assert now <= at <= max(now, gst) + delta


@given(st.integers(0, 1000), st.integers(0, 1000), st.integers(1, 50),
       st.integers(0, 10_000))
def test_timer_always_within_envelope(now, gst, d, seed):
    rng = random.Random(seed)
    for rule in (("none",), ("uniform",), ("max",)):
        at = schedule_timer(now, gst, d, rule, rng)
        if now >= gst:
            assert at == now + d
        else:
            assert now < at <= gst + d


DELAY_RULES = (("uniform",), ("max",), ("exact", 3), ("exact", 10**6))


@given(st.integers(0, 1000), st.integers(0, 1000), st.integers(1, 50),
       st.integers(0, 12), st.integers(0, 10_000))
def test_batched_deliveries_match_sequential_draws(now, gst, delta, k, seed):
    for rule in DELAY_RULES:
        batched, sequential = random.Random(seed), random.Random(seed)
        times = schedule_deliveries(now, gst, delta, rule, batched, k)
        assert times == [
            schedule_deliveries(now, gst, delta, rule, sequential, 1)[0]
            for _ in range(k)]
        assert batched.getstate() == sequential.getstate()


def test_draw_matches_stdlib_randint():
    """Value for value, and rng state afterwards, on every interpreter."""
    widths = [*range(1, 71), 127, 128, 129, 1023, 1024, 1025, 36_011, 2 ** 32]
    for seed in range(3):
        for low in (0, 1, 36_000):
            for width in widths:
                ours, stdlib = random.Random(seed), random.Random(seed)
                k = width.bit_length()
                assert [draw(ours.getrandbits, low, width, k)
                        for _ in range(6)] == \
                    [stdlib.randint(low, low + width - 1) for _ in range(6)]
                assert ours.getstate() == stdlib.getstate()


class Pinger(Automaton):
    """Broadcasts on its proposal, after `extra` actions."""

    def __init__(self, extra):
        super().__init__()
        self.extra = extra

    def on_event(self, event):
        if isinstance(event, Request):
            return self.extra + [Broadcast(Payload("INIT", value=1))]
        return []


def test_send_to_out_of_range_destination_draws_nothing():
    stray = [Send(9, Payload("INIT", value=2)),
             Send(-1, Payload("INIT", value=3))]

    def deliveries(extra):
        trace = run(SimConfig(n=4, t=1, seed=3), AdversarySpec(),
                    lambda pid: Pinger(extra), max_time=100,
                    collect_rows=True)
        return [row for row in trace.rows if row[2] == "deliver"]

    # the stray sends are charged but never delivered, and the broadcasts
    # after them get the same rng draws as without them
    assert deliveries(stray) == deliveries([])
    assert len(deliveries([])) == 16


def test_unknown_rules_rejected():
    rng = random.Random(0)
    with pytest.raises(ValueError):
        schedule_deliveries(0, 0, 10, ("bogus",), rng, 1)
    with pytest.raises(ValueError):
        schedule_timer(0, 10, 10, ("bogus",), rng)


# -- configuration guards ----------------------------------------------------


def test_config_rejects_bad_parameters():
    with pytest.raises(ValueError):
        SimConfig(n=3, t=1)                      # n < 3t+1
    with pytest.raises(ValueError):
        SimConfig(n=4, t=1, faulty=frozenset({0, 1}))
    with pytest.raises(ValueError):
        SimConfig(n=4, t=1, delta=0)
    with pytest.raises(ValueError):
        SimConfig(n=4, t=1, gst=-1)
    with pytest.raises(ValueError):
        SimConfig(n=4, t=1, accounting="bits")
    with pytest.raises(ValueError, match="n must be >= 1"):
        SimConfig(n=0, t=-1)
    with pytest.raises(ValueError, match="t must be >= 0"):
        SimConfig(n=4, t=-1)
    with pytest.raises(ValueError, match="value_width must be >= 1"):
        SimConfig(n=4, t=1, value_width=0)


def test_correct_excludes_faulty():
    config = SimConfig(n=4, t=1, faulty=frozenset({2}))
    assert config.correct == [0, 1, 3]


def test_all_strategy_kinds_construct():
    config = SimConfig(n=4, t=1, faulty=frozenset({3}))
    inner, rng = Automaton(), random.Random(0)
    assert set(STRATEGIES) == set(SPEC_ARGS["strategies"])
    for kind, counts in SPEC_ARGS["strategies"].items():
        for count in counts:   # every argument count a scenario may give
            strategy = make_strategy((kind,) + (5,) * count, inner, config,
                                     rng, lambda: 0)
            assert type(strategy) is STRATEGIES[kind]
            assert strategy.rng is rng and strategy.clock() == 0
    with pytest.raises(ValueError):
        make_strategy(("bogus",), inner, config, rng, lambda: 0)


def test_crash_strategy_drops_output_from_its_time_on():
    config = SimConfig(n=4, t=1, faulty=frozenset({3}))
    script = [Send(1, Payload("INIT", value=1)), Indicate("decide", (1,)),
              SetTimer(5, ("t", 1))]
    now = 0
    crash = make_strategy(("crash", 10), Pinger(script), config,
                          random.Random(0), lambda: now)
    propose = Request("propose", (1,))
    init = Broadcast(Payload("INIT", value=1))   # Pinger's own broadcast
    assert crash.on_event(propose) == script + [init]
    now = 9
    assert crash.on_event(propose) == script + [init]
    now = 10   # sends, broadcasts and indications go; timers stay
    assert crash.on_event(propose) == [SetTimer(5, ("t", 1))]


def test_flood_strategy_is_silent_from_gst_on():
    config = SimConfig(n=4, t=1, faulty=frozenset({3}), gst=100)
    now = 0
    flood = make_strategy(("flood", 7), Pinger([]), config,
                          random.Random(0), lambda: now)
    assert flood.on_event(Request("propose", (1,))) == [
        Broadcast(Payload("INIT", value=1)), SetTimer(7, ("flood",))]
    tick = TimerFired(("flood",))
    now = 99
    assert [type(a) for a in flood.on_event(tick)] == [Broadcast, SetTimer]
    now = 100
    assert flood.on_event(tick) == []


# -- event-loop behavior -----------------------------------------------------


class PingDecider(Automaton):
    """Broadcasts its proposal, decides on the first arrival."""

    def on_event(self, event):
        if isinstance(event, Request) and event.name == "propose":
            return [Broadcast(Payload("INIT", value=event.args[0]))]
        if isinstance(event, MessageArrival):
            return [Indicate("decide", (event.payload.value,))]
        return []


def simple_run(gst=0, seed=0, faulty=frozenset(), strategies=None,
               max_time=500, collect_rows=False):
    config = SimConfig(n=4, t=1, gst=gst, seed=seed,
                       faulty=frozenset(faulty),
                       proposals={p: 7 for p in range(4)})
    adv = AdversarySpec(strategies=strategies or {})
    return config, run(config, adv, lambda pid: PingDecider(),
                       max_time=max_time, collect_rows=collect_rows)


def test_every_correct_process_decides():
    config, trace = simple_run()
    assert set(trace.decisions) == set(range(4))
    assert trace.terminated
    assert float(latency(trace)) <= 1


def test_latency_undefined_without_full_termination():
    config, trace = simple_run(faulty={3}, strategies={3: ("silent",)})
    # silent process never decides but is faulty, so latency is defined
    assert latency(trace) >= 0
    trace.decisions.pop(0)
    with pytest.raises(ValueError):
        latency(trace)


def test_pbit_counts_only_post_gst_traffic():
    config, trace = simple_run(gst=10_000)
    # all sends happen at time 0, before GST: nothing accrues
    assert all(trace.pbit.get(p, 0) == 0 for p in config.correct)
    config, trace = simple_run(gst=0)
    # one 40-bit broadcast to four destinations per process
    assert all(trace.pbit.get(p, 0) == 160 for p in config.correct)


def test_silent_strategy_sends_nothing():
    config, trace = simple_run(faulty={3}, strategies={3: ("silent",)})
    assert trace.pbit.get(3, 0) == 0
    assert set(trace.decisions) >= {0, 1, 2}


def test_determinism_is_bitwise():
    _, a = simple_run(gst=50, seed=9, collect_rows=True)
    _, b = simple_run(gst=50, seed=9, collect_rows=True)
    assert list(trace_lines(a)) == list(trace_lines(b))
    assert csv_row(a) == csv_row(b)


def test_csv_row_shape():
    _, trace = simple_run()
    row = csv_row(trace)
    assert len(row.split(",")) == len(CSV_HEADER.split(","))
    assert row.endswith(",1")   # terminated flag


def test_timeout_marks_non_terminated():
    config = SimConfig(n=4, t=1, gst=100, proposals={p: 7 for p in range(4)})
    trace = run(config, AdversarySpec(pre_gst_delay=("max",)),
                lambda pid: PingDecider(), max_time=5)
    assert not trace.terminated


class Mute(Automaton):
    def on_event(self, event):
        return []


def test_drained_queue_without_decisions_is_not_terminated():
    # the queue empties long before max_time, yet nobody decided
    config = SimConfig(n=4, t=1, proposals={p: 7 for p in range(4)})
    trace = run(config, AdversarySpec(), lambda pid: Mute(), max_time=10_000)
    assert not trace.decisions
    assert not trace.terminated
    assert csv_row(trace).endswith(",0")


def test_flood_timer_is_not_routed_into_the_wrapped_oper():
    config = SimConfig(n=7, t=2, faulty=frozenset({5, 6}), gst=2000,
                       proposals={p: 1 for p in range(7)})
    adversary = AdversarySpec(strategies={5: ("flood", 10), 6: ("flood", 10)})
    opers = {}

    def factory(pid):
        opers[pid] = make_oper(7, 2, config.delta, pid)
        return opers[pid]
    trace = run(config, adversary, factory,
                max_time=config.gst + 20 * oper_params(config).delta_total)
    assert trace.terminated
    assert all(opers[pid].misrouted == 0 for pid in range(7))


# -- halt ----------------------------------------------------------------------


INIT1, INIT2 = Payload("INIT", value=1), Payload("INIT", value=2)


class Scripted(Automaton):
    """Answers its proposal with `script`, and counts its steps."""

    def __init__(self, script):
        super().__init__()
        self.script = script
        self.steps = 0

    def on_event(self, event):
        self.steps += 1
        if isinstance(event, Request) and event.name == "propose":
            return self.script
        return []


def scripted_run(scripts, faulty=frozenset(), strategies=None,
                 max_time=1000):
    """An n=4 run in which process p runs root `scripts[p]`, if given, and
    otherwise broadcasts INIT(1) once; returns the trace and the roots."""
    autos = {}

    def factory(pid):
        autos[pid] = scripts.get(pid) or Scripted([Broadcast(INIT1)])
        return autos[pid]
    config = SimConfig(n=4, t=1, faulty=frozenset(faulty), seed=2)
    trace = run(config, AdversarySpec(strategies=strategies or {}), factory,
                max_time=max_time, collect_rows=True)
    return trace, autos


def kinds(trace, pid):
    return [row[2] for row in trace.rows if row[1] == pid]


def test_actions_after_a_halt_are_dropped():
    trace, _ = scripted_run({0: Scripted([Broadcast(INIT1), Halt(),
                                          Broadcast(INIT2),
                                          Indicate("late")])})
    assert kinds(trace, 0)[:2] == ["broadcast", "halt"]
    assert "indicate:late" not in kinds(trace, 0)
    assert kinds(trace, 0).count("broadcast") == 1
    assert trace.pbit[0] == trace.pbit[1] == 160   # one 40-bit broadcast
    assert [k for k in kinds(trace, 0) if k.startswith("indicate:")] == []


def test_a_halted_process_is_never_stepped_again():
    trace, autos = scripted_run({0: Scripted([SetTimer(5, ("t", 1)), Halt(),
                                              SetTimer(7, ("t", 2))])})
    # its later deliveries and its timer get rows but reach no step
    assert sorted(kinds(trace, 0)) == ["deliver"] * 3 + ["halt",
                                                         "timer-fire"]
    assert ("t", 2) not in [row[3] for row in trace.rows]
    assert autos[0].steps == 1
    assert all(autos[p].steps == 4 for p in (1, 2, 3))   # propose + 3


class StopOnRequest(Automaton):
    """Core: passes its proposal on to child "a" and halts on "stop";
    records its events."""

    def __init__(self):
        super().__init__()
        self.events = []

    def on_event(self, event):
        self.events.append(event)
        if isinstance(event, Request) and event.name == "propose":
            return [ToChild("a", Request("go"))]
        if isinstance(event, Request) and event.name == "stop":
            return [Halt()]
        return []


class StopThenSend(Automaton):
    """Asks its parent's core to stop, then broadcasts, in one step."""

    def on_event(self, event):
        return [Indicate("stop"), Broadcast(INIT1, self.path)]


def test_core_halting_on_a_child_indication_drops_the_child_output():
    root = Composite(StopOnRequest(), children={"a": StopThenSend()})
    trace, _ = scripted_run({0: root})
    assert kinds(trace, 0) == ["halt"] + ["deliver"] * 3
    assert 0 not in trace.pbit
    assert root.core.events == [Request("propose", (0,)),
                                Request("stop", ("a",))]


class Ticker(Automaton):
    """Re-arms its timer on every event, for ever."""

    def on_event(self, event):
        return [SetTimer(10, ("tick",))]


def test_loop_ends_once_every_correct_process_has_halted():
    halts = {p: Scripted([Broadcast(INIT1), SetTimer(5, ("t", 1)), Halt()])
             for p in range(3)}
    trace, _ = scripted_run({**halts, 3: Ticker()}, faulty={3},
                            strategies={3: ("delayer",)}, max_time=10_000)
    # the faulty ticker would run to max_time; the loop ends with the halts
    assert max(row[0] for row in trace.rows) == 0
    assert not {"deliver", "timer-fire"} & {row[2] for row in trace.rows}


def test_a_faulty_process_stops_at_its_halt_too():
    inner = Scripted([Broadcast(INIT1), Halt(), Broadcast(INIT2)])
    trace, _ = scripted_run({3: inner}, faulty={3},
                            strategies={3: ("equivocate",)})
    # its broadcast split into four sends; nothing after the halt
    assert kinds(trace, 3)[:5] == ["send"] * 4 + ["halt"]
    assert set(kinds(trace, 3)[5:]) == {"deliver"}
    assert inner.steps == 1
