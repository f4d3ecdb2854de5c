import random

import pytest
from hypothesis import given, strategies as st

from operlab.core import Payload
from operlab.harness import oper_params
from operlab.oper import make_oper
from operlab.runtime import (Automaton, Broadcast, Composite, Halt, Indicate,
                             MessageArrival, Multicast, Request, SetTimer,
                             ToChild, TimerFired)
from operlab.simnet import (AdversarySpec, CSV_HEADER, DELAYS, DRIFTS,
                            STRATEGIES, SimConfig, csv_row, draw, latency,
                            make_strategy, run, trace_lines)


# -- envelope schedules ------------------------------------------------------


DELAY_RULES = (("uniform",), ("max",), ("exact", 3), ("exact", 10**6))


def window(rule, now, gst, delta):
    """The (low, width) window of delay `rule` for a step at `now`, built
    from its table and applied as `run` applies it."""
    kind, *args = rule
    return DELAYS[kind][1](*args)(now, max(now, gst) + delta)


@given(st.integers(0, 1000), st.integers(0, 1000), st.integers(1, 50))
def test_delivery_always_within_envelope(now, gst, delta):
    """Every tick of the window lies in the envelope. The ticks that copies
    take in `run` are checked by the batched-deliveries test below."""
    assert {rule[0] for rule in DELAY_RULES} == set(DELAYS)
    for rule in DELAY_RULES:
        low, width = window(rule, now, gst, delta)
        assert width >= 1
        assert now <= low and low + width - 1 <= max(now, gst) + delta


@given(st.integers(0, 1000), st.integers(0, 1000), st.integers(1, 50),
       st.integers(0, 10_000))
def test_timer_always_within_envelope(now, gst, d, seed):
    """The table's rule, called as `run` calls it before gst, and the tick
    at which a timer set at `now` fires in a run."""
    for kind in DRIFTS:
        if now < gst:
            fire = DRIFTS[kind][1](random.Random(seed).getrandbits)
            assert now < fire(now, d, gst + d) <= gst + d
        config = SimConfig(n=1, t=0, gst=gst, seed=seed, propose_at={0: now})
        trace = run(config, AdversarySpec(drift=(kind,)),
                    lambda pid: Scripted([SetTimer(d, ("t",))]),
                    max_time=10**6, collect_rows=True)
        [at] = [row[0] for row in trace.rows if row[2] == "timer-fire"]
        if now >= gst:
            assert at == now + d
        else:
            assert now < at <= gst + d


class Tagged(Automaton):
    """Broadcasts INIT(1) on the path ("from", pid) on its proposal."""

    def __init__(self, pid):
        super().__init__()
        self.pid = pid

    def on_event(self, event):
        if isinstance(event, Request):
            return [Broadcast(INIT1, ("from", self.pid))]
        return []


@given(st.integers(0, 1000), st.integers(0, 1000), st.integers(1, 50),
       st.integers(4, 7), st.integers(0, 10_000))
def test_batched_deliveries_match_sequential_draws(now, gst, delta, n, seed):
    """Every process broadcasts in one step at `now`; process 1 is a delayer,
    whose copies take the fixed "max" tick and draw nothing."""
    for rule in DELAY_RULES:
        config = SimConfig(n=n, t=1, faulty=frozenset({1}), gst=gst,
                           delta=delta, seed=seed,
                           propose_at=dict.fromkeys(range(n), now))
        adversary = AdversarySpec(pre_gst_delay=rule,
                                  strategies={1: ("delayer",)})
        trace = run(config, adversary, Tagged, max_time=10**6,
                    collect_rows=True)
        ticks = {(row[3][1], row[1]): row[0] for row in trace.rows
                 if row[2] == "deliver"}
        # every copy is delivered, inside the envelope
        assert len(ticks) == n * n
        assert all(now <= at <= max(now, gst) + delta
                   for at in ticks.values())
        # each sender's n copies, senders in step order, take the values
        # of n sequential randint calls (or the fixed tick, without a draw)
        stdlib = random.Random(seed)
        for sender in range(n):
            low, width = window(("max",) if sender == 1 else rule,
                                now, gst, delta)
            assert [ticks[sender, dest] for dest in range(n)] == [
                low if width == 1 else stdlib.randint(low, low + width - 1)
                for dest in range(n)]


def test_draw_matches_stdlib_randint():
    """Value for value, and rng state afterwards, on every interpreter."""
    widths = [*range(1, 71), 127, 128, 129, 1023, 1024, 1025, 36_011, 2 ** 32]
    for seed in range(3):
        for low in (0, 1, 36_000):
            for width in widths:
                ours, stdlib = random.Random(seed), random.Random(seed)
                assert [draw(ours.getrandbits, low, width)
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
    stray = [Multicast((9,), Payload("INIT", value=2)),
             Multicast((-1,), Payload("INIT", value=3))]

    def deliveries(extra):
        trace = run(SimConfig(n=4, t=1, seed=3), AdversarySpec(),
                    lambda pid: Pinger(extra), max_time=100,
                    collect_rows=True)
        return [row for row in trace.rows if row[2] == "deliver"]

    # the stray sends are charged but never delivered, and the broadcasts
    # after them get the same rng draws as without them
    assert deliveries(stray) == deliveries([])
    assert len(deliveries([])) == 16


ECHO2 = Payload("ECHO", value=2)
# a multicast to four processes, one of them out of range, and its sends:
# one single-destination multicast per copy
MULTICAST = [Multicast((2, 0, 9, 1), ECHO2)]
SENDS = [Multicast((dest,), ECHO2) for dest in (2, 0, 9, 1)]


def test_a_multicast_runs_as_its_sends():
    def traced(extra):
        # a uniform delay: every copy draws its tick, after gst so that
        # pbit counts; the broadcasts after it draw from the same rng
        trace = run(SimConfig(n=4, t=1, seed=5), AdversarySpec(),
                    lambda pid: Pinger(extra if pid == 0 else []),
                    max_time=100, collect_rows=True)
        return trace.rows, trace.pbit

    rows, pbit = traced(MULTICAST)
    assert (rows, pbit) == traced(SENDS)
    # four send rows, four copies charged; destination 9 gets nothing
    assert [r[1:] for r in rows if r[2] == "send"] == \
        [(0, "send", (), "ECHO", 40)] * 4
    assert pbit[0] == 4 * 40 + 4 * 40
    echoes = sorted(r[1] for r in rows
                    if r[2] == "deliver" and r[4] == "ECHO")
    assert echoes == [0, 1, 2]
    assert len({r[0] for r in rows if r[2] == "deliver"}) > 1  # ticks drawn


def test_random_strategy_rolls_a_multicast_as_its_sends():
    config = SimConfig(n=4, t=1, faulty=frozenset({3}))

    def rewrite(script):
        strategy = make_strategy(("random",), Pinger(script), config,
                                 random.Random(62), lambda: 0)
        out = strategy.on_event(Request("propose", (1,)))
        return out, strategy.rng.getstate()

    out, state = rewrite(MULTICAST)
    assert (out, state) == rewrite(SENDS)
    # at this seed the rolls drop the copy to 0, duplicate those to 2 and
    # 9 and mutate the one to 1
    sent = [(a.dests, a.payload.value) for a in out
            if isinstance(a, Multicast)]
    assert all(len(dests) == 1 for dests, _ in sent)
    sent = [(dests[0], value) for dests, value in sent]
    assert [dest for dest, _ in sent] == [2, 2, 9, 9, 1]
    assert sent[-1][1] != 2 and all(value == 2 for _, value in sent[:-1])


def test_sync_junk_strategy_adds_three_multicasts_after_each_sync_round():
    config = SimConfig(n=4, t=1, faulty=frozenset({3}), value_width=8)
    echo = Payload("SYNC-ROUND", parity=1, inner=Payload("ECHO", value=5))
    script = [Multicast((0, 1, 2, 3), echo, ("crux@1", "as")),
              Multicast((2,), Payload("INIT", value=1)), SetTimer(5, ("t",))]
    strategy = make_strategy(("sync-junk",), Pinger(script), config,
                             random.Random(7), lambda: 0)
    out = strategy.on_event(Request("propose", (1,)))
    rng = random.Random(7)
    values = [draw(rng.getrandbits, 0, 256) for _ in range(3)]
    # the honest actions pass as they are, each junk copy right after its
    # SYNC-ROUND multicast: same destinations, path, parity and inner kind
    assert out == script[:1] + [
        Multicast((0, 1, 2, 3), Payload("SYNC-ROUND", parity=1,
                                        inner=Payload("ECHO", value=v)),
                  ("crux@1", "as")) for v in values] \
        + script[1:] + [Broadcast(Payload("INIT", value=1))]
    assert strategy.rng.getstate() == rng.getstate()


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
    with pytest.raises(ValueError, match="seed must be >= 0"):
        SimConfig(n=4, t=1, seed=-3)   # random.Random(-3) is Random(3)


@pytest.mark.parametrize("adversary", [
    AdversarySpec(drift=("bogus",)),        # gst 0: no timer reads the drift
    AdversarySpec(pre_gst_delay=("exact",)),
    AdversarySpec(strategies={0: ("silent",)}),   # 0 is correct
    AdversarySpec(strategies={3: ("crash",)}),
    AdversarySpec(strategies={3: ("flood", 0)}),
    AdversarySpec(pre_gst_delay=("max", 1)),
])
def test_run_rejects_a_bad_adversary_before_the_first_event(adversary):
    config = SimConfig(n=4, t=1, faulty=frozenset({3}))
    stepped = []

    def factory(pid):
        stepped.append(pid)
        return Pinger([SetTimer(5, ("t",))])
    with pytest.raises(ValueError):
        run(config, adversary, factory, max_time=100)
    assert stepped == []


def test_correct_excludes_faulty():
    config = SimConfig(n=4, t=1, faulty=frozenset({2}))
    assert config.correct == [0, 1, 3]


def test_all_strategy_kinds_construct():
    config = SimConfig(n=4, t=1, faulty=frozenset({3}))
    inner, rng = Automaton(), random.Random(0)
    for kind, (counts, cls) in STRATEGIES.items():
        for count in counts:   # every argument count a scenario may give
            strategy = make_strategy((kind,) + (5,) * count, inner, config,
                                     rng, lambda: 0)
            assert type(strategy) is cls
            assert strategy.rng is rng and strategy.clock() == 0


def test_crash_strategy_drops_output_from_its_time_on():
    config = SimConfig(n=4, t=1, faulty=frozenset({3}))
    script = [Multicast((1,), Payload("INIT", value=1)),
              Multicast((0, 2), Payload("INIT", value=2)),
              Indicate("decide", (1,)), SetTimer(5, ("t", 1))]
    now = 0
    crash = make_strategy(("crash", 10), Pinger(script), config,
                          random.Random(0), lambda: now)
    propose = Request("propose", (1,))
    init = Broadcast(Payload("INIT", value=1))   # Pinger's own broadcast
    assert crash.on_event(propose) == script + [init]
    now = 9
    assert crash.on_event(propose) == script + [init]
    now = 10   # messages and indications go; timers stay
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


class Held(Automaton):
    """Returns the one list `out` on every event."""

    def __init__(self, out):
        super().__init__()
        self.out = out

    def on_event(self, event):
        return self.out


def no_rewrite(actions):
    pytest.fail(f"rewrite called on {actions!r}")


def test_flood_hands_a_message_straight_to_the_root():
    config = SimConfig(n=4, t=1, faulty=frozenset({3}), gst=100)
    out = [Broadcast(Payload("ECHO", value=4), ("fin",)),
           Indicate("decide", (4,))]
    flood = make_strategy(("flood",), Held(out), config, random.Random(0),
                          lambda: 0)
    flood.rewrite = no_rewrite
    arrival = MessageArrival(1, Payload("FINISH", value=4), ("fin",))
    assert flood.on_event(arrival) is out


def test_flood_passes_timer_and_proposal_output_through_unrewritten():
    config = SimConfig(n=4, t=1, faulty=frozenset({3}), gst=100)
    out = [Broadcast(Payload("ECHO", value=4), ("fin",)),
           SetTimer(5, ("v1", 1))]
    flood = make_strategy(("flood", 7), Held(out), config, random.Random(0),
                          lambda: 0)
    flood.rewrite = no_rewrite
    assert flood.on_event(TimerFired(("v1", 1))) is out
    assert flood.on_event(Request("propose", (4,))) == [
        *out, SetTimer(7, ("flood",))]


def test_equivocator_output_with_no_broadcast_comes_back_unchanged():
    config = SimConfig(n=4, t=1, faulty=frozenset({3}))
    out = [Multicast((0, 1, 2, 3), Payload("SYNC-ROUND", parity=0,
                                           inner=Payload("INIT", value=2)),
                     ("v1", "as")),
           SetTimer(5, ("v1", "as", 1))]
    equivocate = make_strategy(("equivocate",), Held(out), config,
                               random.Random(0), lambda: 0)
    assert equivocate.on_event(TimerFired(("v1", "as", 0))) == out


def test_equivocator_splits_a_value_broadcast_by_receiver_parity():
    config = SimConfig(n=4, t=1, faulty=frozenset({3}))
    echo = Payload("ECHO", value=3)
    start = Broadcast(Payload("START-VIEW", view=2))   # carries no value
    timer = SetTimer(5, ("v1", 1))
    equivocate = make_strategy(("equivocate",),
                               Held([timer, Broadcast(echo, ("v1",)), start]),
                               config, random.Random(0), lambda: 0)
    four = Payload("ECHO", value=4)
    assert equivocate.on_event(Request("propose", (3,))) == [
        timer, Multicast((0,), echo, ("v1",)), Multicast((1,), four, ("v1",)),
        Multicast((2,), echo, ("v1",)), Multicast((3,), four, ("v1",)),
        start]



def test_strategies_keep_values_in_the_run_width():
    """At value_width 3 the values 0..7: an equivocator's 7 wraps to 0 for
    the odd receivers, and over 200 seeds random's mutated values and
    sync-junk's inner values fill 0..7 and go no further."""
    config = SimConfig(n=4, t=1, faulty=frozenset({3}), value_width=3)
    equivocate = make_strategy(("equivocate",),
                               Held([Broadcast(Payload("ECHO", value=7))]),
                               config, random.Random(0), lambda: 0)
    assert [(a.dests, a.payload.value) for a in equivocate.on_event(
        Request("propose", (7,)))] == [((0,), 7), ((1,), 0), ((2,), 7),
                                       ((3,), 0)]
    init = Multicast((0, 1, 2, 3), Payload("INIT", value=7))
    sync = Multicast((0, 1, 2, 3), Payload("SYNC-ROUND", parity=0,
                                           inner=Payload("ECHO", value=7)))
    mutated, junk = set(), set()
    for seed in range(200):
        out = make_strategy(("random",), Held([init]), config,
                            random.Random(seed), lambda: 0).on_event(
            Request("propose", (7,)))
        mutated |= {a.payload.value for a in out}
        out = make_strategy(("sync-junk",), Held([sync]), config,
                            random.Random(seed), lambda: 0).on_event(
            Request("propose", (7,)))
        assert out[0] is sync and len(out) == 1 + 3
        junk |= {a.payload.inner.value for a in out[1:]}
    assert mutated == junk == set(range(8))

@pytest.mark.parametrize("seed,width", [(0, 32), (1, 32), (2, 5)])
def test_flood_draws_match_stdlib_choice_and_randint(seed, width):
    """1,000 floods: kind, value and path as rng.choice, rng.randint and
    rng.choice would draw them, and the same rng state afterwards."""
    config = SimConfig(n=4, t=1, faulty=frozenset({3}), gst=100,
                       value_width=width)
    rng, stdlib = random.Random(seed), random.Random(seed)
    flood = make_strategy(("flood",), Pinger([]), config, rng, lambda: 0)
    tick = TimerFired(("flood",))
    for _ in range(1000):
        kind = stdlib.choice(("INIT", "ECHO", "ECHO3", "FINISH"))
        value = stdlib.randint(0, 2 ** width - 1)
        path = stdlib.choice(((), ("fin",)))
        assert flood.on_event(tick) == [Broadcast(Payload(kind, value=value),
                                                  path),
                                        SetTimer(10, ("flood",))]
    assert rng.getstate() == stdlib.getstate()


class Repeater(Automaton):
    """Returns the same action object on every event."""

    def __init__(self, action):
        super().__init__()
        self.action = action

    def on_event(self, event):
        return [self.action]


def test_strategies_copy_the_inner_broadcast_and_never_edit_it():
    # the simulator shares one payload among every copy of a broadcast, so
    # a strategy that edited its inner's records would reach every receiver
    config = SimConfig(n=4, t=1, faulty=frozenset({3}))
    payload = Payload("INIT", value=5)
    action = Broadcast(payload, ("a",))
    propose = Request("propose", (5,))

    def rewrite(spec, seed=0):
        strategy = make_strategy(spec, Repeater(action), config,
                                 random.Random(seed), lambda: 0)
        return strategy.on_event(propose)

    sends = rewrite(("equivocate",))
    assert [(s.dests, s.payload.value) for s in sends] == [
        ((0,), 5), ((1,), 6), ((2,), 5), ((3,), 6)]
    assert sends[0].payload is payload and sends[1].payload is not payload
    [mutated] = rewrite(("random",), seed=3)   # its first roll mutates
    assert mutated is not action and mutated.payload is not payload
    assert rewrite(("crash", 0)) == []
    assert action == Broadcast(Payload("INIT", value=5), ("a",))
    assert action.payload is payload


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


class Logger(Automaton):
    """Answers its proposal with `script`; logs (pid, event) per step."""

    def __init__(self, pid, log, script=()):
        super().__init__()
        self.pid, self.log, self.script = pid, log, list(script)

    def on_event(self, event):
        self.log.append((self.pid, event))
        return self.script if isinstance(event, Request) else []


def logged_run(scripts, max_time=1000, **kwargs):
    """An n=4 run of Loggers; returns the log of every step, in order."""
    log = []
    config = SimConfig(n=4, t=1, **kwargs)
    run(config, AdversarySpec(pre_gst_delay=("exact", 0)),
        lambda pid: Logger(pid, log, scripts.get(pid, ())),
        max_time=max_time)
    return log


def propose(v=0):
    return Request("propose", (v,))


def test_processes_are_kicked_off_by_start_tick_then_by_pid():
    log = logged_run({}, propose_at={0: 2, 1: 1, 3: 2})
    assert log == [(2, propose()), (1, propose()), (0, propose()),
                   (3, propose())]


def test_a_copy_delivered_in_its_own_tick_runs_after_that_tick_s_events():
    # process 3 proposes at tick 1; the others at tick 0, where process 0
    # sends a copy that arrives at once
    log = logged_run({0: [Multicast((1,), INIT1)]}, gst=1000,
                     propose_at={3: 1})
    assert log == [(0, propose()), (1, propose()), (2, propose()),
                   (1, MessageArrival(0, INIT1)), (3, propose())]


def test_timers_and_deliveries_on_one_tick_run_in_push_order():
    # gst 0: the timers fire at exactly 5, and ("exact", 0) delivers at once
    log = logged_run({0: [SetTimer(5, ("a",)), Multicast((1,), INIT1)],
                      2: [Multicast((0,), INIT2), SetTimer(0, ("b",))],
                      3: [SetTimer(5, ("c",))]})
    assert log[4:] == [(1, MessageArrival(0, INIT1)),
                       (0, MessageArrival(2, INIT2)),
                       (2, TimerFired(("b",))),
                       (0, TimerFired(("a",))),
                       (3, TimerFired(("c",)))]


def test_an_event_at_max_time_is_stepped_and_one_after_it_is_not():
    log = logged_run({0: [SetTimer(10, ("at",)), SetTimer(11, ("after",))]},
                     max_time=10)
    assert log[4:] == [(0, TimerFired(("at",)))]


def test_the_loop_stops_mid_tick_once_the_last_correct_process_halts():
    # each correct process sends to the faulty process 3 and halts; the
    # copies would arrive at once, in the tick the last halt ends
    log = []
    config = SimConfig(n=4, t=1, faulty=frozenset({3}), gst=1000)
    adversary = AdversarySpec(pre_gst_delay=("exact", 0),
                              strategies={3: ("equivocate",)})
    trace = run(config, adversary,
                lambda pid: Logger(pid, log,
                                   [Multicast((3,), INIT1), Halt()]),
                max_time=1000, collect_rows=True)
    assert log == [(0, propose()), (1, propose()), (2, propose())]
    assert [row[2] for row in trace.rows] == ["send", "halt"] * 3


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
