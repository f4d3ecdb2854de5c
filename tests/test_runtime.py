import pytest

from operlab.core import Payload
from operlab.runtime import (BUFFER_CAP, Automaton, Broadcast, CancelTimer,
                             Composite, Halt, Indicate, MessageArrival,
                             Request, Send, SetTimer, TimerFired, ToChild)


class Echoer(Automaton):
    """Re-broadcasts everything it receives and reports the sender."""

    def on_event(self, event):
        if isinstance(event, MessageArrival):
            return [Broadcast(event.payload),
                    Indicate("saw", (event.sender,))]
        if isinstance(event, Request) and event.name == "halt":
            return [Halt()]
        return []


class Recorder(Automaton):
    def __init__(self):
        super().__init__()
        self.events = []

    def on_event(self, event):
        self.events.append(event)
        if isinstance(event, Request) and event.name == "kick":
            return [ToChild("a", MessageArrival(9, Payload("INIT", value=1)))]
        return []


def msg(sender=0, value=1, path=()):
    return MessageArrival(sender, Payload("INIT", value=value), path)


def test_routing_and_prefixing():
    comp = Composite(Recorder(), children={"a": Echoer()})
    out = comp.step(msg(3, path=("a",)))
    assert out[0] == Broadcast(Payload("INIT", value=1), ("a",))
    # child indication surfaced to core as a tag-prefixed request
    assert comp.core.events[-1] == Request("saw", ("a", 3))


def test_to_child_action():
    comp = Composite(Recorder(), children={"a": Echoer()})
    out = comp.step(Request("kick"))
    assert Broadcast(Payload("INIT", value=1), ("a",)) in out


def test_unknown_tag_counts_misrouted():
    comp = Composite(Recorder(), children={})
    assert comp.step(msg(path=("ghost",))) == []
    assert comp.misrouted == 1


def test_buffering_and_spawn_replay():
    comp = Composite(Recorder(), buffer_tags=lambda tag: tag == "late")
    comp.step(msg(1, value=5, path=("late",)))
    comp.step(msg(2, value=6, path=("late",)))
    out = comp.spawn("late", Echoer())
    values = [a.payload.value for a in out if isinstance(a, Broadcast)]
    assert values == [5, 6]   # replayed in arrival order


def test_buffer_cap_drops_oldest():
    comp = Composite(Recorder(), buffer_tags=lambda tag: True)
    for v in range(1, BUFFER_CAP + 2):
        comp.step(msg(0, value=v, path=("x",)))
    assert comp.buffer_dropped == 1
    out = comp.spawn("x", Echoer())
    values = [a.payload.value for a in out if isinstance(a, Broadcast)]
    assert values == list(range(2, BUFFER_CAP + 2))


def test_duplicate_spawn_rejected():
    comp = Composite(Recorder(), children={"a": Echoer()})
    with pytest.raises(ValueError):
        comp.spawn("a", Echoer())


def test_factory_spawns_on_first_message():
    spawned = []

    def factory(tag):
        spawned.append(tag)
        return Echoer()

    comp = Composite(Recorder(), factory=factory)
    out = comp.step(msg(path=("fresh",)))
    assert spawned == ["fresh"]
    assert any(isinstance(a, Broadcast) for a in out)


def test_halt_is_absorbing():
    auto = Echoer()
    auto.step(Request("halt"))
    assert auto.halted
    assert auto.step(msg()) == []


class HaltMidStep(Automaton):
    """Emits a send, then halts, then tries to send again in the same step."""

    def on_event(self, event):
        return [Broadcast(Payload("INIT", value=1)), Halt(),
                Broadcast(Payload("INIT", value=2)), Indicate("late")]


def test_actions_after_halt_in_one_step_are_dropped():
    leaf = HaltMidStep()
    assert leaf.step(Request("go")) == [Broadcast(Payload("INIT", value=1)),
                                        Halt()]
    assert leaf.halted
    comp = Composite(HaltMidStep())
    assert comp.step(Request("go")) == [Broadcast(Payload("INIT", value=1)),
                                        Halt()]
    assert comp.halted


def test_composite_halts_with_core():
    class HaltingCore(Recorder):
        def on_event(self, event):
            super().on_event(event)
            if isinstance(event, Request) and event.name == "stop":
                return [Halt()]
            return []

    comp = Composite(HaltingCore(), children={"a": Echoer()})
    assert Halt() in comp.step(Request("stop"))
    assert comp.step(msg(path=("a",))) == []


def test_child_timers_get_tag_prefix():
    class TimerChild(Automaton):
        def on_event(self, event):
            if isinstance(event, Request):
                timer, _ = self.new_timer(5)
                return [timer]
            if isinstance(event, TimerFired):
                return [Indicate("fired", event.timer_id)]
            return []

    comp = Composite(Recorder(), children={"tc": TimerChild()})
    out = comp.step(Request("go"))
    # core requests are seen by the core, not children; drive child directly
    out = comp._step_child("tc", Request("go"))
    (timer,) = [a for a in out if isinstance(a, SetTimer)]
    assert timer.timer_id[0] == "tc"
    comp.step(TimerFired(timer.timer_id))
    assert comp.core.events[-1] == Request("fired", ("tc", 1))


def test_new_timer_ids_are_unique():
    auto = Echoer()
    t1, id1 = auto.new_timer(3)
    t2, id2 = auto.new_timer(3)
    assert id1 != id2
    assert t1.duration == 3
    assert CancelTimer(id1) != CancelTimer(id2)


def test_send_path_prefixing():
    class Sender(Automaton):
        def on_event(self, event):
            return [Send(2, Payload("INIT", value=4), ("deep",))]

    comp = Composite(Recorder(), children={"s": Sender()})
    out = comp._step_child("s", Request("go"))
    assert out == [Send(2, Payload("INIT", value=4), ("s", "deep"))]
