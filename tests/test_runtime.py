import gc
from collections import deque

import pytest

from operlab.core import Payload, PayloadError, ValidityPredicate
from operlab.crux import CruxParams
from operlab.harness import RunReport
from operlab.runtime import (Automaton, Broadcast, Composite, Halt, Indicate,
                             MessageArrival, Multicast, Request, SetTimer,
                             TimerFired, ToChild)
from operlab.simnet import AdversarySpec, SimConfig, Trace


class Echoer(Automaton):
    """Re-broadcasts everything it receives and reports the sender."""

    def on_event(self, event):
        if isinstance(event, MessageArrival):
            return [Broadcast(event.payload, self.path),
                    Indicate("saw", (event.sender,))]
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


def test_to_child_for_unknown_tag_counts_misrouted():
    comp = Composite(Recorder())
    assert comp.step(Request("kick")) == []
    assert comp.misrouted == 1


class Forwarder(Recorder):
    """Records its events and forwards a "go" request to child `tag`."""

    def __init__(self, tag):
        super().__init__()
        self.tag = tag

    def on_event(self, event):
        super().on_event(event)
        if isinstance(event, Request) and event.name == "go":
            return [ToChild(self.tag, event)]
        return []


def test_child_timers_get_tag_prefix():
    class TimerChild(Automaton):
        def on_event(self, event):
            if isinstance(event, Request):
                timer, _ = self.new_timer(5)
                return [timer]
            if isinstance(event, TimerFired):
                return [Indicate("fired", (event.timer_id,))]
            return []

    comp = Composite(Forwarder("tc"), children={"tc": TimerChild()})
    out = comp.step(Request("go"))
    (timer,) = [a for a in out if isinstance(a, SetTimer)]
    assert timer.timer_id == ("tc", 1)
    comp.step(TimerFired(timer.timer_id))
    assert comp.core.events[-1] == Request("fired", ("tc", ("tc", 1)))


def test_new_timer_ids_are_unique():
    auto = Echoer()
    t1, id1 = auto.new_timer(3)
    t2, id2 = auto.new_timer(3)
    assert id1 != id2
    assert t1.duration == 3


def test_send_path_prefixing():
    class Sender(Automaton):
        def on_event(self, event):
            return [Multicast((2,), Payload("INIT", value=4),
                              self.path + ("deep",))]

    comp = Composite(Forwarder("s"), children={"s": Sender()})
    out = comp.step(Request("go"))
    assert out == [Multicast((2,), Payload("INIT", value=4), ("s", "deep"))]


# -- absolute paths at depth 2 ----------------------------------------------


class Leaf(Recorder):
    """Records its events; on a message: broadcasts it, sends it on a
    deeper path, arms a timer and reports the sender."""

    def on_event(self, event):
        super().on_event(event)
        if isinstance(event, MessageArrival):
            timer, _ = self.new_timer(5)
            return [Broadcast(event.payload, self.path),
                    Multicast((1,), event.payload, self.path + ("x",)),
                    timer,
                    Indicate("saw", (event.sender,))]
        if isinstance(event, TimerFired):
            return [Indicate("fired", (event.timer_id,))]
        return []


class TimedCore(Recorder):
    """Records its events and arms a timer on every message."""

    def on_event(self, event):
        super().on_event(event)
        if isinstance(event, MessageArrival):
            timer, _ = self.new_timer(3)
            return [timer]
        return []


def nested():
    """root -> composite child "mid" -> child "leaf"."""
    leaf = Leaf()
    mid = Composite(TimedCore(), children={"leaf": leaf})
    root = Composite(Recorder(), children={"mid": mid})
    return root, mid, leaf


def test_depth_two_actions_carry_absolute_paths():
    root, mid, leaf = nested()
    out = root.step(msg(3, path=("mid", "leaf")))
    assert root.children == {"mid": mid}
    assert leaf.path == ("mid", "leaf") and mid.core.path == ("mid",)
    assert out == [Broadcast(Payload("INIT", value=1), ("mid", "leaf")),
                   Multicast((1,), Payload("INIT", value=1),
                             ("mid", "leaf", "x")),
                   SetTimer(5, ("mid", "leaf", 1))]
    assert mid.core.events[-1] == Request("saw", ("leaf", 3))


def test_depth_two_timer_returns_its_absolute_id():
    root, mid, leaf = nested()
    root.step(msg(path=("mid", "leaf")))
    root.step(TimerFired(("mid", "leaf", 1)))
    assert leaf.events[-1] == TimerFired(("mid", "leaf", 1))
    assert mid.core.events[-1] == Request("fired",
                                          ("leaf", ("mid", "leaf", 1)))


def test_depth_two_trailing_segments_are_misrouted_at_the_root():
    root, mid, leaf = nested()
    assert root.step(msg(4, path=("mid", "leaf", "extra", "more"))) == []
    assert leaf.events == []
    assert (root.misrouted, mid.misrouted) == (1, 0)


def test_path_ending_at_nested_composite_reaches_its_core():
    root, mid, leaf = nested()
    event = msg(2, path=("mid",))
    out = root.step(event)
    assert mid.core.events == [event] and leaf.events == []
    assert out == [SetTimer(3, ("mid", 1))]
    root.step(TimerFired(("mid", 1)))
    assert mid.core.events[-1] == TimerFired(("mid", 1))


class Arming(Recorder):
    """Records its events; on "arm", arms a timer, keeps its id and passes
    the request on to child `tag`, if given."""

    def __init__(self, tag=None):
        super().__init__()
        self.tag = tag
        self.armed = None

    def on_event(self, event):
        super().on_event(event)
        if isinstance(event, Request) and event.name == "arm":
            timer, self.armed = self.new_timer(1)
            return [timer] + ([ToChild(self.tag, event)] if self.tag else [])
        return []


def test_timer_returns_to_its_owner_with_the_id_it_set():
    leaf = Arming()
    mid = Composite(Arming("leaf"), children={"leaf": leaf})
    root = Composite(Arming("mid"), children={"mid": mid})
    timers = [a for a in root.step(Request("arm")) if isinstance(a, SetTimer)]
    assert [a.timer_id for a in timers] == [(1,), ("mid", 1),
                                             ("mid", "leaf", 1)]
    owners = (root.core, mid.core, leaf)
    for timer, owner in zip(timers, owners):
        assert owner.armed == timer.timer_id
        root.step(TimerFired(timer.timer_id))
        assert owner.events[-1] == TimerFired(timer.timer_id)
    assert [sum(isinstance(e, TimerFired) for e in owner.events)
            for owner in owners] == [1, 1, 1]


def test_unknown_tag_at_depth_two_counts_at_the_root():
    root, mid, leaf = nested()
    root.step(msg(path=("mid",)))
    assert root.step(msg(path=("mid", "ghost"))) == []
    assert root.step(TimerFired(("mid", "ghost", 1))) == []
    assert (root.misrouted, mid.misrouted) == (2, 0)


# -- the route table ---------------------------------------------------------


def automata(comp):
    """The automata a composite's tree routes to: each core, and each child
    that is no composite."""
    out = [comp.core]
    for child in comp.children.values():
        out += automata(child) if isinstance(child, Composite) else [child]
    return out


def composites(comp):
    """A composite and every composite in its tree."""
    return [comp] + [c for child in comp.children.values()
                     if isinstance(child, Composite) for c in composites(child)]


def test_root_holds_the_route_table_filled_by_attach():
    leaf = Leaf()
    mid = Composite(TimedCore(), children={"leaf": leaf})
    assert mid.routes == {(): (mid.core, ()), ("leaf",): (leaf, ())}
    root = Composite(Recorder(), children={"mid": mid})   # attaches mid
    assert mid.routes is None
    routes = {(): (root.core, ()), ("mid",): (mid.core, ((mid, None),)),
              ("mid", "leaf"): (leaf, ((mid, "leaf"),))}
    assert root.routes == routes
    root.step(msg(path=("mid", "leaf")))
    assert root.routes == routes


def test_a_tree_holds_no_reference_cycle():
    gc.collect()
    gc.disable()
    try:
        root, mid, leaf = nested()
        root.step(msg(path=("mid", "leaf")))
        root.step(msg(path=("mid", "leaf", "x")))
        del root, mid, leaf
        assert gc.collect() == 0   # refcounting freed the whole tree
    finally:
        gc.enable()


def test_junk_paths_add_no_route():
    root, mid, leaf = nested()
    root.step(msg(path=("mid",)))
    routes = dict(root.routes)
    for i in range(50):
        root.step(msg(path=("mid", "leaf", f"junk{i}")))
        root.step(msg(path=("mid", f"ghost{i}", "gc1")))
        root.step(TimerFired((f"ghost{i}", 1)))
    assert root.routes == routes and len(routes) == len(automata(root))
    assert leaf.events == []
    assert (root.misrouted, mid.misrouted) == (150, 0)


class Quiet(Automaton):
    """Returns None, not a list, for every event."""

    def on_event(self, event):
        return None


def test_a_leaf_that_returns_none_gives_the_root_an_empty_list():
    mid = Composite(Recorder(), children={"leaf": Quiet()})
    root = Composite(Recorder(), children={"mid": mid, "leaf": Quiet()})
    for path in (("leaf",), ("mid", "leaf")):
        assert root.on_event(msg(path=path)) == []
        assert root.on_event(TimerFired(path + (1,))) == []
    assert root.misrouted == mid.misrouted == 0


# -- abandon -----------------------------------------------------------------


class Loud(Automaton):
    """On every message: one action of each kind a leaf can emit."""

    def on_event(self, event):
        timer, _ = self.new_timer(5)
        return [Multicast((0, 2), event.payload, self.path),
                Broadcast(event.payload, self.path), timer,
                Indicate("decide", (7,)), Indicate("validate", (7,))]


def state(x):
    """x's contents, deep and comparable: an automaton held by another
    counts by identity (each is checked on its own), a function as itself."""
    if isinstance(x, Automaton):
        return id(x)
    if isinstance(x, dict):
        return [(k, state(v)) for k, v in x.items()]
    if isinstance(x, (list, tuple, deque)):
        return [state(v) for v in x]
    if isinstance(x, (set, frozenset)):
        return set(x)
    if hasattr(type(x), "__slots__"):
        return [state(getattr(x, f, None)) for f in type(x).__slots__]
    if hasattr(x, "__dict__") and not callable(x):
        return state(vars(x))
    return x


def pokes(auto):
    """Events a live automaton on `auto.path` at n=4 could take: a message
    from each process, a timer and a request."""
    return [*(MessageArrival(s, Payload("ECHO", value=1), auto.path)
              for s in range(4)),
            TimerFired(auto.path + (1,)), Request("propose", (1,))]


def silent(auto, events):
    """Whether `auto` answers each event with [] and keeps its state as it
    was."""
    before = state(vars(auto))
    return all(auto.step(e) == [] for e in events) \
        and state(vars(auto)) == before


def test_an_abandoned_subtree_is_silent():
    mid = Composite(Recorder(), children={"leaf": Loud()})
    root = Composite(Recorder(), children={"mid": mid})
    live = root.step(msg(path=("mid", "leaf")))
    assert [type(a) for a in live] == [Multicast, Broadcast, SetTimer]
    assert mid.core.events == [Request("decide", ("leaf", 7)),
                               Request("validate", ("leaf", 7))]
    mid.core.events.clear()
    assert mid.step(Request("abandon")) == []
    assert root.step(msg(path=("mid", "leaf"))) == []
    assert root.step(TimerFired(("mid", "leaf", 1))) == []
    assert root.step(msg(path=("mid",))) == []   # mid's core
    assert mid.step(Request("kick")) == []
    assert mid.core.events == [] and root.core.events == []


class Replier(Automaton):
    """Answers every message with a copy to its sender."""

    def on_event(self, event):
        return [Multicast((event.sender,), event.payload, self.path)]


def test_a_route_used_before_an_abandon_mutes_its_target_after_it():
    mid = Composite(Recorder(), children={"leaf": Replier()})
    root = Composite(Recorder(), children={"mid": mid})
    reply = Multicast((2,), Payload("INIT", value=1), ("mid", "leaf"))
    assert root.step(msg(2, path=("mid", "leaf"))) == [reply]
    assert mid.step(Request("abandon")) == []
    assert root.step(msg(2, path=("mid", "leaf"))) == []


class Reporter(Automaton):
    """Sends, indicates and sends again on every message."""

    def on_event(self, event):
        return [Multicast((1,), event.payload, self.path),
                Indicate("got", (5,)),
                Multicast((2,), event.payload, self.path)]


class Answering(Recorder):
    """Records its events and answers a child's indication with a broadcast."""

    def on_event(self, event):
        super().on_event(event)
        if isinstance(event, Request) and event.name == "got":
            return [Broadcast(Payload("ECHO", value=event.args[1]), self.path)]
        return []


def test_depth_two_indication_reaches_its_parent_core_in_order():
    mid = Composite(Answering(), children={"leaf": Reporter()})
    root = Composite(Recorder(), children={"mid": mid})
    out = root.step(msg(3, path=("mid", "leaf")))
    p = Payload("INIT", value=1)
    assert out == [Multicast((1,), p, ("mid", "leaf")),
                   Broadcast(Payload("ECHO", value=5), ("mid",)),
                   Multicast((2,), p, ("mid", "leaf"))]
    assert mid.core.events == [Request("got", ("leaf", 5))]
    assert root.core.events == []


# -- records -------------------------------------------------------------------


INIT = Payload("INIT", value=1)
CONFIG = SimConfig(n=4, t=1, faulty=frozenset({3}), proposals={0: 7})
RECORDS = [MessageArrival(3, INIT, ("a",)), TimerFired(("a", 1)),
           Request("kick", (1,)), Multicast((2, 0), INIT, ("a",)),
           Broadcast(INIT, ("a",)), SetTimer(5, ("a", 1)),
           Indicate("saw", (3,)), Halt(), ToChild("a", Request("kick")),
           Payload("SYNC-ROUND", parity=1, inner=INIT),
           ValidityPredicate.modulo(2, 1), CONFIG,
           AdversarySpec(strategies={3: ("crash", 5)}), Trace(CONFIG),
           CruxParams(4, 1, 10), RunReport(Trace(CONFIG), ["a violation"])]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_are_slotted_values(record):
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.misspelt = 1   # a misspelt field write has nowhere to go
    copy = record.replace()   # the same fields, built anew
    assert copy == record and copy is not record
    with pytest.raises(TypeError):
        record.replace(misspelt=1)   # no such field
    with pytest.raises(TypeError):
        hash(record)


def test_record_equality_checks_the_class():
    assert Request("x") != Indicate("x")
    assert Multicast((1,), INIT) != Broadcast(INIT)
    for record in RECORDS:
        cls = type(record)
        twin = type(cls.__name__, (cls,), {"__slots__": ()})   # same fields
        fields = {f: getattr(record, f) for f in cls.__slots__}
        assert twin(**fields) != record and record != twin(**fields)


def test_replace_runs_the_checks_again():
    with pytest.raises(PayloadError):
        Payload("SYNC-ROUND", inner=INIT)
    with pytest.raises(PayloadError):
        Payload("ECHO", value=1).replace(value=None)
    with pytest.raises(ValueError, match="n must be >= 1"):
        CONFIG.replace(n=0)
    assert ValidityPredicate.modulo(2, 1).replace(residue=0).check(4)
    with pytest.raises(ValueError, match="bad modulo fields"):
        ValidityPredicate.modulo(2, 1).replace(divisor=0)
