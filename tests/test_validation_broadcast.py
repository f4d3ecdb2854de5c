from operlab.core import BOT, Payload
from operlab.runtime import Indicate, MessageArrival, Request
from operlab.validation_broadcast import (ValidationCore,
                                          make_validation_broadcast)

from lockstep import lockstep_network


def build(n, t, defaults):
    return {p: make_validation_broadcast(t, defaults[p]) for p in range(n)}


def events_named(inds, pid, name):
    return [(r, args) for (r, name_, args) in inds[pid] if name_ == name]


def test_unanimous_complete_and_validate():
    autos = build(4, 1, {p: 100 + p for p in range(4)})
    starts = [(p, Request("broadcast", (7,))) for p in range(4)]
    inds = lockstep_network(autos, starts, max_rounds=10)
    for p in range(4):
        assert events_named(inds, p, "completed")
        validated = {args[0] for (_, args) in events_named(inds, p, "validate")}
        assert validated == {7}


def test_completes_within_four_rounds():
    autos = build(4, 1, {p: 0 for p in range(4)})
    starts = [(p, Request("broadcast", (7,))) for p in range(4)]
    inds = lockstep_network(autos, starts, max_rounds=10)
    for p in range(4):
        (first, _), = events_named(inds, p, "completed")[:1]
        assert first <= 4


def test_no_completion_without_broadcast():
    autos = build(4, 1, {p: 0 for p in range(4)})
    starts = [(p, Request("broadcast", (7,))) for p in (0, 1, 2)]
    inds = lockstep_network(autos, starts, max_rounds=10)
    assert not events_named(inds, 3, "completed")
    # but the silent broadcaster still validates (totality)
    assert events_named(inds, 3, "validate")


def test_bot_validation_substitutes_default():
    defaults = {0: 100, 1: 101, 2: 102, 3: 103}
    autos = build(4, 1, defaults)
    # dispersed inputs force the reducer toward the no-value symbol
    starts = [(p, Request("broadcast", (p + 1,))) for p in range(4)]
    inds = lockstep_network(autos, starts, max_rounds=12)
    for p in range(4):
        validated = {args[0] for (_, args) in events_named(inds, p, "validate")}
        assert validated, f"process {p} never validated"
        assert BOT not in validated
        for v in validated:
            assert v in (1, 2, 3, 4, defaults[p])


def test_an_abandoned_process_validates_nothing():
    autos = build(4, 1, {p: 50 for p in range(4)})
    starts = [(p, Request("broadcast", (7,))) for p in range(4)]
    starts.append((0, Request("abandon")))
    inds = lockstep_network(autos, starts, max_rounds=10)
    assert inds[0] == []
    for p in (1, 2, 3):   # 2t + 1 broadcasters are enough
        assert {args for (_, args) in events_named(inds, p, "validate")} \
            == {(7,)}
        assert events_named(inds, p, "completed")


def test_validations_deduplicated_per_value():
    autos = build(4, 1, {p: 0 for p in range(4)})
    starts = [(p, Request("broadcast", (7,))) for p in range(4)]
    inds = lockstep_network(autos, starts, max_rounds=10)
    for p in range(4):
        validated = [args[0] for (_, args) in events_named(inds, p, "validate")]
        assert len(validated) == len(set(validated))


def test_completed_indicated_once_as_echoes_keep_arriving():
    core = ValidationCore(1, default=0)
    core.step(Request("broadcast", (7,)))
    out = []
    for sender, v in ((0, 7), (1, 7), (2, 7), (3, 7), (2, 7), (3, BOT)):
        out += core.step(MessageArrival(sender, Payload("ECHO", value=v)))
    assert core.completed
    assert out.count(Indicate("completed")) == 1
