from operlab.core import BOT, Payload
from operlab.reducing_broadcast import ReducingBroadcast
from operlab.runtime import Broadcast, Indicate, MessageArrival, Request
from test_runtime import silent


def init(sender, value):
    return MessageArrival(sender, Payload("INIT", value=value))


def echo(sender, value):
    return MessageArrival(sender, Payload("ECHO", value=value))


def delivered(actions):
    for a in actions:
        if isinstance(a, Indicate) and a.name == "deliver":
            return a.args[0]
    return None


def test_unanimous_delivery():
    rb = ReducingBroadcast(t=1)
    out = rb.step(Request("broadcast", (7,)))
    assert Broadcast(Payload("INIT", value=7)) in out
    out = []
    for s in (0, 1, 2):
        out += rb.step(init(s, 7))
    assert delivered(out) == 7


def test_no_delivery_before_own_broadcast():
    rb = ReducingBroadcast(t=1)
    out = []
    for s in (0, 1, 2):
        out += rb.step(init(s, 7))
    assert delivered(out) is None
    out = rb.step(Request("broadcast", (7,)))
    assert delivered(out) == 7


def test_conflicting_support_delivers_bot():
    rb = ReducingBroadcast(t=1)
    rb.step(Request("broadcast", (5,)))
    out = rb.step(init(1, 9))
    assert delivered(out) is None
    out = rb.step(init(2, 9))   # t+1 backers of a non-own value
    assert delivered(out) == BOT


def test_gap_rule_delivers_bot():
    rb = ReducingBroadcast(t=2)
    rb.step(Request("broadcast", (1,)))
    out = []
    for s, v in ((1, 2), (2, 3), (3, 4), (4, 5)):
        out += rb.step(init(s, v))
    # the non-plurality inits alone exceed the fault budget
    assert delivered(out) == BOT


def test_echo_amplification():
    rb = ReducingBroadcast(t=1)
    rb.step(Request("broadcast", (5,)))
    rb.step(init(1, 9))
    out = rb.step(init(2, 9))
    assert Broadcast(Payload("ECHO", value=9)) in out


def test_first_init_per_sender_wins():
    rb = ReducingBroadcast(t=1)
    rb.step(Request("broadcast", (5,)))
    rb.step(init(1, 9))
    out = rb.step(init(1, 9))   # duplicate sender ignored
    assert delivered(out) is None
    assert rb.init.count(9) == 1


def test_echo_support_contributes_to_quorum():
    rb = ReducingBroadcast(t=1)
    rb.step(Request("broadcast", (7,)))
    rb.step(init(1, 7))
    rb.step(init(2, 7))
    out = rb.step(echo(3, 7))   # init + echo support reaches 2t+1
    assert delivered(out) == 7


def test_delivers_at_most_once():
    rb = ReducingBroadcast(t=1)
    rb.step(Request("broadcast", (7,)))
    out = []
    for s in (0, 1, 2, 3):
        out += rb.step(init(s, 7))
    deliveries = [a for a in out
                  if isinstance(a, Indicate) and a.name == "deliver"]
    assert len(deliveries) == 1


def test_abandon_mutes_output():
    rb = ReducingBroadcast(t=1)
    rb.step(Request("broadcast", (7,)))
    rb.step(Request("abandon"))
    assert silent(rb, [init(s, 7) for s in (0, 1, 2)])
