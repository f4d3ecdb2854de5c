from operlab.core import BOT, Payload
from operlab.finisher import Finisher
from operlab.runtime import Broadcast, Indicate, MessageArrival, Request
from test_runtime import silent


def finish_msg(sender, value):
    return MessageArrival(sender, Payload("FINISH", value=value))


def test_to_finish_broadcasts_once():
    f = Finisher(1)
    out = f.step(Request("to_finish", (7,)))
    assert out == [Broadcast(Payload("FINISH", value=7))]
    assert f.step(Request("to_finish", (9,))) == []


def test_quorum_triggers_finish():
    f = Finisher(1)
    f.step(Request("to_finish", (7,)))
    out = []
    for s in (1, 2, 3):
        out += f.step(finish_msg(s, 7))
    assert Indicate("finish", (7,)) in out


def test_adopt_and_rebroadcast_without_own_start():
    f = Finisher(1)
    out = []
    out += f.step(finish_msg(1, 7))
    assert out == []
    out += f.step(finish_msg(2, 7))   # t+1 support: adopt
    assert Broadcast(Payload("FINISH", value=7)) in out
    out = f.step(finish_msg(3, 7))    # 2t+1: finish
    assert Indicate("finish", (7,)) in out


def test_thresholds_fire_amid_junk_values():
    # n=7, t=2: the faulty senders 5 and 6 name junk values, their first one
    # with t supporters, interleaved with FINISH(7) from 0-4; adoption comes
    # on the 3rd matching message (t+1) and the finish indication on the
    # 5th (2t+1), nowhere else
    f = Finisher(2)
    junk = [(5, 3), (6, 3), (5, 9), (6, 11), (5, 20), (6, 21), (5, 7), (6, 7)]
    adopt_at = finish_at = None
    for k, sender in enumerate((0, 1, 2, 3, 4), start=1):
        for s, v in junk[2 * k - 2:2 * k]:
            assert f.step(finish_msg(s, v)) == []
        out = f.step(finish_msg(sender, 7))
        if Broadcast(Payload("FINISH", value=7)) in out:
            assert adopt_at is None
            adopt_at = k
        if Indicate("finish", (7,)) in out:
            assert finish_at is None
            finish_at = k
    assert (adopt_at, finish_at) == (3, 5)
    # only a sender's first FINISH counts: later values add no entry
    assert len(f.finish_from) == 2 and f.finish_from.count(7) == 5


def test_finishes_at_most_once():
    f = Finisher(1)
    f.step(Request("to_finish", (7,)))
    finishes = []
    for s in (0, 1, 2, 3):
        finishes += [a for a in f.step(finish_msg(s, 7))
                     if isinstance(a, Indicate)]
    assert len(finishes) == 1


def test_bot_finish_ignored():
    f = Finisher(1)
    for s in (0, 1, 2, 3):
        assert f.step(finish_msg(s, BOT)) == []


def test_abandon_mutes():
    f = Finisher(1)
    f.step(Request("abandon"))
    assert silent(f, [Request("to_finish", (7,)),
                      *(finish_msg(s, 7) for s in (0, 1, 2, 3))])
