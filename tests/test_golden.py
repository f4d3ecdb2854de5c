"""Byte-identical behaviour pins for full-protocol runs.

For a fixed set of (scenario, seed) runs, the CSV row and the sha256 of the
exported trace lines are pinned. A refactor that claims to keep behaviour
must leave every pin as it is; a change that alters behaviour on purpose
updates the pins and says why.
"""

import gc
import hashlib
from collections import Counter

import pytest

from operlab.crux import CruxCore
from operlab.graded_consensus import GradedConsensus
from operlab.harness import run_and_check, scenario_adversary, scenario_config
from operlab.oper import OperCore, _tag_view
from operlab.runtime import Indicate, Request
from operlab.simnet import csv_row, trace_lines
from operlab.sync_ba import RoundSimAdapter

DELTA = 10


def _view_change(seed):
    # n=10 at GST = 36000 = 20 * delta_total with pre-GST timer drift and
    # three equivocating processes: some seeds reach view 2.
    faulty = [7, 8, 9]
    return {"n": 10, "t": 3, "delta": DELTA, "gst": 36000, "seed": seed,
            "faulty": faulty,
            "strategies": {str(p): ["equivocate"] for p in faulty},
            "proposals": {str(p): (p % 3) + 1 for p in range(10)},
            "pre_gst_delay": ["uniform"], "drift": ["uniform"]}


def _flood_random(seed):
    return {"n": 7, "t": 2, "delta": DELTA, "gst": 2000, "seed": seed,
            "faulty": [5, 6],
            "strategies": {"5": ["flood", DELTA], "6": ["random"]},
            "proposals": {str(p): (p % 2) + 1 for p in range(7)}}


def _max_delayer_crash(seed):
    # every pre-GST message takes the maximal delay; one faulty process is a
    # delayer (its copies take the "max" rule too), the other crashes before
    # GST
    return {"n": 7, "t": 2, "delta": DELTA, "gst": 2000, "seed": seed,
            "faulty": [5, 6],
            "strategies": {"5": ["delayer"], "6": ["crash", 700]},
            "proposals": {str(p): (p % 3) + 1 for p in range(7)},
            "pre_gst_delay": ["max"], "drift": ["uniform"]}


def _exact_drift_max(seed):
    return {"n": 7, "t": 2, "delta": DELTA, "gst": 2000, "seed": seed,
            "faulty": [6], "strategies": {"6": ["equivocate"]},
            "proposals": {str(p): (p % 2) + 1 for p in range(7)},
            "pre_gst_delay": ["exact", 3], "drift": ["max"]}


def _sync_large(seed):
    # the benchmark's sync-large scenario: the sync BA halves 31 members into
    # 16/15 and recurses five levels deep
    faulty = list(range(21, 31))
    return {"n": 31, "t": 10, "delta": DELTA, "gst": 0, "seed": seed,
            "faulty": faulty,
            "strategies": {str(p): ["equivocate"] for p in faulty},
            "proposals": {str(p): (p % 3) + 1 for p in range(31)},
            "pre_gst_delay": ["uniform"], "drift": ["none"]}


def _staggered(seed):
    # processes 0 and 1 propose late, so each buffers the view-1 messages
    # that arrive before its proposal and replays them when it proposes
    return {"n": 7, "t": 2, "delta": DELTA, "gst": 0, "seed": seed,
            "faulty": [6], "strategies": {"6": ["equivocate"]},
            "proposals": {str(p): (p % 2) + 1 for p in range(7)},
            "propose_at": {"0": 15, "1": 20}}


UNANIMOUS = {"n": 4, "delta": DELTA, "gst": 0, "seed": 0, "proposal": 7}

# (label, scenario, csv row, sha256 of the trace lines joined by newlines)
GOLDEN = [
    ("view-change-0", _view_change(0),
     "0,10,3,36000,10,19870,18524.0,349.2,2,1",
     "1a05e1bdfe3f550d647a2bd0903b9838d46ced8c2359b6173cdef1ea3c1649af"),
    ("view-change-1", _view_change(1),
     "1,10,3,36000,10,19535,18902.14285714286,350.1,2,1",
     "bddd21a0073784346811e03b1d008e970f99dccd8e342e5ecacd5627cbf8e21c"),
    ("view-change-2", _view_change(2),
     "2,10,3,36000,10,19535,18510.0,349.9,2,1",
     "e12e2e58da4ad42f58e5deb8bc6d3bdb67948fde394e6c32c0523cc91da3bda0"),
    ("view-change-3", _view_change(3),
     "3,10,3,36000,10,18670,17575.714285714286,351.3,2,1",
     "fcc02aeb860c2559428c7b33c9a6a3831d629f28ad29cba65f932ac1eba1981c"),
    # processes enter view 2 while view 1's validation broadcasts still
    # run, so view 1's abandoned instances get messages after the abandon
    ("view-change-21", _view_change(21),
     "21,10,3,36000,10,19070,17610.714285714286,350.6,2,1",
     "26b5342b8a550c90bdac4c6ce1e4e9644dd07b84674cd8536efbefab7884a756"),
    ("view-change-80", _view_change(80),
     "80,10,3,36000,10,18680,17315.0,349.8,2,1",
     "eb3dda2c9b1b76f27a2ab8ecb93d31283677aef1750d65b9cdfdb3ae4eb1c588"),
    # correct process 0 finishes and halts at 37675 with its view-1 gc2 gate
    # timer crux@1/2 pending; the timer fires at 37676 and is ignored
    ("view-change-29", _view_change(29),
     "29,10,3,36000,10,7610,6830.714285714285,168.1,1,1",
     "58b9c22244ac4b7b43d07815874133b711686649822d930c2fb7280b3e880a23"),
    ("flood-random-0", _flood_random(0),
     "0,7,2,2000,10,5985,5488.0,118.4,1,1",
     "32d8d119c2f6ddbce0330e21d10567df2904cf8cc5b4120196aa8f1ebeafec39"),
    ("flood-random-1", _flood_random(1),
     "1,7,2,2000,10,5705,5320.0,118.3,1,1",
     "75dbbc8a53071be79ff5d73b164d18a0adcd42b79a75bccf11a97caf111860ba"),
    ("max-delayer-crash-0", _max_delayer_crash(0),
     "0,7,2,2000,10,6825,6664.0,123.0,1,1",
     "bdda0f3fe413aa8bf276b6440df020fed8f724d856b82db9e0f586cb87c5e41d"),
    ("exact3-drift-max-0", _exact_drift_max(0),
     "0,7,2,2000,10,5145,5063.333333333333,126.3,1,1",
     "7ce49cfb549c5efc4b595f4ba75a7c42454b82f0791de5a21151b40b9fce018f"),
    ("sync-large-0", _sync_large(0),
     "0,31,10,0,10,34785,34136.19047619047,559.0,1,1",
     "0c66985f6bf1638aee28a0372df6279402596dc772e4fb5573fbe9c641e87568"),
    ("staggered-0", _staggered(0),
     "0,7,2,0,10,7665,7303.333333333333,127.3,1,1",
     "1d6e792edd621c3beef32ae0d917a1162ab86004b672433ae4d635efe45fe002"),
    ("unanimous-n4", UNANIMOUS,
     "0,4,1,0,10,3550,3430.0,72.7,1,1",
     "2b515b9e3100f55730399d66d531b6e8b9979841d82b7e76417f4081c5cba705"),
]


def golden_run(scn):
    report = run_and_check(scenario_config(scn), scenario_adversary(scn),
                           collect_rows=True)
    text = "\n".join(trace_lines(report.trace))
    return csv_row(report.trace), hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("label,scn,want_csv,want_sha", GOLDEN,
                         ids=[g[0] for g in GOLDEN])
def test_golden_trace(label, scn, want_csv, want_sha):
    got_csv, got_sha = golden_run(scn)
    assert got_csv == want_csv
    assert got_sha == want_sha


def test_golden_set_covers_view_change():
    views = {label: int(csv.split(",")[8]) for label, _, csv, _ in GOLDEN}
    # an empty latency field means some correct process never decided
    stalled = {label for label, _, csv, _ in GOLDEN if csv.split(",")[7] == ""}
    assert views["view-change-0"] >= 2 and views["view-change-3"] >= 2
    # view-change-1 guards a graded-consensus (BOT, 0) outcome reached
    # before the proposal, which left the run undecided in view 1
    assert views["view-change-1"] >= 2
    assert stalled == set()


def test_each_instance_gets_propose_at_most_once(monkeypatch):
    # no automaton checks for a second proposal: its parent guarantees one
    # at most (see the runtime docstring), and each adapter's one proposal
    # gives one sync-done at most
    counts = Counter()   # (instance, "propose" or "sync-done") -> count

    def counting(cls):
        on_event = cls.on_event

        def wrapper(self, event):
            out = on_event(self, event)
            if type(event) is Request and event.name == "propose":
                counts[self, "propose"] += 1
            for a in out or ():
                if type(a) is Indicate and a.name == "sync-done":
                    counts[self, "sync-done"] += 1
            return out
        monkeypatch.setattr(cls, "on_event", wrapper)

    for cls in (GradedConsensus, CruxCore, RoundSimAdapter):
        counting(cls)
    for _, scn, _, _ in GOLDEN:
        run_and_check(scenario_config(scn), scenario_adversary(scn))
    seen = {(type(auto), kind) for auto, kind in counts}
    assert seen == {(GradedConsensus, "propose"), (CruxCore, "propose"),
                    (RoundSimAdapter, "propose"),
                    (RoundSimAdapter, "sync-done")}
    assert max(counts.values()) == 1


def test_no_validation_of_an_abandoned_view_reaches_the_view_loop(
        monkeypatch):
    # a process abandons a view only to enter a later one, so a validation
    # of a view below its current one comes from an abandoned instance,
    # which is silent; and only a proposed view completes or decides, so
    # those come from the current view alone
    stale = []   # (indication, view it names, view the process was in)
    seen = set()
    request = OperCore._request

    def recording(self, event):
        name = event.name
        if name in ("completed", "validate", "decide"):
            w = _tag_view(event.args[0])
            seen.add(name)
            if w < self.view or (w > self.view and name != "validate"):
                stale.append((name, w, self.view))
        return request(self, event)
    monkeypatch.setattr(OperCore, "_request", recording)
    report = run_and_check(scenario_config(_view_change(21)),
                           scenario_adversary(_view_change(21)))
    assert max(v for (_, _, v) in report.trace.enters) == 2
    assert seen == {"completed", "validate", "decide"}
    assert stale == []


@pytest.mark.parametrize("scn", [_flood_random(0), _sync_large(0)],
                         ids=["flood-random-0", "sync-large-0"])
def test_a_run_leaves_no_reference_cycles(scn):
    # freed by reference counts alone, a run needs no cycle collection
    gc.collect()
    gc.disable()
    try:
        run_and_check(scenario_config(scn), scenario_adversary(scn))
    finally:
        gc.enable()
    assert gc.collect() == 0
