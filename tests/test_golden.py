"""Byte-identical behaviour pins for full-protocol runs.

For a fixed set of (scenario, seed) runs, the CSV row and the sha256 of the
exported trace lines are pinned. A refactor that claims to keep behaviour
must leave every pin as it is; a change that alters behaviour on purpose
updates the pins and says why.
"""

import gc
import hashlib

import pytest

from operlab.harness import run_and_check, scenario_adversary, scenario_config
from operlab.simnet import csv_row, trace_lines

DELTA = 10


def _view_change(seed):
    # n=10 at GST = 8 * delta_total with pre-GST timer drift and three
    # equivocating processes: some seeds reach view 2.
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
     "0,10,3,36000,10,36399,34026.142857142855,891.4,2,1",
     "a17fe897e6da085409cacb28a22bb1512976f7f46bab57ba24a6a3d416cbd168"),
    ("view-change-1", _view_change(1),
     "1,10,3,36000,10,34072,31919.571428571428,889.3,2,1",
     "3450c659f9f12c37d4577548088bab3909997024487cb8641588d7b019ecbf6b"),
    ("view-change-2", _view_change(2),
     "2,10,3,36000,10,15058,13266.142857142857,438.1,1,1",
     "90397632bfa31a49e09a0a404c86cd14a2f7928e257958e40aa6d9418264a75d"),
    ("view-change-3", _view_change(3),
     "3,10,3,36000,10,31647,29431.428571428572,889.3,2,1",
     "212240c8a4868e703ec47ca5812a3174a1508d53dcc443adc4e35ac40b18cbec"),
    # correct process 0 finishes and halts at 40366 with its view-1 round
    # timer crux@1/as/144 pending; the timer fires at 40371 and is ignored
    ("view-change-80", _view_change(80),
     "80,10,3,36000,10,14037,12991.57142857143,437.5,1,1",
     "217faea7578c405151d89b2c9a15f07eef72c39798c7af6d0d2b17788a2c46af"),
    ("flood-random-0", _flood_random(0),
     "0,7,2,2000,10,10605,10011.4,298.4,1,1",
     "b73e86cedaf7463adca0aa62e1bbc36523b9f7657d50c5f38cdbbef05b8497fd"),
    ("flood-random-1", _flood_random(1),
     "1,7,2,2000,10,11081,10185.0,298.3,1,1",
     "174565cb59c60e67f1d04cd1e08be0f4c3ab510818e3edbadf6ee984f5ed1c60"),
    ("max-delayer-crash-0", _max_delayer_crash(0),
     "0,7,2,2000,10,11578,10848.6,303.0,1,1",
     "04d638b8d6bd55ded2d1d3678054d3ad5f71651a491e5c5ef593ecc5600d26ac"),
    ("exact3-drift-max-0", _exact_drift_max(0),
     "0,7,2,2000,10,10241,9800.0,306.3,1,1",
     "b1a4d4e9b45d37c475423051d51f18356dc318182d1d9b77e8549cfe3098070e"),
    ("sync-large-0", _sync_large(0),
     "0,31,10,0,10,58697,55795.09523809524,1459.0,1,1",
     "a4b5a136f4dbb4c7817355496ad487440414b1b900d794f338741f06ad5ac904"),
    ("staggered-0", _staggered(0),
     "0,7,2,0,10,12761,11993.333333333334,307.0,1,1",
     "4e7ef093716bfec67451bddae2df00646fbf4219536cef44cc8dec252e1bad01"),
    ("unanimous-n4", UNANIMOUS,
     "0,4,1,0,10,5314,5234.0,162.6,1,1",
     "ac751f88f3b011480b27950ecaad4b06ed70bab88e942c3b5d19294d039de0b1"),
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
