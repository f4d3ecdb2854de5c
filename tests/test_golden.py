"""Byte-identical behaviour pins for full-protocol runs, and the open
defects as scenario files.

Each pin in `golden_pins.json` names a scenario file under
`scenarios/golden/` and a seed, and holds the CSV row and the sha256 of the
trace that `operlab run FILE --seed S --trace DIR` writes. A refactor that
claims to keep behaviour must leave every pin as it is; a change that alters
behaviour on purpose updates the pins and says why. Each file under
`scenarios/repro/` is an open defect: `operlab run` on it exits 1 until the
defect is mended. Each file under `scenarios/regression/` guards a mended
one: `operlab run` on it exits 0 at seeds 0-2.
"""

import gc
import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

from operlab.cli import main
from operlab.crux import CruxCore
from operlab.graded_consensus import GradedConsensus
from operlab.harness import (load_scenario, run_and_check, scenario_adversary,
                             scenario_config)
from operlab.oper import Oper, OperCore, _tag_view
from operlab.runtime import Indicate, MessageArrival, Request
from operlab.simnet import CSV_HEADER
from operlab.sync_ba import RoundSimAdapter

from lockstep import wake_round

ROOT = Path(__file__).resolve().parent.parent
PINS = json.loads((ROOT / "tests" / "golden_pins.json").read_text())
REPROS = sorted((ROOT / "scenarios" / "repro").glob("*.json"))
REGRESSIONS = sorted((ROOT / "scenarios" / "regression").glob("*.json"))


def pinned_run(label):
    """The checked run of pin `label`, from its scenario file."""
    pin = PINS[label]
    scn = load_scenario(ROOT / pin["file"])
    return run_and_check(scenario_config(scn, seed=pin["seed"]),
                         scenario_adversary(scn))


@pytest.mark.parametrize("label", PINS)
def test_golden_trace(label, tmp_path):
    pin = PINS[label]
    csv = tmp_path / "out.csv"
    assert main(["run", str(ROOT / pin["file"]), "--seed", str(pin["seed"]),
                 "--trace", str(tmp_path), "--csv", str(csv)]) == 0
    assert csv.read_text() == f"{CSV_HEADER}\n{pin['csv']}\n"
    text = (tmp_path / f"trace_seed{pin['seed']}.txt").read_text()
    assert text.endswith("\n")
    assert hashlib.sha256(text[:-1].encode()).hexdigest() == pin["sha256"]


@pytest.mark.parametrize("path", [
    pytest.param(path, marks=pytest.mark.xfail(
        strict=True, reason="an open defect (scenarios/README.md)"))
    for path in REPROS], ids=[path.stem for path in REPROS])
def test_repro_passes_every_check(path, tmp_path):
    assert main(["run", str(path), "--csv", str(tmp_path / "out.csv")]) == 0


@pytest.mark.parametrize("path", REGRESSIONS,
                         ids=[path.stem for path in REGRESSIONS])
def test_regression_passes_every_check(path, tmp_path):
    for seed in range(3):
        assert main(["run", str(path), "--seed", str(seed),
                     "--csv", str(tmp_path / "out.csv")]) == 0, seed


def test_sync_junk_reaches_members_across_an_idle_run(monkeypatch):
    # the regression's point: before GST, faulty junk of the parity of the
    # round a member wakes for comes while it waits out an idle run
    kept = Counter()
    on_event = RoundSimAdapter.on_event

    def logging(self, event):
        if wake_round(self, event):
            kept[event.sender] += 1
        return on_event(self, event)
    monkeypatch.setattr(RoundSimAdapter, "on_event", logging)
    scn = load_scenario(ROOT / "scenarios" / "regression" / "sync-junk.json")
    report = run_and_check(scenario_config(scn, seed=0),
                           scenario_adversary(scn))
    assert report.violations == []
    assert any(kept[pid] for pid in scn["faulty"])


def test_golden_set_covers_view_change():
    rows = {label: pin["csv"].split(",") for label, pin in PINS.items()}
    views = {label: int(row[8]) for label, row in rows.items()}
    # an empty latency field means some correct process never decided
    stalled = {label for label, row in rows.items() if row[7] == ""}
    assert views["view-change-2"] >= 2 and views["view-change-29"] >= 2
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
    for label in PINS:
        pinned_run(label)
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
    # those come from the current view alone. The pinned run's abandoned
    # view-1 instances get messages after the abandon (see its note)
    stale = []   # (indication, view it names, view the process was in)
    seen = set()
    late = Counter()   # messages to a view below the process's current one
    request = OperCore._request
    on_event = Oper.on_event

    def counting(self, event):
        if type(event) is MessageArrival and event.path:
            w = _tag_view(event.path[0])
            if w is not None and w < self.core.view:
                late[event.path[:2]] += 1
        return on_event(self, event)

    def recording(self, event):
        name = event.name
        if name in ("completed", "validate", "decide"):
            w = _tag_view(event.args[0])
            seen.add(name)
            if w < self.view or (w > self.view and name != "validate"):
                stale.append((name, w, self.view))
        return request(self, event)
    monkeypatch.setattr(OperCore, "_request", recording)
    monkeypatch.setattr(Oper, "on_event", counting)
    report = pinned_run("view-change-29")
    assert max(v for (_, _, v) in report.trace.enters) == 2
    assert late[("crux@1", "vb")] > 0
    assert seen == {"completed", "validate", "decide"}
    assert stale == []


@pytest.mark.parametrize("label", ["flood-random-0", "sync-large-0"])
def test_a_run_leaves_no_reference_cycles(label):
    # freed by reference counts alone, a run needs no cycle collection
    gc.collect()
    gc.disable()
    try:
        pinned_run(label)
    finally:
        gc.enable()
    assert gc.collect() == 0
