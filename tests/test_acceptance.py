"""End-to-end acceptance battery.

Each test prints one CRITERION line (PASS/FAIL) and then asserts it, so the
verbose test log doubles as the acceptance report. The shared fuzz battery
is run once per session and reused by the safety, termination, and
view-ceiling criteria.
"""

import filecmp
import json
import time

import pytest

from operlab.core import BOT
from operlab.cli import main as cli_main
from operlab.finisher import Finisher
from operlab.graded_consensus import GradedConsensus
from operlab.harness import (oper_params, oracle_sim, run_and_check,
                             scenario_adversary, scenario_config, sweep)
from operlab.runtime import Indicate, Request
from operlab.simnet import AdversarySpec, SimConfig, run
from operlab.sync_ba import GC_ROUNDS, SyncMachine, mc, rounds
from operlab.validation_broadcast import make_validation_broadcast

from lockstep import Renamed, lockstep_network, lockstep_sent

DELTA = 10
STRATEGY_SET = ("silent", "crash", "equivocate", "delayer", "flood", "random")
GST_SET = (0, 20 * DELTA, 50 * DELTA)
SEEDS_PER_CELL = 6   # 3 n * 6 strategies * 3 gst * 6 = 324 runs


def _report(criterion, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {criterion}: {detail}"


def _battery_scenario(n, strategy, gst, seed):
    t = (n - 1) // 3
    faulty = list(range(n - t, n))
    spec = ["crash", max(1, gst // 2)] if strategy == "crash" else [strategy]
    scn = {
        "n": n, "t": t, "delta": DELTA, "gst": gst,
        "faulty": faulty,
        "strategies": {str(p): spec for p in faulty},
        "drift": ["uniform"],
    }
    if seed % 2 == 0:
        scn["proposal"] = 7
    else:
        scn["proposals"] = {str(p): (p % 3) + 1 for p in range(n)}
    return scn


@pytest.fixture(scope="module")
def fuzz_battery():
    reports = []
    start = time.monotonic()
    for n in (4, 7, 10):
        for strategy in STRATEGY_SET:
            for gst in GST_SET:
                for seed in range(SEEDS_PER_CELL):
                    scn = _battery_scenario(n, strategy, gst, seed)
                    config = scenario_config(scn, seed=seed)
                    reports.append(run_and_check(config,
                                                 scenario_adversary(scn)))
    return reports, time.monotonic() - start


def _violations(reports, prefixes):
    out = []
    for rep in reports:
        for v in rep.violations:
            if v.split(":")[0] in prefixes:
                out.append(f"n={rep.config.n} gst={rep.config.gst} "
                           f"seed={rep.config.seed}: {v}")
    return out


def test_criterion_1_safety_fuzz(fuzz_battery):
    reports, elapsed = fuzz_battery
    bad = _violations(reports, {"agreement", "strong-validity",
                                "external-validity"})
    ok = not bad and len(reports) >= 300 and elapsed < 300
    _report(1, ok,
            bad[0] if bad else f"{len(reports)} runs, {elapsed:.1f}s")


def test_criterion_2_termination_deadline(fuzz_battery):
    reports, _ = fuzz_battery
    bad = _violations(reports, {"termination", "termination-deadline"})
    _report(2, not bad, bad[0] if bad else f"{len(reports)} runs within "
            "tau_final + delta_total + 2*delta")


def test_criterion_3_linear_per_process_bits():
    scn = {"n": 4, "delta": DELTA, "gst": 20 * DELTA, "proposal": 7,
           "pre_gst_delay": ["max"], "drift": ["uniform"]}
    start = time.monotonic()
    rows, violations = sweep(scn, [4, 7, 10, 13, 16], seeds=3)
    elapsed = time.monotonic() - start
    pinned_c = 40   # regression pin; first measurement gave ~38
    worst = max(float(ratio) for (_, _, _, ratio) in rows)
    ok = worst <= pinned_c and elapsed < 600 and not violations
    _report(3, ok, violations[0] if violations else
            f"max ratio {worst:.1f} <= {pinned_c}, {elapsed:.1f}s")


def test_criterion_4_synchrony_from_start_latency(fuzz_battery):
    bad = []
    reports, _ = fuzz_battery
    for n in (4, 7, 10):
        scn = {"n": n, "delta": DELTA, "gst": 0, "proposal": 7}
        config = scenario_config(scn)
        report = run_and_check(config, scenario_adversary(scn))
        reports.append(report)   # included in the view-ceiling pool
        deadline = oper_params(config).delta_total + 2 * DELTA
        for p in config.correct:
            if p not in report.trace.decisions:
                bad.append(f"n={n}: process {p} undecided")
                continue
            value, tm = report.trace.decisions[p]
            if value != 7 or tm > deadline:
                bad.append(f"n={n}: process {p} decided {value} at {tm} "
                           f"(deadline {deadline})")
    _report(4, not bad, bad[0] if bad else "all decide by delta_total + "
            "2*delta with zero tolerance")


def test_criterion_5_view_ceiling(fuzz_battery):
    reports, _ = fuzz_battery
    bad = _violations(reports, {"view-ceiling"})
    _report(5, not bad, bad[0] if bad else
            f"{len(reports)} runs, max view <= V_final + 1")


def _indication_times(trace, name):
    """pid -> time of its last `name` indication (rows must be collected)."""
    return {pid: tm for (tm, pid, kind, *_) in trace.rows
            if kind == "indicate:" + name}


def test_criterion_6_subprotocol_timing_bounds():
    bad = []
    # validation broadcast totality: every correct validates within delta
    # of the first completion
    config = SimConfig(n=4, t=1, faulty=frozenset({3}), delta=DELTA,
                       proposals={p: 7 for p in range(4)})
    trace = run(config, AdversarySpec(),
                lambda pid: Renamed(make_validation_broadcast(1, 0),
                                    {"propose": "broadcast"}),
                max_time=100 * DELTA, collect_rows=True)
    completed = _indication_times(trace, "completed")
    validated = _indication_times(trace, "validate")
    if set(completed) != set(config.correct):
        bad.append(f"completions missing: {sorted(completed)}")
    elif not all(p in validated and
                 validated[p] <= min(completed.values()) + DELTA
                 for p in config.correct):
        bad.append(f"validation later than completion + delta: {validated} "
                   f"vs {completed}")
    # finisher totality: all finish within 2*delta of the first finish
    trace = run(config, AdversarySpec(),
                lambda pid: Renamed(Finisher(1),
                                    {"propose": "to_finish"}),
                max_time=100 * DELTA, collect_rows=True)
    finished = _indication_times(trace, "finish")
    if set(finished) != set(config.correct):
        bad.append(f"finishes missing: {sorted(finished)}")
    elif max(finished.values()) - min(finished.values()) > 2 * DELTA:
        bad.append(f"finish spread beyond 2*delta: {finished}")
    # validation broadcast completes within 4 asynchronous lock-step rounds
    autos = {p: make_validation_broadcast(1, 0) for p in range(4)}
    inds = lockstep_network(
        autos, [(p, Request("broadcast", (7,))) for p in range(4)],
        max_rounds=10)
    for p, events in inds.items():
        done = [r for (r, name, _) in events if name == "completed"]
        if not done or done[0] > 4:
            bad.append(f"lock-step completion rounds for {p}: {done}")
    _report(6, not bad, bad[0] if bad else
            "validation within delta, finish within 2*delta, "
            "completion within 4 rounds")


def _oracle_scenarios():
    scenarios = []
    for n, strategies in ((4, [None, "silent", "equivocate", "random"]),
                          (7, [None, "silent", "equivocate"])):
        t = (n - 1) // 3
        for strat in strategies:
            for seed in range(4):
                scn = {"n": n, "t": t, "delta": DELTA,
                       "proposals": {str(p): (p * seed) % 5 for p in range(n)},
                       "seed": seed}
                if strat is not None:
                    faulty = list(range(n - t, n))
                    scn["faulty"] = faulty
                    scn["strategies"] = {str(p): [strat] for p in faulty}
                scenarios.append(scn)
    for seed in range(25):
        scenarios.append({"n": 4, "t": 1, "delta": DELTA, "seed": seed,
                          "proposals": {str(p): (p + seed) % 4
                                        for p in range(4)}})
    return scenarios


def test_criterion_7_round_simulation_oracle():
    scenarios = _oracle_scenarios()
    assert len(scenarios) >= 50
    bad = []
    for i, scn in enumerate(scenarios):
        ok, detail = oracle_sim(scn)
        if not ok:
            bad.append(f"scenario {i}: {detail}")
    mutated_ok, detail = oracle_sim(scenarios[0], parity_flip_pid=0)
    if mutated_ok:
        bad.append("mutation negative control did not diverge")
    _report(7, not bad, bad[0] if bad else
            f"{len(scenarios)} scenarios bit-exact, mutation diverges")


def test_criterion_8_lockstep_budgets():
    bad = []
    for n in (2, 4, 8):
        for pattern in ("same", "split", "distinct"):
            if pattern == "same":
                proposals = {p: 7 for p in range(n)}
            elif pattern == "split":
                proposals = {p: 5 if p < n // 2 else 9 for p in range(n)}
            else:
                proposals = {p: p + 1 for p in range(n)}
            machines = {p: SyncMachine(p, list(range(n)), proposals[p])
                        for p in range(n)}
            for p, sent in lockstep_sent(machines, rounds(n)).items():
                if sent > mc(n):
                    bad.append(f"n={n} {pattern}: process {p} sent "
                               f"{sent} > {mc(n)}")
            if len({m.decision() for m in machines.values()}) != 1:
                bad.append(f"n={n} {pattern}: no agreement at round bound")
    # the per-stage round constant is a measured lock-step latency
    measured = 0
    for proposals in ({p: 7 for p in range(4)}, {p: p + 1 for p in range(4)}):
        autos = {p: GradedConsensus(4, 1) for p in range(4)}
        inds = lockstep_network(
            autos, [(p, Request("propose", (proposals[p],)))
                    for p in range(4)], max_rounds=12)
        for events in inds.values():
            decided = [r for (r, name, _) in events if name == "decide"]
            if not decided:
                bad.append("lock-step cascade never decided")
            else:
                measured = max(measured, decided[0])
    if measured > GC_ROUNDS:
        bad.append(f"measured cascade latency {measured} > {GC_ROUNDS}")
    _report(8, not bad, bad[0] if bad else
            f"rounds/messages within budget, cascade latency "
            f"{measured} <= {GC_ROUNDS}")


class DecidingGC(GradedConsensus):
    """Keeps the arguments of its last decide indication."""

    decided = None

    def on_event(self, event):
        out = super().on_event(event)
        for a in out or ():
            if isinstance(a, Indicate) and a.name == "decide":
                self.decided = a.args
        return out


def test_criterion_9_graded_consensus_consistency():
    bad = []
    runs = 0
    for n, t in ((4, 1), (7, 2)):
        for strat in ("equivocate", "random", "silent", "delayer"):
            for gst in (0, 20 * DELTA):
                for seed in range(13):
                    runs += 1
                    faulty = frozenset(range(n - t, n))
                    config = SimConfig(
                        n=n, t=t, faulty=faulty, delta=DELTA, gst=gst,
                        seed=seed,
                        proposals={p: (p + seed) % 3 for p in range(n)})
                    autos = {}

                    def factory(pid):
                        autos[pid] = DecidingGC(n, t)
                        return autos[pid]

                    adv = AdversarySpec(
                        drift=("uniform",),
                        strategies={p: (strat,) for p in faulty})
                    trace = run(config, adv, factory,
                                max_time=gst + 500 * DELTA)
                    decided = {pid: autos[pid].decided
                               for pid in config.correct
                               if autos[pid].decided is not None}
                    if set(decided) != set(config.correct):
                        bad.append(f"n={n} {strat} gst={gst} seed={seed}: "
                                   f"undecided correct processes")
                        continue
                    strong = {v for (v, g) in decided.values() if g == 1}
                    if strong:
                        values = {v for (v, _) in decided.values()}
                        if values != strong:
                            bad.append(f"n={n} {strat} gst={gst} "
                                       f"seed={seed}: grade-1 {strong} vs "
                                       f"decisions {values}")
                        raw = {p: autos[p].gbca_outcome
                               for p in config.correct}
                        if any(o == (BOT, 0) for o in raw.values()):
                            bad.append(f"n={n} {strat} gst={gst} "
                                       f"seed={seed}: bottom outcome "
                                       f"alongside grade-1 decision")
    ok = not bad and runs >= 200
    _report(9, ok, bad[0] if bad else f"{runs} adversarial runs consistent")


def test_criterion_10_byte_identical_reruns(tmp_path):
    scn = {"n": 4, "delta": DELTA, "gst": 100, "proposal": 7,
           "faulty": [3], "strategies": {"3": ["random"]},
           "drift": ["uniform"]}
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(scn))
    outputs = []
    for tag in ("a", "b"):
        trace_dir = tmp_path / f"traces_{tag}"
        csv = tmp_path / f"out_{tag}.csv"
        rc = cli_main(["run", str(path), "--seed", "5",
                       "--trace", str(trace_dir), "--csv", str(csv)])
        assert rc == 0
        outputs.append((trace_dir / "trace_seed5.txt", csv))
    (trace_a, csv_a), (trace_b, csv_b) = outputs
    same_trace = filecmp.cmp(trace_a, trace_b, shallow=False)
    same_csv = filecmp.cmp(csv_a, csv_b, shallow=False)
    _report(10, same_trace and same_csv,
            f"trace identical={same_trace}, csv identical={same_csv}")
