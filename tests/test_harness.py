import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from operlab import oracle
from operlab.core import ValidityPredicate
from operlab.harness import (ScenarioError, check_trace, final_view,
                             first_entry_times, load_scenario, oper_params,
                             run_and_check, scenario, scenario_adversary,
                             scenario_config, sweep)
from operlab.oracle import oracle_sim
from operlab.runtime import Automaton
from operlab.simnet import SimConfig, Trace, run
from operlab.sync_ba import RoundSimAdapter, round_plan

from lockstep import BASE, ORACLE, ParityFlipAdapter, wake_round, write_scn

ROOT = Path(__file__).resolve().parent.parent


# -- scenario loading --------------------------------------------------------


def test_load_scenario_roundtrip(tmp_path):
    scn = load_scenario(write_scn(tmp_path, BASE))
    assert scn == BASE


FAILS_CLOSED = [
    {**BASE, "bogus": 1},                                 # unknown key
    {"delta": 10},                                        # missing n
    {**BASE, "proposals": {"0": 1}},                      # both proposal forms
    {**BASE, "faulty": [3], "strategies": {"3": ["bogus"]}},   # unknown strategy
    {**BASE, "faulty": [3], "strategies": {"3": []}},          # empty strategy
    {**BASE, "pre_gst_delay": ["bogus"]},
    {**BASE, "drift": ["bogus"]},
    {**BASE, "validity": {"kind": "bogus"}},
    [1, 2, 3],                                            # not an object
    {**BASE, "proposal": None},
    {**BASE, "proposal": "x"},
    {**BASE, "proposal": 7.5},
    {**BASE, "proposal": True},
    {**BASE, "proposal": -3},
    {**BASE, "proposal": 2 ** 40},                        # wider than 32 bits
    {**BASE, "faulty": [9]},                              # no such process
    {"n": 4, "delta": 10, "proposals": {"9": 1}},
    {**BASE, "propose_at": {"0": -50}},
    {**BASE, "strategies": {"3": ["silent"]}},            # 3 is not faulty
    {**BASE, "faulty": [3], "strategies": {"x": ["silent"]}},
    {"n": 4, "delta": 10, "proposals": {"a": 1}},
    # a process id spelled other than as str(int) spells it
    {"n": 4, "delta": 10, "proposals": {"00": 1}},
    {"n": 4, "delta": 10, "proposals": {" 1": 1}},
    {"n": 4, "delta": 10, "proposals": {"+2": 1}},
    {"n": 11, "delta": 10, "faulty": [10], "strategies": {"1_0": ["crash", 5]}},
    {**BASE, "validity": {"kind": "membership"}},         # no members
    {**BASE, "validity": {"kind": "modulo", "divisor": 0, "residue": 0}},
    {**BASE, "n": "4"},
    # strategy and rule arguments: count and type
    {**BASE, "faulty": [3], "strategies": {"3": ["crash"]}},
    {**BASE, "faulty": [3], "strategies": {"3": ["crash", "x"]}},
    {**BASE, "faulty": [3], "strategies": {"3": ["flood", "x"]}},
    {**BASE, "pre_gst_delay": ["exact"]},
    {**BASE, "pre_gst_delay": ["exact", "x"]},
    {**BASE, "faulty": [3], "strategies": {"3": ["crash", 5, 6]}},
    {**BASE, "faulty": [3], "strategies": {"3": ["silent", 1]}},
    {**BASE, "faulty": [3], "strategies": {"3": ["flood", -5]}},
    {**BASE, "pre_gst_delay": ["uniform", 4]},
    {**BASE, "drift": ["max", 1]},
    {**BASE, "pre_gst_delay": ["exact", -3]},
    # counts the config needs
    {**BASE, "proposal": 0, "value_width": -1, "faulty": [3],
     "strategies": {"3": ["equivocate"]}},
    {**BASE, "seeds": 0},
    {**BASE, "seeds": -2},
    {**BASE, "t": -1},
    {**BASE, "n": 0},
    # the default proposal 0 of a correct process without one is invalid
    {"n": 4, "delta": 10, "validity": {"kind": "membership", "members": []}},
    {"n": 4, "delta": 10, "validity": {"kind": "membership", "members": [5]},
     "proposals": {"0": 5}},
    {**BASE, "faulty": [[3]]},                            # a list, no id
    {**BASE, "faulty": [3, 3], "strategies": {"3": ["silent"]}},   # repeated
    {**BASE, "seed": -3},                 # random.Random(-3) is Random(3)
    {**BASE, "validity": {"kind": "always-true", "members": [1], "divisr": 3}},
]


@pytest.mark.parametrize("obj", FAILS_CLOSED)
def test_load_scenario_fails_closed(tmp_path, obj):
    with pytest.raises(ScenarioError):
        scenario_config(load_scenario(write_scn(tmp_path, obj)))


@pytest.mark.parametrize("obj", FAILS_CLOSED)
def test_a_scenario_dict_fails_closed_before_the_first_event(obj):
    # a scenario built in code takes the checks a file gets
    stepped = []

    def factory(pid):
        stepped.append(pid)
        return Automaton()
    with pytest.raises(ValueError):   # a ScenarioError is a ValueError
        run(scenario_config(obj), scenario_adversary(obj), factory,
            max_time=100)
    assert stepped == []


@pytest.mark.parametrize("obj, error", [
    ({**BASE, "drfit": ["max"]}, "unknown scenario key 'drfit'"),
    ({**BASE, "gst": "0"}, "gst must be"),
])
def test_scenario_config_checks_keys_and_types(obj, error):
    with pytest.raises(ScenarioError, match=error):
        scenario_config(obj)


def test_load_scenario_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioError):
        load_scenario(str(path))
    with pytest.raises(ScenarioError):
        load_scenario(str(tmp_path / "missing.json"))


@pytest.mark.parametrize("text", [
    '{"n": 4, "delta": 10, "seed": 1, "seed": 2}',
    '{"n": 4, "delta": 10, "faulty": [3],'
    ' "strategies": {"3": ["silent"], "3": ["crash", 5]}}',
    '{"n": 4, "delta": 10,'
    ' "validity": {"kind": "modulo", "kind": "always-true"}}'])
def test_load_scenario_rejects_a_repeated_key_at_any_depth(tmp_path, text):
    # json keeps the last of a repeated key; a dict literal cannot hold one
    path = tmp_path / "repeat.json"
    path.write_text(text)
    with pytest.raises(ScenarioError, match="repeated key"):
        load_scenario(str(path))


@pytest.mark.parametrize("rule", ["pre_gst_delay", "drift"])
def test_load_scenario_rejects_a_rule_that_is_no_list(tmp_path, rule):
    # a JSON object is iterable, but its keys are no spec
    with pytest.raises(ScenarioError, match=f"bad {rule} spec"):
        load_scenario(write_scn(tmp_path, {**BASE, rule: {"max": 0}}))
    strategies = {"3": {"silent": 0}}
    with pytest.raises(ScenarioError, match="bad strategies spec"):
        load_scenario(write_scn(tmp_path, {**BASE, "faulty": [3],
                                           "strategies": strategies}))


@pytest.mark.parametrize("fields", [{"divisor": 0, "residue": 0},
                                    {"divisor": 4},   # no residue
                                    {"divisor": "4", "residue": 1}])
def test_load_scenario_reports_bad_modulo_as_scenario_error(tmp_path, fields):
    scn = {**BASE, "validity": {"kind": "modulo", **fields}}
    with pytest.raises(ScenarioError, match="bad modulo fields"):
        load_scenario(write_scn(tmp_path, scn))


@pytest.mark.parametrize("spec, predicate", [
    ({"kind": "always-true"}, ValidityPredicate.always_true()),
    ({"kind": "modulo", "divisor": 4, "residue": 3},
     ValidityPredicate.modulo(4, 3)),     # the proposal 7 is 3 mod 4
])
def test_scenario_validity_parsing(tmp_path, spec, predicate):
    scn = load_scenario(write_scn(tmp_path, {**BASE, "validity": spec}))
    assert scenario_config(scn).validity == predicate


def test_scenario_config_defaults():
    config = scenario_config(BASE)
    assert config.t == 1
    assert config.proposals == {p: 7 for p in range(4)}
    assert config.gst == 0 and config.seed == 0
    config = scenario_config(BASE, seed=42)
    assert config.seed == 42


def test_scenario_adversary_parsing():
    adv = scenario_adversary({**BASE, "strategies": {"3": ["crash", 50]},
                              "pre_gst_delay": ["max"], "drift": ["uniform"]})
    assert adv.strategies == {3: ("crash", 50)}
    assert adv.pre_gst_delay == ("max",)
    assert adv.drift == ("uniform",)


# -- trace checks ------------------------------------------------------------


def make_trace(gst=0, enters=(), decisions=None):
    config = SimConfig(n=4, t=1, gst=gst,
                       proposals={p: 7 for p in range(4)})
    trace = Trace(config)
    trace.enters = list(enters)
    trace.decisions = dict(decisions or {})
    return trace


def test_final_view_prefers_first_post_gst_entry():
    trace = make_trace(gst=100, enters=[(0, 0, 1), (120, 0, 2), (300, 1, 3)])
    assert first_entry_times(trace) == {1: 0, 2: 120, 3: 300}
    assert final_view(trace) == (2, 120)


def test_final_view_spanning_run_uses_gst_clock():
    trace = make_trace(gst=100, enters=[(0, 0, 1), (5, 1, 1)])
    assert final_view(trace) == (1, 100)


def test_final_view_empty():
    assert final_view(make_trace()) is None


def test_check_trace_flags_violations():
    trace = make_trace(
        enters=[(0, p, 1) for p in range(4)],
        decisions={0: (7, 5), 1: (7, 5), 2: (9, 5), 3: (7, 5)})
    msgs = check_trace(trace, oper_params(trace.config))
    assert any(m.startswith("agreement:") for m in msgs)
    assert any(m.startswith("strong-validity:") for m in msgs)

    trace = make_trace(enters=[(0, p, 1) for p in range(4)])
    msgs = check_trace(trace, oper_params(trace.config))
    assert any(m.startswith("termination:") for m in msgs)


def test_check_trace_flags_late_decision():
    params = oper_params(SimConfig(n=4, t=1))
    late = params.delta_total + 21
    trace = make_trace(enters=[(0, p, 1) for p in range(4)],
                       decisions={p: (7, late) for p in range(4)})
    msgs = check_trace(trace, params)
    assert any(m.startswith("termination-deadline:") for m in msgs)


def clean_trace():
    """Every process enters view 1 at time 0 and decides 7 at time 5."""
    return make_trace(enters=[(0, p, 1) for p in range(4)],
                      decisions={p: (7, 5) for p in range(4)})


def test_check_trace_flags_a_view_past_the_ceiling():
    trace = clean_trace()
    params = oper_params(trace.config)
    assert check_trace(trace, params) == []
    trace.enters.append((30, 2, 2))   # V_final + 1 is allowed
    assert check_trace(trace, params) == []
    trace.enters.append((60, 2, 3))
    assert check_trace(trace, params) == [
        "view-ceiling: entered view 3 > V_final+1 = 2"]


def test_check_trace_flags_a_third_start_view_broadcast():
    trace = clean_trace()
    params = oper_params(trace.config)
    trace.sv_counts = {(0, 2): 2, (1, 2): 1}   # twice is allowed
    assert check_trace(trace, params) == []
    trace.sv_counts[0, 2] = 3
    assert check_trace(trace, params) == [
        "start-view-count: process 0 broadcast START-VIEW(2) 3 times"]


def test_check_trace_flags_an_invalid_decision():
    # proposals that are not unanimous, so strong validity does not apply
    trace = clean_trace()
    trace.config = trace.config.replace(
        validity=ValidityPredicate.modulo(2, 1),
        proposals={0: 7, 1: 9, 2: 7, 3: 9})
    params = oper_params(trace.config)
    assert check_trace(trace, params) == []
    trace.decisions = {p: (8, 5) for p in range(4)}
    assert check_trace(trace, params) == [
        "external-validity: decided invalid 8"]


def test_run_and_check_clean_scenario():
    report = run_and_check(scenario_config(BASE), scenario_adversary(BASE))
    assert report.violations == []
    assert set(report.trace.decisions) == {0, 1, 2, 3}


def test_run_and_check_adversarial_scenario():
    scn = {**BASE, "gst": 200, "faulty": [3],
           "strategies": {"3": ["equivocate"]}, "pre_gst_delay": ["max"]}
    report = run_and_check(scenario_config(scn, seed=3),
                           scenario_adversary(scn))
    assert report.violations == []


# -- sweep and oracle --------------------------------------------------------


def test_sweep_zero_seeds_is_empty():
    assert sweep(BASE, [4, 7], 0) == ([], [])


def test_sweep_rows():
    rows, violations = sweep(BASE, [4], 1)
    assert violations == []
    assert len(rows) == 1
    n, t, pbit_max, ratio = rows[0]
    assert (n, t) == (4, 1)
    assert pbit_max > 0
    assert float(ratio) == pbit_max / (4 * 40)


def test_sync_phase_bits_within_cap_on_full_runs():
    # n=10 with pre-GST drift and equivocators; seed 1 enters view 2, so two
    # per-view sync phases are charged separately
    scn = scenario(10, [["equivocate"]], delta=10, gst=36000, seed=1,
                   proposals={str(p): (p % 3) + 1 for p in range(10)},
                   drift=["uniform"])
    config = scenario_config(scn)
    trace = run_and_check(config, scenario_adversary(scn),
                          collect_rows=True).trace
    as_bits: Counter = Counter()   # (pid, view tag) -> wire bits sent
    for (_, pid, kind, path, _, bits) in trace.rows:
        if kind in ("send", "broadcast") and pid in config.correct \
                and path[1:] == ("as",):
            as_bits[(pid, path[0])] += bits
    assert {tag for (_, tag) in as_bits} == {"crux@1", "crux@2"}
    assert max(as_bits.values()) <= oper_params(config).bit_cap


def test_a_protocol_run_never_loads_the_oracle():
    # a fresh interpreter, so no other test's import of `oracle` counts
    code = ("import sys; from operlab import harness as h; "
            f"s = {BASE!r}; "
            "h.run_and_check(h.scenario_config(s), h.scenario_adversary(s)); "
            "print('operlab.oracle' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, cwd=Path(oracle.__file__).parents[1],
                         timeout=60)
    assert out.stdout == "False\n", out.stderr


def test_oracle_sim_matches_reference():
    ok, detail = oracle_sim(ORACLE, seed=0)
    assert ok, detail
    assert "bit-exact" in detail


def test_oracle_sim_mutation_control_diverges(monkeypatch):
    monkeypatch.setattr(oracle, "RoundSimAdapter", ParityFlipAdapter)
    ok, detail = oracle_sim(ORACLE, seed=0)
    assert not ok
    assert "diverges" in detail


def test_oracle_sim_detects_a_process_that_simulates_too_few_rounds(
        monkeypatch):
    built = []

    def adapter(params, pid, machine):
        a = RoundSimAdapter(params, pid, machine)
        built.append(a.total_rounds)   # process 0, built first, stops early
        a.total_rounds -= len(built) == 1
        return a
    monkeypatch.setattr(oracle, "RoundSimAdapter", adapter)
    total = oper_params(scenario_config(ORACLE, seed=0)).R
    plan = round_plan(ORACLE["n"], 0)
    active = sum(step is not None for step in plan)
    assert plan[-1] is not None   # the round process 0 skips is active
    assert oracle_sim(ORACLE, seed=0) == (
        False, f"process 0: {active - 1} simulated active rounds vs "
               f"{active} reference active rounds")
    assert built == [total] * ORACLE["n"]


# correct starts spread by exactly delta_shift (2 * delta): process 0 runs
# 20 ticks behind the others, so the report the second half sends in the last
# round reaches it while it still waits out that half's rounds; every copy
# takes delta - 1 ticks (see the full-delay test below)
STAGGER_EDGE = {**ORACLE, "propose_at": {"0": 20},
                "pre_gst_delay": ["exact", 9]}


class WakeLog(RoundSimAdapter):
    """Logs each SYNC-ROUND arrival that comes while it waits out an idle
    run, in the parity of the round it wakes for, as (that round, adapter,
    sender, inner payload)."""

    log: list = []

    def on_event(self, event):
        if w := wake_round(self, event):
            self.log.append((w, self, event.sender, event.payload.inner))
        return super().on_event(event)


def test_oracle_sim_at_the_stagger_edge_keeps_an_early_message(monkeypatch):
    monkeypatch.setattr(WakeLog, "log", [])
    monkeypatch.setattr(oracle, "RoundSimAdapter", WakeLog)
    ok, detail = oracle_sim(STAGGER_EDGE, seed=0)
    assert ok, detail
    # early copies came, all from correct processes, and each woken round
    # absorbed the copy that came before its wake
    assert WakeLog.log
    for w, adapter, sender, inner in WakeLog.log:
        batch = dict(adapter.machine.absorbed)[w]
        assert any(s == sender and p is inner for s, p in batch)
    monkeypatch.setattr(oracle, "RoundSimAdapter", ParityFlipAdapter)
    assert not oracle_sim(STAGGER_EDGE, seed=0)[0]


@pytest.mark.xfail(strict=True, reason="open defect: a copy that takes the "
                   "full delta reaches a process delta_shift ahead at the "
                   "tick its round closes, after the close (CHANGES.md)")
def test_oracle_sim_at_the_stagger_edge_with_full_delay_copies():
    assert oracle_sim({**STAGGER_EDGE, "pre_gst_delay": ["exact", 10]},
                      seed=0)[0]


def test_oracle_sim_on_the_sync_junk_regression_at_gst_0():
    scn = load_scenario(ROOT / "scenarios" / "regression" / "sync-junk.json")
    for seed in range(3):
        ok, detail = oracle_sim({**scn, "gst": 0}, seed=seed)
        assert ok, detail


def test_oracle_sim_rejects_pre_gst_starts():
    with pytest.raises(ScenarioError):
        oracle_sim({**ORACLE, "gst": 50})
    with pytest.raises(ScenarioError):
        oracle_sim({**ORACLE, "propose_at": {"0": 100}})
